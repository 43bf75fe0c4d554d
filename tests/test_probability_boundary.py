"""Every entry point that takes a probability vector accepts and rejects the
same vectors, against the one tolerance table in ``qaeopt.qstate``."""

import math

import pytest

from qaeopt import (
    BipartiteDims,
    SearchConfig,
    StateFileError,
    ValidationError,
    load_statefile,
    optimize,
    save_statefile,
)
from qaeopt.qstate import ENTRY_TOL, MONOTONE_SLACK, SPECTRUM_SUM_TOL, SUM_TOL

DIMS = BipartiteDims(2, 2)
CONFIG = SearchConfig(n1=4, n2=2, n_d=2)
# 2x2 has two regular tableaux: traversed by default, sampled below a threshold of 2.
HEURISTIC = SearchConfig(n1=4, n2=2, n_d=2, exhaustive_threshold=1)


def _load(p, tmp_path):
    path = tmp_path / "spectrum.json"
    save_statefile(path, DIMS, spectrum=p)
    return load_statefile(path)


ENTRY_POINTS = {
    "optimize": lambda p, _: optimize(p, DIMS, CONFIG),
    "optimize-heuristic": lambda p, _: optimize(p, DIMS, HEURISTIC),
    "load_statefile": _load,
}
# A file's spectrum is sorted before it is checked, so it has no order to invert.
IN_ORDER = [name for name in ENTRY_POINTS if name != "load_statefile"]


def negative_entry(x):
    return [0.5 + x, 0.3, 0.2, -x]


def inversion(x):
    return [0.4 - x, 0.2, 0.2 + x, 0.2]


def off_sum(x):
    return [0.4 + x, 0.3, 0.2, 0.1]


def accepts(name, p, tmp_path):
    ENTRY_POINTS[name](p, tmp_path)  # raises on rejection


def rejects(name, p, tmp_path, match=None):
    with pytest.raises((ValidationError, StateFileError), match=match):
        ENTRY_POINTS[name](p, tmp_path)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_negative_entry(name, tmp_path):
    accepts(name, negative_entry(0.5 * ENTRY_TOL), tmp_path)
    rejects(name, negative_entry(2 * ENTRY_TOL), tmp_path, "negative")


@pytest.mark.parametrize("name", IN_ORDER)
def test_order_inversion(name, tmp_path):
    accepts(name, inversion(0.5 * MONOTONE_SLACK), tmp_path)
    rejects(name, inversion(2 * MONOTONE_SLACK), tmp_path, "non-increasing")


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_sum(name, tmp_path):
    accepts(name, off_sum(0.5 * SUM_TOL), tmp_path)
    if name == "load_statefile":
        # Files are renormalized within the wider SPECTRUM_SUM_TOL window.
        accepts(name, off_sum(2 * SUM_TOL), tmp_path)
        rejects(name, off_sum(2 * SPECTRUM_SUM_TOL), tmp_path, "sums to")
    else:
        rejects(name, off_sum(2 * SUM_TOL), tmp_path, "sum to 1")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_non_finite(name, bad, tmp_path):
    rejects(name, [0.5, 0.3, 0.2, bad], tmp_path, "non-finite")
    rejects(name, [bad, 0.3, 0.2, 0.1], tmp_path, "non-finite")
