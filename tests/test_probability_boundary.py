"""Every entry point that takes a probability vector accepts and rejects the
same vectors, against the one tolerance table in ``qaeopt.qstate``, and
``optimize`` accepts every vector any of them accepts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qaeopt import (
    BipartiteDims,
    DensityMatrix,
    SearchConfig,
    StateFileError,
    ValidationError,
    load_statefile,
    optimize,
    save_statefile,
)
from qaeopt.qstate import (
    ENTRY_TOL,
    MONOTONE_SLACK,
    PSD_TOL,
    SPECTRUM_SUM_TOL,
    SUM_TOL,
    _probability_vector,
)

DIMS = BipartiteDims(2, 2)
CONFIG = SearchConfig(n1=4, n2=2, n_d=2)
# 2x2 has two regular tableaux: traversed by default, sampled below a threshold of 2.
HEURISTIC = SearchConfig(n1=4, n2=2, n_d=2, exhaustive_threshold=1)


def _load(p, tmp_path):
    path = tmp_path / "spectrum.json"
    save_statefile(path, DIMS, spectrum=p)
    return load_statefile(path)


def _load_dense(p, tmp_path):
    path = tmp_path / "dense.json"
    save_statefile(path, DIMS, matrix=np.diag(p))
    return load_statefile(path)


ENTRY_POINTS = {
    "optimize": lambda p, _: optimize(p, DIMS, CONFIG),
    "optimize-heuristic": lambda p, _: optimize(p, DIMS, HEURISTIC),
    "load_statefile": _load,
    "load_statefile-dense": _load_dense,
    "DensityMatrix": lambda p, _: DensityMatrix(np.diag(p)),
}
# A matrix's own checks come first: eigenvalues down to -PSD_TOL, and a trace
# within TRACE_TOL (which is SUM_TOL).
MATRICES = ("load_statefile-dense", "DensityMatrix")
# A file's spectrum and a matrix's eigenvalues are sorted before they are
# checked, so they have no order to invert.
IN_ORDER = ["optimize", "optimize-heuristic"]


def negative_entry(x):
    return [0.5 + x, 0.3, 0.2, -x]


def inversion(x):
    return [0.4 - x, 0.2, 0.2 + x, 0.2]


def off_sum(x):
    return [0.4 + x, 0.3, 0.2, 0.1]


def accepts(name, p, tmp_path):
    accepted = ENTRY_POINTS[name](p, tmp_path)  # raises on rejection
    # A state file or DensityMatrix hands on ``probs``, which the search takes.
    if hasattr(accepted, "probs"):
        optimize(accepted.probs, DIMS, CONFIG)


def rejects(name, p, tmp_path, match=None):
    with pytest.raises((ValidationError, StateFileError), match=match):
        ENTRY_POINTS[name](p, tmp_path)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_negative_entry(name, tmp_path):
    accepts(name, negative_entry(0.5 * ENTRY_TOL), tmp_path)
    if name in MATRICES:
        accepts(name, negative_entry(0.5 * PSD_TOL), tmp_path)
        rejects(name, negative_entry(2 * PSD_TOL), tmp_path, "positive semidefinite")
    else:
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
    elif name in MATRICES:
        rejects(name, off_sum(2 * SUM_TOL), tmp_path, "trace")
    else:
        rejects(name, off_sum(2 * SUM_TOL), tmp_path, "sum to 1")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_non_finite(name, bad, tmp_path):
    rejects(name, [0.5, 0.3, 0.2, bad], tmp_path, "non-finite")
    rejects(name, [bad, 0.3, 0.2, 0.1], tmp_path, "non-finite")


# 124 round-off negatives: the vector sums to 1, and to 1 + 1.1e-10 with
# them read as 0, past SUM_TOL unless it is rescaled.
ROUNDOFF_128 = [0.4, 0.3, 0.2, 0.1 + 124 * 0.9 * ENTRY_TOL] + [-0.9 * ENTRY_TOL] * 124


def test_optimize_takes_a_spectrum_file_with_round_off_negatives(tmp_path):
    dims = BipartiteDims(1, 128)
    path = tmp_path / "roundoff.json"
    save_statefile(path, dims, spectrum=ROUNDOFF_128)
    probs = load_statefile(path).probs
    assert probs.min() == 0.0 and abs(probs.sum() - 1.0) <= SUM_TOL
    assert not probs.flags.writeable
    result = optimize(probs, dims)
    assert result.method == "exhaustive" and result.evaluations == 2


# Trace within TRACE_TOL and eigenvalues within PSD_TOL, but the eigenvalues
# clipped at 0 sum to 1 + 1.4e-10.
OFF_SUM_MATRIX = np.diag([0.5, 0.3, 0.2 + 1.4e-10, -0.5e-10])


def test_a_matrix_whose_clipped_spectrum_misses_the_sum_is_rejected_when_built(tmp_path):
    with pytest.raises(ValidationError, match="sum to 1 within"):
        DensityMatrix(OFF_SUM_MATRIX)
    path = tmp_path / "dense.json"
    save_statefile(path, DIMS, matrix=OFF_SUM_MATRIX)
    with pytest.raises(StateFileError, match="^matrix is not a valid density matrix: probabilities must sum"):
        load_statefile(path)


def _fields(result):
    """An optimize result with its floats by ``float.hex``."""
    return (
        result.best_tableau.cells,
        result.best_mi.hex(),
        [x.hex() for x in result.trajectory],
        result.method,
        result.evaluations,
        result.seed_provenance,
    )


@st.composite
def round_off_vectors(draw):
    """Small descending vectors with ties, inversions within half the slack,
    a sum within half of SUM_TOL of 1 and a tail of entries in
    [-ENTRY_TOL, 0], -0.0 among them."""
    d_a, d_b = draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]))
    n = d_a * d_b
    k = draw(st.integers(1, n))
    weights = np.sort(np.array(draw(st.lists(st.integers(1, 20), min_size=k, max_size=k)), float))[::-1]
    slack = st.floats(-0.25 * MONOTONE_SLACK, 0.25 * MONOTONE_SLACK)
    pos = weights / weights.sum() + np.array(draw(st.lists(slack, min_size=k, max_size=k)))
    neg = draw(st.lists(st.floats(-ENTRY_TOL, 0.0), min_size=n - k, max_size=n - k))
    neg = np.sort(np.array(neg, float))[::-1]
    target = 1.0 + draw(st.floats(-0.5 * SUM_TOL, 0.5 * SUM_TOL)) - neg.sum()
    return BipartiteDims(d_a, d_b), np.concatenate((pos * (target / pos.sum()), neg))


@given(round_off_vectors(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_the_check_is_idempotent_and_optimize_searches_the_clipped_vector(case, heuristic):
    dims, p = case
    q = _probability_vector(p, dims.total)
    assert q.min() >= 0.0
    assert _probability_vector(q, dims.total).tobytes() == q.tobytes()
    if not (p < 0.0).any():
        assert q.tobytes() == p.tobytes()
        clipped = p
    else:
        clipped = np.maximum(p, 0.0)
        clipped /= clipped.sum()
    config = SearchConfig(n1=20, n2=3, n_d=5, seed=1, exhaustive_threshold=1) if heuristic else None
    assert _fields(optimize(p, dims, config)) == _fields(optimize(clipped, dims, config))
