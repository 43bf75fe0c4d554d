"""Every entry point that takes a probability vector accepts and rejects the
same vectors, against the one tolerance table in ``qaeopt.qstate``, and
``optimize`` accepts every vector any of them accepts. Seeds and sizes meet
one rule each, and every public callable is either in one of these tables
or named as taking no outside numbers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qaeopt
from oracles import flat_entropy
from qaeopt import (
    BipartiteDims,
    DensityMatrix,
    SearchConfig,
    StateFileError,
    ValidationError,
    generate_instance,
    haar_unitary,
    load_statefile,
    optimize,
    random_regular,
    save_statefile,
    shannon_entropy,
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
    "shannon_entropy": lambda p, _: shannon_entropy(p),
}
# A matrix's own checks come first: eigenvalues down to -PSD_TOL, and a trace
# within TRACE_TOL (which is SUM_TOL).
MATRICES = ("load_statefile-dense", "DensityMatrix")
# A file's spectrum, a matrix's eigenvalues and shannon_entropy's input are
# sorted before they are checked, so they have no order to invert.
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
        # PSD_TOL is a matrix's tolerance, not a probability's.
        rejects(name, negative_entry(0.5 * PSD_TOL), tmp_path, "negative")


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


def _message(entry_point, p):
    with pytest.raises(ValidationError) as caught:
        entry_point(p)
    return str(caught.value)


@pytest.mark.parametrize(
    "p",
    [
        [0.9, 0.9],
        [0.5 + 5e-11, 0.3, 0.2, -5e-11],
        [0.5, 0.3, 0.2, 0.1],
        [0.2, 0.3, 0.5 + 2e-12, -2e-12],
        [0.5, math.nan, 0.5],
        [0.5, 0.5, -math.inf],
        [0.0, 0.0, 0.0, 0.0],
    ],
)
def test_shannon_entropy_rejects_what_optimize_rejects_with_its_message(p):
    def search(p):
        return optimize(sorted(p, reverse=True), BipartiteDims(1, len(p)))

    assert _message(shannon_entropy, p) == _message(search, p)


@given(round_off_vectors(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_shannon_entropy_is_the_scalar_sum_of_the_sorted_clipped_vector_in_any_order(case, random):
    # Sorted first, then clipped and rescaled: a vector with inversions
    # within the slack can differ in the last bit from optimize's h_flat,
    # which keeps the order it is given.
    dims, p = case
    shuffled = p.tolist()
    random.shuffle(shuffled)
    q = np.sort(p)[::-1]
    if (q < 0.0).any():
        q = np.maximum(q, 0.0)
        q /= q.sum()
    expected = flat_entropy(q.tolist()).hex()
    assert shannon_entropy(shuffled).hex() == shannon_entropy(p).hex() == expected


SEEDS = {
    "SearchConfig": lambda seed: SearchConfig(seed=seed),
    "random_regular": lambda seed: random_regular(DIMS, seed).cells,
    "generate_instance": lambda seed: generate_instance("random-dense", DIMS, seed).matrix,
    "generate_instance-diagonal": lambda seed: generate_instance("diagonal-mixed", DIMS, seed).matrix,
}
# A numpy SeedSequence or Generator is used as it is, and an int seed as
# numpy's default_rng reads it.
NUMPY_SEEDS = ["random_regular", "generate_instance", "generate_instance-diagonal"]


@pytest.mark.parametrize("bad", [True, 1.5, "1", None])
@pytest.mark.parametrize("name", SEEDS)
def test_seed_must_be_an_integer(name, bad):
    with pytest.raises(ValidationError, match=f"seed must be an integer, got {bad!r}"):
        SEEDS[name](bad)


@pytest.mark.parametrize("name", SEEDS)
def test_seed_must_be_nonnegative(name):
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        SEEDS[name](-1)
    SEEDS[name](0)


@pytest.mark.parametrize("name", NUMPY_SEEDS)
def test_seed_sequence_and_generator_pass_unchanged(name):
    drawn = SEEDS[name](5)
    for seed in (np.random.SeedSequence(5), np.random.default_rng(5), np.int64(5)):
        assert np.array_equal(SEEDS[name](seed), drawn)


SIZES = {
    "BipartiteDims": lambda n: BipartiteDims(n, 2),
    "haar_unitary": lambda n: haar_unitary(n, np.random.default_rng(0)),
    "SearchConfig": lambda n: SearchConfig(n1=n, n2=1),
}


@pytest.mark.parametrize("bad", [0, -2])
@pytest.mark.parametrize("name", SIZES)
def test_size_must_be_positive(name, bad):
    with pytest.raises(ValidationError, match="must be positive"):
        SIZES[name](bad)
    SIZES[name](1)


@pytest.mark.parametrize("bad", [True, 1.5])
@pytest.mark.parametrize("name", SIZES)
def test_size_must_be_an_integer(name, bad):
    with pytest.raises(ValidationError, match="must be an integer"):
        SIZES[name](bad)


# The public callables whose arguments hold no outside probabilities, state,
# seed or size: each takes objects the package checked when they were built,
# or other numbers with a check of their own, or is a type.
NO_OUTSIDE_NUMBERS = {
    "CompressionReport": "the record verify_theorem1 returns",
    "OptimizationResult": "the record optimize returns",
    "StateFile": "the record load_statefile returns; optimize checks its probs",
    "StateFileError": "an exception type",
    "ValidationError": "an exception type",
    "YoungTableau": "a BipartiteDims and cells, checked to hold 1..n once",
    "apply_unitary": "a DensityMatrix and a unitary, checked by is_unitary",
    "build_encoder": "a DensityMatrix and a YoungTableau",
    "compress_reconstruct": "a DensityMatrix, a unitary and a BipartiteDims",
    "count_regular": "a BipartiteDims",
    "mutual_information": "a DensityMatrix and a BipartiteDims",
    "nats_to_bits": "a value in nats",
    "partial_trace": "a DensityMatrix, a BipartiteDims and 'A' or 'B'",
    "relative_entropy": "two DensityMatrix",
    "save_statefile": "writes unchecked files on purpose; load_statefile checks them",
    "verify_theorem1": "a DensityMatrix, a unitary and a BipartiteDims",
    "von_neumann_entropy": "a DensityMatrix",
}


def test_every_public_callable_meets_a_boundary_or_takes_no_outside_numbers():
    tabled = {name.split("-")[0] for table in (ENTRY_POINTS, SEEDS, SIZES) for name in table}
    public = {name for name in qaeopt.__all__ if callable(getattr(qaeopt, name))}
    assert public - tabled - NO_OUTSIDE_NUMBERS.keys() == set(), "add a new entry point to a table"
    assert tabled | NO_OUTSIDE_NUMBERS.keys() <= public
    assert not tabled & NO_OUTSIDE_NUMBERS.keys()
