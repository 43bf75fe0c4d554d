import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qaeopt
from oracles import (
    brute_force_min_mi,
    cell_sequences,
    descending_probs,
    grid_mutual_information,
    is_regular,
    neighbors,
    row_major,
    walk_grids,
)
from qaeopt import (
    BipartiteDims,
    OptimizationResult,
    SearchConfig,
    ValidationError,
    YoungTableau,
    count_regular,
    optimize,
    random_regular,
)
from qaeopt.pipeline import _diagonal_spectrum
from qaeopt.qstate import MI_ROUNDOFF_TOL, shannon_entropy
from qaeopt.search import BREADTH_BLOCK, MAX_DRAWS, _block_mi, _breadth, _cell_grids, _depth, _exhaustive

DIMS22 = BipartiteDims(2, 2)
DIMS23 = BipartiteDims(2, 3)


def product_probs(d_a, d_b, seed):
    rng = np.random.default_rng(seed)
    outer = np.outer(rng.dirichlet(np.ones(d_a)), rng.dirichlet(np.ones(d_b)))
    return np.sort(outer.ravel())[::-1]


class TestSearchConfig:
    def test_defaults_are_valid(self):
        cfg = SearchConfig()
        assert cfg.n2 <= cfg.n1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n1": 0},
            {"n2": 0},
            {"n_d": 0},
            {"n1": 5, "n2": 6},
            {"seed": -1},
            {"exhaustive_threshold": 0},
            {"parallelism": 0},
            {"seed": 1.5},
            {"n1": 50.0},
            {"n2": True},
            {"n_d": "5"},
            {"parallelism": 1.5},
            {"exhaustive_threshold": 1.5},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValidationError):
            SearchConfig(**kwargs)

    def test_draw_count_fits_one_uint32_index_word(self):
        # Draw indices 0 .. n1-1 must each fit in one 32-bit seed word.
        assert SearchConfig(n1=MAX_DRAWS, n2=1).n1 == 2**32
        with pytest.raises(ValidationError, match="2\\*\\*32"):
            SearchConfig(n1=MAX_DRAWS + 1, n2=1)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("method", "other", "unknown method 'other'"),
        ("best_mi", -1e-6, "negative mutual information: -1e-06"),
        ("trajectory", (0.1, 0.2), "trajectory must be non-increasing"),
        ("best_mi", -1e-12, None),  # round-off, inside MI_ROUNDOFF_TOL
    ],
)
def test_optimization_result_invariants(field, value, message):
    fields = {
        "best_tableau": random_regular(DIMS22, 0),
        "best_mi": 0.0,
        "method": "heuristic",
        "evaluations": 1,
        "trajectory": (0.2, 0.1),
        "seed_provenance": None,
        field: value,
    }
    if message is None:
        assert getattr(OptimizationResult(**fields), field) == value
    else:
        with pytest.raises(ValidationError, match=re.escape(message)):
            OptimizationResult(**fields)


# Small grids route to exhaustive traversal by default. optimize counts the
# starting arrangement as one evaluation on top of the traversal's.


class TestExhaustive:
    def test_product_probs_reach_zero(self):
        res = optimize(product_probs(2, 2, 5), DIMS22)
        assert res.best_mi < 1e-12
        assert res.method == "exhaustive"

    def test_pure_state_zero(self):
        res = optimize([1.0, 0.0, 0.0, 0.0], DIMS22)
        assert res.best_mi == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_2x3(self, seed):
        probs = descending_probs(6, seed)
        res = optimize(probs, DIMS23)
        assert res.method == "exhaustive"
        assert abs(res.best_mi - brute_force_min_mi(probs, 2, 3)) < 1e-12
        assert res.evaluations == count_regular(DIMS23) + 1

    def test_square_grid_halves_evaluations(self):
        res = optimize(descending_probs(9, 3), BipartiteDims(3, 3))
        assert res.method == "exhaustive"
        assert res.evaluations == count_regular(BipartiteDims(3, 3)) // 2 + 1

    def test_threshold_refusal(self):
        # (2, 3) has 5 regular tableaux: traversed up to a threshold of 5, not beyond.
        probs = descending_probs(6, 0)
        cfg = SearchConfig(n1=20, n2=2, n_d=5)
        assert optimize(probs, DIMS23, replace(cfg, exhaustive_threshold=5)).method == "exhaustive"
        assert optimize(probs, DIMS23, replace(cfg, exhaustive_threshold=4)).method == "heuristic"

    def test_invalid_probs(self):
        with pytest.raises(ValidationError):
            optimize([0.5, 0.2, 0.2, 0.2], DIMS22)
        with pytest.raises(ValidationError):
            optimize([0.2, 0.3, 0.3, 0.2], DIMS22)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
class TestNonFiniteProbabilities:
    def test_optimize(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            optimize([bad, 0.5, 0.3, 0.2], DIMS22)

    def test_every_search_entry_point(self, bad):
        # optimize is the one entry point; both of its routes reject.
        probs = [0.5, 0.3, 0.2, bad]
        for threshold in (1, 10):
            cfg = SearchConfig(n1=4, n2=1, n_d=2, exhaustive_threshold=threshold)
            with pytest.raises(ValidationError, match="non-finite"):
                optimize(probs, DIMS22, cfg)


def breadth(probs, dims, config):
    """The breadth phase alone, as [(YoungTableau, mi)] ascending."""
    scores, seqs = _breadth(probs, dims, config, shannon_entropy(probs))
    grids = _cell_grids(seqs.T, dims.d_a, dims.d_b)
    return [(YoungTableau(dims, grid.tolist()), mi) for mi, grid in zip(scores, grids)]


class TestBreadthFirst:
    def test_single_draw(self):
        cfg = SearchConfig(n1=1, n2=1, seed=9)
        (pair,) = breadth(descending_probs(4, 1), DIMS22, cfg)
        expected = random_regular(DIMS22, np.random.SeedSequence((9, 0)))
        assert pair[0].cells == expected.cells

    def test_keeps_smallest_ascending(self):
        probs = descending_probs(4, 2)
        cfg = SearchConfig(n1=100, n2=2, seed=4)
        kept = breadth(probs, DIMS22, cfg)
        mis = [mi for _, mi in kept]
        assert mis == sorted(mis)
        sampled = [random_regular(DIMS22, np.random.SeedSequence((4, i))) for i in range(100)]
        sampled_mis = sorted(grid_mutual_information(probs[t.index_array]) for t in sampled)
        distinct = sorted({t.cells for t in sampled})
        assert len(kept) == min(2, len(distinct))
        for (t, mi), expected in zip(kept, sampled_mis):
            assert abs(mi - expected) < 1e-12

    def test_distinct_and_regular(self):
        cfg = SearchConfig(n1=50, n2=12, seed=0)
        kept = breadth(descending_probs(4, 3), DIMS22, cfg)
        cells = [t.cells for t, _ in kept]
        assert len(cells) == len(set(cells)) <= 12
        assert all(is_regular(t.cells) for t, _ in kept)

    def test_parallel_matches_sequential_bitwise(self):
        probs = descending_probs(12, 6)
        dims = BipartiteDims(3, 4)
        # The larger n1 gives more tasks than workers, so workers take
        # several tasks each.
        for n1 in (200, 2 * BREADTH_BLOCK + 37):
            seq = breadth(probs, dims, SearchConfig(n1=n1, n2=6, seed=11, parallelism=1))
            par = breadth(probs, dims, SearchConfig(n1=n1, n2=6, seed=11, parallelism=3))
            assert [t.cells for t, _ in seq] == [t.cells for t, _ in par]
            assert [mi for _, mi in seq] == [mi for _, mi in par]  # exact float equality


def naive_depth_first(probs, dims, seeds, n_d):
    """Literal reference: full neighbour sets, argmin by public MI, best-seen."""
    best = math.inf
    for seed_t in seeds:
        current = seed_t
        best = min(best, grid_mutual_information(probs[current.index_array]))
        for _ in range(n_d):
            options = neighbors(current)
            if not options:
                break
            mis = [grid_mutual_information(probs[t.index_array]) for t in options]
            current = options[int(np.argmin(mis))]
            best = min(best, min(mis))
    return best


def depth(probs, seeds, config):
    """The depth phase alone from seed tableaux: (best grid, best mi,
    evaluations, trajectory, seed provenance)."""
    grids, h_flat = np.array([t.cells for t in seeds]), shannon_entropy(probs)
    return _depth(probs, seeds[0].dims, _block_mi(probs, grids, h_flat), cell_sequences(grids), config, h_flat)


class TestDepthFirst:
    def test_seed_at_optimum_is_retained(self):
        probs = descending_probs(4, 7)
        grid, best_mi, *_ = _exhaustive(probs, DIMS22, shannon_entropy(probs))
        cfg = SearchConfig(n1=1, n2=1, n_d=5, seed=0)
        h_flat = shannon_entropy(probs)
        scores = _block_mi(probs, grid[None], h_flat)
        _, depth_mi, *_ = _depth(probs, DIMS22, scores, cell_sequences(grid[None]), cfg, h_flat)
        assert depth_mi <= best_mi + 1e-12

    def test_all_seeds_find_global_minimum_2x3(self):
        probs = descending_probs(6, 11)
        seeds = np.concatenate(list(walk_grids(DIMS23, BREADTH_BLOCK)))
        cfg = SearchConfig(n1=5, n2=5, n_d=10, seed=0)
        h_flat = shannon_entropy(probs)
        scores = _block_mi(probs, seeds, h_flat)
        _, best_mi, _, _, provenance = _depth(probs, DIMS23, scores, cell_sequences(seeds), cfg, h_flat)
        assert abs(best_mi - _exhaustive(probs, DIMS23, h_flat)[1]) < 1e-12
        assert provenance in range(len(seeds))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_reference(self, seed):
        dims = BipartiteDims(3, 3)
        probs = descending_probs(9, seed + 100)
        seeds = [random_regular(dims, np.random.SeedSequence((seed, k))) for k in range(3)]
        cfg = SearchConfig(n1=3, n2=3, n_d=15, seed=0)
        best_mi = depth(probs, seeds, cfg)[1]
        assert abs(best_mi - naive_depth_first(probs, dims, seeds, 15)) < 1e-12

    def test_trajectory_non_increasing(self):
        probs = descending_probs(9, 17)
        dims = BipartiteDims(3, 3)
        seeds = [random_regular(dims, k) for k in range(4)]
        trajectory = depth(probs, seeds, SearchConfig(n1=4, n2=4, n_d=30, seed=0))[3]
        assert all(a >= b for a, b in zip(trajectory, trajectory[1:]))


class TestOptimize:
    def test_small_dims_use_exhaustive(self):
        res = optimize(descending_probs(4, 1), DIMS22, SearchConfig(seed=0))
        assert res.method == "exhaustive"

    @pytest.mark.parametrize("threshold", [1, SearchConfig().exhaustive_threshold])
    @pytest.mark.parametrize("single", ["row", "column"])
    def test_one_filling_grids_route_to_exhaustive(self, single, threshold, monkeypatch):
        # A single row or column has one regular filling and the threshold is
        # at least 1, so optimize never hands such a grid to either heuristic
        # phase: _depth has no case for them.
        def unreachable(*args):
            raise AssertionError("a grid with one filling reached the heuristic")

        monkeypatch.setattr(qaeopt.search, "_breadth", unreachable)
        monkeypatch.setattr(qaeopt.search, "_depth", unreachable)
        config = SearchConfig(n1=1, n2=1, exhaustive_threshold=threshold)
        for k in range(1, 41):
            dims = BipartiteDims(1, k) if single == "row" else BipartiteDims(k, 1)
            result = optimize(descending_probs(k, k), dims, config)
            assert result.method == "exhaustive"
            assert result.best_tableau.cells == row_major(dims)

    def test_8x8_routes_to_heuristic(self):
        assert count_regular(BipartiteDims(8, 8)) > 10**7
        cfg = SearchConfig(n1=40, n2=4, n_d=5, seed=1)
        res = optimize(descending_probs(64, 2), BipartiteDims(8, 8), cfg)
        assert res.method == "heuristic"

    def test_never_worse_than_initial_arrangement(self):
        for seed in range(5):
            probs = descending_probs(64, seed)
            cfg = SearchConfig(n1=30, n2=3, n_d=5, seed=seed)
            res = optimize(probs, BipartiteDims(8, 8), cfg)
            initial = grid_mutual_information(probs.reshape(8, 8))
            assert res.best_mi <= initial + 1e-12
            assert abs(res.initial_mi - initial) < 1e-12

    def test_heuristic_never_beats_exhaustive(self):
        for d_a, d_b in ((3, 3), (2, 4)):
            dims = BipartiteDims(d_a, d_b)
            for seed in range(4):
                probs = descending_probs(dims.total, seed + 31)
                exact = optimize(probs, dims)
                assert exact.method == "exhaustive"
                forced = SearchConfig(n1=60, n2=6, n_d=20, seed=seed, exhaustive_threshold=1)
                heur = optimize(probs, dims, forced)
                assert heur.method == "heuristic"
                assert heur.best_mi >= exact.best_mi - 1e-12

    def test_deterministic(self):
        probs = descending_probs(16, 9)
        cfg = SearchConfig(n1=120, n2=6, n_d=25, seed=77, exhaustive_threshold=1)
        a = optimize(probs, BipartiteDims(4, 4), cfg)
        b = optimize(probs, BipartiteDims(4, 4), cfg)
        assert a.best_tableau.cells == b.best_tableau.cells
        assert a.best_mi == b.best_mi
        assert a.trajectory == b.trajectory
        assert a.evaluations == b.evaluations

    def test_tied_probability_order_is_irrelevant(self):
        base = np.array([0.4, 0.3, 0.3, 0.0])
        shuffled = np.sort(np.array([0.3, 0.4, 0.0, 0.3]))[::-1]
        assert np.array_equal(base, shuffled)
        r1 = optimize(base, DIMS22, SearchConfig(seed=0))
        r2 = optimize(shuffled, DIMS22, SearchConfig(seed=0))
        assert abs(r1.best_mi - r2.best_mi) < 1e-12

    def test_trajectory_starts_at_initial(self):
        probs = descending_probs(6, 21)
        res = optimize(probs, DIMS23, SearchConfig(seed=0))
        assert res.trajectory[0] == res.initial_mi
        assert res.best_mi == res.trajectory[-1]


@pytest.mark.parametrize("d_a,d_b", [(4, 6), (5, 5), (8, 8)])
@pytest.mark.parametrize("kind", ["diagonal-mixed", "product-spectrum"])
def test_heuristic_best_mi_is_its_tableau_score_to_round_off(d_a, d_b, kind):
    # Depth scores its moves from the current sums plus a change (_depth's
    # base minus the moved terms), not from the winner's cell-order sums, so
    # the best_mi it reports can differ in the last bits from the exact
    # score of the tableau it returns: by up to 8.9e-16 on these states.
    # The gap is pinned here, not closed.
    dims = BipartiteDims(d_a, d_b)
    for seed in range(1000, 1005):
        probs = _diagonal_spectrum(kind, dims, seed)
        result = optimize(probs, dims, SearchConfig(n1=2000, exhaustive_threshold=1))
        assert result.method == "heuristic"
        exact = _block_mi(probs, np.array([result.best_tableau.cells]), shannon_entropy(probs))[0]
        assert abs(result.best_mi - exact) <= 1e-14


@st.composite
def spectra(draw):
    """Small grids, single rows and columns among them, with descending
    probabilities that hold exact ties, trailing zeros and entries near 1e-300."""
    d_a, d_b = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        d_a, d_b = (1, d_a * d_b) if draw(st.booleans()) else (d_a * d_b, 1)
    n = d_a * d_b
    weights = draw(st.lists(st.sampled_from([0.0, 1e-300, 3e-300, 1.0, 2.0, 3.0]), min_size=n, max_size=n))
    weights[0] = draw(st.sampled_from([1.0, 3.0]))  # a spectrum has weight somewhere
    w = np.sort(np.array(weights))[::-1]
    return BipartiteDims(d_a, d_b), w / w.sum(), draw(st.integers(0, 2**32 - 1))


@given(spectra())
@settings(max_examples=200, deadline=None)
def test_optimize_end_to_end_properties(case):
    dims, probs, seed = case
    exact = optimize(probs, dims, SearchConfig(n1=30, n2=3, n_d=10, seed=seed))
    forced = optimize(probs, dims, SearchConfig(n1=30, n2=3, n_d=10, seed=seed, exhaustive_threshold=1))
    for res in (exact, forced):
        assert is_regular(res.best_tableau.cells)
        assert -MI_ROUNDOFF_TOL <= res.best_mi <= res.initial_mi
        assert all(a >= b for a, b in zip(res.trajectory, res.trajectory[1:]))
        assert res.best_mi == res.trajectory[-1]
    if dims.total <= 8:
        minimum = brute_force_min_mi(probs, dims.d_a, dims.d_b)
        assert abs(exact.best_mi - minimum) <= 1e-12
        assert forced.best_mi >= minimum - 1e-12  # the heuristic is never below exact


HEURISTIC_WITHOUT_NUMPY_RANDOM = """
import sys
from qaeopt import BipartiteDims, SearchConfig, optimize
probs = [w / 45 for w in range(9, 0, -1)]
config = SearchConfig(n1=300, n2=4, n_d=10, seed=2**70 + 1, exhaustive_threshold=1)
result = optimize(probs, BipartiteDims(3, 3), config)
assert result.method == "heuristic", result.method
print("numpy.random" in sys.modules)
"""


def test_heuristic_search_does_not_load_numpy_random():
    # The breadth phase computes numpy's PCG64 / SeedSequence streams itself,
    # so a search run never needs numpy.random; a fresh interpreter shows it.
    src = str(Path(qaeopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", HEURISTIC_WITHOUT_NUMPY_RANDOM],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
