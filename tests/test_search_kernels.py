"""The array search kernels against the scalar references in oracles.py.

Every comparison is exact: the array code sums in the scalar order and takes
its logarithms from the same C library, so results must agree bit for bit.
"""

import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qaeopt.search
import qaeopt.tableau
from oracles import (
    _swap_keeps_regular,
    brute_force_regular_set,
    grid_mi,
    is_regular,
    neighbors,
    positions,
    row_major,
    scalar_breadth,
    scalar_depth,
    scalar_enumerate,
    scalar_exhaustive,
)
from qaeopt import (
    BipartiteDims,
    SearchConfig,
    YoungTableau,
    generate_instance,
    optimize,
    random_regular,
)
from qaeopt.search import (
    BREADTH_BLOCK,
    LEAF_BLOCK,
    MAX_DRAWS,
    _block_mi,
    _breadth,
    _breadth_block,
    _cell_grids,
    _depth,
    _draw_uniforms,
    _exhaustive,
    _flat_entropy,
    _rough_blocks,
    _sample_block,
    breadth_tasks,
    run_tasks,
    usable_cpus,
    worker_count,
)
from qaeopt.tableau import _random_regular_grid, candidate_swaps, regular_grid_blocks

SAMPLER_DIMS = [(1, 5), (5, 1), (2, 2), (3, 7), (8, 8)]


def tied_probs(weights):
    """Descending probabilities from integer weights: equal weights give
    exactly equal probabilities, zero weights exact zeros."""
    w = np.sort(np.asarray(weights, dtype=float))[::-1]
    return w / w.sum()


def descending_probs(n, seed):
    return np.sort(np.random.default_rng(seed).dirichlet(np.ones(n)))[::-1]


def cells(grid):
    return tuple(map(tuple, grid.tolist()))


def breadth(probs, dims, config):
    """The breadth phase as [(cells, mi)], the form scalar_breadth returns."""
    return [(cells(grid), mi) for mi, _idx, grid in _breadth(probs, dims, config, _flat_entropy(probs))]


def exhaustive(probs, dims):
    """The exhaustive phase as the fields scalar_exhaustive returns."""
    grid, best_mi, evaluations, trajectory, _ = _exhaustive(probs, dims, _flat_entropy(probs))
    return {
        "best_cells": cells(grid),
        "best_mi": best_mi,
        "evaluations": evaluations,
        "trajectory": tuple(trajectory),
    }


def sample_grids(d_a, d_b, seed, lo, hi):
    """The value grids of block draws lo..hi-1."""
    return _cell_grids(_sample_block(d_a, d_b, seed, lo, hi), d_a, d_b)


def scalar_grids(d_a, d_b, seed, lo, hi):
    """Draws lo..hi-1 one at a time, each from numpy's own generator."""
    return np.array([
        _random_regular_grid(d_a, d_b, np.random.default_rng(np.random.SeedSequence((seed, i))))
        for i in range(lo, hi)
    ])


@pytest.mark.parametrize("d_a,d_b", SAMPLER_DIMS)
def test_block_sampler_matches_scalar_draws(d_a, d_b):
    cell = _sample_block(d_a, d_b, 31, 17, 17 + 300)
    assert cell.shape == (d_a * d_b, 300)
    grids = _cell_grids(cell, d_a, d_b)
    assert grids.shape == (300, d_a, d_b)
    assert np.array_equal(grids, scalar_grids(d_a, d_b, 31, 17, 17 + 300))


def test_block_sampler_at_the_cell_cap():
    # 2**14 cells: lengths and cells up to 2**14 - 1 in the int16 state.
    grids = sample_grids(2, 8192, 4, 2**32 - 3, 2**32)
    assert grids.dtype == np.int32
    assert np.array_equal(grids, scalar_grids(2, 8192, 4, 2**32 - 3, 2**32))


def test_the_largest_uniform_never_reaches_the_count():
    # _sample_block takes floor(u * count) without the reference's cap:
    # at the largest uniform, 1 - 2**-53, the product still floors to
    # count - 1 for every count a row can reach.
    u = 1 - 2**-53
    assert u == np.nextafter(1.0, 0.0)
    assert all(int(u * c) == c - 1 for c in range(1, 2**14 + 1))
    counts = np.arange(1, 2**14 + 1, dtype=np.int16)
    assert np.array_equal((u * counts).astype(np.int16), counts - 1)


def breadth_block_peak(d):
    """Traced peak of one full d x d block: its uniform stream, cells,
    grids and scores."""
    probs = descending_probs(d * d, 2)
    tracemalloc.start()
    try:
        _breadth_block(probs, _flat_entropy(probs), d, d, 1, (0, BREADTH_BLOCK), 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_breadth_block_memory():
    assert breadth_block_peak(8) < 4 * 2**20


def test_breadth_block_memory_16x16():
    # Four times the cells of 8x8; a block of 4096 draws that held all its
    # grids at once peaked at about 13.1 MB.
    assert breadth_block_peak(16) < 13 * 2**20


@pytest.mark.parametrize("d_a,d_b", SAMPLER_DIMS)
# 2 * LEAF_BLOCK + 37 draws are one task scored in three pieces.
@pytest.mark.parametrize("n1", [100, 2 * LEAF_BLOCK + 37])
@pytest.mark.parametrize("kind", ["dirichlet", "uniform"])
def test_breadth_matches_scalar(d_a, d_b, n1, kind):
    dims = BipartiteDims(d_a, d_b)
    if kind == "dirichlet":
        probs = descending_probs(dims.total, d_a * 10 + d_b)
    else:  # every grid scores the same, so the draw index decides the ranking
        probs = np.full(dims.total, 1.0 / dims.total)
    got = breadth(probs, dims, SearchConfig(n1=n1, n2=12, seed=5))
    assert got == scalar_breadth(probs, dims, 5, n1, 12)


# 1 to 5 uint32 entropy words for the seed; from 4 on, the draw index is
# entropy beyond SeedSequence's pool and goes through its extra mixing loop.
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**96 + 3, 2**128 + 5]
STREAM_RANGES = [
    (0, 2),
    (2**31, 2**31 + 1),
    (2**32 - 1, 2**32),
    (BREADTH_BLOCK - 3, BREADTH_BLOCK + 4),
    (3 * BREADTH_BLOCK - 1, 3 * BREADTH_BLOCK + 1),
]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("n", [1, 64, 256])
def test_draw_words_match_numpy_streams(seed, n):
    # The uniforms made from each draw's stream words, bit for bit; step k
    # of the stream is uniform k of every draw.
    for lo, hi in STREAM_RANGES:
        expected = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i)))).random(n)
            for i in range(lo, hi)
        ]
        rows = list(_draw_uniforms(seed, lo, hi, n))
        assert len(rows) == n
        assert all(row.dtype == np.float64 and row.shape == (hi - lo,) for row in rows)
        got = np.array(rows)
        assert np.array_equal(got.T.view(np.uint64), np.array(expected).view(np.uint64))


@pytest.mark.parametrize("d_a,d_b", [(2, 3), (3, 3), (8, 8)])
@pytest.mark.parametrize("kind", ["dirichlet", "ties", "uniform"])
def test_breadth_rough_scores_only_select_draws(d_a, d_b, kind, monkeypatch):
    # Rough scores that stray from the exact ones by up to 1e-12, and by a
    # different amount for every draw, so that neither duplicate grids nor
    # tied grids tie any more, must not change the result.
    exact_xlogx = qaeopt.search._xlogx
    stray = np.random.default_rng(0)
    monkeypatch.setattr(
        qaeopt.search,
        "_xlogx_rough",
        lambda x: exact_xlogx(x) + 5e-14 * stray.uniform(-1.0, 1.0, x.shape),
    )
    dims = BipartiteDims(d_a, d_b)
    n = dims.total
    if kind == "dirichlet":
        probs = descending_probs(n, n)
    elif kind == "ties":
        probs = tied_probs(np.random.default_rng(n).integers(1, 4, n))
    else:
        probs = np.full(n, 1.0 / n)
    got = breadth(probs, dims, SearchConfig(n1=300, n2=4, seed=3))
    assert got == scalar_breadth(probs, dims, 3, 300, 4)


@pytest.mark.parametrize("d_a,d_b", [(2, 3), (3, 3), (2, 5)])
@pytest.mark.parametrize(
    "block,leaf",
    [
        pytest.param(1, None, id="1"),
        pytest.param(3, None, id="3"),
        pytest.param(None, None, id="None"),
        # Scoring pieces of 3 draws split each 200-draw block.
        pytest.param(None, 3, id="pieces-of-3"),
    ],
)
def test_breadth_uniform_matches_scalar_across_blocks(d_a, d_b, block, leaf, monkeypatch):
    # Every draw ties and duplicate grids are common ((2, 3) has only 5
    # regular grids, fewer than n2), so the draw index alone ranks them.
    if block is not None:
        monkeypatch.setattr(qaeopt.search, "BREADTH_BLOCK", block)
    if leaf is not None:
        monkeypatch.setattr(qaeopt.search, "LEAF_BLOCK", leaf)
    dims = BipartiteDims(d_a, d_b)
    probs = np.full(dims.total, 1.0 / dims.total)
    got = breadth(probs, dims, SearchConfig(n1=200, n2=6, seed=8))
    assert got == scalar_breadth(probs, dims, 8, 200, 6)


@pytest.mark.parametrize("d_a,d_b", [(3, 7), (8, 8)])
@pytest.mark.parametrize("kind", ["dirichlet", "ties-and-zeros"])
def test_block_mi_matches_scalar(d_a, d_b, kind):
    n = d_a * d_b
    if kind == "dirichlet":
        probs = descending_probs(n, n)
    else:
        probs = tied_probs(np.random.default_rng(n).integers(0, 3, n) + np.eye(1, n)[0])
    h_flat = _flat_entropy(probs)
    grids = sample_grids(d_a, d_b, 8, 0, 500)
    got = _block_mi(probs, grids, h_flat)
    pr = [float(x) for x in probs]
    assert got.tolist() == [grid_mi(pr, g.tolist(), d_b, h_flat) for g in grids]


EXHAUSTIVE_DIMS = [(1, 1), (1, 5), (5, 1), (2, 2), (3, 3), (2, 8), (3, 4), (4, 4)]


def spectrum(kind, n, seed):
    if kind == "dirichlet":
        return descending_probs(n, seed)
    if kind == "uniform":  # every leaf ties, so the first leaf must win
        return np.full(n, 1.0 / n)
    weights = np.random.default_rng(seed).integers(1, 4, n)  # ties, then zeros
    weights[max(1, n - n // 2):] = 0
    return tied_probs(weights)


# Blocks of 1 and 3 leaves split the prefix walk at nearly every level. At
# (4, 4) that costs seconds per spectrum, so only the Dirichlet one runs there.
# A suffix cap of 4 joins every grid of more than one row from short suffixes.
EXHAUSTIVE_CASES = [
    pytest.param(
        d_a, d_b, kind, block, cap,
        id=f"{d_a}-{d_b}-{kind}-{block}" + ("" if cap is None else f"-cap{cap}"),
    )
    for d_a, d_b in EXHAUSTIVE_DIMS
    for kind in ("dirichlet", "uniform", "trailing-zeros")
    for block in (None, 1, 3)
    for cap in (None, 4)
    if block is None or kind == "dirichlet" or (d_a, d_b) != (4, 4)
]


@pytest.mark.parametrize("d_a,d_b,kind,block,cap", EXHAUSTIVE_CASES)
def test_exhaustive_matches_scalar(d_a, d_b, kind, block, cap, monkeypatch):
    if block is not None:
        monkeypatch.setattr(qaeopt.search, "LEAF_BLOCK", block)
    if cap is not None:
        monkeypatch.setattr(qaeopt.tableau, "SUFFIX_CAP", cap)
    dims = BipartiteDims(d_a, d_b)
    probs = spectrum(kind, dims.total, 7 * d_a + d_b)
    res = exhaustive(probs, dims)
    assert res == scalar_exhaustive(probs, dims)
    if kind == "uniform":
        first = next(scalar_enumerate(dims, exploit_symmetry=d_a == d_b))
        assert res["trajectory"] == (res["best_mi"],) and res["best_cells"] == first


@pytest.mark.parametrize("d_a,d_b", EXHAUSTIVE_DIMS)
@pytest.mark.parametrize("cap", [None, 4])
def test_suffix_codes_match_the_row_count_form(d_a, d_b, cap, monkeypatch):
    # The store's shape codes, one matmul of the flattened 0/1 mask, equal
    # each row's count of empty cells weighed in the base, and are sorted.
    if cap is not None:
        monkeypatch.setattr(qaeopt.tableau, "SUFFIX_CAP", cap)
    codes, calls = qaeopt.tableau._suffix_codes, []

    def spy(store, top, bottom, weights):
        calls.append((store, top, bottom, weights, codes(store, top, bottom, weights)))
        return calls[-1][-1]

    monkeypatch.setattr(qaeopt.tableau, "_suffix_codes", spy)
    for exploit_symmetry in (False, True):
        next(regular_grid_blocks(BipartiteDims(d_a, d_b), LEAF_BLOCK, exploit_symmetry))
    assert len(calls) == 2
    for store, top, bottom, weights, got in calls:
        want = np.count_nonzero(store[:, top:bottom] == 0, axis=2) @ weights
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert (np.diff(got) >= 0).all()


@pytest.mark.parametrize("d_a,d_b", [(3, 4), (2, 8), (4, 4)])
@pytest.mark.parametrize("kind", ["dirichlet", "near-ties"])
def test_exhaustive_rough_scores_only_select_leaves(d_a, d_b, kind, monkeypatch):
    # Rough scores that stray from the exact ones by up to 1e-12, well within
    # SCORE_SLACK, must not change the result: only exact scores decide.
    exact_xlogx = qaeopt.search._xlogx
    monkeypatch.setattr(
        qaeopt.search, "_xlogx_rough", lambda x: exact_xlogx(x) + 1e-13 * np.sin(1e6 * x)
    )
    dims = BipartiteDims(d_a, d_b)
    rng = np.random.default_rng(d_a * d_b)
    if kind == "dirichlet":
        probs = descending_probs(dims.total, d_a * d_b)
    else:  # leaves whose scores differ by about as much as the stray
        probs = tied_probs(rng.integers(1, 4, dims.total) + 1e-12 * rng.random(dims.total))
    assert exhaustive(probs, dims) == scalar_exhaustive(probs, dims)


@st.composite
def leaf_score_cases(draw):
    shape = draw(st.sampled_from(["grid", "row", "column"]))
    if shape == "grid":
        dims = BipartiteDims(draw(st.integers(2, 3)), draw(st.integers(2, 5)))
    else:
        k = draw(st.integers(1, 9))
        dims = BipartiteDims(1, k) if shape == "row" else BipartiteDims(k, 1)
    n, rng = dims.total, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dirichlet", "trailing-zeros", "near-ties"]))
    if kind == "dirichlet":
        probs = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    elif kind == "trailing-zeros":
        weights = rng.integers(1, 4, n)
        weights[draw(st.integers(1, n)):] = 0
        probs = tied_probs(weights)
    else:
        probs = tied_probs(rng.integers(1, 4, n) + 1e-12 * rng.random(n))
    # A small cap splits short grids into prefixes and suffixes too; small
    # blocks draw on prefixes from several walk pieces.
    return probs, dims, draw(st.sampled_from([1, 4, 16, 2**16])), draw(st.sampled_from([3, 2048]))


@given(leaf_score_cases())
@settings(max_examples=150, deadline=None)
def test_factored_rough_scores_match_exact(case):
    # Marginals joined from a leaf's prefix and suffix, scored with numpy's
    # log, stay within 1e-12 of the cell-order exact score of every leaf.
    probs, dims, cap, block = case
    h_flat = _flat_entropy(probs)
    with mock.patch.object(qaeopt.tableau, "SUFFIX_CAP", cap), mock.patch.object(
        qaeopt.search, "LEAF_BLOCK", block
    ):
        leaves = 0
        for leaf_block, rough in _rough_blocks(probs, dims, h_flat):
            exact = _block_mi(probs, leaf_block.grids(), h_flat)
            assert np.abs(rough - exact).max() <= 1e-12
            leaves += len(rough)
    assert leaves == sum(1 for _ in scalar_enumerate(dims, dims.d_a == dims.d_b))


@pytest.mark.parametrize("d_a,d_b", [(1, 300), (300, 1)])
def test_exhaustive_values_beyond_one_byte(d_a, d_b):
    dims = BipartiteDims(d_a, d_b)  # one regular filling, row-major
    res = exhaustive(descending_probs(dims.total, 1), dims)
    assert res["best_cells"] == row_major(dims) and res["evaluations"] == 1


def test_traversal_values_beyond_one_byte():
    # Values up to 260 after a long prefix walk, on a wide and on a tall grid.
    for dims in (BipartiteDims(2, 130), BipartiteDims(130, 2)):
        grids = next(regular_grid_blocks(dims, 4)).grids()
        assert 1 <= len(grids) <= 4
        for grid in grids.tolist():
            assert is_regular(grid)
        assert grids.max() == dims.total


def assert_depth_matches(probs, dims, seeds, n_d):
    grids = np.array([t.cells for t in seeds])
    config = SearchConfig(n1=len(seeds), n2=len(seeds), n_d=n_d)
    grid, best_mi, evaluations, trajectory, provenance = _depth(probs, dims, grids, config, _flat_entropy(probs))
    ref = scalar_depth(probs, dims, seeds, n_d)
    assert cells(grid) == ref["best_cells"]
    assert best_mi == ref["best_mi"]
    assert tuple(trajectory) == ref["trajectory"]
    assert evaluations == ref["evaluations"]
    assert provenance == ref["seed_provenance"]
    return ref


DEPTH_DIMS = [(1, 4), (4, 1), (2, 2), (2, 3), (3, 3), (3, 4), (2, 5)]


@st.composite
def depth_cases(draw):
    d_a, d_b = draw(st.sampled_from(DEPTH_DIMS))
    n = d_a * d_b
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    key = draw(st.integers(0, 2**32 - 1))
    n_seeds = draw(st.integers(1, 4))
    dims = BipartiteDims(d_a, d_b)
    seeds = [random_regular(dims, np.random.SeedSequence((key, k))) for k in range(n_seeds)]
    return tied_probs(weights), dims, seeds, draw(st.integers(1, 12))


@given(depth_cases())
@settings(max_examples=80, deadline=None)
def test_depth_matches_scalar_on_ties_and_zeros(case):
    assert_depth_matches(*case)


def test_depth_matches_scalar_full_size():
    dims = BipartiteDims(8, 8)
    probs = descending_probs(64, 3)
    seeds = [YoungTableau(dims, c) for c, _ in breadth(probs, dims, SearchConfig(n1=400, n2=12, seed=3))]
    assert_depth_matches(probs, dims, seeds, 60)


def test_depth_single_row_seeds_halt_at_once():
    dims = BipartiteDims(1, 6)
    seeds = [random_regular(dims, k) for k in range(3)]
    assert_depth_matches(tied_probs([3, 3, 2, 1, 0, 0]), dims, seeds, 20)


@pytest.mark.parametrize("d_a,d_b", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)])
def test_depth_with_few_or_no_candidate_swaps(d_a, d_b):
    # optimize sends these grids to exhaustive traversal (each has one
    # filling), so _depth is called directly: below 3 cells there is no
    # candidate swap, and at 3 cells the one swap breaks the row or column.
    dims = BipartiteDims(d_a, d_b)
    seeds = [random_regular(dims, k) for k in range(3)]
    assert_depth_matches(descending_probs(dims.total, 7), dims, seeds, 5)


def test_forced_heuristic_2x2_matches_the_scalar_phases():
    dims = BipartiteDims(2, 2)
    probs = descending_probs(4, 6)
    result = optimize(probs, dims, SearchConfig(n1=16, n2=2, n_d=4, seed=5, exhaustive_threshold=1))
    assert result.method == "heuristic"
    seeds = [YoungTableau(dims, c) for c, _ in scalar_breadth(probs, dims, 5, 16, 2)]
    assert len(seeds) == 2  # both regular fillings of a 2x2 grid
    ref = scalar_depth(probs, dims, seeds, 4)
    assert result.evaluations == ref["evaluations"] + 1
    assert result.trajectory[1:] == tuple(min(x, result.initial_mi) for x in ref["trajectory"])
    assert result.best_tableau.cells == ref["best_cells"]
    assert result.seed_provenance == ref["seed_provenance"]
    # The two fillings are transposes, so either one has the minimum.
    assert result.best_mi == ref["best_mi"] == optimize(probs, dims, SearchConfig()).best_mi


# Shapes whose random regular grids check the move test of _depth: single
# rows and columns, where no swap keeps a grid regular, two-row grids, and
# the paper's 8x8.
MOVE_DIMS = [(1, 1), (1, 2), (1, 7), (2, 1), (7, 1), (2, 2), (2, 3), (2, 6), (3, 5), (8, 8)]


def position_rule(place, u, w):
    """The move test of _depth for swapping values u < w (w - u <= 2) at
    positions place[value - 1]: no two of u..w share a row or a column."""
    return all(
        place[a - 1][0] != place[b - 1][0] and place[a - 1][1] != place[b - 1][1]
        for a, b in itertools.combinations(range(u, w + 1), 2)
    )


@given(st.sampled_from(MOVE_DIMS), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_move_test_from_positions_matches_neighbour_checks(shape, key):
    d_a, d_b = shape
    dims = BipartiteDims(d_a, d_b)
    probs = descending_probs(dims.total, 0)
    for grid in sample_grids(d_a, d_b, key, 0, 6):
        tableau = YoungTableau(dims, grid.tolist())
        place = positions(tableau.cells)
        expected = [
            _swap_keeps_regular(tableau.cells, place[u - 1], place[w - 1], u, w, d_a, d_b)
            for u, w in candidate_swaps(dims.total)
        ]
        assert [position_rule(place, u, w) for u, w in candidate_swaps(dims.total)] == expected
        # _depth counts one evaluation per swap its move test lets through.
        config = SearchConfig(n1=1, n2=1, n_d=1)
        _, _, evaluations, _, _ = _depth(probs, dims, grid[None], config, _flat_entropy(probs))
        assert evaluations == 1 + sum(expected)


# The depth phase stops a seed once it makes the same swap twice running
# (a 2-cycle) and fills in the rest of its descent. These cases put that
# stop at the first and the last iteration, next to seeds that never reach it.


def cycle_step(choices):
    """First iteration t whose swap repeats that of iteration t - 1, or None."""
    return next((t for t in range(1, len(choices)) if choices[t] == choices[t - 1]), None)


def cycle_steps(probs, dims, seeds, n_d=200):
    return [cycle_step(c) for c in scalar_depth(probs, dims, seeds, n_d)["choices"]]


@pytest.mark.parametrize("n_d", [1, 2, 3, 10])
def test_depth_cycle_at_step_one(n_d):
    # A 2x2 grid has two regular fillings, one swap apart, so both seeds
    # swap back and forth from the first iteration.
    dims = BipartiteDims(2, 2)
    seeds = [YoungTableau(dims, ((1, 2), (3, 4))), YoungTableau(dims, ((1, 3), (2, 4)))]
    ref = assert_depth_matches(descending_probs(4, 1), dims, seeds, n_d)
    expected = 1 if n_d >= 2 else None
    assert [cycle_step(c) for c in ref["choices"]] == [expected, expected]


@pytest.mark.parametrize("d_a,d_b", [(3, 4), (4, 5)])
@pytest.mark.parametrize("n_d", [1, 2])
def test_depth_one_and_two_iterations(d_a, d_b, n_d):
    dims = BipartiteDims(d_a, d_b)
    seeds = [random_regular(dims, k) for k in range(6)]
    assert_depth_matches(descending_probs(dims.total, 2), dims, seeds, n_d)


@pytest.mark.parametrize("k", range(4))
def test_depth_cycle_at_last_iteration_and_just_beyond(k):
    dims = BipartiteDims(4, 5)
    probs = descending_probs(dims.total, 5)
    seeds = [random_regular(dims, k)]
    (c,) = cycle_steps(probs, dims, seeds)
    assert c is not None and c >= 2
    # The cycle shows at the last iteration, with nothing left to fill in.
    ref = assert_depth_matches(probs, dims, seeds, c + 1)
    assert cycle_step(ref["choices"][0]) == c
    # One iteration short of it, the seed never cycles within n_d.
    ref = assert_depth_matches(probs, dims, seeds, c)
    assert cycle_step(ref["choices"][0]) is None


@pytest.mark.parametrize("d_a,d_b,kind", [(4, 4, "dirichlet"), (4, 5, "dirichlet"), (4, 5, "ties")])
def test_depth_mixed_batch_of_cycling_and_running_seeds(d_a, d_b, kind):
    dims = BipartiteDims(d_a, d_b)
    if kind == "dirichlet":
        probs = descending_probs(dims.total, 5)
    else:
        probs = tied_probs(np.random.default_rng(4).integers(0, 4, dims.total))
    seeds = [random_regular(dims, k) for k in range(10)]
    steps = cycle_steps(probs, dims, seeds)
    assert None not in steps
    n_d = sorted(steps)[len(steps) // 2]
    ref = assert_depth_matches(probs, dims, seeds, n_d)
    halted = [cycle_step(c) is not None for c in ref["choices"]]
    assert any(halted) and not all(halted)


def test_depth_grids_without_neighbours_are_single_rows_or_columns():
    # A seed with no regular neighbour cannot share a batch with moving
    # seeds: every regular filling of a grid with two or more rows and
    # columns has one, and on a single row or column no filling has one.
    for d_a, d_b in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        dims = BipartiteDims(d_a, d_b)
        assert all(neighbors(YoungTableau(dims, cells)) for cells in brute_force_regular_set(d_a, d_b))
    dims = BipartiteDims(1, 6)
    assert neighbors(YoungTableau(dims, row_major(dims))) == ()


@pytest.mark.parametrize("kind", ["diagonal-mixed", "product-spectrum"])
def test_depth_matches_scalar_full_protocol_depth(kind):
    # fig2a and fig2b states at the paper's n_d = 200 and n2 = 12: every
    # seed enters a 2-cycle well before its last iteration.
    dims = BipartiteDims(8, 8)
    probs = generate_instance(kind, dims, 11).probs
    seeds = [YoungTableau(dims, c) for c, _ in breadth(probs, dims, SearchConfig(n1=400, n2=12, seed=3))]
    assert len(seeds) == 12
    ref = assert_depth_matches(probs, dims, seeds, 200)
    steps = [cycle_step(c) for c in ref["choices"]]
    assert all(s is not None and s < 199 for s in steps)


@pytest.mark.parametrize(
    "requested,tasks,cpus,expected",
    [
        (1, 100, 8, 1),
        (3, 200, 2, 2),
        (8, 3, 16, 3),
        (4, 100, None, 1),
        (0, 10, 4, 1),
        (10**6, 10**6, 4, 4),
    ],
)
def test_worker_count(requested, tasks, cpus, expected):
    assert worker_count(requested, tasks, cpus) == expected


@pytest.mark.parametrize(
    "n1,jobs",
    [(2, 2), (200, 2), (20000, 2), (4096, 3), (4133, 2), (10**6, 4), (20000, 1), (4133, 1),
     (BREADTH_BLOCK, 3), (BREADTH_BLOCK + 37, 2), (BREADTH_BLOCK + 37, 1)],
)
def test_breadth_tasks_cover_draws_in_short_even_ranges(n1, jobs):
    tasks = list(breadth_tasks(n1, jobs))
    assert tasks[0][0] == 0 and tasks[-1][1] == n1
    assert all(a[1] == b[0] for a, b in zip(tasks, tasks[1:]))
    sizes = [hi - lo for lo, hi in tasks]
    assert len(tasks) >= jobs and len(tasks) % jobs == 0
    assert 1 <= min(sizes) and max(sizes) <= BREADTH_BLOCK and max(sizes) - min(sizes) <= 1


def test_breadth_tasks_yield_ranges_without_building_them_all():
    # MAX_DRAWS draws make 2**32 / BREADTH_BLOCK tasks; the first comes without
    # the rest.
    tracemalloc.start()
    try:
        first = next(iter(breadth_tasks(MAX_DRAWS, 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == (0, BREADTH_BLOCK)
    assert peak < 2**20


def test_run_tasks_pool_reads_tasks_as_results_are_taken():
    # Two workers and a million lazy tasks: the first result comes after a
    # window of tasks is read, not all of them. Reading far ahead fails at
    # once instead of submitting a million tasks.
    read = []

    def tasks():
        for i in range(10**6):
            if len(read) == 100:
                raise RuntimeError("tasks read ahead of their results")
            read.append(i)
            yield -i

    tracemalloc.start()
    try:
        results = run_tasks(abs, 2, tasks())
        first = next(results)
        _, peak = tracemalloc.get_traced_memory()
        results.close()
    finally:
        tracemalloc.stop()
    assert first == 0 and len(read) <= 5
    assert peak < 2**20


def _worker_pid(_task):
    return os.getpid()


def _logged_nap(path, task):
    time.sleep(0.05)
    with open(path, "a") as log:
        log.write(f"{task}\n")
    return task


def _exit_worker(_task):
    os._exit(3)


def pool_workers():
    """Pids of this process's live children: the shared pool's workers."""
    return {p.pid for p in multiprocessing.active_children()}


POOL_DIMS = BipartiteDims(4, 4)
POOL_CONFIG = SearchConfig(n1=2000, n2=6, n_d=20, seed=4, exhaustive_threshold=1)


@pytest.mark.skipif((usable_cpus() or 1) < 2, reason="one usable CPU runs every search in process")
def test_parallel_searches_share_one_pool():
    probs = descending_probs(POOL_DIMS.total, 9)
    want = optimize(probs, POOL_DIMS, POOL_CONFIG).to_dict()
    workers, seen = [], set()
    for _ in range(2):
        assert optimize(probs, POOL_DIMS, replace(POOL_CONFIG, parallelism=2)).to_dict() == want
        workers.append(pool_workers())
        seen |= set(run_tasks(_worker_pid, 2, range(8)))
    assert workers[0] == workers[1] and len(workers[0]) == 2
    assert seen <= workers[0] and os.getpid() not in seen


def test_forked_child_starts_its_own_pool():
    # The child inherits the parent's pool object, whose pipes and workers
    # are the parent's; it must start its own, and exit without waiting on it.
    probs = descending_probs(POOL_DIMS.total, 9)
    want = optimize(probs, POOL_DIMS, POOL_CONFIG).to_dict()
    assert list(run_tasks(abs, 2, range(-4, 0))) == [4, 3, 2, 1]
    parent_workers = pool_workers()
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)

    def child():
        os.setpgid(0, 0)  # its own group, so a hung child goes with its workers
        got = optimize(probs, POOL_DIMS, replace(POOL_CONFIG, parallelism=2)).to_dict()
        writer.send((got, set(run_tasks(_worker_pid, 2, range(8)))))

    proc = context.Process(target=child)
    proc.start()
    try:
        assert reader.poll(60), "the forked child's search hung"
        got, child_workers = reader.recv()
        proc.join(60)
        assert proc.exitcode == 0, "the forked child hung or failed at exit"
    finally:
        if proc.is_alive():
            os.killpg(proc.pid, signal.SIGKILL)
            proc.join()
    assert got == want
    assert not child_workers & (parent_workers | {os.getpid(), proc.pid})
    assert list(run_tasks(abs, 2, range(-3, 0))) == [3, 2, 1]
    assert pool_workers() == parent_workers


def test_closed_run_leaves_only_its_window_of_tasks(tmp_path):
    # Closed after its first result, a run over endless tasks leaves at most
    # its 2 * jobs submitted tasks in the shared pool, and the next call,
    # queued behind them, returns promptly.
    log = tmp_path / "ran.txt"
    results = run_tasks(partial(_logged_nap, log), 2, itertools.count())
    assert next(results) == 0
    results.close()
    started = time.perf_counter()
    assert list(run_tasks(abs, 2, range(-6, 0))) == [6, 5, 4, 3, 2, 1]
    assert time.perf_counter() - started < 10
    ran = [int(line) for line in log.read_text().split()]
    assert sorted(ran) == list(range(len(ran))) and len(ran) <= 4


def test_dead_worker_breaks_the_call_and_the_next_starts_a_new_pool():
    assert list(run_tasks(abs, 2, range(-2, 0))) == [2, 1]
    before = pool_workers()
    with pytest.raises(BrokenProcessPool):
        list(run_tasks(_exit_worker, 2, range(4)))
    assert list(run_tasks(abs, 2, range(-4, 0))) == [4, 3, 2, 1]
    after = pool_workers()
    assert len(after) == 2 and not after & before


def test_another_worker_count_replaces_the_pool():
    assert list(run_tasks(abs, 3, range(-3, 0))) == [3, 2, 1]
    three = pool_workers()
    assert list(run_tasks(abs, 2, range(-3, 0))) == [3, 2, 1]
    two = pool_workers()
    assert len(three) == 3 and len(two) == 2 and not two & three


WORKERS_AT_EXIT = """
import os
from qaeopt import BipartiteDims, SearchConfig, optimize
from qaeopt.search import run_tasks

def pid(_task):
    return os.getpid()

probs = [w / 136 for w in range(16, 0, -1)]
config = SearchConfig(n1=2000, n2=4, n_d=5, seed=1, exhaustive_threshold=1, parallelism=2)
optimize(probs, BipartiteDims(4, 4), config)
print(*sorted(set(run_tasks(pid, 2, range(8)))))
"""


def test_no_worker_outlives_its_process():
    src = str(Path(qaeopt.search.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", WORKERS_AT_EXIT], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    pids = [int(pid) for pid in out.stdout.split()]
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.parametrize(
    "d_a,d_b,config",
    [(3, 5, SearchConfig()), (4, 4, SearchConfig(n1=300, n2=6, n_d=30, seed=3, exhaustive_threshold=1))],
    ids=["exhaustive-3x5", "heuristic-4x4"],
)
def test_numpy_log_feeds_only_the_rough_filters(d_a, d_b, config, monkeypatch):
    # numpy's SIMD log may differ from the C library's in the last bit on
    # some CPUs. Every exact score, h_flat included, takes its logarithms
    # from the C library, so numpy's log moved one ulp changes no output bit.
    dims = BipartiteDims(d_a, d_b)
    probs = descending_probs(dims.total, 5)
    want = optimize(probs, dims, config)
    calls, log = [], np.log

    def moved_log(x, *args, **kwargs):
        calls.append(1)
        return np.nextafter(log(x, *args, **kwargs), np.inf)

    monkeypatch.setattr(np, "log", moved_log)
    got = optimize(probs, dims, config)
    assert calls  # the rough filters did use it
    assert got.method == want.method == ("exhaustive" if d_a == 3 else "heuristic")
    assert got.to_dict() == want.to_dict()
