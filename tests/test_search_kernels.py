"""The array search kernels against the scalar references in oracles.py.

Every comparison is exact: the array code sums in the scalar order and takes
its logarithms from the same C library, so results must agree bit for bit.
"""

import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
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
    brute_force_best,
    brute_force_regular_set,
    fixed_point_gap,
    flat_entropy,
    grid_mi,
    is_regular,
    marginal_rank_grid,
    neighbors,
    positions,
    row_major,
    scalar_breadth,
    scalar_depth,
    scalar_enumerate,
    scalar_exhaustive,
    walk_grids,
)
from qaeopt import (
    BipartiteDims,
    SearchConfig,
    YoungTableau,
    generate_instance,
    optimize,
    random_regular,
    save_statefile,
)
from qaeopt.search import (
    BREADTH_BLOCK,
    LEAF_BLOCK,
    MAX_DRAWS,
    _block_mi,
    _breadth,
    _breadth_block,
    _cell_grids,
    _close_pool,
    _depth,
    _draw_uniforms,
    _exhaustive,
    _joined,
    _marginals,
    _rough32_error,
    _rough_mi,
    _sample_block,
    breadth_tasks,
    run_tasks,
    usable_cpus,
    worker_count,
)
from qaeopt.qstate import ENTRY_TOL, _entropy  # the kernel of optimize's h_flat; it checks nothing
from qaeopt.tableau import _random_regular_grid, candidate_swaps, regular_grid_walk

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
    return [(cells(grid), mi) for mi, grid in zip(*_breadth(probs, dims, config, _entropy(probs)))]


@pytest.mark.parametrize("d", [8, 16])
@pytest.mark.parametrize("jobs", [1, 2])
def test_breadth_scores_are_its_grids_exact_scores(d, jobs):
    # _depth starts from these scores instead of scoring its seeds again.
    dims = BipartiteDims(d, d)
    probs = descending_probs(dims.total, d)
    h_flat = _entropy(probs)
    scores, grids = _breadth(probs, dims, SearchConfig(n1=500, n2=12, seed=4, parallelism=jobs), h_flat)
    assert grids.shape == (12, d, d)
    assert list(map(float.hex, scores.tolist())) == list(map(float.hex, _block_mi(probs, grids, h_flat).tolist()))


def rough_mi_spy():
    """A stand-in for ``search._rough_mi``, and the scores of its calls by
    the type of their sums: ``scored[np.float32]`` and ``scored[np.float64]``,
    one array per call. ``_exhaustive`` scores float32 sums once per block
    until its float64 fallback, and float64 sums once per block from there;
    breadth scores float64 sums."""
    scored = {np.float32: [], np.float64: []}

    def spy(sums, h_flat):
        scored[sums.dtype.type].append(_rough_mi(sums, h_flat))
        return scored[sums.dtype.type][-1]

    return spy, scored


def rough32_blocks(probs, dims, block):
    """The float32 rough score of every leaf of the walk, one array per
    block, joined from packed prefix and suffix sums as ``_exhaustive``
    joins them before its float64 fallback."""
    p_ext, h_flat = np.concatenate(([0.0], probs)), _entropy(probs)
    store, pieces = regular_grid_walk(dims, block)
    suffix32 = _marginals(p_ext[store]).astype(np.float32)
    for prefixes, blocks in pieces:
        prefix32 = _marginals(p_ext[prefixes]).astype(np.float32)
        for prefix, suffix in blocks:
            yield _rough_mi(_joined(prefix32, suffix32, prefix, suffix), h_flat)


def rough32_bound(dims):
    return _rough32_error(dims.d_a + dims.d_b, dims.total)


def exhaustive(probs, dims):
    """The exhaustive phase as the fields scalar_exhaustive returns."""
    grid, best_mi, evaluations, trajectory, _ = _exhaustive(probs, dims, _entropy(probs))
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
        _breadth_block(probs, _entropy(probs), d, d, 1, (0, BREADTH_BLOCK), 12)
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
    h_flat = _entropy(probs)
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


@pytest.mark.parametrize("d_a,d_b", EXHAUSTIVE_DIMS + [(3, 5), (2, 10)])
@pytest.mark.parametrize("kind", ["dirichlet", "uniform", "trailing-zeros"])
def test_exhaustive_is_the_same_for_every_suffix_length(d_a, d_b, kind, monkeypatch):
    # A smaller SUFFIX_CAP keeps fewer values as suffixes, down to none with
    # a cap of 0, so each leaf's rough marginals are joined from another
    # prefix and suffix. Only the rough filter sees that: the outcome must
    # not move by a bit for any suffix length below the default one.
    dims = BipartiteDims(d_a, d_b)
    probs = spectrum(kind, dims.total, 7 * d_a + d_b)

    def suffix_length():
        store, _ = regular_grid_walk(dims, LEAF_BLOCK)
        return np.count_nonzero(store[0])

    want, default, m = exhaustive(probs, dims), suffix_length(), min(d_a, d_b)
    caps = [0] + ([m**t for t in range(1, default)] if m > 1 else [])
    lengths = []
    for cap in caps:
        monkeypatch.setattr(qaeopt.tableau, "SUFFIX_CAP", cap)
        lengths.append(suffix_length())
        assert exhaustive(probs, dims) == want, f"cap {cap}"
    assert lengths == (list(range(default)) if m > 1 else [0])


@pytest.mark.parametrize("d_a,d_b", EXHAUSTIVE_DIMS)
@pytest.mark.parametrize("kind", ["dirichlet", "uniform", "trailing-zeros"])
def test_exhaustive_winner_has_no_fixed_point_gap(d_a, d_b, kind):
    # The winner is optimal over all arrangements, so one fixed-point step
    # cannot improve it: its gap is 0 up to round-off.
    dims = BipartiteDims(d_a, d_b)
    for seed in range(4 if kind == "dirichlet" else 1):
        probs = spectrum(kind, dims.total, 7 * d_a + d_b + 100 * seed)
        assert abs(fixed_point_gap(probs, exhaustive(probs, dims)["best_cells"])) <= 1e-12


@pytest.mark.parametrize("d_b", [2, 3, 4])
@pytest.mark.parametrize("kind", ["dirichlet", "uniform", "trailing-zeros"])
def test_all_arrangements_minimum_has_no_fixed_point_gap(d_b, kind):
    # Over all n! arrangements, not only regular tableaux (8! = 40,320 at
    # 2x4), the minimum sits at a grid with gap 0 up to round-off, and it is
    # the exhaustive minimum.
    dims = BipartiteDims(2, d_b)
    for seed in range(3 if kind == "dirichlet" else 1):
        probs = spectrum(kind, dims.total, 7 * 2 + d_b + 100 * seed)
        brute_mi, grid = brute_force_best(probs, 2, d_b)
        assert abs(fixed_point_gap(probs, grid)) <= 1e-12
        assert abs(optimize(probs, dims).best_mi - brute_mi) <= 1e-12


@given(
    d_a=st.integers(1, 5),
    d_b=st.integers(1, 5),
    kind=st.sampled_from(["dirichlet", "tied", "zero-tailed"]),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=150, deadline=None)
def test_fixed_point_step_lowers_mi_by_at_least_the_gap(d_a, d_b, kind, seed):
    # MI(T') <= MI(T) - gap(T), T' the rank grid of T's marginals' outer product.
    dims = BipartiteDims(d_a, d_b)
    n, rng = dims.total, np.random.default_rng(seed)
    if kind == "dirichlet":
        probs = descending_probs(n, seed)
    else:
        weights = rng.integers(1, 4, n)
        if kind == "zero-tailed":
            weights[rng.integers(1, n + 1) :] = 0
        probs = tied_probs(weights)
    grid = random_regular(dims, seed).cells
    pr = [float(x) for x in probs]
    h_flat = flat_entropy(pr)
    gap = fixed_point_gap(probs, grid)
    stepped = grid_mi(pr, marginal_rank_grid(probs, grid), d_b, h_flat)
    assert gap >= -1e-12
    assert stepped <= grid_mi(pr, grid, d_b, h_flat) - gap + 1e-12


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
    for dims in (BipartiteDims(d_a, d_b), BipartiteDims(d_b, d_a)):
        regular_grid_walk(dims, LEAF_BLOCK)  # builds the store
    assert len(calls) == 2
    for store, top, bottom, weights, got in calls:
        want = np.count_nonzero(store[:, top:bottom] == 0, axis=2) @ weights
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert (np.diff(got) >= 0).all()


@pytest.mark.parametrize("d_a,d_b", [(3, 4), (2, 8), (4, 4)])
@pytest.mark.parametrize("kind", ["dirichlet", "near-ties"])
def test_exhaustive_rough_scores_only_select_leaves(d_a, d_b, kind, monkeypatch):
    # Rough scores that stray from the exact ones by a different amount for
    # every leaf must not change the result: only exact scores decide. The
    # stray is one the perturbed precision can hold and its filter allows:
    # up to a quarter of the float32 bound per leaf in float32, and 1e-13 per
    # term, well within SCORE_SLACK, in float64 (the fallback).
    dims = BipartiteDims(d_a, d_b)
    amplitude = {np.float32: rough32_bound(dims) / (4 * (d_a + d_b)), np.float64: 1e-13}
    exact_xlogx, seen = qaeopt.search._xlogx, set()

    def stray_xlogx(x):
        seen.add(x.dtype.type)
        stray = amplitude[x.dtype.type] * np.sin(1e6 * x.astype(np.float64))
        return (exact_xlogx(x) + stray).astype(x.dtype)

    monkeypatch.setattr(qaeopt.search, "_xlogx_rough", stray_xlogx)
    rng = np.random.default_rng(d_a * d_b)
    if kind == "dirichlet":
        probs = descending_probs(dims.total, d_a * d_b)
    else:  # leaves whose scores differ by about as much as the float64 stray
        probs = tied_probs(rng.integers(1, 4, dims.total) + 1e-12 * rng.random(dims.total))
    assert exhaustive(probs, dims) == scalar_exhaustive(probs, dims)
    # The stand-in reached the float32 filter, and the float64 one where the
    # traversal falls back: on (4, 4) near-ties alone.
    fallback = (d_a, d_b, kind) == (4, 4, "near-ties")
    assert seen == ({np.float32, np.float64} if fallback else {np.float32})


def rough_kernel_inputs(kind, dtype):
    tiny, zero = np.finfo(dtype).tiny, dtype(0.0)
    if kind == "dirichlet-sums":  # the marginals of 64 (3, 5) grids, 0 and 1 included
        p_ext = np.concatenate(([0.0], descending_probs(15, 3)))
        sums = _marginals(p_ext[sample_grids(3, 5, 2, 0, 64)])
        return np.concatenate((sums.ravel(), [0.0, 1.0])).astype(dtype)
    return np.array({
        "zero": [zero] * 4,
        "one": [1.0] * 3,
        "subnormal": [np.nextafter(zero, 1.0), tiny / 2**10, tiny / 2, np.nextafter(tiny, zero)],
        "smallest-normal": [tiny, np.nextafter(tiny, 1.0), tiny * 2**20],
        # Sums of probabilities in [-ENTRY_TOL, 0), which the boundary admits.
        "negative": [-np.nextafter(zero, 1.0), -1e-17, -ENTRY_TOL, -20 * ENTRY_TOL],
    }[kind], dtype)


@pytest.mark.parametrize(
    "kind,dtype",
    [
        pytest.param(kind, dtype, id=kind + suffix)
        for dtype, suffix in ((np.float64, ""), (np.float32, "-float32"))
        for kind in ["dirichlet-sums", "zero", "one", "subnormal", "smallest-normal", "negative"]
    ],
)
def test_rough_xlogx_contract(kind, dtype):
    # x * log(x) in x's precision, bit for bit, from the smallest normal
    # number of that precision, tiny, up; tiny * log(tiny) below it (about
    # -1.6e-305 in float64, -1.0e-36 in float32); never a warning or a NaN.
    x = rough_kernel_inputs(kind, dtype)
    before = x.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = qaeopt.search._xlogx_rough(x)
    assert np.array_equal(x, before)  # the input is left as it was
    assert got.shape == x.shape and got.dtype == dtype and not np.isnan(got).any()
    tiny = np.finfo(dtype).tiny
    normal = x >= tiny
    with np.errstate(divide="ignore", invalid="ignore"):
        want = x[normal] * np.log(x[normal])
    assert got[normal].tobytes() == want.tobytes()
    floor = tiny * np.log(tiny)
    assert -709 * tiny < floor < 0 and (got[~normal] == floor).all()
    tol = {np.float64: 1e-15, np.float32: 1e-7}[dtype]
    assert np.abs(got - qaeopt.search._xlogx(x)).max() <= tol


@pytest.mark.parametrize(
    "d_a,d_b,alpha,threshold,kernels",
    [
        pytest.param(3, 6, 1.0, 10**7, {np.float32}, id="float32-filter"),
        pytest.param(3, 6, 1e4, 10**7, {np.float32, np.float64}, id="float64-fallback"),
        pytest.param(4, 4, 1.0, 1, {np.float64}, id="breadth-and-depth"),
    ],
)
def test_numpy_log_has_one_call_site(d_a, d_b, alpha, threshold, kernels, monkeypatch):
    # With _xlogx_rough exact, every search route gives its result without
    # calling numpy's log anywhere else.
    dims = BipartiteDims(d_a, d_b)
    probs = np.sort(np.random.default_rng(d_a * d_b).dirichlet(np.full(dims.total, alpha)))[::-1]
    config = SearchConfig(n1=300, n2=4, n_d=20, seed=2, exhaustive_threshold=threshold)
    want = optimize(probs, dims, config)
    exact_xlogx, seen = qaeopt.search._xlogx, set()

    def exact_rough(x):
        seen.add(x.dtype.type)
        return exact_xlogx(x).astype(x.dtype)

    def no_log(*args, **kwargs):
        raise AssertionError("numpy.log called outside _xlogx_rough")

    monkeypatch.setattr(qaeopt.search, "_xlogx_rough", exact_rough)
    monkeypatch.setattr(np, "log", no_log)
    assert optimize(probs, dims, config) == want
    assert seen == kernels


def negative_tail(n, seed, k):
    """Descending probabilities whose last k are -ENTRY_TOL, the lowest the
    boundary admits, with the first raised to keep the sum at 1."""
    probs = np.concatenate((descending_probs(n - k, seed), np.full(k, -ENTRY_TOL)))
    probs[0] += k * ENTRY_TOL
    return probs


@pytest.mark.parametrize("d_a,d_b,k", [(1, 8, 5), (3, 4, 6), (3, 5, 7), (4, 4, 8), (2, 10, 10)])
def test_rough_scores_stay_exact_on_negative_tails(d_a, d_b, k, monkeypatch):
    # A row or column of tail values sums below 0, where the exact x log x
    # is 0. Float32 rough scores must stay within half their bound of the
    # exact ones there too, and float64 ones (breadth) within 1e-12: x *
    # log(tiny) for x = -k * ENTRY_TOL would be off by about 708 k ENTRY_TOL,
    # beyond SCORE_SLACK. Both phases keep their results.
    dims = BipartiteDims(d_a, d_b)
    probs = negative_tail(dims.total, dims.total, k)
    h_flat = _entropy(probs)
    spy, scored = rough_mi_spy()
    monkeypatch.setattr(qaeopt.search, "_rough_mi", spy)
    assert exhaustive(probs, dims) == scalar_exhaustive(probs, dims)
    grids = np.concatenate(list(walk_grids(dims, LEAF_BLOCK)))
    rough = np.concatenate(list(rough32_blocks(probs, dims, LEAF_BLOCK)))
    scored32 = scored[np.float32]
    assert scored32 and np.array_equal(np.concatenate(scored32), rough[: sum(map(len, scored32))])
    assert np.abs(rough - _block_mi(probs, grids, h_flat)).max() <= rough32_bound(dims) / 2
    assert _marginals(np.concatenate(([0.0], probs))[grids]).min() < 0.0  # some marginals do sum below 0

    spy, scored = rough_mi_spy()
    monkeypatch.setattr(qaeopt.search, "_rough_mi", spy)
    _breadth_block(probs, h_flat, d_a, d_b, 5, (0, 300), 4)
    exact = _block_mi(probs, sample_grids(d_a, d_b, 5, 0, 300), h_flat)
    assert not scored[np.float32]
    assert np.abs(np.concatenate(scored[np.float64]) - exact).max() <= 1e-12
    config = SearchConfig(n1=300, n2=4, seed=5)
    assert breadth(probs, dims, config) == scalar_breadth(probs, dims, 5, 300, 4)


@pytest.mark.parametrize("d_a,d_b", [(3, 5), (3, 6), (4, 4), (2, 12)])
@pytest.mark.parametrize("kind", ["dirichlet", "peaked", "flat", "tiny-tail"])
def test_rough32_error_stays_within_half_its_bound(d_a, d_b, kind):
    # The bound is derived for numpy's float32 log within 4 ULP. A platform
    # whose log is worse fails here, loudly, instead of passing leaves that
    # the filter should not drop. Measured, the error is at most 12.5% of it.
    dims = BipartiteDims(d_a, d_b)
    n, rng = dims.total, np.random.default_rng(d_a * d_b)
    alpha = {"dirichlet": 1.0, "peaked": 0.02, "flat": 1e6, "tiny-tail": 1.0}[kind]
    probs = np.sort(rng.dirichlet(np.full(n, alpha)))[::-1]
    if kind == "tiny-tail":
        probs[-3:] = 1e-30
    h_flat = _entropy(probs)
    for rough, grids in zip(rough32_blocks(probs, dims, LEAF_BLOCK), walk_grids(dims, LEAF_BLOCK)):
        assert np.abs(rough - _block_mi(probs, grids, h_flat)).max() <= rough32_bound(dims) / 2


@pytest.mark.parametrize("d_a,d_b", [(4, 4), (3, 5), (3, 6)])
def test_float64_fallback_fires_on_flat_spectra_only(d_a, d_b, monkeypatch):
    # On a flat spectrum most leaves lie within the float32 slack of the
    # minimum, so _exhaustive goes back to the float64 filter; on Dirichlet(1)
    # spectra, the exhaustive-small workload's kind, it never does.
    dims = BipartiteDims(d_a, d_b)
    rng = np.random.default_rng(d_a * d_b)
    for kind, probs in [
        ("uniform", np.full(dims.total, 1.0 / dims.total)),
        ("concentration-1e4", np.sort(rng.dirichlet(np.full(dims.total, 1e4)))[::-1]),
    ] + [("dirichlet", descending_probs(dims.total, seed)) for seed in range(5)]:
        spy, scored = rough_mi_spy()
        monkeypatch.setattr(qaeopt.search, "_rough_mi", spy)
        exhaustive(probs, dims)
        assert scored[np.float32], kind
        assert bool(scored[np.float64]) == (kind != "dirichlet"), kind


# The default blocks, and small caps and blocks that split the walk into many
# pieces of many blocks; 4x4 takes seconds at the smallest, so it keeps 7.
SKIP_CASES = [
    pytest.param(d_a, d_b, block, cap, id=f"{d_a}-{d_b}-{block}-cap{cap}")
    for d_a, d_b in EXHAUSTIVE_DIMS
    for block, cap in ((None, None), (3, 4), (7, 64))
    if (d_a, d_b) != (4, 4) or block != 3
]


@pytest.mark.parametrize("d_a,d_b,block,cap", SKIP_CASES)
@pytest.mark.parametrize("kind", ["dirichlet", "uniform", "trailing-zeros", "near-ties"])
@pytest.mark.parametrize("slack", [qaeopt.search.SCORE_SLACK, 0.0])
def test_exhaustive_skips_only_blocks_with_no_near_leaf(d_a, d_b, block, cap, kind, slack, monkeypatch):
    # _exhaustive passes over a block after one reduction, its rough minimum;
    # replayed with the full rule (every leaf against the minimum of the exact
    # best so far and the rough scores before it), exactly the blocks it
    # passed over have no near leaf. The slack is twice the float32 bound
    # until a block passes more than LEAF_BLOCK // 8 leaves; that block and
    # every later one are scored in float64 with SCORE_SLACK. A SCORE_SLACK
    # of 0 makes the float64 ties of the uniform and tied spectra sit on the
    # boundary.
    if block is not None:
        monkeypatch.setattr(qaeopt.search, "LEAF_BLOCK", block)
    if cap is not None:
        monkeypatch.setattr(qaeopt.tableau, "SUFFIX_CAP", cap)
    monkeypatch.setattr(qaeopt.search, "SCORE_SLACK", slack)
    block = qaeopt.search.LEAF_BLOCK
    min_before = qaeopt.search._min_before
    spy, scored = rough_mi_spy()
    scored32, scored64 = scored[np.float32], scored[np.float64]
    filtered = []  # every array _min_before saw

    def spy_min_before(scores, floor):
        filtered.append(scores)
        return min_before(scores, floor)

    monkeypatch.setattr(qaeopt.search, "_rough_mi", spy)
    monkeypatch.setattr(qaeopt.search, "_min_before", spy_min_before)
    dims = BipartiteDims(d_a, d_b)
    n, rng = dims.total, np.random.default_rng(7 * d_a + d_b)
    if kind == "near-ties":  # leaves whose scores differ by far less than SCORE_SLACK
        probs = tied_probs(rng.integers(1, 4, n) + 1e-12 * rng.random(n))
    else:
        probs = spectrum(kind, n, 7 * d_a + d_b)
    exhaustive(probs, dims)
    h_flat = _entropy(probs)
    exact = [_block_mi(probs, grids, h_flat) for grids in walk_grids(dims, block)]
    slack32 = 2 * rough32_bound(dims)
    best_mi, replayed, skipped, fell_back = np.inf, [], [], None
    for i, (rough, ex) in enumerate(zip(scored32, exact)):
        near = np.flatnonzero(rough <= min_before(rough, best_mi) + slack32)
        if near.size > block // 8:
            fell_back = i
            break
        replayed.append(rough)
        skipped.append(not near.size)
        best_mi = min(best_mi, ex.min())
    if fell_back is None:
        assert len(scored32) == len(exact) and not scored64
    else:
        assert len(scored32) == fell_back + 1 and len(scored64) == len(exact) - fell_back
        for rough, ex in zip(scored64, exact[fell_back:]):
            near = np.flatnonzero(rough <= min_before(rough, best_mi) + slack)
            replayed.append(rough)
            skipped.append(not near.size)
            best_mi = min(best_mi, ex.min())
    # _min_before sees a block's rough scores exactly when it is not passed
    # over. The lists hold their arrays, so no id is reused.
    ids = {id(scores) for scores in filtered}
    assert [id(rough) in ids for rough in replayed] == [not s for s in skipped]
    if kind == "dirichlet" and len(exact) > 5:  # the skip is taken at all
        assert any(skipped)


@st.composite
def leaf_score_cases(draw):
    shape = draw(st.sampled_from(["grid", "row", "column"]))
    if shape == "grid":
        dims = BipartiteDims(draw(st.integers(2, 3)), draw(st.integers(2, 5)))
    else:
        k = draw(st.integers(1, 9))
        dims = BipartiteDims(1, k) if shape == "row" else BipartiteDims(k, 1)
    n, rng = dims.total, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dirichlet", "flat", "trailing-zeros", "near-ties"]))
    if kind == "dirichlet":
        probs = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    elif kind == "flat":  # most leaves within the float32 slack: the float64 fallback
        probs = np.sort(rng.dirichlet(np.full(n, 1e4)))[::-1]
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
    # Marginals joined from a leaf's prefix and suffix, scored in float32,
    # stay within half the float32 bound of the cell-order exact score of
    # every leaf, and in float64, after a fallback, within 1e-12. The
    # traversal scores its first blocks in float32 and, from the block that
    # falls back on, the rest in float64, and its outcome is the scalar one.
    probs, dims, cap, block = case
    h_flat, (spy, scored) = _entropy(probs), rough_mi_spy()
    scored32, scored64 = scored[np.float32], scored[np.float64]
    with mock.patch.object(qaeopt.tableau, "SUFFIX_CAP", cap), mock.patch.object(
        qaeopt.search, "LEAF_BLOCK", block
    ), mock.patch.object(qaeopt.search, "_rough_mi", spy):
        got = exhaustive(probs, dims)
        blocks = list(walk_grids(dims, block))
        rough32 = list(rough32_blocks(probs, dims, block))
    exact = [_block_mi(probs, grids, h_flat) for grids in blocks]
    assert [len(rough) for rough in rough32] == [len(grids) for grids in blocks]
    for rough, ex in zip(rough32, exact):
        assert np.abs(rough - ex).max() <= rough32_bound(dims) / 2
    assert all(np.array_equal(a, b) for a, b in zip(scored32, rough32))
    assert len(scored64) in (0, len(blocks) - len(scored32) + 1)
    for rough, ex in zip(scored64, exact[len(blocks) - len(scored64):]):
        assert np.abs(rough - ex).max() <= 1e-12
    assert sum(map(len, blocks)) == sum(1 for _ in scalar_enumerate(dims, dims.d_a == dims.d_b))
    assert got == scalar_exhaustive(probs, dims)


@pytest.mark.parametrize("d_a,d_b", [(1, 300), (300, 1)])
def test_exhaustive_values_beyond_one_byte(d_a, d_b):
    dims = BipartiteDims(d_a, d_b)  # one regular filling, row-major
    res = exhaustive(descending_probs(dims.total, 1), dims)
    assert res["best_cells"] == row_major(dims) and res["evaluations"] == 1


def test_traversal_values_beyond_one_byte():
    # Values up to 260 after a long prefix walk, on a wide and on a tall grid.
    for dims in (BipartiteDims(2, 130), BipartiteDims(130, 2)):
        grids = next(walk_grids(dims, 4))
        assert 1 <= len(grids) <= 4
        for grid in grids.tolist():
            assert is_regular(grid)
        assert grids.max() == dims.total


def assert_depth_matches(probs, dims, seeds, n_d):
    grids, h_flat = np.array([t.cells for t in seeds]), _entropy(probs)
    config = SearchConfig(n1=len(seeds), n2=len(seeds), n_d=n_d)
    scores = _block_mi(probs, grids, h_flat)
    grid, best_mi, evaluations, trajectory, provenance = _depth(probs, dims, scores, grids, config, h_flat)
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


@pytest.mark.parametrize("d_a,d_b", [(3, 4), (4, 4)])
def test_depth_with_negative_operands_matches_scalar(d_a, d_b, monkeypatch):
    # Probabilities in [-ENTRY_TOL, 0) make some swap operands, a marginal
    # plus a step, negative; exact scores take 0 for them and rough ones
    # stay within SCORE_SLACK, so the descent is the scalar one.
    dims = BipartiteDims(d_a, d_b)
    probs = negative_tail(dims.total, 4, dims.total // 2)
    rough, lowest = qaeopt.search._xlogx_rough, []
    monkeypatch.setattr(qaeopt.search, "_xlogx_rough", lambda x: lowest.append(x.min()) or rough(x))
    seeds = [random_regular(dims, np.random.SeedSequence((9, k))) for k in range(4)]
    assert_depth_matches(probs, dims, seeds, 30)
    assert min(lowest) < 0.0


@pytest.mark.parametrize("d,n_d", [(8, 60), (16, 20), (32, 10)])
def test_depth_matches_scalar_full_size(d, n_d):
    dims = BipartiteDims(d, d)
    probs = descending_probs(dims.total, 3)
    seeds = [YoungTableau(dims, c) for c, _ in breadth(probs, dims, SearchConfig(n1=400, n2=12, seed=3))]
    assert len(seeds) == 12
    assert_depth_matches(probs, dims, seeds, n_d)


def test_depth_duplicate_seed_first_copy_wins():
    # The winner is the first seed whose best is the smallest: a copy of the
    # winning seed, right after it or last, never takes its place.
    dims = BipartiteDims(4, 5)
    probs = descending_probs(dims.total, 6)
    seeds = [random_regular(dims, k) for k in range(4)]
    win = scalar_depth(probs, dims, seeds, 30)["seed_provenance"]
    assert win == 2
    for batch in (seeds + [seeds[win]], seeds[: win + 1] + [seeds[win]] + seeds[win + 1 :]):
        assert assert_depth_matches(probs, dims, batch, 30)["seed_provenance"] == win


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
        h_flat = _entropy(probs)
        _, _, evaluations, _, _ = _depth(probs, dims, _block_mi(probs, grid[None], h_flat), grid[None], config, h_flat)
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


def end_grid(seed, choices):
    """The tableau a descent from ``seed`` ends on: its cells after each
    swap (u, w) of values in ``choices``, in turn."""
    grid = np.array(seed.cells)
    for u, w in choices:
        at_u, at_w = grid == u, grid == w
        grid[at_u], grid[at_w] = w, u
    return YoungTableau(seed.dims, cells(grid))


@pytest.mark.parametrize("kind", ["diagonal-mixed", "product-spectrum"])
def test_depth_mixed_batch_of_fresh_and_descended_seeds(kind):
    # The end grids of earlier descents, each inside its 2-cycle, between
    # fresh breadth seeds: the descended seeds swap back and forth within
    # their first three iterations and drop out while the fresh ones run.
    dims = BipartiteDims(8, 8)
    probs = generate_instance(kind, dims, 12).probs
    fresh = [YoungTableau(dims, c) for c, _ in breadth(probs, dims, SearchConfig(n1=400, n2=8, seed=4))]
    earlier = scalar_depth(probs, dims, fresh[:4], 200)["choices"]
    assert all(cycle_step(c) is not None and cycle_step(c) < 199 for c in earlier)
    ended = [end_grid(seed, c) for seed, c in zip(fresh, earlier)]
    batch = [fresh[4], ended[0], ended[1], fresh[5], fresh[6], ended[2], fresh[7], ended[3]]
    descended = [False, True, True, False, False, True, False, True]
    ref = assert_depth_matches(probs, dims, batch, 20)
    steps = [cycle_step(c) for c in ref["choices"]]
    assert all(step is not None and step <= 2 for step, was in zip(steps, descended) if was)
    assert all(step is None or step > 2 for step, was in zip(steps, descended) if not was)


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
def test_worker_count(requested, tasks, cpus, expected, monkeypatch):
    monkeypatch.setattr(qaeopt.search, "usable_cpus", lambda: cpus)
    assert worker_count(requested, tasks) == expected


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


def _worker_placement(_task):
    # Long enough that one worker cannot take every task before the other
    # starts.
    time.sleep(0.05)
    return os.getpid(), frozenset(os.sched_getaffinity(0))


@pytest.mark.skipif(
    (usable_cpus() or 1) < 2 or not hasattr(os, "sched_setaffinity"), reason="needs two CPUs it can pin workers to"
)
def test_pool_pins_each_worker_to_its_own_cpu():
    # In a cpuset with sched_load_balance 0 the kernel never moves a running
    # worker off the parent's CPU; pinned, two workers run on two CPUs.
    parent = os.sched_getaffinity(0)
    _close_pool()
    placed = dict(run_tasks(_worker_placement, 2, range(8)))
    assert set(placed) == pool_workers()
    first, second = placed.values()
    assert len(first) == len(second) == 1 and first != second
    assert first | second <= parent
    assert os.sched_getaffinity(0) == parent


def _refuse_affinity(_pid, _cpus):
    raise OSError(22, "Invalid argument")


@pytest.mark.parametrize("setaffinity", [None, _refuse_affinity], ids=["missing", "refused"])
def test_pool_without_affinity_calls_runs_unpinned(setaffinity, monkeypatch):
    # Where os.sched_setaffinity is missing, or refuses the CPU, the workers
    # are not pinned, and the breadth tasks give what they give in process,
    # bit for bit.
    probs = descending_probs(16, 9)
    score = partial(_breadth_block, probs, _entropy(probs), 4, 4, 3, keep=6)
    tasks = list(breadth_tasks(3000, 2))

    def results(jobs):
        return [[(mi.hex(), idx, seq.tolist()) for mi, idx, seq in part] for part in run_tasks(score, jobs, tasks)]

    want = results(1)
    _close_pool()
    if setaffinity is None:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_setaffinity", setaffinity, raising=False)
    try:
        assert results(2) == want
        if hasattr(os, "sched_getaffinity"):
            placed = dict(run_tasks(_worker_placement, 2, range(8)))
            assert set(placed.values()) == {frozenset(os.sched_getaffinity(0))}
    finally:
        _close_pool()


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


POOL_STACK = """
import sys
if sys.argv[1:]:
    from qaeopt.cli import main
    main(sys.argv[1:])
else:
    import qaeopt
print(sorted({"multiprocessing", "concurrent.futures.process"} & set(sys.modules)))
"""


def _fresh_run(*argv):
    """The JSON lines of ``qaeopt.cli.main(argv)`` in a fresh interpreter (a
    plain ``import qaeopt`` when argv is empty), and which modules of the
    process-pool stack it loaded."""
    src = str(Path(qaeopt.search.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", POOL_STACK, *argv], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    *lines, loaded = out.stdout.splitlines()
    return [json.loads(line) for line in lines], loaded


@pytest.fixture
def heuristic_args(tmp_path):
    # --threshold 1 sends the 3x3 spectrum through the breadth tasks.
    path = tmp_path / "spectrum33.json"
    save_statefile(path, BipartiteDims(3, 3), spectrum=descending_probs(9, 3))
    return ["optimize", str(path), "--threshold", "1", "--n1", "200", "--n2", "3", "--nd", "10", "--seed", "2"]


def test_one_job_never_loads_the_pool_stack(heuristic_args):
    assert _fresh_run() == ([], "[]")
    lines, loaded = _fresh_run(*heuristic_args, "--jobs", "1")
    assert len(lines) == 1 and lines[0]["result"]["method"] == "heuristic"
    assert loaded == "[]"


@pytest.mark.skipif((usable_cpus() or 1) < 2, reason="one usable CPU runs every search in process")
def test_two_jobs_load_the_pool_stack_and_change_no_result(heuristic_args):
    def report(lines):
        # Only the timings and the echoed worker count may differ.
        (line,) = lines
        del line["timings"], line["config"]["parallelism"]
        return line

    one, _ = _fresh_run(*heuristic_args, "--jobs", "1")
    two, loaded = _fresh_run(*heuristic_args, "--jobs", "2")
    assert loaded == "['concurrent.futures.process', 'multiprocessing']"
    assert report(two) == report(one)


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
