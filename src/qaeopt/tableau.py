"""Rectangular Young tableaux over a d_a x d_b grid.

A tableau filling is "regular" when every row increases left to right and
every column increases top to bottom. With eigenvalues sorted descending and
value 1 marking the largest one, regular fillings correspond exactly to
decreasing probability matrices, which is the reduced search space for the
encoder permutation. This module enumerates, counts and samples them; the
search scores them in ``qaeopt.search``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator

import numpy as np

from .exceptions import ValidationError
from .qstate import BipartiteDims, _rng


@dataclass(frozen=True)
class YoungTableau:
    """A d_a x d_b grid filled with each of 1..d_a*d_b exactly once."""

    dims: BipartiteDims
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cells = tuple(tuple(int(v) for v in row) for row in self.cells)
        object.__setattr__(self, "cells", cells)
        if len(cells) != self.dims.d_a or any(len(r) != self.dims.d_b for r in cells):
            raise ValidationError(
                f"cells must form a {self.dims.d_a} x {self.dims.d_b} grid"
            )
        n = self.dims.total
        if sorted(chain.from_iterable(cells)) != list(range(1, n + 1)):
            raise ValidationError(f"cells must contain each of 1..{n} exactly once")

    @cached_property
    def index_array(self) -> np.ndarray:
        """cells - 1 as an integer array; arranges a descending spectrum into the grid."""
        arr = np.array(self.cells, dtype=np.intp) - 1
        arr.setflags(write=False)
        return arr


# regular_grid_walk walks the last t values of every shape in one walk and
# keeps them, for the largest t with min(d_a, d_b)**t at or below this and
# t <= n // 2; the kept suffixes of all shapes number at most this many grids.
SUFFIX_CAP = 2**16


def _walk(
    lengths: np.ndarray, grids: np.ndarray, v: int, stop: int, limit: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Place values v..stop-1 into every partial filling of the frontier,
    depth first, and yield the completed frontier in pieces.

    ``lengths[:, i + 1]`` is the length of row i and column 0 a full sentinel
    row of length d_b, so row i is admissible exactly when
    ``lengths[:, i] > lengths[:, i + 1]``; ``grids`` holds the flat row-major
    cells, 0 = empty. ``np.nonzero`` of the admissible-row mask lists the
    children parent-major and row-minor, which keeps depth-first order. When
    there would be more than ``limit`` children, the frontier is halved and
    its second half waits on a stack, so a piece never exceeds
    max(limit, number of admissible rows).
    """
    d_b = int(lengths[0, 0])
    stack = [(v, lengths, grids)]
    while stack:
        v, lengths, grids = stack.pop()
        while v < stop:
            parent, row = np.nonzero(lengths[:, :-1] > lengths[:, 1:])
            if len(parent) > limit and len(grids) > 1:
                half = len(grids) // 2
                stack.append((v, lengths[half:], grids[half:]))
                lengths, grids = lengths[:half], grids[:half]
                continue
            child = np.arange(len(parent))
            lengths, grids = lengths[parent], grids[parent]
            col = lengths[child, row + 1]
            lengths[child, row + 1] = col + 1
            grids[child, row * d_b + col] = v
            v += 1
        yield lengths, grids


def _suffix_codes(store: np.ndarray, top: int, bottom: int, weights: np.ndarray) -> np.ndarray:
    """Each suffix's shape code: its empty cells in rows top..bottom-1, its
    prefix's row lengths there, in the base of ``weights``. One matmul of
    the flattened 0/1 mask with each weight repeated per column."""
    empty = (store[:, top:bottom] == 0).reshape(len(store), -1)
    return empty @ np.repeat(weights, store.shape[2])


# A leaf block (prefix, suffix) and a walk piece (prefixes, blocks): see
# regular_grid_walk.
Block = tuple[np.ndarray, np.ndarray]
Piece = tuple[np.ndarray, Iterator[Block]]


def _leaf_blocks(first: np.ndarray, count: np.ndarray, block: int) -> Iterator[Block]:
    """One piece's leaf blocks: prefix i has the ``count[i]`` suffixes from
    row ``first[i]`` of the store."""
    ends = np.cumsum(count)
    starts = ends - count
    shift = first - starts  # leaf index + shift = the row of its suffix in store
    total = int(ends[-1])
    for j in range(0, total, block):
        # Leaves j..k-1 of the piece: prefixes lo..hi-1, run[i] leaves
        # from prefix lo+i.
        k = min(j + block, total)
        lo = np.searchsorted(ends, j, side="right")
        hi = np.searchsorted(ends, k - 1, side="right") + 1
        run = np.minimum(ends[lo:hi], k) - np.maximum(starts[lo:hi], j)
        yield np.repeat(np.arange(lo, hi), run), np.repeat(shift[lo:hi], run) + np.arange(j, k)


def regular_grid_walk(dims: BipartiteDims, block: int) -> tuple[np.ndarray, Iterator[Piece]]:
    """Every regular filling in factored form: the suffix store, shape
    (s, d_a, d_b), and an iterator of walk pieces. A piece is its prefix
    grids, shape (p, d_a, d_b), and an iterator of its leaf blocks, each a
    pair of row indices ``(prefix, suffix)``: leaf k is the value grid
    ``prefixes[prefix[k]] + store[suffix[k]]``, 0 marking an empty cell, and
    a prefix and its suffix fill disjoint cells. The store and every prefix
    array are read-only.

    Values 1..n are placed in increasing order, each trying the admissible
    rows top to bottom (a row shorter than the one above, or than d_b for
    the top row), so only regular fillings are built, depth first.

    The fillings that complete a partial filling depend only on its shape,
    its row lengths. So the first values, up to ``mid - 1``, are walked as
    prefixes, and the last ``t = n + 1 - mid`` are kept as suffixes; no
    leaf grid is built here. A value goes into one of at most
    m = min(d_a, d_b) rows, and t is the largest count with
    m**t <= SUFFIX_CAP and t <= n // 2. The suffixes kept for all shapes
    together are the ways to place the last t values, which turned by 180
    degrees are the ways to place the first t; so the store holds at most
    SUFFIX_CAP grids of n cells, and no more than there are prefixes: at
    (3,5) 120 suffixes for 274 prefixes, at (2,12) 924 for 924. A single
    row or column (m == 1) has one filling, kept whole as its one suffix,
    t = every value not pinned: split, it would be walked value by value in
    the shape walk and the prefix walk as well. This call builds the store:
    a walk over row lengths alone finds every shape a prefix can leave, and
    one walk from all of them builds the suffixes. Each prefix finds its
    shape's run of suffixes by a shape code. Leaves come prefix-major, each
    prefix's suffixes in depth-first order: the depth-first order of the
    whole tree.

    The prefix walk runs as the pieces are taken, in pieces (see ``_walk``),
    so a consumer can work out what it needs of each prefix once per piece.
    A piece's blocks hold ``block`` leaves each, the last maybe fewer, and
    cover its prefixes in order: a block's ``prefix`` is non-decreasing,
    and each prefix has a leaf.

    On a square grid of n > 1 cells, cell (0, 1) is pinned to value 2, which
    no filling shares with its transpose: one filling per transpose pair.
    """
    d_a, d_b, n = dims.d_a, dims.d_b, dims.total
    # The smallest dtypes that hold d_b and n: every level copies both arrays.
    lengths = np.zeros((1, d_a + 1), dtype=np.min_scalar_type(d_b))
    lengths[0, 0] = d_b
    grids = np.zeros((1, n), dtype=np.min_scalar_type(n))
    v = 1
    if d_a == d_b and n > 1:
        grids[0, :2] = 1, 2
        lengths[0, 1] = 2
        v = 3
    m, t = min(d_a, d_b), 0
    while t <= n - v and m ** (t + 1) <= SUFFIX_CAP and (m == 1 or t < n // 2):
        t += 1
    mid = n + 1 - t
    # Every shape a prefix can leave, from a walk over row lengths alone.
    shapes = lengths
    for _ in range(v, mid):
        parent, row = np.nonzero(shapes[:, :-1] > shapes[:, 1:])
        shapes = shapes[parent]
        shapes[np.arange(len(parent)), row + 1] += 1
        # np.unique over rows as bytes, a fraction of the cost of axis=0.
        shapes = shapes[np.unique(shapes.view(f"V{shapes[0].nbytes}"), return_index=True)[1]]
    # A prefix leaves t cells empty, so rows above top are full, rows from
    # bottom on are empty, and each row between has one of the lengths
    # d_b - r + 1..d_b, r = min(d_b, t) + 1. Those lengths in base r number
    # the shapes one to one, below 2**40 while SUFFIX_CAP <= 2**16.
    top, bottom = max(0, d_a - t), min(d_a, mid - 1)
    weights = (min(d_b, t) + 1) ** np.arange(bottom - top, dtype=np.int64)
    shapes = shapes[np.argsort(shapes[:, 1 + top : 1 + bottom] @ weights)]
    # Every partial completion extends to a kept suffix, so no level of this
    # walk holds more than SUFFIX_CAP grids and it never splits: each shape's
    # suffixes come out as one run, in depth-first order and shape code order.
    # A suffix's empty cells are its prefix's, so they give its shape code.
    [(_, store)] = _walk(shapes, np.zeros((len(shapes), n), grids.dtype), mid, n + 1, SUFFIX_CAP)
    store = store.reshape(-1, d_a, d_b)
    store.setflags(write=False)  # every leaf shares it
    store_code = _suffix_codes(store, top, bottom, weights)
    walk = _walk(lengths, grids, v, mid, block)

    def pieces() -> Iterator[Piece]:
        for lengths, grids in walk:
            shape_code = lengths[:, 1 + top : 1 + bottom] @ weights
            first = np.searchsorted(store_code, shape_code)
            count = np.searchsorted(store_code, shape_code, side="right") - first
            grids = grids.reshape(-1, d_a, d_b)
            grids.setflags(write=False)  # the piece's blocks share it
            yield grids, _leaf_blocks(first, count, block)

    return store, pieces()


def count_regular(dims: BipartiteDims) -> int:
    """Number of regular fillings of the d_a x d_b rectangle (hook length formula).

    Exact integer arithmetic; the counts overflow doubles already for modest
    grids. ``BipartiteDims`` bounds the grid at MAX_COUNT_CELLS cells.
    """
    hooks = math.prod(
        (dims.d_a - i) + (dims.d_b - j) - 1
        for i in range(dims.d_a)
        for j in range(dims.d_b)
    )
    return math.factorial(dims.total) // hooks


def _random_regular_grid(d_a: int, d_b: int, rng: np.random.Generator) -> list[list[int]]:
    """Grid-level sampler behind random_regular; consumes one block of n draws."""
    n = d_a * d_b
    grid = [[0] * d_b for _ in range(d_a)]
    row_len = [0] * d_a
    draws = rng.random(n)
    for v in range(1, n + 1):
        candidates = [
            i
            for i in range(d_a)
            if row_len[i] < d_b and (i == 0 or row_len[i - 1] > row_len[i])
        ]
        # k = floor(u * c) is in range for c candidates, as in
        # search._sample_block: a uniform u is at most 1 - 2**-53, so the
        # exact u * c is at least c * 2**-53 below c, more than half the float
        # spacing at c unless c is a power of two, and then c - c * 2**-53 is
        # the float just below c. Either way u * c rounds below c: k <= c - 1.
        i = candidates[int(draws[v - 1] * len(candidates))]
        grid[i][row_len[i]] = v
        row_len[i] += 1
    return grid


def random_regular(dims: BipartiteDims, seed) -> YoungTableau:
    """Sample a regular filling by placing 1..n in order, choosing uniformly at
    each step among the currently admissible cells.

    Per-step uniformity does not make the distribution uniform over fillings;
    that bias is intentional (the sampler mirrors the breadth-phase generator).
    ``seed`` may be a nonnegative int, a ``numpy.random.SeedSequence`` or a
    ``Generator``, which is used unchanged.
    """
    grid = _random_regular_grid(dims.d_a, dims.d_b, _rng(seed))
    return YoungTableau(dims, tuple(tuple(r) for r in grid))


def candidate_swaps(n: int) -> Iterator[tuple[int, int]]:
    """Move set for the neighbourhood: (i, i+1) for i in 2..n-1, then (i, i+2)
    for i in 2..n-2, in that order."""
    yield from ((i, i + 1) for i in range(2, n))
    yield from ((i, i + 2) for i in range(2, n - 1))
