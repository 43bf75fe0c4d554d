"""Minimize the arranged mutual information over regular Young tableaux.

Two routes: exact exhaustive traversal of the tableau space when its size is
under a threshold, and a two-phase heuristic otherwise. The heuristic first
samples many random regular tableaux and keeps the best few (breadth phase),
then repeatedly moves each survivor to its best value-swap neighbour while
tracking the best tableau ever seen (depth phase).

All three are array code with one mutual-information kernel: ``_marginals``
turns grids into row and column sums, ``_marginals_mi`` turns those into
mutual information, and ``_block_mi`` is the two together. The exhaustive
search takes its leaves from ``tableau.regular_grid_blocks`` in blocks of
LEAF_BLOCK, each leaf a prefix and a suffix from one store built before the
first block, and scores each block at once from their marginals (see
``_rough_blocks``). It builds a grid only for the leaves that need an exact
score: on one x86-64 core about 0.13 µs per leaf at (3,7), and about 2 s
for 2x15, the largest grid the default threshold routes to it (9,694,845
leaves). The breadth phase cuts the draws into tasks of at most
BREADTH_BLOCK (``breadth_tasks``, yielded one at a time): a task streams
its draws' uniforms one value at a time, places each value in all its draws
at once, in small-integer arrays of cells, scores the draws LEAF_BLOCK at a
time, and returns only its best few grids, which are merged as they arrive.
``run_tasks`` runs the same tasks in this process for one job, and on a
process pool holding at most two tasks per worker for more, so memory is
bounded for any n1 either way. There is one pool per process: it starts on
the first parallel call, is reused while the worker count stays the same,
and is joined at exit; a forked child starts its own. Its workers are
forked when it starts, so later changes to module state in the parent (a
test's monkeypatch, say) do not reach them. The depth phase moves all seeds
together, scoring every candidate swap of every seed per iteration from
packed row and column sums and a move test on value positions alone, and
drops a seed once it swaps back and forth between two tableaux, counting the
rest of its descent (see ``_depth``). Sums run in the same order as the
scalar loops kept in tests/oracles.py, so results match them bit for bit.
``optimize`` computes h_flat, the entropy of the probabilities that every
score subtracts, once and passes it to each phase.

Everything is deterministic given the config seed: each draw has its own RNG
stream, numpy's ``PCG64(SeedSequence((seed, draw_index)))``, so results do
not depend on the block size or on how tasks are split across workers. The
streams and their uniforms are computed here as uint32/uint64 array code,
bit for bit those numpy makes, so the search never loads ``numpy.random``.

``optimize`` is the one entry point: it validates the probabilities once,
routes by ``count_regular``, and builds the one ``OptimizationResult`` from
what the private phases ``_exhaustive``, ``_breadth`` and ``_depth`` return
as plain arrays and numbers.
"""

from __future__ import annotations

import math
import operator
import os
from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from functools import partial
from multiprocessing.util import Finalize

import numpy as np

from .exceptions import ValidationError
from .qstate import MI_ROUNDOFF_TOL, BipartiteDims, _check_integers, _probability_vector
from .tableau import YoungTableau, candidate_swaps, count_regular, regular_grid_blocks

DEFAULT_EXHAUSTIVE_THRESHOLD = 10**7
# Draws sampled together, their uniforms streamed one value at a time and
# their grids built LEAF_BLOCK draws at a time. All n1 draws at once would
# hold every draw's cells in memory; one block of 8192 peaks at about 2.4 MB
# of traced memory at (8, 8), under a 4 MB budget.
BREADTH_BLOCK = 8192
# Exhaustive leaves scored together; 4096 is no faster there.
LEAF_BLOCK = 2048
# Breadth draws, exhaustive leaves and depth swaps whose rough (numpy log)
# score is within this of the cut that matters get an exact score; the rough
# and exact scores differ by far less than 1e-12.
SCORE_SLACK = 1e-9
# Draw indices run below 2**32, so each is one uint32 word of its stream's seed.
MAX_DRAWS = 2**32


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the two-phase search and the exhaustive/heuristic routing.

    n1: breadth-phase sample count, at most MAX_DRAWS; n2: seeds retained
    for the depth phase; n_d: descent iterations per seed. The exhaustive
    threshold bounds the tableau count up to which full traversal is used.
    ``parallelism`` workers evaluate breadth-phase samples; results do not
    depend on it.
    """

    n1: int = 20000
    n2: int = 12
    n_d: int = 200
    seed: int = 0
    exhaustive_threshold: int = DEFAULT_EXHAUSTIVE_THRESHOLD
    parallelism: int = 1

    def __post_init__(self) -> None:
        _check_integers(self, (f.name for f in fields(self)))
        if min(self.n1, self.n2, self.n_d, self.parallelism) < 1:
            raise ValidationError("n1, n2, n_d and parallelism must be positive")
        if self.n1 > MAX_DRAWS:
            raise ValidationError(f"n1 ({self.n1}) must not exceed 2**32")
        if self.n2 > self.n1:
            raise ValidationError(f"n2 ({self.n2}) must not exceed n1 ({self.n1})")
        if self.exhaustive_threshold < 1:
            raise ValidationError("exhaustive_threshold must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a search run.

    ``trajectory`` is the best-seen mutual information over time (always
    non-increasing); ``seed_provenance`` is the index of the depth-phase seed
    that produced the winner, or None when the winner came from exhaustive
    traversal or the starting arrangement. ``evaluations`` counts mutual
    information evaluations.
    """

    best_tableau: YoungTableau
    best_mi: float
    method: str
    evaluations: int
    trajectory: tuple[float, ...]
    seed_provenance: int | None

    def __post_init__(self) -> None:
        if self.method not in ("exhaustive", "heuristic"):
            raise ValidationError(f"unknown method {self.method!r}")
        if self.best_mi < -MI_ROUNDOFF_TOL:
            raise ValidationError(f"negative mutual information: {self.best_mi}")
        if any(b > a for a, b in zip(self.trajectory, self.trajectory[1:])):
            raise ValidationError("best-seen trajectory must be non-increasing")

    @property
    def initial_mi(self) -> float:
        return self.trajectory[0]

    def to_dict(self) -> dict:
        return {
            "best_tableau": [list(row) for row in self.best_tableau.cells],
            "best_mi": self.best_mi,
            "method": self.method,
            "evaluations": self.evaluations,
            "trajectory": list(self.trajectory),
            "seed_provenance": self.seed_provenance,
        }


def usable_cpus() -> int | None:
    """CPUs this process may run on: its affinity set where the platform has
    one (a cpuset or taskset can make it smaller than ``os.cpu_count()``),
    else ``os.cpu_count()``, which is None when unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def worker_count(requested: int, tasks: int, cpus: int | None) -> int:
    """Worker processes worth starting for ``tasks`` independent tasks: no
    more than requested, than tasks, or than ``cpus`` (``usable_cpus()``,
    None when unknown, which counts as one), and at least one."""
    return max(1, min(requested, tasks, cpus or 1))


def breadth_tasks(n1: int, jobs: int) -> Iterator[tuple[int, int]]:
    """Draw ranges (lo, hi), yielded one at a time: none longer than
    BREADTH_BLOCK, sizes within one of each other, and a multiple of
    ``jobs`` of them unless that would exceed n1, so every worker gets an
    equal share.

    A pool hands them out one at a time, so a worker whose core is slowed
    by other load takes fewer of them, and the phase waits at most one task
    for the last worker instead of for a fixed share of the draws.
    """
    blocks = -(-n1 // BREADTH_BLOCK)
    tasks = min(n1, -(-blocks // jobs) * jobs)
    return ((k * n1 // tasks, (k + 1) * n1 // tasks) for k in range(tasks))


# This process's worker pool: (owning pid, worker count, executor, exit
# finalizer), or None before the first parallel call and after a close.
_pool: tuple[int, int, ProcessPoolExecutor, Finalize] | None = None


def _close_pool() -> None:
    """Forget the pool and shut it down, unless it was inherited through
    fork: a forked copy's pipes and workers are the parent's."""
    global _pool
    if _pool is not None:
        pid, _jobs, _executor, close = _pool
        _pool = None
        if pid == os.getpid():
            close()


def _shared_pool(jobs: int) -> ProcessPoolExecutor:
    """The pool of ``jobs`` workers, started on first use. One of another
    size is shut down first, so at most one is alive at a time."""
    global _pool
    if _pool is not None and _pool[:2] == (os.getpid(), jobs):
        return _pool[2]
    _close_pool()
    pool = ProcessPoolExecutor(max_workers=jobs)
    # concurrent.futures joins the workers at interpreter exit, but a
    # multiprocessing child exits by running its finalizers and then waiting
    # for its children, forever on an idle pool. This finalizer shuts the
    # pool down there, ahead of its call queue's own (priority 10).
    _pool = (os.getpid(), jobs, pool, Finalize(None, pool.shutdown, exitpriority=20))
    return pool


def run_tasks(fn: Callable, jobs: int, *iterables) -> Iterator:
    """``map(fn, *iterables)``: in this process when ``jobs`` is 1, else on
    this process's one pool of ``jobs`` workers. Results come in task order
    either way. At most 2 * jobs tasks are submitted at once, so a long or
    endless task list is read only as results are taken.

    The pool starts on the first call with ``jobs`` > 1, is reused while
    ``jobs`` stays the same and is joined at exit; a forked child starts its
    own. Its workers are forked when it starts, so later changes to module
    state here do not reach them. Closing the generator, or an error leaving
    it, cancels the tasks not yet started. A worker that dies raises
    ``BrokenProcessPool``, and the next call starts a new pool.
    """
    if jobs == 1:
        yield from map(fn, *iterables)
        return
    pool = _shared_pool(jobs)
    pending = deque()
    try:
        for args in zip(*iterables):
            if len(pending) == 2 * jobs:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, *args))
        while pending:
            yield pending.popleft().result()
    except BrokenProcessPool:
        _close_pool()
        raise
    finally:
        for future in pending:
            future.cancel()


_log = np.frompyfunc(math.log, 1, 1)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """Elementwise x log x with 0 log 0 = 0.

    The logarithm is the C library's, through ``math.log``: numpy's SIMD log
    can differ from it in the last bit, which would make results depend on
    the CPU.
    """
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = xp * _log(xp).astype(float)
    return out


def _xlogx_rough(x: np.ndarray) -> np.ndarray:
    """x log x through numpy's log: fast, but not always bitwise _xlogx."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _sum_left(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly left to right (numpy's pairwise
    reduction rounds differently)."""
    total = np.zeros(terms.shape[:-1])
    for k in range(terms.shape[-1]):
        total += terms[..., k]
    return total


def _flat_entropy(p: np.ndarray) -> float:
    """H(p) in nats from ``_xlogx``, summed left to right: the h_flat every
    score subtracts, free of numpy's log like the scores themselves."""
    return float(-_sum_left(_xlogx(p)))


def _marginals(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of grids q[..., d_a, d_b], each summed in cell order."""
    return _sum_left(q), _sum_left(np.swapaxes(q, -1, -2))


# numpy's SeedSequence entropy-pool hash (pool of four uint32 words) and
# PCG64, a 128-bit LCG with XSL-RR output. Plain uint32/uint64 arrays wrap
# modulo 2**32 / 2**64 without a warning, as the C code does.
_M32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _seed_sequence_state(seed: int, lo: int, hi: int) -> list[np.ndarray]:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for draws
    i in lo..hi-1 (all below 2**32), as four uint64 arrays of length hi-lo.

    The entropy is the little-endian uint32 words of ``seed`` followed by
    the one word of ``i``. The hash multipliers do not depend on the data,
    so they advance as Python ints while the values are arrays.
    """
    seed = operator.index(seed)
    shifts = range(0, max(seed.bit_length(), 1), 32)
    words = [np.array([seed >> shift & _M32], dtype=np.uint32) for shift in shifts]
    words.append(np.arange(lo, hi, dtype=np.uint64).astype(np.uint32))
    const = _HASH_INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _HASH_MULT_A & _M32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(words[k] if k < len(words) else zero) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:  # entropy beyond the pool, from seeds of 4+ words
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, half = _HASH_INIT_B, []
    for k in range(8):
        value = pool[k % 4] ^ const
        const = const * _HASH_MULT_B & _M32
        value = value * const
        half.append((value ^ (value >> 16)).astype(np.uint64))
    return [np.broadcast_to(half[2 * k] | (half[2 * k + 1] << 32), (hi - lo,)) for k in range(4)]


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One LCG step, state * multiplier + increment modulo 2**128, on
    (high, low) uint64 halves. The high half of lo * _PCG_MULT_LO comes from
    32-bit pieces, whose products and partial sums fit in 64 bits."""
    a0, a1 = lo & _M32, lo >> 32
    b0, b1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    high = a1 * b1 + (mid >> 32) + ((mid & _M32) + a0 * b1 >> 32)
    prod_lo = lo * _PCG_MULT_LO
    new_lo = prod_lo + inc_lo
    new_hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + high + inc_hi + (new_lo < prod_lo)
    return new_hi, new_lo


def _draw_uniforms(seed: int, lo: int, hi: int, n: int) -> Iterator[np.ndarray]:
    """``Generator(PCG64(SeedSequence((seed, i)))).random(n)`` for draws i in
    lo..hi-1, bit for bit, as a stream: step k yields uniform k of every
    draw, one float64 row of length hi - lo. Each output word w becomes
    (w >> 11) * 2**-53, as numpy makes it."""
    s_hi, s_lo, i_hi, i_lo = _seed_sequence_state(seed, lo, hi)
    # PCG64's set-seed: the increment is 2 * initseq + 1; from state 0 one
    # step gives the increment, then the seed is added and one more step run.
    inc_hi, inc_lo = (i_hi << 1) | (i_lo >> 63), (i_lo << 1) | 1
    lo_ = inc_lo + s_lo
    hi_ = inc_hi + s_hi + (lo_ < s_lo)
    hi_, lo_ = _pcg_step(hi_, lo_, inc_hi, inc_lo)
    for _ in range(n):
        hi_, lo_ = _pcg_step(hi_, lo_, inc_hi, inc_lo)
        x, rot = hi_ ^ lo_, hi_ >> 58
        yield ((x >> rot | x << ((64 - rot) & 63)) >> 11) * 2.0**-53


def _sample_block(d_a: int, d_b: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Cells of draws lo..hi-1: cell[v, i - lo] is the flat (row-major)
    cell of value v + 1 in draw i, shape (d_a * d_b, hi - lo).

    Draw i is exactly ``tableau._random_regular_grid`` fed from the stream
    ``PCG64(SeedSequence((seed, i)))``, whose uniforms ``_draw_uniforms``
    streams for the whole block, one row per value, taken just before the
    value is placed: value v goes to the k-th admissible row,
    k = floor(u_v * count): the reference's k without its cap, which never
    binds (see there). Arrays are laid out draws-last, so every step works
    on whole rows, and the sampler state and the cells are in the smallest
    signed integer type that holds n. ``_cell_grids`` turns cells into
    value grids.
    """
    n, size = d_a * d_b, hi - lo
    small = np.min_scalar_type(-n - 1)
    # lengths[i + 1] holds the length of row i; lengths[0] is a full sentinel
    # row, so row i is admissible exactly when lengths[i] > lengths[i + 1].
    lengths = np.zeros((d_a + 1, size), dtype=small)
    lengths[0] = d_b
    row_start = np.arange(0, n, d_b, dtype=small)[:, None]
    # The 0/1 masks share the state's type, so adding them to it needs no cast.
    admissible = np.empty((d_a, size), dtype=small)
    # before[i + 1] is 1 while row i comes before the chosen row; before[0] is 1.
    before = np.ones((d_a + 1, size), dtype=small)
    chosen = np.empty((d_a, size), dtype=small)
    rank = np.empty((d_a, size), dtype=small)
    at = np.empty((d_a, size), dtype=small)
    cell = np.empty((n, size), dtype=small)
    for v, uniform in enumerate(_draw_uniforms(seed, lo, hi, n)):
        np.greater(lengths[:-1], lengths[1:], out=admissible)
        # Running count of admissible rows; np.cumsum along axis 0 is far
        # slower than one add per row.
        np.copyto(rank[0], admissible[0])
        for i in range(1, d_a):
            np.add(rank[i - 1], admissible[i], out=rank[i])
        count = rank[-1]
        k = (uniform * count).astype(small)
        # The chosen row is the first with rank > k, where before drops to
        # 0; a one-hot mask of it replaces a gather and a scatter.
        np.less_equal(rank, k, out=before[1:])
        np.subtract(before[:-1], before[1:], out=chosen)
        np.add(lengths[1:], row_start, out=at)
        at *= chosen
        at.sum(axis=0, out=cell[v])
        lengths[1:] += chosen
    return cell


def _cell_grids(cell: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """int32 value grids, shape (draws, d_a, d_b), of the draws (columns)
    of ``cell`` as ``_sample_block`` returns it. A grid and its cell
    sequence determine each other."""
    n, size = cell.shape
    grids = np.empty(size * n, dtype=np.int32)
    grids[cell.T + np.arange(0, size * n, n)[:, None]] = np.arange(1, n + 1, dtype=np.int32)
    return grids.reshape(size, d_a, d_b)


def _marginals_mi(rows: np.ndarray, cols: np.ndarray, h_flat: float, xlogx=_xlogx) -> np.ndarray:
    """Mutual information from row sums rows[k, d_a] and column sums
    cols[k, d_b], in the scalar order: h_rows by subtracting row terms one
    by one, h_cols as a negated sum."""
    h_rows = np.zeros(len(rows))
    for term in xlogx(rows).T:
        h_rows -= term
    h_cols = -_sum_left(xlogx(cols))
    return h_rows + h_cols - h_flat


def _block_mi(probs: np.ndarray, grids: np.ndarray, h_flat: float, xlogx=_xlogx) -> np.ndarray:
    """Mutual information of each value grid, its marginals summed in cell
    order. This is the one mutual-information kernel of the search. Values
    are 1-based, so they index ``[0, probs...]`` directly."""
    return _marginals_mi(*_marginals(np.concatenate(([0.0], probs))[grids]), h_flat, xlogx)


def _min_before(scores: np.ndarray, floor: float) -> np.ndarray:
    """For each score, the minimum of ``floor`` and every score before it."""
    return np.minimum.accumulate(np.concatenate(([floor], scores)))[:-1]


# What _exhaustive and _depth return: the best value grid, its mutual
# information, the evaluation count, the best-seen trajectory and the index of
# the depth seed that found the best grid (None for exhaustive traversal).
Outcome = tuple[np.ndarray, float, int, list[float], int | None]


def _rough_blocks(p: np.ndarray, dims: BipartiteDims, h_flat: float):
    """Every leaf block of the exhaustive traversal with a rough score for
    each of its leaves, from factored marginals and numpy's log.

    A leaf's rows and columns are split by its prefix and its suffix: the
    prefix fills the left part of each row and the top of each column. So
    its marginals are the prefix's plus the suffix's, d_a + d_b adds, with
    no leaf grid built. The prefix sums are worked out once per block that
    draws on the prefix, the suffix sums once, from the shared store, before
    the first block. Both are sums of ``p_ext[grid]``, where
    ``p_ext = [0, p...]``, so an empty cell adds exactly 0. Each factored
    marginal then differs from its cell-order sum by at most about n * eps,
    and the rough score from the exact one by far less than 1e-12.
    """
    p_ext = np.concatenate(([0.0], p))
    store = None
    for block in regular_grid_blocks(dims, LEAF_BLOCK, exploit_symmetry=dims.d_a == dims.d_b):
        if block.store is not store:  # the first block: one store for all
            store, k = block.store, LEAF_BLOCK  # summed k grids at a time, as in _cell_mi
            suffix_rows, suffix_cols = (np.empty((len(store), d)) for d in (dims.d_a, dims.d_b))
            for i in range(0, len(store), k):
                suffix_rows[i : i + k], suffix_cols[i : i + k] = _marginals(p_ext[store[i : i + k]])
        prefix_rows, prefix_cols = _marginals(p_ext[block.prefixes])
        # take along axis 0 copies whole rows, faster than fancy indexing.
        rows = prefix_rows.take(block.prefix, axis=0)
        rows += suffix_rows.take(block.suffix, axis=0)
        cols = prefix_cols.take(block.prefix, axis=0)
        cols += suffix_cols.take(block.suffix, axis=0)
        yield block, _marginals_mi(rows, cols, h_flat, _xlogx_rough)


def _exhaustive(p: np.ndarray, dims: BipartiteDims, h_flat: float) -> Outcome:
    """Globally minimal grid by full traversal; ties go to the first grid in
    enumeration order.

    For square grids only one representative per transpose pair is evaluated
    (transposition swaps the two marginals and leaves the mutual information
    unchanged), so the evaluation count is half the total count there.

    The leaves come from ``tableau.regular_grid_blocks`` in blocks of
    LEAF_BLOCK, as prefix and suffix indices, and ``_rough_blocks``
    scores each block at once from their marginals. Rough and exact scores
    differ by far less than 1e-12, well under SCORE_SLACK, so a leaf can set
    a new exact minimum only if its rough score is within SCORE_SLACK of the
    rough minimum before it. Only those leaves are built as grids and scored
    exactly, with the marginals summed in cell order. Memory stays bounded
    (about 39 MB of process RSS at 2x15).
    """
    best_mi = best_rough = math.inf
    best_grid = None
    trajectory: list[float] = []
    evaluations = 0
    for block, rough in _rough_blocks(p, dims, h_flat):
        evaluations += len(rough)
        near = np.flatnonzero(rough <= _min_before(rough, best_rough) + SCORE_SLACK)
        best_rough = min(best_rough, rough.min())
        if not near.size:  # most blocks, once a low minimum is found
            continue
        grids = block.grids(near)
        exact = _block_mi(p, grids, h_flat)
        records = np.flatnonzero(exact < _min_before(exact, best_mi))
        if records.size:
            trajectory += exact[records].tolist()
            best_mi = trajectory[-1]
            best_grid = grids[records[-1]]
    assert best_grid is not None
    return best_grid, best_mi, evaluations, trajectory, None


Candidate = tuple[float, int, np.ndarray]  # (mi, draw index, value grid)


def _distinct_best(ranked, keep: int) -> list[Candidate]:
    """The first ``keep`` candidates of ``ranked`` with distinct grids."""
    out: list[Candidate] = []
    seen: set[bytes] = set()
    for mi, idx, grid in ranked:
        key = grid.tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append((mi, idx, grid))
        if len(out) == keep:
            break
    return out


def _merge_best(parts, keep: int) -> list[Candidate]:
    """Best ``keep`` distinct candidates of several lists, by (mi, draw index)."""
    merged = sorted((c for part in parts for c in part), key=lambda c: (c[0], c[1]))
    return _distinct_best(merged, keep)


def _cell_mi(
    probs: np.ndarray, cell: np.ndarray, d_a: int, d_b: int, h_flat: float, xlogx=_xlogx
) -> np.ndarray:
    """``_block_mi`` of the draws (columns) of ``cell``, scored LEAF_BLOCK
    draws at a time, so that no more grids than that exist at once."""
    return np.concatenate([
        _block_mi(probs, _cell_grids(cell[:, k : k + LEAF_BLOCK], d_a, d_b), h_flat, xlogx)
        for k in range(0, cell.shape[1], LEAF_BLOCK)
    ])


def _breadth_block(
    probs: np.ndarray, h_flat: float, d_a: int, d_b: int, seed: int, task: tuple[int, int], keep: int
) -> list[Candidate]:
    """Evaluate draws lo..hi-1 of ``task``, at most BREADTH_BLOCK of them,
    and reduce them to their best ``keep`` distinct grids, by (mi, draw index)."""
    lo, hi = task
    cell = _sample_block(d_a, d_b, seed, lo, hi)
    # As in the other phases, numpy's log scores every draw first. Rough and
    # exact scores differ by under 1e-14 and duplicate grids score alike, so
    # the rough score of the keep-th distinct grid is within that of the
    # exact one, and only draws within SCORE_SLACK of it can hold the block's
    # best keep grids; only those get an exact score. Draws are told apart
    # by their cell sequences, so grids exist only for one scoring piece at
    # a time and for the draws returned.
    rough = _cell_mi(probs, cell, d_a, d_b, h_flat, _xlogx_rough)
    ranked = ((float(rough[k]), k, cell[:, k]) for k in np.argsort(rough).tolist())
    firsts = _distinct_best(ranked, keep)
    cut = firsts[-1][0] if len(firsts) == keep else math.inf
    near = np.flatnonzero(rough <= cut + SCORE_SLACK)
    near_cell = cell[:, near]
    mi = _cell_mi(probs, near_cell, d_a, d_b, h_flat)
    best = _merge_best([zip(mi.tolist(), (lo + near).tolist(), near_cell.T)], keep)
    grids = _cell_grids(np.stack([seq for _mi, _idx, seq in best], axis=1), d_a, d_b)
    return [(x, idx, grid) for (x, idx, _seq), grid in zip(best, grids)]


def _breadth(p: np.ndarray, dims: BipartiteDims, config: SearchConfig, h_flat: float) -> list[Candidate]:
    """Sample n1 random regular grids and return the n2 distinct ones with
    the smallest mutual information, ascending by (mi, draw index).

    The draws are cut into ``breadth_tasks`` of at most one block, which
    ``run_tasks`` scores in this process or on a pool (the worker count
    chooses only which), and the parts are merged as they arrive. Draw i
    uses the RNG stream ``PCG64(SeedSequence((config.seed, i)))``, so the
    result is independent of how draws are split into tasks and workers.
    """
    jobs = worker_count(config.parallelism, config.n1, usable_cpus())
    score = partial(_breadth_block, p, h_flat, dims.d_a, dims.d_b, config.seed, keep=config.n2)
    best: list[Candidate] = []
    for part in run_tasks(score, jobs, breadth_tasks(config.n1, jobs)):
        best = _merge_best([best, part], config.n2)
    return best


def _depth(
    p: np.ndarray, dims: BipartiteDims, grids: np.ndarray, config: SearchConfig, h_flat: float
) -> Outcome:
    """Iterated best-neighbour descent from each regular seed value grid of
    ``grids``, shape (seeds, d_a, d_b).

    Each iteration moves to the neighbour with minimal mutual information,
    even when that is worse than the current grid (the move set never
    contains the current grid), and the globally best grid seen across all
    trajectories is returned. A trajectory halts early when a grid has no
    regular neighbour.

    A trajectory that makes the same swap twice in a row is back on the grid
    it held two iterations before, and stops being computed there. That is
    exact: a swap undoes itself, and the move chosen from a grid depends on
    that grid alone (marginals are summed afresh, ties go to the first swap),
    so every later iteration repeats one of the last two, bit for bit. Their
    evaluations are counted from those two; they can set no new best, so
    their mutual information is never needed. In the paper's 8x8 protocol
    every seed measured entered such a 2-cycle, at iteration 36 to 160 of 200.

    All seeds descend together, one iteration at a time, each scoring every
    candidate swap at once from one array of its row and column sums; the
    best-seen record is then replayed seed by seed, as if each trajectory
    had run to its end before the next one started. Ties go to the first
    swap in ``candidate_swaps`` order. Whether a swap keeps a grid regular
    follows from where values sit: v and v + 1 of a regular grid share a
    row or column only as neighbours, so swapping them is regular exactly
    when they share neither, and swapping v and v + 2 exactly when no two
    of v, v + 1 and v + 2 share a row or a column.
    """
    n_seeds, n, d_a = len(grids), dims.total, dims.d_a
    u, w = np.array(list(candidate_swaps(n)), dtype=np.intp).reshape(-1, 2).T - 1  # 0-based values
    # place[s, v] is the (row, column) of value v + 1 in seed s. A swap's four
    # operands, as indices into place[s].ravel(): the rows of u and w, then
    # their columns. Swap k adds step[k] to the four sums.
    operands = np.stack([2 * u, 2 * w, 2 * u + 1, 2 * w + 1], axis=1)
    step = (p[w] - p[u])[:, None] * np.array([1.0, -1.0, 1.0, -1.0])
    p_ext = np.concatenate(([0.0], p))
    cells = grids.copy()
    place = np.stack(np.divmod(np.argsort(grids.reshape(n_seeds, n), axis=1), dims.d_b), axis=-1)
    # Where seed s's row sums, then its column sums, start in marg.ravel().
    origin = np.arange(n_seeds)[:, None, None] * (d_a + dims.d_b) + np.array([0, 0, d_a, d_a])
    # Seed of each row of cells and place; rows are dropped as seeds finish,
    # and with no candidate swap (n < 3) every seed has finished.
    active = np.arange(n_seeds if len(u) else 0)

    start_mi = _block_mi(p, grids, h_flat).tolist()
    best_mi = np.array(start_mi)  # per seed, updated on strict improvement
    best_grid = grids.copy()
    step_mi = np.full((config.n_d, n_seeds), math.inf)
    steps = np.zeros(n_seeds, dtype=np.intp)
    last_choice = np.full(n_seeds, -1)  # per seed, the swap of the last iteration
    last_count = np.zeros(n_seeds, dtype=np.intp)  # and its count of valid swaps
    evaluations = n_seeds

    for t in range(config.n_d):
        if not active.size:
            break
        # Fresh sums each iteration keep float drift out of the deltas; an
        # add.accumulate adds strictly left to right, as _sum_left does.
        q = p_ext[cells]
        marg = np.hstack([np.add.accumulate(q, 2)[..., -1], np.add.accumulate(q, 1)[:, -1]])
        x = _xlogx(marg)
        h_rows, h_cols = (-np.add.accumulate(part, 1)[:, -1] for part in (x[:, :d_a], x[:, d_a:]))

        # The move test of the docstring. apart[:, v]: values v + 1 and v + 2
        # share no row and no column; apart_2 the same for v + 1 and v + 3.
        d1, d2 = place[:, 1:] != place[:, :-1], place[:, 2:] != place[:, :-2]
        apart, apart_2 = d1[..., 0] & d1[..., 1], d2[..., 0] & d2[..., 1]
        valid = np.concatenate([apart[:, 1:], apart_2[:, 1:] & apart[:, 1:-1] & apart[:, 2:]], axis=1)
        counts = valid.sum(axis=1)
        evaluations += int(counts.sum())
        moved = counts > 0

        at = place.reshape(len(active), 2 * n).take(operands, axis=1) + origin[: len(active)]
        x_at, new = x.take(at), marg.take(at) + step
        base_rows = h_rows[:, None] + x_at[..., 0] + x_at[..., 1]
        base_cols = h_cols[:, None] + x_at[..., 2] + x_at[..., 3]

        def score(xlogx, sel):
            terms = xlogx(new[sel])
            rows = base_rows[sel] - terms[..., 0] - terms[..., 1]
            return rows + (base_cols[sel] - terms[..., 2] - terms[..., 3]) - h_flat

        # Exact scores cost a math.log call per term, so all swaps are first
        # scored with numpy's log. The two scores differ by under 1e-14, so
        # every swap whose exact score is the minimum lies within
        # SCORE_SLACK of the rough minimum, and only those are rescored.
        rough = np.where(valid, score(_xlogx_rough, ...), math.inf)
        near = valid & (rough <= rough.min(axis=1, keepdims=True) + SCORE_SLACK)
        cand = np.full(valid.shape, math.inf)
        cand[near] = score(_xlogx, near)

        ms = np.flatnonzero(moved)
        seed = active[ms]
        choice = cand[ms].argmin(axis=1)
        chosen = cand[ms, choice]
        uu, ww = u[choice], w[choice]
        a, b = place[ms, uu], place[ms, ww]
        cells[ms, a[:, 0], a[:, 1]] = ww + 1
        cells[ms, b[:, 0], b[:, 1]] = uu + 1
        place[ms, uu], place[ms, ww] = b, a
        step_mi[t, seed] = chosen
        steps[seed] += 1

        better = chosen < best_mi[seed]
        improved = seed[better]
        best_mi[improved] = chosen[better]
        best_grid[improved] = cells[ms[better]]

        # A seed that makes the swap of its last iteration again is back on
        # the grid it left two iterations ago. Its next move is a function of
        # that grid alone, so from here it alternates between the last two
        # iterations, bit for bit, and can set no new best: count its
        # remaining iterations, whose step_mi stays inf, and drop it.
        cycled = choice == last_choice[seed]
        left = config.n_d - 1 - t
        for si, count in zip(seed[cycled].tolist(), counts[ms[cycled]].tolist()):
            evaluations += (left + 1) // 2 * int(last_count[si]) + left // 2 * count
        steps[seed[cycled]] = config.n_d
        last_choice[seed], last_count[seed] = choice, counts[ms]
        # A seed with no regular neighbour keeps its grid, so it has none in
        # any later iteration either: its trajectory has halted.
        keep = moved
        keep[ms[cycled]] = False
        if not keep.all():
            cells, place, active = cells[keep], place[keep], active[keep]

    # Seed-major replay. The seed that sets the overall best last does so
    # with its own last strict improvement, which best_grid holds.
    overall, best_seed = math.inf, 0
    trajectory: list[float] = []
    for si in range(n_seeds):
        if start_mi[si] < overall:
            overall, best_seed = start_mi[si], si
        for x in step_mi[: steps[si], si].tolist():
            if x < overall:
                overall, best_seed = x, si
            trajectory.append(overall)

    return best_grid[best_seed], overall, evaluations, trajectory, best_seed


def optimize(probs, dims: BipartiteDims, config: SearchConfig | None = None) -> OptimizationResult:
    """Route to exhaustive traversal or the two-phase heuristic by space size.

    The starting arrangement (row-major layout of the descending
    probabilities, which is already a decreasing matrix) always participates
    as a candidate, so the result is never worse than not encoding at all.
    """
    if config is None:
        config = SearchConfig()
    p = _probability_vector(probs, dims.total)
    h_flat = _flat_entropy(p)
    start = np.arange(1, dims.total + 1).reshape(1, dims.d_a, dims.d_b)
    initial_mi = float(_block_mi(p, start, h_flat)[0])

    if count_regular(dims) <= config.exhaustive_threshold:
        method, outcome = "exhaustive", _exhaustive(p, dims, h_flat)
    else:
        seeds = np.array([grid for _mi, _idx, grid in _breadth(p, dims, config, h_flat)])
        method, outcome = "heuristic", _depth(p, dims, seeds, config, h_flat)
    grid, best_mi, evaluations, trajectory, provenance = outcome

    if best_mi > initial_mi:
        grid, best_mi, provenance = start[0], initial_mi, None
    return OptimizationResult(
        best_tableau=YoungTableau(dims, grid.tolist()),
        best_mi=best_mi,
        method=method,
        evaluations=evaluations + 1,
        trajectory=(initial_mi,) + tuple(min(x, initial_mi) for x in trajectory),
        seed_provenance=provenance,
    )
