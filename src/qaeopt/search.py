"""Minimize the arranged mutual information over regular Young tableaux.

Two routes: exact exhaustive traversal of the tableau space when its size is
under a threshold, and a two-phase heuristic otherwise. The heuristic first
samples many random regular tableaux and keeps the best few, with their exact
scores (breadth phase), then repeatedly moves each survivor to its best
value-swap neighbour and names the winner from each one's best (depth phase).

All three are array code with one marginal format and the package's one
exact kernel: ``_marginals`` packs each grid's row sums, then its column
sums, in one row, and ``qstate._exact_mi`` turns such rows into mutual
information (``_block_mi`` of grids). Breadth first filters with one rough
score, ``_rough_mi``, of the same packed sums, through numpy's log in
``_xlogx_rough``, the one use of numpy's log in the package; depth calls
that for its swap sums. The exhaustive search reads
``tableau.regular_grid_walk``: one suffix store, and the pieces of the
prefix walk, each its prefix array and its leaves in blocks of at most
LEAF_BLOCK, each leaf a prefix and a suffix. It scores each block at once
with ``_rough_mi`` from packed marginals in float32, under a derived error
bound, goes over to float64 sums for the rest of a traversal once a block
has too many near leaves (flat spectra; see ``_exhaustive``), and builds a
grid only for the leaves that need an exact score: on one x86-64 core
about 0.06 µs per leaf at (3,7), and 0.7 s for 2x15, the largest grid the
default threshold routes to it (9,694,845 leaves). The breadth phase cuts
the draws into tasks of at most BREADTH_BLOCK (``breadth_tasks``, yielded
one at a time): a task streams its draws' uniforms one value at a time,
places each value in all its draws at once, in small-integer arrays of
cells, scores them LEAF_BLOCK at a time (``_by_piece``) and returns its best
few draws, merged as they arrive. ``run_tasks`` runs the same tasks in
this process for one job, and on a process pool holding at most two tasks
per worker for more, so memory is bounded for any n1 either way; a run
closed early still finishes those. There is one pool per process: it starts
on the first parallel call, is reused while the worker count stays the same,
and is joined at exit; a forked child starts its own. ``concurrent.futures``
and ``multiprocessing`` are imported by that first call too, so a run with
one job never loads them: about 2 MB and 15-18 ms per process on a 2-vCPU
x86-64 VM. The workers are forked when the pool starts, so later changes
to module state in the parent (a test's monkeypatch, say) do not reach
them. Each is pinned to its own CPU of the parent's affinity set: a cpuset
with ``sched_load_balance`` 0 never moves a running task to another CPU,
so forked workers left alone can share the parent's CPU for the pool's
life (see ``_shared_pool``). The depth phase moves all seeds together,
scoring every candidate swap of every seed per iteration from packed row
and column sums and a move test on value positions alone, and drops a seed
once it swaps back and forth between two tableaux, counting the rest of
its descent (see ``_depth``). Sums run in the same order as the scalar
loops kept in tests/oracles.py, so results match them bit for bit.
``optimize`` computes h_flat, the entropy every score subtracts, once by
``qstate._entropy`` of the checked probabilities, and passes it to each phase.

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
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import ValidationError
from .qstate import MI_ROUNDOFF_TOL, BipartiteDims, _check_integers, _check_seed, _probability_vector
from .qstate import _entropy, _exact_mi, _sum_left, _xlogx  # the package's one exact entropy kernel
from .tableau import YoungTableau, count_regular, regular_grid_walk

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.util import Finalize

DEFAULT_EXHAUSTIVE_THRESHOLD = 10**7
# Draws sampled together, their uniforms streamed one value at a time and
# their grids built LEAF_BLOCK draws at a time. All n1 draws at once would
# hold every draw's cells in memory. One block of 8192 peaks at about 2.4 MiB
# of traced memory at (8, 8), 10.6 MiB at (16, 16) and 41.1 MiB at (32, 32):
# the peak grows with the cell count.
BREADTH_BLOCK = 8192
# Exhaustive leaves scored together. 4096 is 5-9% faster at (3,7) and (4,5),
# no faster at (2,15) and 20-58% slower at (4,4), (3,5) and (3,6), and
# breadth shares it.
LEAF_BLOCK = 2048
# Breadth draws, depth swaps and, on the float64 fallback, exhaustive leaves
# whose rough (_xlogx_rough on float64 sums) score is within this of the cut
# that matters get an exact score; the rough and exact scores differ by far
# less than 1e-12. The exhaustive filter on float32 sums uses twice
# _rough32_error instead.
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
        _check_integers(**vars(self))
        if min(self.n1, self.n2, self.n_d, self.parallelism) < 1:
            raise ValidationError("n1, n2, n_d and parallelism must be positive")
        if self.n1 > MAX_DRAWS:
            raise ValidationError(f"n1 ({self.n1}) must not exceed 2**32")
        if self.n2 > self.n1:
            raise ValidationError(f"n2 ({self.n2}) must not exceed n1 ({self.n1})")
        if self.exhaustive_threshold < 1:
            raise ValidationError("exhaustive_threshold must be >= 1")
        _check_seed(self.seed)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a search run.

    ``trajectory`` is the best-seen mutual information (non-increasing):
    the start's, then each strict record of exhaustive traversal (the first
    leaf is the start), or the best after each depth iteration, seed after
    seed. ``evaluations`` is 1 for the start plus the leaves scored (one per
    transpose pair on a square grid), or plus the n2 seeds and every valid
    depth swap, a cycled seed's rest counted from its 2-cycle; never the n1
    breadth draws. ``seed_provenance`` is the winning seed's rank among
    breadth's winners, None on the exhaustive route or when the start wins.
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


def _cpu_set() -> list[int] | None:
    """The sorted CPUs this process may run on, or None where the platform
    has no affinity set. A cpuset or taskset can make it smaller than
    ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return None


def usable_cpus() -> int | None:
    """How many CPUs ``_cpu_set`` holds, else ``os.cpu_count()``, which is
    None when unknown."""
    cpus = _cpu_set()
    return os.cpu_count() if cpus is None else len(cpus)


def worker_count(requested: int, tasks: int) -> int:
    """Worker processes worth starting for ``tasks`` independent tasks: no
    more than requested, than tasks, or than ``usable_cpus()`` (an unknown
    count counts as one), and at least one."""
    return max(1, min(requested, tasks, usable_cpus() or 1))


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


def _pin_worker(slots) -> None:
    """Pool initializer: run this worker on the next CPU in ``slots`` only.
    A CPU taken away since the pool started leaves the worker unpinned: an
    initializer that raises would break the pool."""
    with suppress(OSError):
        os.sched_setaffinity(0, {slots.get()})


def _shared_pool(jobs: int) -> ProcessPoolExecutor:
    """The pool of ``jobs`` workers, started on first use. One of another
    size is shut down first, so at most one is alive at a time.

    Worker k runs only on CPU ``cpus[k % len(cpus)]`` of this process's
    ``_cpu_set``, taken from a queue filled before the workers fork. Left
    to the kernel, forked workers can stay on the parent's CPU for the
    pool's life: a cpuset with ``sched_load_balance`` 0 never moves a
    running task to another CPU, and two workers then run at half speed
    each. Where the platform cannot set affinity, they are not pinned.
    """
    global _pool
    if _pool is not None and _pool[:2] == (os.getpid(), jobs):
        return _pool[2]
    # Imported on first use: a run with one job never loads them.
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import SimpleQueue
    from multiprocessing.util import Finalize

    _close_pool()
    cpus = _cpu_set() if hasattr(os, "sched_setaffinity") else None
    if cpus:
        slots = SimpleQueue()
        for k in range(jobs):
            slots.put(cpus[k % len(cpus)])
        pool = ProcessPoolExecutor(max_workers=jobs, initializer=_pin_worker, initargs=(slots,))
    else:
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
    own. That first call also imports ``concurrent.futures`` and
    ``multiprocessing``: a ``jobs`` of 1 never loads them. Its workers are
    forked when it starts, so later changes to module state here do not
    reach them, and each is pinned to its own CPU (``_shared_pool`` says
    why). A run that is closed, or left by an error, still finishes
    its window of at most 2 * jobs submitted tasks in the pool: the pool has
    already queued them all for its workers. A worker that dies raises
    ``BrokenProcessPool``, and the next call starts a new pool.
    """
    if jobs == 1:
        yield from map(fn, *iterables)
        return
    # Bound before the try, so the except clause always names a class.
    from concurrent.futures.process import BrokenProcessPool

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


def _xlogx_rough(x: np.ndarray) -> np.ndarray:
    """x log x through numpy's log in x's precision, with no mask: fast, but
    not always bitwise _xlogx. x is first raised to at least tiny, the
    smallest normal of its dtype, so from tiny up it is x * log(x) bit for
    bit, and below it is tiny * log(tiny): -1.6e-305 in float64, -1.0e-36 in
    float32, where _xlogx gives 0 or next to it. That covers the sums below 0
    of probabilities in [-ENTRY_TOL, 0), which the public entry points never
    hand the search but this still takes. The one numpy log in the package."""
    x = np.maximum(x, np.finfo(x.dtype).tiny)
    out = np.log(x)
    out *= x
    return out


def _rough_mi(sums: np.ndarray, h_flat: float) -> np.ndarray:
    """Rough mutual information from packed marginals sums[k, d_a + d_b],
    row sums then column sums, in their precision: x log x by
    ``_xlogx_rough``, the terms summed by one matmul, and the result in
    float64 less h_flat. From float64 sums it is within far less than 1e-12
    of the exact score, from float32 sums within ``_rough32_error``."""
    terms = _xlogx_rough(sums)
    return -(terms @ np.ones(sums.shape[-1], terms.dtype)).astype(np.float64, copy=False) - h_flat


def _rough32_error(k: int, n: int) -> float:
    """A bound on |_rough_mi - exact| on float32 sums, for k = d_a + d_b
    packed sums of n probabilities: u ((k + 11) ln n + 6), u = 2**-24 the
    float32 unit roundoff.

    Each sum s is a float64 prefix sum plus a float64 suffix sum. Casting
    both to float32 and adding them moves s by at most 3u s. numpy's
    float32 log is within 4 ULP (the ``ulperrortol`` of its own float32
    log tests), at most 8u |ln s|, and the moved argument adds 3u. Rounding
    the product adds u |s ln s|. So each term is off by at most
    12u s |ln s| + 3u s. Over the k terms, sum s |ln s| = H(r) + H(c) <= ln n
    and sum s = 2. The float32 sum of k terms, in any order, adds at most
    (k - 1) u times the sum of their magnitudes, (k - 1) u ln n (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1).
    The float64 steps (the exact score, h_flat, the casts) add under 1e-14.
    Probabilities in [-ENTRY_TOL, 0), never passed by the public entry
    points but covered, and sums below the float32 tiny move a term by under
    1e-11, the clamp's -1e-36 included. Measured on every leaf of 36 spectra
    at (3,5), (3,6), (4,4) and (2,12), the largest error was 12.5% of this
    bound."""
    return 2.0**-24 * ((k + 11) * math.log(n) + 6)


def _marginals(q: np.ndarray) -> np.ndarray:
    """Packed marginals of grids q[..., d_a, d_b], shape (..., d_a + d_b):
    the row sums, then the column sums, each summed in cell order."""
    return np.concatenate((_sum_left(q), _sum_left(np.swapaxes(q, -1, -2))), axis=-1)


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
    k = floor(u_v * count), which is below count (the proof is in the
    reference). Arrays are laid out draws-last, so every step works
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


def _block_mi(probs: np.ndarray, grids: np.ndarray, h_flat: float) -> np.ndarray:
    """``_exact_mi`` of each value grid. Values are 1-based, so they index
    ``[0, probs...]`` directly."""
    return _exact_mi(_marginals(np.concatenate(([0.0], probs))[grids]), grids.shape[-2], h_flat)


def _by_piece(score: Callable, p_ext: np.ndarray, cell: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """``score`` of the packed marginals over ``p_ext = [0, p...]`` of the
    draws (columns) of ``cell``, whose grids are built LEAF_BLOCK at a time."""
    return np.concatenate([
        score(_marginals(p_ext[_cell_grids(cell[:, k : k + LEAF_BLOCK], d_a, d_b)]))
        for k in range(0, cell.shape[1], LEAF_BLOCK)
    ])


def _min_before(scores: np.ndarray, floor: float) -> np.ndarray:
    """For each score, the minimum of ``floor`` and every score before it."""
    return np.minimum.accumulate(np.concatenate(([floor], scores)))[:-1]


_NO_LEAVES = np.empty(0, dtype=np.intp)


def _near_leaves(rough: np.ndarray, best: float, slack: float) -> np.ndarray:
    """Indices of the leaves of a block whose rough score is within
    ``slack`` of the minimum of ``best`` and the rough scores before it.
    Empty, after one reduction, when the block's rough minimum is more than
    ``slack`` above ``best``: most blocks, once a low minimum is found."""
    if rough.min() > best + slack:
        return _NO_LEAVES
    return np.flatnonzero(rough <= _min_before(rough, best) + slack)


def _joined(prefix_sums: np.ndarray, suffix_sums: np.ndarray, prefix, suffix) -> np.ndarray:
    """Packed marginals of a block's leaves: their prefixes' plus their
    suffixes'. take along axis 0 copies whole rows, faster than fancy
    indexing."""
    sums = prefix_sums.take(prefix, axis=0)
    sums += suffix_sums.take(suffix, axis=0)
    return sums


# What _exhaustive and _depth return: the best value grid, its mutual
# information, the evaluation count, the best-seen trajectory and the index of
# the depth seed that found the best grid (None for exhaustive traversal).
Outcome = tuple[np.ndarray, float, int, list[float], int | None]


def _exhaustive(p: np.ndarray, dims: BipartiteDims, h_flat: float) -> Outcome:
    """Globally minimal grid by full traversal; ties go to the first grid in
    enumeration order.

    For square grids only one representative per transpose pair is evaluated
    (transposition swaps the two marginals and leaves the mutual information
    unchanged), so the evaluation count is half the total count there.

    The leaves come from ``tableau.regular_grid_walk`` as a prefix and a
    suffix each, in blocks of at most LEAF_BLOCK, and each block is scored at
    once from factored marginals with numpy's log. The prefix fills the left
    part of each row and the top of each column, so a leaf's marginals are
    its prefix's plus its suffix's, with no leaf grid built. Both are packed
    as one row of d_a row sums then d_b column sums: the suffixes' once, from
    the store, and the prefixes' once per walk piece, each in float64 and in
    a float32 copy. A block then takes two packed rows per leaf and adds
    them. The sums are of ``p_ext[grid]``, where ``p_ext = [0, p...]``, so
    an empty cell adds exactly 0.

    Each block is first scored by ``_rough_mi`` on float32 sums, within
    delta = ``_rough32_error`` of the exact score. A leaf can set a new
    exact minimum only if its exact score is below the exact minimum so far
    and below the exact score of every leaf before it in its block, so only
    if its rough score is within 2 delta of the minimum of the exact minimum
    so far and the rough scores before it. A block with no such near leaf is
    passed over after one reduction. On a flat spectrum most leaves are
    near, so the first block whose float32 filter passes more than
    LEAF_BLOCK // 8 leaves is scored again by ``_rough_mi`` on the float64
    sums, within far less than 1e-12 of the exact score, under the same rule
    with SCORE_SLACK, and so is every later block. Only the near leaves are
    built as grids and scored exactly, with the marginals summed in cell
    order. Memory stays bounded (about 40 MB of process RSS at 2x15).
    """
    p_ext = np.concatenate(([0.0], p))
    store, pieces = regular_grid_walk(dims, LEAF_BLOCK)
    k = LEAF_BLOCK  # summed k grids at a time, as in _by_piece
    suffix_sums = np.concatenate([_marginals(p_ext[store[i : i + k]]) for i in range(0, len(store), k)])
    suffix32 = suffix_sums.astype(np.float32)
    slack32 = 2 * _rough32_error(dims.d_a + dims.d_b, dims.total)
    rough32 = True  # until a block's float32 filter passes more than k // 8 leaves
    best_mi = math.inf
    best_grid = None
    trajectory: list[float] = []
    evaluations = 0
    for prefixes, blocks in pieces:
        prefix_sums = _marginals(p_ext[prefixes])
        prefix32 = prefix_sums.astype(np.float32) if rough32 else None
        for prefix, suffix in blocks:
            evaluations += len(prefix)
            if rough32:
                rough = _rough_mi(_joined(prefix32, suffix32, prefix, suffix), h_flat)
                near = _near_leaves(rough, best_mi, slack32)
                rough32 = near.size <= k // 8
            if not rough32:
                rough = _rough_mi(_joined(prefix_sums, suffix_sums, prefix, suffix), h_flat)
                near = _near_leaves(rough, best_mi, SCORE_SLACK)
            if not near.size:
                continue
            grids = prefixes[prefix[near]] + store[suffix[near]]
            exact = _block_mi(p, grids, h_flat)
            records = np.flatnonzero(exact < _min_before(exact, best_mi))
            if records.size:
                trajectory += exact[records].tolist()
                best_mi = trajectory[-1]
                best_grid = grids[records[-1]]
    assert best_grid is not None
    return best_grid, best_mi, evaluations, trajectory, None


# (mi, draw index, draw), a draw being its cell sequence.
Candidate = tuple[float, int, np.ndarray]


def _distinct_best(ranked, keep: int) -> list[Candidate]:
    """The first ``keep`` candidates of ``ranked`` with distinct draws."""
    out: list[Candidate] = []
    seen: set[bytes] = set()
    for mi, idx, draw in ranked:
        key = draw.tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append((mi, idx, draw))
        if len(out) == keep:
            break
    return out


def _merge_best(parts, keep: int) -> list[Candidate]:
    """Best ``keep`` distinct candidates of several lists, by (mi, draw index)."""
    merged = sorted((c for part in parts for c in part), key=lambda c: (c[0], c[1]))
    return _distinct_best(merged, keep)


def _breadth_block(
    probs: np.ndarray, h_flat: float, d_a: int, d_b: int, seed: int, task: tuple[int, int], keep: int
) -> list[Candidate]:
    """Evaluate draws lo..hi-1 of ``task``, at most BREADTH_BLOCK of them,
    and reduce them to their best ``keep`` distinct draws, by (mi, draw index)."""
    lo, hi = task
    cell = _sample_block(d_a, d_b, seed, lo, hi)
    # As in the other phases, numpy's log scores every draw first. Rough and
    # exact scores differ by under 1e-14 and duplicate grids score alike, so
    # the rough score of the keep-th distinct grid is within that of the
    # exact one, and only draws within SCORE_SLACK of it can hold the block's
    # best keep grids; only those get an exact score. Draws are told apart
    # by their cell sequences, so a task builds grids only inside _by_piece,
    # one scoring piece at a time, and _breadth builds them for its winners.
    # No array of a piece is kept past its score: keeping its packed sums
    # to the next piece made 8x8 tasks 2-4% slower in one process and 6-12%
    # slower on two workers, as measured.
    p_ext = np.concatenate(([0.0], probs))
    rough = _by_piece(lambda sums: _rough_mi(sums, h_flat), p_ext, cell, d_a, d_b)
    ranked = ((float(rough[k]), k, cell[:, k]) for k in np.argsort(rough).tolist())
    firsts = _distinct_best(ranked, keep)
    cut = firsts[-1][0] if len(firsts) == keep else math.inf
    near = np.flatnonzero(rough <= cut + SCORE_SLACK)
    near_cell = cell[:, near]
    mi = _by_piece(lambda sums: _exact_mi(sums, d_a, h_flat), p_ext, near_cell, d_a, d_b)
    return _merge_best([zip(mi.tolist(), (lo + near).tolist(), near_cell.T)], keep)


def _breadth(
    p: np.ndarray, dims: BipartiteDims, config: SearchConfig, h_flat: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n1 random regular grids and keep the n2 distinct ones with the
    smallest mutual information, ascending by (mi, draw index): their exact
    scores, which ``_depth`` starts from, and their value grids.

    The draws are cut into ``breadth_tasks`` of at most one block, which
    ``run_tasks`` scores in this process or on a pool (the worker count
    chooses only which), and the parts are merged as they arrive. Draw i
    uses the RNG stream ``PCG64(SeedSequence((config.seed, i)))``, so the
    result is independent of how draws are split into tasks and workers.
    """
    jobs = worker_count(config.parallelism, config.n1)
    score = partial(_breadth_block, p, h_flat, dims.d_a, dims.d_b, config.seed, keep=config.n2)
    best: list[Candidate] = []
    for part in run_tasks(score, jobs, breadth_tasks(config.n1, jobs)):
        best = _merge_best([best, part], config.n2)
    mi, _idx, seqs = zip(*best)
    return np.array(mi), _cell_grids(np.stack(seqs, axis=1), dims.d_a, dims.d_b)


def _move_set(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based values u < w of the swaps ``_depth`` tries, in its move order."""
    return np.r_[1 : n - 1, 1 : n - 2], np.r_[2:n, 3:n]


def _depth(
    p: np.ndarray, dims: BipartiteDims, scores: np.ndarray, grids: np.ndarray, config: SearchConfig,
    h_flat: float,
) -> Outcome:
    """Iterated best-neighbour descent from each regular seed value grid of
    ``grids``, shape (seeds, d_a, d_b), whose exact scores are ``scores``.

    Each iteration moves to the neighbour with minimal mutual information,
    even when that is worse than the current grid (the move set never
    contains the current grid), and the globally best grid seen across all
    trajectories is returned. A single row or column has one regular
    filling, so its seeds return at once. On any other grid every regular
    filling T has a regular swap, (m-1, m) with m = max(T[0][1], T[1][0]):
    values 1..m-1 all lie in T's first row or all in its first column, so
    m-1 >= 2 and m share neither. So every seed moves until its 2-cycle.

    A trajectory that makes the same swap twice in a row is back on the grid
    it held two iterations before, and stops being computed there. That is
    exact: a swap undoes itself, and the move chosen from a grid depends on
    that grid alone (marginals are summed afresh, ties go to the first swap),
    so every later iteration repeats one of the last two, bit for bit. Their
    evaluations are counted from those two; they can set no new best, so
    their mutual information is never needed. In the paper's 8x8 protocol
    every seed measured entered such a 2-cycle, at iteration 36 to 160 of 200.

    All seeds descend together, one iteration at a time, each scoring every
    candidate swap at once from one array of its row and column sums. Each
    seed keeps its own record of scores and its best grid; the winner is the
    seed with the smallest best, the first on ties, and the trajectory one
    running minimum over the records seed after seed, as if each trajectory
    had run to its end before the next one started. Ties go to the first
    swap in move order: (v, v + 1) for v = 2..n-1, then (v, v + 2) for
    v = 2..n-2. A swap keeps a grid regular by where values sit: v and
    v + 1 of a regular grid share a row or column only as neighbours, so
    swapping them is regular exactly when they share neither, and v and
    v + 2 exactly when no two of v, v + 1 and v + 2 share a row or column.
    """
    n_seeds, n, d_a = len(grids), dims.total, dims.d_a
    if d_a == 1 or dims.d_b == 1:
        best_seed = int(np.argmin(scores))
        return grids[best_seed].copy(), float(scores[best_seed]), n_seeds, [], best_seed
    u, w = _move_set(n)  # swap k exchanges values u[k] + 1 and w[k] + 1
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
    active = np.arange(n_seeds)  # seed of each row of cells and place; cycled seeds leave

    best_mi = np.array(scores)  # per seed, updated on strict improvement
    best_grid = grids.copy()
    # Per seed, its start's score, then each step's; inf once it has cycled.
    record = np.full((n_seeds, config.n_d + 1), math.inf)
    record[:, 0] = scores
    last_choice = np.full(n_seeds, -1)  # per seed, the swap of the last iteration
    last_count = np.zeros(n_seeds, dtype=np.intp)  # and its count of valid swaps
    evaluations = n_seeds

    for t in range(config.n_d):
        if not active.size:
            break
        # Fresh sums each iteration keep float drift out of the deltas. An
        # add.accumulate adds left to right as _sum_left does, but on these small
        # arrays _sum_left made _depth 11-13% slower (median of 48 paired 8x8 runs).
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

        rows = np.arange(len(active))
        choice = cand.argmin(axis=1)
        chosen = cand[rows, choice]
        uu, ww = u[choice], w[choice]
        a, b = place[rows, uu], place[rows, ww]
        cells[rows, a[:, 0], a[:, 1]] = ww + 1
        cells[rows, b[:, 0], b[:, 1]] = uu + 1
        place[rows, uu], place[rows, ww] = b, a
        record[active, t + 1] = chosen

        better = chosen < best_mi[active]
        best_mi[active[better]] = chosen[better]
        best_grid[active[better]] = cells[better]

        # A seed that makes the swap of its last iteration again is back on
        # the grid it left two iterations ago. Its next move is a function of
        # that grid alone, so from here it alternates between the last two
        # iterations, bit for bit, and can set no new best: count its
        # remaining iterations, left at inf in its record, and drop it.
        cycled = choice == last_choice[active]
        left = config.n_d - 1 - t
        evaluations += int(((left + 1) // 2 * last_count[active[cycled]] + left // 2 * counts[cycled]).sum())
        last_choice[active], last_count[active] = choice, counts
        if cycled.any():
            cells, place, active = cells[~cycled], place[~cycled], active[~cycled]

    # Seed-major, as a strict < would see it seed by seed: no score is -0.0,
    # so ties have equal bits. Start positions leave the trajectory.
    trajectory = np.minimum.accumulate(record.ravel()).reshape(record.shape)[:, 1:].ravel().tolist()
    best_seed = int(best_mi.argmin())
    return best_grid[best_seed], float(best_mi[best_seed]), evaluations, trajectory, best_seed


def optimize(probs, dims: BipartiteDims, config: SearchConfig | None = None) -> OptimizationResult:
    """Route to exhaustive traversal or the two-phase heuristic by space size.

    The starting arrangement (row-major layout of the descending
    probabilities, which is already a decreasing matrix) always participates
    as a candidate, so the result is never worse than not encoding at all.
    """
    if config is None:
        config = SearchConfig()
    p = _probability_vector(probs, dims.total)
    h_flat = _entropy(p)
    start = np.arange(1, dims.total + 1).reshape(1, dims.d_a, dims.d_b)
    initial_mi = float(_block_mi(p, start, h_flat)[0])

    if count_regular(dims) <= config.exhaustive_threshold:
        method, outcome = "exhaustive", _exhaustive(p, dims, h_flat)
    else:
        method, outcome = "heuristic", _depth(p, dims, *_breadth(p, dims, config, h_flat), config, h_flat)
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
