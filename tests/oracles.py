"""Independent brute-force oracles used by the tests.

The brute-force ones deliberately avoid the library's enumeration/search code
paths: counts come from filtering every permutation of 1..n into the grid,
and minima from evaluating every arrangement. Entropies are recomputed
locally, and the gap of a suboptimal auxiliary state in the reconstruction
is composed from the library's public state functions. A steepest descent
of the mutual information over all unitaries checks that none beats the
best tableau encoder, and the paper's variational QAE baseline, a layered
circuit fitted on the exact gradient, makes the same check for a circuit
family. Then come the paper's canonicalization argument, as plain
functions on grids, and the scalar search references: the loop forms
of the enumeration (and the library walk's leaves joined into grids, to
compare with it, and the row-length walk its prefix shapes were once
found by), the exhaustive search, the breadth phase, the value-swap
move set and neighbourhood (with the one swap every filling of two or more
rows and columns has) and the depth phase, and the fixed-point certificate
(gap and map). A grid as cell tuples and sorted Dirichlet probabilities are shared
helpers. Then a ``random-dense`` instance as two whole-array expressions,
and last the state-file writer as one ``json.dumps`` of the whole
document, and the reader as one ``json.loads`` of it.
"""

import hashlib
import json
import math
from collections.abc import Iterator
from functools import lru_cache, reduce
from itertools import permutations
from pathlib import Path

import numpy as np

from qaeopt import (
    BipartiteDims,
    DensityMatrix,
    StateFileError,
    ValidationError,
    YoungTableau,
    apply_unitary,
    haar_unitary,
    mutual_information,
    partial_trace,
    relative_entropy,
)
from qaeopt.qstate import _probability_vector
from qaeopt.statefile import FORMAT_VERSION, StateFile, _float_array, _spectrum
from qaeopt.tableau import _random_regular_grid, regular_grid_walk

_CHUNK = 200_000


def _regular_mask(batch: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    grids = batch.reshape(-1, d_a, d_b)
    ok = np.ones(len(grids), dtype=bool)
    if d_b > 1:
        ok &= np.all(np.diff(grids, axis=2) > 0, axis=(1, 2))
    if d_a > 1:
        ok &= np.all(np.diff(grids, axis=1) > 0, axis=(1, 2))
    return ok


@lru_cache(maxsize=1)
def _all_permutations(n: int) -> np.ndarray:
    """Every permutation of 1..n once, as rows of a read-only int8 array,
    built by inserting k at each position of every permutation of 1..k-1.
    The last one built is kept (36 MB at n = 10) for shapes with the same n."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        longer = np.empty((k, len(perms), k), dtype=np.int8)
        for j in range(k):
            longer[j, :, :j] = perms[:, :j]
            longer[j, :, j] = k
            longer[j, :, j + 1 :] = perms[:, j:]
        perms = longer.reshape(-1, k)
    perms.setflags(write=False)
    return perms


def brute_force_count(d_a: int, d_b: int) -> int:
    """Count regular fillings by testing all (d_a*d_b)! permutations."""
    perms = _all_permutations(d_a * d_b)
    return sum(
        int(_regular_mask(perms[k : k + _CHUNK], d_a, d_b).sum()) for k in range(0, len(perms), _CHUNK)
    )


def brute_force_regular_set(d_a: int, d_b: int) -> set:
    """All regular fillings as cell tuples, filtered from every permutation."""
    perms = _all_permutations(d_a * d_b)
    kept = perms[_regular_mask(perms, d_a, d_b)].reshape(-1, d_a, d_b).tolist()
    return {tuple(map(tuple, grid)) for grid in kept}


def is_regular(cells) -> bool:
    """True iff every row and every column of a filling strictly increases."""
    grid = np.asarray(cells)
    return bool(_regular_mask(grid, *grid.shape)[0])


def row_major(dims: BipartiteDims) -> tuple[tuple[int, ...], ...]:
    """The identity filling: 1..n laid out row by row."""
    grid = np.arange(1, dims.total + 1).reshape(dims.d_a, dims.d_b)
    return tuple(map(tuple, grid.tolist()))


def cells(grid: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """A value grid array as the tuples of ``YoungTableau.cells``."""
    return tuple(map(tuple, grid.tolist()))


def descending_probs(n: int, seed: int) -> np.ndarray:
    """n probabilities drawn from a flat Dirichlet with ``seed``, sorted descending."""
    return np.sort(np.random.default_rng(seed).dirichlet(np.ones(n)))[::-1]


def positions(cells) -> tuple[tuple[int, int], ...]:
    """positions(cells)[v - 1] is the (row, column) holding value v."""
    grid = np.asarray(cells)
    rows, cols = np.divmod(np.argsort(grid.ravel()), grid.shape[1])
    return tuple(zip(rows.tolist(), cols.tolist()))


def cell_sequences(grids) -> np.ndarray:
    """cell_sequences(grids)[s, v - 1] is the flat cell holding value v in grid s."""
    return np.argsort(np.asarray(grids).reshape(len(grids), -1), axis=1)


def _entropy(v: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(v > 0, v * np.log(np.where(v > 0, v, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def grid_mutual_information(grid: np.ndarray) -> float:
    """Shannon mutual information of a joint probability grid (nats)."""
    g = np.asarray(grid, dtype=float)
    return float(_entropy(g.sum(axis=1)) + _entropy(g.sum(axis=0)) - _entropy(g.ravel()))


def dense_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma) of two full-rank states as Tr rho log rho - Tr rho log sigma,
    each matrix logarithm built densely as V diag(log q) V^dag."""

    def logm(m: np.ndarray) -> np.ndarray:
        q, v = np.linalg.eigh(m)
        return (v * np.log(q)) @ v.conj().T

    return float(np.trace(rho @ logm(rho)).real - np.trace(rho @ logm(sigma)).real)


def suboptimal_auxiliary_gap(sigma: DensityMatrix, u, dims: BipartiteDims, rho_a: DensityMatrix) -> float:
    """Excess divergence from reconstructing with an arbitrary auxiliary state.

    Returns S(sigma || U^dag (rho_a x sigma_b) U) minus the mutual information
    of the encoded state. Nonnegative up to round-off (Klein's inequality),
    zero exactly when rho_a is the encoded marginal of A, and infinite when
    rho_a lacks support the encoded state needs.
    """
    if rho_a.dim != dims.d_a:
        raise ValidationError(f"auxiliary state dimension {rho_a.dim} does not match d_a = {dims.d_a}")
    encoded = apply_unitary(sigma, u)
    sigma_b = partial_trace(encoded, dims, "B")
    u = np.asarray(u)
    candidate = DensityMatrix(u.conj().T @ np.kron(rho_a.matrix, sigma_b.matrix) @ u)
    rel = relative_entropy(sigma, candidate)
    return rel if math.isinf(rel) else rel - mutual_information(encoded, dims)


def _logm(h: np.ndarray) -> np.ndarray:
    """Matrix log of a positive definite Hermitian matrix."""
    w, v = np.linalg.eigh(h)
    return (v * np.log(w)) @ v.conj().T


def unitary_descent(sigma: DensityMatrix, dims: BipartiteDims, u, steps: int, eta: float = 0.3) -> np.ndarray:
    """Riemannian steepest descent of S(A:B) of U sigma U^dag over all
    unitaries U, from ``u``, in numpy only: each of ``steps`` steps is
    U <- exp(-eta [rho, L]) U, with rho = U sigma U^dag and
    L = log rho_A (x) I + I (x) log rho_B, the gradient of S(A) + S(B) at
    rho (S(AB) does not move). [rho, L] is anti-Hermitian, so the step's
    exponential is exp(i eta H) of the Hermitian H = i[rho, L], taken from
    its ``eigh``. Returns the last U. The marginals must stay full rank,
    as they do for a full-rank sigma."""
    mat = sigma.matrix
    u = np.array(u, dtype=complex)
    eye_a, eye_b = np.eye(dims.d_a), np.eye(dims.d_b)
    for _ in range(steps):
        rho = u @ mat @ u.conj().T
        blocks = rho.reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)
        rho_a = np.trace(blocks, axis1=1, axis2=3)
        rho_b = np.trace(blocks, axis1=0, axis2=2)
        log = np.kron(_logm(rho_a), eye_b) + np.kron(eye_a, _logm(rho_b))
        w, v = np.linalg.eigh(1j * (rho @ log - log @ rho))
        u = (v * np.exp(1j * eta * w)) @ v.conj().T @ u
    return u



# The variational quantum autoencoder the paper compares against: a
# hardware-efficient circuit on the qubits of both subsystems (qubit 0 the
# most significant bit of the row-major index), each layer Rz(a) Ry(b) Rz(c)
# on every qubit and then a CZ chain over neighbouring qubits.
_PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
_PAULI_Z = np.diag([1.0 + 0j, -1.0])


def _rz(t: np.ndarray) -> np.ndarray:
    out = np.zeros(t.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-0.5j * t)
    out[..., 1, 1] = np.exp(0.5j * t)
    return out


def _ry(t: np.ndarray) -> np.ndarray:
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(complex)


def _dag(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two stacks of matrices, one pair per row."""
    return np.einsum("sij,skl->sikjl", a, b).reshape(len(a), a.shape[1] * b.shape[1], -1)


def circuit_mi(sigma: DensityMatrix, dims: BipartiteDims, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(A:B) of U sigma U^dag for each circuit U of ``theta``, shape
    (circuits, layers, qubits, 3), and its exact gradient in theta. d_a and
    d_b are powers of two, d_a * d_b = 2**qubits.

    A rotation exp(-i t P / 2) moves U by dU/dt = X U, X = -i/2 W P W^dag
    for the gates W after it, and the MI by -Tr(dρ L) with
    L = log ρ_A (x) I + I (x) log ρ_B, so dMI/dt = -Tr(X [ρ, L]) =
    (i/2) Tr(P W^dag [ρ, L] W). Carried back one layer at a time, that is
    (i/2) Tr(G m_q) for the rotation's generator G carried to the end of
    its qubit's three rotations, and m_q the trace of the carried [ρ, L]
    onto that qubit. The marginals must be full rank.
    """
    circuits, layers, qubits, _ = theta.shape
    n = 2**qubits
    bits = (np.arange(n)[:, None] >> np.arange(qubits - 1, -1, -1)) & 1
    cz = np.prod(np.where(bits[:, :-1] & bits[:, 1:], -1.0, 1.0), axis=1)
    rz_c, ry_b = _rz(theta[..., 2]), _ry(theta[..., 1])
    single = rz_c @ ry_b @ _rz(theta[..., 0])
    u = np.broadcast_to(np.eye(n, dtype=complex), (circuits, n, n))
    layer_u = []
    for layer in range(layers):
        layer_u.append(reduce(_kron, [single[:, layer, q] for q in range(qubits)]))
        u = cz[:, None] * (layer_u[-1] @ u)
    rho = u @ sigma.matrix @ _dag(u)
    d_a, d_b = dims.d_a, dims.d_b
    blocks = rho.reshape(circuits, d_a, d_b, d_a, d_b)
    mi = -_entropy(sigma.probs)
    logs = []
    for marginal in (np.einsum("sabcb->sac", blocks), np.einsum("sabad->sbd", blocks)):
        w, v = np.linalg.eigh(marginal)
        mi = mi - (w * np.log(w)).sum(axis=-1)
        logs.append((v * np.log(w)[:, None, :]) @ _dag(v))
    eye_a, eye_b = (np.broadcast_to(np.eye(d), (circuits, d, d)) for d in (d_a, d_b))
    log = _kron(logs[0], eye_b) + _kron(eye_a, logs[1])
    m = rho @ log - log @ rho
    turn_b = rz_c @ ry_b
    generators = np.stack(
        [turn_b @ _PAULI_Z @ _dag(turn_b), rz_c @ _PAULI_Y @ _dag(rz_c), np.broadcast_to(_PAULI_Z, rz_c.shape)],
        axis=-3,
    )
    grad = np.empty(theta.shape)
    for layer in reversed(range(layers)):
        m = cz[:, None] * m * cz
        for q in range(qubits):
            split = m.reshape(circuits, 2**q, 2, n >> (q + 1), 2**q, 2, n >> (q + 1))
            m_q = np.einsum("sxayxby->sab", split)
            grad[:, layer, q] = (0.5j * np.einsum("skab,sba->sk", generators[:, layer, q], m_q)).real
        m = _dag(layer_u[layer]) @ m @ layer_u[layer]
    return mi, grad


def variational_qae(sigma: DensityMatrix, dims: BipartiteDims, layers: int, starts: int, seed: int,
                    steps: int = 150, rate: float = 0.1) -> float:
    """The lowest S(A:B) that the variational QAE circuit of ``layers``
    layers reaches from ``starts`` uniform random angle sets: Adam on the
    exact gradient of ``circuit_mi``, all starts at once, the best value
    seen over ``steps`` steps. Against scipy's L-BFGS run to convergence
    from the same starts, 150 steps ended at most 0.007 nats above it, and
    below it once, on random-dense and fig2a states of seeds 1000-1002 at
    (4,4) with 1, 2 and 4 layers."""
    qubits = round(math.log2(dims.total))
    theta = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, (starts, layers, qubits, 3))
    first, second = np.zeros_like(theta), np.zeros_like(theta)
    best = math.inf
    for t in range(1, steps + 1):
        mi, grad = circuit_mi(sigma, dims, theta)
        best = min(best, float(mi.min()))
        first = 0.9 * first + 0.1 * grad
        second = 0.999 * second + 0.001 * grad**2
        theta = theta - rate * (first / (1 - 0.9**t)) / (np.sqrt(second / (1 - 0.999**t)) + 1e-8)
    return min(best, float(circuit_mi(sigma, dims, theta)[0].min()))

def brute_force_best(probs, d_a: int, d_b: int) -> tuple[float, list[list[int]]]:
    """Minimum mutual information over all (d_a*d_b)! grid arrangements of
    the descending ``probs``, and the value grid of the first arrangement
    that reaches it (value v holds probs[v - 1])."""
    p = np.asarray(probs, dtype=float)
    n = p.size
    order = np.array(list(permutations(range(n))), dtype=np.intp)
    grids = p[order].reshape(-1, d_a, d_b)
    mis = (
        _entropy(grids.sum(axis=2))
        + _entropy(grids.sum(axis=1))
        - _entropy(grids.reshape(len(grids), -1))
    )
    best = int(mis.argmin())
    return float(mis[best]), (order[best] + 1).reshape(d_a, d_b).tolist()


def brute_force_min_mi(probs, d_a: int, d_b: int) -> float:
    """Minimum mutual information over all (d_a*d_b)! grid arrangements."""
    return brute_force_best(probs, d_a, d_b)[0]


# The paper's canonicalization argument: sorting every column, then every
# row, turns any probability grid into a decreasing matrix, and no pass raises
# the mutual information. A mapping is an int array: mapping[k] is the flat
# (row-major) cell that the entry of flat cell k moves to.


def is_decreasing(grid) -> bool:
    """True iff every row and every column is non-increasing."""
    g = np.asarray(grid)
    return bool(np.all(np.diff(g, axis=1) <= 0.0) and np.all(np.diff(g, axis=0) <= 0.0))


def sort_along(grid, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable-sort each column (axis 0) or each row (axis 1) of a grid into
    non-increasing order: (mapping, sorted grid)."""
    g = np.asarray(grid, dtype=float)
    order = np.argsort(-g, axis=axis, kind="stable")
    cells = np.arange(g.size).reshape(g.shape)
    mapping = np.empty(g.size, dtype=np.intp)
    mapping[np.take_along_axis(cells, order, axis=axis)] = cells
    return mapping, np.take_along_axis(g, order, axis=axis)


def canonicalize(grid) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Sort the columns, then the rows, stopping once the grid is decreasing.

    Returns the column-sort mapping, the row-sort mapping (applied after the
    first), the decreasing grid, and the pass count: sorting passes that
    changed the grid plus the final check, so 1 for a decreasing input and
    at most 3.
    """
    g = np.asarray(grid, dtype=float)
    column_map = row_map = identity = np.arange(g.size)
    passes = 1
    if not is_decreasing(g):
        column_map, g = sort_along(g, 0)
        passes += not np.array_equal(column_map, identity)
        if not is_decreasing(g):
            row_map, g = sort_along(g, 1)
            passes += not np.array_equal(row_map, identity)
    return column_map, row_map, g, passes


# Scalar references for the array code in qaeopt.search. They keep the
# per-draw / per-swap loops the search used to run, with every sum taken left
# to right, so the array versions must reproduce them bit for bit. Sums are
# explicit loops rather than the builtin sum(), which is compensated from
# Python 3.12 on.


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def _sum_left(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def flat_entropy(pr) -> float:
    """Entropy of the probabilities themselves: the h_flat every score subtracts."""
    return -_sum_left(map(_xlogx, pr))


def grid_mi(pr, grid, d_b: int, h_flat: float) -> float:
    """Mutual information of a value grid over descending probabilities pr."""
    cols = [0.0] * d_b
    h_rows = 0.0
    for row in grid:
        row_sum = 0.0
        for j, v in enumerate(row):
            q = pr[v - 1]
            row_sum += q
            cols[j] += q
        h_rows -= _xlogx(row_sum)
    h_cols = -_sum_left(map(_xlogx, cols))
    return h_rows + h_cols - h_flat


def _marginal_sums(pr, grid) -> tuple[list[float], list[float]]:
    """Row and column sums of pr arranged on a value grid, in grid_mi's order."""
    rows, cols = [], [0.0] * len(grid[0])
    for row in grid:
        row_sum = 0.0
        for j, v in enumerate(row):
            row_sum += pr[v - 1]
            cols[j] += pr[v - 1]
        rows.append(row_sum)
    return rows, cols


def fixed_point_gap(p, grid) -> float:
    """gap(T) for the value grid T: G(T; r, c) = -sum_v p_v log(r_row(v) c_col(v)),
    with r and c the row and column sums of p arranged on T, less the least
    value of that cost over all arrangements, the sorted pairing of p
    (descending) with the costs -log r_i - log c_j (ascending).

    G(T; r, c) is MI(T) + H(p), and by Gibbs' inequality MI(T') + H(p) is at
    most the sorted pairing for T' the rank grid of r (x) c
    (``marginal_rank_grid``), so MI(T') <= MI(T) - gap(T), and gap(T) >= 0
    with 0 at every optimum over all arrangements. A zero probability adds 0
    whatever its cost, so a cell in a zero row or column (cost infinity)
    adds nothing either."""
    pr = [float(x) for x in p]
    rows, cols = _marginal_sums(pr, grid)
    cost = [
        [-math.log(r) - math.log(c) if r > 0.0 and c > 0.0 else math.inf for c in cols]
        for r in rows
    ]
    arranged = _sum_left(
        pr[v - 1] * cost[i][j]
        for i, row in enumerate(grid)
        for j, v in enumerate(row)
        if pr[v - 1] > 0.0
    )
    costs = sorted(k for row in cost for k in row)
    paired = _sum_left(q * k for q, k in zip(sorted(pr, reverse=True), costs) if q > 0.0)
    return arranged - paired


def marginal_rank_grid(p, grid) -> list[list[int]]:
    """The fixed-point map: the value grid ranking the cells of T by the outer
    product of its marginals r (x) c, largest first, ties in row-major order."""
    rows, cols = _marginal_sums([float(x) for x in p], grid)
    outer = [r * c for r in rows for c in cols]
    order = sorted(range(len(outer)), key=lambda k: -outer[k])  # sorted is stable
    ranks = [0] * len(outer)
    for value, k in enumerate(order, 1):
        ranks[k] = value
    return [ranks[i * len(cols) : (i + 1) * len(cols)] for i in range(len(rows))]


def scalar_enumerate(dims: BipartiteDims, exploit_symmetry: bool = False):
    """Recursive depth-first enumeration of regular fillings as cell tuples:
    value v tries rows top to bottom, and with exploit_symmetry a square grid
    pins value 2 to cell (0, 1)."""
    d_a, d_b, n = dims.d_a, dims.d_b, dims.total
    grid = [[0] * d_b for _ in range(d_a)]
    row_len = [0] * d_a
    start = 1
    if exploit_symmetry and d_a == d_b and n > 1:
        grid[0][0], grid[0][1] = 1, 2
        row_len[0] = 2
        start = 3

    def fill(v):
        if v > n:
            yield tuple(tuple(r) for r in grid)
            return
        for i in range(d_a):
            length = row_len[i]
            if length < d_b and (i == 0 or row_len[i - 1] > length):
                grid[i][length] = v
                row_len[i] = length + 1
                yield from fill(v + 1)
                row_len[i] = length
                grid[i][length] = 0

    yield from fill(start)


def walk_grids(dims: BipartiteDims, block: int):
    """The value grids of ``regular_grid_walk``'s leaves, one array per
    block: each leaf its prefix plus its suffix."""
    store, pieces = regular_grid_walk(dims, block)
    for prefixes, blocks in pieces:
        for prefix, suffix in blocks:
            yield prefixes[prefix] + store[suffix]


def walk_shapes(dims: BipartiteDims, t: int, pinned: bool) -> np.ndarray:
    """The prefix shapes ``tableau._prefix_shapes`` lists, found as the
    library once found them: a level-by-level walk over row lengths alone,
    from the empty shape or, pinned, from a first row of 2, to n - t cells,
    each level's duplicates dropped by np.unique over rows as bytes; then
    sorted by the same shape code."""
    d_a, d_b, n = dims.d_a, dims.d_b, dims.total
    shapes = np.zeros((1, d_a + 1), dtype=np.min_scalar_type(d_b))
    shapes[0, 0] = d_b  # a full sentinel row above row 0
    if pinned:
        shapes[0, 1] = 2
    for _ in range(3 if pinned else 1, n + 1 - t):
        parent, row = np.nonzero(shapes[:, :-1] > shapes[:, 1:])
        shapes = shapes[parent]
        shapes[np.arange(len(parent)), row + 1] += 1
        shapes = shapes[np.unique(shapes.view(f"V{shapes[0].nbytes}"), return_index=True)[1]]
    top, bottom = max(0, d_a - t), min(d_a, n - t)
    weights = (min(d_b, t) + 1) ** np.arange(bottom - top, dtype=np.int64)
    return shapes[np.argsort(shapes[:, 1 + top : 1 + bottom] @ weights)]


def scalar_exhaustive(probs, dims: BipartiteDims) -> dict:
    """Leaf-by-leaf exhaustive search over scalar_enumerate (one representative
    per transpose pair on square grids) keeping the first strict minimum; the
    fields of search._exhaustive's outcome it should equal."""
    p = np.asarray(probs, dtype=float)
    pr = [float(x) for x in p]
    h_flat = flat_entropy(pr)
    best_mi, best_cells = math.inf, None
    trajectory, evaluations = [], 0
    for cells in scalar_enumerate(dims, exploit_symmetry=dims.d_a == dims.d_b):
        mi = grid_mi(pr, cells, dims.d_b, h_flat)
        evaluations += 1
        if mi < best_mi:
            best_mi, best_cells = mi, cells
            trajectory.append(mi)
    return {
        "best_cells": best_cells,
        "best_mi": best_mi,
        "evaluations": evaluations,
        "trajectory": tuple(trajectory),
    }


def scalar_breadth(probs, dims: BipartiteDims, seed: int, n1: int, n2: int):
    """Draw-by-draw breadth phase: [(cells, mi)] of the n2 best distinct draws,
    ranked by (mi, draw index)."""
    p = np.asarray(probs, dtype=float)
    pr = [float(x) for x in p]
    h_flat = flat_entropy(pr)
    entries = []
    for i in range(n1):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        grid = _random_regular_grid(dims.d_a, dims.d_b, rng)
        entries.append((grid_mi(pr, grid, dims.d_b, h_flat), i, tuple(map(tuple, grid))))
    entries.sort(key=lambda e: (e[0], e[1]))
    out, seen = [], set()
    for mi, _, cells in entries:
        if cells not in seen:
            seen.add(cells)
            out.append((cells, mi))
            if len(out) == n2:
                break
    return out


# The value-swap neighbourhood as tuples, checking the four order constraints
# a swap can break: the reference for the move test of search._depth, which
# reads which swaps keep a grid regular from the positions of values alone.
# The move set is defined here on its own; _depth builds its arrays itself.


def candidate_swaps(n: int) -> Iterator[tuple[int, int]]:
    """Move set for the neighbourhood: (i, i+1) for i in 2..n-1, then (i, i+2)
    for i in 2..n-2, in that order."""
    yield from ((i, i + 1) for i in range(2, n))
    yield from ((i, i + 2) for i in range(2, n - 1))


def _swap_keeps_regular(
    cells: tuple[tuple[int, ...], ...],
    a: tuple[int, int],
    b: tuple[int, int],
    u: int,
    w: int,
    d_a: int,
    d_b: int,
) -> bool:
    # Swapping values u < w at cells a and b of a regular filling. Same-row or
    # same-column swaps always break monotonicity; otherwise only the four
    # order constraints that involve the new values can fail.
    r1, c1 = a
    r2, c2 = b
    if r1 == r2 or c1 == c2:
        return False
    if c1 + 1 < d_b and cells[r1][c1 + 1] < w:
        return False
    if r1 + 1 < d_a and cells[r1 + 1][c1] < w:
        return False
    if c2 > 0 and cells[r2][c2 - 1] > u:
        return False
    if r2 > 0 and cells[r2 - 1][c2] > u:
        return False
    return True


def neighbors(t: YoungTableau) -> tuple[YoungTableau, ...]:
    """Regular fillings reachable by one value swap, in deterministic move order."""
    d_a, d_b = t.dims.d_a, t.dims.d_b
    pos = positions(t.cells)
    out: list[YoungTableau] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for u, w in candidate_swaps(t.dims.total):
        a, b = pos[u - 1], pos[w - 1]
        if not _swap_keeps_regular(t.cells, a, b, u, w, d_a, d_b):
            continue
        grid = [list(row) for row in t.cells]
        grid[a[0]][a[1]], grid[b[0]][b[1]] = grid[b[0]][b[1]], grid[a[0]][a[1]]
        cells = tuple(tuple(row) for row in grid)
        if cells in seen:
            continue
        seen.add(cells)
        out.append(YoungTableau(t.dims, cells))
    return tuple(out)


def witness_swap(cells) -> tuple[int, int]:
    """The swap (m - 1, m), m = max(cells[0][1], cells[1][0]), that keeps a
    regular filling of two or more rows and columns regular: values
    1..m - 1 all lie in its first row or all in its first column."""
    m = max(cells[0][1], cells[1][0])
    return m - 1, m


def scalar_depth(probs, dims: BipartiteDims, seeds, n_d: int) -> dict:
    """Seed-by-seed, swap-by-swap best-neighbour descent with best-seen
    tracking; the fields of search._depth's outcome it should equal, and
    under "choices" the (u, w) swap of each iteration, one tuple per seed."""
    p = np.asarray(probs, dtype=float)
    d_a, d_b, n = dims.d_a, dims.d_b, dims.total
    pr = [float(x) for x in p]
    h_flat = flat_entropy(pr)
    swaps = tuple(candidate_swaps(n))
    best_mi, best_cells, best_seed = math.inf, None, 0
    trajectory, evaluations, choices = [], 0, []
    for si, seed_t in enumerate(seeds):
        taken = []
        choices.append(taken)
        cells = [list(row) for row in seed_t.cells]
        pos = list(positions(seed_t.cells))
        current_mi = grid_mi(pr, seed_t.cells, d_b, h_flat)
        evaluations += 1
        if current_mi < best_mi:
            best_mi, best_cells, best_seed = current_mi, seed_t.cells, si
        for _ in range(n_d):
            rows, cols = [0.0] * d_a, [0.0] * d_b
            for i, row in enumerate(cells):
                for j, v in enumerate(row):
                    rows[i] += pr[v - 1]
                    cols[j] += pr[v - 1]
            h_rows = -_sum_left(map(_xlogx, rows))
            h_cols = -_sum_left(map(_xlogx, cols))
            chosen_mi, chosen = math.inf, None
            for u, w in swaps:
                a, b = pos[u - 1], pos[w - 1]
                if not _swap_keeps_regular(cells, a, b, u, w, d_a, d_b):
                    continue
                delta = pr[w - 1] - pr[u - 1]
                (r1, c1), (r2, c2) = a, b
                nh_rows = (
                    h_rows + _xlogx(rows[r1]) + _xlogx(rows[r2])
                    - _xlogx(rows[r1] + delta) - _xlogx(rows[r2] - delta)
                )
                nh_cols = (
                    h_cols + _xlogx(cols[c1]) + _xlogx(cols[c2])
                    - _xlogx(cols[c1] + delta) - _xlogx(cols[c2] - delta)
                )
                cand = nh_rows + nh_cols - h_flat
                evaluations += 1
                if cand < chosen_mi:
                    chosen_mi, chosen = cand, (a, b)
            if chosen is None:
                break
            (r1, c1), (r2, c2) = chosen
            u, w = cells[r1][c1], cells[r2][c2]
            cells[r1][c1], cells[r2][c2] = w, u
            pos[u - 1], pos[w - 1] = (r2, c2), (r1, c1)
            taken.append((u, w))
            if chosen_mi < best_mi:
                best_mi, best_cells, best_seed = chosen_mi, tuple(map(tuple, cells)), si
            trajectory.append(best_mi)
    return {
        "best_cells": best_cells,
        "best_mi": best_mi,
        "evaluations": evaluations,
        "trajectory": tuple(trajectory),
        "seed_provenance": best_seed,
        "choices": tuple(map(tuple, choices)),
    }


def dense_instance(dims: BipartiteDims, seed) -> DensityMatrix:
    """``generate_instance("random-dense", dims, seed)`` as two expressions
    that keep every full-size temporary alive: the reference for the
    builder, which symmetrizes in place. ``seed`` is an int, a
    ``SeedSequence`` or a ``Generator``, which is used unchanged."""
    rng = np.random.default_rng(seed)
    diag = rng.dirichlet(np.ones(dims.total))
    u = haar_unitary(dims.total, rng)
    mat = (u * diag) @ u.conj().T
    return DensityMatrix((mat + mat.conj().T) / 2)


def json_statefile_text(dims: BipartiteDims, matrix=None, spectrum=None, label=None) -> str:
    """The text of a version-1 state file, built as a [re, im] list per
    matrix entry and encoded by one ``json.dumps(doc, indent=1)``: the slow
    reference for ``save_statefile``, which streams the matrix by rows."""
    doc: dict = {"format_version": 1, "d_a": dims.d_a, "d_b": dims.d_b}
    if label is not None:
        doc["label"] = label
    if matrix is not None:
        m = np.asarray(matrix, dtype=complex)
        doc["matrix"] = [[[float(v.real), float(v.imag)] for v in row] for row in m]
    else:
        doc["spectrum"] = [float(x) for x in np.asarray(spectrum, dtype=float)]
    return json.dumps(doc, indent=1) + "\n"


def json_load_statefile(path) -> StateFile:
    """``load_statefile`` as one ``json.loads`` of the whole document and one
    ``_float_array`` per row of the nested matrix: the slow reference for the
    loader, which reads the file once and the matrix row by row. Same checks
    in the same order, same messages."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StateFileError(f"state file {path} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"state file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise StateFileError(f"state file {path} nests its JSON too deeply") from exc
    except ValueError as exc:
        raise StateFileError(f"state file {path} holds an integer too long to read: {exc}") from exc
    if not isinstance(data, dict):
        raise StateFileError("state file must be a JSON object")
    version = data.get("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise StateFileError(f"unsupported format_version {version!r}")
    try:
        dims = BipartiteDims(data.get("d_a"), data.get("d_b"))
    except ValidationError as exc:
        raise StateFileError(f"bad or missing d_a/d_b: {exc}") from exc
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise StateFileError("label must be a string")
    if ("matrix" in data) == ("spectrum" in data):
        raise StateFileError("state file must carry exactly one of 'matrix' or 'spectrum'")
    density = None
    if "matrix" in data:
        n = dims.total
        rows = data["matrix"]
        # A wrong number of rows is the fault; else the first row that is
        # not n [number, number] pairs is.
        if type(rows) is not list or len(rows) != n:
            raise StateFileError(f"matrix is not a numeric array of shape {(n, n, 2)}")
        mat = np.stack([_float_array(row, "matrix", (n, 2), (n,)) for row in rows]).view(complex)[..., 0]
        try:
            density = DensityMatrix(mat)
            _probability_vector(density.probs, n)
        except ValidationError as exc:
            raise StateFileError(f"matrix is not a valid density matrix: {exc}") from exc
        probs = density.probs
    else:
        probs = _spectrum(data["spectrum"], dims.total)
    return StateFile(dims=dims, probs=probs, density=density, label=label, digest=digest)
