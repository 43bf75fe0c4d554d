"""Density matrices on a bipartite Hilbert space and their entropic quantities.

All entropies are returned in nats (natural logarithm). Callers that want bits
should divide by ``math.log(2)``; the CLI does this behind its ``--bits`` flag.

Every exact entropy here and in the search sums ``_xlogx`` terms (x log x by
the C library's log) left to right; with the relative entropy's cross term on
that log too, nothing depends on numpy's SIMD log, whose last bit varies by CPU.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError

# Tolerances: the one table that every input boundary checks against.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNITARITY_TOL = 1e-10
# Eigenvalues of the second argument of the relative entropy below this are
# treated as outside the support; first-argument weight above the weight
# tolerance on such an eigenvector makes the divergence infinite.
SUPPORT_TOL = 1e-12
SUPPORT_WEIGHT_TOL = 1e-10
# Mutual information or relative entropy in (-MI_ROUNDOFF_TOL, 0) is round-off.
MI_ROUNDOFF_TOL = 1e-9
# A probability in [-ENTRY_TOL, 0) is round-off of a zero, as eigh leaves it.
ENTRY_TOL = 1e-12
# Probabilities sum to 1 within the trace tolerance of the state they came from.
SUM_TOL = TRACE_TOL
# A descending vector may rise this much between neighbours: sorting round-off.
MONOTONE_SLACK = 1e-12
# A spectrum file is renormalized within this of 1: decimals written by hand.
SPECTRUM_SUM_TOL = 1e-8
# Largest d_a*d_b accepted: count_regular's factorial(n) takes about 0.13 s on
# one x86-64 core at n = 2**14, and grows faster than n**2 beyond it.
MAX_COUNT_CELLS = 2**14


def _check_integers(**values) -> None:
    """Each value is an integer and not a bool: a float size or seed would
    otherwise pass the range checks and fail deep in a search."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_seed(seed) -> None:
    """An int seed is an integer, not a bool, and nonnegative."""
    _check_integers(seed=seed)
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")


def _rng(seed):
    """``default_rng(seed)``; a seed that is no numpy SeedSequence or Generator is checked."""
    if not isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        _check_seed(seed)
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class BipartiteDims:
    """Dimensions (d_a, d_b) of a bipartite space: A (d_a) is the discarded
    subsystem, B (d_b) the retained one."""

    d_a: int
    d_b: int

    def __post_init__(self) -> None:
        _check_integers(d_a=self.d_a, d_b=self.d_b)
        if self.d_a < 1 or self.d_b < 1:
            raise ValidationError(f"subsystem dimensions must be positive, got {self}")
        if self.total > MAX_COUNT_CELLS:
            raise ValidationError(
                f"a grid of {self.total} cells exceeds the supported maximum of {MAX_COUNT_CELLS}"
            )

    @property
    def total(self) -> int:
        return self.d_a * self.d_b

    def check_dim(self, dim: int) -> None:
        if dim != self.total:
            raise ValidationError(
                f"state dimension {dim} does not equal d_a*d_b = {self.total}"
            )


class DensityMatrix:
    """Immutable complex square matrix that is Hermitian, with unit trace and
    nonnegative spectrum (within tolerance).

    The backing array is copied at construction and marked read-only, so
    instances are safe to share across threads. The one ``eigh`` of the
    positive-semidefinite check is kept, sorted once: ``probs`` holds the
    eigenvalues descending, clipped at 0 and through ``_probability_vector``,
    which rejects a sum off 1 by more than SUM_TOL; row alpha of ``vectors``
    is the eigenvector of ``probs[alpha]``. Both are read-only. Ties keep the
    eigensolver's order (stable sort), so arrangements are deterministic.
    """

    def __init__(self, entries) -> None:
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
        if mat.shape[0] < 1:
            raise ValidationError("matrix dimension must be positive")
        if not np.isfinite(mat).all():
            raise ValidationError("matrix holds non-finite entries (NaN or infinity)")
        asym = np.abs(mat - mat.conj().T).max()
        if asym > HERMITICITY_TOL:
            raise ValidationError(
                f"matrix is not Hermitian: max |M - M^dag| = {asym:.3e} > {HERMITICITY_TOL}"
            )
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace must be 1 within {TRACE_TOL}, got {tr}")
        vals, vecs = np.linalg.eigh(mat)
        lo = vals.min()
        if lo < -PSD_TOL:
            raise ValidationError(
                f"matrix is not positive semidefinite: min eigenvalue {lo:.3e}"
            )
        order = np.argsort(-vals, kind="stable")
        vectors = vecs.T[order]
        for a in (mat, vectors):
            a.setflags(write=False)
        self._mat = mat
        self.probs = _probability_vector(np.clip(vals[order], 0.0, None), len(vals))
        self.vectors = vectors

    @property
    def matrix(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


def _probability_vector(probs, n: int) -> np.ndarray:
    """The check every probability vector passes where it enters the package,
    and the one place one is clipped. ``probs`` must be 1-D of length n,
    finite, at least -ENTRY_TOL and sum to 1 within SUM_TOL. Entries in
    [-ENTRY_TOL, 0) are round-off of a zero: they become 0, and the vector is
    divided by its new sum. The result, non-increasing within MONOTONE_SLACK,
    comes back as a read-only float copy that passes this check again with
    the same bytes; so does a vector with no negative entry (-0.0 is none)."""
    p = np.array(probs, dtype=float)
    if p.ndim != 1 or p.size != n:
        raise ValidationError(f"expected {n} probabilities, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValidationError("probabilities hold non-finite values (NaN or infinity)")
    lo = p.min(initial=0.0)  # an empty vector fails the sum test below
    if lo < -ENTRY_TOL:
        raise ValidationError(f"negative probability beyond tolerance: {lo:.3e}")
    total = p.sum()
    if abs(total - 1.0) > SUM_TOL:
        raise ValidationError(f"probabilities must sum to 1 within {SUM_TOL}, got {total}")
    if lo < 0.0:
        np.maximum(p, 0.0, out=p)
        p /= p.sum()
    if np.any(np.diff(p) > MONOTONE_SLACK):
        raise ValidationError("probabilities must be sorted non-increasing")
    p.setflags(write=False)
    return p


_log = np.frompyfunc(math.log, 1, 1)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """Elementwise x log x with 0 log 0 = 0, by the C library's log."""
    out = np.zeros_like(x)
    pos = x > 0.0
    xp = x[pos]
    out[pos] = xp * _log(xp).astype(float)
    return out


def _sum_left(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly left to right (numpy's pairwise
    reduction rounds differently)."""
    total = np.zeros(terms.shape[:-1])
    for k in range(terms.shape[-1]):
        total += terms[..., k]
    return total


def _exact_mi(sums: np.ndarray, d_a: int, h_flat: float) -> np.ndarray:
    """Mutual information of packed marginals sums[..., d_a + d_b] by the C
    library's log. 0.0 minus each left-to-right entropy sum is bit for bit
    the scalar loops' running subtraction, and never -0.0."""
    x = _xlogx(sums)
    return 0.0 - _sum_left(x[..., :d_a]) - _sum_left(x[..., d_a:]) - h_flat


def _entropy(p: np.ndarray) -> float:
    """The exact entropy kernel, in nats, of a vector ``_probability_vector``
    returned, so one with a positive entry and no infinity: ``_xlogx`` of its
    positive entries summed left to right in one C loop, bit for bit
    ``-_sum_left(_xlogx(p))`` (no term is -0.0). A pure spectrum gives -0.0."""
    return float(-np.add.accumulate(_xlogx(p[p > 0.0]))[-1])


def shannon_entropy(probs) -> float:
    """Shannon entropy in nats, 0 log 0 = 0. ``probs``, raveled and sorted
    descending, passes ``_probability_vector``: this accepts and rejects
    exactly what ``optimize`` does, in any order and with its messages."""
    p = np.sort(np.asarray(probs, dtype=float).ravel())[::-1]
    return _entropy(_probability_vector(p, p.size))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -Tr(rho log rho), in nats, from the eigenvalues ``rho`` keeps."""
    return _entropy(rho.probs)


# Each private ``_name`` below is the array body of the public ``name``: it
# takes and returns plain arrays and builds no ``DensityMatrix``.


def _partial_traces(mat: np.ndarray, dims: BipartiteDims) -> tuple[np.ndarray, np.ndarray]:
    """Reduced matrices (A, B) of a d_a*d_b square matrix."""
    blocks = mat.reshape(dims.d_a, dims.d_b, dims.d_a, dims.d_b)
    return np.trace(blocks, axis1=1, axis2=3), np.trace(blocks, axis1=0, axis2=2)


def partial_trace(rho: DensityMatrix, dims: BipartiteDims, keep: str) -> DensityMatrix:
    """Reduced state of subsystem ``keep`` ("A" or "B") of a bipartite density matrix."""
    dims.check_dim(rho.dim)
    if keep not in ("A", "B"):
        raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")
    rho_a, rho_b = _partial_traces(rho.matrix, dims)
    return DensityMatrix(rho_a if keep == "A" else rho_b)


def _relative_entropy(rho: np.ndarray, s_rho: float, sigma: np.ndarray) -> float:
    """S(rho || sigma) of two arrays, given the entropy ``s_rho`` of rho."""
    q, v = np.linalg.eigh(sigma)
    # Weight of rho on each eigenvector of sigma.
    w = (v.conj() * (rho @ v)).sum(axis=0).real
    outside = q < SUPPORT_TOL
    if np.any(w[outside] > SUPPORT_WEIGHT_TOL):
        return math.inf
    return -s_rho - float((w[~outside] * _log(q[~outside]).astype(float)).sum())


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy S(rho || sigma) = Tr rho log rho - Tr rho log sigma, in nats.

    Returns ``math.inf`` when rho has weight above SUPPORT_WEIGHT_TOL on an
    eigenvector of sigma whose eigenvalue is below SUPPORT_TOL (support of rho
    not contained in support of sigma). Always >= -MI_ROUNDOFF_TOL
    (Klein's inequality); exactly 0 when rho equals sigma.
    """
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: rho is {rho.dim}, sigma is {sigma.dim}")
    return _relative_entropy(rho.matrix, von_neumann_entropy(rho), sigma.matrix)


def _mutual_information(rho_a: np.ndarray, rho_b: np.ndarray, s_ab: float) -> float:
    """S(A) + S(B) - S(AB): ``_exact_mi`` of the spectra of two partial traces,
    packed A then B, where a slightly negative eigenvalue counts as 0."""
    spectra = np.concatenate((np.linalg.eigvalsh(rho_a), np.linalg.eigvalsh(rho_b)))
    return float(_exact_mi(spectra, len(rho_a), s_ab))


def mutual_information(rho: DensityMatrix, dims: BipartiteDims) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) of a bipartite state, in nats.

    Can be a tiny negative number (order -1e-15) from round-off; callers that
    report values should clamp values above -MI_ROUNDOFF_TOL to zero, the raw
    return never does.
    """
    dims.check_dim(rho.dim)
    return _mutual_information(*_partial_traces(rho.matrix, dims), von_neumann_entropy(rho))


def is_unitary(u: np.ndarray) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() <= UNITARITY_TOL)


def _apply_unitary(mat: np.ndarray, u) -> tuple[np.ndarray, np.ndarray]:
    """Check ``u`` against a square array and conjugate it: (U M U^dag, U)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != mat.shape:
        raise ValidationError(f"unitary shape {u.shape} does not match state dimension {mat.shape[0]}")
    if not is_unitary(u):
        raise ValidationError("matrix is not unitary within tolerance")
    return u @ mat @ u.conj().T, u


def apply_unitary(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """Conjugate a state: rho -> U rho U^dag. Trace and spectrum are preserved."""
    return DensityMatrix(_apply_unitary(rho.matrix, u)[0])


def nats_to_bits(x: float) -> float:
    """Convert an entropy-like value from nats to bits (infinity passes through)."""
    return x if math.isinf(x) else x / math.log(2.0)
