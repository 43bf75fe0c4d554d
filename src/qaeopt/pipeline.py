"""End-to-end compression: build the encoder, compress, reconstruct, verify.

The encoder is U = V_tau V_D, where V_D rotates the eigenbasis of the input
state onto the computational product basis (row-major over descending
eigenvalues) and V_tau permutes basis states according to a Young tableau.
Discarding subsystem A after encoding and re-inserting the reduced state of A
loses exactly the mutual information of the encoded state:

    S(sigma || sigma_out) = S(A:B) of U sigma U^dag,

with equality for the re-inserted state rho_A equal to the encoded marginal,
and a strictly positive gap (Klein's inequality) for any other choice.

Both uses of that chain share one helper, ``_reconstruct``. Its inputs are
validated once, at the boundary (sigma as a ``DensityMatrix``, U by
``is_unitary``); its intermediates are plain arrays and are not validated.
``build_encoder`` reads the sorted eigenpairs the state keeps, so building
the optimal encoder decomposes nothing again.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .exceptions import ValidationError
from .qstate import (
    BipartiteDims,
    DensityMatrix,
    _apply_unitary,
    _check_integers,
    _mutual_information,
    _partial_traces,
    _relative_entropy,
    _rng,
    von_neumann_entropy,
)
from .tableau import YoungTableau

INSTANCE_KINDS = ("diagonal-mixed", "product-spectrum", "random-dense", "pure")


@dataclass(frozen=True)
class CompressionReport:
    """Numerical check of the compression identity for one (state, encoder) pair.

    ``residual`` is |S(sigma||sigma_out) - S(A:B)| and should vanish up to
    round-off; ``support_violation`` flags an infinite relative entropy.
    """

    mi_middle: float
    rel_entropy_out: float
    residual: float
    reconstruction_frobenius: float
    support_violation: bool

    def to_dict(self) -> dict:
        return asdict(self)


def build_encoder(rho: DensityMatrix, tableau: YoungTableau) -> np.ndarray:
    """The read-only encoder U = V_tau V_D for a state and a tableau filling.

    Row alpha of V_D is the bra of eigenvector alpha of ``rho`` (descending
    eigenvalues), so V_D maps eigenvector alpha to the computational basis
    vector alpha (row-major). V_tau then sends it to the basis vector of the
    cell holding value alpha + 1. The split is the tableau's ``dims``. The
    tableau need not be regular; regularity only matters for optimality.
    """
    tableau.dims.check_dim(rho.dim)
    # Row c of U is the conjugated eigenvector of the value in flat cell c.
    u = rho.vectors.conj()[tableau.index_array.ravel()]
    # U's rows are eigh's orthonormal eigenvectors, permuted, so U is unitary;
    # _reconstruct checks it once, as it checks every unitary it is given.
    u.setflags(write=False)
    return u


def _reconstruct(sigma: DensityMatrix, u, dims: BipartiteDims):
    """Encode sigma with ``u``, discard A, re-insert the encoded A marginal
    (the optimal auxiliary), decode with U^dag.

    Returns the arrays ``(encoded_a, encoded_b, sigma_out)``.
    """
    dims.check_dim(sigma.dim)
    encoded, u = _apply_unitary(sigma.matrix, u)
    encoded_a, encoded_b = _partial_traces(encoded, dims)
    del encoded  # a full-size matrix the decode does not read
    return encoded_a, encoded_b, u.conj().T @ np.kron(encoded_a, encoded_b) @ u


def compress_reconstruct(
    sigma: DensityMatrix, u: np.ndarray, dims: BipartiteDims
) -> tuple[DensityMatrix, DensityMatrix]:
    """Encode, keep subsystem B, and reconstruct with the optimal auxiliary.

    Returns ``(sigma_b, sigma_out)``: the compressed payload (reduced state of
    B after encoding) and the decoded state built by re-inserting the encoded
    marginal of A and applying the inverse encoder.
    """
    _, sigma_b, sigma_out = _reconstruct(sigma, u, dims)
    return DensityMatrix(sigma_b), DensityMatrix(sigma_out)


def verify_theorem1(sigma: DensityMatrix, u: np.ndarray, dims: BipartiteDims) -> CompressionReport:
    """Check S(sigma||sigma_out) = S(A:B) of the encoded state for any unitary."""
    encoded_a, encoded_b, sigma_out = _reconstruct(sigma, u, dims)
    del u  # the caller's encoder, when unheld, is freed before sigma_out is decomposed
    s_sigma = von_neumann_entropy(sigma)  # also S(AB) of the encoded state
    mi_middle = _mutual_information(encoded_a, encoded_b, s_sigma)
    rel = _relative_entropy(sigma.matrix, s_sigma, sigma_out)
    support_violation = math.isinf(rel)
    residual = math.inf if support_violation else abs(rel - mi_middle)
    frob = float(np.linalg.norm(sigma.matrix - sigma_out))
    return CompressionReport(
        mi_middle=mi_middle,
        rel_entropy_out=rel,
        residual=residual,
        reconstruction_frobenius=frob,
        support_violation=support_violation,
    )


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fixing.
    ``rng`` is a seed as ``random_regular`` takes one; a ``Generator`` is used unchanged."""
    _check_integers(dim=dim)
    if dim < 1:
        raise ValidationError(f"dim must be positive, got {dim}")
    rng = _rng(rng)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _diagonal_spectrum(kind: str, dims: BipartiteDims, seed) -> np.ndarray:
    """The descending diagonal of a diagonal-mixed or product-spectrum
    instance, drawn as ``generate_instance`` draws it, without its matrix."""
    rng = _rng(seed)
    if kind == "diagonal-mixed":
        return np.sort(rng.dirichlet(np.ones(dims.total)))[::-1]
    p_a, p_b = (rng.dirichlet(np.ones(d)) for d in (dims.d_a, dims.d_b))
    return np.sort(np.outer(p_a, p_b).ravel())[::-1]


def generate_instance(kind: str, dims: BipartiteDims, seed) -> DensityMatrix:
    """Deterministic random test states.

    diagonal-mixed: diagonal with a flat-simplex (symmetric Dirichlet,
    concentration 1) spectrum, sorted descending. product-spectrum: diagonal
    whose spectrum is the sorted flattening of an outer product of two flat
    simplex vectors, so a zero-mutual-information arrangement exists.
    random-dense: flat-simplex spectrum conjugated by a Haar unitary.
    pure: a Haar-random pure state.
    """
    if kind in ("diagonal-mixed", "product-spectrum"):
        return DensityMatrix(np.diag(_diagonal_spectrum(kind, dims, seed).astype(complex)))
    rng = _rng(seed)
    n = dims.total
    if kind == "random-dense":
        diag = rng.dirichlet(np.ones(n))
        u = haar_unitary(n, rng)
        mat = (u * diag) @ u.conj().T
        del u
        # (mat + mat^dag) / 2 in place: the same elementwise sum, as IEEE
        # addition commutes, with no full-size temporaries. Row-major like
        # the sum, so the state's matrix keeps its layout for later products.
        h = np.conjugate(mat.T, order="C")
        h += mat
        h /= 2
        del mat
        return DensityMatrix(h)
    if kind == "pure":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        return DensityMatrix(np.outer(v, v.conj()))
    raise ValidationError(f"unknown instance kind {kind!r}; expected one of {INSTANCE_KINDS}")
