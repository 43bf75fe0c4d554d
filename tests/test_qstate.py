import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import _entropy, dense_relative_entropy, flat_entropy, row_major
from qaeopt import (
    BipartiteDims,
    DensityMatrix,
    ValidationError,
    YoungTableau,
    apply_unitary,
    build_encoder,
    generate_instance,
    haar_unitary,
    mutual_information,
    partial_trace,
    relative_entropy,
    shannon_entropy,
    verify_theorem1,
    von_neumann_entropy,
)
from qaeopt.qstate import _probability_vector

BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0
DIMS22 = BipartiteDims(2, 2)


def random_density(dim: int, seed: int) -> DensityMatrix:
    d_a = 2 if dim % 2 == 0 else 1
    return generate_instance("random-dense", BipartiteDims(d_a, dim // d_a), seed)


class TestValidation:
    def test_non_hermitian_rejected(self):
        # Unit trace, but not Hermitian: that check comes first.
        with pytest.raises(ValidationError, match="not Hermitian"):
            DensityMatrix([[0.5, 1], [0, 0.5]])

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            DensityMatrix(np.zeros((2, 3)))

    def test_bad_trace_rejected(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_dims_must_be_positive(self):
        with pytest.raises(ValidationError):
            BipartiteDims(0, 3)

    @pytest.mark.parametrize(
        "d_a,d_b,field",
        [(2.0, 2, "d_a"), (2, 1.5, "d_b"), (True, 2, "d_a"), (2, "4", "d_b"), (None, 2, "d_a")],
    )
    def test_dims_must_be_integers(self, d_a, d_b, field):
        # 2.0 and True pass the range check, so only a type check stops them.
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            BipartiteDims(d_a, d_b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix([[0.5, 0.0], [0.0, bad]])
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix([[0.5, complex(0.0, bad)], [complex(0.0, -bad), 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_spectrum_rejected(self, bad):
        # The one probability check every spectrum passes where it enters.
        with pytest.raises(ValidationError, match="non-finite"):
            _probability_vector([bad, 0.5], 2)
        with pytest.raises(ValidationError, match="non-finite"):
            _probability_vector([0.6, bad], 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entropy_input_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            shannon_entropy([bad, 1.0])

    def test_spectrum_requires_descending_probs(self):
        with pytest.raises(ValidationError, match="non-increasing"):
            _probability_vector([0.4, 0.6], 2)


def reassemble(rho: DensityMatrix) -> np.ndarray:
    """sum_a probs[a] |v_a><v_a| from the eigenpairs ``rho`` keeps."""
    return (rho.vectors.T * rho.probs) @ rho.vectors.conj()


class TestEigendecompose:
    """The one eigendecomposition a ``DensityMatrix`` keeps: ``probs`` and ``vectors``."""

    def test_maximally_mixed_qubit(self):
        assert np.allclose(DensityMatrix(np.eye(2) / 2).probs, [0.5, 0.5])

    def test_pure_state(self):
        assert np.allclose(DensityMatrix(np.diag([1.0, 0.0])).probs, [1.0, 0.0])

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction(self, seed):
        rho = random_density(4, seed)
        assert np.linalg.norm(reassemble(rho) - rho.matrix) < 1e-9
        assert np.all(np.diff(rho.probs) <= 0)

    def test_reads_the_decomposition_the_state_keeps(self, monkeypatch):
        rho = random_density(6, 3)

        def decomposed_again(*args, **kwargs):
            raise AssertionError("the state was decomposed again")

        monkeypatch.setattr(np.linalg, "eigh", decomposed_again)
        monkeypatch.setattr(np.linalg, "eigvalsh", decomposed_again)
        assert von_neumann_entropy(rho) == shannon_entropy(rho.probs)
        u = build_encoder(rho, YoungTableau(BipartiteDims(2, 3), row_major(BipartiteDims(2, 3))))
        assert np.array_equal(u, rho.vectors.conj())

    @pytest.mark.parametrize(
        "matrix",
        [
            generate_instance("random-dense", BipartiteDims(2, 3), 7).matrix,
            generate_instance("random-dense", BipartiteDims(4, 4), 8).matrix,
            np.eye(4) / 4,
            np.diag([1.0, 0.0]),
            np.diag([0.0, 0.5, 0.0, 0.5]),
        ],
        ids=["dense-2x3", "dense-4x4", "eye4", "diag10", "diag0505"],
    )
    def test_probs_descending_read_only_and_reassemble(self, matrix):
        rho = DensityMatrix(matrix)
        assert rho.probs.shape == (rho.dim,) and rho.vectors.shape == (rho.dim, rho.dim)
        assert np.all(rho.probs >= 0.0)
        assert np.all(np.diff(rho.probs) <= 0.0)
        for a in (rho.matrix, rho.probs, rho.vectors):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        assert np.abs(reassemble(rho) - rho.matrix).max() < 1e-12

    def test_ties_keep_the_eigensolver_order(self):
        # Degenerate eigenvalues: row alpha of vectors is eigh's column, in
        # eigh's order among equal values (stable sort).
        mat = np.diag([0.25, 0.25, 0.5, 0.0]).astype(complex)
        vals, vecs = np.linalg.eigh(mat)
        order = np.argsort(-vals, kind="stable")
        rho = DensityMatrix(mat)
        assert np.array_equal(rho.probs, np.clip(vals[order], 0.0, None))
        assert np.array_equal(rho.vectors, vecs.T[order])


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert abs(von_neumann_entropy(DensityMatrix(np.diag([1.0, 0.0, 0.0])))) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_maximally_mixed(self, d):
        s = von_neumann_entropy(DensityMatrix(np.eye(d) / d))
        assert abs(s - math.log(d)) < 1e-12

    def test_two_level_mixture(self):
        expected = -0.7 * math.log(0.7) - 0.3 * math.log(0.3)
        assert abs(von_neumann_entropy(DensityMatrix(np.diag([0.7, 0.3]))) - expected) < 1e-12


class TestPartialTrace:
    def test_bell_state_marginal_is_maximally_mixed(self):
        rho_a = partial_trace(DensityMatrix(BELL), DIMS22, "A")
        assert np.allclose(rho_a.matrix, np.eye(2) / 2)

    def test_product_state_recovers_factor(self):
        rho_a = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        rho_b = np.diag([0.6, 0.4])
        joint = DensityMatrix(np.kron(rho_a, rho_b))
        assert np.allclose(partial_trace(joint, DIMS22, "A").matrix, rho_a)
        assert np.allclose(partial_trace(joint, DIMS22, "B").matrix, rho_b)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_trace_preserved_on_2x3(self, seed):
        rho = generate_instance("random-dense", BipartiteDims(2, 3), seed)
        for keep in ("A", "B"):
            red = partial_trace(rho, BipartiteDims(2, 3), keep)
            assert abs(red.matrix.trace() - 1.0) < 1e-10

    def test_linearity(self):
        dims = BipartiteDims(2, 2)
        r1 = generate_instance("random-dense", dims, 1)
        r2 = generate_instance("random-dense", dims, 2)
        mix = DensityMatrix(0.3 * r1.matrix + 0.7 * r2.matrix)
        expected = (
            0.3 * partial_trace(r1, dims, "A").matrix
            + 0.7 * partial_trace(r2, dims, "A").matrix
        )
        assert np.allclose(partial_trace(mix, dims, "A").matrix, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            partial_trace(DensityMatrix(np.eye(4) / 4), BipartiteDims(2, 3), "A")

    def test_bad_subsystem_tag(self):
        with pytest.raises(ValidationError):
            partial_trace(DensityMatrix(np.eye(4) / 4), DIMS22, "C")


class TestRelativeEntropy:
    def test_self_divergence_zero(self):
        rho = random_density(4, 7)
        assert abs(relative_entropy(rho, rho)) < 1e-9

    def test_single_term(self):
        s = relative_entropy(DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.eye(2) / 2))
        assert abs(s - math.log(2)) < 1e-12

    def test_disjoint_support_is_infinite(self):
        s = relative_entropy(
            DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.diag([0.0, 1.0]))
        )
        assert math.isinf(s)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            relative_entropy(DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(3) / 3))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_nonnegativity(self, seed):
        rho = random_density(4, seed)
        sigma = random_density(4, seed + 1)
        assert relative_entropy(rho, sigma) >= -1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_formula_full_rank_16(self, seed):
        rho = random_density(16, seed)
        sigma = random_density(16, seed + 100)
        expected = dense_relative_entropy(rho.matrix, sigma.matrix)
        assert abs(relative_entropy(rho, sigma) - expected) < 1e-10


class TestMutualInformation:
    def test_product_state_zero(self):
        rho = DensityMatrix(np.kron(np.diag([0.8, 0.2]), np.diag([0.5, 0.5])))
        assert abs(mutual_information(rho, DIMS22)) < 1e-9

    def test_bell_state(self):
        assert abs(mutual_information(DensityMatrix(BELL), DIMS22) - 2 * math.log(2)) < 1e-12

    def test_classically_correlated(self):
        # Marginals are (1/2, 1/2) on each side and the joint entropy is log 2.
        rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]))
        expected = math.log(2) + math.log(2) - math.log(2)
        assert abs(mutual_information(rho, DIMS22) - expected) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            mutual_information(DensityMatrix(np.eye(4) / 4), BipartiteDims(3, 2))


def kernel_vectors():
    """Probability vectors from length 1 to beyond 16,384, with zeros, ties
    (every value twice) and pure spectra."""
    rng = np.random.default_rng(20)
    vectors = [np.array([1.0]), np.array([1.0, 0.0, 0.0, 0.0]), np.full(7, 1 / 7), np.repeat([0.3, 0.2], [2, 2])]
    for n in (1, 2, 5, 64, 256, 1000, 16384):
        for alpha in (0.05, 1.0, 100.0):
            p = np.sort(rng.dirichlet(np.full(n, alpha)))[::-1]
            vectors += [p, np.concatenate((p / 2, p / 2)), np.concatenate((p, np.zeros(n % 7 + 1)))]
    return vectors


class TestOneEntropyKernel:
    def test_shannon_entropy_is_the_scalar_left_sum_bit_for_bit(self):
        # The terms are summed in descending order, whatever the input's order.
        for p in kernel_vectors():
            expected = flat_entropy(sorted(p.tolist(), reverse=True)).hex()
            assert shannon_entropy(p).hex() == shannon_entropy(p[::-1]).hex() == expected

    def test_pure_and_empty_spectra(self):
        assert shannon_entropy([1.0, 0.0, 0.0]).hex() == shannon_entropy([0.0, 1.0]).hex() == (-0.0).hex()
        # An empty or all-zero vector misses the sum, as it would in optimize.
        for p in ([], [0.0, 0.0]):
            with pytest.raises(ValidationError, match="must sum to 1 within 1e-10, got 0.0"):
                shannon_entropy(p)

    def test_entropies_never_call_numpy_log(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.log called")

        rho = random_density(12, 3)
        sigma = random_density(12, 4)
        dims = BipartiteDims(3, 4)
        u = haar_unitary(12, np.random.default_rng(5))
        monkeypatch.setattr(np, "log", refuse)
        with pytest.raises(AssertionError):
            np.log(2.0)
        values = [
            shannon_entropy(rho.probs),
            von_neumann_entropy(rho),
            mutual_information(rho, dims),
            relative_entropy(rho, sigma),
            verify_theorem1(rho, u, dims).residual,
        ]
        assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("seed", range(4))
    def test_mutual_information_matches_numpy_log_oracle(self, seed):
        rho = random_density(12, seed)
        rho_a = partial_trace(rho, BipartiteDims(3, 4), "A").matrix
        rho_b = partial_trace(rho, BipartiteDims(3, 4), "B").matrix
        spectra = [np.linalg.eigvalsh(m) for m in (rho_a, rho_b, rho.matrix)]
        expected = _entropy(spectra[0]) + _entropy(spectra[1]) - _entropy(spectra[2])
        assert abs(mutual_information(rho, BipartiteDims(3, 4)) - expected) < 1e-13


class TestApplyUnitary:
    def test_identity_leaves_state(self):
        rho = random_density(4, 3)
        assert np.allclose(apply_unitary(rho, np.eye(4)).matrix, rho.matrix)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            apply_unitary(DensityMatrix(np.eye(2) / 2), np.array([[1, 1], [0, 1]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            apply_unitary(DensityMatrix(np.eye(2) / 2), np.eye(3))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_entropy_invariance(self, seed):
        rho = random_density(4, seed)
        u = haar_unitary(4, np.random.default_rng(seed + 13))
        assert abs(von_neumann_entropy(apply_unitary(rho, u)) - von_neumann_entropy(rho)) < 1e-9

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_spectrum_preserved(self, seed):
        rho = random_density(4, seed)
        u = haar_unitary(4, np.random.default_rng(seed + 29))
        before = np.sort(np.linalg.eigvalsh(rho.matrix))
        after = np.sort(np.linalg.eigvalsh(apply_unitary(rho, u).matrix))
        assert np.abs(before - after).max() < 1e-9
