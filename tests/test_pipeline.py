import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    circuit_mi,
    dense_instance,
    grid_mutual_information,
    positions,
    row_major,
    suboptimal_auxiliary_gap,
    unitary_descent,
)
from qaeopt import (
    BipartiteDims,
    DensityMatrix,
    ValidationError,
    YoungTableau,
    apply_unitary,
    build_encoder,
    compress_reconstruct,
    generate_instance,
    haar_unitary,
    mutual_information,
    optimize,
    partial_trace,
    random_regular,
    verify_theorem1,
)
from qaeopt.pipeline import _diagonal_spectrum

DIMS22 = BipartiteDims(2, 2)
DIMS23 = BipartiteDims(2, 3)
# Each kind of seed generate_instance takes, made fresh for each call.
DENSE_SEEDS = {
    "int": lambda: 7,
    "seed-sequence": lambda: np.random.SeedSequence((3, 1, 0)),
    "generator": lambda: np.random.default_rng(5),
}


def encoder_for(rho, dims, tableau_seed=0):
    """(tableau, U) for rho and a random regular tableau."""
    tableau = random_regular(dims, tableau_seed)
    return tableau, build_encoder(rho, tableau)


class TestBuildEncoder:
    def test_diagonal_state_identity_tableau_gives_permutation(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]))
        u = np.abs(build_encoder(rho, YoungTableau(DIMS22, row_major(DIMS22))))
        assert np.allclose(u @ u.T, np.eye(4))
        assert np.allclose(np.sort(u.ravel()), [0.0] * 12 + [1.0] * 4)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_unitarity(self, seed):
        rho = generate_instance("random-dense", DIMS23, seed)
        _, u = encoder_for(rho, DIMS23, tableau_seed=seed)
        product = u @ u.conj().T
        assert np.abs(product - np.eye(6)).max() < 1e-9

    def test_encoded_state_is_diagonal(self):
        rho = generate_instance("random-dense", DIMS22, 12)
        tableau, u = encoder_for(rho, DIMS22, tableau_seed=3)
        encoded = apply_unitary(rho, u).matrix
        off = encoded - np.diag(np.diag(encoded))
        assert np.linalg.norm(off) < 1e-9
        # Diagonal equals the tableau arrangement of the spectrum.
        expected = rho.probs[tableau.index_array].ravel()
        assert np.allclose(np.diag(encoded).real, expected)

    def test_eigenvector_mapping(self):
        rho = generate_instance("random-dense", DIMS22, 4)
        tableau, u = encoder_for(rho, DIMS22, tableau_seed=1)
        # Eigenvector alpha goes to the basis vector of the cell holding alpha + 1.
        for alpha, (i, j) in enumerate(positions(tableau.cells)):
            image = u @ rho.vectors[alpha]
            basis = np.zeros(4)
            basis[i * DIMS22.d_b + j] = 1.0
            assert np.abs(image - basis).max() < 1e-9

    def test_dims_mismatch(self):
        rho = generate_instance("random-dense", DIMS22, 0)
        with pytest.raises(ValidationError):
            build_encoder(rho, YoungTableau(DIMS23, row_major(DIMS23)))

    def test_encoder_is_read_only(self):
        rho = generate_instance("random-dense", DIMS22, 5)
        _, u = encoder_for(rho, DIMS22)
        assert isinstance(u, np.ndarray) and not u.flags.writeable


class TestCompressReconstruct:
    def test_shapes_and_validity(self):
        rho = generate_instance("random-dense", DIMS22, 8)
        _, u = encoder_for(rho, DIMS22, 2)
        sigma_b, sigma_out = compress_reconstruct(rho, u, DIMS22)
        assert sigma_b.dim == 2
        assert sigma_out.dim == 4
        assert abs(sigma_out.matrix.trace().real - 1.0) < 1e-9

    def test_product_state_with_identity_encoder_is_fixed(self):
        # kron of descending factor spectra that is globally descending, so
        # the assembled encoder reduces to the identity permutation.
        rho = DensityMatrix(np.kron(np.diag([0.9, 0.1]), np.diag([0.8, 0.2])))
        u = build_encoder(rho, YoungTableau(DIMS22, row_major(DIMS22)))
        assert np.allclose(np.abs(u), np.eye(4))
        _, sigma_out = compress_reconstruct(rho, u, DIMS22)
        assert np.linalg.norm(sigma_out.matrix - rho.matrix) < 1e-10

    def test_zero_mi_plan_reconstructs_perfectly(self):
        rho = generate_instance("product-spectrum", DIMS22, 5)
        best = optimize(rho.probs, DIMS22)
        assert best.best_mi < 1e-12
        u = build_encoder(rho, best.best_tableau)
        _, sigma_out = compress_reconstruct(rho, u, DIMS22)
        assert np.linalg.norm(sigma_out.matrix - rho.matrix) < 1e-8


class TestTheorem1:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_identity_holds_for_random_dense(self, seed):
        rho = generate_instance("random-dense", DIMS23, seed)
        _, u = encoder_for(rho, DIMS23, seed + 1)
        report = verify_theorem1(rho, u, DIMS23)
        assert report.residual < 1e-7
        assert not report.support_violation

    def test_identity_holds_for_diagonal_states(self):
        for seed in range(10):
            rho = generate_instance("diagonal-mixed", DIMS23, seed)
            _, u = encoder_for(rho, DIMS23, seed)
            assert verify_theorem1(rho, u, DIMS23).residual < 1e-7

    def test_unencoded_plan_reports_state_mutual_information(self):
        rho = generate_instance("random-dense", DIMS22, 31)
        report = verify_theorem1(rho, np.eye(4), DIMS22)
        assert abs(report.mi_middle - mutual_information(rho, DIMS22)) < 1e-12
        assert report.residual < 1e-7

    @pytest.mark.parametrize("eps", [1e-9, 1e-6])
    def test_non_unitary_u_rejected(self, eps):
        # u is the caller's argument, so verify_theorem1 checks it; a unitary
        # off by more than the 1e-10 tolerance is rejected, one within it is not.
        rho = generate_instance("random-dense", DIMS22, 6)
        u = np.array(build_encoder(rho, random_regular(DIMS22, 3)))
        near = u.copy()
        near[1, 2] += 2e-11
        assert verify_theorem1(rho, near, DIMS22).residual < 1e-7
        u[1, 2] += eps
        with pytest.raises(ValidationError, match="not unitary"):
            verify_theorem1(rho, u, DIMS22)

    def test_pure_product_state_both_zero(self):
        rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
        report = verify_theorem1(rho, np.eye(4), DIMS22)
        assert abs(report.mi_middle) < 1e-10
        assert abs(report.rel_entropy_out) < 1e-10

    def test_consistency_with_tableau_mi(self):
        rho = generate_instance("random-dense", DIMS23, 77)
        tableau, u = encoder_for(rho, DIMS23, 13)
        report = verify_theorem1(rho, u, DIMS23)
        classical = grid_mutual_information(rho.probs[tableau.index_array])
        assert abs(report.mi_middle - classical) < 1e-9

    def test_verify_memory(self):
        # Above the state and U the caller holds. The encoded state is freed
        # before the decode and U is read in place, not copied, so the peak
        # is _relative_entropy's 3 matrices next to sigma_out: 4.01 at 16x16
        # (4.00 at 32x32, left out: that case takes over 2 s).
        dims = BipartiteDims(16, 16)
        rho = generate_instance("random-dense", dims, 16)
        _, u = encoder_for(rho, dims)
        tracemalloc.start()
        try:
            verify_theorem1(rho, u, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 16 * dims.total**2


class TestOptimalOverAllUnitaries:
    """The abstract's claim that the optimum over all unitaries is a
    disentangler times a regular-tableau permutation: steepest descent over
    U(n) never ends below ``optimize``'s exhaustive minimum."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_descent_never_beats_the_tableau_optimum(self, d_a, d_b, seed):
        dims = BipartiteDims(d_a, d_b)
        rho = generate_instance("random-dense", dims, seed)
        result = optimize(rho.probs, dims)
        assert result.method == "exhaustive"

        def mi(u):
            return mutual_information(apply_unitary(rho, u), dims)

        rng = np.random.default_rng(seed)
        for _ in range(2):
            u = unitary_descent(rho, dims, haar_unitary(dims.total, rng), 1500)
            assert mi(u) >= result.best_mi - 1e-10
        # The optimal encoder, turned a little off the optimum, descends back.
        g = rng.standard_normal((dims.total, dims.total)) + 1j * rng.standard_normal((dims.total, dims.total))
        w, v = np.linalg.eigh((g + g.conj().T) / 2)
        start = (v * np.exp(0.05j * w)) @ v.conj().T @ build_encoder(rho, result.best_tableau)
        u = unitary_descent(rho, dims, start, 300)
        assert result.best_mi - 1e-10 <= mi(u) < mi(start)

    @pytest.mark.parametrize("d_a,d_b,layers", [(2, 2, 2), (2, 4, 1), (4, 4, 2)])
    def test_variational_circuit_gradient_is_exact(self, d_a, d_b, layers):
        # The variational baseline's exact gradient against central
        # differences, and its MI at zero angles, where each layer is a CZ
        # chain and an even number of them is the identity.
        dims = BipartiteDims(d_a, d_b)
        rho = generate_instance("random-dense", dims, layers)
        qubits = dims.total.bit_length() - 1
        assert circuit_mi(rho, dims, np.zeros((1, 2, qubits, 3)))[0][0] == pytest.approx(
            mutual_information(rho, dims), abs=1e-12
        )
        theta = np.random.default_rng(layers).uniform(0.0, 2 * math.pi, (2, layers, qubits, 3))
        mi, grad = circuit_mi(rho, dims, theta)
        for index in np.ndindex(theta.shape[1:]):
            step = np.zeros(theta.shape[1:])
            step[index] = 1e-6
            diff = (circuit_mi(rho, dims, theta + step)[0] - circuit_mi(rho, dims, theta - step)[0]) / 2e-6
            assert np.abs(diff - grad[(slice(None),) + index]).max() < 1e-7


class TestAuxiliaryGap:
    def test_optimal_auxiliary_gives_zero_gap(self):
        rho = generate_instance("random-dense", DIMS23, 2)
        _, u = encoder_for(rho, DIMS23, 4)
        rho_a = partial_trace(apply_unitary(rho, u), DIMS23, "A")
        assert abs(suboptimal_auxiliary_gap(rho, u, DIMS23, rho_a)) < 1e-7

    def test_maximally_mixed_auxiliary_is_worse(self):
        rho = generate_instance("diagonal-mixed", DIMS23, 3)
        _, u = encoder_for(rho, DIMS23, 9)
        encoded_a = partial_trace(apply_unitary(rho, u), DIMS23, "A")
        assert np.linalg.norm(encoded_a.matrix - np.eye(2) / 2) > 1e-3
        gap = suboptimal_auxiliary_gap(rho, u, DIMS23, DensityMatrix(np.eye(2) / 2))
        assert gap > 0

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_gap_nonnegative(self, seed):
        rho = generate_instance("random-dense", DIMS22, seed)
        _, u = encoder_for(rho, DIMS22, seed + 7)
        rho_a = generate_instance("random-dense", BipartiteDims(1, 2), seed + 11)
        assert suboptimal_auxiliary_gap(rho, u, DIMS22, rho_a) >= -1e-9

    def test_rank_deficient_auxiliary_reports_infinity(self):
        rho = generate_instance("random-dense", DIMS22, 19)
        _, u = encoder_for(rho, DIMS22, 6)
        pure_aux = DensityMatrix(np.diag([1.0, 0.0]))
        gap = suboptimal_auxiliary_gap(rho, u, DIMS22, pure_aux)
        assert math.isinf(gap)

    def test_wrong_auxiliary_dimension(self):
        rho = generate_instance("random-dense", DIMS23, 1)
        _, u = encoder_for(rho, DIMS23, 1)
        with pytest.raises(ValidationError):
            suboptimal_auxiliary_gap(rho, u, DIMS23, DensityMatrix(np.eye(3) / 3))


class TestGenerateInstance:
    def test_diagonal_mixed_is_sorted_diagonal(self):
        rho = generate_instance("diagonal-mixed", DIMS23, 0)
        diag = np.diag(rho.matrix).real
        assert abs(diag.sum() - 1.0) < 1e-12
        assert np.all(np.diff(diag) <= 0)
        assert np.count_nonzero(rho.matrix - np.diag(diag)) == 0

    def test_product_spectrum_admits_zero_mi(self):
        rho = generate_instance("product-spectrum", DIMS23, 1)
        probs = np.diag(rho.matrix).real
        assert optimize(probs, DIMS23).best_mi < 1e-12

    def test_pure_instance_has_unit_purity(self):
        rho = generate_instance("pure", DIMS22, 2)
        assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-10

    def test_deterministic(self):
        a = generate_instance("random-dense", DIMS22, 123)
        b = generate_instance("random-dense", DIMS22, 123)
        assert np.array_equal(a.matrix, b.matrix)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            generate_instance("thermal", DIMS22, 0)

    @pytest.mark.parametrize("kind", ["diagonal-mixed", "product-spectrum"])
    def test_drawn_spectrum_is_the_instance_spectrum(self, kind):
        shapes = [(d, d) for d in range(1, 17)] + [(1, 5), (5, 1), (3, 7), (12, 20)]
        for d_a, d_b in shapes:
            dims = BipartiteDims(d_a, d_b)
            for seed in (0, 7, np.random.SeedSequence((3, d_a, 0))):
                drawn = _diagonal_spectrum(kind, dims, seed)
                assert drawn.tobytes() == generate_instance(kind, dims, seed).probs.tobytes()

    def test_diagonal_instances_keep_their_matrices(self):
        # The digest of these matrices before their draws moved into
        # _diagonal_spectrum; the benchmark writes its spectrum files from them.
        digest = hashlib.sha256()
        for kind in ("diagonal-mixed", "product-spectrum"):
            for d_a, d_b in [(1, 1), (1, 5), (5, 1), (2, 3), (4, 4), (3, 7), (8, 8), (16, 16), (12, 20)]:
                for seed in (0, 7, np.random.SeedSequence((3, 1, 0))):
                    digest.update(generate_instance(kind, BipartiteDims(d_a, d_b), seed).matrix.tobytes())
        assert digest.hexdigest() == "35244e8320cd4a50a1e8f4aa2da5637075cace50241689d36c3f83d4fff26922"

    def test_dense_instances_keep_their_matrices(self):
        # The digest of these matrices before haar_unitary took its rng
        # through _rng, which hands a Generator back unchanged.
        digest = hashlib.sha256()
        for d_a, d_b in [(1, 1), (1, 3), (2, 2), (2, 3), (4, 4), (3, 7)]:
            for seed in (0, 7, np.random.SeedSequence((3, 1, 0)), np.random.default_rng(5)):
                digest.update(generate_instance("random-dense", BipartiteDims(d_a, d_b), seed).matrix.tobytes())
        assert digest.hexdigest() == "f90f0fb3d44315a1890e796f42cc654a039f4f0656fdea67803887e6934455f6"

    @pytest.mark.parametrize(
        "shape,seed",
        [(shape, seed) for shape in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 7), (5, 5), (8, 8), (16, 16)]
         for seed in DENSE_SEEDS]
        # One seed at 32x32, where each build takes about a second.
        + [((32, 32), "generator")],
    )
    def test_dense_instances_match_the_reference(self, shape, seed):
        # Bit for bit on any LAPACK, unlike the pinned digest above: the
        # builder and its reference draw from one numpy and one QR.
        dims = BipartiteDims(*shape)
        got = generate_instance("random-dense", dims, DENSE_SEEDS[seed]())
        want = dense_instance(dims, DENSE_SEEDS[seed]())
        for name in ("matrix", "probs", "vectors"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.tobytes() == b.tobytes() and a.flags.c_contiguous == b.flags.c_contiguous, name

    @pytest.mark.parametrize("d", [16, 32])
    def test_dense_instance_memory(self, d):
        # The peak is the Haar unitary's QR, about 4 matrices, numpy's floor.
        # Built with the unitary, both products, the sum and its half alive
        # around the DensityMatrix copy, it was 6.13 matrices at 16x16.
        dims = BipartiteDims(d, d)
        tracemalloc.start()
        try:
            generate_instance("random-dense", dims, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 16 * dims.total**2

    def test_haar_unitary_is_unitary(self):
        u = haar_unitary(5, np.random.default_rng(0))
        assert np.abs(u @ u.conj().T - np.eye(5)).max() < 1e-12
