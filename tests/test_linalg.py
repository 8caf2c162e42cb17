from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_pure, random_state_vector
from murel.linalg import (
    HermitianObservable,
    MixedState,
    PureState,
    adjoint,
    apply_spectral,
    as_complex_matrix,
    commutator,
    eigen_clusters,
    expectation,
    herm_eig,
    max_abs,
    probe_partial_expectation,
    spectral_norm,
    tensor,
)


def char_poly_coeffs(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier recursion.

    Uses only matrix products and traces, independent of any eigensolver.
    Returns [1, c1, ..., cn] with det(lambda I - A) = sum c_k lambda^(n-k).
    """
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ (m + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(m) / k)
    return np.array(coeffs)


class TestEigendecomposition:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eigenvalues_solve_characteristic_polynomial(self, dim, seed):
        rng = np.random.default_rng(1000 * dim + seed)
        a = random_hermitian(dim, rng)
        obs = herm_eig(a)
        roots = np.sort(np.roots(char_poly_coeffs(a)).real)
        assert np.allclose(obs.eigenvalues, roots, atol=1e-8)

    def test_reconstruction_and_orthonormality(self, rng):
        a = random_hermitian(5, rng)
        obs = herm_eig(a)
        v, w = obs.eigenvectors, obs.eigenvalues
        assert max_abs((v * w) @ v.conj().T - a) < 1e-12
        assert max_abs(v.conj().T @ v - np.eye(5)) < 1e-12
        assert np.all(np.diff(w) >= 0)

    def test_rejects_strongly_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_symmetrizes_small_drift(self):
        a = np.array([[1.0, 0.5 + 1e-12j], [0.5 - 3e-12j, 2.0]])
        obs = herm_eig(a)
        assert max_abs(obs.matrix - obs.matrix.conj().T) == 0.0

    def test_observable_rejects_tampered_eigenvalues(self, rng):
        obs = herm_eig(random_hermitian(3, rng))
        with pytest.raises(ValueError, match="reconstruct"):
            HermitianObservable(obs.matrix, obs.eigenvalues + 0.5, obs.eigenvectors)

    def test_observable_rejects_descending_eigenvalues(self, rng):
        obs = herm_eig(random_hermitian(3, rng))
        with pytest.raises(ValueError, match="ascending"):
            HermitianObservable(obs.matrix, obs.eigenvalues[::-1], obs.eigenvectors[:, ::-1])


class TestSpectralFunctions:
    def test_polynomial_matches_matrix_arithmetic(self, rng):
        a = random_hermitian(4, rng)
        obs = herm_eig(a)
        mapped = apply_spectral(lambda v: 0.3 * v**3 - 2.0 * v + 1.0, obs)
        direct = 0.3 * (a @ a @ a) - 2.0 * a + np.eye(4)
        assert max_abs(mapped.matrix - direct) < 1e-10

    def test_result_eigenvalues_sorted_after_mapping(self):
        obs = herm_eig(np.diag([1.0, 2.0, 3.0]))
        flipped = apply_spectral(lambda v: -v, obs)
        assert np.all(np.diff(flipped.eigenvalues) >= 0)
        assert max_abs(flipped.matrix + obs.matrix) < 1e-12

    def test_identity_map_preserves_matrix(self, rng):
        obs = herm_eig(random_hermitian(3, rng))
        same = apply_spectral(lambda v: v, obs)
        assert max_abs(same.matrix - obs.matrix) < 1e-12

    def test_non_finite_result_rejected(self):
        obs = herm_eig(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            apply_spectral(lambda v: float("nan"), obs)

    @pytest.mark.parametrize("f", [lambda v: 1e6 * v, lambda v: 1e5 * v**3], ids=["1e6 v", "1e5 v^3"])
    @pytest.mark.parametrize("seed", range(10))
    def test_large_maps_are_accepted_and_reconstruct_relative_to_their_scale(self, f, seed):
        # An absolute reconstruction tolerance rejects maps of spectral norm
        # >= 1e6; the result is valid by construction at any scale.
        obs = herm_eig(random_hermitian(4, np.random.default_rng(seed)))
        mapped = apply_spectral(f, obs)
        w, v = mapped.eigenvalues, mapped.eigenvectors
        assert np.array_equal(w, np.sort([f(e) for e in obs.eigenvalues.tolist()]))
        assert max_abs((v * w) @ v.conj().T - mapped.matrix) <= 1e-12 * np.max(np.abs(w))


class TestTensorAndPartial:
    def test_tensor_index_convention(self, rng):
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        t = tensor(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        assert t[i * 3 + k, j * 3 + l] == pytest.approx(a[i, j] * b[k, l])

    def test_probe_partial_matches_definition_loop(self, rng):
        do, dp = 2, 3
        a = rng.normal(size=(do * dp, do * dp)) + 1j * rng.normal(size=(do * dp, do * dp))
        xi = random_pure(dp, rng)
        got = probe_partial_expectation(a, xi)
        x = xi.amplitudes
        want = np.zeros((do, do), dtype=complex)
        for i in range(do):
            for j in range(do):
                for k in range(dp):
                    for l in range(dp):
                        want[i, j] += np.conj(x[k]) * a[i * dp + k, j * dp + l] * x[l]
        assert max_abs(got - want) < 1e-12

    def test_probe_partial_of_object_operator_is_identity_action(self, rng):
        m = random_hermitian(3, rng)
        xi = random_pure(4, rng)
        got = probe_partial_expectation(tensor(m, np.eye(4)), xi)
        assert max_abs(got - m) < 1e-12

    def test_probe_partial_rejects_bad_factorization(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            probe_partial_expectation(np.eye(5), random_pure(2, rng))


class TestStatesAndExpectations:
    def test_pure_state_requires_normalization(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array([1.0, 1.0]))

    def test_pure_state_is_immutable(self):
        psi = PureState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_mixed_state_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            MixedState(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            MixedState(np.eye(2))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            MixedState(np.diag([1.5, -0.5]))

    def test_expectation_on_eigenvectors(self, rng):
        obs = herm_eig(random_hermitian(4, rng))
        for idx in range(4):
            psi = PureState(obs.eigenvectors[:, idx])
            val = expectation(psi, obs.matrix)
            assert val.real == pytest.approx(obs.eigenvalues[idx], abs=1e-12)
            assert abs(val.imag) < 1e-12

    def test_expectation_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            expectation(PureState(np.array([1.0, 0.0])), np.eye(3))

    def test_commutator_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            commutator(np.eye(2), np.eye(3))

    def test_as_complex_matrix_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_complex_matrix(np.zeros((2, 3)))

    def test_as_complex_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_complex_matrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("construct,message", [
        (lambda: PureState(np.eye(2) / np.sqrt(2.0)), r"^state must be a vector, got shape \(2, 2\)$"),
        (lambda: PureState(np.array([np.nan, 1.0])), r"^state has non-finite amplitudes$"),
        (lambda: HermitianObservable(np.array([[0.0, 1.0], [0.0, 0.0]]), [0.0, 0.0], np.eye(2)),
         r"^observable matrix is not Hermitian$"),
        (lambda: HermitianObservable(np.diag([1.0, 2.0]), [1.0], np.eye(2)), r"^eigendecomposition shape mismatch$"),
        (lambda: HermitianObservable(np.diag([1.0, 2.0]), [1.0, 2.0], np.array([[1.0, 1.0], [0.0, 1.0]])),
         r"^eigenvectors are not orthonormal$"),
    ], ids=["state-matrix", "state-nan", "observable-non-hermitian", "eigen-shape", "eigenvectors-skewed"])
    def test_public_constructors_reject_malformed_input(self, construct, message):
        with pytest.raises(ValueError, match=message):
            construct()

    def test_spectral_norm_of_an_empty_matrix_is_zero(self):
        assert spectral_norm(np.zeros((0, 0))) == 0.0


class TestEigenClusters:
    def test_groups_degenerate_values(self):
        values = np.array([0.0, 1e-12, 1.0, 1.0 + 1e-10, 2.0])
        clusters = eigen_clusters(values, 1e-9)
        assert [list(idx) for _, idx in clusters] == [[0, 1], [2, 3], [4]]
        reps = [rep for rep, _ in clusters]
        assert reps == pytest.approx([5e-13, 1.0 + 5e-11, 2.0])

    def test_single_cluster_when_gap_large(self):
        clusters = eigen_clusters(np.array([0.0, 0.5, 1.0]), gap=10.0)
        assert len(clusters) == 1
        assert list(clusters[0][1]) == [0, 1, 2]

    def test_observable_clusters_its_spectrum_once(self):
        obs = herm_eig(np.diag([1.0, 0.0, 1.0 + 1e-12, 2.0]))
        clusters = obs._clusters
        assert obs._clusters is clusters
        assert [(v, idx.tolist()) for v, idx in clusters] == [
            (v, idx.tolist()) for v, idx in eigen_clusters(obs.eigenvalues)
        ]
        assert not any(idx.flags.writeable for _, idx in clusters)


@st.composite
def seeded_hermitian_pair(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    dim = draw(st.integers(2, 5))
    rng = np.random.default_rng(seed)
    return random_hermitian(dim, rng), random_hermitian(dim, rng), rng


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(seeded_hermitian_pair())
    def test_expectation_of_hermitian_is_real(self, data):
        a, _, rng = data
        psi = random_pure(a.shape[0], rng)
        assert abs(expectation(psi, a).imag) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(seeded_hermitian_pair())
    def test_commutator_of_hermitians_is_antihermitian(self, data):
        a, b, _ = data
        c = commutator(a, b)
        assert max_abs(c + adjoint(c)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(seeded_hermitian_pair())
    def test_spectral_norm_bounds_expectation(self, data):
        a, _, rng = data
        psi = random_pure(a.shape[0], rng)
        assert abs(expectation(psi, a)) <= spectral_norm(a) + 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 16), st.booleans())
    def test_spectral_norm_is_numpys_two_norm_bit_for_bit(self, seed, dim, hermitian):
        rng = np.random.default_rng(seed)
        a = random_hermitian(dim, rng) if hermitian else rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert spectral_norm(a) == float(np.linalg.norm(a, ord=2))

    @settings(max_examples=60, deadline=None)
    @given(seeded_hermitian_pair())
    def test_probe_partial_of_hermitian_is_hermitian(self, data):
        a, _, rng = data
        dim = a.shape[0]
        joint = random_hermitian(dim * 3, rng)
        xi = random_pure(3, rng)
        m = probe_partial_expectation(joint, xi)
        assert max_abs(m - adjoint(m)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_state_vectors_are_states(self, seed):
        rng = np.random.default_rng(seed)
        vec = random_state_vector(4, rng)
        PureState(vec)  # must not raise
