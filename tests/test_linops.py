import math

import numpy as np
import pytest

from covertq.covert import qre
from covertq.errors import DimensionCapError
from covertq.linops import (
    SUPPORT_TOL,
    TAU_EIG,
    DensityOperator,
    eig_hermitian,
    partial_trace,
    tensor,
    tensor_power,
    trace_norm,
    trace_norm_diff,
)
from conftest import random_density, random_pure


def _rand_hermitian(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


class TestTensor:
    def test_identity_case(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        np.testing.assert_allclose(tensor(a, b), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_matches_elementwise_definition(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        got = tensor(a, b)
        expect = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                expect[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = a[i, j] * b
        np.testing.assert_allclose(got, expect)

    def test_power_cap(self):
        with pytest.raises(DimensionCapError):
            tensor_power(np.eye(2), 11)


class TestPartialTrace:
    def test_bell_marginals(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        bell = np.outer(phi, phi.conj())
        for keep in ([0], [1]):
            np.testing.assert_allclose(
                partial_trace(bell, [2, 2], keep), np.eye(2) / 2, atol=1e-12
            )

    def test_product_state(self, rng):
        rho = random_density(2, rng).mat
        sigma = random_density(3, rng).mat
        np.testing.assert_allclose(
            partial_trace(tensor(rho, sigma), [2, 3], [0]), rho, atol=1e-12
        )

    def test_three_qubit_against_index_summation(self, rng):
        rho = random_density(8, rng).mat
        got = partial_trace(rho, [2, 2, 2], [0, 2])
        # Direct summation oracle over the traced middle index.
        expect = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for c in range(2):
                for ap in range(2):
                    for cp in range(2):
                        s = sum(rho[4 * a + 2 * b + c, 4 * ap + 2 * b + cp] for b in range(2))
                        expect[2 * a + c, 2 * ap + cp] = s
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_trace_over_everything_is_scalar_trace(self, rng):
        rho = random_density(6, rng).mat
        out = partial_trace(rho, [2, 3], [])
        assert out.shape == (1, 1)
        np.testing.assert_allclose(out[0, 0], np.trace(rho), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), [2, 2], [0])


class TestTraceNorm:
    def test_zero_difference(self, rng):
        rho = random_density(3, rng).mat
        assert trace_norm(rho - rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        d = np.diag([1.0, 0.0]) - np.diag([0.0, 1.0])
        assert trace_norm(d) == pytest.approx(2.0)

    def test_matches_eigenvalue_oracle(self, rng):
        h = _rand_hermitian(5, rng)
        assert trace_norm(h) == pytest.approx(np.sum(np.abs(np.linalg.eigvalsh(h))))

    def test_norm_axioms_on_random_triples(self, rng):
        for _ in range(50):
            a = _rand_hermitian(4, rng)
            b = _rand_hermitian(4, rng)
            assert trace_norm(a) >= 0
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            trace_norm(np.ones((2, 3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_state_difference_matches_singular_values(self, seed):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 4
        pairs = [
            (random_density(dim, rng), random_density(dim, rng)),
            (random_pure(dim, rng), random_density(dim, rng, floor=0.2)),
            (random_density(2, rng).power(4), random_pure(16, rng)),
        ]
        for rho, sigma in pairs:
            svd = np.sum(np.linalg.svd(rho.mat - sigma.mat, compute_uv=False))
            assert trace_norm_diff(rho, sigma) == pytest.approx(svd, rel=1e-12, abs=1e-13)
            assert trace_norm_diff(rho, sigma) == trace_norm(rho.mat - sigma.mat)
        assert trace_norm_diff(rho, rho) == pytest.approx(0.0, abs=1e-13)


class TestEigHermitian:
    def test_identity(self):
        vals, _ = eig_hermitian(np.eye(2))
        np.testing.assert_allclose(vals, [1.0, 1.0])

    def test_pauli_z(self):
        vals, _ = eig_hermitian(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(vals, [-1.0, 1.0])

    def test_reconstruction(self, rng):
        h = _rand_hermitian(6, rng)
        vals, vecs = eig_hermitian(h)
        assert np.all(np.diff(vals) >= -1e-12)
        np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, h, atol=TAU_EIG)

    def test_rejects_non_hermitian(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        with pytest.raises(ValueError):
            eig_hermitian(m)


class TestDensityOperator:
    def test_accepts_valid(self, rng):
        rho = random_density(4, rng)
        assert rho.dim == 4

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_rejects_oversized(self):
        with pytest.raises(DimensionCapError):
            DensityOperator(np.eye(2048) / 2048)

    def test_rejects_nonfinite(self):
        m = np.eye(2) / 2
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            DensityOperator(m)

    def test_basis_and_mixed_constructors(self):
        assert DensityOperator.basis_state(3, 1).mat[1, 1] == 1.0
        np.testing.assert_allclose(
            DensityOperator.maximally_mixed(4).mat, np.eye(4) / 4
        )


def test_tensor_marginals_consistent(rng):
    rho = random_density(2, rng).mat
    sigma = random_density(2, rng).mat
    joint = tensor(rho, sigma)
    back = tensor(partial_trace(joint, [2, 2], [0]), sigma)
    np.testing.assert_allclose(np.trace(back), np.trace(joint), atol=1e-12)
    np.testing.assert_allclose(back, joint, atol=1e-12)


def _rank_two_qutrit(rng, weight=0.6):
    a, b = random_pure(3, rng).mat, random_pure(3, rng).mat
    return a, b, DensityOperator(weight * a + (1 - weight) * b)


def _site_factor_in_kernel(vec, site_state, k):
    """Whether any site factor of the product vector lies in the kernel of
    the site state, read off the one-site marginals of the vector."""
    d = site_state.dim
    amp = vec.reshape((d,) * k)
    for t in range(k):
        m = np.moveaxis(amp, t, 0).reshape(d, -1)
        if np.real(np.trace(site_state.mat @ m @ m.conj().T)) <= SUPPORT_TOL:
            return True
    return False


class TestPower:
    def _cases(self, rng):
        _, _, qutrit = _rank_two_qutrit(rng)
        return [(random_density(2, rng), 6), (qutrit, 4)]

    def test_spectrum_matches_dense_power(self, rng):
        for rho, k in self._cases(rng):
            p = rho.power(k)
            dense = np.linalg.eigvalsh(tensor_power(rho.mat, k))
            np.testing.assert_allclose(p.eigvals, np.sort(dense), rtol=0, atol=1e-12)
            vals, vecs = p.eigh()
            np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, p.mat, atol=1e-12)
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(p.dim), atol=1e-12)

    def test_kernel_marks_products_with_a_kernel_factor(self, rng):
        for rho, k in self._cases(rng):
            p = rho.power(k)
            _, vecs = p.eigh()
            expect = [_site_factor_in_kernel(vecs[:, i], rho, k) for i in range(p.dim)]
            np.testing.assert_array_equal(p.kernel, expect)
            np.testing.assert_allclose(p.mat @ vecs[:, p.kernel], 0.0, atol=1e-12)
            rank = np.count_nonzero(~rho.kernel)
            assert np.count_nonzero(p.kernel) == rho.dim**k - rank**k

    def test_small_product_eigenvalues_stay_in_support(self, rng):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rho = DensityOperator(u @ np.diag([0.98, 0.02]) @ u.conj().T)
        p = rho.power(8)
        assert p.eigvals[0] < SUPPORT_TOL
        assert not p.kernel.any()

    def test_qre_of_powers_is_additive(self, rng):
        a, b, sigma3 = _rank_two_qutrit(rng)
        inside = DensityOperator(0.3 * a + 0.7 * b)
        pairs = [
            (random_density(2, rng), random_density(2, rng), 6),
            (inside, sigma3, 4),
            (sigma3, random_density(3, rng, floor=0.1), 4),
        ]
        for rho, sigma, k in pairs:
            single = qre(rho, sigma)
            assert math.isfinite(single)
            assert qre(rho.power(k), sigma.power(k)) == pytest.approx(k * single, rel=1e-9)
        full = random_density(3, rng, floor=0.1)
        assert qre(full.power(4), sigma3.power(4)) == math.inf

    def test_power_respects_cap(self, rng):
        with pytest.raises(DimensionCapError):
            random_density(2, rng).power(11)
