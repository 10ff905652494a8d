import math

import numpy as np
import pytest

from covertq.covert import qre, qre_spectral
from covertq.errors import DimensionCapError
from covertq.linops import (
    BLOCK,
    SUPPORT_TOL,
    TAU_HERM,
    DensityOperator,
    check_exact_block,
    hermitian_gap,
    max_exact_block,
    tensor_power,
    trace_norm,
)
from covertq.sparse import SparseSignalConfig, WardenStates, _outer_power
from conftest import random_density, random_pure, random_willie_model


def _rand_hermitian(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


class TestTensor:
    @pytest.mark.parametrize("d", [2, 3])
    def test_power_matches_kron_chain(self, d, rng):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        chain = a
        for k in range(2, max_exact_block(d) + 1):
            chain = np.kron(chain, a)
            assert np.array_equal(tensor_power(a, k), chain), k

    def test_power_cap(self):
        with pytest.raises(DimensionCapError, match="n <= 10 for d=2"):
            tensor_power(np.eye(2), 11)
        with pytest.raises(DimensionCapError, match="n <= 6 for d=3"):
            tensor_power(np.eye(3), 7)

    def test_nan_power_refused(self):
        # Both comparisons of a NaN are false: the block-length rule must
        # refuse it before range() sees it.
        with pytest.raises(ValueError, match="at least one channel use"):
            tensor_power(np.eye(2), float("nan"))

    def test_one_dimensional_factor_never_passes_the_cap(self):
        with pytest.raises(ValueError, match="at least 2"):
            max_exact_block(1)
        for n in (11, 2**63, 10**30, 10**400):
            check_exact_block(n, 1)
        assert np.array_equal(tensor_power(np.ones((1, 1)), 20), np.ones((1, 1)))


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

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermitian_tolerance_does_not_grow_with_scale(self):
        # The one rule is gap <= TAU_HERM at every scale.
        m = np.array([[100.0, 1.5e-10], [0.0, -100.0]])
        assert hermitian_gap(m) == 1.5e-10 > TAU_HERM
        with pytest.raises(ValueError, match="Hermitian"):
            trace_norm(m)
        m[0, 1] = 0.5e-10
        assert trace_norm(m) == pytest.approx(200.0)

    def test_gap_scan_refuses_nonfinite(self):
        # Past the first block, so every block is tested.
        for bad in (np.nan, np.inf, complex(0, np.inf)):
            m = np.eye(3 * BLOCK, dtype=np.complex128)
            m[-1, 2 * BLOCK] = bad
            with pytest.raises(ValueError, match="must be finite"):
                hermitian_gap(m)

    @pytest.mark.parametrize("seed", range(10))
    def test_state_difference_matches_singular_values(self, seed):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 4
        pairs = [
            (random_density(dim, rng), random_density(dim, rng)),
            (random_pure(dim, rng), random_density(dim, rng, floor=0.2)),
            (DensityOperator(tensor_power(random_density(2, rng).mat, 4)), random_pure(16, rng)),
        ]
        for rho, sigma in pairs:
            diff = rho.mat - sigma.mat
            svd = np.sum(np.linalg.svd(diff, compute_uv=False))
            assert trace_norm(diff) == pytest.approx(svd, rel=1e-12, abs=1e-13)
            # A state difference takes the Hermitian route.
            assert trace_norm(diff) == float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
        assert trace_norm(rho.mat - rho.mat) == pytest.approx(0.0, abs=1e-13)


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

    def test_entering_matrix_kept_as_hermitian_part(self, rng):
        m = random_density(3, rng).mat.copy()
        exact = m.copy()
        m[0, 1] += 8e-11
        assert hermitian_gap(m) == pytest.approx(8e-11, rel=1e-3)
        assert np.array_equal(DensityOperator(m).mat, (m + m.conj().T) / 2)
        assert hermitian_gap(DensityOperator(m).mat) == 0.0
        # An exactly Hermitian matrix is kept bit for bit.
        assert np.array_equal(DensityOperator(exact).mat, exact)

    def test_basis_and_mixed_constructors(self):
        assert DensityOperator.basis_state(3, 1).mat[1, 1] == 1.0
        np.testing.assert_allclose(
            DensityOperator.maximally_mixed(4).mat, np.eye(4) / 4
        )


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


def _power_spectrum(rho, k):
    """The spectrum of rho^(x)k as the warden pass takes it, from rho's:
    outer-product eigenvalues and the site-wise kernel, in Kronecker order."""
    return _outer_power(np.multiply, rho.eigvals, k), _outer_power(np.logical_or, rho.kernel, k)


class TestPower:
    """The spectrum of a tensor power, read from the single-site one as the
    warden pass reads that of rho0^(x)n."""

    def _cases(self, rng):
        _, _, qutrit = _rank_two_qutrit(rng)
        return [(random_density(2, rng), 6), (qutrit, 4)]

    def test_spectrum_matches_dense_power(self, rng):
        for rho, k in self._cases(rng):
            vals, _ = _power_spectrum(rho, k)
            dense = np.linalg.eigvalsh(tensor_power(rho.mat, k))
            np.testing.assert_allclose(np.sort(vals), dense, rtol=0, atol=1e-12)
            # In rho's eigenbasis the power is the diagonal of these values,
            # each entry bit for bit what tensor_power multiplies.
            assert np.array_equal(tensor_power(np.diag(rho.eigvals), k), np.diag(vals))

    def test_kernel_marks_products_with_a_kernel_factor(self, rng):
        for rho, k in self._cases(rng):
            _, kernel = _power_spectrum(rho, k)
            vecs = tensor_power(rho.eigh()[1], k)
            expect = [_site_factor_in_kernel(vecs[:, i], rho, k) for i in range(len(vecs))]
            np.testing.assert_array_equal(kernel, expect)
            np.testing.assert_allclose(tensor_power(rho.mat, k) @ vecs[:, kernel], 0.0, atol=1e-12)
            rank = np.count_nonzero(~rho.kernel)
            assert np.count_nonzero(kernel) == rho.dim**k - rank**k

    def test_small_product_eigenvalues_stay_in_support(self, rng):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rho = DensityOperator(u @ np.diag([0.98, 0.02]) @ u.conj().T)
        vals, kernel = _power_spectrum(rho, 8)
        assert vals.min() < SUPPORT_TOL
        assert not kernel.any()

    def test_qre_of_powers_is_additive(self, rng):
        a, b, sigma3 = _rank_two_qutrit(rng)
        inside = DensityOperator(0.3 * a + 0.7 * b)

        def qre_of_powers(rho, sigma, k):
            # Overlaps of the dense power with the Kronecker-power eigenbasis.
            v = tensor_power(sigma.eigh()[1], k)
            overlap = np.real(np.sum(v.conj() * (tensor_power(rho.mat, k) @ v), axis=0))
            return qre_spectral(_power_spectrum(rho, k)[0], overlap, *_power_spectrum(sigma, k), k)

        pairs = [
            (random_density(2, rng), random_density(2, rng), 6),
            (inside, sigma3, 4),
            (sigma3, random_density(3, rng, floor=0.1), 4),
        ]
        for rho, sigma, k in pairs:
            single = qre(rho, sigma)
            assert math.isfinite(single)
            assert qre_of_powers(rho, sigma, k) == pytest.approx(k * single, rel=1e-9)
        full = random_density(3, rng, floor=0.1)
        assert qre_of_powers(full, sigma3, 4) == math.inf

    def test_power_respects_cap(self, rng):
        # The warden pass forms its first power before any n-use state.
        st = WardenStates(random_willie_model(rng), SparseSignalConfig(n=11, q=0.2, vartheta=0.5))
        with pytest.raises(DimensionCapError):
            st.figures
