import functools
import math

import numpy as np
import pytest
from scipy.linalg import logm

from covertq import covert
from covertq.channels import WillieModel, amplitude_damping, complementary, willie_model
from covertq.covert import (
    LN2,
    chi2,
    covert_constant,
    q_for_budget,
    qre,
    qre_spectral,
    support_contained,
    vn_entropy,
)
from covertq.errors import SupportViolationError
from covertq.linops import SUPPORT_TOL, DensityOperator, max_exact_block
from covertq.sparse import _outer_power
from conftest import random_density, random_pure

DIAG_HALF = DensityOperator(np.diag([0.5, 0.5]).astype(complex))
DIAG_91 = DensityOperator(np.diag([0.9, 0.1]).astype(complex))


def kl_bits(p, q):
    return sum(pi * math.log2(pi / qi) for pi, qi in zip(p, q) if pi > 0)


class TestQre:
    def test_self_divergence_is_zero(self, rng):
        rho = random_density(3, rng)
        assert qre(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_commuting_case_matches_classical_kl(self):
        got = qre(DIAG_HALF, DIAG_91)
        assert got == pytest.approx(kl_bits([0.5, 0.5], [0.9, 0.1]), abs=1e-12)

    def test_pure_versus_maximally_mixed(self):
        got = qre(DensityOperator.basis_state(2, 0), DensityOperator.maximally_mixed(2))
        assert got == pytest.approx(1.0, abs=1e-12)  # log2(2)

    def test_support_violation_is_infinite(self):
        assert math.isinf(qre(DIAG_HALF, DensityOperator.basis_state(2, 0)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qre(DIAG_HALF, DensityOperator.maximally_mixed(3))

    def test_round_off_below_zero_is_floored(self, monkeypatch, rng):
        # A qubit pair whose live block is one-dimensional: the exact
        # divergence of the tolerated leak is h(m) + m log2 d below zero.
        rho, sigma = _leaky_pair(2, 0.5 * SUPPORT_TOL, False, rng)
        assert qre(rho, sigma) == 0.0
        rho = random_density(3, rng)
        # entropy_bits returns +H, so raising it lowers the divergence.
        shift = covert.entropy_bits
        monkeypatch.setattr(covert, "entropy_bits", lambda v: shift(v) + 0.5 * covert.QRE_FLOOR)
        assert qre(rho, rho) == 0.0
        monkeypatch.setattr(covert, "entropy_bits", lambda v: shift(v) + 2.0 * covert.QRE_FLOOR)
        with pytest.raises(RuntimeError, match="below its round-off floor"):
            qre(rho, rho)

    def test_additive_over_products(self, rng):
        for _ in range(20):
            rho1, sig1 = random_density(2, rng), random_density(2, rng, floor=0.1)
            rho2, sig2 = random_density(2, rng), random_density(2, rng, floor=0.1)
            joint = qre(
                DensityOperator(np.kron(rho1.mat, rho2.mat)),
                DensityOperator(np.kron(sig1.mat, sig2.mat)),
            )
            assert joint == pytest.approx(
                qre(rho1, sig1) + qre(rho2, sig2), abs=1e-9
            )


class TestChi2:
    def test_self_divergence_is_zero(self, rng):
        rho = random_density(3, rng)
        assert chi2(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_commuting_case(self):
        assert chi2(DIAG_HALF, DIAG_91) == pytest.approx(16 / 9, abs=1e-12)

    def test_random_diagonal_pairs_match_classical_formula(self, rng):
        for _ in range(30):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
            got = chi2(
                DensityOperator(np.diag(p).astype(complex)),
                DensityOperator(np.diag(q).astype(complex)),
            )
            assert got == pytest.approx(np.sum(p**2 / q) - 1, abs=1e-10)

    def test_support_violation_is_infinite(self):
        assert math.isinf(chi2(DIAG_HALF, DensityOperator.basis_state(2, 0)))


def _random_unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(g)[0]


def _in_subspace(state, u):
    """state (rank k) placed on the span of the first k columns of u."""
    k, dim = state.dim, u.shape[0]
    m = np.zeros((dim, dim), dtype=complex)
    m[:k, :k] = state.mat
    return DensityOperator(u @ m @ u.conj().T)


class TestOracles:
    """Seeded random states against dense formulas computed another way."""

    @pytest.mark.parametrize("seed", range(12))
    def test_qre_matches_matrix_log(self, seed):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 5
        rho = random_density(dim, rng, floor=0.05)
        sigma = random_density(dim, rng, floor=0.05)
        expect = np.trace(rho.mat @ (logm(rho.mat) - logm(sigma.mat))).real / LN2
        assert qre(rho, sigma) == pytest.approx(expect, rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize("seed", range(12))
    def test_chi2_matches_pseudo_inverse(self, seed):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 5
        rank = dim if seed % 2 else max(1, dim - 1 - seed % 3)
        u = _random_unitary(dim, rng)
        sigma = _in_subspace(random_density(rank, rng, floor=0.05), u)
        rho = _in_subspace(random_density(rank, rng), u)
        pinv = np.linalg.pinv(sigma.mat, rcond=1e-10, hermitian=True)
        expect = max(0.0, np.trace(rho.mat @ rho.mat @ pinv).real - 1.0)
        assert chi2(rho, sigma) == pytest.approx(expect, rel=1e-9, abs=1e-11)
        if rank < dim:
            assert chi2(random_pure(dim, rng), sigma) == math.inf


class TestSupportContained:
    def test_full_rank_target_always_contains(self, rng):
        sigma = random_density(3, rng, floor=0.2)
        for _ in range(10):
            assert support_contained(random_density(3, rng), sigma)

    def test_mixed_not_inside_pure(self):
        assert not support_contained(
            DensityOperator.maximally_mixed(2), DensityOperator.basis_state(2, 0)
        )

    def test_rank_one_inside_rank_two_on_qutrit(self, rng):
        # Explicit projector-algebra oracle on a qutrit.
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        rho = DensityOperator(np.outer(v, v).astype(complex))
        sig = DensityOperator(np.diag([0.5, 0.5, 0.0]).astype(complex))
        assert support_contained(rho, sig)
        proj = np.diag([1.0, 1.0, 0.0])
        assert np.linalg.norm(proj @ v - v) <= 1e-12
        flipped = DensityOperator(np.diag([0.0, 0.5, 0.5]).astype(complex))
        assert not support_contained(rho, flipped)


def _leaky_pair(dim, mass, rotated, rng):
    """(rho, sigma): sigma of rank dim - 1 in a random basis, and rho with
    exactly ``mass`` on sigma's kernel vector k. A diagonal leak mixes in k
    itself; a rotated leak tilts one eigenvector of rho towards k, so that
    its residual on the kernel exceeds the mass by the inverse of its
    eigenvalue."""
    u = _random_unitary(dim, rng)
    live, k = u[:, :-1], u[:, -1]
    sigma = live @ random_density(dim - 1, rng, floor=0.2).mat @ live.conj().T
    inside = live @ random_density(dim - 1, rng).mat @ live.conj().T
    if rotated:
        t = rng.uniform(0.2, 0.5)
        s = live @ random_pure(dim - 1, rng).mat[:, 0]
        s = s / np.linalg.norm(s)
        psi = math.sqrt(1.0 - mass / t) * s + math.sqrt(mass / t) * k
        leak = t, np.outer(psi, psi.conj())
    else:
        leak = mass, np.outer(k, k.conj())
    rho = (1.0 - leak[0]) * inside + leak[0] * leak[1]
    return DensityOperator(rho), DensityOperator(sigma)


class TestSupportEdge:
    """One support test: the verdict of ``support_contained`` is the
    finiteness of both divergences, for leaks on either side of the
    allowance, and a single-site pass carries over to tensor powers."""

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_verdicts_agree(self, seed, factor, dim, rotated):
        rng = np.random.default_rng(seed)
        rho, sigma = _leaky_pair(dim, factor * SUPPORT_TOL, rotated, rng)
        inside = support_contained(rho, sigma)
        assert inside == (factor < 1.0)
        assert math.isfinite(qre(rho, sigma)) == inside
        assert math.isfinite(chi2(rho, sigma)) == inside

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_powers_stay_finite(self, dim, rotated):
        rng = np.random.default_rng(dim)
        rho, sigma = _leaky_pair(dim, 0.9 * SUPPORT_TOL, rotated, rng)
        # rho^(x)k has, in sigma's Kronecker-power eigenbasis, the outer
        # product of rho's site overlaps; its kernel mass grows as k times
        # the site's, within the allowance of SUPPORT_TOL per site.
        v = sigma.eigh()[1]
        site = np.real(np.diagonal(v.conj().T @ rho.mat @ v))
        for k in range(1, max_exact_block(dim) + 1):
            power = functools.partial(_outer_power, np.multiply, n=k)
            kernel = _outer_power(np.logical_or, sigma.kernel, k)
            d = qre_spectral(power(rho.eigvals), power(site), power(sigma.eigvals), kernel, k)
            assert math.isfinite(d), k


class TestCovertConstant:
    def test_worked_diagonal_model(self):
        model = WillieModel(rho0=DIAG_91, rho_pi=DIAG_HALF)
        assert covert_constant(model) == pytest.approx(0.75, abs=1e-12)

    def test_identical_outputs_unbounded(self, rng):
        rho = random_density(2, rng)
        assert math.isinf(covert_constant(WillieModel(rho0=rho, rho_pi=rho)))

    def test_support_violation_raises(self):
        model = WillieModel(
            rho0=DensityOperator.basis_state(2, 0),
            rho_pi=DensityOperator.maximally_mixed(2),
        )
        with pytest.raises(SupportViolationError):
            covert_constant(model)

    def test_damping_environment_pipeline(self):
        # Vacuum innocent input leaves the damping environment pure, so the
        # support condition fails outright.
        comp = complementary(amplitude_damping(0.5))
        model = willie_model(comp, DensityOperator.basis_state(2, 0))
        with pytest.raises(SupportViolationError):
            covert_constant(model)
        # The excited innocent input keeps the environment full rank.
        model = willie_model(
            complementary(amplitude_damping(0.3)), DensityOperator.basis_state(2, 1)
        )
        assert covert_constant(model) == pytest.approx(math.sqrt(28 / 3), abs=1e-12)


class TestBudget:
    def test_worked_value(self):
        assert q_for_budget(0.75, 0.01, 10**4) == pytest.approx(7.5e-4)

    def test_zero_budget(self):
        assert q_for_budget(0.75, 0.0, 100) == 0.0

    def test_clamped_to_one(self):
        assert q_for_budget(1e9, 0.5, 4) == 1.0

    def test_nan_constant_refused(self):
        # min(1.0, nan) is 1.0, so a NaN constant would pass as the clamp.
        with pytest.raises(ValueError, match="covert constant"):
            q_for_budget(float("nan"), 0.05, 10)

    def test_nan_block_length_refused(self):
        # min(1.0, c sqrt(delta / nan)) is 1.0: a NaN n would read as the clamp.
        with pytest.raises(ValueError, match="at least one channel use"):
            q_for_budget(1.0, 0.05, float("nan"))


def test_mixing_bound_against_chi_square(rng):
    # The single-use mixture divergence never exceeds q^2 chi2 (nats).
    for _ in range(500):
        sig = random_density(2, rng, floor=0.05)
        rho = random_density(2, rng)
        d_chi = chi2(rho, sig)
        for q in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
            mix = DensityOperator((1 - q) * sig.mat + q * rho.mat)
            assert LN2 * qre(mix, sig) <= q * q * d_chi + 1e-10


def test_divergence_ordering_on_commuting_pairs(rng):
    # chi2 >= qre in nats >= squared-trace-distance term, classical oracles.
    for _ in range(50):
        p = rng.dirichlet(np.ones(2))
        q = rng.dirichlet(np.ones(2)) * 0.8 + 0.1
        rho = DensityOperator(np.diag(p).astype(complex))
        sig = DensityOperator(np.diag(q).astype(complex))
        d_nats = LN2 * qre(rho, sig)
        assert chi2(rho, sig) >= d_nats - 1e-10
        tdist = 0.5 * np.sum(np.abs(p - q))
        assert d_nats >= 2 * tdist**2 - 1e-10
