import math

import numpy as np
import pytest
from scipy.linalg import logm
from scipy.optimize import brentq

from covertq.channels import WillieModel, amplitude_damping, complementary, willie_model
from covertq.covert import (
    LN2,
    TAU_ENERGY,
    _solve_beta,
    CovertnessBudget,
    chi2,
    covert_constant,
    gibbs_state,
    gibbs_tail_ratios,
    helstrom_error,
    pinsker_gap,
    q_for_budget,
    qre,
    support_contained,
    vn_entropy,
)
from covertq.errors import SupportViolationError
from covertq.linops import DensityOperator, tensor
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

    def test_additive_over_products(self, rng):
        for _ in range(20):
            rho1, sig1 = random_density(2, rng), random_density(2, rng, floor=0.1)
            rho2, sig2 = random_density(2, rng), random_density(2, rng, floor=0.1)
            joint = qre(
                DensityOperator(tensor(rho1.mat, rho2.mat)),
                DensityOperator(tensor(sig1.mat, sig2.mat)),
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


class TestHelstrom:
    def test_identical_states(self, rng):
        rho = random_density(2, rng)
        assert helstrom_error(rho, rho) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = DensityOperator.basis_state(2, 0)
        b = DensityOperator.basis_state(2, 1)
        assert helstrom_error(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_pair(self):
        assert helstrom_error(DIAG_HALF, DIAG_91) == pytest.approx(0.3, abs=1e-12)


class TestPinsker:
    def test_identical_states(self, rng):
        rho = random_density(2, rng)
        lhs, rhs = pinsker_gap(rho, rho)
        assert lhs == pytest.approx(0.0, abs=1e-10)
        assert rhs == pytest.approx(0.0, abs=1e-5)

    def test_diagonal_pair(self):
        lhs, rhs = pinsker_gap(DIAG_HALF, DIAG_91)
        assert lhs == pytest.approx(0.2, abs=1e-12)
        assert rhs == pytest.approx(math.sqrt(LN2 * kl_bits([0.5, 0.5], [0.9, 0.1]) / 8))
        assert lhs <= rhs

    def test_holds_on_random_pairs(self, rng):
        for _ in range(1000):
            rho = random_density(2, rng)
            sig = random_density(2, rng, floor=0.05)
            lhs, rhs = pinsker_gap(rho, sig)
            assert lhs <= rhs + 1e-10

    def test_support_violation_gives_infinite_bound(self):
        lhs, rhs = pinsker_gap(DIAG_HALF, DensityOperator.basis_state(2, 0))
        assert math.isinf(rhs) and lhs <= rhs


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

    def test_budget_dataclass_consistency(self):
        b = CovertnessBudget.derive(0.75, 0.05, 6)
        assert b.q == pytest.approx(0.75 * math.sqrt(0.05 / 6))
        with pytest.raises(ValueError):
            CovertnessBudget(delta_qre=0.05, c_q=0.75, n=6, q=0.5)


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


class TestGibbs:
    def test_symmetric_midpoint_is_maximally_mixed(self):
        st = gibbs_state(np.diag([0.0, 1.0]), 0.5)
        np.testing.assert_allclose(st.mat, np.eye(2) / 2, atol=1e-10)

    def test_two_level_closed_form(self):
        st = gibbs_state(np.diag([0.0, 1.0]), 0.1)
        np.testing.assert_allclose(st.mat, np.diag([0.9, 0.1]), atol=1e-9)
        beta = math.log(st.mat[0, 0].real / st.mat[1, 1].real)
        assert beta == pytest.approx(math.log(9.0), abs=1e-8)

    def test_three_level_energy_matches(self):
        h = np.diag([0.0, 1.0, 2.0])
        st = gibbs_state(h, 0.5)
        assert np.real(np.trace(st.mat @ h)) == pytest.approx(0.5, abs=1e-8)
        # Bisection oracle: an independent coarse search agrees.
        def energy(beta):
            w = np.exp(-beta * np.array([0.0, 1.0, 2.0]))
            return float(np.sum(w * np.array([0.0, 1.0, 2.0])) / np.sum(w))

        lo, hi = 0.0, 50.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if energy(mid) > 0.5:
                lo = mid
            else:
                hi = mid
        beta = math.log(st.mat[0, 0].real / st.mat[1, 1].real)
        assert beta == pytest.approx((lo + hi) / 2, abs=1e-6)

    def test_negative_temperature_side(self):
        h = np.diag([0.0, 1.0])
        st = gibbs_state(h, 0.8)
        np.testing.assert_allclose(st.mat, np.diag([0.2, 0.8]), atol=1e-9)

    def test_energy_outside_spectrum_rejected(self):
        with pytest.raises(ValueError):
            gibbs_state(np.diag([0.0, 1.0]), 1.2)
        with pytest.raises(ValueError):
            gibbs_state(np.diag([0.0, 1.0]), 0.0)

    def test_maximizes_entropy_at_fixed_energy(self, rng):
        h = np.diag([0.0, 0.7, 1.3, 2.0])
        e0 = 0.9
        g = gibbs_state(h, e0)
        s_star = vn_entropy(g)
        found = 0
        while found < 100:
            a = random_density(4, rng)
            b = random_density(4, rng)
            ea = float(np.real(np.trace(a.mat @ h)))
            eb = float(np.real(np.trace(b.mat @ h)))
            if (ea - e0) * (eb - e0) >= 0:
                continue
            t = (e0 - eb) / (ea - eb)
            mix = DensityOperator(t * a.mat + (1 - t) * b.mat)
            assert np.real(np.trace(mix.mat @ h)) == pytest.approx(e0, abs=1e-10)
            assert vn_entropy(mix) <= s_star + 1e-8
            found += 1

    @pytest.mark.parametrize("seed", range(6))
    def test_bisection_matches_brentq(self, seed):
        rng = np.random.default_rng(seed)
        vals = np.sort(rng.normal(size=rng.integers(2, 9)) * rng.uniform(0.1, 10.0))
        span = vals[-1] - vals[0]

        def residual(beta):
            w = np.exp(-beta * (vals - vals[0]) if beta >= 0 else -beta * (vals - vals[-1]))
            return float(np.sum(w * (vals - energy)) / np.sum(w))

        for frac in (0.05, 0.3, 0.7, 0.95):
            energy = vals[0] + frac * span
            lo, hi = -1.0 / span, 1.0 / span
            while residual(lo) < 0:
                lo *= 2.0
            while residual(hi) > 0:
                hi *= 2.0
            expect = brentq(residual, lo, hi, xtol=1e-15, rtol=1e-15)
            beta = _solve_beta(vals, energy)
            assert (beta > 0) == (energy < vals.mean())
            assert beta == pytest.approx(expect, rel=1e-12, abs=1e-12)
            g = gibbs_state(np.diag(vals), energy)
            assert abs(np.real(np.trace(g.mat)) - 1.0) < 1e-12
            assert abs(float(np.real(np.sum(np.diag(g.mat) * vals))) - energy) <= TAU_ENERGY

    def test_tail_ratio_diagnostics(self):
        h = np.diag([0.0, 1.0, 2.0, 3.0])
        ratios = gibbs_tail_ratios(h, 0.8, DensityOperator.maximally_mixed(4))
        assert len(ratios) == 4
        assert all(r >= 0 for _, r in ratios)
        lams = [lam for lam, _ in ratios]
        assert lams == sorted(lams)
