import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from covertq.covert import entropy_bits
from covertq.rates import (
    ThroughputBound,
    assisted_bound,
    distillation_rate,
    hashing_rate,
    unassisted_bound,
)
from covertq.twirl import PauliDistribution, compose_with_failure

UNIFORM = PauliDistribution((0.25, 0.25, 0.25, 0.25))
CLEAN = PauliDistribution((1.0, 0.0, 0.0, 0.0))


class TestEntropy:
    def test_deterministic_vector(self):
        assert entropy_bits(CLEAN.weights) == 0.0

    def test_uniform_vector(self):
        assert entropy_bits(UNIFORM.weights) == pytest.approx(2.0)

    def test_direct_formula(self):
        p = PauliDistribution((0.9, 1 / 30, 1 / 30, 1 / 30))
        expect = -(0.9 * math.log2(0.9) + 3 * (1 / 30) * math.log2(1 / 30))
        assert entropy_bits(p.weights) == pytest.approx(expect, abs=1e-12)


class TestHashingRate:
    def test_clean_channel(self):
        assert hashing_rate(CLEAN) == 1.0

    def test_uniform_channel(self):
        assert hashing_rate(UNIFORM) == 0.0

    def test_depolarizing_family_zero_crossing(self):
        def margin(p):
            return 1.0 - entropy_bits(
                PauliDistribution((1 - p, p / 3, p / 3, p / 3)).weights
            )

        root = brentq(margin, 0.05, 0.35, xtol=1e-12)
        assert root == pytest.approx(0.1893, abs=5e-4)


class TestDistillationRate:
    def test_perfect(self):
        assert distillation_rate(CLEAN, 0.0) == 1.0

    def test_always_fails(self):
        assert distillation_rate(CLEAN, 1.0) == 0.0

    def test_failure_probability_range(self):
        with pytest.raises(ValueError, match=r"failure probability must be in \[0, 1\]"):
            distillation_rate(CLEAN, 2.0)

    def test_direct_formula(self):
        q = PauliDistribution((0.9, 0.05, 0.03, 0.02))
        assert distillation_rate(q, 0.2) == pytest.approx(
            0.8 * max(0.0, 1.0 - entropy_bits(q.weights))
        )


class TestBounds:
    def test_zero_rate_gives_zero_count(self):
        b = unassisted_bound(1000, 0.1, 0.75, 0.01, hashing_rate(UNIFORM))
        assert b.m_lower == 0.0

    def test_worked_arithmetic(self):
        # rate is exactly 0.5 for a clean twirl with half the projections lost
        rate = distillation_rate(CLEAN, 0.5)
        assert rate == pytest.approx(0.5)
        b = assisted_bound(10**6, 0.1, 0.75, 0.01, rate)
        assert b.m_lower == pytest.approx(0.9 * 1000 * 0.75 * 0.5 * 0.1)

    def test_holds_no_rate(self):
        # The caller passes the rate in and keeps it.
        assert "rate" not in ThroughputBound._fields

    def test_sqrt_scaling(self):
        rate = hashing_rate(compose_with_failure(CLEAN, 0.1))
        b1 = unassisted_bound(10**4, 0.2, 1.0, 0.04, rate)
        b2 = unassisted_bound(2 * 10**4, 0.2, 1.0, 0.04, rate)
        assert b2.m_lower == pytest.approx(math.sqrt(2) * b1.m_lower)

    def test_classical_budget_with_total_failure(self):
        b = assisted_bound(10**4, 0.1, 0.75, 0.01, distillation_rate(CLEAN, 1.0))
        assert b.m_lower == 0.0
        assert b.classical_bits_upper == pytest.approx(1.1 * 100 * 0.75 * 0.1)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            unassisted_bound(0, 0.1, 0.75, 0.01, 1.0)
        # The weight tolerance lies in (0, 1]: at 1 no qubit is bounded.
        assert unassisted_bound(10, 1.0, 0.75, 0.01, 1.0).m_lower == 0.0
        assert assisted_bound(10, 1.0, 0.75, 0.01, 1.0).m_lower == 0.0
        with pytest.raises(ValueError, match=r"weight tolerance must lie in \(0, 1\]"):
            unassisted_bound(10, 1.0 + 1e-12, 0.75, 0.01, 1.0)
        for bound in (unassisted_bound, assisted_bound):
            # A rate is qubits per use of a qubit channel.
            for rate in (-1e-12, 1.0 + 1e-12, float("nan")):
                with pytest.raises(ValueError, match=r"rate must lie in \[0, 1\]"):
                    bound(10, 0.1, 0.75, 0.01, rate)
            # Past the double range: sqrt(n) would raise OverflowError.
            with pytest.raises(ValueError, match="double range"):
                bound(10**400, 0.1, 0.75, 0.01, 0.5)
            with pytest.raises(ValueError, match="covert constant"):
                bound(100, 0.1, float("nan"), 0.05, 0.5)
            # A NaN n would give m_lower and classical_bits_upper as NaN.
            with pytest.raises(ValueError, match="at least one channel use"):
                bound(float("nan"), 0.1, 1.0, 0.05, 0.5)


def test_distillation_dominates_hashing_on_grid():
    # Coarse grid here; the acceptance suite runs the exhaustive one.
    steps = np.arange(0.0, 1.0001, 0.1)
    for a, b, c in itertools.product(steps, repeat=3):
        if a + b + c > 1.0 + 1e-12:
            continue
        q = PauliDistribution((a, b, c, max(0.0, round(1 - a - b - c, 12))))
        for p_f in steps:
            r_d = distillation_rate(q, float(p_f))
            r = hashing_rate(compose_with_failure(q, float(p_f)))
            assert r_d >= r - 1e-12


def test_rate_monotonicity_in_bound_inputs():
    r = hashing_rate(compose_with_failure(PauliDistribution((0.95, 0.02, 0.02, 0.01)), 0.0))
    base = unassisted_bound(10**4, 0.2, 0.8, 0.02, r)
    assert unassisted_bound(10**5, 0.2, 0.8, 0.02, r).m_lower >= base.m_lower
    assert unassisted_bound(10**4, 0.1, 0.8, 0.02, r).m_lower >= base.m_lower
    assert unassisted_bound(10**4, 0.2, 1.2, 0.02, r).m_lower >= base.m_lower
    assert unassisted_bound(10**4, 0.2, 0.8, 0.05, r).m_lower >= base.m_lower


def test_rates_invariant_under_xyz_permutation():
    for perm in itertools.permutations([0.05, 0.03, 0.02]):
        p = PauliDistribution((0.9, *perm))
        assert hashing_rate(p) == pytest.approx(
            hashing_rate(PauliDistribution((0.9, 0.05, 0.03, 0.02)))
        )
        assert distillation_rate(p, 0.3) == pytest.approx(
            distillation_rate(PauliDistribution((0.9, 0.05, 0.03, 0.02)), 0.3)
        )
