import math

import numpy as np
import pytest

from covertq.channels import (
    WillieModel,
    amplitude_damping,
    depolarizing,
    identity_channel,
    qubit_leak,
)
from covertq.covert import LN2, covert_constant, q_for_budget
from covertq.detect import detection_at_n
from covertq.errors import DimensionCapError
from covertq.linops import DensityOperator, max_exact_block
from covertq.sparse import SparseSignalConfig, WardenStates, bound_chain
from covertq.twirl import compose_with_failure, projection_stats, twirl_parameters
from conftest import pipeline_tomography, random_density, random_willie_model

WORKED = WillieModel(
    rho0=DensityOperator(np.diag([0.9, 0.1]).astype(complex)),
    rho_pi=DensityOperator(np.diag([0.5, 0.5]).astype(complex)),
)


class TestCaps:
    def test_exact_block_limits(self):
        assert max_exact_block(2) == 10
        assert max_exact_block(3) == 6
        assert max_exact_block(4) == 5
        for d in range(2, 1100):
            k = max_exact_block(d)
            assert d**k <= 1024 < d ** (k + 1), d

    def test_cap_enforced(self, rng):
        model = random_willie_model(rng, dim=3)
        cfg = SparseSignalConfig(n=7, q=0.3, vartheta=0.3)
        with pytest.raises(DimensionCapError, match="n <= 6"):
            detection_at_n(WardenStates(model, cfg), 0.05)


class TestDetection:
    def test_identical_outputs_blind_the_warden(self, rng):
        rho = random_density(2, rng, floor=0.2)
        model = WillieModel(rho0=rho, rho_pi=rho)
        st = WardenStates(model, SparseSignalConfig(n=3, q=0.3, vartheta=0.3))
        res = detection_at_n(st, 0.05)
        assert st.figures.trace_distance == pytest.approx(0.0, abs=1e-10)
        assert res.p_e_willie == pytest.approx(0.5, abs=1e-10)
        assert res.covert_ok

    def test_single_use_reduces_to_helstrom(self):
        cfg = SparseSignalConfig(n=1, q=0.9, vartheta=0.15)
        assert list(cfg.weight_range()) == [1]
        res = detection_at_n(WardenStates(WORKED, cfg), 0.5)
        diff = WORKED.rho_pi.mat - WORKED.rho0.mat
        helstrom = 0.5 - 0.25 * np.sum(np.abs(np.linalg.eigvalsh(diff)))
        assert res.p_e_willie == pytest.approx(helstrom, abs=1e-12)

    def test_worked_budgeted_detection(self):
        delta, n = 0.05, 6
        c_q = covert_constant(WORKED)
        q = q_for_budget(c_q, delta, n)
        res = detection_at_n(
            WardenStates(WORKED, SparseSignalConfig(n=n, q=q, vartheta=0.5)), delta
        )
        assert res.covert_ok
        assert res.p_e_willie >= 0.5 - math.sqrt(delta / 8)

    def test_pinsker_floor_on_models(self, rng):
        for _ in range(10):
            model = random_willie_model(rng)
            cfg = SparseSignalConfig(n=3, q=0.3, vartheta=0.4)
            st = WardenStates(model, cfg)
            res = detection_at_n(st, 0.05)
            if math.isinf(st.figures.d_exact):
                continue
            floor = 0.5 - math.sqrt(LN2 * st.figures.d_exact / 8)
            assert res.p_e_willie >= floor - 1e-10

    def test_support_violation_reported_not_raised(self):
        model = WillieModel(
            rho0=DensityOperator.basis_state(2, 0),
            rho_pi=DensityOperator.maximally_mixed(2),
        )
        st = WardenStates(model, SparseSignalConfig(n=2, q=0.4, vartheta=0.3))
        res = detection_at_n(st, 0.1)
        assert math.isinf(st.figures.d_exact)
        assert not res.covert_ok
        assert st.figures.trace_distance > 0

    def test_budgeted_density_is_sufficient(self, rng):
        # Whenever the chi-square end of the chain sits inside the budget,
        # the exact divergence does too. A density derived from a shaded
        # budget keeps the chain end strictly inside delta, so the premise
        # actually fires (at the saturating density the bits-converted chain
        # end always exceeds delta by 1/ln2).
        delta = 0.05
        exercised = 0
        for _ in range(10):
            model = random_willie_model(rng, floor=0.3)
            c_q = covert_constant(model)
            for n in (4, 6):
                q = q_for_budget(c_q, 0.8 * LN2 * delta, n)
                if q >= 1.0:
                    continue
                cfg = SparseSignalConfig(n=n, q=q, vartheta=0.75)
                chain = bound_chain(WardenStates(model, cfg))
                res = detection_at_n(WardenStates(model, cfg), delta)
                if chain.d_chi2_bound <= delta:
                    exercised += 1
                    assert res.covert_ok
        assert exercised >= 10

    def test_budget_is_in_nats(self):
        # delta is a budget in nats and d_exact is in bits: a budget between
        # LN2 * d_exact and d_exact is met.
        st = WardenStates(WORKED, SparseSignalConfig(n=4, q=0.25, vartheta=0.3))
        d_bits = st.figures.d_exact
        assert d_bits > 0
        for delta, ok in (
            (LN2 * d_bits, True),
            (0.5 * (1.0 + LN2) * d_bits, True),
            (0.99 * LN2 * d_bits, False),
        ):
            assert detection_at_n(st, delta).covert_ok is ok

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, -1.0])
    def test_budget_rule_matches_q_for_budget(self, delta):
        # Same refusal as covert.q_for_budget: negative or not finite.
        st = WardenStates(WORKED, SparseSignalConfig(n=4, q=0.25, vartheta=0.3))
        with pytest.raises(ValueError, match="budget must be"):
            detection_at_n(st, delta)
        with pytest.raises(ValueError, match="budget must be"):
            q_for_budget(1.0, delta, 4)


class TestPipelineTomography:
    def test_identity_channel(self):
        est = pipeline_tomography(identity_channel(2), 2000, seed=0)
        np.testing.assert_allclose(est.weights, [1, 0, 0, 0])

    def test_depolarizing_matches_analytic(self):
        ch = depolarizing(0.4)
        stats = projection_stats(ch)
        expect = compose_with_failure(twirl_parameters(stats), stats.p_f)
        est = pipeline_tomography(ch, 100000, seed=1)
        assert np.max(np.abs(est.weights - expect.weights)) <= 0.01

    def test_leak_exercises_failure_branch(self):
        ch = qubit_leak(0.25)
        stats = projection_stats(ch)
        assert stats.p_f == pytest.approx(0.25, abs=1e-12)
        expect = compose_with_failure(twirl_parameters(stats), stats.p_f)
        est = pipeline_tomography(ch, 100000, seed=2)
        assert np.max(np.abs(est.weights - expect.weights)) <= 0.01

    def test_amplitude_damping_matches_analytic(self):
        ch = amplitude_damping(0.2)
        stats = projection_stats(ch)
        expect = compose_with_failure(twirl_parameters(stats), stats.p_f)
        est = pipeline_tomography(ch, 100000, seed=3)
        assert np.max(np.abs(est.weights - expect.weights)) <= 0.01

    def test_sample_count_beyond_memory(self):
        ch = qubit_leak(0.25)
        stats = projection_stats(ch)
        q_tw = twirl_parameters(stats).weights
        est = pipeline_tomography(ch, 10**12, seed=4)
        expect = (1 - stats.p_f) * q_tw + stats.p_f / 4
        assert np.max(np.abs(est.weights - expect)) <= 1e-5

    def test_seed_reproducible_bit_for_bit(self):
        a = pipeline_tomography(qubit_leak(0.3), 5000, seed=99)
        b = pipeline_tomography(qubit_leak(0.3), 5000, seed=99)
        assert np.array_equal(a.weights, b.weights)
        assert a.weights.sum() == pytest.approx(1.0)
