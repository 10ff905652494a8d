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
from covertq.covert import LN2, covert_constant, helstrom_error, q_for_budget
from covertq.detect import (
    DetectionResult,
    detection_at_n,
    max_exact_block,
    pipeline_tomography,
)
from covertq.errors import DimensionCapError
from covertq.linops import DensityOperator
from covertq.sparse import SparseSignalConfig, WardenStates, bound_chain
from covertq.twirl import compose_with_failure, projection_stats, twirl_parameters
from conftest import random_density, random_willie_model

WORKED = WillieModel(
    rho0=DensityOperator(np.diag([0.9, 0.1]).astype(complex)),
    rho_pi=DensityOperator(np.diag([0.5, 0.5]).astype(complex)),
)


class TestCaps:
    def test_exact_block_limits(self):
        assert max_exact_block(2) == 10
        assert max_exact_block(3) == 6
        assert max_exact_block(4) == 5

    def test_cap_enforced(self, rng):
        model = random_willie_model(rng, dim=3)
        cfg = SparseSignalConfig(n=7, q=0.3, vartheta=0.3)
        with pytest.raises(DimensionCapError, match="n <= 6"):
            detection_at_n(WardenStates(model, cfg), 0.05)


class TestDetection:
    def test_identical_outputs_blind_the_warden(self, rng):
        rho = random_density(2, rng, floor=0.2)
        model = WillieModel(rho0=rho, rho_pi=rho)
        res = detection_at_n(
            WardenStates(model, SparseSignalConfig(n=3, q=0.3, vartheta=0.3)), 0.05
        )
        assert res.trace_distance == pytest.approx(0.0, abs=1e-10)
        assert res.p_e_willie == pytest.approx(0.5, abs=1e-10)
        assert res.covert_ok

    def test_single_use_reduces_to_helstrom(self):
        cfg = SparseSignalConfig(n=1, q=0.9, vartheta=0.15)
        assert cfg.weight_set() == [1]
        res = detection_at_n(WardenStates(WORKED, cfg), 0.5)
        assert res.p_e_willie == pytest.approx(
            helstrom_error(WORKED.rho_pi, WORKED.rho0), abs=1e-12
        )

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
            res = detection_at_n(WardenStates(model, cfg), 0.05)
            if math.isinf(res.qre_exact):
                continue
            floor = 0.5 - math.sqrt(LN2 * res.qre_exact / 8)
            assert res.p_e_willie >= floor - 1e-10

    def test_support_violation_reported_not_raised(self):
        model = WillieModel(
            rho0=DensityOperator.basis_state(2, 0),
            rho_pi=DensityOperator.maximally_mixed(2),
        )
        res = detection_at_n(
            WardenStates(model, SparseSignalConfig(n=2, q=0.4, vartheta=0.3)), 0.1
        )
        assert math.isinf(res.qre_exact)
        assert not res.covert_ok
        assert res.trace_distance > 0

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

    def test_result_validation(self):
        with pytest.raises(ValueError):
            DetectionResult(
                n=1,
                trace_distance=0.4,
                p_e_willie=0.1,
                qre_exact=0.0,
                qre_budget=0.1,
                covert_ok=True,
            )


class TestPipelineTomography:
    def test_identity_channel(self):
        est = pipeline_tomography(identity_channel(2), 2000, seed=0)
        np.testing.assert_allclose(est.as_array(), [1, 0, 0, 0])

    def test_depolarizing_matches_analytic(self):
        ch = depolarizing(0.4)
        stats = projection_stats(ch)
        expect = compose_with_failure(twirl_parameters(stats), stats.p_f)
        est = pipeline_tomography(ch, 100000, seed=1)
        assert np.max(np.abs(est.as_array() - expect.as_array())) <= 0.01

    def test_leak_exercises_failure_branch(self):
        ch = qubit_leak(0.25)
        stats = projection_stats(ch)
        assert stats.p_f == pytest.approx(0.25, abs=1e-12)
        expect = compose_with_failure(twirl_parameters(stats), stats.p_f)
        est = pipeline_tomography(ch, 100000, seed=2)
        assert np.max(np.abs(est.as_array() - expect.as_array())) <= 0.01

    def test_amplitude_damping_matches_analytic(self):
        ch = amplitude_damping(0.2)
        stats = projection_stats(ch)
        expect = compose_with_failure(twirl_parameters(stats), stats.p_f)
        est = pipeline_tomography(ch, 100000, seed=3)
        assert np.max(np.abs(est.as_array() - expect.as_array())) <= 0.01

    def test_sample_count_beyond_memory(self):
        ch = qubit_leak(0.25)
        stats = projection_stats(ch)
        q_tw = twirl_parameters(stats).as_array()
        est = pipeline_tomography(ch, 10**12, seed=4)
        expect = (1 - stats.p_f) * q_tw + stats.p_f / 4
        assert np.max(np.abs(est.as_array() - expect)) <= 1e-5

    def test_seed_reproducible_bit_for_bit(self):
        a = pipeline_tomography(qubit_leak(0.3), 5000, seed=99)
        b = pipeline_tomography(qubit_leak(0.3), 5000, seed=99)
        assert a == b
        assert a.as_array().sum() == pytest.approx(1.0)
