import numpy as np
import pytest

from covertq.channels import (
    PAULIS,
    amplitude_damping,
    choi,
    depolarizing,
    identity_channel,
    pauli_channel,
    qubit_leak,
)
from covertq.errors import DegenerateChannelError
from covertq.twirl import (
    PauliDistribution,
    ProjectionStats,
    _categorical_counts,
    average_input_state,
    bell_vectors,
    compose_with_failure,
    monte_carlo_twirl,
    projection_stats,
    twirl_parameters,
)
from conftest import random_channel, random_pure, twirled_replaced_choi

BELL_PROJ = np.outer(bell_vectors()[0], bell_vectors()[0].conj())


class TestPauliDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            PauliDistribution(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(ValueError):
            PauliDistribution(0.3, 0.3, 0.3, 0.3)
        p = PauliDistribution.from_array([0.7, 0.1, 0.1, 0.1])
        np.testing.assert_allclose(p.as_array(), [0.7, 0.1, 0.1, 0.1])


class TestProjectionStats:
    def test_identity_channel(self):
        stats = projection_stats(identity_channel(2))
        assert stats.p_f == 0.0
        np.testing.assert_allclose(stats.conditional_choi, BELL_PROJ, atol=1e-12)

    def test_leak_probability_matches_block_weight(self):
        ch = qubit_leak(0.25)
        stats = projection_stats(ch)
        assert stats.p_f == pytest.approx(0.25, abs=1e-12)
        # Direct Choi-block oracle.
        j = choi(ch)
        idx = [0, 1, 3, 4]
        blk = j[np.ix_(idx, idx)]
        assert stats.p_f == pytest.approx(1 - np.trace(blk).real, abs=1e-12)

    def test_fully_depolarizing(self):
        stats = projection_stats(depolarizing(1.0))
        assert stats.p_f == 0.0
        np.testing.assert_allclose(stats.conditional_choi, np.eye(4) / 4, atol=1e-12)

    def test_total_leak_is_degenerate(self):
        with pytest.raises(DegenerateChannelError):
            projection_stats(qubit_leak(1.0))

    def test_needs_qubit_input(self, rng):
        with pytest.raises(ValueError):
            projection_stats(random_channel(3, 3, 2, rng))


class TestTwirlParameters:
    def test_bell_projector_fixed_point(self):
        q = twirl_parameters(ProjectionStats(0.0, BELL_PROJ))
        np.testing.assert_allclose(q.as_array(), [1, 0, 0, 0], atol=1e-12)

    def test_pauli_channel_weights_recovered(self, rng):
        w = rng.dirichlet(np.ones(4))
        stats = projection_stats(pauli_channel(w))
        np.testing.assert_allclose(
            twirl_parameters(stats).as_array(), w, atol=1e-12
        )

    def test_amplitude_damping_explicit_overlaps(self):
        gamma = 0.2
        stats = projection_stats(amplitude_damping(gamma))
        got = twirl_parameters(stats).as_array()
        # Oracle: explicit Bell-basis inner products of the Choi matrix.
        j = choi(amplitude_damping(gamma))
        expect = np.array([np.real(b.conj() @ j @ b) for b in bell_vectors()])
        np.testing.assert_allclose(got, expect / expect.sum(), atol=1e-12)
        root = np.sqrt(1 - gamma)
        np.testing.assert_allclose(
            got,
            [(2 - gamma + 2 * root) / 4, gamma / 4, gamma / 4, (2 - gamma - 2 * root) / 4],
            atol=1e-12,
        )


class TestComposeWithFailure:
    def test_no_failure_is_identity(self):
        q = PauliDistribution(0.8, 0.1, 0.06, 0.04)
        np.testing.assert_allclose(
            compose_with_failure(q, 0.0).as_array(), q.as_array()
        )

    def test_certain_failure_flattens_identity_channel(self):
        p = compose_with_failure(PauliDistribution(1, 0, 0, 0), 1.0)
        np.testing.assert_allclose(p.as_array(), [0.25, 0.25, 0.25, 0.25])

    def test_literal_formula(self):
        q = PauliDistribution(0.9, 0.05, 0.03, 0.02)
        p = compose_with_failure(q, 0.2).as_array()
        scale = 1 - 0.75 * 0.2
        np.testing.assert_allclose(
            p,
            [scale * 0.9, scale * 0.05 + 0.05, scale * 0.03 + 0.05, scale * 0.02 + 0.05],
        )

    def test_valid_distribution_on_parameter_grid(self):
        grid = np.arange(0.0, 1.0001, 0.05)
        for a in grid:
            for b in grid:
                if a + b > 1:
                    continue
                for c in grid:
                    if a + b + c > 1:
                        continue
                    q = PauliDistribution(a, b, c, round(1 - a - b - c, 10))
                    for p_f in grid:
                        out = compose_with_failure(q, p_f)  # validates on build
                        assert out.as_array().sum() == pytest.approx(1.0)


class TestOperatorIdentity:
    """The twirled projected-with-replacement map is the Pauli channel with
    the composed weights, checked at the Choi level."""

    def test_random_qubit_channels(self, rng):
        # Qubit-to-qubit channels never fail the projection.
        for k in (1, 2, 3, 4):
            ch = random_channel(2, 2, k, rng)
            stats = projection_stats(ch)
            assert stats.p_f == pytest.approx(0.0, abs=1e-12)
            p = compose_with_failure(twirl_parameters(stats), stats.p_f)
            np.testing.assert_allclose(
                twirled_replaced_choi(ch),
                choi(pauli_channel(p.as_array())),
                atol=1e-9,
            )

    @pytest.mark.parametrize("p_leak", [0.1, 0.25, 0.7])
    def test_leak_channels(self, p_leak):
        ch = qubit_leak(p_leak)
        stats = projection_stats(ch)
        p = compose_with_failure(twirl_parameters(stats), stats.p_f)
        np.testing.assert_allclose(
            twirled_replaced_choi(ch), choi(pauli_channel(p.as_array())), atol=1e-9
        )


class TestMonteCarlo:
    def test_identity_channel_is_exact(self):
        for seed in (0, 1, 12345):
            est = monte_carlo_twirl(identity_channel(2), 1000, seed)
            np.testing.assert_allclose(est.as_array(), [1, 0, 0, 0])

    def test_depolarizing_converges(self):
        analytic = twirl_parameters(projection_stats(depolarizing(0.4)))
        est = monte_carlo_twirl(depolarizing(0.4), 100000, seed=7)
        assert np.max(np.abs(est.as_array() - analytic.as_array())) <= 0.01

    def test_amplitude_damping_converges(self):
        analytic = twirl_parameters(projection_stats(amplitude_damping(0.2)))
        est = monte_carlo_twirl(amplitude_damping(0.2), 100000, seed=11)
        assert np.max(np.abs(est.as_array() - analytic.as_array())) <= 0.01

    @pytest.mark.parametrize("samples", [10**4, 10**5, 10**6])
    def test_error_scales_with_samples(self, samples):
        analytic = twirl_parameters(projection_stats(depolarizing(0.4)))
        est = monte_carlo_twirl(depolarizing(0.4), samples, seed=3)
        gap = np.max(np.abs(est.as_array() - analytic.as_array()))
        assert gap <= 3.0 / np.sqrt(samples)

    def test_seed_reproducible(self):
        a = monte_carlo_twirl(amplitude_damping(0.35), 5000, seed=42)
        b = monte_carlo_twirl(amplitude_damping(0.35), 5000, seed=42)
        assert a == b

    def test_leak_discards_failures(self):
        analytic = twirl_parameters(projection_stats(qubit_leak(0.25)))
        est = monte_carlo_twirl(qubit_leak(0.25), 100000, seed=5)
        assert np.max(np.abs(est.as_array() - analytic.as_array())) <= 0.01

    def test_sample_count_beyond_memory(self):
        # One multinomial draw: 10**12 shots would need terabytes as
        # per-shot arrays.
        analytic = twirl_parameters(projection_stats(qubit_leak(0.25)))
        est = monte_carlo_twirl(qubit_leak(0.25), 10**12, seed=5)
        assert np.max(np.abs(est.as_array() - analytic.as_array())) <= 1e-5

    def test_counts_keep_round_off_above_one(self):
        counts = _categorical_counts([0.6, 0.4 + 1e-9, 0.0], 1000, seed=0)
        assert counts.sum() == 1000 and counts[2] == 0
        with pytest.raises(ValueError):
            _categorical_counts([1.0], 0, seed=0)

    def test_all_samples_failing_raises(self):
        from covertq.errors import EstimationFailureError

        with pytest.raises(EstimationFailureError):
            monte_carlo_twirl(qubit_leak(1.0), 1000, seed=0)


class TestAverageInputState:
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_maximally_mixed_power(self, w):
        st = average_input_state(w)
        np.testing.assert_allclose(st.mat, np.eye(2**w) / 2**w)

    def test_cap(self):
        from covertq.errors import DimensionCapError

        with pytest.raises(DimensionCapError):
            average_input_state(11)


def test_uniform_twirl_of_any_state_is_maximally_mixed(rng):
    for _ in range(100):
        rho = random_pure(2, rng).mat
        avg = sum(p @ rho @ p.conj().T for p in PAULIS) / 4
        np.testing.assert_allclose(avg, np.eye(2) / 2, atol=1e-12)
