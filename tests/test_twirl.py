import tracemalloc

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
from covertq.errors import DegenerateChannelError, DimensionCapError
from covertq.twirl import (
    PauliDistribution,
    ProjectionStats,
    bell_vectors,
    compose_with_failure,
    monte_carlo_twirl,
    projection_stats,
    twirl_parameters,
)
from conftest import branch_loop_reference, random_channel, random_pure, twirled_replaced_choi

BELL_PROJ = np.outer(bell_vectors()[0], bell_vectors()[0].conj())


class TestPauliDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            PauliDistribution((0.5, 0.5, 0.5, -0.5))
        with pytest.raises(ValueError):
            PauliDistribution((0.3, 0.3, 0.3, 0.3))
        with pytest.raises(ValueError, match="exactly four"):
            PauliDistribution([0.5, 0.5])
        with pytest.raises(ValueError, match="must be finite"):
            PauliDistribution([float("nan"), 0.0, 0.0, 1.0])
        p = PauliDistribution([0.7, 0.1, 0.1, 0.1])
        np.testing.assert_allclose(p.weights, [0.7, 0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="read-only"):
            p.weights[0] = 1.0


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

    def test_block_matches_the_full_choi_bit_for_bit(self, rng):
        # The 4x4 block is summed from the two qubit rows of each Kraus
        # operator, entry for entry the block of the full Choi matrix.
        for _ in range(100):
            ch = random_channel(2, int(rng.integers(2, 6)), int(rng.integers(1, 5)), rng)
            idx = [0, 1, ch.d_out, ch.d_out + 1]  # output levels 0 and 1 of each reference row
            block = choi(ch)[np.ix_(idx, idx)]
            assert np.array_equal(choi(ch, levels=2), block)
            succ = float(np.trace(block).real)
            stats = projection_stats(ch)
            assert stats.p_f == min(1.0, max(0.0, 1.0 - succ))
            assert np.array_equal(stats.conditional_choi, block / succ)

    def test_memory_does_not_grow_with_the_output(self, rng):
        # One qubit isometry into 1024 levels, whose full Choi matrix is
        # 32 MiB; only the 4x4 qubit block is formed.
        ch = random_channel(2, 1024, 1, rng)
        tracemalloc.start()
        try:
            projection_stats(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_needs_qubit_input(self, rng):
        with pytest.raises(DimensionCapError, match="qubit-input"):
            projection_stats(random_channel(3, 3, 2, rng))
        with pytest.raises(ValueError, match="no qubit subspace"):
            projection_stats(random_channel(2, 1, 2, rng))


class TestTwirlParameters:
    def test_bell_projector_fixed_point(self):
        q = twirl_parameters(ProjectionStats(0.0, BELL_PROJ))
        np.testing.assert_allclose(q.weights, [1, 0, 0, 0], atol=1e-12)

    def test_pauli_channel_weights_recovered(self, rng):
        w = rng.dirichlet(np.ones(4))
        stats = projection_stats(pauli_channel(w))
        np.testing.assert_allclose(
            twirl_parameters(stats).weights, w, atol=1e-12
        )

    def test_amplitude_damping_explicit_overlaps(self):
        gamma = 0.2
        stats = projection_stats(amplitude_damping(gamma))
        got = twirl_parameters(stats).weights
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
        q = PauliDistribution((0.8, 0.1, 0.06, 0.04))
        np.testing.assert_allclose(
            compose_with_failure(q, 0.0).weights, q.weights
        )

    def test_certain_failure_flattens_identity_channel(self):
        p = compose_with_failure(PauliDistribution((1, 0, 0, 0)), 1.0)
        np.testing.assert_allclose(p.weights, [0.25, 0.25, 0.25, 0.25])

    def test_literal_formula(self):
        q = PauliDistribution((0.9, 0.05, 0.03, 0.02))
        p = compose_with_failure(q, 0.2).weights
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
                    q = PauliDistribution((a, b, c, round(1 - a - b - c, 10)))
                    for p_f in grid:
                        out = compose_with_failure(q, p_f)  # validates on build
                        assert out.weights.sum() == pytest.approx(1.0)


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
                choi(pauli_channel(p.weights)),
                atol=1e-9,
            )

    @pytest.mark.parametrize("p_leak", [0.1, 0.25, 0.7])
    def test_leak_channels(self, p_leak):
        ch = qubit_leak(p_leak)
        stats = projection_stats(ch)
        p = compose_with_failure(twirl_parameters(stats), stats.p_f)
        np.testing.assert_allclose(
            twirled_replaced_choi(ch), choi(pauli_channel(p.weights)), atol=1e-9
        )


def _estimate(ch, samples: int, seed: int):
    """The analytic twirled weights of ``ch`` and the sampler's estimate
    of them, drawn from the law twirl-check prints."""
    stats = projection_stats(ch)
    q_tw = twirl_parameters(stats)
    return q_tw, monte_carlo_twirl(q_tw, stats.p_f, samples, seed)


def test_shot_law_matches_the_branch_physics():
    # The sampler draws from (1 - p_f) q_tw and p_f; the test-side branch
    # loop gives each branch's success and Bell outcome law, and a uniform
    # branch choice averages them. Output levels past 2 leak out of the
    # qubit subspace.
    rng = np.random.default_rng(2024)
    drawn = [random_channel(2, 2 + i % 3, 1 + (i // 3) % 4, rng) for i in range(60)]
    for i, ch in enumerate([*drawn, qubit_leak(0.25), amplitude_damping(0.3), identity_channel(2)]):
        stats = projection_stats(ch)
        law = [*(1.0 - stats.p_f) * twirl_parameters(stats).weights, stats.p_f]
        succ, outcome = branch_loop_reference(ch)
        bell = succ @ outcome / 4.0
        want = np.array([*bell, 1.0 - bell.sum()])
        np.testing.assert_allclose(law, want, rtol=0, atol=1e-15, err_msg=str(i))


class TestMonteCarlo:
    def test_identity_channel_is_exact(self):
        for seed in (0, 1, 12345):
            _, est = _estimate(identity_channel(2), 1000, seed)
            np.testing.assert_allclose(est.weights, [1, 0, 0, 0])

    def test_depolarizing_converges(self):
        analytic, est = _estimate(depolarizing(0.4), 100000, seed=7)
        assert np.max(np.abs(est.weights - analytic.weights)) <= 0.01

    def test_amplitude_damping_converges(self):
        analytic, est = _estimate(amplitude_damping(0.2), 100000, seed=11)
        assert np.max(np.abs(est.weights - analytic.weights)) <= 0.01

    @pytest.mark.parametrize("samples", [10**4, 10**5, 10**6])
    def test_error_scales_with_samples(self, samples):
        analytic, est = _estimate(depolarizing(0.4), samples, seed=3)
        gap = np.max(np.abs(est.weights - analytic.weights))
        assert gap <= 3.0 / np.sqrt(samples)

    def test_seed_reproducible(self):
        _, a = _estimate(amplitude_damping(0.35), 5000, seed=42)
        _, b = _estimate(amplitude_damping(0.35), 5000, seed=42)
        assert np.array_equal(a.weights, b.weights)

    def test_leak_discards_failures(self):
        analytic, est = _estimate(qubit_leak(0.25), 100000, seed=5)
        assert np.max(np.abs(est.weights - analytic.weights)) <= 0.01

    def test_sample_count_beyond_memory(self):
        # One multinomial draw: 10**12 shots would need terabytes as
        # per-shot arrays.
        analytic, est = _estimate(qubit_leak(0.25), 10**12, seed=5)
        assert np.max(np.abs(est.weights - analytic.weights)) <= 1e-5

    def test_input_refusals(self):
        q = PauliDistribution((1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="at least one sample"):
            monte_carlo_twirl(q, 0.0, 0, seed=0)
        with pytest.raises(ValueError, match="multinomial limit"):
            monte_carlo_twirl(q, 0.0, 2**63, seed=0)
        with pytest.raises(ValueError, match="nonnegative integer"):
            monte_carlo_twirl(q, 0.0, 10, seed=-1)
        with pytest.raises(ValueError, match="failure probability"):
            monte_carlo_twirl(q, 1.5, 10, seed=0)

    def test_counts_keep_round_off_above_one(self):
        # PauliDistribution admits a sum 1e-11 past 1; numpy's multinomial
        # would refuse that law unless it is normalized.
        q = PauliDistribution((0.6, 0.4 + 1e-11, 0.0, 0.0))
        assert q.weights.sum() > 1.0
        est = monte_carlo_twirl(q, 0.0, 1000, seed=0)
        assert est.weights[2:].tolist() == [0.0, 0.0]
        assert abs(est.weights[1] - 0.4) < 0.1

    def test_all_samples_failing_raises(self):
        # A projection that succeeds, but far more rarely than once in the
        # draw, fails every sample.
        with pytest.raises(DegenerateChannelError, match="every sample failed"):
            _estimate(qubit_leak(1.0 - 1e-9), 1000, seed=0)


def test_uniform_twirl_of_any_state_is_maximally_mixed(rng):
    for _ in range(100):
        rho = random_pure(2, rng).mat
        avg = sum(p @ rho @ p.conj().T for p in PAULIS) / 4
        np.testing.assert_allclose(avg, np.eye(2) / 2, atol=1e-12)
