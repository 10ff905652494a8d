import json

import numpy as np
import pytest

from covertq.channels import (
    QuantumChannel,
    amplitude_damping,
    apply,
    apply_mat,
    choi,
    complementary,
    depolarizing,
    identity_channel,
    load_channel,
    pauli_channel,
    qubit_leak,
    save_channel,
    tp_residual,
    willie_model,
)
from covertq.errors import ChannelFormatError, TracePreservationError
from covertq.linops import DensityOperator
from conftest import random_channel, random_density

BELL = np.zeros((4, 4), dtype=complex)
_phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
BELL[:] = np.outer(_phi, _phi)


def choi_bruteforce(ch):
    """Definition-level Choi oracle: (1/d) sum_ij |i><j| x N(|i><j|)."""
    d = ch.d_in
    j = np.zeros((d * ch.d_out,) * 2, dtype=complex)
    for a in range(d):
        for b in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = 1.0
            out = apply_mat(ch, e)
            j[
                a * ch.d_out : (a + 1) * ch.d_out, b * ch.d_out : (b + 1) * ch.d_out
            ] = out
    return j / d


class TestApply:
    def test_identity(self, rng):
        rho = random_density(2, rng)
        np.testing.assert_allclose(apply(identity_channel(2), rho).mat, rho.mat)

    def test_fully_depolarizing(self, rng):
        rho = random_density(2, rng)
        np.testing.assert_allclose(
            apply(depolarizing(1.0), rho).mat, np.eye(2) / 2, atol=1e-12
        )

    def test_amplitude_damping_by_hand(self):
        rho = DensityOperator.basis_state(2, 1)
        out = apply(amplitude_damping(0.3), rho)
        np.testing.assert_allclose(out.mat, np.diag([0.3, 0.7]), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(identity_channel(2), DensityOperator.maximally_mixed(3))

    def test_preserves_trace_and_psd(self, rng):
        # 1000 random trials across small dimensions.
        for i in range(1000):
            d_in = 2 + i % 3
            d_out = 2 + (i // 3) % 3
            ch = random_channel(d_in, d_out, 1 + i % 3, rng)
            rho = random_density(d_in, rng)
            out = apply(ch, rho)  # constructor enforces trace and PSD
            assert out.dim == d_out


class TestChoi:
    def test_identity_gives_bell_projector(self):
        np.testing.assert_allclose(choi(identity_channel(2)), BELL, atol=1e-12)

    def test_fully_depolarizing_gives_flat(self):
        np.testing.assert_allclose(choi(depolarizing(1.0)), np.eye(4) / 4, atol=1e-12)

    def test_pauli_channel_is_bell_diagonal(self, rng):
        w = rng.dirichlet(np.ones(4))
        j = choi(pauli_channel(w))
        np.testing.assert_allclose(j, choi_bruteforce(pauli_channel(w)), atol=1e-12)
        vals = np.sort(np.linalg.eigvalsh(j))
        np.testing.assert_allclose(vals, np.sort(w), atol=1e-12)

    def test_matches_bruteforce_on_random_channels(self, rng):
        for _ in range(10):
            ch = random_channel(3, 2, 2, rng)
            np.testing.assert_allclose(choi(ch), choi_bruteforce(ch), atol=1e-12)
        assert np.trace(choi(random_channel(2, 4, 3, rng))) == pytest.approx(1.0)


class TestComplementary:
    def test_unitary_has_trivial_environment(self, rng):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        comp = complementary(QuantumChannel((u,)))
        assert comp.d_out == 1
        for _ in range(5):
            rho = random_density(2, rng)
            np.testing.assert_allclose(apply(comp, rho).mat, [[1.0]], atol=1e-12)

    def test_matches_definition(self, rng):
        ch = random_channel(2, 3, 2, rng)
        comp = complementary(ch)
        rho = random_density(2, rng)
        got = apply(comp, rho).mat
        expect = np.array(
            [
                [np.trace(ki @ rho.mat @ kj.conj().T) for kj in ch.kraus]
                for ki in ch.kraus
            ]
        )
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_amplitude_damping_duality_by_spectra(self, rng):
        gamma = 0.3
        comp = complementary(amplitude_damping(gamma))
        dual = amplitude_damping(1 - gamma)
        for _ in range(10):
            rho = random_density(2, rng)
            a = np.sort(np.linalg.eigvalsh(apply(comp, rho).mat))
            b = np.sort(np.linalg.eigvalsh(apply(dual, rho).mat))
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_erasure_style_environment_carries_trace_statistics(self, rng):
        # Half-probability leak to a flag level: the environment diagonal
        # reads out the leak weight and the input populations.
        comp = complementary(qubit_leak(0.5))
        rho = random_density(2, rng)
        env = apply(comp, rho).mat
        np.testing.assert_allclose(
            np.diag(env).real,
            [0.5, 0.5 * rho.mat[0, 0].real, 0.5 * rho.mat[1, 1].real],
            atol=1e-12,
        )
        expect = np.array(
            [
                [np.trace(ki @ rho.mat @ kj.conj().T) for kj in qubit_leak(0.5).kraus]
                for ki in qubit_leak(0.5).kraus
            ]
        )
        np.testing.assert_allclose(env, expect, atol=1e-12)

    def test_double_complement_spectra(self, rng):
        ch = random_channel(2, 3, 2, rng)
        cc = complementary(complementary(ch))
        for _ in range(10):
            rho = random_density(2, rng)
            a = np.sort(np.linalg.eigvalsh(apply_mat(ch, rho.mat)))
            b = np.sort(np.linalg.eigvalsh(apply(cc, rho).mat))
            # Pad with zeros: environment dimensions differ but spectra agree.
            k = max(a.size, b.size)
            a = np.concatenate([np.zeros(k - a.size), np.clip(a, 0, None)])
            b = np.concatenate([np.zeros(k - b.size), np.clip(b, 0, None)])
            np.testing.assert_allclose(a, b, atol=1e-10)


class TestBuilders:
    def test_depolarizing_zero_is_identity(self, rng):
        rho = random_density(2, rng)
        np.testing.assert_allclose(apply(depolarizing(0.0), rho).mat, rho.mat)

    def test_pauli_identity_weights(self, rng):
        rho = random_density(2, rng)
        np.testing.assert_allclose(apply(pauli_channel((1, 0, 0, 0)), rho).mat, rho.mat)

    def test_all_builders_trace_preserving(self):
        for ch in (
            identity_channel(3),
            depolarizing(0.37),
            pauli_channel((0.4, 0.3, 0.2, 0.1)),
            amplitude_damping(0.6),
            qubit_leak(0.25),
        ):
            assert tp_residual(ch) <= 1e-9

    def test_out_of_range_parameters(self):
        with pytest.raises(ValueError):
            depolarizing(1.5)
        with pytest.raises(ValueError):
            amplitude_damping(-0.1)
        with pytest.raises(ValueError):
            pauli_channel((0.5, 0.5, 0.5, -0.5))
        # A NaN weight passes every comparison; dropping it would leave Z.
        with pytest.raises(ValueError, match="must be finite"):
            pauli_channel((float("nan"), 0.0, 0.0, 1.0))

    def test_empty_kraus_operator_refused(self):
        with pytest.raises(ValueError, match="non-empty"):
            QuantumChannel((np.zeros((2, 0)),))

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(TracePreservationError):
            QuantumChannel((np.eye(2) * 0.5,))

    def test_spec_file_round_trip(self, tmp_path, rng):
        ch = random_channel(2, 3, 2, rng)
        path = tmp_path / "ch.json"
        save_channel(ch, path)
        back = load_channel(path)
        assert back.d_in == ch.d_in and back.d_out == ch.d_out
        for a, b in zip(ch.kraus, back.kraus):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_residual_computed_once_per_load(self, tmp_path, monkeypatch, caplog):
        # Validation computes the residual and the channel keeps it, so the
        # INFO log line reads the stored value.
        import covertq.channels as mod

        path = tmp_path / "ad.json"
        save_channel(amplitude_damping(0.3), path)
        calls = []
        orig = mod.tp_residual
        monkeypatch.setattr(mod, "tp_residual", lambda ch: calls.append(1) or orig(ch))
        load_channel(path)
        assert len(calls) == 1
        caplog.set_level("INFO", logger=mod.__name__)
        ch = load_channel(path)
        assert len(calls) == 2
        assert ch.residual == orig(ch)
        assert "trace-preservation residual" in caplog.text

    def test_malformed_spec_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ChannelFormatError):
            load_channel(bad)
        bad.write_text('{"d_in": 2, "d_out": 2}')
        with pytest.raises(ChannelFormatError):
            load_channel(bad)
        with pytest.raises(ChannelFormatError):
            load_channel(tmp_path / "missing.json")

    @pytest.mark.parametrize(
        "field,value,reason",
        [("d_in", 2.7, "must be integers"), ("d_in", "2", "must be integers"),
         ("d_out", True, "must be integers"), ("kraus", [], "at least one Kraus operator"),
         ("kraus", [[[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]], "must be finite")],
    )
    def test_spec_fields_are_checked(self, tmp_path, field, value, reason):
        doc = {"d_in": 2, "d_out": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        assert load_channel(path).d_in == 2
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ChannelFormatError, match=reason):
            load_channel(path)

    @pytest.mark.parametrize("entry", [[1, 0, 7], [1], 1])
    def test_entry_must_be_a_pair(self, tmp_path, entry):
        doc = {"d_in": 1, "d_out": 1, "kraus": [[[entry]]]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ChannelFormatError, match=r"is not a \[re, im\] pair"):
            load_channel(bad)
        doc["kraus"] = [[[[1, 0]]]]
        bad.write_text(json.dumps(doc))
        assert load_channel(bad).kraus[0][0, 0] == 1


class TestWillieModel:
    def test_fully_depolarizing_warden(self, rng):
        model = willie_model(depolarizing(1.0), random_density(2, rng))
        np.testing.assert_allclose(model.rho0.mat, np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(model.rho_pi.mat, model.rho0.mat, atol=1e-12)

    def test_identity_warden_with_pure_innocent_breaks_support(self):
        from covertq.covert import support_contained

        model = willie_model(identity_channel(2), DensityOperator.basis_state(2, 0))
        np.testing.assert_allclose(model.rho0.mat, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(model.rho_pi.mat, np.eye(2) / 2)
        assert not support_contained(model.rho_pi, model.rho0)

    def test_complementary_amplitude_damping_pipeline(self):
        comp = complementary(amplitude_damping(0.5))
        model = willie_model(comp, DensityOperator.basis_state(2, 0))
        # The environment of a damping channel sees nothing from vacuum and
        # half the excitation from the mixed input.
        np.testing.assert_allclose(model.rho0.mat, np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(model.rho_pi.mat, np.diag([0.75, 0.25]), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            willie_model(identity_channel(2), DensityOperator.maximally_mixed(3))
