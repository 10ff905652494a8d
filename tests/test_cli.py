import errno
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from covertq import channels, cli, covert, detect, rates, sparse, twirl
from covertq.errors import EstimationFailureError
from covertq.linops import DensityOperator
from conftest import random_channel

REPO = Path(__file__).resolve().parent.parent
AD_SPEC = REPO / "data" / "amplitude_damping.json"
GOLDEN = Path(__file__).resolve().parent / "golden"


def child_env(**extra):
    """Environment for a child interpreter that imports this checkout's
    package, whether or not it is installed."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run_cli(argv, capsys):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def ident_spec(tmp_path):
    p = tmp_path / "ident.json"
    channels.save_channel(channels.identity_channel(2), p)
    return p


@pytest.fixture
def depol_spec(tmp_path):
    p = tmp_path / "depol.json"
    channels.save_channel(channels.depolarizing(1.0), p)
    return p


@pytest.fixture
def ad_args():
    return ["--channel", AD_SPEC, "--innocent", "1"]


@pytest.fixture
def trivial_args(ident_spec, depol_spec):
    # Identical warden outputs: c_q is infinite and report computes no bound.
    return ["--channel", ident_spec, "--willie-file", depol_spec, "--innocent", "0"]


BASE = ["--channel", AD_SPEC, "--innocent", "1", "--delta", "0.05"]


class TestReport:
    def test_matches_golden(self, capsys):
        code, out, _ = run_cli(
            ["report", *BASE, "--vartheta", "0.1", "--n", "1000,1000000"], capsys
        )
        assert code == 0
        assert out == GOLDEN.joinpath("report_amplitude_damping.txt").read_text()

    def test_recomputation_reproduces_report(self, capsys):
        code, out, _ = run_cli(
            ["report", *BASE, "--vartheta", "0.1", "--n", "1000"], capsys
        )
        assert code == 0
        fields = dict(
            line.split(": ", 1) for line in out.strip().splitlines() if ": " in line
        )
        ch = channels.load_channel(AD_SPEC)
        model = channels.willie_model(
            channels.complementary(ch), DensityOperator.basis_state(2, 1)
        )
        c_q = covert.covert_constant(model)
        assert float(fields["c_q"]) == pytest.approx(c_q, rel=1e-15)
        stats = twirl.projection_stats(ch)
        q_tw = twirl.twirl_parameters(stats)
        p_vec = twirl.compose_with_failure(q_tw, stats.p_f)
        assert float(fields["p_f"]) == stats.p_f
        assert float(fields["R"]) == pytest.approx(rates.hashing_rate(p_vec), rel=1e-15)
        assert float(fields["R_d"]) == pytest.approx(
            rates.distillation_rate(q_tw, stats.p_f), rel=1e-15
        )
        b1 = rates.unassisted_bound(1000, 0.1, c_q, 0.05, p_vec)
        tail = out.strip().splitlines()[-1]
        assert f"m_lower_unassisted={b1.m_lower:.17g}" in tail

    def test_trivially_covert_flag_path(self, capsys, ident_spec, depol_spec):
        code, out, _ = run_cli(
            [
                "report",
                "--channel",
                ident_spec,
                "--willie-file",
                depol_spec,
                "--innocent",
                "0",
                "--delta",
                "0.05",
                "--vartheta",
                "0.1",
                "--n",
                "100",
            ],
            capsys,
        )
        assert code == 0
        assert "trivially-covert: true" in out
        assert "c_q: inf" in out
        assert "willie-mode: direct" in out

    def test_support_failure_exit_code(self, capsys, ident_spec):
        code, _, err = run_cli(
            [
                "report",
                "--channel",
                ident_spec,
                "--willie-file",
                ident_spec,
                "--innocent",
                "0",
                "--delta",
                "0.05",
                "--vartheta",
                "0.1",
                "--n",
                "100",
            ],
            capsys,
        )
        assert code == cli.EXIT_SUPPORT
        assert err.startswith("covertq: error code=support-violation")
        assert err.count("\n") == 1

    def test_parse_and_tp_exit_codes(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run_cli(
            ["report", "--channel", bad, "--innocent", "1", "--delta", "0.05",
             "--vartheta", "0.1", "--n", "10"],
            capsys,
        )
        assert code == cli.EXIT_PARSE and "code=channel-format" in err
        nontp = tmp_path / "nontp.json"
        nontp.write_text(
            json.dumps({"d_in": 2, "d_out": 2, "kraus": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]})
        )
        code, _, err = run_cli(
            ["report", "--channel", nontp, "--innocent", "1", "--delta", "0.05",
             "--vartheta", "0.1", "--n", "10"],
            capsys,
        )
        assert code == cli.EXIT_TP and "code=trace-preservation" in err

    @pytest.mark.parametrize(
        "field,value",
        [("d_in", 2.7), ("d_in", "2"), ("d_out", False), ("kraus", []),
         ("kraus", [[[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]])],
    )
    def test_spec_file_fields_are_channel_format(self, field, value, capsys, tmp_path):
        doc = json.loads(AD_SPEC.read_text(encoding="utf-8"))
        doc[field] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        for argv in (["twirl-check", "--channel", spec],
                     ["report", "--channel", spec, "--innocent", "1", "--delta", "0.05",
                      "--vartheta", "0.1", "--n", "10"]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (cli.EXIT_PARSE, ""), argv
            assert err.startswith("covertq: error code=channel-format "), err

    def test_inline_innocent_matrix(self, capsys):
        inline = json.dumps([[0.0, 0.0], [0.0, 1.0]])
        code, out, _ = run_cli(
            ["report", "--channel", AD_SPEC, "--innocent", inline, "--delta", "0.05",
             "--vartheta", "0.1", "--n", "1000"],
            capsys,
        )
        assert code == 0
        c_q = next(l for l in out.splitlines() if l.startswith("c_q:")).split(": ")[1]
        assert float(c_q) == pytest.approx(math.sqrt(28 / 3), rel=1e-14)

    @pytest.mark.parametrize("entry", [[0, 0, 7], [0]])
    def test_inline_entry_must_be_a_pair(self, entry, capsys):
        inline = json.dumps([[entry, 0.0], [0.0, [1, 0]]])
        code, out, err = run_cli(
            ["report", "--channel", AD_SPEC, "--innocent", inline, "--delta", "0.05",
             "--vartheta", "0.1", "--n", "1000"],
            capsys,
        )
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err.startswith('covertq: error code=innocent-format msg="cannot parse'), err
        assert "is not a [re, im] pair" in err

    def test_block_length_past_double_range(self, capsys):
        # sqrt(n) has no double value; refused as input, not a failed check.
        for cmd in ("report", "srl-curve"):
            code, out, err = run_cli(
                [cmd, *BASE, "--vartheta", "0.1", "--n", f"1000,{10**400}"], capsys
            )
            assert (code, out) == (cli.EXIT_PARSE, "")
            assert err == 'covertq: error code=invalid-input msg="block length is past the double range"\n'


class TestSrlCurve:
    def test_matches_golden(self, capsys):
        code, out, _ = run_cli(
            ["srl-curve", *BASE, "--vartheta", "0.1", "--n", "log:1e3:1e7:5"], capsys
        )
        assert code == 0
        assert out == GOLDEN.joinpath("srl_amplitude_damping.csv").read_text()

    def test_single_point_matches_report_numbers(self, capsys):
        code, csv_out, _ = run_cli(
            ["srl-curve", *BASE, "--vartheta", "0.1", "--n", "1000"], capsys
        )
        assert code == 0
        header, row = csv_out.strip().splitlines()
        assert header == "n,m_lower_unassisted,m_lower_assisted,classical_bits_upper"
        _, rep_out, _ = run_cli(
            ["report", *BASE, "--vartheta", "0.1", "--n", "1000"], capsys
        )
        n, m1, m2, bits = row.split(",")
        assert f"n={n}: m_lower_unassisted={m1} m_lower_assisted={m2} classical_bits_upper={bits}" in rep_out

    def test_sqrt_scaling_constant_column(self, capsys):
        code, out, _ = run_cli(
            ["srl-curve", *BASE, "--vartheta", "0.1", "--n", "log:1e3:1e7:9"], capsys
        )
        assert code == 0
        ratios = []
        for line in out.strip().splitlines()[1:]:
            n, m1, _, _ = line.split(",")
            ratios.append(float(m1) / math.sqrt(int(n)))
        assert max(ratios) - min(ratios) <= 1e-12 * max(ratios)


class TestDetectSim:
    def test_matches_golden_and_summary(self, capsys, tmp_path):
        out_file = tmp_path / "detect.csv"
        code, summary, _ = run_cli(
            ["detect-sim", *BASE, "--vartheta", "0.5", "--n", "6", "--out", out_file],
            capsys,
        )
        assert code == 0
        assert out_file.read_bytes() == GOLDEN.joinpath(
            "detect_amplitude_damping.csv"
        ).read_bytes()
        assert "covert-ok: true" in summary
        assert "p_e_willie:" in summary

    def test_seed_changes_nothing(self, capsys, tmp_path):
        # --seed is reserved: detection is exact, so no byte depends on it.
        runs = []
        for seed in (0, 12345):
            out_file = tmp_path / f"detect{seed}.csv"
            code, summary, _ = run_cli(
                ["detect-sim", *BASE, "--vartheta", "0.5", "--n", "5",
                 "--seed", seed, "--out", out_file],
                capsys,
            )
            assert code == 0
            runs.append((summary, out_file.read_bytes()))
        assert runs[0] == runs[1]

    def test_csv_relations(self, capsys):
        code, out, err = run_cli(
            ["detect-sim", *BASE, "--vartheta", "0.5", "--n", "6"], capsys
        )
        assert code == 0
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert float(vals["d_exact"]) <= float(vals["d_product"]) + float(
            vals["fannes"]
        ) + float(vals["holder"]) + 1e-9
        assert float(vals["d_product"]) <= float(vals["d_chi2_bound"]) + 1e-9
        assert float(vals["epsilon"]) <= float(vals["chernoff"])
        # Summary went to stderr since the CSV used stdout.
        assert "covert-ok:" in err

    @pytest.mark.parametrize("vartheta", ["0.5", "1.0"])
    def test_single_use(self, vartheta, capsys):
        # At n = 1 every n-use state is a single-site one; the trace-norm
        # differences must still be formed in arrays of their own, never in
        # the read-only states.
        code, out, err = run_cli(
            ["detect-sim", *BASE, "--vartheta", vartheta, "--n", "1"], capsys
        )
        assert code == 0, err
        header, row = out.strip().splitlines()
        vals = {k: float(v) for k, v in zip(header.split(","), row.split(","))}
        td = float(re.search(r"^trace-distance: (\S+)$", err, flags=re.M).group(1))
        model = channels.willie_model(
            channels.complementary(channels.load_channel(AD_SPEC)),
            DensityOperator.basis_state(2, 1),
        )
        if vartheta == "0.5":
            # q is about 0.68, so only weight 1 is admitted: rho_1 = rho_pi.
            assert vals["d_exact"] == pytest.approx(covert.qre(model.rho_pi, model.rho0), rel=1e-12)
            expect = np.sum(np.abs(np.linalg.eigvalsh(model.rho_pi.mat - model.rho0.mat)))
            assert td == pytest.approx(expect, rel=1e-12)
        else:
            # Both weights are admitted: rho_1 is the single-use mixture.
            assert vals["d_exact"] == pytest.approx(vals["d_product"], rel=1e-12)
            assert vals["epsilon"] == pytest.approx(0.0, abs=1e-12)

    def test_dimension_cap_exit_code(self, capsys):
        code, _, err = run_cli(
            ["detect-sim", *BASE, "--vartheta", "0.5", "--n", "40"], capsys
        )
        assert code == cli.EXIT_DIM
        assert "code=dimension" in err and "n <= 10" in err

    def test_huge_block_length_is_refused_at_once(self):
        # The cap is compared with n before any work on it, and never through
        # d**n, whose exact integer takes longer than the timeout to build.
        for digits in (20, 30, 400):
            proc = subprocess.run(
                [sys.executable, "-m", "covertq.cli", "detect-sim", *map(str, BASE),
                 "--vartheta", "0.5", "--n", "9" * digits],
                capture_output=True,
                text=True,
                env=child_env(),
                cwd=REPO,
                timeout=10,
            )
            assert proc.returncode == cli.EXIT_DIM, proc.stderr
            assert proc.stderr.startswith("covertq: error code=dimension ")
            assert "n <= 10 for d=2" in proc.stderr

    @pytest.mark.parametrize(
        "n,code,name",
        [(2**63, cli.EXIT_DEGENERATE, "degenerate"), (10**30, cli.EXIT_DEGENERATE, "degenerate"),
         (10**400, cli.EXIT_PARSE, "invalid-input")],
        ids=["2**63", "10**30", "10**400"],
    )
    def test_one_dimensional_warden_never_passes_the_cap(self, n, code, name, tmp_path, capsys):
        # The trace channel's warden output is 1 x 1, and 1**n = 1 for every
        # n: a long block is refused as trivially covert, or as past the
        # double range, never as past the dense cap.
        trace = tmp_path / "trace.json"
        channels.save_channel(channels.QuantumChannel((np.eye(2)[:1], np.eye(2)[1:])), trace)
        argv = ["detect-sim", "--channel", AD_SPEC, "--willie-file", trace, "--innocent", "1",
                "--delta", "0.05", "--vartheta", "0.5", "--n", n]
        got, out, err = run_cli(argv, capsys)
        assert (got, out) == (code, "")
        assert err.startswith(f"covertq: error code={name} "), err

    @pytest.mark.parametrize("model,delta", [("ad", "nan"), ("ad", "-1"), ("trivial", "0.05")])
    def test_cap_comes_before_budget_and_degeneracy(self, model, delta, capsys, request):
        argv = ["detect-sim", *request.getfixturevalue(f"{model}_args"), f"--delta={delta}"]
        code, out, err = run_cli([*argv, "--vartheta", "0.5", "--n", "40"], capsys)
        assert (code, out) == (cli.EXIT_DIM, "")
        assert err.startswith("covertq: error code=dimension ") and "n <= 10" in err

    def test_degenerate_density_exit_code(self, capsys):
        # Tiny n saturates the budgeted density at 1.
        code, _, err = run_cli(
            ["detect-sim", *BASE, "--delta", "50", "--vartheta", "0.5", "--n", "2"],
            capsys,
        )
        assert code == cli.EXIT_DEGENERATE
        assert "code=degenerate" in err


    def test_small_innocent_eigenvalue_is_in_support(self, capsys, tmp_path):
        # gamma**n = 2.6e-14 lies below the kernel threshold of one operator;
        # the innocent product still has full support.
        gamma, n = 0.02, 8
        spec = tmp_path / "ad.json"
        channels.save_channel(channels.amplitude_damping(gamma), spec)
        code, out, err = run_cli(
            ["detect-sim", "--channel", spec, "--innocent", "1", "--delta", "0.02",
             "--vartheta", "0.5", "--n", n],
            capsys,
        )
        assert code == 0, err
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        # Warden outputs are diag(1 - gamma, gamma) and diag(1 - gamma/2, gamma/2).
        expect = _diagonal_divergence(
            (1 - gamma, gamma), (1 - gamma / 2, gamma / 2), n, float(vals["q"]), 0.5
        )
        assert float(vals["d_exact"]) == pytest.approx(expect, rel=1e-9)

    def test_single_spectral_pass(self, capsys, monkeypatch):
        solves = Counter()
        for name in ("eigh", "eigvalsh", "svd"):
            def counted(a, *args, _orig=getattr(np.linalg, name), **kwargs):
                solves[np.shape(a)[0]] += 1
                return _orig(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        builds = []
        orig = sparse.willie_state_exact

        def counted_state(*args, **kwargs):
            builds.append(args)
            return orig(*args, **kwargs)

        for mod in (cli, sparse, detect):
            if getattr(mod, "willie_state_exact", None) is orig:
                monkeypatch.setattr(mod, "willie_state_exact", counted_state)
        code, _, _ = run_cli(["detect-sim", *BASE, "--vartheta", "0.5", "--n", "6"], capsys)
        assert code == 0
        assert solves[64] <= 3
        assert len(builds) == 1


def _compositions(n, parts):
    """Every tuple of ``parts`` nonnegative integers summing to n."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first, *rest)


def _diagonal_divergence(a, b, n, q, vartheta):
    """D(rho_n || rho0^n) in bits for diagonal rho0 = diag(a) and rho_pi =
    diag(b), summed over the type (k_0, ..., k_{d-1}) of the output string.
    For one string of that type, j_i of the k_i sites that show outcome i
    carry the signal. Strings outside the support of a^n enter through
    p log p alone: qre leaves rho_n's mass on the kernel of rho0^n out of
    the cross term."""
    ws = [w for w in range(n + 1) if abs(q - w / n) <= vartheta + 1e-15]
    p_set = sum(math.comb(n, w) * q**w * (1 - q) ** (n - w) for w in ws)
    d = 0.0
    for k in _compositions(n, len(a)):
        p = 0.0
        for j in itertools.product(*(range(ki + 1) for ki in k)):
            w = sum(j)
            if w in ws:
                p += q**w * (1 - q) ** (n - w) * math.prod(
                    math.comb(ki, ji) * b[i] ** ji * a[i] ** (ki - ji)
                    for i, (ki, ji) in enumerate(zip(k, j))
                )
        if p == 0.0:
            continue
        p /= p_set
        inn = math.prod(ai**ki for ai, ki in zip(a, k))
        count = math.factorial(n) // math.prod(math.factorial(ki) for ki in k)
        d += count * p * (math.log2(p) - (math.log2(inn) if inn > 0 else 0.0))
    return d


def _measure_prepare(path, outputs):
    """Qubit-input warden that measures the input and prepares the diagonal
    state ``outputs[i]`` on outcome i."""
    kraus = []
    for i, probs in enumerate(outputs):
        for j, pj in enumerate(probs):
            if pj > 0:
                k = np.zeros((len(probs), len(outputs)))
                k[j, i] = math.sqrt(pj)
                kraus.append(k)
    channels.save_channel(channels.QuantumChannel(tuple(kraus)), path)


class TestSupportAllowance:
    """A qutrit warden whose non-innocent output puts mass m on the innocent
    kernel: input 0 gives (0.9, 0.1 - 2m, 2m), input 1 (the innocent one)
    gives (0.5, 0.5, 0), so rho_pi = (0.7, 0.3 - m, m)."""

    def _run(self, m, n, tmp_path, capsys):
        outputs = ((0.9, 0.1 - 2 * m, 2 * m), (0.5, 0.5, 0.0))
        spec = tmp_path / "warden.json"
        _measure_prepare(spec, outputs)
        code, out, err = run_cli(
            ["detect-sim", "--channel", AD_SPEC, "--willie-file", spec, "--innocent", "1",
             "--delta", "0.05", "--vartheta", "0.5", "--n", n],
            capsys,
        )
        rho_pi = tuple((x + y) / 2 for x, y in zip(*outputs))
        return code, out, err, outputs[1], rho_pi

    @pytest.mark.parametrize("n", [4, 6])
    def test_leak_within_allowance_stays_finite_at_n(self, n, tmp_path, capsys):
        # n * q * m on the kernel of rho0^n exceeds 1e-10, yet each site holds
        # less than 1e-10, so the n-use divergences are finite.
        code, out, err, rho0, rho_pi = self._run(9e-11, n, tmp_path, capsys)
        assert code == 0, err
        header, row = out.strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        expect = _diagonal_divergence(rho0, rho_pi, n, float(vals["q"]), 0.5)
        assert float(vals["d_exact"]) == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("n", [4, 6])
    def test_leak_past_allowance_is_refused(self, n, tmp_path, capsys):
        code, out, err, _, _ = self._run(4e-10, n, tmp_path, capsys)
        assert (code, out) == (cli.EXIT_SUPPORT, "")
        assert ERROR_LINE.match(err[:-1]) and err.count("\n") == 1
        assert err.startswith("covertq: error code=support-violation "), err


class TestExitTable:
    def test_failed_self_check_is_coded(self, capsys, monkeypatch):
        monkeypatch.setattr(sparse, "chernoff_epsilon", lambda cfg: -1.0)
        code, _, err = run_cli(["detect-sim", *BASE, "--vartheta", "0.5", "--n", "4"], capsys)
        assert code == cli.EXIT_INTERNAL == 8
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith('covertq: error code=internal-check msg="tail bound failed')
        assert "Traceback" not in err

    def test_estimation_failure_keeps_degenerate_code(self, capsys, monkeypatch):
        def fail(*args):
            raise EstimationFailureError("no samples")

        monkeypatch.setattr(twirl, "monte_carlo_twirl", fail)
        code, _, err = run_cli(["twirl-check", "--channel", AD_SPEC, "--samples", "10"], capsys)
        assert code == cli.EXIT_DEGENERATE
        assert err == 'covertq: error code=degenerate msg="no samples"\n'

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect-sim", *BASE, "--n", "6"],
            ["twirl-check", "--channel", AD_SPEC, "--samples", "many"],
            ["bogus"],
            [],
        ],
    )
    def test_usage_error_is_coded(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith('covertq: error code=usage msg="')
        assert "usage:" not in err

    @pytest.mark.parametrize("exc", [TypeError("bad operand"), KeyError("missing")])
    def test_unexpected_exception_is_coded(self, exc, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(sparse, "bound_chain", fail)
        code, _, err = run_cli(["detect-sim", *BASE, "--vartheta", "0.5", "--n", "4"], capsys)
        assert code == cli.EXIT_INTERNAL == 8
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            f'covertq: error code=internal-check msg="{type(exc).__name__}: '
        )
        assert "Traceback" not in err


ERROR_LINE = re.compile(r'^covertq: error code=[a-z0-9-]+ msg="((?:[^"\\]|\\.)*)"$')


def _unescape(msg):
    return re.sub(r"\\(.)", lambda m: {"n": "\n", "r": "\r"}.get(m[1], m[1]), msg)


class TestErrorLine:
    @pytest.mark.parametrize("name", ['x"y.json', "x\ny.json", "back\\slash\r.json"])
    def test_message_is_escaped(self, name, capsys, tmp_path):
        path = tmp_path / name
        with pytest.raises(channels.ChannelFormatError) as info:
            channels.load_channel(path)
        code, out, err = run_cli(["twirl-check", "--channel", path], capsys)
        assert code == cli.EXIT_PARSE
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
        m = ERROR_LINE.match(err[:-1])
        assert m is not None, err
        assert _unescape(m[1]) == str(info.value)

    def test_refusals_map_through_exit_table(self, capsys, tmp_path, ident_spec, depol_spec):
        qutrit = tmp_path / "qutrit.json"
        channels.save_channel(channels.identity_channel(3), qutrit)
        # Qubit input, no qubit output: the support check comes first.
        trace = tmp_path / "trace.json"
        channels.save_channel(channels.QuantumChannel((np.eye(2)[:1], np.eye(2)[1:])), trace)
        args = ["--innocent", "0", "--delta", "0.05", "--vartheta", "0.5", "--n"]
        cases = [
            (["report", "--channel", ident_spec, "--willie-file", qutrit, *args, "100"],
             cli.EXIT_PARSE, "channel-format"),
            (["report", "--channel", qutrit, *args, "100"], cli.EXIT_DIM, "dimension"),
            (["twirl-check", "--channel", qutrit], cli.EXIT_DIM, "dimension"),
            (["report", "--channel", trace, *args, "100"], cli.EXIT_SUPPORT, "support-violation"),
            (["twirl-check", "--channel", trace], cli.EXIT_PARSE, "invalid-input"),
            (["twirl-check", "--channel", AD_SPEC, "--samples", "99999999999999999999"],
             cli.EXIT_PARSE, "invalid-input"),
            (["srl-curve", "--channel", ident_spec, "--willie-file", ident_spec, *args, "100"],
             cli.EXIT_SUPPORT, "support-violation"),
            (["srl-curve", "--channel", ident_spec, "--willie-file", depol_spec, *args, "100"],
             cli.EXIT_DEGENERATE, "degenerate"),
            (["detect-sim", "--channel", ident_spec, "--willie-file", depol_spec, *args, "4"],
             cli.EXIT_DEGENERATE, "degenerate"),
        ]
        for argv, code, name in cases:
            got, out, err = run_cli(argv, capsys)
            assert (got, out) == (code, ""), argv
            assert ERROR_LINE.match(err[:-1]) and err.count("\n") == 1
            assert err.startswith(f"covertq: error code={name} ")


class TestRefusedParameters:
    @pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "cmd,n,model",
        [("report", "1000", "ad"), ("srl-curve", "1000", "ad"), ("detect-sim", "4", "ad"),
         ("report", "100", "trivial"), ("srl-curve", "100", "trivial")],
        ids=["report-1000", "srl-curve-1000", "detect-sim-4", "report-trivial", "srl-curve-trivial"],
    )
    def test_non_finite_budget(self, cmd, n, model, delta, capsys, request):
        argv = [cmd, *request.getfixturevalue(f"{model}_args"), f"--delta={delta}"]
        code, out, err = run_cli([*argv, "--vartheta", "0.5", "--n", n], capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert ERROR_LINE.match(err[:-1]) and err.count("\n") == 1
        assert err.startswith("covertq: error code=invalid-input "), err
        with pytest.raises(ValueError):
            covert.q_for_budget(1.0, float(delta), 4)
        with pytest.raises(ValueError):
            rates.unassisted_bound(1000, 0.5, 1.0, float(delta), twirl.PauliDistribution(1.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("spec", [",", " ", "log:1e3:1e7:0", "log:1e3:inf:3"])
    @pytest.mark.parametrize(
        "cmd,model",
        [("report", "ad"), ("srl-curve", "ad"), ("report", "trivial"), ("srl-curve", "trivial")],
        ids=["report", "srl-curve", "report-trivial", "srl-curve-trivial"],
    )
    def test_empty_block_length_list(self, cmd, model, spec, capsys, request):
        argv = [cmd, *request.getfixturevalue(f"{model}_args"), "--delta", "0.05"]
        code, out, err = run_cli([*argv, "--vartheta", "0.1", "--n", spec], capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert ERROR_LINE.match(err[:-1]) and err.count("\n") == 1
        assert err.startswith("covertq: error code=n-format "), err

    @pytest.mark.parametrize("delta,vartheta", [("-1", "0.1"), ("0.05", "7")])
    @pytest.mark.parametrize("cmd", ["report", "srl-curve"])
    @pytest.mark.parametrize("model", ["ad", "trivial"])
    def test_out_of_range_budget(self, model, cmd, delta, vartheta, capsys, request):
        argv = [cmd, *request.getfixturevalue(f"{model}_args"), f"--delta={delta}"]
        code, out, err = run_cli([*argv, "--vartheta", vartheta, "--n", "100"], capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert ERROR_LINE.match(err[:-1]) and err.count("\n") == 1
        assert err.startswith("covertq: error code=invalid-input "), err

    @pytest.mark.parametrize(
        "delta,vartheta,n",
        [("nan", "0.5", "4"), ("-1", "0.5", "4"), ("0.05", "7", "4"), ("0.05", "0", "4"),
         ("0.05", "0.5", "0"), ("nan", "7", "0")],
    )
    def test_detect_sim_checks_budget_before_degeneracy(self, trivial_args, delta, vartheta, n, capsys):
        # A trivially covert model is refused as degenerate only after the
        # budget, the weight tolerance and the block length pass their checks.
        argv = ["detect-sim", *trivial_args, f"--delta={delta}", "--vartheta", vartheta, "--n", n]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert ERROR_LINE.match(err[:-1]) and err.count("\n") == 1
        assert err.startswith("covertq: error code=invalid-input "), err

    @pytest.mark.parametrize("delta", ["0", "5e-324"])
    def test_detect_sim_zero_density_names_the_budget(self, ad_args, delta, capsys):
        # At 5e-324, delta / n underflows, so c_q * sqrt(delta / n) is 0.
        argv = ["detect-sim", *ad_args, "--delta", delta, "--vartheta", "0.5", "--n", "6"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert ERROR_LINE.match(err[:-1]) and err.count("\n") == 1
        assert err.startswith(
            f"covertq: error code=invalid-input msg=\"budget {float(delta)} leaves "
            "no signal density (q=0) at n=6;"
        ), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", *BASE, "--vartheta", "0.1", "--n", "1000"],
            ["srl-curve", *BASE, "--vartheta", "0.1", "--n", "1000"],
            ["detect-sim", *BASE, "--vartheta", "0.5", "--n", "4"],
            ["twirl-check", "--channel", AD_SPEC, "--samples", "1000"],
        ],
        ids=["report", "srl-curve", "detect-sim", "twirl-check"],
    )
    def test_unwritable_out_file(self, argv, tmp_path, capsys):
        # A user error (exit 3), not a failed self-check (exit 8).
        target = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli([*argv, "--out", target], capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert ERROR_LINE.match(err[:-1]) and err.count("\n") == 1
        assert err.startswith(f'covertq: error code=invalid-input msg="cannot write output file {target}'), err
        assert not target.parent.exists()


WRITE_ARGV = {
    "report": ["report", *BASE, "--vartheta", "0.1", "--n", "1000"],
    "srl-curve": ["srl-curve", *BASE, "--vartheta", "0.1", "--n", "1000"],
    "detect-sim": ["detect-sim", *BASE, "--vartheta", "0.5", "--n", "4"],
    "twirl-check": ["twirl-check", "--channel", AD_SPEC, "--samples", "1000"],
}
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


class TestWriteFailures:
    """An output that cannot be written is refused as invalid input, with
    one coded line and no interpreter complaint at exit."""

    def _run(self, argv, stdout):
        cmd = [sys.executable, "-m", "covertq.cli", *map(str, argv)]
        proc = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, text=True,
                              env=child_env(), cwd=REPO, timeout=60)
        assert proc.returncode == cli.EXIT_PARSE, proc.stderr
        assert proc.stderr.count("\n") == 1 and ERROR_LINE.match(proc.stderr[:-1]), proc.stderr
        assert proc.stderr.startswith('covertq: error code=invalid-input msg="cannot write output ')
        assert "Exception ignored" not in proc.stderr
        return proc

    @needs_dev_full
    @pytest.mark.parametrize("cmd", WRITE_ARGV)
    def test_full_stdout(self, cmd):
        with open("/dev/full", "w") as full:
            proc = self._run(WRITE_ARGV[cmd], full)
        assert "to <stdout>: No space left on device" in proc.stderr

    @needs_dev_full
    @pytest.mark.parametrize("cmd", WRITE_ARGV)
    def test_full_out_file(self, cmd):
        proc = self._run([*WRITE_ARGV[cmd], "--out", "/dev/full"], subprocess.PIPE)
        assert proc.stdout == ""
        assert "file /dev/full: No space left on device" in proc.stderr

    @pytest.mark.parametrize("cmd", WRITE_ARGV)
    def test_closed_pipe(self, cmd):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._run(WRITE_ARGV[cmd], write_end)
        finally:
            os.close(write_end)
        assert "to <stdout>: Broken pipe" in proc.stderr

    @pytest.mark.parametrize(
        "argv,code",
        [(["bogus"], cli.EXIT_USAGE), (WRITE_ARGV["detect-sim"], cli.EXIT_PARSE)],
        ids=["usage", "detect-sim-summary"],
    )
    def test_unwritable_stderr_keeps_exit_code(self, argv, code, capsys, monkeypatch):
        # detect-sim's summary fails on stderr, and so does the coded line.
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stderr", Full())
        assert cli.main([str(a) for a in argv]) == code


def test_detect_sim_error_contract_on_random_channels(capsys, tmp_path):
    # Every outcome is a CSV or one coded line, whatever the model.
    rng = np.random.default_rng(4)
    header = "n,q,vartheta,d_exact,d_product,d_chi2_bound,epsilon,chernoff,fannes,holder"
    codes = Counter()
    for i in range(6):
        spec = tmp_path / f"ch{i}.json"
        channels.save_channel(random_channel(2, 2, 2, rng), spec)
        for innocent in ("0", "1"):
            for n in (2, 4, 6, 11):
                delta = float(rng.choice([1e-3, 0.05, 0.5, 20.0]))
                code, out, err = run_cli(
                    ["detect-sim", "--channel", spec, "--innocent", innocent,
                     "--delta", delta, "--vartheta", "0.5", "--n", n],
                    capsys,
                )
                codes[code] += 1
                assert "Traceback" not in err
                if code == 0:
                    assert out.splitlines()[0] == header
                else:
                    assert 3 <= code <= 8 and out == ""
                    assert err.count("\n") == 1 and ERROR_LINE.match(err[:-1]), err
    # The seeded draws reach success, the cap and a saturated density.
    assert codes[0] and codes[cli.EXIT_DIM] and codes[cli.EXIT_DEGENERATE]


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["report", *BASE, "--vartheta", "0.1", "--n", "1000"],
         ["covertq.sparse", "covertq.detect"]),
        (["srl-curve", *BASE, "--vartheta", "0.1", "--n", "log:1e3:1e5:3"],
         ["_hashlib", "covertq.sparse", "covertq.detect"]),
        (["detect-sim", *BASE, "--vartheta", "0.5", "--n", "6"],
         ["_hashlib", "covertq.twirl", "covertq.rates"]),
        (["twirl-check", "--channel", AD_SPEC, "--samples", "1000"],
         ["covertq.sparse", "covertq.detect", "covertq.rates"]),
    ],
    ids=["report", "srl-curve", "detect-sim", "twirl-check"],
)
def test_subcommand_loads_only_what_it_needs(argv, absent, tmp_path):
    # One fresh interpreter per subcommand: no scipy module, and none of the
    # layers or the OpenSSL binding that its output does not need.
    script = f"""
import sys
from covertq import cli
assert cli.main({[*map(str, argv), "--out", str(tmp_path / "out")]!r}) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m in {absent!r}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestTwirlCheck:
    def test_summary_fields(self, capsys):
        code, out, _ = run_cli(
            ["twirl-check", "--channel", AD_SPEC, "--samples", "20000", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert "analytic:" in out and "empirical:" in out
        gap = float(out.strip().splitlines()[-1].split(": ")[1])
        assert gap <= 0.02

    def test_negative_seed_is_named(self, capsys):
        code, out, err = run_cli(
            ["twirl-check", "--channel", AD_SPEC, "--samples", "1000", "--seed", "-1"],
            capsys,
        )
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err == (
            'covertq: error code=invalid-input msg="seed must be a nonnegative '
            'integer, got -1"\n'
        )


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["report", *BASE, "--vartheta", "0.1", "--n", "1000,4096"],
            ["srl-curve", *BASE, "--vartheta", "0.1", "--n", "log:1e3:1e6:4"],
            ["detect-sim", *BASE, "--vartheta", "0.5", "--n", "5", "--seed", "3"],
            ["twirl-check", "--channel", AD_SPEC, "--samples", "5000", "--seed", "3"],
        ],
    )
    def test_byte_identical_output_files(self, argv, tmp_path, capsys):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert run_cli([*argv, "--out", a], capsys)[0] == 0
        assert run_cli([*argv, "--out", b], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) > 0


def test_console_entry_point_with_thread_cap(tmp_path):
    env = child_env(COVERTQ_THREADS="1")
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "covertq.cli",
            "srl-curve",
            "--channel",
            str(AD_SPEC),
            "--innocent",
            "1",
            "--delta",
            "0.05",
            "--vartheta",
            "0.1",
            "--n",
            "1000",
        ],
        capture_output=True,
        env=env,
        cwd=REPO,
    )
    assert out.returncode == 0
    assert out.stdout.decode().startswith("n,m_lower_unassisted")
