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
        json.dump(
            {"d_in": 2, "d_out": 2, "kraus": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]},
            nontp.open("w"),
        )
        code, _, err = run_cli(
            ["report", "--channel", nontp, "--innocent", "1", "--delta", "0.05",
             "--vartheta", "0.1", "--n", "10"],
            capsys,
        )
        assert code == cli.EXIT_TP and "code=trace-preservation" in err

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

    def test_dimension_cap_exit_code(self, capsys):
        code, _, err = run_cli(
            ["detect-sim", *BASE, "--vartheta", "0.5", "--n", "40"], capsys
        )
        assert code == cli.EXIT_DIM
        assert "code=dimension" in err and "n <= 10" in err

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
        expect = _type_class_divergence(
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


def _type_class_divergence(a, b, n, q, vartheta):
    """D(rho_n || rho0^n) in bits for diagonal rho0 = diag(a), rho_pi =
    diag(b), summed over the number k of ones in the output string."""
    ws = [w for w in range(n + 1) if abs(q - w / n) <= vartheta + 1e-15]
    p_set = sum(math.comb(n, w) * q**w * (1 - q) ** (n - w) for w in ws)
    d = 0.0
    for k in range(n + 1):
        sig = 0.0
        for w in ws:
            for j in range(max(0, w - (n - k)), min(k, w) + 1):
                sig += q**w * (1 - q) ** (n - w) * (
                    math.comb(k, j) * math.comb(n - k, w - j)
                    * b[1] ** j * a[1] ** (k - j) * b[0] ** (w - j) * a[0] ** (n - k - w + j)
                )
        sig /= p_set
        d += math.comb(n, k) * sig * math.log2(sig / (a[1] ** k * a[0] ** (n - k)))
    return d


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
        args = ["--innocent", "0", "--delta", "0.05", "--vartheta", "0.5", "--n"]
        cases = [
            (["report", "--channel", ident_spec, "--willie-file", qutrit, *args, "100"],
             cli.EXIT_PARSE, "channel-format"),
            (["report", "--channel", qutrit, *args, "100"], cli.EXIT_DIM, "dimension"),
            (["twirl-check", "--channel", qutrit], cli.EXIT_DIM, "dimension"),
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
    @pytest.mark.parametrize("cmd,n", [("report", "1000"), ("srl-curve", "1000"), ("detect-sim", "4")])
    def test_non_finite_budget(self, cmd, n, delta, capsys):
        argv = [cmd, "--channel", AD_SPEC, "--innocent", "1", f"--delta={delta}"]
        code, out, err = run_cli([*argv, "--vartheta", "0.5", "--n", n], capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert ERROR_LINE.match(err[:-1]) and err.count("\n") == 1
        assert err.startswith("covertq: error code=invalid-input "), err
        with pytest.raises(ValueError):
            covert.q_for_budget(1.0, float(delta), 4)
        with pytest.raises(ValueError):
            rates.unassisted_bound(1000, 0.5, 1.0, float(delta), twirl.PauliDistribution(1.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("spec", [",", " ", "log:1e3:1e7:0"])
    @pytest.mark.parametrize("cmd", ["report", "srl-curve"])
    def test_empty_block_length_list(self, cmd, spec, capsys):
        code, out, err = run_cli([cmd, *BASE, "--vartheta", "0.1", "--n", spec], capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert ERROR_LINE.match(err[:-1]) and err.count("\n") == 1
        assert err.startswith("covertq: error code=n-format "), err


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


def test_no_scipy_module_is_imported(tmp_path):
    # Import the CLI and run every subcommand in one fresh interpreter.
    script = f"""
import sys
from covertq import cli
base = ["--channel", {str(AD_SPEC)!r}, "--innocent", "1", "--delta", "0.05"]
out = {str(tmp_path / "out")!r}
for argv in (
    ["report", *base, "--vartheta", "0.1", "--n", "1000"],
    ["srl-curve", *base, "--vartheta", "0.1", "--n", "log:1e3:1e5:3"],
    ["detect-sim", *base, "--vartheta", "0.5", "--n", "6"],
    ["twirl-check", "--channel", {str(AD_SPEC)!r}, "--samples", "1000"],
):
    assert cli.main([*argv, "--out", out]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
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
    # The child imports this checkout's package, whether or not it is installed.
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, COVERTQ_THREADS="1", PYTHONPATH=path)
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
