"""Acceptance suite: exact small-n verification of every finite-dimensional
relation the analysis rests on, plus end-to-end determinism.

Each test prints one PASS line with its runtime; runtime caps are asserted.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from covertq import cli
from covertq.channels import (
    WillieModel,
    amplitude_damping,
    choi,
    depolarizing,
    identity_channel,
    pauli_channel,
    qubit_leak,
)
from covertq.covert import LN2, chi2, covert_constant, q_for_budget, qre
from covertq.detect import detection_at_n
from covertq.linops import DensityOperator, tensor_power, trace_norm
from covertq.rates import _entropy_bits, distillation_rate, entropy4, hashing_rate
from covertq.sparse import (
    SparseSignalConfig,
    WardenStates,
    _willie_state_matrix,
    decomposition_report,
    bound_chain,
    chernoff_epsilon,
    weight_set_prob,
)
from covertq.twirl import (
    PauliDistribution,
    _compose_rows,
    compose_with_failure,
    monte_carlo_twirl,
    projection_stats,
    twirl_parameters,
)
from conftest import random_willie_model, twirled_replaced_choi

REPO = Path(__file__).resolve().parent.parent
AD_SPEC = REPO / "data" / "amplitude_damping.json"

WORKED = WillieModel(
    rho0=DensityOperator(np.diag([0.9, 0.1]).astype(complex)),
    rho_pi=DensityOperator(np.diag([0.5, 0.5]).astype(complex)),
)

# Channel set for the operator-identity and Monte Carlo criteria.
CHANNEL_SET = [
    ("identity", identity_channel(2)),
    ("depolarizing(0.1)", depolarizing(0.1)),
    ("depolarizing(0.5)", depolarizing(0.5)),
    ("depolarizing(1.0)", depolarizing(1.0)),
    ("amplitude_damping(0.1)", amplitude_damping(0.1)),
    ("amplitude_damping(0.5)", amplitude_damping(0.5)),
    ("leak(0.25)", qubit_leak(0.25)),
]


def _finish(k: int, t0: float, cap: float, desc: str) -> None:
    dt = time.monotonic() - t0
    assert dt < cap, f"criterion {k} exceeded its runtime cap ({dt:.1f}s >= {cap}s)"
    print(f"PASS criterion {k:2d} [{dt:5.1f}s < {cap:.0f}s] {desc}")


@lru_cache(maxsize=1)
def _model_suite():
    """20 random full-rank qubit warden models, reused across criteria."""
    gen = np.random.default_rng(515151)
    return tuple(random_willie_model(gen, floor=0.1) for _ in range(20))


@lru_cache(maxsize=1)
def _report_suite():
    """Decomposition reports for the model suite across n in 2..6."""
    out = []
    for model in _model_suite():
        for n in range(2, 7):
            cfg = SparseSignalConfig(n=n, q=0.3, vartheta=0.25)
            out.append((model, cfg, decomposition_report(WardenStates(model, cfg))))
    return tuple(out)


def test_criterion_1_decomposition_identity():
    t0 = time.monotonic()
    worst = 0.0
    for _, _, rep in _report_suite():
        recon = rep.term_product + rep.term_entropy + rep.term_cross
        gap = abs(rep.qre_total - recon)
        worst = max(worst, gap)
        assert gap <= 1e-7
    _finish(
        1,
        t0,
        30.0,
        f"three-term decomposition reconstructs the divergence on "
        f"{len(_report_suite())} model/n pairs (worst gap {worst:.2e})",
    )


def test_criterion_2_bound_chain():
    t0 = time.monotonic()
    gen = np.random.default_rng(626262)
    q_grid = np.round(np.arange(0.05, 0.501, 0.05), 10)
    worst_add = 0.0
    for _ in range(500):
        model = random_willie_model(gen, floor=0.05)
        chain = bound_chain(
            WardenStates(model, SparseSignalConfig(n=4, q=0.25, vartheta=0.3))
        )
        worst_add = max(worst_add, abs(chain.d_product - chain.d_single_scaled))
        assert abs(chain.d_product - chain.d_single_scaled) <= 1e-9
        d_chi = chi2(model.rho_pi, model.rho0)
        for q in q_grid:
            mix = DensityOperator((1 - q) * model.rho0.mat + q * model.rho_pi.mat)
            n = 4
            lhs = n * qre(mix, model.rho0)
            rhs = q * q * n * d_chi / LN2  # chi-square bound in bits
            assert lhs <= rhs + 1e-10
    _finish(
        2,
        t0,
        60.0,
        f"additivity within 1e-9 (worst {worst_add:.2e}) and the mixing bound "
        f"holds on 500 models x {q_grid.size} densities",
    )


def _epsilon_exact_commuting(r0, rpi, n, q, weights):
    """Exact half trace distance between the mixture-product surrogate and
    the conditioned-mixture state for commuting (diagonal) qubit models,
    collapsed over outcome-weight classes. Exact because every operator
    involved is diagonal in the same product basis."""
    pa = sum(math.comb(n, w) * q**w * (1 - q) ** (n - w) for w in weights)
    rbar = (1 - q) * r0 + q * rpi
    tv = 0.0
    for k in range(n + 1):
        p_cond = 0.0
        for w in weights:
            cw = q**w * (1 - q) ** (n - w) / pa
            lo, hi = max(0, w - (n - k)), min(k, w)
            for m in range(lo, hi + 1):
                p_cond += (
                    cw
                    * math.comb(k, m)
                    * math.comb(n - k, w - m)
                    * rpi[1] ** m
                    * rpi[0] ** (w - m)
                    * r0[1] ** (k - m)
                    * r0[0] ** (n - w - k + m)
                )
        p_prod = rbar[1] ** k * rbar[0] ** (n - k)
        tv += math.comb(n, k) * abs(p_prod - p_cond)
    return 0.5 * tv


def test_criterion_3_data_processing_and_tail_bounds():
    t0 = time.monotonic()
    r0 = np.array([0.9, 0.1])
    rpi = np.array([0.5, 0.5])
    checked = skipped = 0
    for n in range(4, 21):
        # Exact tails against full 2^n enumeration, reused across (q, vth).
        if n <= 16:
            counts = np.bincount(
                [bin(x).count("1") for x in range(2**n)], minlength=n + 1
            )
        for q in (0.1, 0.2, 0.3, 0.4, 0.5):
            for vth in np.round(np.arange(0.05, 0.501, 0.05), 10):
                try:
                    cfg = SparseSignalConfig(n=n, q=q, vartheta=float(vth))
                except ValueError:
                    skipped += 1  # empty weight set at this grid point
                    continue
                p_a = weight_set_prob(cfg)
                tail = 1.0 - p_a
                assert tail <= chernoff_epsilon(cfg) + 1e-12
                if n <= 16:
                    enum = sum(
                        counts[w] * q**w * (1 - q) ** (n - w)
                        for w in cfg.weight_set()
                    )
                    assert p_a == pytest.approx(enum, rel=1e-11)
                eps = _epsilon_exact_commuting(r0, rpi, n, q, cfg.weight_set())
                assert eps <= tail + 1e-11
                checked += 1
    # Cross-check the collapsed epsilon against the dense-matrix route.
    for n, q, vth in ((4, 0.3, 0.2), (6, 0.2, 0.25), (8, 0.4, 0.15)):
        cfg = SparseSignalConfig(n=n, q=q, vartheta=vth)
        mix = DensityOperator((1 - q) * WORKED.rho0.mat + q * WORKED.rho_pi.mat)
        dense = 0.5 * trace_norm(
            tensor_power(mix.mat, n) - _willie_state_matrix(WORKED, cfg)
        )
        collapsed = _epsilon_exact_commuting(r0, rpi, n, q, cfg.weight_set())
        assert collapsed == pytest.approx(dense, abs=1e-10)
    _finish(
        3,
        t0,
        60.0,
        f"epsilon <= exact tail <= Chernoff on {checked} grid points "
        f"({skipped} empty weight sets skipped), tails match 2^n enumeration",
    )


def test_criterion_4_correction_term_bounds():
    t0 = time.monotonic()
    n_checked = 0
    for _, _, rep in _report_suite():
        assert abs(rep.term_entropy) <= rep.fannes_bound + 1e-9
        assert rep.holder_bound is not None  # full-rank models only
        assert abs(rep.term_cross) <= rep.holder_bound + 1e-9
        n_checked += 1
    _finish(
        4,
        t0,
        30.0,
        f"entropy-continuity and Hoelder bounds hold on {n_checked} reports",
    )


def test_criterion_5_operator_identity():
    t0 = time.monotonic()
    for name, ch in CHANNEL_SET:
        stats = projection_stats(ch)
        p = compose_with_failure(twirl_parameters(stats), stats.p_f)
        gap = np.max(
            np.abs(twirled_replaced_choi(ch) - choi(pauli_channel(p.as_array())))
        )
        assert gap <= 1e-9, f"{name}: operator identity off by {gap}"
    _finish(
        5,
        t0,
        10.0,
        f"twirled projected-with-replacement map equals its Pauli channel on "
        f"{len(CHANNEL_SET)} channels",
    )


def test_criterion_6_monte_carlo_convergence():
    t0 = time.monotonic()
    worst = 0.0
    for i, (name, ch) in enumerate(CHANNEL_SET):
        analytic = twirl_parameters(projection_stats(ch))
        est = monte_carlo_twirl(ch, samples=10**5, seed=1000 + i)
        gap = float(np.max(np.abs(est.as_array() - analytic.as_array())))
        worst = max(worst, gap)
        assert gap <= 0.01, f"{name}: Monte Carlo gap {gap}"
    _finish(
        6,
        t0,
        60.0,
        f"analytic vs 1e5-sample empirical twirl weights agree to 0.01 "
        f"(worst gap {worst:.4f})",
    )


def test_criterion_7_hashing_rate_zero_crossing():
    t0 = time.monotonic()

    def margin(p):
        return 1.0 - entropy4(PauliDistribution(1 - p, p / 3, p / 3, p / 3))

    root = brentq(margin, 0.05, 0.35, xtol=1e-12)
    assert root == pytest.approx(0.1893, abs=5e-4)
    _finish(7, t0, 1.0, f"hashing rate crosses zero at {root:.6f} on the "
            "uniform-error family")


def test_criterion_8_distillation_dominates_hashing():
    t0 = time.monotonic()
    # Exhaustive 0.02-step grid over the weight simplex and failure rate.
    step = 50
    rows = []
    for i in range(step + 1):
        for j in range(step + 1 - i):
            for k in range(step + 1 - i - j):
                rows.append((step - i - j - k, i, j, k))
    q_rows = np.array(rows, dtype=float) / step
    h_q = _entropy_bits(q_rows)
    r_base = np.clip(1.0 - h_q, 0.0, None)
    worst = math.inf
    for pf100 in range(0, 101, 2):
        p_f = pf100 / 100.0
        r_d = (1.0 - p_f) * r_base
        r = np.clip(1.0 - _entropy_bits(_compose_rows(q_rows.copy(), p_f)), 0.0, None)
        margin = float(np.min(r_d - r))
        worst = min(worst, margin)
        assert margin >= -1e-12
    # Spot-check the vectorized sweep against the public scalar functions.
    gen = np.random.default_rng(787878)
    for idx in gen.integers(0, q_rows.shape[0], size=50):
        q = PauliDistribution.from_array(q_rows[idx])
        p_f = float(gen.integers(0, 51)) / 50.0
        assert distillation_rate(q, p_f) >= hashing_rate(
            compose_with_failure(q, p_f)
        ) - 1e-12
        assert distillation_rate(q, p_f) == pytest.approx(
            (1 - p_f) * max(0.0, 1.0 - entropy4(q)), abs=1e-12
        )
        np.testing.assert_allclose(
            compose_with_failure(q, p_f).as_array(),
            _compose_rows(q_rows[idx : idx + 1].copy(), p_f)[0],
            atol=1e-15,
        )
    _finish(
        8,
        t0,
        10.0,
        f"distillation rate dominates hashing rate on {q_rows.shape[0] * 51} "
        f"grid points (worst margin {worst:.2e})",
    )


def test_criterion_9_worked_covert_number():
    t0 = time.monotonic()
    assert chi2(WORKED.rho_pi, WORKED.rho0) == pytest.approx(16 / 9, abs=1e-13)
    c_q = covert_constant(WORKED)
    assert c_q == pytest.approx(0.75, abs=1e-13)
    delta, n = 0.05, 6
    q = q_for_budget(c_q, delta, n)
    res = detection_at_n(
        WardenStates(WORKED, SparseSignalConfig(n=n, q=q, vartheta=0.5)), delta
    )
    assert res.covert_ok
    floor = 0.5 - math.sqrt(delta / 8)
    assert res.p_e_willie >= floor
    _finish(
        9,
        t0,
        10.0,
        f"c_q=0.75 exactly; budgeted detection at n=6 stays covert "
        f"(divergence {res.qre_exact:.4f} <= {delta}, "
        f"P_e {res.p_e_willie:.4f} >= {floor:.4f})",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    base = [
        "--channel", str(AD_SPEC), "--innocent", "1", "--delta", "0.05",
    ]
    commands = [
        ["report", *base, "--vartheta", "0.1", "--n", "1000,1000000"],
        ["srl-curve", *base, "--vartheta", "0.1", "--n", "log:1e3:1e7:5"],
        ["detect-sim", *base, "--vartheta", "0.5", "--n", "6", "--seed", "11"],
        ["twirl-check", "--channel", str(AD_SPEC), "--samples", "20000", "--seed", "11"],
    ]
    for i, argv in enumerate(commands):
        a = tmp_path / f"run_{i}_a.out"
        b = tmp_path / f"run_{i}_b.out"
        assert cli.main([*argv, "--out", str(a)]) == 0
        assert cli.main([*argv, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_size > 0
    _finish(10, t0, 60.0, "all four subcommands emit byte-identical output on reruns")
