"""A 60-digit reference for the n-use figures that detect-sim prints, on
commuting qubit pairs.

Both warden states are diagonal in the frame that ``WardenStates`` holds, so
rho_n, mix^n and rho0^n are diagonal, and each entry depends only on the
output weight K of its basis string. A string of weight K under a signal
pattern of weight w has j of its K ones on signal slots and w - j of its
n - K zeros there, so rho_n's entry is a sum over w and j with exact
binomials. mpmath carries every sum at 60 digits from the float64 frame, so
what is measured is the error of the float64 route alone.
"""

import csv
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from covertq import channels, covert
from covertq.linops import DensityOperator
from covertq.sparse import SparseSignalConfig, WardenStates

TESTS = Path(__file__).resolve().parent
AD_SPEC = TESTS.parent / "data" / "amplitude_damping.json"

# Relative bound per figure, about ten times the largest error measured on
# the cases below: d_exact 5.1e-13 and d_product 1.1e-12 (random-diagonal-n8),
# epsilon 1.7e-12 (shipped-n10), the trace distance 1.2e-15
# (random-diagonal-n8). On the shipped model at n = 6 they are 2.6e-16,
# 1.5e-14, 2.6e-14 and 3.7e-16.
BOUNDS = {"d_exact": 5e-12, "d_product": 1e-11, "epsilon": 2e-11, "trace_distance": 1e-14}


def reference_figures(states: WardenStates) -> dict:
    """d_exact, d_product, epsilon and the trace distance of ``states`` at
    60 digits, summed over output weights K and pattern weights w."""
    model, cfg = states.model, states.cfg
    a, b = (np.diagonal(rho.mat) for rho in (model.rho0, model.rho_pi))
    assert model.dim == 2 and model.rho_pi.mat[0, 1] == 0, "a commuting qubit pair"
    with mpmath.workdps(60):
        n, q = cfg.n, mpmath.mpf(cfg.q)
        a0, a1, b0, b1 = (mpmath.mpf(float(x.real)) for x in (*a, *b))
        m0, m1 = (1 - q) * a0 + q * b0, (1 - q) * a1 + q * b1
        # The weight set |q - w/n| <= vartheta in exact rationals.
        ws = [w for w in range(n + 1) if abs(Fraction(cfg.q) - Fraction(w, n)) <= Fraction(cfg.vartheta)]
        assert ws == list(cfg.weight_range())
        p_set = mpmath.fsum(mpmath.binomial(n, w) * q**w * (1 - q) ** (n - w) for w in ws)
        d_exact = d_product = epsilon = trace_distance = mpmath.mpf(0)
        for k in range(n + 1):
            r = mpmath.fsum(
                q**w * (1 - q) ** (n - w) * mpmath.binomial(k, j) * mpmath.binomial(n - k, w - j)
                * b1**j * a1 ** (k - j) * b0 ** (w - j) * a0 ** (n - k - w + j)
                for w in ws
                for j in range(max(0, w - (n - k)), min(k, w) + 1)
            ) / p_set
            s, m, c = a1**k * a0 ** (n - k), m1**k * m0 ** (n - k), mpmath.binomial(n, k)
            if r > 0:
                d_exact += c * r * mpmath.log(r / s, 2)
            d_product += c * m * mpmath.log(m / s, 2)
            epsilon += c * abs(m - r) / 2
            trace_distance += c * abs(r - s)
        return {"d_exact": d_exact, "d_product": d_product, "epsilon": epsilon,
                "trace_distance": trace_distance}


def relative_errors(states: WardenStates) -> dict:
    fig = states.figures._asdict()
    return {
        name: float(abs((mpmath.mpf(fig[name]) - ref) / ref))
        for name, ref in reference_figures(states).items()
    }


def _shipped(n: int, vartheta: float) -> WardenStates:
    ch = channels.load_channel(AD_SPEC)
    model = channels.willie_model(channels.complementary(ch), DensityOperator.basis_state(2, 1))
    q = covert.q_for_budget(covert.covert_constant(model), 0.05, n)
    return WardenStates(model, SparseSignalConfig(n=n, q=q, vartheta=vartheta))


def _random_diagonal(seed: int, n: int) -> WardenStates:
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.05, 1.0, size=2), rng.uniform(0.0, 1.0, size=2)
    model = channels.WillieModel(
        DensityOperator(np.diag(a / a.sum())), DensityOperator(np.diag(b / b.sum()))
    )
    cfg = SparseSignalConfig(n=n, q=float(rng.uniform(0.05, 0.4)), vartheta=0.3)
    return WardenStates(model, cfg)


CASES = {
    "shipped-n6": lambda: _shipped(6, 0.5),
    "shipped-n10": lambda: _shipped(10, 0.5),
    "random-diagonal-n8": lambda: _random_diagonal(5, 8),
    "random-diagonal-n10": lambda: _random_diagonal(6, 10),
}


@pytest.mark.parametrize("case", CASES)
def test_printed_figures_match_the_60_digit_reference(case):
    errors = relative_errors(CASES[case]())
    assert {k: e for k, e in errors.items() if not e <= BOUNDS[k]} == {}, errors


def test_golden_figures_match_the_60_digit_reference():
    # The detect golden is the shipped model at n = 6; its printed digits
    # are held to the same bounds.
    with open(TESTS / "golden" / "detect_amplitude_damping.csv", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    ref = reference_figures(_shipped(6, 0.5))
    for name in ("d_exact", "d_product", "epsilon"):
        assert abs(mpmath.mpf(row[name]) / ref[name] - 1) <= BOUNDS[name], name
