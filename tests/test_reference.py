"""A 60-digit reference for the n-use figures that detect-sim prints, on
qubit pairs and a commuting qutrit pair.

In the frame that ``WardenStates`` holds, a commuting pair has both warden
states diagonal, so rho_n, mix^n and rho0^n are diagonal, and each entry
depends only on the type k of its basis string: k_c of its n letters are
level c. Summed over the signal patterns of weight w, the string's one-site
products give the t^w coefficient of prod_c (a_c + t b_c)^(k_c), with a and
b the diagonals of rho0 and rho_pi, so rho_n's entry is a sum over w with
exact binomials. A coherent pair (nonzero frame coherence, the Schur-Weyl
block route) is checked on whole 2^n-square matrices instead, formed from
the weight-class sums and diagonalized by ``mpmath.eigsy``. mpmath carries
every sum at 60 digits from the float64 frame, so what is measured is the
error of the float64 route alone.
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
from conftest import random_willie_model

TESTS = Path(__file__).resolve().parent
AD_SPEC = TESTS.parent / "data" / "amplitude_damping.json"

# Relative bound per figure, about ten times the largest error measured on
# the cases below: d_exact 5.1e-13 and d_product 1.1e-12 (random-diagonal-n8),
# epsilon 1.7e-12 (shipped-n10), the trace distance 1.2e-15
# (random-diagonal-n8). On the shipped model at n = 6 they are 2.6e-16,
# 1.5e-14, 2.6e-14 and 3.7e-16.
BOUNDS = {"d_exact": 5e-12, "d_product": 1e-11, "epsilon": 2e-11, "trace_distance": 1e-14}
# The commuting qutrit's bounds, about ten times its measured errors:
# d_exact 2.2e-13, d_product 2.1e-13, epsilon 2.1e-14 and the trace
# distance 1.8e-16.
QUTRIT_BOUNDS = {"d_exact": 2e-12, "d_product": 2e-12, "epsilon": 2e-13, "trace_distance": 2e-15}
# The coherent pairs' bounds, about ten times the largest error measured on
# their cases: d_exact 4.3e-15 (coherent-5-n4), d_product 1.3e-14
# (coherent-6-n5), epsilon 4.1e-15 (coherent-5-n5) and the trace distance
# 4.9e-16 (coherent-5-n4).
COHERENT_BOUNDS = {"d_exact": 5e-14, "d_product": 1e-13, "epsilon": 5e-14, "trace_distance": 5e-15}


def reference_figures(states: WardenStates) -> dict:
    """d_exact, d_product, epsilon and the trace distance of a commuting
    pair of any dimension at 60 digits, summed over output types and
    pattern weights w."""
    model, cfg = states.model, states.cfg
    a, b = (np.diagonal(rho.mat).real for rho in (model.rho0, model.rho_pi))
    assert np.array_equal(model.rho_pi.mat, np.diag(b)), "a commuting pair"
    with mpmath.workdps(60):
        n, q = cfg.n, mpmath.mpf(cfg.q)
        a, b = [mpmath.mpf(float(x)) for x in a], [mpmath.mpf(float(x)) for x in b]
        m = [(1 - q) * x + q * y for x, y in zip(a, b)]
        ws = _weight_set(cfg)
        p_set = mpmath.fsum(mpmath.binomial(n, w) * q**w * (1 - q) ** (n - w) for w in ws)
        d_exact = d_product = epsilon = trace_distance = mpmath.mpf(0)
        for k in _output_types(n, len(a)):
            coeff = _pattern_weight_sums(a, b, k)
            r = mpmath.fsum(q**w * (1 - q) ** (n - w) * coeff[w] for w in ws) / p_set
            s = mpmath.fprod(x**kc for x, kc in zip(a, k))
            mm = mpmath.fprod(x**kc for x, kc in zip(m, k))
            c = mpmath.factorial(n) / mpmath.fprod(mpmath.factorial(kc) for kc in k)
            if r > 0:
                d_exact += c * r * mpmath.log(r / s, 2)
            d_product += c * mm * mpmath.log(mm / s, 2)
            epsilon += c * abs(mm - r) / 2
            trace_distance += c * abs(r - s)
        return {"d_exact": d_exact, "d_product": d_product, "epsilon": epsilon,
                "trace_distance": trace_distance}


def _output_types(n: int, dim: int) -> list:
    """Every type (k_0, ..., k_{dim-1}) of an n-letter output string: how
    many of its letters are each basis level."""
    if dim == 1:
        return [(n,)]
    return [(k, *rest) for k in range(n + 1) for rest in _output_types(n - k, dim - 1)]


def _pattern_weight_sums(a: list, b: list, k: tuple) -> list:
    """For one string of type k, the sum over signal patterns of weight w
    of the product of its n one-site entries, a_c off the pattern and b_c
    on it: the t^w coefficient of prod_c (a_c + t b_c)^(k_c), for w = 0..n."""
    poly = [mpmath.mpf(1)]
    for ac, bc, kc in zip(a, b, k):
        factor = [mpmath.binomial(kc, j) * ac ** (kc - j) * bc**j for j in range(kc + 1)]
        poly = [
            mpmath.fsum(poly[i] * factor[w - i] for i in range(max(0, w - kc), min(w, len(poly) - 1) + 1))
            for w in range(len(poly) + kc)
        ]
    return poly


def _weight_set(cfg: SparseSignalConfig) -> list:
    """The weight set |q - w/n| <= vartheta in exact rationals."""
    n = cfg.n
    ws = [w for w in range(n + 1) if abs(Fraction(cfg.q) - Fraction(w, n)) <= Fraction(cfg.vartheta)]
    assert ws == list(cfg.weight_range())
    return ws


def _kron(a, b):
    return mpmath.matrix([
        [a[i // b.rows, j // b.cols] * b[i % b.rows, j % b.cols] for j in range(a.cols * b.cols)]
        for i in range(a.rows * b.rows)
    ])


def _bits(vals) -> mpmath.mpf:
    """The sum of v log2 v over the positive values."""
    return mpmath.fsum(v * mpmath.log(v, 2) for v in vals if v > 0)


def dense_reference_figures(states: WardenStates) -> dict:
    """d_exact, d_product, epsilon and the trace distance of a coherent qubit
    pair at 60 digits, on 2^n-square matrices. The class sums S[w] of the
    n-fold products with w factors rho_pi' and n - w factors rho0' grow one
    slot at a time; rho_n and mix^n are their weight-set and binomial
    mixtures, and rho0^n is S[0], diagonal in the frame. d_product is n
    times the single-use divergence, exact by additivity."""
    model, cfg = states.model, states.cfg
    assert model.dim == 2 and model.rho_pi.mat[0, 1] != 0, "a coherent qubit pair"
    with mpmath.workdps(60):
        n, q, ws = cfg.n, mpmath.mpf(cfg.q), _weight_set(cfg)
        r0, r_pi = (mpmath.matrix(rho.mat.real.tolist()) for rho in (model.rho0, model.rho_pi))
        sums = [mpmath.matrix([[1]])]
        for _ in range(n):
            grown = [_kron(s, r0) for s in sums] + [_kron(sums[-1], r_pi)]
            for w in range(1, len(sums)):
                grown[w] += _kron(sums[w - 1], r_pi)
            sums = grown
        p = [q**w * (1 - q) ** (n - w) for w in range(n + 1)]
        p_set = mpmath.fsum(mpmath.binomial(n, w) * p[w] for w in ws)
        rho_n, mix_n = mpmath.zeros(2**n), mpmath.zeros(2**n)
        for w in range(n + 1):
            mix_n += p[w] * sums[w]
            if w in ws:
                rho_n += p[w] / p_set * sums[w]
        rho0_n = sums[0]
        log_ref = [mpmath.log(rho0_n[i, i], 2) for i in range(2**n)]
        mix = (1 - q) * r0 + q * r_pi
        return {
            "d_exact": _bits(mpmath.eigsy(rho_n, eigvals_only=True))
            - mpmath.fsum(rho_n[i, i] * log_ref[i] for i in range(2**n)),
            "d_product": n * (_bits(mpmath.eigsy(mix, eigvals_only=True))
                              - mpmath.fsum(mix[i, i] * mpmath.log(r0[i, i], 2) for i in range(2))),
            "epsilon": mpmath.fsum(map(abs, mpmath.eigsy(mix_n - rho_n, eigvals_only=True))) / 2,
            "trace_distance": mpmath.fsum(map(abs, mpmath.eigsy(rho_n - rho0_n, eigvals_only=True))),
        }


def relative_errors(states: WardenStates, reference=reference_figures) -> dict:
    fig = states.figures._asdict()
    return {
        name: float(abs((mpmath.mpf(fig[name]) - ref) / ref))
        for name, ref in reference(states).items()
    }


def _shipped(n: int, vartheta: float) -> WardenStates:
    ch = channels.load_channel(AD_SPEC)
    model = channels.willie_model(channels.complementary(ch), DensityOperator.basis_state(2, 1))
    q = covert.q_for_budget(covert.covert_constant(model), 0.05, n)
    return WardenStates(model, SparseSignalConfig(n=n, q=q, vartheta=vartheta))


def _random_diagonal(seed: int, n: int, dim: int = 2) -> WardenStates:
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.05, 1.0, size=dim), rng.uniform(0.0, 1.0, size=dim)
    model = channels.WillieModel(
        DensityOperator(np.diag(a / a.sum())), DensityOperator(np.diag(b / b.sum()))
    )
    cfg = SparseSignalConfig(n=n, q=float(rng.uniform(0.05, 0.4)), vartheta=0.3)
    return WardenStates(model, cfg)


def _random_coherent(seed: int, n: int) -> WardenStates:
    rng = np.random.default_rng(seed)
    model = random_willie_model(rng)
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


def test_dense_qutrit_figures_match_the_60_digit_reference():
    # A random diagonal qutrit pair at n = 6 takes the dense route on the
    # 729-square states; the reference sums over its 28 output types.
    states = _random_diagonal(7, 6, dim=3)
    assert len(_output_types(6, 3)) == 28
    errors = relative_errors(states)
    assert {k: e for k, e in errors.items() if not e <= QUTRIT_BOUNDS[k]} == {}, errors


COHERENT_CASES = {
    f"coherent-{seed}-n{n}": (lambda seed=seed, n=n: _random_coherent(seed, n))
    for seed in (5, 6)
    for n in (4, 5)
}


@pytest.mark.parametrize("case", COHERENT_CASES)
def test_block_route_figures_match_the_60_digit_reference(case):
    errors = relative_errors(COHERENT_CASES[case](), dense_reference_figures)
    assert {k: e for k, e in errors.items() if not e <= COHERENT_BOUNDS[k]} == {}, errors


def test_golden_figures_match_the_60_digit_reference():
    # The detect golden is the shipped model at n = 6; its printed digits
    # are held to the same bounds.
    with open(TESTS / "golden" / "detect_amplitude_damping.csv", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    ref = reference_figures(_shipped(6, 0.5))
    for name in ("d_exact", "d_product", "epsilon"):
        assert abs(mpmath.mpf(row[name]) / ref[name] - 1) <= BOUNDS[name], name
