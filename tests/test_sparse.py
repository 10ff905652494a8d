import math
import time
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import chisquare

from covertq.channels import WillieModel
from covertq.covert import qre
from covertq.errors import DimensionCapError, SupportViolationError
from covertq.linops import DensityOperator, tensor_all, tensor_power
from covertq.detect import detection_at_n
from covertq.sparse import (
    SparseSignalConfig,
    WardenStates,
    _willie_state_matrix,
    decomposition_report,
    binary_entropy,
    bound_chain,
    chernoff_epsilon,
    sample_pattern,
    sample_patterns,
    weight_set_prob,
    willie_state_exact,
)
from conftest import random_density, random_willie_model

def _near(x):
    """x and its neighbours one ulp away on each side."""
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


WORKED = WillieModel(
    rho0=DensityOperator(np.diag([0.9, 0.1]).astype(complex)),
    rho_pi=DensityOperator(np.diag([0.5, 0.5]).astype(complex)),
)


class TestConfig:
    def test_weight_set_worked_example(self):
        cfg = SparseSignalConfig(n=4, q=0.5, vartheta=0.25)
        assert cfg.weight_set() == [1, 2, 3]

    def test_empty_weight_set_rejected(self):
        with pytest.raises(ValueError):
            SparseSignalConfig(n=5, q=0.5, vartheta=0.01)

    def test_weight_range_matches_full_scan(self):
        # q and vartheta sit on multiples of 1/n and one ulp off them,
        # where the 1e-15 slack decides membership at both ends.
        cases = 0
        for n in range(1, 26):
            w = np.arange(n + 1)
            for k in range(1, n):
                for j in range(1, n + 1):
                    for q in _near(k / n):
                        for v in _near(j / n):
                            if not (0.0 < q < 1.0 and 0.0 < v <= 1.0):
                                continue
                            scan = w[np.abs(q - w / n) <= v + 1e-15].tolist()
                            cases += 1
                            if not scan:
                                with pytest.raises(ValueError):
                                    SparseSignalConfig(n=n, q=q, vartheta=v)
                                continue
                            cfg = SparseSignalConfig(n=n, q=q, vartheta=v)
                            assert cfg.weight_set() == scan, (n, q, v)
        rng = np.random.default_rng(11)
        for n in rng.integers(26, 10**5, size=200):
            n = int(n)
            q, v = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5) ** 3
            w = np.arange(n + 1)
            scan = np.flatnonzero(np.abs(q - w / n) <= v + 1e-15)
            if len(scan):
                r = SparseSignalConfig(n=n, q=q, vartheta=v).weight_range()
                assert (r.start, r.stop) == (scan[0], scan[-1] + 1), (n, q, v)
                assert len(r) == len(scan)
                cases += 1
        assert cases > 40000

    def test_large_block_config_is_cheap(self):
        start = time.perf_counter()
        cfg = SparseSignalConfig(n=10**7, q=0.01, vartheta=0.005)
        p = weight_set_prob(cfg)
        assert time.perf_counter() - start < 0.1
        assert cfg.weight_range() == range(50000, 150001)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            SparseSignalConfig(n=0, q=0.5, vartheta=0.5)
        with pytest.raises(ValueError):
            SparseSignalConfig(n=4, q=0.0, vartheta=0.5)
        with pytest.raises(ValueError):
            SparseSignalConfig(n=4, q=1.0, vartheta=0.5)
        with pytest.raises(ValueError):
            SparseSignalConfig(n=4, q=0.5, vartheta=0.0)


class TestWeightSetProb:
    def test_worked_example(self):
        cfg = SparseSignalConfig(n=4, q=0.5, vartheta=0.25)
        assert weight_set_prob(cfg) == pytest.approx(0.875, abs=1e-14)

    def test_full_coverage(self):
        cfg = SparseSignalConfig(n=12, q=0.3, vartheta=1.0)
        assert weight_set_prob(cfg) == pytest.approx(1.0, abs=1e-14)

    def test_against_exhaustive_enumeration(self):
        cfg = SparseSignalConfig(n=20, q=0.3, vartheta=0.1)
        patterns = np.arange(2**20, dtype=np.uint64)
        w = np.zeros(2**20, dtype=np.int64)
        for b in range(20):
            w += ((patterns >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
        allowed = np.array([abs(0.3 - ww / 20) <= 0.1 + 1e-15 for ww in range(21)])
        mass = np.where(
            allowed[w], 0.3 ** w.astype(float) * 0.7 ** (20.0 - w), 0.0
        ).sum()
        assert weight_set_prob(cfg) == pytest.approx(float(mass), rel=1e-12)


GOLDEN_DETECT = Path(__file__).resolve().parent / "golden" / "detect_amplitude_damping.csv"


def _log_gamma_prob(cfg):
    """P(A) from scipy's log-gamma binomial terms, summed in log space."""
    ws = np.array(cfg.weight_set(), dtype=float)
    n, q = cfg.n, cfg.q
    logs = (
        gammaln(n + 1) - gammaln(ws + 1) - gammaln(n - ws + 1)
        + ws * math.log(q) + (n - ws) * math.log1p(-q)
    )
    peak = np.max(logs)
    return float(min(1.0, math.exp(peak) * np.sum(np.exp(logs - peak))))


def _decimal_prob(cfg):
    """P(A) in 50-digit decimal arithmetic: the exact C(n, w) for the first
    admissible weight, then the ratio of neighbouring terms."""
    ws = cfg.weight_set()
    with localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(cfg.q)
        n, w0 = cfg.n, ws[0]
        t = Decimal(math.comb(n, w0)) * q**w0 * (1 - q) ** (n - w0)
        total = Decimal(0)
        for w in range(w0, ws[-1] + 1):
            total += t
            t = t * (n - w) * q / ((w + 1) * (1 - q))
        return float(total)


class TestWeightSetProbWithoutScipy:
    def test_golden_config_bit_for_bit(self):
        header, row = GOLDEN_DETECT.read_text().strip().splitlines()
        f = dict(zip(header.split(","), row.split(",")))
        cfg = SparseSignalConfig(int(f["n"]), float(f["q"]), float(f["vartheta"]))
        assert weight_set_prob(cfg) == _log_gamma_prob(cfg)

    # n = 1023 and 1024 straddle the switch from C(n, w) to ratios from the mode.
    @pytest.mark.parametrize("n", [1000, 1023, 1024, 1100, 10**4, 10**5])
    @pytest.mark.parametrize("q,vartheta", [(0.3, 0.01), (0.5, 0.002), (0.05, 0.003)])
    def test_large_n(self, n, q, vartheta):
        cfg = SparseSignalConfig(n, q, vartheta)
        p = weight_set_prob(cfg)
        assert p == pytest.approx(_decimal_prob(cfg), rel=1e-12)
        # The log-gamma form carries a few ulps of log((n + 1)!) ~ n log n of
        # absolute error in each log term.
        assert p == pytest.approx(_log_gamma_prob(cfg), rel=1e-12 + 8 * np.spacing(n * math.log(n)))


class TestChernoff:
    def test_literal_formula(self):
        cfg = SparseSignalConfig(n=10**4, q=0.01, vartheta=0.5)
        assert chernoff_epsilon(cfg) == pytest.approx(2 * math.exp(-25 / 3), rel=1e-12)

    def test_vacuous_limit(self):
        cfg = SparseSignalConfig(n=2, q=0.5, vartheta=1e-9)
        assert chernoff_epsilon(cfg) == pytest.approx(2.0, abs=1e-12)

    def test_dominates_exact_tail_on_grid(self):
        for n in range(4, 21):
            for q in (0.1, 0.2, 0.3, 0.4, 0.5):
                for vth in np.arange(0.05, 0.51, 0.05):
                    try:
                        cfg = SparseSignalConfig(n=n, q=q, vartheta=float(vth))
                    except ValueError:
                        continue  # empty weight set at this grid point
                    assert 1 - weight_set_prob(cfg) <= chernoff_epsilon(cfg) + 1e-12


class TestSampling:
    def test_full_coverage_is_plain_bernoulli(self):
        cfg = SparseSignalConfig(n=16, q=0.25, vartheta=1.0)
        xs = sample_patterns(cfg, seed=1, count=20000)
        assert xs.shape == (20000, 16)
        assert float(xs.mean()) == pytest.approx(0.25, abs=0.01)

    def test_membership(self):
        cfg = SparseSignalConfig(n=4, q=0.5, vartheta=0.25)
        xs = sample_patterns(cfg, seed=2, count=5000)
        w = xs.sum(axis=1)
        assert set(np.unique(w)) <= {1, 2, 3}

    def test_single_pattern_interface(self):
        cfg = SparseSignalConfig(n=6, q=0.4, vartheta=0.3)
        x, w = sample_pattern(cfg, seed=3)
        assert x.shape == (6,)
        assert w == int(x.sum())
        assert w in cfg.weight_set()

    def test_seed_reproducible(self):
        cfg = SparseSignalConfig(n=8, q=0.3, vartheta=0.2)
        a = sample_patterns(cfg, seed=17, count=100)
        b = sample_patterns(cfg, seed=17, count=100)
        np.testing.assert_array_equal(a, b)

    def test_weight_histogram_matches_conditional_binomial(self):
        cfg = SparseSignalConfig(n=6, q=0.35, vartheta=0.2)
        ws = cfg.weight_set()
        assert ws == [1, 2, 3]
        xs = sample_patterns(cfg, seed=5, count=100000)
        counts = np.bincount(xs.sum(axis=1), minlength=7)[ws[0] : ws[-1] + 1]
        pmf = np.array(
            [math.comb(6, w) * 0.35**w * 0.65 ** (6 - w) for w in ws]
        )
        pmf /= pmf.sum()
        stat = chisquare(counts, f_exp=pmf * counts.sum())
        assert stat.pvalue >= 0.01


class TestWillieStateExact:
    def test_all_on_pattern(self, rng):
        model = random_willie_model(rng)
        cfg = SparseSignalConfig(n=3, q=0.95, vartheta=0.1)
        assert cfg.weight_set() == [3]
        got = willie_state_exact(model, cfg)
        np.testing.assert_allclose(got.mat, tensor_power(model.rho_pi.mat, 3), atol=1e-12)

    def test_all_innocent_pattern(self, rng):
        model = random_willie_model(rng)
        cfg = SparseSignalConfig(n=2, q=0.02, vartheta=0.02)
        assert cfg.weight_set() == [0]
        got = willie_state_exact(model, cfg)
        np.testing.assert_allclose(got.mat, tensor_power(model.rho0.mat, 2), atol=1e-12)

    def test_against_pattern_enumeration(self, rng):
        model = random_willie_model(rng)
        cfg = SparseSignalConfig(n=3, q=1 / 3, vartheta=0.4)
        expect = np.zeros((8, 8), dtype=complex)
        total = 0.0
        for bits in range(8):
            x = [(bits >> (2 - i)) & 1 for i in range(3)]
            w = sum(x)
            if abs(cfg.q - w / 3) > cfg.vartheta:
                continue
            weight = cfg.q**w * (1 - cfg.q) ** (3 - w)
            total += weight
            expect += weight * tensor_all(
                [model.rho_pi.mat if xi else model.rho0.mat for xi in x]
            )
        np.testing.assert_allclose(
            willie_state_exact(model, cfg).mat, expect / total, atol=1e-12
        )

    def test_output_is_valid_state(self, rng):
        for _ in range(10):
            model = random_willie_model(rng)
            cfg = SparseSignalConfig(n=4, q=0.3, vartheta=0.25)
            st = willie_state_exact(model, cfg)  # constructor validates
            assert st.dim == 16

    def test_dimension_cap(self, rng):
        model = random_willie_model(rng, dim=3)
        with pytest.raises(DimensionCapError):
            willie_state_exact(model, SparseSignalConfig(n=8, q=0.3, vartheta=0.3))


def _kron_recursion_state(model, cfg):
    """Reference build of the n-use warden state: every weight class at every
    level as a fresh np.kron result, then the weighted sum over the weight
    set."""
    level = [np.ones((1, 1), dtype=np.complex128)]
    for _ in range(cfg.n):
        nxt = []
        for w in range(len(level) + 1):
            acc = None
            if w < len(level):
                acc = np.kron(level[w], model.rho0.mat)
            if w > 0:
                term = np.kron(level[w - 1], model.rho_pi.mat)
                acc = term if acc is None else acc + term
            nxt.append(acc)
        level = nxt
    out = np.zeros_like(level[0])
    for w in cfg.weight_range():
        out += cfg.q**w * (1.0 - cfg.q) ** (cfg.n - w) * level[w]
    return out / weight_set_prob(cfg)


def _inner_weight_config(n, rng):
    """A config whose weight set leaves out weight 0 and weight n, so every
    class outside it that a build folds in changes the state."""
    while True:
        try:
            cfg = SparseSignalConfig(n=n, q=rng.uniform(0.15, 0.85), vartheta=rng.uniform(0.05, 0.3))
        except ValueError:
            continue
        ws = cfg.weight_range()
        if ws[0] > 0 and ws[-1] < n:
            return cfg


class TestBufferedBuild:
    @pytest.mark.parametrize("d,n_max", [(2, 10), (3, 6)])
    def test_bit_identical_to_kron_recursion(self, d, n_max):
        rng = np.random.default_rng(100 + d)
        for n in range(2, n_max + 1):
            model = random_willie_model(rng, dim=d)
            cfg = _inner_weight_config(n, rng)
            got = _willie_state_matrix(model, cfg)
            assert np.array_equal(got, _kron_recursion_state(model, cfg)), (d, n, cfg)
        model = random_willie_model(rng, dim=d)
        for cfg in (SparseSignalConfig(1, 0.4, 0.7), SparseSignalConfig(3, 0.5, 1.0)):
            assert np.array_equal(_willie_state_matrix(model, cfg), _kron_recursion_state(model, cfg))

    @pytest.mark.parametrize("d,hint", [(2, "n <= 10 for d=2"), (3, "n <= 6 for d=3")])
    def test_cap_hint(self, d, hint, rng):
        model = random_willie_model(rng, dim=d)
        cfg = SparseSignalConfig(n=11 if d == 2 else 7, q=0.3, vartheta=0.3)
        with pytest.raises(DimensionCapError, match=hint):
            _willie_state_matrix(model, cfg)

    def test_detect_path_memory_at_n9(self, rng):
        # Everything detect-sim does at n = 9 fits in seven 512-square
        # complex matrices of traced numpy memory.
        model = random_willie_model(rng)
        cfg = SparseSignalConfig(n=9, q=0.2, vartheta=0.5)
        tracemalloc.start()
        try:
            st = WardenStates(model, cfg)
            bound_chain(st)
            decomposition_report(st)
            detection_at_n(st, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 512**2 * 16, peak / 1e6


class TestBoundChain:
    def test_identical_outputs_vanish(self, rng):
        rho = random_density(2, rng, floor=0.2)
        model = WillieModel(rho0=rho, rho_pi=rho)
        chain = bound_chain(
            WardenStates(model, SparseSignalConfig(n=3, q=0.3, vartheta=0.3))
        )
        for v in chain:
            assert v == pytest.approx(0.0, abs=1e-9)

    def test_worked_model_chain(self):
        cfg = SparseSignalConfig(n=4, q=0.25, vartheta=0.3)
        chain = bound_chain(WardenStates(WORKED, cfg))
        assert chain.d_product == pytest.approx(chain.d_single_scaled, abs=1e-9)
        assert chain.d_single_scaled <= chain.d_chi2_bound + 1e-12
        # Exact enumeration oracle for d_exact on the commuting model.
        n, q = 4, 0.25
        ws = cfg.weight_set()
        pa = sum(math.comb(n, w) * q**w * (1 - q) ** (n - w) for w in ws)
        r0 = np.array([0.9, 0.1])
        rpi = np.array([0.5, 0.5])
        d = 0.0
        for k in range(n + 1):
            pc = 0.0
            for w in ws:
                cw = q**w * (1 - q) ** (n - w) / pa
                for m in range(max(0, w - (n - k)), min(k, w) + 1):
                    pc += (
                        cw
                        * math.comb(k, m)
                        * math.comb(n - k, w - m)
                        * rpi[1] ** m
                        * rpi[0] ** (w - m)
                        * r0[1] ** (k - m)
                        * r0[0] ** (n - w - k + m)
                    )
            p0 = r0[1] ** k * r0[0] ** (n - k)
            d += math.comb(n, k) * pc * math.log2(pc / p0)
        assert chain.d_exact == pytest.approx(d, abs=1e-10)

    def test_full_coverage_collapses_gap(self):
        cfg = SparseSignalConfig(n=4, q=0.25, vartheta=1.0)
        chain = bound_chain(WardenStates(WORKED, cfg))
        assert chain.d_exact == pytest.approx(chain.d_product, abs=1e-10)

    def test_gap_vanishes_with_tail(self):
        # The exact-versus-product gap is controlled by the correction-term
        # bounds, which shrink with the weight-set tail and hit zero at full
        # coverage.
        bounds, gaps = [], []
        for vth in (0.15, 0.3, 0.5, 0.75):
            cfg = SparseSignalConfig(n=6, q=0.25, vartheta=vth)
            chain = bound_chain(WardenStates(WORKED, cfg))
            rep = decomposition_report(WardenStates(WORKED, cfg))
            gaps.append(abs(chain.d_exact - chain.d_product))
            bounds.append(rep.fannes_bound + rep.holder_bound)
            assert gaps[-1] <= bounds[-1] + 1e-9
        assert bounds == sorted(bounds, reverse=True)
        assert gaps[-1] <= 1e-10

    def test_support_violation_raises(self):
        model = WillieModel(
            rho0=DensityOperator.basis_state(2, 0),
            rho_pi=DensityOperator.maximally_mixed(2),
        )
        with pytest.raises(SupportViolationError):
            bound_chain(
                WardenStates(model, SparseSignalConfig(n=2, q=0.3, vartheta=0.4))
            )


class TestDecompositionReport:
    def test_identical_outputs_vanish(self, rng):
        rho = random_density(2, rng, floor=0.2)
        model = WillieModel(rho0=rho, rho_pi=rho)
        rep = decomposition_report(
            WardenStates(model, SparseSignalConfig(n=3, q=0.3, vartheta=0.3))
        )
        assert rep.qre_total == pytest.approx(0.0, abs=1e-9)
        assert rep.term_product == pytest.approx(0.0, abs=1e-9)
        assert rep.term_entropy == pytest.approx(0.0, abs=1e-9)
        assert rep.term_cross == pytest.approx(0.0, abs=1e-9)
        assert rep.epsilon == pytest.approx(0.0, abs=1e-9)
        assert rep.chernoff_bound >= 0 and rep.fannes_bound >= 0

    def test_decomposition_identity_worked_model(self):
        rep = decomposition_report(
            WardenStates(WORKED, SparseSignalConfig(n=4, q=0.25, vartheta=0.3))
        )
        recon = rep.term_product + rep.term_entropy + rep.term_cross
        assert rep.qre_total == pytest.approx(recon, abs=1e-7)

    def test_terms_within_bounds(self, rng):
        for _ in range(5):
            model = random_willie_model(rng)
            rep = decomposition_report(
                WardenStates(model, SparseSignalConfig(n=4, q=0.3, vartheta=0.25))
            )
            assert abs(rep.term_entropy) <= rep.fannes_bound + 1e-9
            assert rep.holder_bound is not None
            assert abs(rep.term_cross) <= rep.holder_bound + 1e-9
            assert rep.epsilon <= rep.chernoff_bound + 1e-12

    def test_triangle_over_decomposition(self, rng):
        for _ in range(5):
            model = random_willie_model(rng)
            cfg = SparseSignalConfig(n=4, q=0.3, vartheta=0.25)
            rep = decomposition_report(WardenStates(model, cfg))
            assert rep.qre_total <= (
                rep.term_product + abs(rep.term_entropy) + abs(rep.term_cross) + 1e-9
            )

    def test_singular_innocent_without_violation(self):
        # Same rank-deficient support on both sides: containment holds but
        # the cross-term bound has no finite minimum eigenvalue.
        rho0 = DensityOperator(np.diag([0.7, 0.3, 0.0]).astype(complex))
        rho_pi = DensityOperator(np.diag([0.4, 0.6, 0.0]).astype(complex))
        model = WillieModel(rho0=rho0, rho_pi=rho_pi)
        rep = decomposition_report(
            WardenStates(model, SparseSignalConfig(n=2, q=0.3, vartheta=0.4))
        )
        assert rep.holder_bound is None
        assert rep.qre_total == pytest.approx(
            rep.term_product + rep.term_entropy + rep.term_cross, abs=1e-7
        )

    def test_support_violation_raises(self):
        model = WillieModel(
            rho0=DensityOperator.basis_state(2, 0),
            rho_pi=DensityOperator.maximally_mixed(2),
        )
        with pytest.raises(SupportViolationError):
            decomposition_report(
                WardenStates(model, SparseSignalConfig(n=2, q=0.3, vartheta=0.4))
            )


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_exact_state_agrees_with_qre_paths(rng):
    # Divergence of the exact state computed through two library paths.
    model = random_willie_model(rng)
    cfg = SparseSignalConfig(n=3, q=0.4, vartheta=0.35)
    chain = bound_chain(WardenStates(model, cfg))
    direct = qre(
        willie_state_exact(model, cfg),
        DensityOperator(tensor_power(model.rho0.mat, 3)),
    )
    assert chain.d_exact == pytest.approx(direct, abs=1e-10)


def test_shared_states_match_fresh_ones(rng):
    model = random_willie_model(rng)
    cfg = SparseSignalConfig(n=4, q=0.3, vartheta=0.25)
    states = WardenStates(model, cfg)
    assert bound_chain(states) == bound_chain(WardenStates(model, cfg))
    shared = decomposition_report(states)
    assert shared.qre_total == states.d_exact
    assert shared == decomposition_report(WardenStates(model, cfg))
    assert detection_at_n(states, 0.05) == detection_at_n(
        WardenStates(model, cfg), 0.05
    )
