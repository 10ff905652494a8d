import math
import time
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from covertq.channels import (
    QuantumChannel,
    WillieModel,
    amplitude_damping,
    complementary,
    willie_model,
)
from covertq.covert import LN2, chi2, qre, vn_entropy
from covertq.errors import DimensionCapError, SupportViolationError
from covertq import linops, sparse
from covertq.linops import SUPPORT_TOL, DensityOperator, tensor_power
from covertq.detect import detection_at_n
from covertq.sparse import (
    SparseSignalConfig,
    WardenStates,
    _outer_power,
    _willie_state_matrix,
    decomposition_report,
    binary_entropy,
    bound_chain,
    chernoff_epsilon,
    weight_set_prob,
    willie_state_exact,
)
from conftest import random_channel, random_density, random_pure, random_willie_model


def _tensor_all(mats):
    """Kronecker product of a sequence of matrices, left to right."""
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


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
        assert list(cfg.weight_range()) == [1, 2, 3]

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
                            assert list(cfg.weight_range()) == scan, (n, q, v)
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

    @pytest.mark.parametrize("q,v", [(0.3, 0.1), (0.5, 1e-20), (0.01, 1.0)])
    def test_weight_range_ends_at_huge_n(self, q, v):
        # Bisection finds both ends in O(log n) membership tests.
        n = 10**30

        def ok(w):
            return 0 <= w <= n and abs(q - w / n) <= v + 1e-15

        start = time.perf_counter()
        r = SparseSignalConfig(n=n, q=q, vartheta=v).weight_range()
        assert time.perf_counter() - start < 0.05
        assert ok(r.start) and not ok(r.start - 1)
        assert ok(r.stop - 1) and not ok(r.stop)

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
    ws = np.array(cfg.weight_range(), dtype=float)
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
    ws = cfg.weight_range()
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


class TestWillieStateExact:
    def test_all_on_pattern(self, rng):
        model = random_willie_model(rng)
        cfg = SparseSignalConfig(n=3, q=0.95, vartheta=0.1)
        assert list(cfg.weight_range()) == [3]
        got = willie_state_exact(model, cfg)
        np.testing.assert_allclose(got.mat, tensor_power(model.rho_pi.mat, 3), atol=1e-12)

    def test_all_innocent_pattern(self, rng):
        model = random_willie_model(rng)
        cfg = SparseSignalConfig(n=2, q=0.02, vartheta=0.02)
        assert list(cfg.weight_range()) == [0]
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
            expect += weight * _tensor_all(
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
    level as a fresh np.kron result in the model's dtype, then the weighted
    sum over the weight set, scaled by the reciprocal of its probability as
    the package scales it."""
    level = [np.ones((1, 1), dtype=np.result_type(model.rho0.mat, model.rho_pi.mat))]
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
    return out * (1.0 / weight_set_prob(cfg))


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
        # One admissible class that leaves out weight 0, at n = 1 and past
        # one block of rows.
        for cfg in (SparseSignalConfig(1, 0.8, 0.3), SparseSignalConfig(n_max, 0.5, 0.01)):
            ws = cfg.weight_range()
            assert len(ws) == 1 and ws.start > 0, cfg
            assert np.array_equal(_willie_state_matrix(model, cfg), _kron_recursion_state(model, cfg))

    @pytest.mark.parametrize("d,hint", [(2, "n <= 10 for d=2"), (3, "n <= 6 for d=3")])
    def test_cap_hint(self, d, hint, rng):
        model = random_willie_model(rng, dim=d)
        cfg = SparseSignalConfig(n=11 if d == 2 else 7, q=0.3, vartheta=0.3)
        with pytest.raises(DimensionCapError, match=hint):
            _willie_state_matrix(model, cfg)

    @staticmethod
    def _detect_path_peak(model, cfg):
        """Traced numpy peak of everything detect-sim does, in d^n-square
        complex matrices."""
        tracemalloc.start()
        try:
            st = WardenStates(model, cfg)
            bound_chain(st)
            decomposition_report(st)
            detection_at_n(st, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (model.dim**cfg.n) ** 2 / 16

    # At the dense cap, the dense pass fits in three d^n-square matrices of
    # numpy memory: two live states (or one state and the difference a trace
    # norm takes), and the row or column blocks of everything else. A complex
    # qutrit model runs it in complex arithmetic: 3 units of 16 bytes an
    # entry. A coherent qubit model takes the block pass, which holds no
    # d^n-square matrix, only blocks of at most n + 1 rows and d^n-long
    # diagonals: under a twentieth of a unit.
    def test_detect_path_memory_at_n9(self, rng):
        cfg = SparseSignalConfig(n=9, q=0.2, vartheta=0.5)
        assert self._detect_path_peak(random_willie_model(rng), cfg) <= 0.05

    def test_detect_path_memory_qutrit_n6(self, rng):
        cfg = SparseSignalConfig(n=6, q=0.2, vartheta=0.5)
        assert self._detect_path_peak(random_willie_model(rng, dim=3), cfg) <= 3

    def test_pass_forms_one_power_and_validates_only_rho_n(self, rng, monkeypatch):
        # rho0^n is never formed: the pass builds the mixture power once, and
        # no n-use state but rho_n is validated as a DensityOperator.
        # A diagonal qubit pair takes the dense pass.
        st = WardenStates(_diagonal_model(rng), SparseSignalConfig(n=9, q=0.2, vartheta=0.5))
        powers, validated = [], []
        power, post_init = linops.tensor_power, DensityOperator.__post_init__

        def counted_power(*args):
            powers.append(args[1])
            return power(*args)

        def recorded_post_init(self, derived):
            post_init(self, derived)
            validated.append(self.mat)

        for mod in (linops, sparse):
            monkeypatch.setattr(mod, "tensor_power", counted_power)
        monkeypatch.setattr(DensityOperator, "__post_init__", recorded_post_init)
        st.figures
        monkeypatch.undo()
        assert powers == [9]
        n_use = [m for m in validated if len(m) == 2**9]
        assert len(n_use) == 1
        assert np.array_equal(n_use[0], _willie_state_matrix(st.model, st.cfg))


def _kron_chain(m, k):
    """Reference k-fold Kronecker power: a fresh np.kron result per factor."""
    out = m
    for _ in range(k - 1):
        out = np.kron(out, m)
    return out


def _qre_full_frame(rho_mat, rho_vals, site, k):
    """Reference D(rho || site^(x)k) in bits, on a full-rank site: the sorted
    Kronecker-power eigenvectors formed as one matrix V, and the overlaps
    read as np.sum(v.conj() * (rho @ v), 0) over all of it at once."""
    vals = site.eigvals
    for _ in range(k - 1):
        vals = np.multiply.outer(vals, site.eigvals).ravel()
    order = np.argsort(vals, kind="stable")
    v = _kron_chain(site.eigh()[1], k)[:, order]
    overlap = np.clip(np.real(np.sum(v.conj() * (rho_mat @ v), 0)), 0.0, None)
    pos = np.array(rho_vals, dtype=float)
    pos[(pos < 0.0) & (pos >= -1e-9)] = 0.0
    pos = pos[pos > 0.0]
    return float(np.sum(pos * np.log2(pos))) - float(np.sum(overlap * np.log2(vals[order])))


def _mixed_ad_model(rng):
    """Warden model of amplitude damping with its Kraus pair mixed by a random
    unitary: the same channel, with dense, commuting warden outputs."""
    ad = amplitude_damping(0.3)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    mixed = QuantumChannel(tuple(u[i, 0] * ad.kraus[0] + u[i, 1] * ad.kraus[1] for i in range(2)))
    return willie_model(complementary(mixed), DensityOperator.basis_state(2, 1))


def _check_detect_figures(model, n):
    """Every detect-sim figure at block length n equals, with ==, its value
    from whole d^n-square matrices: the np.kron recursion for the warden
    state, np.kron chains for the products, and the mixture power's
    spectrum as the sorted outer product of the mixture's eigenvalues. The
    references are built from ``st.model``, the frame the pass computes in,
    and in its dtype."""
    cfg = SparseSignalConfig(n=n, q=0.2, vartheta=0.5)
    st = WardenStates(model, cfg)
    # The reports' self-checks pass on the figures compared below.
    bound_chain(st)
    decomposition_report(st)
    detection_at_n(st, 0.05)
    fig = st.figures
    model = st.model

    rho_n = _kron_recursion_state(model, cfg)
    prod_inn = _kron_chain(model.rho0.mat, n)
    mix = (1.0 - cfg.q) * model.rho0.mat + cfg.q * model.rho_pi.mat
    prod_mix = _kron_chain(mix, n)
    mix_vals = vals = np.linalg.eigvalsh(mix)
    for _ in range(n - 1):
        vals = np.multiply.outer(vals, mix_vals).ravel()
    d_exact = _qre_full_frame(rho_n, np.linalg.eigvalsh(rho_n), model.rho0, n)
    d_product = _qre_full_frame(prod_mix, np.sort(vals), model.rho0, n)
    assert fig.d_exact == d_exact
    assert fig.d_product == d_product
    assert fig.epsilon == 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(prod_mix - rho_n))))
    assert fig.trace_distance == float(np.sum(np.abs(np.linalg.eigvalsh(rho_n - prod_inn))))


class TestBitIdentity:
    """On the dense pass (pairs of dimension above 2, and diagonal qubit
    pairs), the row- and column-block products, the buffered builds and the
    one-pass figures print the same bytes as whole-matrix products."""

    @pytest.mark.parametrize("kind", ["diagonal", "mixed-ad", "isometry"])
    def test_detect_figures_at_n9(self, kind):
        rng = np.random.default_rng(9)
        if kind == "diagonal":
            # A diagonal qubit pair takes the dense pass, as the shipped
            # model does.
            _check_detect_figures(_diagonal_model(rng), 9)
            return
        if kind == "mixed-ad":
            model = _mixed_ad_model(rng)
        else:
            ch = complementary(random_channel(2, 2, 2, rng))
            model = willie_model(ch, DensityOperator.basis_state(2, 1))
        # A qubit pair with frame coherence takes the block pass, whose sums
        # run in another order: within 1e-12 of whole complex matrices.
        cfg = SparseSignalConfig(n=9, q=0.2, vartheta=0.5)
        assert WardenStates(model, cfg).model.rho_pi.mat[0, 1] != 0
        _check_frame(model, cfg)

    def test_detect_figures_qutrit_n6(self):
        _check_detect_figures(random_willie_model(np.random.default_rng(6), dim=3), 6)

    def test_frame_power_is_the_outer_product_diagonal(self, rng):
        # In its frame rho0^(x)k is the diagonal of the outer-product
        # eigenvalues, bit for bit; the pass reads its spectrum from them.
        for d, k in ((2, 9), (3, 5)):
            frame = WardenStates(random_willie_model(rng, dim=d), SparseSignalConfig(k, 0.3, 0.5)).model
            lam = frame.rho0.eigvals
            assert np.array_equal(frame.rho0.mat, np.diag(lam))
            assert np.array_equal(_kron_chain(frame.rho0.mat, k), np.diag(_outer_power(np.multiply, lam, k)))


def _frame_unitary(model):
    """The U of ``WardenStates``: rho0's eigenvectors V, times
    diag(1, e^{-i arg B01}) for a qubit model, B = V^dag rho_pi V."""
    v = model.rho0.eigh()[1]
    if model.dim > 2:
        return v
    b01 = (v.conj().T @ model.rho_pi.mat @ v)[0, 1]
    return v * np.array([1.0, np.exp(-1j * np.angle(b01))])


def _site_marginals(m, n, d):
    """Sum over sites of the one-site partial traces, by np.trace."""
    total = np.zeros((d, d), dtype=m.dtype)
    for i in range(n):
        t = m.reshape(d**i, d, d ** (n - 1 - i), d**i, d, d ** (n - 1 - i))
        total += np.trace(np.trace(t, axis1=0, axis2=3), axis1=1, axis2=3)
    return total


def _whole_matrix_figures(model, cfg):
    """Every figure of ``WardenFigures``, ``BoundChain`` and
    ``DecompositionReport``, by name, from whole complex d^n-square matrices
    of the given model: no frame, no power spectra, no blocks. log2 rho0^n
    is the whole-matrix sum of site logs, since an eigensolve of the power
    itself loses the relative accuracy of its smallest eigenvalues."""
    n, q, d = cfg.n, cfg.q, model.dim
    rho0, rho_pi = model.rho0.mat, model.rho_pi.mat
    mix = (1.0 - q) * rho0 + q * rho_pi
    rho_n = _kron_recursion_state(model, cfg)
    prod_inn, prod_mix = _kron_chain(rho0, n), _kron_chain(mix, n)
    n_op, mix_op = (DensityOperator(m, _derived=True) for m in (rho_n, prod_mix))
    delta = prod_mix - rho_n
    vals, vecs = np.linalg.eigh(rho0)
    logs = np.where(vals > SUPPORT_TOL, np.log2(np.maximum(vals, SUPPORT_TOL)), 0.0)
    log_site = (vecs * logs) @ vecs.conj().T
    log_n = sum(_tensor_all([np.eye(d**i), log_site, np.eye(d ** (n - 1 - i))]) for i in range(n))
    epsilon = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))

    def d_to_inn(op):
        # Floored at 0 as ``qre`` floors it: a tolerated kernel mass of rho0^n
        # adds its entropy to -S but drops out of the log term.
        return max(0.0, -vn_entropy(op) - float(np.real(np.trace(op.mat @ log_n))))

    return {
        "d_exact": d_to_inn(n_op),
        "d_product": d_to_inn(mix_op),
        "entropy_gap": vn_entropy(mix_op) - vn_entropy(n_op),
        "marginal_gap": _site_marginals(delta, n, d),
        "epsilon": epsilon,
        "trace_distance": float(np.sum(np.abs(np.linalg.eigvalsh(rho_n - prod_inn)))),
        "d_single_scaled": n * qre(DensityOperator(mix, _derived=True), model.rho0),
        "d_chi2_bound": q**2 * n * chi2(model.rho_pi, model.rho0) / LN2,
        "term_cross": float(np.real(np.trace(delta @ log_n))),
        "chernoff_bound": chernoff_epsilon(cfg),
        "fannes_bound": epsilon * n * math.log2(d) + binary_entropy(min(1.0, epsilon)),
        "holder_bound": (
            2.0 * epsilon * n * math.log2(1.0 / vals[0]) if vals[0] > SUPPORT_TOL else None
        ),
    }


def _singular_model(rng):
    """Pure complex rho0, and rho_pi in its support up to 1e-12 of mass on its
    kernel."""
    rho0 = random_pure(2, rng)
    rho_pi = (1.0 - 1e-12) * rho0.mat + 1e-12 * (np.eye(2) - rho0.mat)
    return WillieModel(rho0=rho0, rho_pi=DensityOperator(rho_pi))


def _real_model(rng):
    """Non-commuting states with real entries, held as complex."""
    def real_state():
        g = rng.normal(size=(2, 2))
        m = g @ g.T + 0.1 * np.eye(2)
        return DensityOperator((m / np.trace(m)).astype(complex))
    return WillieModel(rho0=real_state(), rho_pi=real_state())


QUBIT_MODELS = {
    "mixed-ad": _mixed_ad_model,
    "non-commuting": random_willie_model,
    "singular": _singular_model,
    "real": _real_model,
}


def _diagonal_model(rng):
    """Diagonal real states, rho0's larger eigenvalue first, as in the shipped
    model: the frame only reorders the basis."""
    p, r = rng.uniform(0.6, 0.95), rng.uniform(0.05, 0.95)
    return WillieModel(
        rho0=DensityOperator(np.diag([p, 1.0 - p]).astype(complex)),
        rho_pi=DensityOperator(np.diag([r, 1.0 - r]).astype(complex)),
    )


def _real_float_model(rng):
    """Non-commuting real qubit states held as float64."""
    model = _real_model(rng)
    return WillieModel(*(DensityOperator(s.mat.real.copy()) for s in (model.rho0, model.rho_pi)))


def _real_qutrit_model(rng):
    """Non-commuting real qutrit states, rho0 of full rank, held as complex."""
    model = random_willie_model(rng, dim=3)
    return WillieModel(*(DensityOperator(s.mat.real.astype(complex)) for s in (model.rho0, model.rho_pi)))


FRAME_MODELS = {
    **QUBIT_MODELS,
    "diagonal": _diagonal_model,
    "real-float": _real_float_model,
    "real-qutrit": _real_qutrit_model,
    "complex-qutrit": lambda rng: random_willie_model(rng, dim=3),
}


def _check_frame(model, cfg=None):
    """``WardenStates`` holds the model in rho0's eigenbasis, rho0 as the
    exact diagonal of its eigenvalues, in float64 unless the pair is complex
    and above qubit dimension; every figure is the given model's, within
    1e-12 of whole complex matrices."""
    cfg = cfg or SparseSignalConfig(n=6 if model.dim == 2 else 4, q=0.3, vartheta=0.5)
    st = WardenStates(model, cfg)
    assert np.array_equal(st.model.rho0.mat, np.diag(st.model.rho0.eigvals))
    complex_pair = model.dim > 2 and (model.rho0.mat.imag.any() or model.rho_pi.mat.imag.any())
    assert st.model.rho0.mat.dtype == np.float64
    assert st.model.rho_pi.mat.dtype == (np.complex128 if complex_pair else np.float64)
    u = _frame_unitary(model)
    for given, frame in ((model.rho0, st.model.rho0), (model.rho_pi, st.model.rho_pi)):
        assert np.abs(u.conj().T @ given.mat @ u - frame.mat).max() <= 1e-15
    got = {
        **st.figures._asdict(),
        **bound_chain(st)._asdict(),
        **decomposition_report(st)._asdict(),
    }
    want = _whole_matrix_figures(model, cfg)
    assert set(got) == set(want)
    # The marginal gap is held in the frame; rotated back, it is the model's.
    got["marginal_gap"] = u @ got["marginal_gap"] @ u.conj().T
    for name, value in want.items():
        if value is None:
            assert got[name] is None, name
        else:
            assert np.abs(got[name] - value).max() <= 1e-12, (name, got[name], value)


class TestRealFrame:
    """``WardenStates`` computes in rho0's eigenbasis, in real arithmetic for
    every qubit or real pair; every figure is the given model's."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", sorted(QUBIT_MODELS))
    def test_qubit_figures_match_whole_complex_matrices(self, kind, seed):
        _check_frame(QUBIT_MODELS[kind](np.random.default_rng(seed)))

    @pytest.mark.parametrize("kind", sorted(FRAME_MODELS))
    def test_frame_is_the_eigenbasis_of_rho0(self, kind):
        _check_frame(FRAME_MODELS[kind](np.random.default_rng(7)))


class TestSchurWeylBlocks:
    """A qubit pair with a nonzero frame coherence takes the block pass: its
    figures come from the Schur-Weyl blocks of the permutation-invariant
    states, at most n + 1 wide."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_product_split(self, n):
        # The irreps of (C^2)^(x)n fill the space, and on them a product
        # A^(x)n has the spectrum of the Kronecker chain.
        g = np.random.default_rng(n).normal(size=(2, 2))
        a = g + g.T
        split = list(sparse._sym_blocks(a, np.zeros((2, 2)), n))
        assert sum(mult * len(blocks) for mult, blocks in split) == 2**n
        assert all(not blocks[..., 1:].any() for _, blocks in split)
        vals = np.concatenate([np.repeat(np.linalg.eigvalsh(b[..., 0]), mult) for mult, b in split])
        assert np.abs(np.sort(vals) - np.linalg.eigvalsh(_kron_chain(a, n))).max() <= 1e-13

    def test_coherent_pair_forms_no_n_use_state(self, rng, monkeypatch):
        # Neither n-use builder runs, and no validated state is wider than
        # an irrep.
        st = WardenStates(random_willie_model(rng), SparseSignalConfig(n=9, q=0.2, vartheta=0.5))
        assert st.model.rho_pi.mat[0, 1] != 0
        built, widths = [], []
        post_init = DensityOperator.__post_init__

        def refused(*args):
            built.append(args)
            raise AssertionError("an n-use state is formed")

        def recorded_post_init(self, derived):
            post_init(self, derived)
            widths.append(len(self.mat))

        for mod in (linops, sparse):
            for name in ("tensor_power", "willie_state_exact"):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, refused)
        monkeypatch.setattr(DensityOperator, "__post_init__", recorded_post_init)
        st.figures
        monkeypatch.undo()
        assert built == []
        assert widths and max(widths) <= 10

    @pytest.mark.parametrize("kind", [*sorted(QUBIT_MODELS), "flat-rho0"])
    def test_figures_match_whole_matrices(self, kind):
        # For n = 1 .. 10, on weight sets that leave out weights 0 and n
        # (at n = 1 the set holds both), every figure is within 1e-12 of
        # whole complex matrices.
        rng = np.random.default_rng(22)
        for n in range(1, 11):
            if kind == "flat-rho0":
                model = WillieModel(DensityOperator.maximally_mixed(2), random_willie_model(rng).rho_pi)
            else:
                model = QUBIT_MODELS[kind](rng)
            cfg = _inner_weight_config(n, rng) if n > 1 else SparseSignalConfig(1, 0.4, 0.7)
            _check_frame(model, cfg)


class TestBoundChain:
    def test_identical_outputs_vanish(self, rng):
        rho = random_density(2, rng, floor=0.2)
        model = WillieModel(rho0=rho, rho_pi=rho)
        st = WardenStates(model, SparseSignalConfig(n=3, q=0.3, vartheta=0.3))
        chain = bound_chain(st)
        for v in (st.figures.d_exact, st.figures.d_product, *chain):
            assert v == pytest.approx(0.0, abs=1e-9)

    def test_worked_model_chain(self):
        cfg = SparseSignalConfig(n=4, q=0.25, vartheta=0.3)
        st = WardenStates(WORKED, cfg)
        chain = bound_chain(st)
        assert st.figures.d_product == pytest.approx(chain.d_single_scaled, abs=1e-9)
        assert chain.d_single_scaled <= chain.d_chi2_bound + 1e-12
        # Exact enumeration oracle for d_exact on the commuting model.
        n, q = 4, 0.25
        ws = cfg.weight_range()
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
        assert st.figures.d_exact == pytest.approx(d, abs=1e-10)

    def test_full_coverage_collapses_gap(self):
        cfg = SparseSignalConfig(n=4, q=0.25, vartheta=1.0)
        fig = WardenStates(WORKED, cfg).figures
        assert fig.d_exact == pytest.approx(fig.d_product, abs=1e-10)

    def test_gap_vanishes_with_tail(self):
        # The exact-versus-product gap is controlled by the correction-term
        # bounds, which shrink with the weight-set tail and hit zero at full
        # coverage.
        bounds, gaps = [], []
        for vth in (0.15, 0.3, 0.5, 0.75):
            cfg = SparseSignalConfig(n=6, q=0.25, vartheta=vth)
            st = WardenStates(WORKED, cfg)
            rep = decomposition_report(st)
            gaps.append(abs(st.figures.d_exact - st.figures.d_product))
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
        st = WardenStates(model, SparseSignalConfig(n=3, q=0.3, vartheta=0.3))
        rep, fig = decomposition_report(st), st.figures
        assert fig.d_exact == pytest.approx(0.0, abs=1e-9)
        assert fig.d_product == pytest.approx(0.0, abs=1e-9)
        assert fig.entropy_gap == pytest.approx(0.0, abs=1e-9)
        assert rep.term_cross == pytest.approx(0.0, abs=1e-9)
        assert fig.epsilon == pytest.approx(0.0, abs=1e-9)
        assert rep.chernoff_bound >= 0 and rep.fannes_bound >= 0

    def test_decomposition_identity_worked_model(self):
        st = WardenStates(WORKED, SparseSignalConfig(n=4, q=0.25, vartheta=0.3))
        rep, fig = decomposition_report(st), st.figures
        recon = fig.d_product + fig.entropy_gap + rep.term_cross
        assert fig.d_exact == pytest.approx(recon, abs=1e-7)

    def test_terms_within_bounds(self, rng):
        for _ in range(5):
            model = random_willie_model(rng)
            st = WardenStates(model, SparseSignalConfig(n=4, q=0.3, vartheta=0.25))
            rep, fig = decomposition_report(st), st.figures
            assert abs(fig.entropy_gap) <= rep.fannes_bound + 1e-9
            assert rep.holder_bound is not None
            assert abs(rep.term_cross) <= rep.holder_bound + 1e-9
            assert fig.epsilon <= rep.chernoff_bound + 1e-12

    def test_triangle_over_decomposition(self, rng):
        for _ in range(5):
            model = random_willie_model(rng)
            cfg = SparseSignalConfig(n=4, q=0.3, vartheta=0.25)
            st = WardenStates(model, cfg)
            rep, fig = decomposition_report(st), st.figures
            assert fig.d_exact <= (
                fig.d_product + abs(fig.entropy_gap) + abs(rep.term_cross) + 1e-9
            )

    def test_singular_innocent_without_violation(self):
        # Same rank-deficient support on both sides: containment holds but
        # the cross-term bound has no finite minimum eigenvalue.
        rho0 = DensityOperator(np.diag([0.7, 0.3, 0.0]).astype(complex))
        rho_pi = DensityOperator(np.diag([0.4, 0.6, 0.0]).astype(complex))
        model = WillieModel(rho0=rho0, rho_pi=rho_pi)
        st = WardenStates(model, SparseSignalConfig(n=2, q=0.3, vartheta=0.4))
        rep, fig = decomposition_report(st), st.figures
        assert rep.holder_bound is None
        assert fig.d_exact == pytest.approx(
            fig.d_product + fig.entropy_gap + rep.term_cross, abs=1e-7
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
    fig = WardenStates(model, cfg).figures
    direct = qre(
        willie_state_exact(model, cfg),
        DensityOperator(tensor_power(model.rho0.mat, 3)),
    )
    assert fig.d_exact == pytest.approx(direct, abs=1e-10)


def test_shared_states_match_fresh_ones(rng):
    model = random_willie_model(rng)
    cfg = SparseSignalConfig(n=4, q=0.3, vartheta=0.25)
    states = WardenStates(model, cfg)
    assert bound_chain(states) == bound_chain(WardenStates(model, cfg))
    assert decomposition_report(states) == decomposition_report(WardenStates(model, cfg))
    assert detection_at_n(states, 0.05) == detection_at_n(
        WardenStates(model, cfg), 0.05
    )
