"""Properties of the exact n-use figures on random qubit and qutrit warden
models, commuting and not, and of the receiver's projection and twirl on
random qubit-input channels, leaky ones included. Each property is checked
by a route that shares no code with the one it tests: scipy.linalg for the
chi-square divergence and the one-site divergence, the quantum Pinsker and
data-processing inequalities, a sum over all 2^n signal patterns, the Kraus
operators' qubit blocks, and the Choi matrix of the receiver map built
functionally.

Qutrit models stop at n = 4 (81 dimensions), qubit models at n = 6, so that
each property's fixed set of examples runs in a few seconds."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covertq.channels import WillieModel
from covertq.covert import LN2, covert_constant
from covertq.linops import DensityOperator
from covertq.sparse import (
    SparseSignalConfig,
    WardenStates,
    bound_chain,
    decomposition_report,
    weight_set_prob,
)
from covertq.twirl import projection_stats, twirl_parameters
from conftest import random_channel, twirled_replaced_choi

PROPERTY = settings(derandomize=True, database=None, max_examples=50, deadline=None)
MAX_N = {2: 6, 3: 4}


def _spectrum(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Eigenvalues of a full-rank state, each at least 0.05 / dim."""
    return 0.95 * rng.dirichlet(np.ones(dim)) + 0.05 / dim


def _state(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray:
    """A state diagonal in the orthonormal columns ``basis``, full rank on
    their span."""
    return (basis * _spectrum(rng, basis.shape[1])) @ basis.conj().T


def _unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


@st.composite
def models(draw):
    """(rho0, rho_pi) as matrices: a qubit or qutrit pair with full-rank
    rho0, sharing an eigenbasis (commuting) or not."""
    dim = draw(st.sampled_from([2, 3]))
    commuting = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = _unitary(rng, dim)
    rho0 = _state(rng, basis)
    rho_pi = _state(rng, basis if commuting else _unitary(rng, dim))
    return rho0, rho_pi


@st.composite
def singular_models(draw):
    """(rho0, rho_pi) as qutrit matrices: rho0 of rank 2, and rho_pi inside
    its support, sharing its eigenbasis (commuting) or not."""
    commuting = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = _unitary(rng, 3)[:, :2]
    rho0 = _state(rng, support)
    rho_pi = _state(rng, support if commuting else support @ _unitary(rng, 2))
    return rho0, rho_pi


@st.composite
def commuting_qubit_models(draw):
    """(a, b, basis): the spectra of rho0 and rho_pi, both diagonal in one
    random qubit basis."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = _unitary(rng, 2)
    return _spectrum(rng, 2), _spectrum(rng, 2), basis


def _weights(n: int, q: float, vartheta: float) -> list:
    """The weight set {w : |q - w/n| <= vartheta}, written out; a weight
    within 1e-9 of the boundary is rejected, so no rounding can move it."""
    assume(all(abs(abs(q - w / n) - vartheta) > 1e-9 for w in range(n + 1)))
    ws = [w for w in range(n + 1) if abs(q - w / n) <= vartheta]
    assume(ws)
    return ws


@st.composite
def configs(draw, dim: int = 2):
    n = draw(st.integers(1, MAX_N[dim]))
    q = draw(st.floats(0.05, 0.95))
    vartheta = draw(st.floats(0.05, 1.0))
    # Hypothesis favours round values such as q = vartheta = 0.5, which put
    # a weight on the set's edge, and a small vartheta can leave the set
    # empty. Widen the set instead of rejecting the example: off the edge,
    # and out to the nearest weight. Both stay below 1, as |q - w/n| <= 0.95.
    gaps = [abs(q - w / n) for w in range(n + 1)]
    if any(abs(g - vartheta) <= 1e-9 for g in gaps):
        vartheta += 1e-6
    vartheta = max(vartheta, min(gaps) + 1e-6)
    _weights(n, q, vartheta)
    return SparseSignalConfig(n=n, q=q, vartheta=vartheta)


@st.composite
def models_and_configs(draw):
    rho0, rho_pi = draw(models())
    return rho0, rho_pi, draw(configs(len(rho0)))


def _willie(rho0: np.ndarray, rho_pi: np.ndarray) -> WillieModel:
    return WillieModel(rho0=DensityOperator(rho0), rho_pi=DensityOperator(rho_pi))


def _log2m(rho: np.ndarray) -> np.ndarray:
    vals, vecs = scipy.linalg.eigh(rho)
    return (vecs * np.log2(vals)) @ vecs.conj().T


def _one_site_marginal(rho0: np.ndarray, rho_pi: np.ndarray, cfg: SparseSignalConfig) -> np.ndarray:
    """By permutation symmetry each site of rho_n carries rho_pi with the
    conditional mean weight E[w/n | A] and rho0 otherwise."""
    n, q = cfg.n, cfg.q
    ws = _weights(n, q, cfg.vartheta)
    law = [math.comb(n, w) * q**w * (1.0 - q) ** (n - w) for w in ws]
    p1 = math.fsum(p * w / n for p, w in zip(law, ws)) / math.fsum(law)
    return (1.0 - p1) * rho0 + p1 * rho_pi


@given(models())
@PROPERTY
def test_covert_constant_inverts_chi2(pair):
    rho0, rho_pi = pair
    chi2 = np.trace(rho_pi @ rho_pi @ scipy.linalg.inv(rho0)).real - 1.0
    assume(chi2 > 1e-6)
    assert covert_constant(_willie(rho0, rho_pi)) ** 2 * chi2 == pytest.approx(1.0, rel=1e-9)


@given(models_and_configs())
@PROPERTY
def test_d_exact_is_nonnegative(case):
    rho0, rho_pi, cfg = case
    assert WardenStates(_willie(rho0, rho_pi), cfg).figures.d_exact >= 0.0


@given(models_and_configs())
@PROPERTY
def test_d_exact_vanishes_for_identical_outputs(case):
    rho0, _, cfg = case
    d = WardenStates(_willie(rho0, rho0), cfg).figures.d_exact
    assert 0.0 <= d <= cfg.n * 1e-14


@given(models_and_configs())
@PROPERTY
def test_quantum_pinsker(case):
    # trace_distance is the full norm ||rho_n - rho0^n||_1, d_exact in bits.
    rho0, rho_pi, cfg = case
    fig = WardenStates(_willie(rho0, rho_pi), cfg).figures
    assert 0.5 * fig.trace_distance <= math.sqrt(LN2 * fig.d_exact / 2.0) + 1e-12


@given(models_and_configs())
@PROPERTY
def test_one_site_marginal_processes_the_divergence(case):
    rho0, rho_pi, cfg = case
    marg = _one_site_marginal(rho0, rho_pi, cfg)
    d1 = np.trace(marg @ (_log2m(marg) - _log2m(rho0))).real
    d_exact = WardenStates(_willie(rho0, rho_pi), cfg).figures.d_exact
    assert d1 <= d_exact + 1e-12


@given(configs())
@PROPERTY
def test_weight_set_prob_sums_all_patterns(cfg):
    n, q = cfg.n, cfg.q
    inside = set(_weights(n, q, cfg.vartheta))
    total = math.fsum(
        q ** sum(x) * (1.0 - q) ** (n - sum(x))
        for x in itertools.product((0, 1), repeat=n)
        if sum(x) in inside
    )
    assert weight_set_prob(cfg) == pytest.approx(total, rel=1e-12)


@given(singular_models())
@PROPERTY
def test_covert_constant_inverts_chi2_on_singular_rho0(pair):
    rho0, rho_pi = pair
    chi2 = np.trace(rho_pi @ rho_pi @ scipy.linalg.pinv(rho0, atol=1e-10)).real - 1.0
    assume(chi2 > 1e-6)
    assert covert_constant(_willie(rho0, rho_pi)) ** 2 * chi2 == pytest.approx(1.0, rel=1e-9)


@given(singular_models(), configs(dim=3))
@PROPERTY
def test_singular_rho0_figures_and_reports(pair, cfg):
    # rho_pi and the one-site marginal live on rho0's support, so each
    # divergence is taken there, in the orthonormal support basis.
    rho0, rho_pi = pair
    vals, vecs = scipy.linalg.eigh(rho0)
    sup = vecs[:, vals > 1e-10]
    assert sup.shape[1] == 2
    marg = sup.conj().T @ _one_site_marginal(rho0, rho_pi, cfg) @ sup
    d1 = np.trace(marg @ (_log2m(marg) - _log2m(sup.conj().T @ rho0 @ sup))).real
    states = WardenStates(_willie(rho0, rho_pi), cfg)
    fig = states.figures
    assert fig.d_exact >= 0.0
    assert 0.5 * fig.trace_distance <= math.sqrt(LN2 * fig.d_exact / 2.0) + 1e-12
    assert d1 <= fig.d_exact + 1e-12
    bound_chain(states)
    assert decomposition_report(states).holder_bound is None


def _type_class_figures(a: np.ndarray, b: np.ndarray, cfg: SparseSignalConfig) -> tuple:
    """(d_exact, d_product, epsilon, trace distance) of a commuting qubit
    model with spectra a (rho0) and b (rho_pi), as sums over the output
    weight K. Every state is diagonal in the product basis, and an output
    string's probability depends only on its weight K; under rho_n it sums,
    over pattern weights w in A and the j signal slots among the K ones,
    C(K, j) C(n - K, w - j) b1^j a1^(K-j) b0^(w-j) a0^(n-K-w+j)."""
    n, q = cfg.n, cfg.q
    ws = _weights(n, q, cfg.vartheta)
    p_a = math.fsum(math.comb(n, w) * q**w * (1.0 - q) ** (n - w) for w in ws)
    m = (1.0 - q) * a + q * b
    d_exact = d_product = eps = td = 0.0
    for k in range(n + 1):
        r_n = math.fsum(
            q**w * (1.0 - q) ** (n - w)
            * math.comb(k, j) * math.comb(n - k, w - j)
            * b[1] ** j * a[1] ** (k - j) * b[0] ** (w - j) * a[0] ** (n - k - w + j)
            for w in ws
            for j in range(max(0, w - (n - k)), min(k, w) + 1)
        ) / p_a
        r_0 = a[1] ** k * a[0] ** (n - k)
        r_m = m[1] ** k * m[0] ** (n - k)
        c = math.comb(n, k)
        d_exact += c * r_n * math.log2(r_n / r_0)
        d_product += c * r_m * math.log2(r_m / r_0)
        eps += 0.5 * c * abs(r_m - r_n)
        td += c * abs(r_n - r_0)
    return d_exact, d_product, eps, td


@given(commuting_qubit_models(), configs())
@PROPERTY
def test_commuting_figures_equal_a_type_class_sum(model, cfg):
    a, b, basis = model
    rho0, rho_pi = ((basis * p) @ basis.conj().T for p in (a, b))
    fig = WardenStates(_willie(rho0, rho_pi), cfg).figures
    got = (fig.d_exact, fig.d_product, fig.epsilon, fig.trace_distance)
    assert got == pytest.approx(_type_class_figures(a, b, cfg), rel=0, abs=1e-12)


# Bell vectors (id x P)|Phi> for P = I, X, Y, Z, reference qubit first.
BELL = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]]) / math.sqrt(2.0)


@st.composite
def receiver_channels(draw):
    """A qubit-input channel with 2 to 4 output levels and 1 to 4 Kraus
    operators; output levels above 1 leak out of the qubit subspace."""
    d_out = draw(st.integers(2, 4))
    kraus_count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_channel(2, d_out, kraus_count, rng)


@given(receiver_channels())
@PROPERTY
def test_failure_probability_is_the_kraus_leak(ch):
    # On the maximally mixed input the kept mass is tr(sum_k B_k B_k^dag) / 2
    # for the qubit blocks B_k = K_k[:2, :].
    kept = 0.5 * sum(np.linalg.norm(k[:2, :]) ** 2 for k in ch.kraus)
    assert projection_stats(ch).p_f == pytest.approx(1.0 - kept, rel=0, abs=1e-12)


@given(receiver_channels())
@PROPERTY
def test_twirl_weights_convolved_with_failure_are_the_receiver_map(ch):
    # A failed projection is replaced by the maximally mixed qubit, which
    # adds p_f / 4 to every Bell-diagonal entry of the receiver map.
    stats = projection_stats(ch)
    got = (1.0 - stats.p_f) * twirl_parameters(stats).weights + stats.p_f / 4.0
    j = twirled_replaced_choi(ch)
    bell = np.array([np.real(b.conj() @ j @ b) for b in BELL])
    np.testing.assert_allclose(got, bell, rtol=0, atol=1e-12)
