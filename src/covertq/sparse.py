"""Sparse signaling: weight sets, exact tails, exact warden states, and the
three-term divergence decomposition with its bounds.

Signal patterns are length-n binary strings; slot i carries the non-innocent
input when x_i = 1. Patterns are restricted to the weight set
A = {w : |q - w/n| <= vartheta}, sampled i.i.d. Bernoulli(q) conditioned on
membership. All sums over patterns collapse to sums over weight classes
because the conditioned distribution is permutation symmetric; the collapse
is exact, not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .linops import BLOCK, SUPPORT_TOL, DensityOperator, check_exact_block
from .linops import dagger, kron_into, tensor_power, trace_norm
from .channels import WillieModel
from .covert import LN2, check_block_length, chi2, entropy_bits, qre, qre_spectral
from .covert import require_support, vn_entropy


def check_vartheta(vartheta: float) -> None:
    """Refuse a weight-set half-width outside (0, 1]."""
    if not 0.0 < vartheta <= 1.0:
        raise ValueError(f"weight tolerance must lie in (0, 1], got {vartheta}")


@dataclass(frozen=True)
class SparseSignalConfig:
    """Block length n, signal density q, and weight-set half-width vartheta."""

    n: int
    q: float
    vartheta: float

    def __post_init__(self):
        check_block_length(self.n)
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"signal density must lie in (0, 1), got {self.q}")
        check_vartheta(self.vartheta)
        if not self.weight_range():
            raise ValueError(
                f"weight set is empty for n={self.n}, q={self.q}, vartheta={self.vartheta}"
            )

    def weight_range(self) -> range:
        """Admissible weights: w with |q - w/n| <= vartheta. w/n never falls
        as w grows, so they form an interval, and each end is found by
        bisection with the membership test itself: O(log n) steps for any n.
        The start is the first w that is admissible or has w/n past q; the
        stop is the first w past the start that is not admissible."""
        n, q, v = self.n, self.q, self.vartheta

        def ok(w: int) -> bool:
            return abs(q - w / n) <= v + 1e-15

        def first(pred, lo: int) -> int:
            # Smallest w in [lo, n] with pred(w), or n + 1; pred must turn
            # from false to true at most once on [lo, n].
            hi = n + 1
            while lo < hi:
                mid = (lo + hi) // 2
                if pred(mid):
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        start = first(lambda w: ok(w) or w / n > q, 0)
        if start > n or not ok(start):
            return range(start, start)
        return range(start, first(lambda w: not ok(w), start))


def weight_set_prob(cfg: SparseSignalConfig) -> float:
    """Exact probability that an i.i.d. Bernoulli(q) pattern lands in the
    weight set, as a compensated sum of the binomial terms.

    From n = 1024 on, C(n, w) can leave the double range. Each term is then
    taken relative to the mode through the ratio of neighbouring terms, those
    below 1e-30 of it dropped, and divided by the sum of all terms, which is 1
    for the exact law; unlike log-gamma differences, this loses no digits to
    cancellation."""
    n, q, ws = cfg.n, cfg.q, cfg.weight_range()
    if n < 1024:
        total = math.fsum(math.comb(n, w) * q**w * (1.0 - q) ** (n - w) for w in ws)
        return min(1.0, total)
    mode, odds = int((n + 1) * q), q / (1.0 - q)
    rel = {mode: 1.0}
    for step in (1, -1):
        w, t = mode, 1.0
        while t > 1e-30 and 0 <= w + step <= n:
            t *= (n - w) * odds / (w + 1) if step == 1 else w / ((n - w + 1) * odds)
            w += step
            rel[w] = t
    inside = math.fsum(t for w, t in rel.items() if w in ws)
    return min(1.0, inside / math.fsum(rel.values()))


def chernoff_epsilon(cfg: SparseSignalConfig) -> float:
    """Chernoff tail bound 2 exp(-q n vartheta^2 / 3) on the weight-set
    complement (natural exponential)."""
    return 2.0 * math.exp(-cfg.q * cfg.n * cfg.vartheta**2 / 3.0)


# ---------------------------------------------------------------------------
# Exact warden states
# ---------------------------------------------------------------------------


def _willie_state_matrix(model: WillieModel, cfg: SparseSignalConfig) -> np.ndarray:
    """The matrix of ``willie_state_exact``, built in blocks of at most
    ``BLOCK`` rows.

    Weight-w pattern sums grow one slot at a time, S_k[w] = S_{k-1}[w] (x)
    rho0 + S_{k-1}[w-1] (x) rho_pi; level k keeps only the classes the weight
    set can still reach. Rows of a Kronecker product are products of rows of
    its factors, so each block grows from one row per class at the lower
    levels. ``linops.kron_into`` writes each product, the rho_pi branch
    into its own block that is then added, and each top-level class block is
    scaled and added to the mixture, so every entry is bit for bit that of
    the full ``np.kron`` recursion. The matrix takes the model's dtype, real
    for two real states. Live: the result and blocks smaller than it."""
    rho0, rho_pi, n, q, d = model.rho0.mat, model.rho_pi.mat, cfg.n, cfg.q, model.dim
    check_exact_block(n, d)
    dtype = np.result_type(rho0, rho_pi)

    ws = cfg.weight_range()
    free = n  # levels at which a block spans more than one row
    while free > 1 and d**free > BLOCK:
        free -= 1
    height = d**free
    out = np.zeros((d**n, d**n), dtype=dtype)
    for top in range(0, d**n, height):
        prev, base = [np.ones((1, 1), dtype=dtype)], 0
        for k in range(1, n + 1):
            # Below the free levels the block is one row of level k,
            # top // d^(n-k), so it takes one row of each site factor.
            site = slice(None) if k > n - free else (top // d ** (n - k)) % d
            b0, b_pi = rho0[site].reshape(-1, d), rho_pi[site].reshape(-1, d)
            shape = (len(prev[0]) * len(b0), prev[0].shape[1] * d)
            cls = range(max(0, ws.start - (n - k)), min(k + 1, ws.stop))
            cur = []
            for w in cls:
                acc = np.empty(shape, dtype=dtype)
                if w < k:
                    kron_into(prev[w - base], b0, acc)
                    if w > 0:
                        acc += kron_into(prev[w - 1 - base], b_pi, np.empty_like(acc))
                else:
                    kron_into(prev[w - 1 - base], b_pi, acc)
                if k < n:
                    cur.append(acc)
                else:
                    acc *= q**w * (1.0 - q) ** (n - w)
                    out[top : top + height] += acc
            prev, base = cur, cls.start
    # A multiply by the reciprocal, which is what numpy's complex division by
    # a real is bit for bit, so a real frame's entries round as a complex
    # model's do.
    out *= 1.0 / weight_set_prob(cfg)
    return out


def willie_state_exact(model: WillieModel, cfg: SparseSignalConfig) -> DensityOperator:
    """The warden's exact n-use output under transmission: the weight-set
    mixture of per-slot products of rho_pi (signal slots) and rho0
    (innocent slots)."""
    return DensityOperator(_willie_state_matrix(model, cfg), _derived=True)


# ---------------------------------------------------------------------------
# Divergence chain and decomposition
# ---------------------------------------------------------------------------


class BoundChain(NamedTuple):
    """What the bound chain adds to ``WardenFigures`` (both in bits)."""

    d_single_scaled: float  # n D(mix || rho0), equal to d_product by additivity
    d_chi2_bound: float  # q^2 n chi2(rho_pi || rho0) / ln 2, bounds both


class WardenFigures(NamedTuple):
    """n-use figures, in bits: rho_n is the exact warden state, mix^n the
    power of the single-use mixture and rho0^n the innocent product. The
    one record of each; the reports return only what they add to it."""

    d_exact: float  # D(rho_n || rho0^n)
    d_product: float  # D(mix^n || rho0^n)
    entropy_gap: float  # S(mix^n) - S(rho_n)
    # Sum over sites of the one-site marginals of mix^n - rho_n, in the frame
    # of ``WardenStates.model``.
    marginal_gap: np.ndarray
    epsilon: float  # ||mix^n - rho_n||_1 / 2
    trace_distance: float  # ||rho_n - rho0^n||_1


def _marginal_sum(mat: np.ndarray, n: int, d: int) -> np.ndarray:
    """Sum over the n sites of the one-site marginals of a d^n-square matrix."""
    shapes = ((d**i, d, d ** (n - 1 - i)) for i in range(n))
    return sum(np.einsum("aibajb->ij", mat.reshape(s + s)) for s in shapes)


def _eigenframe(model: WillieModel) -> WillieModel:
    """The model in rho0's eigenbasis V (``rho0.eigh``), where rho0' is the
    diagonal of its eigenvalues and rho_pi' is B = V^dag rho_pi V, made
    exactly Hermitian as (B + B^dag)/2. A qubit pair also moves the phase of
    B01 off, rho_pi' = [[Re B00, |B01|], [|B01|, Re B11]], which is
    U^dag rho_pi U for U = V diag(1, e^{-i arg B01}). The states are float64
    unless rho_pi' has an imaginary part: every qubit pair and every real
    pair is real here, and only a complex pair of larger dimension stays
    complex128.

    Every figure of the warden pass is invariant under U^(x)n: the
    entropies, relative entropies, chi2 and both trace norms; and the cross
    term, since ``WardenFigures.marginal_gap`` and log2 rho0 rotate
    together."""
    vals, v = model.rho0.eigh()
    b = dagger(v) @ model.rho_pi.mat @ v
    if model.dim == 2:
        off = abs(b[0, 1])
        r_pi = np.array([[b[0, 0].real, off], [off, b[1, 1].real]])
    else:
        r_pi = (b + dagger(b)) / 2
        if not r_pi.imag.any():
            r_pi = r_pi.real
    return WillieModel(
        DensityOperator(np.diag(vals), _derived=True), DensityOperator(r_pi, _derived=True)
    )


def _outer_power(ufunc, a: np.ndarray, n: int) -> np.ndarray:
    """``ufunc`` applied site by site over n copies of a 1-D array, in
    Kronecker order: with ``np.multiply`` the diagonal of the n-fold tensor
    power of diag(a), each entry multiplied left to right as
    ``tensor_power`` multiplies it."""
    out = a
    for _ in range(n - 1):
        out = ufunc.outer(out, a).ravel()
    return out


class WardenStates:
    """The ``WardenFigures`` of one configuration, computed in one pass on
    first use and shared by ``bound_chain``, ``decomposition_report`` and
    ``detect.detection_at_n``, which read nothing else.

    ``model`` is the given model in rho0's eigenbasis (``_eigenframe``),
    taken once here. There rho0^(x)n is the diagonal of the outer-product
    eigenvalues, so each n-use divergence needs only the spectrum and the
    diagonal of its state, and every qubit or real model runs the whole
    pass, from the n-use state to each eigensolve, in real arithmetic.
    Every figure is the given model's except ``marginal_gap``, which is
    held in the frame.

    The pass forms two d^n-square matrices: the mixture power, which its
    trace norm overwrites with mix^n - rho_n, and the n-use state rho_n,
    whose copy takes rho0^n off its diagonal for the innocent trace norm.
    It frees each after its last use, so numpy holds at most two at any
    time, and an eigensolve adds LAPACK's copy of its input."""

    def __init__(self, model: WillieModel, cfg: SparseSignalConfig):
        self.model = _eigenframe(model)
        self.cfg = cfg

    @cached_property
    def mix(self) -> DensityOperator:
        q, m = self.cfg.q, self.model
        return DensityOperator((1.0 - q) * m.rho0.mat + q * m.rho_pi.mat, _derived=True)

    @cached_property
    def figures(self) -> WardenFigures:
        model, mix, n, d = self.model, self.mix, self.cfg.n, self.model.dim
        # rho0^n is the diagonal lam_n. Its ascending spectrum is lam_n[order],
        # with basis vector order[j] as the eigenvector of entry j, and its
        # kernel is decided site by site: a product with a kernel factor.
        lam_n = _outer_power(np.multiply, model.rho0.eigvals, n)
        order = np.argsort(lam_n, kind="stable")
        ref = lam_n[order], _outer_power(np.logical_or, model.rho0.kernel, n)[order], n
        mix_vals = np.sort(_outer_power(np.multiply, mix.eigvals, n))
        buf = tensor_power(mix.mat, n)
        d_product = qre_spectral(mix_vals, buf.diagonal().real[order], *ref)
        marg_mix = _marginal_sum(buf, n, d)
        rho_n = willie_state_exact(model, self.cfg)
        d_exact = qre_spectral(rho_n.eigvals, rho_n.mat.diagonal().real[order], *ref)
        entropy_gap = entropy_bits(mix_vals) - vn_entropy(rho_n)
        marginal_gap = marg_mix - _marginal_sum(rho_n.mat, n, d)
        epsilon = 0.5 * trace_norm(np.subtract(buf, rho_n.mat, out=buf))
        del buf
        buf = rho_n.mat.copy()
        del rho_n
        buf.flat[:: len(buf) + 1] -= lam_n
        trace_distance = trace_norm(buf)
        return WardenFigures(d_exact, d_product, entropy_gap, marginal_gap, epsilon, trace_distance)


def bound_chain(st: WardenStates) -> BoundChain:
    """Evaluate the covertness bound chain at one configuration: the chain
    runs from d_exact through d_product (``WardenFigures``) to the two
    figures returned here. d_single_scaled is n times the single-use
    divergence, checked equal to d_product by additivity; d_chi2_bound is
    q^2 n chi2(rho_pi || rho0) converted to bits, checked to upper-bound
    both product forms.
    """
    model, cfg = st.model, st.cfg
    require_support(model)
    d_product = st.figures.d_product
    d_single = cfg.n * qre(st.mix, model.rho0)
    d_bound = cfg.q**2 * cfg.n * chi2(model.rho_pi, model.rho0) / LN2
    if abs(d_product - d_single) > 1e-9 * max(1.0, abs(d_single)):
        raise RuntimeError(
            f"additivity check failed: {d_product} vs {d_single}"
        )
    if d_single > d_bound + 1e-9:
        raise RuntimeError(
            f"chi-square bound violated: {d_single} > {d_bound}"
        )
    return BoundChain(d_single, d_bound)


def binary_entropy(x: float) -> float:
    """Binary entropy in bits with the 0 log 0 = 0 convention."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument must be in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


class DecompositionReport(NamedTuple):
    """What the three-term decomposition of the warden divergence adds to
    ``WardenFigures`` (divergences in bits).

    d_exact equals d_product + entropy_gap + ``term_cross`` up to round-off:
    the decomposition is an identity, not a bound. epsilon obeys
    epsilon <= 1 - p(A) <= ``chernoff_bound``. The entropy gap obeys the
    entropy-continuity bound ``fannes_bound``; the cross term obeys the
    Hoelder bound ``holder_bound``, which is None when rho0 is singular."""

    term_cross: float
    chernoff_bound: float
    fannes_bound: float
    holder_bound: Optional[float]


def decomposition_report(st: WardenStates) -> DecompositionReport:
    """Compute the decomposition terms exactly and check each bound.

    Raises ``RuntimeError`` if any mathematically guaranteed relation fails
    beyond round-off slack, since that indicates an implementation bug
    rather than a property of the model.
    """
    model, cfg = st.model, st.cfg
    require_support(model)
    n, d = cfg.n, model.dim

    fig = st.figures
    epsilon, term_entropy = fig.epsilon, fig.entropy_gap
    # Cross term tr(delta log2 rho0^{(x)n}) with delta = mix^n - rho_n.
    # The log of a product is a sum of site logs, so this is the sum over
    # sites of tr(delta_i log2 rho0), delta_i the one-site marginals; rho0
    # is the diagonal of its eigenvalues in the frame, so only their live
    # diagonal counts. It is computed independently of the overlaps behind
    # the relative entropies.
    live = ~model.rho0.kernel
    gap = np.real(np.diagonal(fig.marginal_gap))[live]
    term_cross = float(np.sum(np.log2(model.rho0.eigvals[live]) * gap))

    p_abar = 1.0 - weight_set_prob(cfg)
    chern = chernoff_epsilon(cfg)
    fannes = epsilon * n * math.log2(d) + binary_entropy(min(1.0, epsilon))
    lam_min = float(model.rho0.eigvals[0])
    holder = (
        2.0 * epsilon * n * math.log2(1.0 / lam_min)
        if lam_min > SUPPORT_TOL
        else None
    )

    recon = fig.d_product + term_entropy + term_cross
    if not math.isinf(fig.d_exact) and abs(fig.d_exact - recon) > 1e-7:
        raise RuntimeError(
            f"decomposition identity failed: {fig.d_exact} vs {recon}"
        )
    if epsilon > p_abar + 1e-9:
        raise RuntimeError(f"data-processing step failed: {epsilon} > {p_abar}")
    if p_abar > chern + 1e-12:
        raise RuntimeError(f"tail bound failed: {p_abar} > {chern}")
    if abs(term_entropy) > fannes + 1e-9:
        raise RuntimeError(
            f"entropy-continuity bound failed: {term_entropy} vs {fannes}"
        )
    if holder is not None and abs(term_cross) > holder + 1e-9:
        raise RuntimeError(f"cross-term bound failed: {term_cross} vs {holder}")
    return DecompositionReport(term_cross, chern, fannes, holder)
