"""Sparse signaling: weight sets, exact tails, exact warden states, and the
three-term divergence decomposition with its bounds.

Signal patterns are length-n binary strings; slot i carries the non-innocent
input when x_i = 1. Patterns are restricted to the weight set
A = {w : |q - w/n| <= vartheta}, sampled i.i.d. Bernoulli(q) conditioned on
membership. All sums over patterns collapse to sums over weight classes
because the conditioned distribution is permutation symmetric; the collapse
is exact, not an approximation.

The n-use figures come from one loop over blocks of the three
permutation-invariant states, and two routes cut the blocks. A qubit pair
whose frame coherence is nonzero takes its Schur-Weyl blocks, at most
n + 1 wide, and forms no d^n-square matrix. Every other pair (dimension
above 2, or a diagonal qubit pair such as the shipped model) is one block,
the exact d^n-square states.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .linops import BLOCK, SUPPORT_TOL, DensityOperator, check_exact_block
from .linops import check_block_length, dagger, kron, tensor_power, trace_norm
from .channels import WillieModel
from .covert import LN2, chi2, entropy_bits, qre, qre_spectral
from .covert import check_vartheta, require_support


class SparseSignalConfig:
    """Block length n, signal density q, and weight-set half-width vartheta."""

    __slots__ = ("n", "q", "vartheta")

    def __init__(self, n: int, q: float, vartheta: float):
        check_block_length(n)
        if not 0.0 < q < 1.0:
            raise ValueError(f"signal density must lie in (0, 1), got {q}")
        check_vartheta(vartheta)
        self.n = n
        self.q = q
        self.vartheta = vartheta
        if not self.weight_range():
            raise ValueError(
                f"weight set is empty for n={n}, q={q}, vartheta={vartheta}"
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


def _class_probs(cfg: SparseSignalConfig) -> tuple[np.ndarray, np.ndarray]:
    """For w = 0 .. n, the probability q^w (1 - q)^(n - w) of one pattern of
    weight w, and the same conditioned on the weight set: 0 outside it."""
    n, q, ws = cfg.n, cfg.q, cfg.weight_range()
    p_all = np.array([q**w * (1.0 - q) ** (n - w) for w in range(n + 1)])
    p_in = np.zeros(n + 1)
    p_in[ws.start : ws.stop] = p_all[ws.start : ws.stop] * (1.0 / weight_set_prob(cfg))
    return p_all, p_in


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
    levels. Each product is one ``linops.kron``, the rho_pi branch added to
    the rho0 branch, and each top-level class block is scaled and added to
    the mixture, so every entry is bit for bit that of the full ``np.kron``
    recursion. The matrix takes the model's dtype, real for two real states.
    Live: the result and blocks smaller than it."""
    rho0, rho_pi, n, d = model.rho0.mat, model.rho_pi.mat, cfg.n, model.dim
    check_exact_block(n, d)
    dtype = np.result_type(rho0, rho_pi)

    ws, (p_all, _) = cfg.weight_range(), _class_probs(cfg)
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
            cls = range(max(0, ws.start - (n - k)), min(k + 1, ws.stop))
            cur = []
            for w in cls:
                if w < k:
                    acc = kron(prev[w - base], b0)
                    if w > 0:
                        acc += kron(prev[w - 1 - base], b_pi)
                else:
                    acc = kron(prev[w - 1 - base], b_pi)
                if k < n:
                    cur.append(acc)
                else:
                    acc *= p_all[w]
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


def _marginal_gap(model: WillieModel, mix: DensityOperator, cfg: SparseSignalConfig) -> np.ndarray:
    """Sum over the n sites of the one-site marginals of mix^n - rho_n, in
    closed form. mix^n's sum is n tr(mix)^(n-1) mix. A weight-w class sum
    holds rho0 at a given site in C(n-1, w) patterns, each with the other
    sites' traces tau0^(n-1-w) tau_pi^w, and rho_pi there in C(n-1, w-1)
    patterns, each with tau0^(n-w) tau_pi^(w-1)."""
    n, (_, p_in) = cfg.n, _class_probs(cfg)
    rho0, rho_pi = model.rho0.mat, model.rho_pi.mat
    tau0, tau_pi = np.trace(rho0).real, np.trace(rho_pi).real
    c0 = sum(p_in[w] * math.comb(n - 1, w) * tau0 ** (n - 1 - w) * tau_pi**w for w in range(n))
    c_pi = sum(p_in[w] * math.comb(n - 1, w - 1) * tau0 ** (n - w) * tau_pi ** (w - 1) for w in range(1, n + 1))
    return n * (np.trace(mix.mat).real ** (n - 1) * mix.mat - c0 * rho0 - c_pi * rho_pi)


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

    d_product is read from the spectrum and the diagonal of mix^n, outer
    products of the single-site ones, and the marginal gap has a closed
    form (``_marginal_gap``). Every other figure comes from one loop over
    blocks (multiplicity, rho_n's block as a validated state, mix^n's
    block, rho0^n's diagonal and kernel): multiplicity-weighted trace norms,
    and d_exact and S(rho_n) from one helper that d_product shares
    (``_divergence_and_entropy``). A qubit pair whose frame coherence
    rho_pi'[0, 1] is nonzero has a block per Schur-Weyl irrep
    (``_sym_state_blocks``), none wider than n + 1. Every other pair is one
    block, the d^n-square states, formed only when the loop asks for them;
    numpy holds at most two at any time, and an eigensolve adds LAPACK's
    copy of its input. The block length is checked against the dense cap
    (``check_exact_block``) before any state is built."""

    def __init__(self, model: WillieModel, cfg: SparseSignalConfig):
        self.model = _eigenframe(model)
        self.cfg = cfg

    @cached_property
    def mix(self) -> DensityOperator:
        q, m = self.cfg.q, self.model
        return DensityOperator((1.0 - q) * m.rho0.mat + q * m.rho_pi.mat, _derived=True)

    @cached_property
    def figures(self) -> WardenFigures:
        model, mix, cfg, n = self.model, self.mix, self.cfg, self.cfg.n
        check_exact_block(n, model.dim)
        # rho0^n is the diagonal lam_n, and its kernel is decided site by
        # site: a product with a kernel factor.
        lam_n = _outer_power(np.multiply, model.rho0.eigvals, n)
        ker_n = _outer_power(np.logical_or, model.rho0.kernel, n)
        mix_vals = np.sort(_outer_power(np.multiply, mix.eigvals, n))
        mix_diag = _outer_power(np.multiply, mix.mat.diagonal().real, n)
        d_product, s_mix = _divergence_and_entropy(mix_vals, mix_diag, lam_n, ker_n, n)
        if model.dim == 2 and model.rho_pi.mat[0, 1] != 0:
            blocks = _sym_state_blocks(model, cfg)
        else:  # one block, the whole space, formed when the loop asks for it
            blocks = ((1, willie_state_exact(model, cfg), tensor_power(mix.mat, n), lam_n, ker_n) for _ in [0])
        parts, epsilon, trace_distance = [], 0.0, 0.0
        for mult, r, mix_b, lam_b, ker_b in blocks:
            parts.append([np.repeat(x, mult) for x in (r.eigvals, r.mat.diagonal().real, lam_b, ker_b)])
            epsilon += mult * trace_norm(np.subtract(mix_b, r.mat, out=mix_b))
            del mix_b  # before rho_n's copy forms: two d^n-square matrices at most
            buf = r.mat.copy()
            buf.flat[:: len(buf) + 1] -= lam_b
            trace_distance += mult * trace_norm(buf)
        d_exact, s_n = _divergence_and_entropy(*map(np.concatenate, zip(*parts)), n)
        return WardenFigures(
            d_exact,
            d_product,
            s_mix - s_n,
            _marginal_gap(model, mix, cfg),
            0.5 * epsilon,
            trace_distance,
        )


def _divergence_and_entropy(vals, diag, ref_diag, ref_kernel, sites: int) -> tuple[float, float]:
    """D(rho || sigma) and S(rho) in bits, from rho's spectrum and diagonal
    where sigma, a product of ``sites`` one-site states, is the diagonal
    ``ref_diag`` with kernel ``ref_kernel``; summed in ref_diag's stable
    ascending order (``covert.qre_spectral``)."""
    o = np.argsort(ref_diag, kind="stable")
    return qre_spectral(vals, diag[o], ref_diag[o], ref_kernel[o], sites), entropy_bits(vals)


def _sym_blocks(p0: np.ndarray, p1: np.ndarray, n: int):
    """The Schur-Weyl blocks of P(t)^(x)n for P(t) = p0 + t p1, two real
    2 x 2 matrices: for each irrep k = 0 .. n // 2, its multiplicity
    C(n, k) - C(n, k - 1) and an array [row, column, w] whose slice w is the
    orthonormal (m + 1)-square block, m = n - 2k, of the t^w coefficient.

    On irrep k a product P^(x)n acts as det(P)^k Sym^m(P). Column j of
    Sym^m(P) in the monomial basis x^(m-j) y^j holds the coefficients of
    (P00 x + P10 y)^(m-j) (P01 x + P11 y)^j, and the orthonormal block is
    D^(-1/2) M D^(1/2), D = diag C(m, j). A polynomial in y and t is held as
    one coefficient array in z, y = z^step and t = z, so every product is
    one ``np.convolve``; no t-degree passes n, so no two terms share a
    slot."""
    step = n + 1
    lin0, lin1 = np.zeros(step + 2), np.zeros(step + 2)
    lin0[[0, 1, step, step + 1]] = p0[0, 0], p1[0, 0], p0[1, 0], p1[1, 0]
    lin1[[0, 1, step, step + 1]] = p0[0, 1], p1[0, 1], p0[1, 1], p1[1, 1]
    # Slots 0-1 of lin0 and lin1 hold P00 and P01 as polynomials in t, and
    # slots step to step + 1 hold P10 and P11: det P = P00 P11 - P01 P10.
    det = np.convolve(lin0[:2], lin1[step:]) - np.convolve(lin1[:2], lin0[step:])
    pow0, pow1 = [np.ones(1)], [np.ones(1)]
    for _ in range(n):
        pow0.append(np.convolve(pow0[-1], lin0))
        pow1.append(np.convolve(pow1[-1], lin1))
    det_k = np.ones(1)
    for k in range(n // 2 + 1):
        m = n - 2 * k
        coef = np.zeros((m + 1, (m + 1) * step))
        for j in range(m + 1):
            col = np.convolve(np.convolve(pow0[m - j], pow1[j]), det_k)
            coef[j, : len(col)] = col
        root = np.sqrt([float(math.comb(m, j)) for j in range(m + 1)])
        scale = (root / root[:, None])[..., None]
        yield math.comb(n, k) - (math.comb(n, k - 1) if k else 0), (
            coef.reshape(m + 1, m + 1, step).transpose(1, 0, 2) * scale
        )
        det_k = np.convolve(det_k, det)


def _sym_state_blocks(model: WillieModel, cfg: SparseSignalConfig):
    """The blocks that ``WardenStates.figures`` reads for a qubit pair in its
    frame, one per Schur-Weyl irrep of rho0' + t rho_pi' (``_sym_blocks``):
    its multiplicity, rho_n's block validated as a state, mix^n's block,
    and the diagonal and kernel mask of rho0^n's.

    The t^w coefficient of the n-fold power is the weight-w class sum, so
    the blocks of rho_n and mix^n are its weight-set and binomial sums, and
    rho0^n's is the t^0 term, the diagonal lam0^(k+m-j) lam1^(k+j), whose
    kernel is decided site by site. In the frame every input coefficient is
    nonnegative (rho0's eigenvalues, rho_pi's diagonal, |B01|, and
    det rho_pi' at t^2 of the determinant), so the sums of products that
    form the blocks do not cancel."""
    n, (ker0, ker1) = cfg.n, model.rho0.kernel
    p_all, p_in = _class_probs(cfg)
    for k, (mult, blocks) in enumerate(_sym_blocks(model.rho0.mat, model.rho_pi.mat, n)):
        j = np.arange(len(blocks))
        ker_k = ((n - k - j > 0) & ker0) | ((k + j > 0) & ker1)
        r_k = DensityOperator(blocks @ p_in, _derived=True)
        yield mult, r_k, blocks @ p_all, blocks[..., 0].diagonal(), ker_k


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
    e = min(1.0, epsilon)
    fannes = epsilon * n * math.log2(d) + entropy_bits([e, 1.0 - e])
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
