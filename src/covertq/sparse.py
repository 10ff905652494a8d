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
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionCapError, EstimationFailureError, SupportViolationError
from .linops import DIM_CAP, SUPPORT_TOL, DensityOperator, trace_norm_diff
from .channels import WillieModel
from .covert import LN2, chi2, qre, support_contained, vn_entropy


@dataclass(frozen=True)
class SparseSignalConfig:
    """Block length n, signal density q, and weight-set half-width vartheta."""

    n: int
    q: float
    vartheta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"block length must be positive, got {self.n}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"signal density must lie in (0, 1), got {self.q}")
        if not 0.0 < self.vartheta <= 1.0:
            raise ValueError(f"weight tolerance must lie in (0, 1], got {self.vartheta}")
        if not self.weight_range():
            raise ValueError(
                f"weight set is empty for n={self.n}, q={self.q}, vartheta={self.vartheta}"
            )

    def weight_range(self) -> range:
        """Admissible weights: w with |q - w/n| <= vartheta. |q - w/n| falls
        and then rises with w, so they form an interval; its ends start at
        n(q -/+ vartheta), within a weight of the exact ones, and are settled
        by the membership test itself."""
        n, q, v = self.n, self.q, self.vartheta

        def ok(w: int) -> bool:
            return abs(q - w / n) <= v + 1e-15

        lo = min(max(math.ceil(n * (q - v)), 0), n)
        hi = min(max(math.floor(n * (q + v)), 0), n)
        while lo > 0 and ok(lo - 1):
            lo -= 1
        while hi < n and ok(hi + 1):
            hi += 1
        while lo <= hi and not ok(lo):
            lo += 1
        while hi >= lo and not ok(hi):
            hi -= 1
        return range(lo, hi + 1)

    def weight_set(self) -> list[int]:
        """The admissible weights as a list."""
        return list(self.weight_range())


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


def sample_patterns(cfg: SparseSignalConfig, seed: int, count: int) -> np.ndarray:
    """Sample ``count`` patterns, one per row, by rejection from the
    i.i.d. Bernoulli(q) law conditioned on the weight set. Deterministic for
    a fixed seed."""
    if count < 1:
        raise ValueError("need a positive sample count")
    p_a = weight_set_prob(cfg)
    if p_a < 1e-12:
        raise EstimationFailureError(
            f"weight set has probability {p_a:.3e}; rejection sampling is hopeless"
        )
    ws = cfg.weight_range()
    allowed = np.zeros(cfg.n + 1, dtype=bool)
    allowed[ws.start : ws.stop] = True
    rng = np.random.default_rng(seed)
    out = np.empty((count, cfg.n), dtype=np.uint8)
    got = 0
    budget = int(math.ceil(50.0 * count / p_a)) + 1000
    drawn = 0
    while got < count:
        batch = min(max(1024, count), budget - drawn)
        if batch <= 0:
            raise EstimationFailureError("rejection sampling cap exceeded")
        x = (rng.random((batch, cfg.n)) < cfg.q).astype(np.uint8)
        drawn += batch
        keep = x[allowed[x.sum(axis=1)]]
        take = min(count - got, keep.shape[0])
        out[got : got + take] = keep[:take]
        got += take
    return out


def sample_pattern(cfg: SparseSignalConfig, seed: int) -> tuple[np.ndarray, int]:
    """One pattern and its weight."""
    x = sample_patterns(cfg, seed, 1)[0]
    return x, int(x.sum())


# ---------------------------------------------------------------------------
# Exact warden states
# ---------------------------------------------------------------------------


def max_exact_block(d: int) -> int:
    """Largest block length with d**n inside the dense cap (10 for qubit
    outputs, 6 for qutrits)."""
    if d < 2:
        raise ValueError(f"output dimension must be at least 2, got {d}")
    n = int(math.floor(math.log(DIM_CAP) / math.log(d) + 1e-9))
    return max(n, 1)


def _willie_state_matrix(model: WillieModel, cfg: SparseSignalConfig) -> np.ndarray:
    """The matrix of ``willie_state_exact``, built in fixed-size buffers.

    Weight-w pattern sums grow one slot at a time, S_k[w] = S_{k-1}[w] (x)
    rho0 + S_{k-1}[w-1] (x) rho_pi; level k keeps only the classes the weight
    set can still reach. Each product is written into its buffer by the
    broadcast ``np.kron`` does, and each top-level class is scaled and added
    to the mixture once built, so the result is bit for bit that of the full
    ``np.kron`` recursion. Live at the top: the level n - 1 classes and three
    d^n-square buffers."""
    rho0, rho_pi, n, q, d = model.rho0.mat, model.rho_pi.mat, cfg.n, cfg.q, model.dim
    if d**n > DIM_CAP:
        raise DimensionCapError(
            f"warden dimension {d}**{n} exceeds the dense cap of {DIM_CAP}; "
            f"keep d**n at or below {DIM_CAP} (n <= {max_exact_block(d)} for d={d})"
        )

    def kron_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        m = len(a)
        np.multiply(a[:, None, :, None], b[None, :, None, :], out=out.reshape(m, d, m, d))
        return out

    ws = cfg.weight_range()
    out = np.zeros((d**n, d**n), dtype=np.complex128)
    top = np.empty_like(out)
    prev, base = [np.ones((1, 1), dtype=np.complex128)], 0
    for k in range(1, n + 1):
        cls = range(max(0, ws.start - (n - k)), min(k + 1, ws.stop))
        term, cur = np.empty((d**k, d**k), dtype=np.complex128), []
        for w in cls:
            acc = top if k == n else np.empty_like(term)
            if w < k:
                kron_into(prev[w - base], rho0, acc)
                if w > 0:
                    acc += kron_into(prev[w - 1 - base], rho_pi, term)
            else:
                kron_into(prev[w - 1 - base], rho_pi, acc)
            if k < n:
                cur.append(acc)
            else:
                acc *= q**w * (1.0 - q) ** (n - w)
                out += acc
        prev, base = cur, cls.start
    out /= weight_set_prob(cfg)
    return out


def willie_state_exact(model: WillieModel, cfg: SparseSignalConfig) -> DensityOperator:
    """The warden's exact n-use output under transmission: the weight-set
    mixture of per-slot products of rho_pi (signal slots) and rho0
    (innocent slots)."""
    return DensityOperator(_willie_state_matrix(model, cfg))


# ---------------------------------------------------------------------------
# Divergence chain and decomposition
# ---------------------------------------------------------------------------


class BoundChain(NamedTuple):
    """Exact divergence, its product-state surrogate computed two ways, and
    the chi-square upper bound (all in bits)."""

    d_exact: float
    d_product: float
    d_single_scaled: float
    d_chi2_bound: float


class WardenStates:
    """The n-use states of one configuration and the two n-use divergences,
    each built on first use and then shared: the exact warden state, the
    n-fold power of the single-use mixture, and the innocent product.
    ``bound_chain``, ``decomposition_report`` and ``detect.detection_at_n``
    take one instance, so a caller that needs all three builds each state
    and runs each divergence once, holding fewer than seven d^n-square
    complex matrices of numpy memory at any time.
    """

    def __init__(self, model: WillieModel, cfg: SparseSignalConfig):
        self.model = model
        self.cfg = cfg

    @cached_property
    def rho_n(self) -> DensityOperator:
        return willie_state_exact(self.model, self.cfg)

    @cached_property
    def mix(self) -> DensityOperator:
        q, m = self.cfg.q, self.model
        return DensityOperator((1.0 - q) * m.rho0.mat + q * m.rho_pi.mat)

    @cached_property
    def prod_mix(self) -> DensityOperator:
        return self.mix.power(self.cfg.n)

    @cached_property
    def prod_inn(self) -> DensityOperator:
        return self.model.rho0.power(self.cfg.n)

    @cached_property
    def d_exact(self) -> float:
        return qre(self.rho_n, self.prod_inn)

    @cached_property
    def d_product(self) -> float:
        return qre(self.prod_mix, self.prod_inn)


def _require_support(model: WillieModel) -> None:
    if not support_contained(model.rho_pi, model.rho0):
        raise SupportViolationError(
            "support(rho_pi) is not contained in support(rho0)"
        )


def bound_chain(st: WardenStates) -> BoundChain:
    """Evaluate the covertness bound chain at one configuration.

    d_exact is the divergence of the exact warden state from the innocent
    product; d_product replaces the warden state with the n-fold power of
    the single-use mixture; d_single_scaled is n times the single-use
    divergence (equal to d_product by additivity); d_chi2_bound is
    q^2 n chi2(rho_pi || rho0) converted to bits, which upper-bounds both
    product forms.
    """
    model, cfg = st.model, st.cfg
    _require_support(model)
    d_exact, d_product = st.d_exact, st.d_product
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
    return BoundChain(d_exact, d_product, d_single, d_bound)


def binary_entropy(x: float) -> float:
    """Binary entropy in bits with the 0 log 0 = 0 convention."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument must be in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


@dataclass(frozen=True)
class DecompositionReport:
    """Exact three-term decomposition of the warden divergence and the
    closed-form bounds on its correction terms (all divergences in bits).

    ``qre_total`` equals ``term_product + term_entropy + term_cross`` up to
    round-off: the decomposition is an identity, not a bound. ``epsilon`` is
    half the trace distance between the product surrogate and the exact
    state; it obeys epsilon <= 1 - p(A) <= chernoff_bound. The entropy term
    obeys the entropy-continuity bound ``fannes_bound``; the cross term obeys
    the Hoelder bound ``holder_bound``, which is unavailable when rho0 is
    singular."""

    qre_total: float
    term_product: float
    term_entropy: float
    term_cross: float
    epsilon: float
    chernoff_bound: float
    fannes_bound: float
    holder_bound: Optional[float] = field(default=None)


def _log2_on_support(rho: DensityOperator) -> np.ndarray:
    vals, vecs = rho.eigh()
    live = ~rho.kernel
    logs = np.where(live, np.log2(np.where(live, vals, 1.0)), 0.0)
    return (vecs * logs) @ vecs.conj().T


def decomposition_report(st: WardenStates) -> DecompositionReport:
    """Compute the decomposition terms exactly and check each bound.

    Raises ``RuntimeError`` if any mathematically guaranteed relation fails
    beyond round-off slack, since that indicates an implementation bug
    rather than a property of the model.
    """
    model, cfg = st.model, st.cfg
    _require_support(model)
    n, d = cfg.n, model.dim

    qre_total = st.d_exact
    term_product = st.d_product
    term_entropy = vn_entropy(st.prod_mix) - vn_entropy(st.rho_n)
    # Cross term tr(delta log2 rho0^{(x)n}) with delta = prod_mix - rho_n.
    # The log of a product is a sum of site logs, so this is the sum over
    # sites of tr(delta_i log2 rho0), delta_i the one-site marginals; it is
    # computed independently of the overlaps behind qre.
    def marginal_sum(rho: DensityOperator) -> np.ndarray:
        shapes = ((d**i, d, d ** (n - 1 - i)) for i in range(n))
        return sum(np.einsum("aibajb->ij", rho.mat.reshape(s + s)) for s in shapes)

    marg = marginal_sum(st.prod_mix) - marginal_sum(st.rho_n)
    term_cross = float(np.real(np.vdot(_log2_on_support(model.rho0), marg)))

    epsilon = 0.5 * trace_norm_diff(st.prod_mix, st.rho_n)
    p_abar = 1.0 - weight_set_prob(cfg)
    chern = chernoff_epsilon(cfg)
    fannes = epsilon * n * math.log2(d) + binary_entropy(min(1.0, epsilon))
    lam_min = float(model.rho0.eigvals[0])
    holder = (
        2.0 * epsilon * n * math.log2(1.0 / lam_min)
        if lam_min > SUPPORT_TOL
        else None
    )

    recon = term_product + term_entropy + term_cross
    if not math.isinf(qre_total) and abs(qre_total - recon) > 1e-7:
        raise RuntimeError(
            f"decomposition identity failed: {qre_total} vs {recon}"
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
    return DecompositionReport(
        qre_total=qre_total,
        term_product=term_product,
        term_entropy=term_entropy,
        term_cross=term_cross,
        epsilon=epsilon,
        chernoff_bound=chern,
        fannes_bound=fannes,
        holder_bound=holder,
    )
