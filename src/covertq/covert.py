"""Divergences, detection-error relations, and covertness budgets.

Log-base convention, in one place: every entropy and divergence in this
package is reported in bits (base-2 logs), matching the qubit rate formulas.
Two classical inequalities are native to natural logs and are applied here
after unit conversion:

- Pinsker: (1/4) ||rho - sigma||_1 <= sqrt(D_nats / 8), so the reported
  right-hand side uses D_nats = LN2 * D_bits.
- The mixing bound D(rho_bar || sigma) <= q^2 * chi2(rho_pi || sigma) holds
  with D in nats; callers comparing against bits-valued divergences must
  divide the chi-square side by LN2 (see ``sparse.bound_chain``).

The chi-square divergence itself carries no logarithm and needs no
conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SupportViolationError
from .linops import (
    SUPPORT_TOL,
    DensityOperator,
    clip_spectrum,
    eig_hermitian,
    trace_norm_diff,
)
from .channels import WillieModel

LN2 = math.log(2.0)

# Residual target for the Gibbs mean-energy equation.
TAU_ENERGY = 1e-8


def _xlogx_bits(vals: np.ndarray) -> float:
    """sum(x log2 x) over the positive clipped eigenvalues, with 0 log 0 = 0."""
    pos = clip_spectrum(vals)
    pos = pos[pos > 0.0]
    return float(np.sum(pos * np.log2(pos)))


def _in_frame(rho: DensityOperator, sigma: DensityOperator):
    """rho seen in sigma's eigenbasis V: sigma's eigenvalues, its support
    mask, the overlaps diag(V^dag rho V) and rho @ V. None when rho puts
    mass on sigma's kernel."""
    if rho.dim != sigma.dim:
        raise ValueError("states must share a dimension")
    b, v = sigma.eigh()
    rv = rho.mat @ v
    overlap = np.clip(np.real(np.sum(v.conj() * rv, axis=0)), 0.0, None)
    if float(np.sum(overlap[sigma.kernel])) > SUPPORT_TOL:
        return None
    return b, ~sigma.kernel, overlap, rv


def vn_entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy in bits, with 0 log 0 = 0."""
    return -_xlogx_bits(rho.eigvals)


def qre(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Quantum relative entropy tr(rho log rho - rho log sigma) in bits.

    Returns +inf when rho has support outside the support of sigma.
    """
    frame = _in_frame(rho, sigma)
    if frame is None:
        return math.inf
    b, live, overlap, _ = frame
    term_sigma = float(np.sum(overlap[live] * np.log2(b[live])))
    return _xlogx_bits(rho.eigvals) - term_sigma


def chi2(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Chi-square divergence tr(rho^2 sigma^{-1}) - 1, inverse on support.

    Returns +inf when rho has support outside the support of sigma.
    """
    frame = _in_frame(rho, sigma)
    if frame is None:
        return math.inf
    b, live, _, rv = frame
    # tr(rho^2 sigma^+) = sum over live eigenvectors v of |rho v|^2 / b.
    val = float(np.sum(np.sum(np.abs(rv[:, live]) ** 2, axis=0) / b[live]))
    return max(0.0, val - 1.0)


def support_contained(
    rho: DensityOperator, sigma: DensityOperator, tol: float = SUPPORT_TOL
) -> bool:
    """True when every eigenvector of rho with eigenvalue above ``tol`` lies
    in the span of sigma's eigenvectors with eigenvalue above ``tol``."""
    if rho.dim != sigma.dim:
        raise ValueError("states must share a dimension")
    a, u = rho.eigh()
    b, v = sigma.eigh()
    kernel = v[:, b <= tol]
    if kernel.shape[1] == 0:
        return True
    live = u[:, a > tol]
    if live.shape[1] == 0:
        return True
    # Residual of each live eigenvector under the projector onto sigma's kernel.
    resid = np.sum(np.abs(kernel.conj().T @ live) ** 2, axis=0)
    return bool(np.max(resid) <= tol)


def helstrom_error(rho1: DensityOperator, rho0: DensityOperator) -> float:
    """Minimum equal-prior discrimination error 1/2 - ||rho1 - rho0||_1 / 4."""
    if rho1.dim != rho0.dim:
        raise ValueError("states must share a dimension")
    return 0.5 - 0.25 * trace_norm_diff(rho1, rho0)


def pinsker_gap(rho: DensityOperator, sigma: DensityOperator) -> tuple[float, float]:
    """Both sides of Pinsker's inequality for the pair.

    Returns (lhs, rhs) with lhs = ||rho - sigma||_1 / 4 and
    rhs = sqrt(LN2 * qre(rho, sigma) / 8); the conversion factor moves the
    bits-valued divergence back to nats, where the inequality is native.
    A support violation makes the right side infinite.
    """
    lhs = 0.25 * trace_norm_diff(rho, sigma)
    d = qre(rho, sigma)
    rhs = math.inf if math.isinf(d) else math.sqrt(LN2 * d / 8.0)
    return lhs, rhs


def covert_constant(model: WillieModel) -> float:
    """Channel constant 1 / sqrt(chi2(rho_pi || rho0)).

    Raises ``SupportViolationError`` when the non-innocent output leaks
    outside the innocent support (no covert scheme exists). Returns +inf for
    the trivially covert case rho_pi == rho0 (zero chi-square divergence).
    """
    if not support_contained(model.rho_pi, model.rho0):
        raise SupportViolationError(
            "support(rho_pi) is not contained in support(rho0); "
            "covert signaling is impossible for this model"
        )
    d = chi2(model.rho_pi, model.rho0)
    if math.isinf(d):
        raise SupportViolationError(
            "chi-square divergence diverges despite support containment; "
            "model is numerically marginal"
        )
    if d <= SUPPORT_TOL:
        return math.inf
    return 1.0 / math.sqrt(d)


def q_for_budget(c_q: float, delta_qre: float, n: int) -> float:
    """Signal density min(1, c_q * sqrt(delta_qre / n)).

    The clamp at 1 marks the degenerate non-sparse regime (tiny n or a
    trivially covert channel); callers should report it.
    """
    if c_q < 0 or delta_qre < 0:
        raise ValueError("covert constant and budget must be nonnegative")
    if not math.isfinite(delta_qre):
        raise ValueError(f"budget must be finite, got {delta_qre}")
    if n < 1:
        raise ValueError("need at least one channel use")
    if delta_qre == 0.0:
        return 0.0
    return min(1.0, c_q * math.sqrt(delta_qre / n))


@dataclass(frozen=True)
class CovertnessBudget:
    """A divergence budget together with the signal density it allows."""

    delta_qre: float
    c_q: float
    n: int
    q: float

    def __post_init__(self):
        if self.delta_qre < 0 or self.c_q <= 0 or self.n < 1:
            raise ValueError("budget parameters out of range")
        expect = q_for_budget(self.c_q, self.delta_qre, self.n)
        if abs(self.q - expect) > 1e-12:
            raise ValueError(f"q={self.q} inconsistent with budget (expected {expect})")
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must lie in (0, 1], got {self.q}")

    @classmethod
    def derive(cls, c_q: float, delta_qre: float, n: int) -> "CovertnessBudget":
        return cls(delta_qre=delta_qre, c_q=c_q, n=n, q=q_for_budget(c_q, delta_qre, n))


# ---------------------------------------------------------------------------
# Gibbs states
# ---------------------------------------------------------------------------


def _gibbs_weights(vals: np.ndarray, beta: float) -> np.ndarray:
    # Shift so the largest exponent is 0; immune to overflow for any beta.
    shifted = -beta * vals
    return np.exp(shifted - np.max(shifted))


def _solve_beta(vals: np.ndarray, energy: float) -> float:
    """Inverse temperature at which the thermal mean energy hits the target.

    Bisection on the strictly decreasing mean-energy curve, run until the
    bracket has no double between its ends; negative beta covers targets
    above the maximally mixed energy.
    """
    lo, hi = float(vals[0]), float(vals[-1])
    if not lo < energy < hi:
        raise ValueError(
            f"target energy {energy} must lie strictly inside the spectrum ({lo}, {hi})"
        )

    def residual(beta: float) -> float:
        w = _gibbs_weights(vals, beta)
        return float(np.sum(w * (vals - energy)) / np.sum(w))

    step = 1.0 / max(hi - lo, 1e-30)
    r0 = residual(0.0)
    if r0 == 0.0:
        return 0.0
    if r0 > 0:
        a, b = 0.0, step
        while residual(b) > 0:
            b *= 2.0
            if b > 1e12 * step:
                raise ValueError("energy target too close to the spectral edge")
    else:
        a, b = -step, 0.0
        while residual(a) < 0:
            a *= 2.0
            if a < -1e12 * step:
                raise ValueError("energy target too close to the spectral edge")
    while (mid := 0.5 * (a + b)) not in (a, b):
        a, b = (mid, b) if residual(mid) > 0 else (a, mid)
    return mid


def gibbs_state(hamiltonian, energy: float) -> DensityOperator:
    """Maximum-entropy state exp(-beta H) / Z at the target mean energy.

    ``beta`` solves tr(exp(-beta H) (H - energy)) = 0; the achieved mean
    energy matches the target within ``TAU_ENERGY``.
    """
    vals, vecs = eig_hermitian(hamiltonian)
    beta = _solve_beta(vals, energy)
    w = _gibbs_weights(vals, beta)
    w = w / np.sum(w)
    achieved = float(np.sum(w * vals))
    if abs(achieved - energy) > TAU_ENERGY:
        raise ValueError(
            f"root finding missed the energy target ({achieved} vs {energy})"
        )
    return DensityOperator((vecs * w) @ vecs.conj().T)


def gibbs_tail_ratios(hamiltonian, energy: float, rho_pi: DensityOperator) -> list[tuple[float, float]]:
    """Finite-truncation diagnostic for the Gibbs tail condition.

    For each distinct Hamiltonian level k (ascending, 1-based) with spectral
    projector Pi_k, reports (lambda_k, k * exp(beta * lambda_k) *
    tr(rho_pi^2 Pi_k)). There is no pass/fail semantics at finite dimension;
    a decaying ratio sequence is consistent with the tail condition that the
    infinite-dimensional analysis assumes.
    """
    vals, vecs = eig_hermitian(hamiltonian)
    if rho_pi.dim != vals.size:
        raise ValueError("state and Hamiltonian dimensions disagree")
    beta = _solve_beta(vals, energy)
    levels: list[tuple[float, list[int]]] = []
    for i, lam in enumerate(vals):
        if levels and abs(lam - levels[-1][0]) <= 1e-12 * max(1.0, abs(lam)):
            levels[-1][1].append(i)
        else:
            levels.append((float(lam), [i]))
    if len(levels) < 2:
        raise ValueError("Hamiltonian has a single level; no tail to inspect")
    rho_sq = rho_pi.mat @ rho_pi.mat
    out = []
    for k, (lam, idx) in enumerate(levels, start=1):
        proj = vecs[:, idx] @ vecs[:, idx].conj().T
        mass = float(np.real(np.trace(rho_sq @ proj)))
        out.append((lam, k * math.exp(beta * lam) * mass))
    return out
