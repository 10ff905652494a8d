"""Divergences, the support test, and the covertness budget.

Log-base convention, in one place: every entropy and divergence in this
package is reported in bits (base-2 logs), matching the qubit rate formulas.
The mixing bound D(rho_bar || sigma) <= q^2 * chi2(rho_pi || sigma) is native
to natural logs: it holds with D in nats, so callers comparing against
bits-valued divergences must divide the chi-square side by LN2 (see
``sparse.bound_chain``).

The chi-square divergence itself carries no logarithm and needs no
conversion. The divergence budget delta is the one input in nats: the mixing
bound sets q^2 n chi2 = delta (``q_for_budget``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SupportViolationError
from .linops import SUPPORT_TOL, DensityOperator, check_block_length
from .channels import WillieModel

LN2 = math.log(2.0)
QRE_FLOOR = 1e-14  # round-off allowed below 0 in a relative entropy, bits per site


def entropy_bits(p) -> float:
    """Shannon entropy -sum(p log2 p) in bits of a 1-D array, such as a
    spectrum or a Pauli vector, with 0 log 0 = 0: entries that are not
    positive are dropped before the sum."""
    p = np.asarray(p, dtype=float)
    pos = p[p > 0.0]
    return -float(np.sum(pos * np.log2(pos)))


def _overlaps(rho: DensityOperator, sigma: DensityOperator):
    """rho's overlaps diag(V^dag rho V) with sigma's eigenbasis V, and rho V,
    for two states of one dimension."""
    if rho.dim != sigma.dim:
        raise ValueError("states must share a dimension")
    v = sigma.eigh()[1]
    rv = rho.mat @ v
    return np.real(np.sum(v.conj() * rv, axis=0)), rv


def _kernel_mass(overlap: np.ndarray, kernel: np.ndarray, sites: int):
    """A state's mass on a reference's kernel, its overlaps clipped at 0, or
    None when that mass exceeds ``SUPPORT_TOL`` per site of the reference;
    this is the package's one support test."""
    m = float(np.sum(np.clip(overlap[kernel], 0.0, None)))
    return None if m > SUPPORT_TOL * sites else m


def vn_entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy in bits, with 0 log 0 = 0."""
    return entropy_bits(rho.eigvals)


def qre_spectral(vals, overlap, ref_vals, ref_kernel, sites: int) -> float:
    """Quantum relative entropy tr(rho log rho - rho log sigma) in bits, from
    rho's eigenvalues ``vals``, its overlaps diag(V^dag rho V) with sigma's
    eigenbasis V, and sigma's eigenvalues and kernel mask in V's order;
    sigma is a product of ``sites`` one-site states.

    Returns +inf when rho has support outside the support of sigma
    (``_kernel_mass``). A value below zero by at most its floor is returned
    as 0.0, and one further below raises ``RuntimeError``. The floor is
    ``QRE_FLOOR`` per site, plus m log2(e d / m) for a tolerated mass m of
    rho on sigma's kernel, whose log is dropped: that bounds h(m) + m log2 d,
    the most the kernel block can add to rho's entropy.
    """
    m = _kernel_mass(overlap, ref_kernel, sites)
    if m is None:
        return math.inf
    live = ~ref_kernel
    term_sigma = float(np.sum(np.clip(overlap[live], 0.0, None) * np.log2(ref_vals[live])))
    val = -entropy_bits(vals) - term_sigma
    floor = QRE_FLOOR * sites + (m * math.log2(math.e * len(ref_vals) / m) if m > 0 else 0.0)
    if val < -floor:
        raise RuntimeError(f"relative entropy {val} is below its round-off floor {-floor}")
    return 0.0 if val <= 0.0 else val


def qre(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Quantum relative entropy D(rho || sigma) in bits of two one-site
    states (``qre_spectral``)."""
    overlap, _ = _overlaps(rho, sigma)
    return qre_spectral(rho.eigvals, overlap, sigma.eigvals, sigma.kernel, 1)


def chi2(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Chi-square divergence tr(rho^2 sigma^{-1}) - 1, inverse on support.

    Returns +inf when rho has support outside the support of sigma.
    """
    overlap, rv = _overlaps(rho, sigma)
    if _kernel_mass(overlap, sigma.kernel, 1) is None:
        return math.inf
    live = ~sigma.kernel
    # tr(rho^2 sigma^+) = sum over live eigenvectors v of |rho v|^2 / b.
    norms = np.sum(np.abs(rv[:, live]) ** 2, axis=0)
    val = float(np.sum(norms / sigma.eigvals[live]))
    return max(0.0, val - 1.0)


def support_contained(rho: DensityOperator, sigma: DensityOperator) -> bool:
    """True when rho's mass on sigma's kernel is at most ``SUPPORT_TOL``
    (``_kernel_mass``), so it holds exactly when ``qre`` and ``chi2`` of the
    pair are finite."""
    return _kernel_mass(_overlaps(rho, sigma)[0], sigma.kernel, 1) is not None


def require_support(model: WillieModel) -> None:
    """Refuse a model whose non-innocent output leaks outside the innocent
    support (``support_contained``), so that no covert scheme exists; the
    package's one ``SupportViolationError``."""
    if not support_contained(model.rho_pi, model.rho0):
        raise SupportViolationError(
            "support(rho_pi) is not contained in support(rho0); "
            "covert signaling is impossible for this model"
        )


def covert_constant(model: WillieModel) -> float:
    """Channel constant 1 / sqrt(chi2(rho_pi || rho0)).

    Refuses a model that fails ``require_support``, whose chi2 is infinite.
    Returns +inf for the trivially covert case rho_pi == rho0 (zero
    chi-square divergence).
    """
    require_support(model)
    d = chi2(model.rho_pi, model.rho0)
    if d <= SUPPORT_TOL:
        return math.inf
    return 1.0 / math.sqrt(d)


def check_budget(delta_qre: float) -> None:
    """Refuse a divergence budget that is negative or not finite."""
    if delta_qre < 0:
        raise ValueError("budget must be nonnegative")
    if not math.isfinite(delta_qre):
        raise ValueError(f"budget must be finite, got {delta_qre}")


def check_vartheta(vartheta: float) -> None:
    """Refuse a weight-set half-width outside (0, 1], NaN included."""
    if not 0.0 < vartheta <= 1.0:
        raise ValueError(f"weight tolerance must lie in (0, 1], got {vartheta}")


def q_for_budget(c_q: float, delta_qre: float, n: int) -> float:
    """Signal density min(1, c_q * sqrt(delta_qre / n)) for a budget
    ``delta_qre`` in nats.

    The clamp at 1 marks the degenerate non-sparse regime (tiny n or a
    trivially covert channel); callers should report it.
    """
    if not c_q >= 0:
        raise ValueError("covert constant must be nonnegative")
    check_budget(delta_qre)
    check_block_length(n)
    if delta_qre == 0.0:
        return 0.0
    return min(1.0, c_q * math.sqrt(delta_qre / n))
