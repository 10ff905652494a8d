"""Throughput formulas: hashing and distillation rates and the square-root
scaling lower bounds on covert qubit counts.

Rates are in qubits per channel use (base-2 entropies). Bounds are reported
as real numbers, not floored to integers, since they are asymptotic lower
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .twirl import PauliDistribution


def _entropy_bits(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row in bits, 0 log 0 = 0."""
    r = np.asarray(rows, dtype=float)
    safe = np.where(r > 0.0, r, 1.0)
    return -np.sum(r * np.log2(safe), axis=-1)


def entropy4(p: PauliDistribution) -> float:
    """Shannon entropy of the Pauli weight vector in bits."""
    return float(_entropy_bits(p.as_array()))


def hashing_rate(p: PauliDistribution) -> float:
    """Achievable qubit rate of random stabilizer coding over a Pauli
    channel: max(0, 1 - H(p))."""
    return max(0.0, 1.0 - entropy4(p))


def distillation_rate(q_tw: PauliDistribution, p_f: float) -> float:
    """Entanglement distillation rate when failed projections are flagged
    instead of replaced: (1 - p_f) max(0, 1 - H(q_tw))."""
    if not 0.0 <= p_f <= 1.0:
        raise ValueError(f"failure probability must be in [0, 1], got {p_f}")
    return (1.0 - p_f) * max(0.0, 1.0 - entropy4(q_tw))


@dataclass(frozen=True)
class ThroughputBound:
    """A square-root scaling bound: at block length n, at least ``m_lower``
    qubits move covertly and reliably; with classical assistance the two-way
    classical cost stays below ``classical_bits_upper``."""

    n: int
    vartheta: float
    c_q: float
    delta_qre: float
    rate: float
    m_lower: float
    classical_bits_upper: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.m_lower < 0:
            raise ValueError("qubit count bound cannot be negative")


def _m_lower(n: int, vartheta: float, c_q: float, rate: float, delta_qre: float) -> float:
    return (1.0 - vartheta) * math.sqrt(n) * c_q * rate * math.sqrt(delta_qre)


def _check_bound_args(n: int, vartheta: float, c_q: float, delta_qre: float) -> None:
    if n < 1:
        raise ValueError("need at least one channel use")
    if not 0.0 < vartheta < 1.0:
        raise ValueError(f"weight tolerance must lie in (0, 1), got {vartheta}")
    if c_q <= 0 or delta_qre <= 0:
        raise ValueError("covert constant and budget must be positive")
    if not math.isfinite(delta_qre):
        raise ValueError(f"budget must be finite, got {delta_qre}")


def unassisted_bound(
    n: int, vartheta: float, c_q: float, delta_qre: float, p: PauliDistribution
) -> ThroughputBound:
    """Covert qubit count bound without classical assistance; the rate is
    the hashing rate of the combined Pauli error vector."""
    _check_bound_args(n, vartheta, c_q, delta_qre)
    rate = hashing_rate(p)
    return ThroughputBound(
        n=n,
        vartheta=vartheta,
        c_q=c_q,
        delta_qre=delta_qre,
        rate=rate,
        m_lower=_m_lower(n, vartheta, c_q, rate, delta_qre),
    )


def assisted_bound(
    n: int,
    vartheta: float,
    c_q: float,
    delta_qre: float,
    q_tw: PauliDistribution,
    p_f: float,
) -> ThroughputBound:
    """Covert qubit count bound with a two-way covert classical channel; the
    rate is the distillation rate, and the classical cost is bounded by
    (1 + vartheta) sqrt(n) c_q (1 + 2 rate) sqrt(delta)."""
    _check_bound_args(n, vartheta, c_q, delta_qre)
    rate = distillation_rate(q_tw, p_f)
    bits = (
        (1.0 + vartheta)
        * math.sqrt(n)
        * c_q
        * (1.0 + 2.0 * rate)
        * math.sqrt(delta_qre)
    )
    return ThroughputBound(
        n=n,
        vartheta=vartheta,
        c_q=c_q,
        delta_qre=delta_qre,
        rate=rate,
        m_lower=_m_lower(n, vartheta, c_q, rate, delta_qre),
        classical_bits_upper=bits,
    )


def classical_bits_for_weight(w: int, rate_d: float) -> float:
    """Exact two-way classical cost for one realized pattern of weight w:
    one status bit per signal slot plus two bits per distilled pair,
    w + 2 w rate_d. Kept separate from the (1 + vartheta) bound so simulated
    tallies can be compared against both."""
    if w < 0:
        raise ValueError("pattern weight cannot be negative")
    return w * (1.0 + 2.0 * rate_d)
