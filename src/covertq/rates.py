"""Throughput formulas: hashing and distillation rates and the square-root
scaling lower bounds on covert qubit counts.

Rates are in qubits per channel use (base-2 entropies). Bounds are reported
as real numbers, not floored to integers, since they are asymptotic lower
bounds.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .channels import PauliDistribution
from .covert import check_budget, check_vartheta, entropy_bits
from .linops import check_block_length
from .twirl import check_failure_probability


def hashing_rate(p: PauliDistribution) -> float:
    """Achievable qubit rate of random stabilizer coding over a Pauli
    channel: max(0, 1 - H(p))."""
    return max(0.0, 1.0 - entropy_bits(p.weights))


def distillation_rate(q_tw: PauliDistribution, p_f: float) -> float:
    """Entanglement distillation rate when failed projections are flagged
    instead of replaced: (1 - p_f) times the hashing rate of q_tw."""
    check_failure_probability(p_f)
    return (1.0 - p_f) * hashing_rate(q_tw)


class ThroughputBound(NamedTuple):
    """A square-root scaling bound: at block length n, at least ``m_lower``
    qubits move covertly and reliably; with classical assistance the two-way
    classical cost stays below ``classical_bits_upper``. It holds no rate:
    the caller passes one in."""

    m_lower: float
    classical_bits_upper: Optional[float] = None


def _m_lower(n: int, vartheta: float, c_q: float, rate: float, delta_qre: float) -> float:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1] qubits per channel use, got {rate}")
    return (1.0 - vartheta) * math.sqrt(n) * c_q * rate * math.sqrt(delta_qre)


def _check_bound_args(n: int, vartheta: float, c_q: float, delta_qre: float) -> None:
    check_block_length(n)
    check_vartheta(vartheta)
    check_budget(delta_qre)
    if not (c_q > 0 and delta_qre > 0):
        raise ValueError("covert constant and budget must be positive")


def unassisted_bound(
    n: int, vartheta: float, c_q: float, delta_qre: float, rate: float
) -> ThroughputBound:
    """Covert qubit count bound without classical assistance, at ``rate``
    qubits per channel use: the hashing rate of the combined Pauli error
    vector (``hashing_rate``)."""
    _check_bound_args(n, vartheta, c_q, delta_qre)
    return ThroughputBound(m_lower=_m_lower(n, vartheta, c_q, rate, delta_qre))


def assisted_bound(
    n: int, vartheta: float, c_q: float, delta_qre: float, rate: float
) -> ThroughputBound:
    """Covert qubit count bound with a two-way covert classical channel, at
    ``rate`` qubits per channel use: the distillation rate
    (``distillation_rate``). The classical cost is bounded by
    (1 + vartheta) sqrt(n) c_q (1 + 2 rate) sqrt(delta)."""
    _check_bound_args(n, vartheta, c_q, delta_qre)
    m_lower = _m_lower(n, vartheta, c_q, rate, delta_qre)
    bits = (1.0 + vartheta) * math.sqrt(n) * c_q * (1.0 + 2.0 * rate) * math.sqrt(delta_qre)
    return ThroughputBound(m_lower=m_lower, classical_bits_upper=bits)
