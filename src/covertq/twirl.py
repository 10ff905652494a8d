"""Qubit-basis projection and Pauli twirling.

The receiver demodulates each output by projecting onto the first two output
basis vectors; a failed projection is modeled as replacement with the
maximally mixed qubit. Twirling the surviving conditional channel with
uniformly random Pauli gates makes it a Pauli channel whose weights are the
Bell-diagonal entries of the conditional Choi matrix. Both an analytic route
and a Monte Carlo sampling route are provided.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateChannelError, DimensionCapError
from .linops import kron, read_only_copy
from .channels import PAULIS, PauliDistribution, QuantumChannel, choi

PAULI_LABELS = ("I", "X", "Y", "Z")


def bell_vectors() -> np.ndarray:
    """The four Bell vectors (id x P_j) applied to the maximally entangled
    pair, one per row, indexed like (I, X, Y, Z)."""
    phi = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    rows = []
    for p in PAULIS:
        op = kron(np.eye(2, dtype=np.complex128), p)
        rows.append(op @ phi)
    return np.stack(rows)


_BELL = bell_vectors()


def check_failure_probability(p_f: float) -> None:
    """Refuse a projection failure probability outside [0, 1]."""
    if not 0.0 <= p_f <= 1.0:
        raise ValueError(f"failure probability must be in [0, 1], got {p_f}")


class ProjectionStats:
    """Projection failure probability and the renormalized conditional Choi
    matrix of the post-projection qubit map (trace 1, PSD), held as its own
    read-only copy (``linops.read_only_copy``)."""

    __slots__ = ("p_f", "conditional_choi")

    def __init__(self, p_f: float, conditional_choi):
        check_failure_probability(p_f)
        j = read_only_copy(conditional_choi)
        if j.shape != (4, 4):
            raise ValueError("conditional Choi matrix must be 4x4")
        if abs(np.trace(j).real - 1.0) > 1e-9 or abs(np.trace(j).imag) > 1e-9:
            raise ValueError("conditional Choi matrix must have trace 1")
        self.p_f = p_f
        self.conditional_choi = j


def require_qubit_input(ch: QuantumChannel) -> None:
    """Refuse a channel whose input is not a qubit, as twirling needs one."""
    if ch.d_in != 2:
        raise DimensionCapError(
            f"twirl analysis needs a qubit-input channel, got d_in={ch.d_in}"
        )


def projection_stats(ch: QuantumChannel) -> ProjectionStats:
    """Failure probability and conditional Choi of the projected channel.

    The failure probability is taken with respect to the maximally mixed
    input, which is the relevant average once the inputs are twirled. The
    qubit subspace is fixed to the first two output basis vectors.
    """
    require_qubit_input(ch)
    if ch.d_out < 2:
        raise ValueError(f"output dimension {ch.d_out} has no qubit subspace")
    block = choi(ch, levels=2)
    succ = float(np.trace(block).real)
    p_f = min(1.0, max(0.0, 1.0 - succ))
    if succ <= 1e-12:
        raise DegenerateChannelError(
            "projection onto the qubit subspace fails with probability 1"
        )
    return ProjectionStats(p_f=p_f, conditional_choi=block / succ)


def twirl_parameters(stats: ProjectionStats) -> PauliDistribution:
    """Pauli weights of the twirled conditional channel: Bell-diagonal
    entries <b|J|b> of the conditional Choi matrix J, clipped at 0 and
    renormalized to sum 1."""
    j = stats.conditional_choi
    q = np.clip([float(np.real(b.conj() @ j @ b)) for b in _BELL], 0.0, None)
    return PauliDistribution(q / q.sum())


def compose_with_failure(q_tw: PauliDistribution, p_f: float) -> PauliDistribution:
    """Combined Pauli error vector of twirling followed by the depolarizing
    effect of projection failure:

        p_I = (1 - 3/4 p_f) q_I
        p_j = (1 - 3/4 p_f) q_j + 1/4 p_f   for j in {X, Y, Z}
    """
    check_failure_probability(p_f)
    out = (1.0 - 0.75 * p_f) * q_tw.weights
    out[1:] += 0.25 * p_f
    return PauliDistribution(out)


# ---------------------------------------------------------------------------
# Monte Carlo route
# ---------------------------------------------------------------------------


def monte_carlo_twirl(
    q_tw: PauliDistribution, p_f: float, samples: int, seed: int
) -> PauliDistribution:
    """Empirical estimate of the twirled Pauli weights ``q_tw``, from the
    projection failure probability ``p_f`` that goes with them.

    Each shot draws one of the four twirl branches j uniformly, sends
    (id x P_j)|Phi> through id x N, projects onto the qubit subspace
    (discarding failures), undoes P_j and records the Bell-basis outcome.
    The reference marginal of every branch's state is I/2, so each branch
    succeeds with s = tr(J_2), J_2 = ``choi(ch, levels=2)``; undoing P_j maps
    each Bell vector to itself up to a phase, so each branch's outcome law is
    the Bell diagonal of J_2 / s, which is q_tw. A shot thus lands on Pauli j
    with probability (1 - p_f) q_tw[j] and fails with p_f, where p_f and
    q_tw are what ``projection_stats`` and ``twirl_parameters`` give. Shots
    are i.i.d., so their counts are one multinomial draw, in memory
    independent of ``samples``; round-off above a total of 1 is normalized
    away. Deterministic for a fixed seed.
    """
    check_failure_probability(p_f)
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > np.iinfo(np.int64).max:
        raise ValueError(f"sample count {samples} exceeds the multinomial limit 2**63 - 1")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    bell = (1.0 - p_f) * q_tw.weights
    law = np.clip([*bell, 1.0 - bell.sum()], 0.0, None)
    counts = np.random.default_rng(seed).multinomial(samples, law / max(1.0, law.sum()))[:4]
    if counts.sum() == 0:
        raise DegenerateChannelError("every sample failed the qubit projection")
    return PauliDistribution(counts / counts.sum())
