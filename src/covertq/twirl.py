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
from .linops import dagger, kron, read_only_copy
from .channels import PAULIS, PauliDistribution, QuantumChannel, apply_mat, choi

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


def _qubit_block_indices(ch: QuantumChannel) -> list[int]:
    """Rows of the joint (reference qubit) x (output qudit) space, flattened
    as r * d_out + b, that keep output levels 0 and 1; the input and output
    must hold a qubit."""
    require_qubit_input(ch)
    if ch.d_out < 2:
        raise ValueError(f"output dimension {ch.d_out} has no qubit subspace")
    return [r * ch.d_out + b for r in (0, 1) for b in (0, 1)]


def projection_stats(ch: QuantumChannel) -> ProjectionStats:
    """Failure probability and conditional Choi of the projected channel.

    The failure probability is taken with respect to the maximally mixed
    input, which is the relevant average once the inputs are twirled. The
    qubit subspace is fixed to the first two output basis vectors.
    """
    _qubit_block_indices(ch)  # refuses a channel with no qubit block
    block = choi(ch, levels=2)
    succ = float(np.trace(block).real)
    p_f = min(1.0, max(0.0, 1.0 - succ))
    if succ <= 1e-12:
        raise DegenerateChannelError(
            "projection onto the qubit subspace fails with probability 1"
        )
    return ProjectionStats(p_f=p_f, conditional_choi=block / succ)


def _bell_diagonal(j: np.ndarray) -> np.ndarray:
    """Bell-diagonal entries <b|j|b> of a 4x4 two-qubit operator, clipped
    at 0 and renormalized to sum 1."""
    q = np.array([float(np.real(b.conj() @ j @ b)) for b in _BELL])
    q = np.clip(q, 0.0, None)
    return q / q.sum()


def twirl_parameters(stats: ProjectionStats) -> PauliDistribution:
    """Pauli weights of the twirled conditional channel: Bell-diagonal
    entries of the conditional Choi matrix, renormalized to sum 1."""
    return PauliDistribution(_bell_diagonal(stats.conditional_choi))


def compose_with_failure(q_tw: PauliDistribution, p_f: float) -> PauliDistribution:
    """Combined Pauli error vector of twirling followed by the depolarizing
    effect of projection failure:

        p_I = (1 - 3/4 p_f) q_I
        p_j = (1 - 3/4 p_f) q_j + 1/4 p_f   for j in {X, Y, Z}
    """
    check_failure_probability(p_f)
    return PauliDistribution(_compose_rows(q_tw.weights[None, :], p_f)[0])


def _compose_rows(q_rows: np.ndarray, p_f: float) -> np.ndarray:
    """Row-wise form of :func:`compose_with_failure` for grid sweeps."""
    out = (1.0 - 0.75 * p_f) * q_rows
    out[:, 1:] += 0.25 * p_f
    return out


# ---------------------------------------------------------------------------
# Monte Carlo route
# ---------------------------------------------------------------------------


def _twirl_branches(ch: QuantumChannel):
    """Single-shot physics for each of the four Pauli twirl branches.

    For branch j: send the Bell state (id x P_j) applied to the maximally
    entangled pair through id x N, the channel extended by the reference
    qubit (``channels.apply_mat``), project onto the qubit subspace, and
    undo P_j. The extension's Kraus operators are id x K, so its
    trace-preservation residual is the channel's own. Returns the
    per-branch success probabilities and, conditioned on success, the
    Bell-basis outcome distributions (rows sum to 1).
    """
    idx = _qubit_block_indices(ch)
    eye2 = np.eye(2, dtype=np.complex128)
    extended = QuantumChannel(tuple(kron(eye2, k) for k in ch.kraus))
    succ = np.zeros(4)
    outcome = np.zeros((4, 4))
    for j, p in enumerate(PAULIS):
        pair = np.outer(_BELL[j], _BELL[j].conj())
        block = apply_mat(extended, pair)[np.ix_(idx, idx)]
        s = float(np.trace(block).real)
        succ[j] = s
        if s > 0.0:
            outcome[j] = _bell_diagonal(kron(eye2, dagger(p)) @ (block / s) @ kron(eye2, p))
    return succ, outcome


def _categorical_counts(probs, samples: int, seed: int) -> np.ndarray:
    """Counts of ``samples`` i.i.d. draws from ``probs`` as one multinomial
    draw, in memory independent of ``samples``; round-off above a total of 1
    is normalized away. Deterministic for a fixed seed."""
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > np.iinfo(np.int64).max:
        raise ValueError(f"sample count {samples} exceeds the multinomial limit 2**63 - 1")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    p = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    return np.random.default_rng(seed).multinomial(samples, p / max(1.0, p.sum()))


def monte_carlo_twirl(ch: QuantumChannel, samples: int, seed: int) -> PauliDistribution:
    """Empirical estimate of the twirled Pauli weights.

    Each shot draws one of the four twirl branches uniformly, runs the
    single-shot projection experiment (discarding failures), and records the
    Bell-basis outcome. Shots are i.i.d., so their counts are one multinomial
    draw. Deterministic for a fixed seed.
    """
    succ, outcome = _twirl_branches(ch)
    bell = succ @ outcome / 4.0
    counts = _categorical_counts([*bell, 1.0 - bell.sum()], samples, seed)[:4]
    if counts.sum() == 0:
        raise DegenerateChannelError("every sample failed the qubit projection")
    return PauliDistribution(counts / counts.sum())
