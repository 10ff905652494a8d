"""Qubit-basis projection and Pauli twirling.

The receiver demodulates each output by projecting onto the first two output
basis vectors; a failed projection is modeled as replacement with the
maximally mixed qubit. Twirling the surviving conditional channel with
uniformly random Pauli gates makes it a Pauli channel whose weights are the
Bell-diagonal entries of the conditional Choi matrix. Both an analytic route
and a Monte Carlo sampling route are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateChannelError, DimensionCapError, EstimationFailureError
from .linops import as_complex_matrix, dagger
from .channels import PAULIS, QuantumChannel, choi

PAULI_LABELS = ("I", "X", "Y", "Z")


def bell_vectors() -> np.ndarray:
    """The four Bell vectors (id x P_j) applied to the maximally entangled
    pair, one per row, indexed like (I, X, Y, Z)."""
    phi = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    rows = []
    for p in PAULIS:
        op = np.kron(np.eye(2, dtype=np.complex128), p)
        rows.append(op @ phi)
    return np.stack(rows)


_BELL = bell_vectors()


@dataclass(frozen=True)
class PauliDistribution:
    """Probability vector over the Pauli labels (I, X, Y, Z)."""

    p_i: float
    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self):
        v = self.as_array()
        if np.any(v < -1e-12):
            raise ValueError(f"Pauli weights must be nonnegative, got {tuple(v)}")
        if abs(v.sum() - 1.0) > 1e-10:
            raise ValueError(f"Pauli weights must sum to 1, got {v.sum()!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_i, self.p_x, self.p_y, self.p_z], dtype=float)

    @classmethod
    def from_array(cls, v) -> "PauliDistribution":
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape != (4,):
            raise ValueError("need exactly four weights")
        return cls(float(v[0]), float(v[1]), float(v[2]), float(v[3]))


def check_failure_probability(p_f: float) -> None:
    """Refuse a projection failure probability outside [0, 1]."""
    if not 0.0 <= p_f <= 1.0:
        raise ValueError(f"failure probability must be in [0, 1], got {p_f}")


@dataclass(frozen=True)
class ProjectionStats:
    """Projection failure probability and the renormalized conditional Choi
    matrix of the post-projection qubit map (trace 1, PSD)."""

    p_f: float
    conditional_choi: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_failure_probability(self.p_f)
        j = as_complex_matrix(self.conditional_choi)
        if j.shape != (4, 4):
            raise ValueError("conditional Choi matrix must be 4x4")
        if abs(np.trace(j).real - 1.0) > 1e-9 or abs(np.trace(j).imag) > 1e-9:
            raise ValueError("conditional Choi matrix must have trace 1")
        j = j.copy()
        j.flags.writeable = False
        object.__setattr__(self, "conditional_choi", j)


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
    idx = _qubit_block_indices(ch)
    j = choi(ch)
    block = j[np.ix_(idx, idx)]
    succ = float(np.trace(block).real)
    p_f = min(1.0, max(0.0, 1.0 - succ))
    if succ <= 1e-12:
        raise DegenerateChannelError(
            "projection onto the qubit subspace fails with probability 1"
        )
    return ProjectionStats(p_f=p_f, conditional_choi=block / succ)


def twirl_parameters(stats: ProjectionStats) -> PauliDistribution:
    """Pauli weights of the twirled conditional channel: Bell-diagonal
    entries of the conditional Choi matrix, renormalized to sum 1."""
    j = stats.conditional_choi
    q = np.array([float(np.real(b.conj() @ j @ b)) for b in _BELL])
    q = np.clip(q, 0.0, None)
    return PauliDistribution.from_array(q / q.sum())


def compose_with_failure(q_tw: PauliDistribution, p_f: float) -> PauliDistribution:
    """Combined Pauli error vector of twirling followed by the depolarizing
    effect of projection failure:

        p_I = (1 - 3/4 p_f) q_I
        p_j = (1 - 3/4 p_f) q_j + 1/4 p_f   for j in {X, Y, Z}
    """
    check_failure_probability(p_f)
    return PauliDistribution.from_array(
        _compose_rows(q_tw.as_array()[None, :], p_f)[0]
    )


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

    For branch j: apply P_j to the channel half of a maximally entangled
    pair, send it through the channel, project onto the qubit subspace, and
    undo P_j. Returns the per-branch success probabilities and, conditioned
    on success, the Bell-basis outcome distributions (rows sum to 1).
    """
    idx = _qubit_block_indices(ch)
    d = ch.d_out
    eye2 = np.eye(2, dtype=np.complex128)
    succ = np.zeros(4)
    outcome = np.zeros((4, 4))
    for j, p in enumerate(PAULIS):
        pre = np.kron(eye2, p) @ np.outer(_BELL[0], _BELL[0].conj()) @ np.kron(eye2, dagger(p))
        joint = np.zeros((2 * d, 2 * d), dtype=np.complex128)
        for k in ch.kraus:
            big = np.kron(eye2, k)
            joint += big @ pre @ dagger(big)
        block = joint[np.ix_(idx, idx)]
        s = float(np.trace(block).real)
        succ[j] = s
        if s > 0.0:
            cond = block / s
            undone = np.kron(eye2, dagger(p)) @ cond @ np.kron(eye2, p)
            row = np.array([float(np.real(b.conj() @ undone @ b)) for b in _BELL])
            row = np.clip(row, 0.0, None)
            outcome[j] = row / row.sum()
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
        raise EstimationFailureError("every sample failed the qubit projection")
    return PauliDistribution.from_array(counts / counts.sum())
