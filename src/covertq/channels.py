"""Quantum channels as Kraus-operator lists.

Provides channel application, Choi matrices (trace-1 convention), the
complementary (environment-side) channel, standard builders, spec-file I/O,
and the two-output warden model derived from a channel and an innocent input.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ChannelFormatError, TracePreservationError
from .linops import (
    DensityOperator,
    as_complex_matrix,
    dagger,
)

log = logging.getLogger(__name__)

# Trace-preservation tolerance for sum_k K^dag K = I.
TAU_TP = 1e-9

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace-preserving map as a list of Kraus operators.

    Each operator is d_out x d_in. The environment dimension equals the
    number of supplied operators; the Kraus rank is not minimized.
    """

    kraus: tuple = field(repr=False)

    def __post_init__(self):
        ops = tuple(as_complex_matrix(k) for k in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise ValueError("all Kraus operators must share one shape")
        for k in ops:
            k.flags.writeable = False
        object.__setattr__(self, "kraus", ops)
        res = tp_residual(self)
        if res > TAU_TP:
            raise TracePreservationError(
                f"Kraus operators are not trace preserving (residual {res:.3e})"
            )

    @property
    def d_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.kraus[0].shape[0]


def tp_residual(ch: QuantumChannel) -> float:
    """Max-abs deviation of sum_k K^dag K from the identity."""
    acc = np.zeros((ch.kraus[0].shape[1],) * 2, dtype=np.complex128)
    for k in ch.kraus:
        acc += dagger(k) @ k
    return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))


def apply_mat(ch: QuantumChannel, m: np.ndarray) -> np.ndarray:
    """Channel action sum_k K m K^dag on a raw matrix."""
    out = np.zeros((ch.d_out, ch.d_out), dtype=np.complex128)
    for k in ch.kraus:
        out += k @ m @ dagger(k)
    return out


def apply(ch: QuantumChannel, rho: DensityOperator) -> DensityOperator:
    """Apply the channel to a state; output is validated."""
    if rho.dim != ch.d_in:
        raise ValueError(f"state dim {rho.dim} does not match channel input {ch.d_in}")
    return DensityOperator(apply_mat(ch, rho.mat))


def choi(ch: QuantumChannel) -> np.ndarray:
    """Trace-1 Choi matrix (id x N) applied to the maximally entangled state.

    Index order is (reference, output); with this normalization the
    Bell-diagonal entries of a Pauli channel read off as its probabilities.
    """
    d = ch.d_in
    j = np.zeros((d * ch.d_out,) * 2, dtype=np.complex128)
    for k in ch.kraus:
        v = k.flatten("F")  # v[(i, b)] = K[b, i], reference index first
        j += np.outer(v, v.conj())
    return j / d


def complementary(ch: QuantumChannel) -> QuantumChannel:
    """Environment-side channel of the isometric dilation.

    Output dimension equals the number of Kraus operators; the environment
    output satisfies [N_c(rho)]_{ij} = tr(K_i rho K_j^dag).
    """
    stacked = np.stack(ch.kraus)  # (environment, d_out, d_in)
    ops = tuple(stacked[:, b, :].copy() for b in range(ch.d_out))
    return QuantumChannel(ops)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def identity_channel(d: int = 2) -> QuantumChannel:
    return QuantumChannel((np.eye(d, dtype=np.complex128),))


def pauli_channel(weights) -> QuantumChannel:
    """Qubit Pauli channel sum_j p_j P_j rho P_j for weights (I, X, Y, Z)."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape != (4,):
        raise ValueError("Pauli channel needs four weights (I, X, Y, Z)")
    if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must form a distribution, got {w}")
    w = np.clip(w, 0.0, None)
    ops = tuple(np.sqrt(p) * P for p, P in zip(w, PAULIS) if p > 0.0)
    if not ops:
        raise ValueError("all weights vanish")
    return QuantumChannel(ops)


def depolarizing(lam: float) -> QuantumChannel:
    """Qubit depolarizing channel: identity with probability 1 - lam, each
    non-identity Pauli with probability lam / 4."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"depolarizing parameter must be in [0, 1], got {lam}")
    return pauli_channel((1.0 - 0.75 * lam, lam / 4, lam / 4, lam / 4))


def amplitude_damping(gamma: float) -> QuantumChannel:
    """Qubit amplitude damping: |1> decays to |0> with probability gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping parameter must be in [0, 1], got {gamma}")
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=np.complex128)
    return QuantumChannel((k0, k1))


def qubit_leak(p_leak: float) -> QuantumChannel:
    """Qubit into qutrit with probability p_leak of leaking to level 2.

    The qubit subspace is passed through untouched otherwise, so projection
    onto the first two output levels fails with probability exactly p_leak.
    """
    if not 0.0 <= p_leak <= 1.0:
        raise ValueError(f"leak probability must be in [0, 1], got {p_leak}")
    keep = np.zeros((3, 2), dtype=np.complex128)
    keep[0, 0] = keep[1, 1] = np.sqrt(1 - p_leak)
    l0 = np.zeros((3, 2), dtype=np.complex128)
    l0[2, 0] = np.sqrt(p_leak)
    l1 = np.zeros((3, 2), dtype=np.complex128)
    l1[2, 1] = np.sqrt(p_leak)
    return QuantumChannel((keep, l0, l1))


# ---------------------------------------------------------------------------
# Channel spec files
# ---------------------------------------------------------------------------
#
# UTF-8 JSON with fields d_in, d_out and kraus, where kraus is a list of
# d_out x d_in matrices and every entry is a [re, im] pair.


def save_channel(ch: QuantumChannel, path) -> None:
    doc = {
        "d_in": ch.d_in,
        "d_out": ch.d_out,
        "kraus": [
            [[[float(e.real), float(e.imag)] for e in row] for row in k]
            for k in ch.kraus
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def complex_entry(e) -> complex:
    """The number a ``[re, im]`` spec entry stands for; an entry that is not
    a list of exactly two numbers is refused with ``ValueError``."""
    if not isinstance(e, list) or len(e) != 2:
        raise ValueError(f"entry {e!r} is not a [re, im] pair")
    return complex(e[0], e[1])


def load_channel(path) -> QuantumChannel:
    """Load and validate a channel spec file.

    The trace-preservation residual is logged at INFO level so callers can
    surface it in diagnostics even when validation passes; it is computed
    again only when that level is enabled.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ChannelFormatError(f"cannot read channel file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"channel file {path} is not valid JSON: {exc}") from exc
    try:
        d_in, d_out = doc["d_in"], doc["d_out"]
        if type(d_in) is not int or type(d_out) is not int:
            raise ValueError(f"d_in and d_out must be integers, got {d_in!r} and {d_out!r}")
        ops = [
            np.array([[complex_entry(e) for e in row] for row in k], dtype=np.complex128)
            for k in doc["kraus"]
        ]
        if any(op.shape != (d_out, d_in) for op in ops):
            raise ChannelFormatError(
                f"channel file {path}: Kraus shapes disagree with d_out x d_in"
            )
        ch = QuantumChannel(tuple(ops))
    except (ChannelFormatError, TracePreservationError):
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ChannelFormatError(
            f"channel file {path} is malformed: {exc}"
        ) from exc
    if log.isEnabledFor(logging.INFO):
        log.info("loaded channel %s, trace-preservation residual %.3e", path, tp_residual(ch))
    return ch


# ---------------------------------------------------------------------------
# Warden model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WillieModel:
    """The warden's two single-use output states.

    ``rho0`` is the output for the innocent input and ``rho_pi`` the output
    for the maximally mixed input (the average non-innocent input after
    twirling). Support containment of rho_pi in rho0 is required by the
    covertness operations downstream and is checked there, not here.
    """

    rho0: DensityOperator
    rho_pi: DensityOperator

    def __post_init__(self):
        if self.rho0.dim != self.rho_pi.dim:
            raise ValueError("warden output states must share a dimension")

    @property
    def dim(self) -> int:
        return self.rho0.dim


def willie_model(ch: QuantumChannel, innocent_input: DensityOperator) -> WillieModel:
    """Build the warden model from the warden-side channel.

    ``ch`` maps the sender's input to the warden's output; use
    ``complementary`` first when only the receiver-side channel is known.
    """
    if innocent_input.dim != ch.d_in:
        raise ValueError(
            f"innocent input dim {innocent_input.dim} does not match channel input {ch.d_in}"
        )
    rho0 = apply(ch, innocent_input)
    rho_pi = apply(ch, DensityOperator.maximally_mixed(ch.d_in))
    return WillieModel(rho0=rho0, rho_pi=rho_pi)
