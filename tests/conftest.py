"""Shared random-object generators for the test suite.

Everything is seeded explicitly so failures reproduce.
"""

import warnings

import numpy as np
import pytest

from covertq.channels import PAULIS, QuantumChannel, WillieModel, apply_mat
from covertq.linops import DensityOperator
from covertq.twirl import PauliDistribution


def random_density(dim: int, rng: np.random.Generator, floor: float = 0.0) -> DensityOperator:
    """Random full-support-biased state: Wishart normalized, optionally mixed
    with the maximally mixed state to keep eigenvalues off zero."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    if floor > 0.0:
        m = (1.0 - floor) * m + floor * np.eye(dim) / dim
    return DensityOperator(m)


def random_pure(dim: int, rng: np.random.Generator) -> DensityOperator:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = v / np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()))


def random_channel(
    d_in: int, d_out: int, kraus_count: int, rng: np.random.Generator
) -> QuantumChannel:
    """Random CPTP channel from a Haar-ish isometry: QR of a complex Gaussian
    gives orthonormal columns, whose blocks are exactly trace preserving."""
    g = rng.normal(size=(d_out * kraus_count, d_in)) + 1j * rng.normal(
        size=(d_out * kraus_count, d_in)
    )
    v, _ = np.linalg.qr(g)
    ops = tuple(v[i * d_out : (i + 1) * d_out, :] for i in range(kraus_count))
    return QuantumChannel(ops)


def random_willie_model(
    rng: np.random.Generator, dim: int = 2, floor: float = 0.1
) -> WillieModel:
    """Random warden model with full-rank innocent output, so the support
    condition holds automatically."""
    return WillieModel(
        rho0=random_density(dim, rng, floor=floor),
        rho_pi=random_density(dim, rng),
    )


def twirled_replaced_choi(ch: QuantumChannel) -> np.ndarray:
    """Oracle: Choi matrix (trace-1) of the full receiver map, built
    functionally. The map averages the four Pauli conjugations of (channel,
    keep the first-two-levels block, top up lost mass with the maximally
    mixed qubit)."""
    j = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[a, b] = 1.0
            acc = np.zeros((2, 2), dtype=complex)
            for p in PAULIS:
                out = apply_mat(ch, p @ e @ p.conj().T)
                blk = out[:2, :2]
                fail = np.trace(out) - np.trace(blk)
                acc += p.conj().T @ (blk + fail * np.eye(2) / 2) @ p / 4
            j[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = acc
    return j / 2


def branch_loop_reference(ch: QuantumChannel) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: single-shot physics of each of the four Pauli twirl branches.

    Branch j conjugates the maximally entangled pair by id x P_j, runs its
    own loop over the Kraus operators id x K (every product a fresh
    np.kron), keeps the (reference qubit) x (output levels 0 and 1) block
    and undoes P_j. Returns the per-branch success probabilities and,
    conditioned on success, the Bell-basis outcome distributions (each
    overlap clipped at 0, rows renormalized to sum 1).
    """
    d = ch.d_out
    idx = [0, 1, d, d + 1]  # reference r, output b at r * d_out + b
    eye2 = np.eye(2, dtype=np.complex128)
    phi = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
    bell = [np.kron(eye2, p) @ phi for p in PAULIS]
    succ = np.zeros(4)
    outcome = np.zeros((4, 4))
    for j, p in enumerate(PAULIS):
        pre = np.kron(eye2, p) @ np.outer(phi, phi.conj()) @ np.kron(eye2, p.conj().T)
        joint = np.zeros((2 * d, 2 * d), dtype=np.complex128)
        for k in ch.kraus:
            big = np.kron(eye2, k)
            joint += big @ pre @ big.conj().T
        block = joint[np.ix_(idx, idx)]
        s = float(np.trace(block).real)
        succ[j] = s
        if s > 0.0:
            m = np.kron(eye2, p.conj().T) @ (block / s) @ np.kron(eye2, p)
            q = np.clip([np.real(b.conj() @ m @ b) for b in bell], 0.0, None)
            outcome[j] = q / q.sum()
    return succ, outcome


def pipeline_tomography(ch: QuantumChannel, samples: int, seed: int) -> PauliDistribution:
    """Oracle: Monte Carlo estimate of the effective per-slot Pauli error
    vector of the full receiver path: twirl, transmit, project with
    maximally mixed replacement on failure, untwirl, Bell-basis estimation.

    Converges to (1 - p_f) q_tw + p_f / 4 per component, the exact Pauli
    vector of the replaced-projection map; this coincides with
    ``compose_with_failure(q_tw, p_f)`` whenever p_f = 0 or the twirled
    weights are concentrated on the identity. Deterministic for a fixed
    seed.
    """
    succ, outcome = branch_loop_reference(ch)
    # Replacement with the maximally mixed qubit makes the failure-branch
    # Bell outcome exactly uniform, whatever the reference side holds.
    probs = np.clip((succ @ outcome + np.sum(1.0 - succ) / 4.0) / 4.0, 0.0, None)
    counts = np.random.default_rng(seed).multinomial(samples, probs / max(1.0, probs.sum()))
    return PauliDistribution(counts / counts.sum())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    # On a failing example, hypothesis's pytest plugin imports its patch
    # writer, whose libcst dependency warns DeprecationWarning on import; under
    # the suite's filterwarnings that is an INTERNALERROR that ends the whole
    # session. Importing it first, with that one warning ignored, keeps a
    # failing property an ordinary failure.
    if call.excinfo is not None and getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass
    return (yield)
