"""The warden's optimal hypothesis test at exact small block lengths, and
end-to-end tomography of the simulated receiver path.

Detection is evaluated exactly (enumeration over weight classes) rather than
by sampled measurements: the optimal binary-test error is a closed function
of the two block states, so the exact route is both tighter and faster at
desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import trace_norm_diff
from .channels import QuantumChannel
from .sparse import WardenStates, max_exact_block  # noqa: F401  (re-exported)
from .twirl import PauliDistribution, _twirl_branches, _categorical_counts


@dataclass(frozen=True)
class DetectionResult:
    """Exact warden-side figures at one block length."""

    n: int
    trace_distance: float
    p_e_willie: float
    qre_exact: float
    qre_budget: float
    covert_ok: bool

    def __post_init__(self):
        expected = 0.5 - 0.25 * self.trace_distance
        if abs(self.p_e_willie - expected) > 1e-9:
            raise ValueError("error probability inconsistent with trace distance")
        if self.covert_ok != (self.qre_exact <= self.qre_budget):
            raise ValueError("covertness flag inconsistent with divergences")


def detection_at_n(st: WardenStates, delta_qre: float) -> DetectionResult:
    """Exact trace distance, optimal test error, and divergence of the
    warden's n-use state against the innocent product, with the covertness
    flag for the given budget. Block lengths past ``max_exact_block`` raise
    ``DimensionCapError`` when the warden state is built.

    A support violation is reported through an infinite divergence (and a
    false flag) rather than an exception, since the trace-distance figures
    remain meaningful.
    """
    if delta_qre < 0:
        raise ValueError("budget must be nonnegative")
    td = trace_norm_diff(st.rho_n, st.prod_inn)
    d_exact = st.d_exact
    return DetectionResult(
        n=st.cfg.n,
        trace_distance=td,
        p_e_willie=0.5 - 0.25 * td,
        qre_exact=d_exact,
        qre_budget=delta_qre,
        covert_ok=bool(d_exact <= delta_qre),
    )


def pipeline_tomography(ch: QuantumChannel, samples: int, seed: int) -> PauliDistribution:
    """Monte Carlo estimate of the effective per-slot Pauli error vector of
    the full receiver path: twirl, transmit, project with maximally mixed
    replacement on failure, untwirl, Bell-basis estimation.

    Converges to (1 - p_f) q_tw + p_f / 4 per component, the exact Pauli
    vector of the replaced-projection map; this coincides with
    ``compose_with_failure(q_tw, p_f)`` whenever p_f = 0 or the twirled
    weights are concentrated on the identity. Deterministic for a fixed
    seed.
    """
    succ, outcome = _twirl_branches(ch)
    # Replacement with the maximally mixed qubit makes the failure-branch
    # Bell outcome exactly uniform, whatever the reference side holds.
    probs = (succ @ outcome + np.sum(1.0 - succ) / 4.0) / 4.0
    counts = _categorical_counts(probs, samples, seed)
    return PauliDistribution.from_array(counts / counts.sum())
