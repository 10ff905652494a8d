"""The warden's optimal hypothesis test at exact small block lengths.

Detection is evaluated exactly (enumeration over weight classes) rather than
by sampled measurements: the optimal binary-test error is a closed function
of the two block states, so the exact route is both tighter and faster at
desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .covert import LN2, check_budget
from .sparse import WardenStates


@dataclass(frozen=True)
class DetectionResult:
    """Exact warden-side figures at one block length. ``qre_exact`` is in
    bits and the budget ``qre_budget`` in nats, so the covertness flag
    compares LN2 * qre_exact with it."""

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
        if self.covert_ok != (LN2 * self.qre_exact <= self.qre_budget):
            raise ValueError("covertness flag inconsistent with divergences")


def detection_at_n(st: WardenStates, delta_qre: float) -> DetectionResult:
    """Exact trace distance, optimal test error, and divergence of the
    warden's n-use state against the innocent product, with the covertness
    flag for the budget ``delta_qre`` in nats, which must be finite and
    nonnegative (``covert.check_budget``). Block lengths past the dense cap
    (``linops.check_exact_block``) raise ``DimensionCapError`` when the
    warden state is built.

    A support violation is reported through an infinite divergence (and a
    false flag) rather than an exception, since the trace-distance figures
    remain meaningful.
    """
    check_budget(delta_qre)
    td, d_exact = st.figures.trace_distance, st.figures.d_exact
    return DetectionResult(
        n=st.cfg.n,
        trace_distance=td,
        p_e_willie=0.5 - 0.25 * td,
        qre_exact=d_exact,
        qre_budget=delta_qre,
        covert_ok=bool(LN2 * d_exact <= delta_qre),
    )

