"""The warden's optimal hypothesis test at exact small block lengths.

Detection is evaluated exactly (enumeration over weight classes) rather than
by sampled measurements: the optimal binary-test error is a closed function
of the two block states, so the exact route is both tighter and faster at
desk scale.
"""

from __future__ import annotations

from typing import NamedTuple

from .covert import LN2, check_budget
from .sparse import WardenStates


class DetectionResult(NamedTuple):
    """What the warden's test adds to ``WardenFigures`` at one block length."""

    p_e_willie: float  # 1/2 - trace_distance / 4, the optimal test's error
    covert_ok: bool  # LN2 * d_exact (bits) <= the budget (nats)


def detection_at_n(st: WardenStates, delta_qre: float) -> DetectionResult:
    """Optimal test error of the warden's n-use state against the innocent
    product, with the covertness flag for the budget ``delta_qre`` in nats,
    which must be finite and nonnegative (``covert.check_budget``). Block
    lengths past the dense cap (``linops.check_exact_block``) raise
    ``DimensionCapError`` from ``st.figures`` before any state is built.

    A support violation is reported through an infinite divergence (and a
    false flag) rather than an exception, since the trace-distance figures
    remain meaningful.
    """
    check_budget(delta_qre)
    fig = st.figures
    return DetectionResult(
        p_e_willie=0.5 - 0.25 * fig.trace_distance,
        covert_ok=bool(LN2 * fig.d_exact <= delta_qre),
    )
