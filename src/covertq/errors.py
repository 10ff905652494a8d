"""Exception types shared across the package.

``cli._EXIT_TABLE`` maps each class to its exit code and ``code=`` name;
several classes share an exit code. Keep this hierarchy flat and stable.
"""


class ChannelFormatError(ValueError):
    """Channel spec file is missing, unreadable, or malformed."""


class TracePreservationError(ValueError):
    """Kraus operators do not sum to the identity within tolerance."""


class SupportViolationError(ValueError):
    """Non-innocent output support is not contained in the innocent support,
    so no covert scheme exists for this model."""


class DimensionCapError(ValueError):
    """Requested operator size exceeds the dense-computation cap, or an input
    dimension is one the analysis does not support (twirling needs a qubit)."""


class DegenerateChannelError(ValueError):
    """Channel has no overlap with the qubit subspace (projection always
    fails) or an analysis degenerates (infinite c_q, or signal density 1)."""
