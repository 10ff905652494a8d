"""Dense linear algebra core.

Everything operates on plain ``numpy`` arrays in row-major order, in one of
two dtypes: float64 for a matrix that is given as float64, such as a real
pair in the frame of ``sparse.WardenStates``, and complex128 for every other
input. A real matrix stays real through every product, tensor power,
spectrum and trace norm here, which runs its eigensolves in real
arithmetic. Operator sizes are
capped at 1024 so that exact n-copy computations stay at desk scale.
Tolerances are chosen for double-precision eigensolvers at these sizes and
are shared across the package, as are the block-length rules
(``check_block_length``, ``check_exact_block``) and the one Kronecker
product (``kron``).
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import DimensionCapError

# Validation tolerances (double precision, dims <= 1024).
TAU_HERM = 1e-10
TAU_TRACE = 1e-10
TAU_PSD = 1e-9
# Kernel threshold for one operator's eigenvalues, and the support allowance
# per site. An eigenvalue at or below it counts as zero in logs and inverses;
# the kernel of a tensor power is decided site by site instead (see
# ``sparse.WardenStates.figures``), since n-fold products legitimately have
# eigenvalues far below it. A state may put mass up to SUPPORT_TOL per site
# on a reference's kernel (``covert.qre_spectral``): a site mass m gives an
# n-fold product or mixture at most n * m on the kernel of the n-fold power.
SUPPORT_TOL = 1e-10
# Dense-storage cap: 2**10.
DIM_CAP = 1024
# Width of the column (or row) blocks in which at-cap products are formed:
# 64 columns of a 1024-row complex matrix take 1 MiB, a sixteenth of it.
BLOCK = 64


def max_exact_block(d: int) -> int:
    """Largest k with d**k at or below ``DIM_CAP``: 10 for qubits, 6 for
    qutrits, 0 past the cap. Found by integer multiplication, so comparing a
    block length with it costs the same however long the block is."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    k, size = 0, d
    while size <= DIM_CAP:
        k, size = k + 1, size * d
    return k


def check_block_length(n: int) -> None:
    """Refuse a block length below 1, NaN, or past the double range, where
    sqrt(n) has no value; the one range test of a block length."""
    if not n >= 1:
        raise ValueError("need at least one channel use")
    if n > sys.float_info.max:
        raise ValueError("block length is past the double range")


def check_exact_block(n: int, d: int) -> None:
    """Refuse a block length whose d**n-square state would pass the dense
    cap; the one test of the cap on a block length. n is compared with
    ``max_exact_block``, never through d**n, so the check costs the same
    however long the block is, and a one-dimensional factor (1**n = 1) is
    never refused."""
    if d == 1:
        return
    n_max = max_exact_block(d)
    if n > n_max:
        raise DimensionCapError(
            f"warden dimension {d}**{n} exceeds the dense cap of {DIM_CAP}; "
            f"keep d**n at or below {DIM_CAP} (n <= {n_max} for d={d})"
        )


def read_only_copy(m, dtype=np.complex128, ndim: int = 2) -> np.ndarray:
    """m copied into ``dtype`` and returned read-only: the one way a record
    keeps an array it is given, so a caller's array is never frozen or
    changed. An array of another rank than ``ndim``, an empty array or a
    non-finite entry is refused with ``ValueError``."""
    a = np.array(m, dtype=dtype)
    if a.ndim != ndim:
        raise ValueError(f"expected a {ndim}-D array, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"expected a non-empty array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("array entries must be finite")
    a.flags.writeable = False
    return a


def _as_array(m) -> np.ndarray:
    """m as an array of one of the two dtypes the package computes in:
    float64 when m already is a float64 array, complex128 otherwise."""
    a = np.asarray(m)
    return a if a.dtype == np.float64 else np.asarray(a, dtype=np.complex128)


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def _blocks(n: int) -> list[slice]:
    return [slice(i, min(i + BLOCK, n)) for i in range(0, n, BLOCK)]


def hermitian_gap(m: np.ndarray) -> float:
    """max |m - m^dag| of a square matrix, taken over blocks of ``BLOCK`` rows
    so that no temporary of m's size forms; a NaN or infinite entry is
    refused with ``ValueError``. The one Hermiticity scan of the package."""
    gap = 0.0
    for s in _blocks(len(m)):
        if not np.isfinite(m[s]).all():
            raise ValueError("matrix entries must be finite")
        gap = max(gap, float(np.max(np.abs(m[s] - dagger(m[:, s])))))
    return gap


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The package's one Kronecker product: ``np.kron(a, b)`` bit for bit,
    in a new array, as one strided multiply a * b[i, j] per entry of b; for
    a small b, 2 to 6 times faster than ``np.kron``, whose broadcast runs an
    inner loop of one row of b."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.empty((ra * rb, ca * cb), dtype=np.result_type(a, b))
    o4 = out.reshape(ra, rb, ca, cb)
    for i in range(rb):
        for j in range(cb):
            np.multiply(a, b[i, j], out=o4[:, i, :, j])
    return out


def tensor_power(m, k: int) -> np.ndarray:
    """k-fold Kronecker power with the dense-size cap enforced, always in a
    new array that the caller may write (at k = 1 a copy of m), in m's dtype
    (``_as_array``); k is a block length (``check_block_length``)."""
    check_block_length(k)
    a = read_only_copy(m, _as_array(m).dtype)
    check_exact_block(k, a.shape[0])
    out = a.copy()
    for _ in range(k - 1):
        out = kron(out, a)
    return out


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix, such as a
    difference of states. A matrix whose ``hermitian_gap`` passes
    ``TAU_HERM``, or that is not square, is refused with ``ValueError``. A
    float64 matrix is solved in real arithmetic (``_as_array``)."""
    a = _as_array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("trace norm is defined for square matrices here")
    gap = hermitian_gap(a)
    if gap > TAU_HERM:
        raise ValueError(f"trace norm needs a Hermitian matrix, max |m - m^dag| = {gap:.3e}")
    return float(np.sum(np.abs(np.linalg.eigvalsh(a))))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix: real symmetric
    and float64 when it is given as float64, complex128 otherwise
    (``_as_array``), so that a real state's spectrum and products are
    computed in real arithmetic.

    Validation happens on construction: finite entries and Hermiticity
    within ``TAU_HERM`` (``hermitian_gap``), eigenvalues >= -``TAU_PSD``,
    trace within ``TAU_TRACE`` of 1, and the dense dimension cap. A matrix
    that enters is kept read-only as its Hermitian part (m + m^dag)/2, which
    is m bit for bit when m is exactly Hermitian.

    ``_derived`` means the matrix did not enter: the package computed it from
    checked states (``channels.apply`` outputs, the states of
    ``sparse.WardenStates`` and ``sparse.willie_state_exact``). It is adopted
    as it is, not made Hermitian, and its trace is not tested, since that
    test belongs where a matrix enters. A derived trace may differ from 1 by
    more than ``TAU_TRACE`` with no fault: an n-use state's compounds to
    tr(rho)^n, and a channel
    output's is off by as much as the channel misses trace preservation,
    which ``channels.TAU_TP`` bounds entrywise.

    The spectrum is cached, read-only like ``mat``. Validation's ascending
    eigenvalues are kept unclipped (``eigvals``) with the mask of those at
    or below ``SUPPORT_TOL`` (``kernel``), and the eigenvectors are computed
    on first use (``eigh``), which only a one-site reference state of a
    divergence or the frame of ``sparse.WardenStates`` needs. ``__slots__``
    admits no other attribute. Validation is ``__post_init__``, which
    perfbench's tracer wraps by name.
    """

    __slots__ = ("mat", "eigvals", "kernel", "_vecs")

    def __init__(self, mat, _derived: bool = False):
        self.mat = mat
        self._vecs = None
        self.__post_init__(_derived)

    def __post_init__(self, _derived: bool):
        a = _as_array(self.mat)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"density operator must be square, got {a.shape}")
        if a.shape[0] > DIM_CAP:
            raise DimensionCapError(
                f"dim {a.shape[0]} exceeds the dense cap of {DIM_CAP}"
            )
        # Unit-trace operators have entries of order 1, so the absolute
        # tolerances are meaningful at every dimension under the cap.
        if hermitian_gap(a) > TAU_HERM:
            raise ValueError("density operator must be Hermitian")
        if not _derived:
            a = (a + dagger(a)) / 2
            tr = complex(np.trace(a))
            if abs(tr - 1.0) > TAU_TRACE:
                raise ValueError(f"density operator must have unit trace, got {tr}")
        vals = np.linalg.eigvalsh(a)
        lo = float(vals[0])
        if lo < -TAU_PSD:
            raise ValueError(f"density operator has negative eigenvalue {lo}")
        self.mat = _frozen(a)
        self.eigvals = _frozen(vals)
        self.kernel = _frozen(vals <= SUPPORT_TOL)

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``eigvals`` and orthonormal eigenvectors (columns) in the same
        order; the eigenvectors are computed on the first call and kept."""
        if self._vecs is None:
            self._vecs = _frozen(np.linalg.eigh(self.mat)[1])
        return self.eigvals, self._vecs

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "DensityOperator":
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[index, index] = 1.0
        return cls(m)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=np.complex128) / dim)
