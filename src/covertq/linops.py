"""Dense complex linear algebra core.

Everything operates on plain ``numpy`` complex arrays in row-major order.
Operator sizes are capped at 1024 so that exact n-copy computations stay at
desk scale. Tolerances are chosen for double-precision eigensolvers at these
sizes and are shared across the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionCapError

# Validation tolerances (double precision, dims <= 1024).
TAU_HERM = 1e-10
TAU_TRACE = 1e-10
TAU_PSD = 1e-9
TAU_EIG = 1e-8
# Kernel threshold for one operator's eigenvalues: at or below it an
# eigenvalue counts as zero in support tests, logs and inverses. It is
# absolute, so it is applied to single-site states only; the kernel of a
# tensor power is decided site by site (see ``DensityOperator.power``),
# because n-fold products legitimately have eigenvalues far below it.
SUPPORT_TOL = 1e-10
# Dense-storage cap: 2**10.
DIM_CAP = 1024


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def is_hermitian(m: np.ndarray, tol: float = TAU_HERM) -> bool:
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - dagger(m))) <= tol


def tensor(a, b) -> np.ndarray:
    """Kronecker product; output dimensions multiply."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def tensor_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    mats = list(mats)
    if not mats:
        raise ValueError("tensor_all needs at least one matrix")
    out = as_complex_matrix(mats[0])
    for m in mats[1:]:
        out = np.kron(out, as_complex_matrix(m))
    return out


def tensor_power(m, k: int, cap: int = DIM_CAP) -> np.ndarray:
    """k-fold Kronecker power with the dense-size cap enforced."""
    if k < 1:
        raise ValueError("tensor power needs k >= 1")
    a = as_complex_matrix(m)
    if a.shape[0] ** k > cap:
        raise DimensionCapError(
            f"dim {a.shape[0]}**{k} exceeds the dense cap of {cap}"
        )
    out = a
    for _ in range(k - 1):
        out = np.kron(out, a)
    return out


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``dims`` are the per-subsystem dimensions whose product must match the
    matrix size; ``keep`` is an iterable of subsystem indices to retain (in
    their original order). The scalar trace is returned as a 1x1 matrix when
    nothing is kept.
    """
    a = as_complex_matrix(m)
    dims = list(int(d) for d in dims)
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise ValueError(
            f"matrix of shape {a.shape} does not factor as subsystems {dims}"
        )
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")
    n = len(dims)
    t = a.reshape(dims + dims)
    # Contract traced-out subsystems pairwise, highest axis first so the
    # remaining axis numbers stay valid.
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(sorted(traced, reverse=True)):
        offset = n - count
        t = np.trace(t, axis1=i, axis2=i + offset)
    kept_dim = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(kept_dim, kept_dim)


def trace_norm(m) -> float:
    """Sum of singular values; for Hermitian input this is the sum of
    absolute eigenvalues."""
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("trace norm is defined for square matrices here")
    if is_hermitian(a, tol=1e-12 * max(1.0, float(np.max(np.abs(a)))) + TAU_HERM):
        return float(np.sum(np.abs(np.linalg.eigvalsh(a))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def trace_norm_diff(rho: DensityOperator, sigma: DensityOperator) -> float:
    """||rho - sigma||_1 of two validated, hence Hermitian, states: the sum of
    the absolute eigenvalues of the difference, with no further temporaries."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(rho.mat - sigma.mat))))


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Ascending real eigenvalues and orthonormal eigenvectors (columns).

    Raises on input that is not Hermitian within tolerance; the caller is
    expected to symmetrize first if round-off is the only culprit.
    """
    a = as_complex_matrix(m)
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if not is_hermitian(a, tol=TAU_HERM * scale):
        raise ValueError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(a)
    return vals.real, vecs


def clip_spectrum(vals: np.ndarray, tol: float = TAU_PSD) -> np.ndarray:
    """Clamp eigenvalues in [-tol, 0) to 0; anything more negative is a
    genuine positivity failure and passes through for the caller to reject."""
    out = np.array(vals, dtype=float)
    out[(out < 0.0) & (out >= -tol)] = 0.0
    return out


class _PowerSpectrum(NamedTuple):
    """Exact spectrum of a k-fold tensor power, ascending: eigenvalue,
    kernel flag, and the permutation that sorts the Kronecker-power
    eigenvectors of ``site`` into the same order."""

    vals: np.ndarray
    kernel: np.ndarray
    site: "DensityOperator"
    k: int
    order: np.ndarray


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace complex matrix.

    Validation happens on construction: Hermiticity within ``TAU_HERM``,
    eigenvalues >= -``TAU_PSD``, trace within ``TAU_TRACE`` of 1, and the
    dense dimension cap.

    The spectrum is cached. The eigenvalues that validation computes are
    kept (``eigvals``), and the eigenvectors are computed on first use
    (``eigh``), which only a reference state of a divergence needs.
    ``power`` supplies the spectrum of a tensor power exactly, from the
    single-site one: outer-product eigenvalues, Kronecker-power
    eigenvectors and a site-wise kernel, with no eigensolve.
    """

    mat: np.ndarray = field(repr=False)
    # Set by ``power`` only.
    _power: Optional[_PowerSpectrum] = field(default=None, repr=False, compare=False)
    _vals: Optional[np.ndarray] = field(init=False, repr=False, compare=False, default=None)
    _vecs: Optional[np.ndarray] = field(init=False, repr=False, compare=False, default=None)
    _kernel: Optional[np.ndarray] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        a = as_complex_matrix(self.mat)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"density operator must be square, got {a.shape}")
        if a.shape[0] > DIM_CAP:
            raise DimensionCapError(
                f"dim {a.shape[0]} exceeds the dense cap of {DIM_CAP}"
            )
        # Unit-trace operators have entries of order 1, so the absolute
        # tolerances are meaningful at every dimension under the cap.
        if not is_hermitian(a, tol=TAU_HERM):
            raise ValueError("density operator must be Hermitian")
        tr = complex(np.trace(a))
        if abs(tr - 1.0) > TAU_TRACE:
            raise ValueError(f"density operator must have unit trace, got {tr}")
        if self._power is None:
            vals = np.linalg.eigvalsh(a)
            kernel = vals <= SUPPORT_TOL
        else:
            vals, kernel = self._power.vals, self._power.kernel
        lo = float(vals[0])
        if lo < -TAU_PSD:
            raise ValueError(f"density operator has negative eigenvalue {lo}")
        object.__setattr__(self, "mat", _frozen(a.copy()))
        object.__setattr__(self, "_vals", _frozen(vals))
        object.__setattr__(self, "_kernel", _frozen(kernel))

    @property
    def eigvals(self) -> np.ndarray:
        """Ascending eigenvalues, as validated (not clipped)."""
        return self._vals

    @property
    def kernel(self) -> np.ndarray:
        """Mask over ``eigvals`` of the eigenvectors spanning the kernel:
        eigenvalues at or below ``SUPPORT_TOL``, or for a tensor power the
        products with a kernel factor."""
        return self._kernel

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``eigvals`` and orthonormal eigenvectors (columns) in the same
        order; the eigenvectors are computed on the first call and kept."""
        if self._vecs is None:
            p = self._power
            if p is None:
                vecs = np.linalg.eigh(self.mat)[1]
            else:
                vecs = tensor_power(p.site.eigh()[1], p.k)[:, p.order]
            object.__setattr__(self, "_vecs", _frozen(vecs))
        return self._vals, self._vecs

    def power(self, k: int) -> "DensityOperator":
        """k-fold tensor power, with its spectrum taken from this state's.

        A product eigenvector lies in the kernel exactly when one of its
        site factors does, whatever the size of the product eigenvalue.
        """
        mat = tensor_power(self.mat, k)
        vals, kernel = self._vals, self._kernel
        for _ in range(k - 1):
            vals = np.multiply.outer(vals, self._vals).ravel()
            kernel = np.logical_or.outer(kernel, self._kernel).ravel()
        order = np.argsort(vals, kind="stable")
        return DensityOperator(
            mat, _PowerSpectrum(vals[order], kernel[order], self, k, order)
        )

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

    @classmethod
    def from_vector(cls, vec) -> "DensityOperator":
        """Pure state from an amplitude vector (normalized internally)."""
        v = np.asarray(vec, dtype=np.complex128).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("zero vector has no associated state")
        v = v / nrm
        return cls(np.outer(v, v.conj()))
