"""Dense complex linear-algebra kernel.

Everything here works on plain complex numpy arrays.  Subsystem A is always
the slow (leftmost) tensor index: an operator on A x B with dims (dA, dB) has
row index i*dB + k for A-index i and B-index k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import NotPSDError, ShapeError, ValidationError


def as_matrix(m, stack: bool = False) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries.

    With `stack`, an (n, rows, cols) stack of matrices is accepted too.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 and not (stack and a.ndim == 3):
        what = "a matrix or a stack of matrices" if stack else "a matrix"
        raise ShapeError(f"expected {what}, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(m).swapaxes(-1, -2)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2, used to absorb roundoff."""
    return (m + dagger(m)) / 2


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products of np.kron(a, b) (a's indices slow), without its overhead;
    for a stack a, those of each matrix in it."""
    (m, n), (p, q) = a.shape[-2:], b.shape
    return (a[..., :, None, :, None] * b[:, None, :]).reshape(*a.shape[:-2], m * p, n * q)


def transpose_in_basis(m: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Transpose of a matrix, or of each matrix in a stack, in a unitary basis U:
    U (U† M U)^T U†, the plain transpose when no basis is given.

    It maps PSD matrices to PSD matrices and square roots to square roots:
    the transpose of sqrt(M) is the PSD root of the transpose of M.
    """
    if basis is None:
        return m.swapaxes(-1, -2)
    u = as_matrix(basis)
    return u @ (dagger(u) @ m @ u).swapaxes(-1, -2) @ dagger(u)


def is_hermitian(m: np.ndarray) -> bool:
    return np.max(np.abs(m - dagger(m))) <= tol.HERM_TOL * (1 + np.max(np.abs(m)))


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on A x B.

    keep="A" returns the dA x dA reduction, keep="B" the dB x dB one.
    """
    m = as_matrix(m)
    da, db = dims
    if m.shape != (da * db, da * db):
        raise ShapeError(f"matrix shape {m.shape} does not match dims {dims}")
    t = m.reshape(da, db, da, db)
    if keep == "A":
        return np.trace(t, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(t, axis1=0, axis2=2)
    raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make each column's largest-modulus component real nonnegative."""
    z = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    mag = np.abs(z)
    return vecs * (np.conj(z) / np.where(mag > 0, mag, 1.0))


def kept_rank(w: np.ndarray) -> int:
    """Number of entries of a descending nonnegative spectrum above the rank cutoff."""
    top = float(w[0]) if w.size else 0.0
    return int(np.count_nonzero(w > max(tol.RANK_TOL_FACTOR * top, tol.RANK_TOL_FLOOR)))


@dataclass(frozen=True)
class Support:
    """Support of a PSD Hermitian matrix, read from one eigendecomposition
    (or from one SVD of a factor of the matrix).

    Eigenvalues at or below the rank cutoff count as zero, so the leading
    `rank` eigenvectors span the support.  There is one eigenvalue per
    dimension, but only as many eigenvectors as there are eigenvalues that
    may be nonzero: the rest are exact zeros and need no vectors.
    """

    eigenvalues: np.ndarray  # descending, clipped at zero, one per dimension
    eigenvectors: np.ndarray  # columns paired with the leading eigenvalues
    rank: int
    floor: float  # rounding level of the eigenvalues; nothing above it is noise

    @property
    def isometry(self) -> np.ndarray:
        """d x rank matrix whose orthonormal columns span the support."""
        return self.eigenvectors[:, : self.rank]

    @property
    def projector(self) -> np.ndarray:
        v = self.isometry
        return hermitize(v @ dagger(v))

    def power(self, exponent: float) -> np.ndarray:
        """The matrix raised to a (possibly negative) power on its support.

        Off the support the result is exactly zero; for exponent 1/2 this
        keeps noise of order eps from becoming sqrt(eps).
        """
        v = self.isometry
        w = self.eigenvalues[: self.rank] ** exponent
        return hermitize((v * w) @ dagger(v))

    def factor(self) -> np.ndarray:
        """A d x m matrix Y with Y Y† equal to the matrix up to rounding.

        Unlike the views above this ignores the rank cutoff: it keeps every
        eigenpair above the rounding level `floor` of the decomposition, so
        an eigenvalue that is the product of two resolved scales (say
        1e-5 * 1e-6) is not mistaken for zero.
        """
        count = int(np.count_nonzero(self.eigenvalues > self.floor))
        return self.eigenvectors[:, :count] * np.sqrt(self.eigenvalues[:count])


def support_from_eigenpairs(
    eigenvectors: np.ndarray, eigenvalues: np.ndarray, dim: int, resolution: float | None = None
) -> Support:
    """Support of sum_i w_i v_i v_i† on a dim-dimensional space.

    The columns v_i are orthonormal and the w_i descending and nonnegative;
    the spectrum is padded with zeros to dim.  `resolution` is the rounding
    level of the w_i relative to the largest; the default dim * eps is an
    eigensolver's.
    """
    w = np.zeros(dim)
    w[: eigenvalues.size] = eigenvalues
    if resolution is None:
        resolution = dim * np.finfo(float).eps
    top = float(w[0]) if w.size else 0.0
    return Support(w, eigenvectors, kept_rank(w), resolution * top)


def support(p: np.ndarray, name: str = "matrix") -> Support:
    """Support of a Hermitian PSD matrix from its one eigendecomposition.

    The eigenvalues come descending: eigh's ascending output reversed, so
    within a degenerate eigenvalue the eigenvectors come in the reverse of
    eigh's own order, with no sort.  Each eigenvector's largest-modulus
    component is real nonnegative.  An eigenvalue below -PSD_TOL times
    max(1, largest |eigenvalue|) raises NotPSDError, naming `name`; smaller
    negatives are clipped to zero.  p is not checked for Hermiticity (its
    Hermitian part is decomposed): callers pass matrices that were
    validated or built Hermitian.
    """
    w, v = np.linalg.eigh(hermitize(p))
    w = w[::-1]
    scale = max(1.0, float(np.max(np.abs(w), initial=0.0)))
    if w.size and w[-1] < -tol.PSD_TOL * scale:
        raise NotPSDError(f"{name} has negative eigenvalue {w[-1]:.3e}")
    return support_from_eigenpairs(_fix_phases(v[:, ::-1]), np.maximum(w, 0.0), w.size)


def support_from_svd(u: np.ndarray, s: np.ndarray, dim: int) -> Support:
    """Support of (U s)(U s)† from its singular pairs: eigenvectors U, eigenvalues s^2.

    An SVD resolves each s to eps times the largest, so s^2 is resolved down
    to (dim * eps)^2 * top, far below an eigensolver's dim * eps * top.
    """
    return support_from_eigenpairs(u, s**2, dim, (dim * np.finfo(float).eps) ** 2)


def support_from_factor(x: np.ndarray) -> Support:
    """Support of X X† from one thin SVD of X, without forming X X†."""
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    return support_from_svd(u, s, x.shape[0])


def schmidt_rank(v: np.ndarray, dims: tuple[int, int]) -> int:
    """Schmidt rank of a bipartite vector (A slow index).

    Counts the singular values of v reshaped to dA x dB above
    tolerances.SCHMIDT_TOL times the largest.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    da, db = dims
    if v.size != da * db:
        raise ShapeError(f"vector length {v.size} does not match dims {dims}")
    if np.linalg.norm(v) <= 0:
        raise ValidationError("cannot Schmidt-decompose the zero vector")
    s = np.linalg.svd(v.reshape(da, db), compute_uv=False)
    return int(np.count_nonzero(s > tol.SCHMIDT_TOL * s[0]))
