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
    """Transpose of a matrix, or of each matrix in a stack, in a unitary basis U
    (or in one basis each): U (U† M U)^T U†, the plain transpose without one.

    It maps PSD matrices to PSD matrices and square roots to square roots:
    the transpose of sqrt(M) is the PSD root of the transpose of M.
    """
    if basis is None:
        return m.swapaxes(-1, -2)
    u = as_matrix(basis, stack=True)
    return u @ (dagger(u) @ m @ u).swapaxes(-1, -2) @ dagger(u)


def is_hermitian(m: np.ndarray) -> np.ndarray:
    """Whether a matrix is Hermitian; for a stack, one verdict per matrix."""
    skew = np.abs(m - dagger(m)).max((-2, -1))
    return skew <= tol.HERM_TOL * (1 + np.abs(m).max((-2, -1)))


def frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of each matrix in a stack.

    Taken as np.linalg.norm takes it, with the same rounding: the dot
    products of the real and of the imaginary parts of the entries in
    row-major order, one BLAS dot per matrix.
    """
    flat = x.reshape(*x.shape[:-2], 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def leading_columns(m: np.ndarray, ranks) -> np.ndarray:
    """Each matrix of a stack with its columns past its rank zeroed; for one
    matrix and one rank, that matrix's.

    A rank cut as a mask keeps every matrix at the stack's shape, so a
    stack of ragged ranks needs no split.
    """
    return m * (np.arange(m.shape[-1]) < np.asarray(ranks)[..., None])[..., None, :]


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


def factor_partial_trace(x: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """partial_trace of X X† for a factor X with dA dB rows, as Y Y†.

    Y is X reshaped to (dA, dB, k), with B moved first for keep="B", and
    folded to dA x (dB k) (dB x (dA k) for keep="B"), so the (dA dB)^2
    matrix is never formed.
    """
    da, db = dims
    x = x.reshape(da, db, -1)
    if keep == "B":
        x = x.transpose(1, 0, 2)
    elif keep != "A":
        raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")
    y = x.reshape(x.shape[0], -1)
    return y @ dagger(y)


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make each column's largest-modulus component real nonnegative (in each matrix of a stack)."""
    z = np.take_along_axis(vecs, np.abs(vecs).argmax(-2)[..., None, :], -2)
    mag = np.abs(z)
    return vecs * (np.conj(z) / np.where(mag > 0, mag, 1.0))


def kept_rank(w: np.ndarray):
    """Number of leading entries of a descending nonnegative spectrum that count as nonzero.

    An entry counts when it exceeds RANK_TAIL_FACTOR / d times the largest,
    d the spectrum's length, which is the space's dimension: callers pad a
    shorter spectrum with zeros.  The at most d entries counted as zero
    then weigh at most RANK_TAIL_FACTOR times the largest, so a state cut to
    its support keeps its unit trace within TRACE_TOL; and each counted
    entry clears the bar alone, so a spectrum cut at its kept rank keeps
    that rank (the epsilon-rank of Golub & Van Loan, Matrix Computations,
    section 5.4).  For a stack of spectra (..., d) it gives one rank per
    spectrum.
    """
    d = w.shape[-1]
    rank = (w > tol.RANK_TAIL_FACTOR / max(d, 1) * w[..., :1]).sum(-1)
    return int(rank) if rank.ndim == 0 else rank


@dataclass(frozen=True)
class Support:
    """Support of a PSD Hermitian matrix, read from one eigendecomposition
    (or from one SVD of a factor of the matrix).

    The trailing eigenvalues that kept_rank counts as zero weigh together at
    most RANK_TAIL_FACTOR times the largest, and the leading `rank`
    eigenvectors span the support.  There is one eigenvalue per
    dimension, but only as many eigenvectors as there are eigenvalues that
    may be nonzero: the rest are exact zeros and need no vectors.  A stack's
    Support stacks every field (a rank and floor per matrix); `power` serves it.
    """

    eigenvalues: np.ndarray  # descending, clipped at zero, one per dimension
    eigenvectors: np.ndarray  # columns paired with the leading eigenvalues
    rank: int  # an array of ranks for a stack
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
        return power_on_support(self.eigenvectors, self.eigenvalues, self.rank, exponent)

    def factor(self) -> np.ndarray:
        """A d x m matrix Y with Y Y† equal to the matrix up to rounding.

        Unlike the views above this ignores the support rank: it keeps
        every eigenpair above the rounding level `floor` of the
        decomposition, so an eigenvalue that is the product of two resolved
        scales (say 1e-5 * 1e-6) is not mistaken for zero.
        """
        count = int(np.count_nonzero(self.eigenvalues > self.floor))
        return self.eigenvectors[:, :count] * np.sqrt(self.eigenvalues[:count])


def power_on_support(vecs: np.ndarray, values: np.ndarray, ranks, exponent: float) -> np.ndarray:
    """sum_i w_i^p v_i v_i† over the leading `ranks` eigenpairs (columns v_i
    of `vecs`, descending values w_i): a PSD matrix to the power p on its
    support, for one matrix or for each matrix of a stack.

    The rank cut is a mask on the columns (leading_columns), so ragged
    ranks need no split.  Only the positive eigenvalues are raised to the
    power: a zero is never raised to a negative one, and the result is
    finite and exactly zero off the support.
    """
    v = leading_columns(vecs, ranks)
    w = values[..., : v.shape[-1]]
    wp = np.power(w, exponent, out=np.zeros_like(w), where=w > 0)
    return hermitize((v * wp[..., None, :]) @ dagger(v))


def support_from_eigenpairs(
    eigenvectors: np.ndarray, eigenvalues: np.ndarray, dim: int, resolution: float
) -> Support:
    """Support of sum_i w_i v_i v_i† on a dim-dimensional space, or of each of a stack.

    The columns v_i are orthonormal and the w_i descending and nonnegative;
    the spectrum is padded with zeros to dim.  `resolution` is the rounding
    level of the w_i relative to the largest: dim * eps for an eigensolver's,
    (dim * eps)^2 for squared singular values.
    """
    w = np.zeros(eigenvalues.shape[:-1] + (dim,))
    w[..., : eigenvalues.shape[-1]] = eigenvalues
    return Support(w, eigenvectors, kept_rank(w), resolution * (w[..., 0] if dim else 0.0))


def support(p: np.ndarray, name: str = "matrix") -> Support:
    """Support of a Hermitian PSD matrix (of each of a stack) from its one eigendecomposition.

    The eigenvalues come descending: eigh's ascending output reversed, so
    within a degenerate eigenvalue the eigenvectors come in the reverse of
    eigh's own order, with no sort.  Each eigenvector's largest-modulus
    component is real nonnegative.  An eigenvalue below -PSD_TOL times
    max(1, largest |eigenvalue| of its matrix) raises NotPSDError, naming
    `name`; smaller negatives are clipped to zero.  p is not checked for
    Hermiticity (its Hermitian part is decomposed): callers pass matrices
    that were validated or built Hermitian.
    """
    w, v = np.linalg.eigh(hermitize(p))
    w = w[..., ::-1]
    last = w[..., -1:]
    neg = last[last < -tol.PSD_TOL * np.maximum(1.0, np.abs(w).max(-1, keepdims=True, initial=0.0))]
    if neg.size:
        raise NotPSDError(f"{name} has negative eigenvalue {neg[0]:.3e}")
    d = w.shape[-1]
    return support_from_eigenpairs(
        _fix_phases(v[..., ::-1]), np.maximum(w, 0.0), d, d * np.finfo(float).eps
    )


def support_from_svd(u: np.ndarray, s: np.ndarray, dim: int) -> Support:
    """Support of (U s)(U s)† from its singular pairs: eigenvectors U, eigenvalues s^2.

    An SVD resolves each s to eps times the largest, so s^2 is resolved down
    to (dim * eps)^2 * top, far below an eigensolver's dim * eps * top.
    """
    return support_from_eigenpairs(u, s**2, dim, (dim * np.finfo(float).eps) ** 2)


def support_from_factor(x: np.ndarray) -> Support:
    """Support of X X† (of each of a stack) from one thin SVD of X, without forming X X†."""
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    return support_from_svd(u, s, x.shape[-2])


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
