"""Fixed-point structure of channels.

A square trace-preserving channel's invariant operators decompose the space
into a direct sum of tensor-product blocks: on each block the invariant
states are (anything on the first factor) x (one fixed state on the second).
This module computes that decomposition numerically; `witnesses` builds the
no-broadcasting, monogamy and cloning arguments on it.

The decomposition uses no random draws and no retries, and no array larger
than n*d^2 for an n-dimensional algebra on C^d besides the superoperator.
Hermitian operators are handled in one set of real coordinates, those of
the HS-orthonormal basis {E_jj, (E_jk + E_kj)/sqrt2, i(E_jk - E_kj)/sqrt2}.
Every channel's superoperator S preserves Hermiticity, so it is a real
d^2 x d^2 matrix in these coordinates, with the singular values of the
complex one.  One real SVD of (identity - S) gives both the channel's fixed
space (right kernel) and its adjoint's (left kernel), each already an
HS-orthonormal Hermitian basis; the long-run state is the Riesz projection
of I/d onto the first.  Once a full-rank invariant state exists the
adjoint's fixed space is an algebra ⊕ M_d1 x I_d2 (Blume-Kohout, Ng, Poulin & Viola, 2010).
Its center is the image of T(X) = sum_a b_a X b_a over an orthonormal basis
{b_a}, because T(x x I) = Tr(x)/d2 times the block projector; the central
blocks are the joint eigenspaces of that image.  Each block is factored from
a minimal projection q0 by one SVD of the products f q0 (a deterministic
form of the block-diagonalization of Murota, Kanno, Kojima & Kojima, 2010).
The split is then certified: the block algebras have total dimension n and
every basis element is block diagonal and factored, so the span is the
algebra ⊕ W_k (M_d1 x I_d2) W_k†.  Each step raises UnsupportedStructureError
when its check fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import isqrt

import numpy as np

from . import linalg
from . import tolerances as tol
from .errors import ShapeError, UnsupportedStructureError, ValidationError
from .linalg import dagger, hermitize
from .qobjects import DensityOperator, KrausChannel


@dataclass(frozen=True)
class FixedSpace:
    """Hilbert-Schmidt-orthonormal Hermitian basis of {X : E(X) = X}."""

    basis: np.ndarray  # read-only (n, d, d) stack of Hermitian matrices

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class FixedBlock:
    """One tensor-product summand of the fixed-point decomposition."""

    d1: int
    d2: int
    isometry: np.ndarray  # d x (d1*d2), columns orthonormal, (factor1, factor2) slow/fast
    nu: DensityOperator | None = None  # fixed second-factor state

    @property
    def projector(self) -> np.ndarray:
        return self.isometry @ dagger(self.isometry)

    def embed(self, mu: np.ndarray, nu: np.ndarray | None = None) -> np.ndarray:
        """Lift mu x nu on the block factors to the full space.

        mu may be a matrix or an (n, d1, d1) stack, lifted as one batch.
        """
        if nu is None:
            if self.nu is None:
                raise ValidationError("block has no fixed second-factor state")
            nu = self.nu.matrix
        mu, nu = np.asarray(mu), np.asarray(nu)
        d1, d2 = self.d1, self.d2
        if mu.ndim not in (2, 3) or mu.shape[-2:] != (d1, d1) or nu.shape != (d2, d2):
            raise ShapeError(
                f"factor shapes {mu.shape} and {nu.shape} do not match "
                f"({d1}, {d1}) and ({d2}, {d2})"
            )
        return self.isometry @ linalg.tensor(mu, nu) @ dagger(self.isometry)


@lru_cache(maxsize=32)
def _triangle(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major flat indices of the diagonal, upper and lower triangle of a d x d matrix.

    Upper and lower are paired: entry i of each addresses (j, k) and (k, j), j < k.
    """
    j, k = np.triu_indices(d, 1)
    out = (np.arange(d) * (d + 1), j * d + k, k * d + j)
    for a in out:
        a.flags.writeable = False
    return out


def _coords(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, or of each matrix in a stack.

    The coordinates are (X_jj, sqrt2 Re X_jk, sqrt2 Im X_jk), j < k: the
    inner products with the HS-orthonormal basis {E_jj, (E_jk + E_kj)/sqrt2,
    i(E_jk - E_kj)/sqrt2}, so Re Tr(a b) is the dot product of the coordinates.
    """
    d = h.shape[-1]
    dg, up, _ = _triangle(d)
    flat = h.reshape(*h.shape[:-2], d * d)
    off = flat[..., up] * np.sqrt(2)
    return np.concatenate([flat[..., dg].real, off.real, off.imag], axis=-1)


def _from_coords(v: np.ndarray, d: int) -> np.ndarray:
    """The exactly Hermitian matrix, or stack, with the given real coordinates."""
    dg, up, lo = _triangle(d)
    m = up.size
    out = np.zeros((*v.shape[:-1], d * d), dtype=complex)
    out[..., dg] = v[..., :d]
    off = (v[..., d : d + m] + 1j * v[..., d + m :]) / np.sqrt(2)
    out[..., up] = off
    out[..., lo] = off.conj()
    return out.reshape(*v.shape[:-1], d, d)


def _real_superop(s: np.ndarray, d: int) -> np.ndarray:
    """Re(B† S B): a Hermiticity-preserving superoperator in real coordinates.

    B's columns are the vectorized basis of _coords, so B is unitary and
    B† S B is real when S maps Hermitian operators to Hermitian ones.  Built
    by gathering columns and rows of S, without forming B.
    """
    dg, up, lo = _triangle(d)
    c = np.sqrt(0.5)
    su, sl = s[:, up], s[:, lo]
    x = np.concatenate([s[:, dg], (su + sl) * c, (su - sl) * (1j * c)], axis=1)
    return np.concatenate([x[dg].real, (x[up] + x[lo]).real * c, (x[up] - x[lo]).imag * c])


def _orthonormal_hermitian(mats: np.ndarray) -> np.ndarray:
    """HS-orthonormal basis of the real span of a stack of Hermitian matrices, stacked."""
    if not len(mats):
        return mats
    _, s, vt = np.linalg.svd(_coords(mats), full_matrices=False)
    return _from_coords(vt[s > tol.SPAN_TOL * s[0]], mats.shape[-1])


def _common_dim(channels) -> int:
    """Dimension shared by square trace-preserving channels."""
    if not channels:
        raise ValidationError("at least one channel is needed")
    for ch in channels:
        if ch.din != ch.dout:
            raise ShapeError("fixed points need a square channel")
        if not ch.is_trace_preserving:
            raise ValidationError("fixed-point analysis requires a trace-preserving channel")
    d = channels[0].din
    if any(ch.din != d for ch in channels):
        raise ShapeError("channels act on different spaces")
    return d


def fixed_point_space(*channels: KrausChannel) -> FixedSpace:
    """Hermitian basis of the operators invariant under every given channel."""
    d = _common_dim(channels)
    right, _ = _fixed_kernels(*channels)
    basis = _from_coords(right, d)
    basis.flags.writeable = False
    return FixedSpace(basis)


def _fixed_kernels(*channels: KrausChannel) -> tuple[np.ndarray, np.ndarray]:
    """Common fixed space of square channels and, for one channel, its adjoint's.

    One thin real SVD of the stacked identity - S_real(E_i), S_real in the
    coordinates of _coords: its right kernel (rows of coordinates) is fixed
    by every S; for one channel its left kernel is fixed by S†, the adjoint
    map's superoperator, because S_real^T = Re(B† S† B).  B is unitary, so
    the singular values are those of the complex I - S and each kernel is an
    HS-orthonormal Hermitian basis.
    """
    d = channels[0].din
    eye = np.eye(d * d)
    stacked = np.vstack([eye - _real_superop(ch.superoperator(), d) for ch in channels])
    u, s, vt = np.linalg.svd(stacked, full_matrices=False)
    keep = s <= tol.NULL_TOL
    return vt[keep], u[:, keep].T


def _riesz_state(e: KrausChannel, right: np.ndarray, left: np.ndarray) -> DensityOperator:
    """Long-run state from I/d: the Riesz projection R (L^T R)^-1 L^T coords(I/d).

    This is the spectral projection onto the fixed space along the range of
    (identity - superoperator), the exact limit of averaged channel powers.
    """
    d = e.din
    if right.shape[0] == 0:
        raise UnsupportedStructureError("channel has no fixed state")
    start = left[:, :d].sum(axis=1) / d  # coords(I/d) is 1/d on the diagonal, 0 elsewhere
    mat = _from_coords(np.linalg.solve(left @ right.T, start) @ right, d)
    if np.max(np.abs(e(mat) - mat)) > tol.FIX_TOL:
        raise UnsupportedStructureError("averaged state failed the invariance check")
    return DensityOperator(mat / np.trace(mat).real)


def invariant_state(e: KrausChannel) -> DensityOperator:
    """Long-run invariant state reached from the maximally mixed input."""
    _common_dim((e,))
    return _riesz_state(e, *_fixed_kernels(e))


def _eigen_clusters(h: np.ndarray) -> tuple[list, np.ndarray]:
    """Eigenvalue clusters of h (ascending runs of indices) and its eigenvectors."""
    w, v = np.linalg.eigh(hermitize(h))
    cuts = np.flatnonzero(np.diff(w) > tol.CLUSTER_TOL * (1 + np.max(np.abs(w)))) + 1
    return np.split(np.arange(w.size), cuts), v


def _center_basis(basis: np.ndarray) -> np.ndarray:
    """Stacked Hermitian basis of the center of the algebra spanned by basis.

    The center is the image of T(X) = sum_a b_a X b_a: on a block
    M_d1 x I_d2, T(x x I) = Tr(x)/d2 times the block's projector.  T acts on
    row-major vectorized operators as sum_a kron(b_a, b_a^T), entry
    ((i, j), (k, l)) = sum_a b_a[i, k] b_a[l, j]: one GEMM of the vectorized
    b_a and b_a^T, entry ((i, k), (j, l)), then one transpose.
    """
    n, d, _ = basis.shape
    flat = basis.reshape(n, d * d)
    t = flat.T @ basis.transpose(0, 2, 1).reshape(n, d * d)
    t = t.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    image = (t @ flat.T).T.reshape(n, d, d)
    return _orthonormal_hermitian(image)


def _is_factored(basis: np.ndarray, w: np.ndarray, d1: int, d2: int) -> bool:
    """Whether every w† f w, f in the stacked basis, is (something) x identity_d2."""
    t = (dagger(w) @ basis @ w).reshape(-1, d1, d2, d1, d2)
    b1 = np.einsum("naibi->nab", t) / d2  # partial trace over the second factor
    b1_x_id = b1[:, :, None, :, None] * np.eye(d2)[:, None, :]
    return np.max(np.abs(t - b1_x_id)) <= tol.BLOCK_TOL


def _central_blocks(center: np.ndarray, d: int) -> list[np.ndarray]:
    """Orthonormal columns of each central block of the algebra.

    Refines the identity's columns by the eigenspaces of each center element
    in turn; the center basis is HS-orthonormal, so some element separates
    any two blocks by at least sqrt(2)/d.
    """
    parts = [np.eye(d)]
    for z in center:
        if len(parts) == len(center):
            break
        refined = []
        for cols in parts:
            if cols.shape[1] == 1:  # cannot split further
                refined.append(cols)
                continue
            groups, v = _eigen_clusters(dagger(cols) @ z @ cols)
            refined += [cols @ v[:, g] for g in groups]
        parts = refined
    if len(parts) != len(center):
        raise UnsupportedStructureError(
            f"{len(center)} central elements split the space into {len(parts)} parts"
        )
    return parts


def _minimal_projection(sub: np.ndarray, d2: int) -> np.ndarray:
    """Columns of a rank-d2 projection in the algebra spanned by the stack sub.

    Each step keeps the top eigenvalue cluster of the least scalar compressed
    element, a spectral projection of the algebra whose rank is a multiple of d2.
    """
    q = np.eye(sub.shape[-1])
    while (k := q.shape[1]) > d2:
        s = dagger(q) @ sub @ q
        traceless = s - np.trace(s, axis1=1, axis2=2)[:, None, None] / k * np.eye(k)
        groups, v = _eigen_clusters(s[np.argmax(np.linalg.norm(traceless, axis=(1, 2)))])
        top = groups[-1]
        if len(top) == k or len(top) % d2:
            raise UnsupportedStructureError(
                f"top eigenvalue cluster {len(top)} of {k} is not a smaller projection"
            )
        q = q @ v[:, top]
    return q


def _split_block(basis: np.ndarray, cols: np.ndarray) -> tuple[int, int, np.ndarray]:
    """Factor one central block (orthonormal columns) as (matrices) x (identity).

    Returns (d1, d2, W) with W mapping block coordinates (factor1 slow,
    factor2 fast) into the ambient space.  For a minimal projection q0 the
    products f q0 span d1 mutually orthogonal copies of range(q0); the top d1
    right singular vectors of the stacked f q0, scaled by sqrt(d2), are
    isometries onto those copies.
    """
    r = cols.shape[1]
    if r == 1:
        return 1, 1, cols
    sub = _orthonormal_hermitian(dagger(cols) @ basis @ cols)
    d1 = isqrt(len(sub))
    if d1 * d1 != len(sub) or r % d1 != 0:
        raise UnsupportedStructureError(
            f"block algebra dimension {len(sub)} is not a perfect square fitting {r}"
        )
    d2 = r // d1
    if d1 == 1:
        return 1, d2, cols
    stack = (sub @ _minimal_projection(sub, d2)).reshape(len(sub), -1)
    _, s, vt = np.linalg.svd(stack, full_matrices=False)
    if s.size > d1 and s[d1] > tol.CLUSTER_TOL * s[d1 - 1]:
        raise UnsupportedStructureError(f"no singular-value gap after {d1} block copies")
    w = cols @ (np.sqrt(d2) * vt[:d1].reshape(d1, r, d2).transpose(1, 0, 2).reshape(r, r))
    # the identity is in the span, so a factored W†W is the identity too
    if not _is_factored(basis, w, d1, d2):
        raise UnsupportedStructureError("failed to factor a central block of the algebra")
    return d1, d2, w


def _decompose_algebra(basis: np.ndarray, d: int) -> list[tuple[int, int, np.ndarray]]:
    """Split a unital *-algebra (stacked basis) into its (d1, d2, isometry) blocks.

    Certifies the result: the central parts partition the identity's
    columns, so W = [W_1 ... W_m] is unitary; _split_block has checked that
    every W_k† b W_k is factored; if further the block algebras have total
    dimension n and every W† b W is block diagonal, the span is the algebra
    ⊕ W_k (M_d1 x I_d2) W_k†.
    """
    center = _center_basis(basis)
    if not len(center):
        raise UnsupportedStructureError("algebra has an empty center")
    blocks = [_split_block(basis, cols) for cols in _central_blocks(center, d)]
    total = sum(d1 * d1 for d1, _, _ in blocks)
    if total != len(basis):
        raise UnsupportedStructureError(
            f"block algebras of total dimension {total} do not match the span's {len(basis)}"
        )
    w = np.hstack([b[2] for b in blocks])
    label = np.repeat(np.arange(len(blocks)), [b[2].shape[1] for b in blocks])
    cross = (dagger(w) @ basis @ w)[:, label[:, None] != label]
    if np.max(np.abs(cross), initial=0.0) > tol.BLOCK_TOL:
        raise UnsupportedStructureError("fixed space is not closed under multiplication")
    return sorted(blocks, key=lambda b: (-b[0], -b[1]))


def _compress(e: KrausChannel, v: np.ndarray) -> KrausChannel:
    """The channel restricted to the range of the isometry v: V† K V, trace
    nonincreasing by construction, as sum V† K† V V† K V <= V† (sum K† K) V."""
    rank = v.shape[1]
    return KrausChannel._from_stack(dagger(v) @ e.kraus @ v, rank, rank)


def _blocks(*channels: KrausChannel) -> tuple[list[FixedBlock], DensityOperator]:
    """Block decomposition of the operators fixed by every channel.

    Works on the uniform mixture Phi of the channels, whose Kraus set is the
    union of theirs.  Compresses to the support of Phi's long-run state,
    decomposes the fixed algebra of Phi's dual map there and re-embeds the
    blocks; also returns the long-run state on the full space.  The dual
    fixed space is the left kernel of the SVD that gave the state, taken
    again on the compressed mixture when the state is rank-deficient.

    That kernel is the common one.  Each channel maps the support of Phi's
    invariant state into itself, so each compressed channel is trace
    preserving there.  On the support Phi has a faithful invariant state,
    so Fix(Phi†) is the commutant of its Kraus set (Lindblad, Lett. Math.
    Phys. 47, 189, 1999), which lies in every Fix(E_i†); conversely an
    operator fixed by every E_i† is fixed by their average Phi†.  Hence
    Fix(Phi†) is the intersection of the Fix(E_i†).
    """
    d = _common_dim(channels)
    # a uniform mixture of trace-preserving channels is one
    mixed = KrausChannel._from_stack(
        np.concatenate([ch.kraus for ch in channels]) / np.sqrt(len(channels)), d, d
    )
    right, left = _fixed_kernels(mixed)
    state = _riesz_state(mixed, right, left)
    supp = state.support
    embed = None if supp.rank == d else supp.isometry
    if embed is not None:
        _, left = _fixed_kernels(_compress(mixed, embed))
    blocks = [
        FixedBlock(d1, d2, w if embed is None else embed @ w)
        for d1, d2, w in _decompose_algebra(_from_coords(left, supp.rank), supp.rank)
    ]
    return blocks, state


def block_components(block: FixedBlock, state: DensityOperator):
    """Weight and normalized factor states (weight, mu, nu) of one block component.

    Z = W† Y, W the block isometry and Y the state's factor, is a factor of
    the state compressed to the block; its squared norm is the weight.  Its
    rows split as (factor1 slow, factor2 fast), and folding either leg into
    the columns gives a factor of the partial trace over it: mu and nu are
    held as those factors, or are None when the weight counts as zero.
    """
    d1, d2 = block.d1, block.d2
    z = (dagger(block.isometry) @ state.factor()).reshape(d1, d2, -1)
    weight = float(np.vdot(z, z).real)
    if weight <= tol.BLOCK_WEIGHT_TOL:
        return weight, None, None
    z = z / np.sqrt(weight)
    mu = DensityOperator._from_factor(z.reshape(d1, -1))
    nu = DensityOperator._from_factor(z.transpose(1, 0, 2).reshape(d2, -1))
    return weight, mu, nu


def decompose_fixed_algebra(e: KrausChannel) -> list[FixedBlock]:
    """Tensor-product block decomposition of a channel's fixed points.

    Blocks are sorted by descending first-factor then second-factor
    dimension.  Each block carries the fixed second-factor state, read from
    the long-run state's factor; a state's weight on a block is
    block_components(block, state)[0].
    """
    blocks, state = _blocks(e)
    out = []
    for block in blocks:
        _, _, nu = block_components(block, state)
        if nu is None:
            raise UnsupportedStructureError("invariant state puts no weight on a block")
        out.append(replace(block, nu=nu))
    return out

