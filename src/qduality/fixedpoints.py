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
of I/d onto the first.  Compressed to that state's support, the left kernel
is the adjoint's fixed space of the compressed channel, which has a
faithful invariant state, and so is an algebra ⊕ M_d1 x I_d2 (Blume-Kohout,
Ng, Poulin & Viola, 2010); no second SVD is taken when the state is
faithful, and one orthonormalizes the compressed kernel when it is not.
The blocks are read from the algebra's minimal projections and the matrix
units between them (after Murota, Kanno, Kojima & Kojima, 2010): one eigh
of a fixed combination of the basis splits the space into minimal
projections, refined by the elements themselves only where two values tie;
one product Q† b Q of the basis with those projections shows which of them
share a block, and aligns the projections of a block into its isometry.
The split is then certified: coupled projections share one rank, every
basis element is (something) x identity on each block and couples no two
blocks, and the block algebras have total dimension n, so the span is the
algebra ⊕ W_k (M_d1 x I_d2) W_k†.  Each check raises
UnsupportedStructureError when it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from . import tolerances as tol
from .errors import NotPSDError, ShapeError, UnsupportedStructureError, ValidationError
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

    One thin real SVD of identity - S_real(E), S_real in the coordinates of
    _coords, or of those matrices stacked for two or more channels: its
    right kernel (rows of coordinates) is fixed by every S; for one channel
    its left kernel is fixed by S†, the adjoint map's superoperator, because
    S_real^T = Re(B† S† B).  B is unitary, so the singular values are those
    of the complex I - S and each kernel is an HS-orthonormal Hermitian
    basis.  Each identity - S_real is formed in place in S_real's array.
    """
    d = channels[0].din
    rows = []
    for ch in channels:
        a = _real_superop(ch.superoperator(), d)
        np.negative(a, out=a)
        a.flat[:: d * d + 1] += 1
        rows.append(a)
    stacked = rows[0] if len(rows) == 1 else np.vstack(rows)
    u, s, vt = np.linalg.svd(stacked, full_matrices=False)
    keep = s <= tol.NULL_TOL
    return vt[keep], u[:, keep].T


def fixed_deviation(e: KrausChannel, x: np.ndarray) -> np.ndarray:
    """max |E(X) - X| of a matrix, or of each matrix of a stack: how far X is from fixed."""
    return np.abs(e(x) - x).max((-2, -1))


def _riesz_state(e: KrausChannel, right: np.ndarray, left: np.ndarray) -> DensityOperator:
    """Long-run state from I/d: the Riesz projection R (L^T R)^-1 L^T coords(I/d).

    This is the spectral projection onto the fixed space along the range of
    (identity - superoperator), the exact limit of averaged channel powers.
    A kernel cut that splits a cluster of singular values of I - S (a
    rotating pair of eigenvalues e^{±i delta} at delta near NULL_TOL) can
    give a fixed matrix that is not PSD: the channel is valid, so that is
    unsupported structure, not invalid input.
    """
    d = e.din
    if right.shape[0] == 0:
        raise UnsupportedStructureError("channel has no fixed state")
    start = left[:, :d].sum(axis=1) / d  # coords(I/d) is 1/d on the diagonal, 0 elsewhere
    mat = _from_coords(np.linalg.solve(left @ right.T, start) @ right, d)
    if fixed_deviation(e, mat) > tol.FIX_TOL:
        raise UnsupportedStructureError("averaged state failed the invariance check")
    try:
        return DensityOperator(mat / np.trace(mat).real)
    except NotPSDError as err:
        raise UnsupportedStructureError(
            f"long-run state is not positive semidefinite ({err}): the fixed"
            " space is not resolved at the kernel cut"
        ) from err


def invariant_state(e: KrausChannel) -> DensityOperator:
    """Long-run invariant state reached from the maximally mixed input."""
    _common_dim((e,))
    return _riesz_state(e, *_fixed_kernels(e))


def _eigen_clusters(h: np.ndarray) -> tuple[list[slice], np.ndarray]:
    """Eigenvalue clusters of h (slices of ascending eigenvalues) and its eigenvectors."""
    w, v = np.linalg.eigh(hermitize(h))
    cuts = (np.flatnonzero(np.diff(w) > tol.CLUSTER_TOL * (1 + np.max(np.abs(w)))) + 1).tolist()
    return [slice(a, b) for a, b in zip([0, *cuts], [*cuts, w.size])], v


def _minimal_projections(basis: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Minimal projections of the algebra spanned by the HS-orthonormal stack
    basis, which together resolve the identity: the orthonormal columns of
    each, and the compressions Q† b Q of the basis to all of them side by
    side, Q = [q_1 ... q_m].

    On a block W (M_d1 x I_d2) W† the fixed combination sum_a b_a / (a + pi)
    is x x I_d2 for a generic x, so one eigh splits the space into minimal
    projections unless two values tie.  A projection p is minimal exactly
    when p A p is C p, which the diagonal blocks q_j† b q_j show.  A part on
    which some element compresses to a non-scalar is split by the
    eigenspaces of the least scalar one, again projections of the algebra,
    and the product is formed anew, until no such part is left.  A part of
    rank one is minimal.
    """
    groups, v = _eigen_clusters(np.tensordot(1 / (np.arange(len(basis)) + np.pi), basis, 1))
    parts = [v[:, g] for g in groups]
    while True:
        q = np.hstack(parts)
        f = dagger(q) @ basis @ q
        refined, start = [], 0
        for p in parts:
            k = p.shape[1]
            s = f[:, start : start + k, start : start + k]
            start += k
            if k > 1:
                off = np.abs(s - s[:, :1, :1] * np.eye(k)).max((1, 2))
                if off.max() > tol.BLOCK_TOL:
                    groups, v = _eigen_clusters(s[np.argmax(off)])
                    if len(groups) > 1:  # one cluster is kept, and fails the factoring check
                        refined += [p @ v[:, g] for g in groups]
                        continue
            refined.append(p)
        if len(refined) == len(parts):
            return parts, f
        parts = refined


def _decompose_algebra(basis: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """Split a unital *-algebra, spanned by the HS-orthonormal stack basis,
    into its (d1, d2, isometry) blocks.

    The product Q† b Q of _minimal_projections gives every compression
    q_i† b q_j.  Parts that some element couples form one block, of d1 parts
    of rank d2.  On a block q_j† b q_1 = x_j1 V_j† V_1 for the part frames
    V_j, so each q_j is aligned by that compression, scaled to sqrt(d2) in
    Frobenius norm and taken at the element where it is largest: the
    aligned parts side by side are W, (factor1 slow, factor2 fast).  A block
    of rank-one parts needs no alignment, as every frame factors M_d1 x I_1.

    Certifies the result: coupling is an equivalence, coupled parts share
    one rank, every W† b W on a block is (something) x I_d2 (for the
    identity in the span this makes W unitary), and the block algebras have
    total dimension n, so the span is the algebra ⊕ W_k (M_d1 x I_d2) W_k†.
    """
    parts, f = _minimal_projections(basis)
    n = len(basis)
    ranks = np.array([p.shape[1] for p in parts])
    starts = np.cumsum(ranks) - ranks
    mag = np.abs(f).max(0)
    coupled = np.maximum.reduceat(np.maximum.reduceat(mag, starts, 0), starts, 1) > tol.BLOCK_TOL
    label = coupled.argmax(1)
    if not np.array_equal(coupled, label[:, None] == label):
        raise UnsupportedStructureError(
            "fixed space is not closed under multiplication: an element couples two blocks"
        )
    blocks = []
    for first in np.flatnonzero(label == np.arange(label.size)):  # each block's first part
        members = np.flatnonzero(label == first)
        d1, d2 = members.size, int(ranks[first])
        if (ranks[members] != d2).any():
            raise UnsupportedStructureError(
                f"coupled parts of ranks {sorted(set(ranks[members].tolist()))} do not share one rank"
            )
        if d2 == 1:
            blocks.append((d1, 1, np.hstack([parts[j] for j in members])))
            continue
        cols = (starts[members][:, None] + np.arange(d2)).ravel()
        t = f[:, cols[:, None], cols]  # the block's compressions, (n, d1 d2, d1 d2)
        c = t.reshape(n, d1, d2, d1, d2)[:, :, :, 0]  # q_j† b q_1, (n, d1, d2, d2)
        norms = np.linalg.norm(c, axis=(2, 3))
        best = norms.argmax(0)
        m = c[best, np.arange(d1)] * (np.sqrt(d2) / norms[best, np.arange(d1)])[:, None, None]
        align = np.zeros((d1, d2, d1, d2), complex)
        align[np.arange(d1), :, np.arange(d1)] = m  # the block-diagonal alignment
        align = align.reshape(d1 * d2, d1 * d2)
        g = (dagger(align) @ t @ align).reshape(n, d1, d2, d1, d2)  # W_k† b W_k
        if np.abs(g - g[:, :, :1, :, :1] * np.eye(d2)[:, None]).max() > tol.BLOCK_TOL:
            raise UnsupportedStructureError(
                f"failed to factor a central block of {d1} parts of rank {d2} as (matrices) x identity"
            )
        blocks.append((d1, d2, np.hstack([parts[j] @ mj for j, mj in zip(members, m)])))
    total = sum(d1 * d1 for d1, _, _ in blocks)
    if total != n:
        raise UnsupportedStructureError(
            f"block algebras of total dimension {total} do not match the span's {n}"
        )
    return sorted(blocks, key=lambda b: (-b[0], -b[1]))


def _blocks(*channels: KrausChannel) -> tuple[list[FixedBlock], DensityOperator]:
    """Block decomposition of the operators fixed by every channel, and the
    long-run state of their uniform mixture Phi: one channel itself, or for
    two or more the union of their Kraus sets, scaled.

    One SVD of Phi's identity - S gives the state and Fix(Phi†).  If the
    state's support, the range of an isometry V (P = V V†), is not all of C^d,
    the blocks are those of V† Fix(Phi†) V, re-embedded by V: Fix(Phi_P†) for
    Phi_P with Kraus set V† K V.  K P = P K P makes V† X V fixed by Phi_P†;
    the Riesz projection R (the limit of averaged powers of Phi) maps into
    the support, so X = R†(P X P) and X -> P X P is one-to-one; and it is
    onto, as dim Fix(Phi_P†) = dim Fix(Phi_P) = dim Fix(Phi) = dim Fix(Phi†).

    That algebra is the common one.  Phi_P has a faithful invariant state, so
    Fix(Phi_P†) is the commutant of its Kraus set (Lindblad, Lett. Math. Phys.
    47, 189, 1999), in the fixed space of each channel's compressed adjoint;
    and an operator fixed by every E_i† is fixed by their average Phi†.
    """
    d = _common_dim(channels)
    phi = channels[0]
    if len(channels) > 1:
        # a uniform mixture of trace-preserving channels is one
        phi = KrausChannel._from_stack(
            np.concatenate([ch.kraus for ch in channels]) / np.sqrt(len(channels)), d, d
        )
    right, left = _fixed_kernels(phi)
    state = _riesz_state(phi, right, left)
    supp, basis = state.support, _from_coords(left, d)
    if supp.rank == d:
        return [FixedBlock(*b) for b in _decompose_algebra(basis)], state
    v = supp.isometry
    blocks = _decompose_algebra(_orthonormal_hermitian(dagger(v) @ basis @ v))
    return [FixedBlock(d1, d2, v @ w) for d1, d2, w in blocks], state


def _block_factor(block: FixedBlock, y: np.ndarray):
    """Weight on a block of the state of factor Y, and the normalized
    (d1, d2, -1) factor W† Y / sqrt(weight), W the block isometry, or None
    when the weight counts as zero."""
    z = (dagger(block.isometry) @ y).reshape(block.d1, block.d2, -1)
    weight = float(np.vdot(z, z).real)
    if weight <= tol.BLOCK_WEIGHT_TOL:
        return weight, None
    return weight, z / np.sqrt(weight)


def _nu(z: np.ndarray) -> DensityOperator:
    """The second-factor state of a normalized (d1, d2, -1) block factor z."""
    return DensityOperator._from_factor(z.transpose(1, 0, 2).reshape(z.shape[1], -1))


def block_components(block: FixedBlock, state: DensityOperator):
    """Weight and normalized factor states (weight, mu, nu) of one block component.

    Z = W† Y, W the block isometry and Y the state's factor, is a factor of
    the state compressed to the block; its squared norm is the weight.  Its
    rows split as (factor1 slow, factor2 fast), and folding either leg into
    the columns gives a factor of the partial trace over it: mu and nu are
    held as those factors, or are None when the weight counts as zero.
    """
    weight, z = _block_factor(block, state.factor())
    if z is None:
        return weight, None, None
    return weight, DensityOperator._from_factor(z.reshape(block.d1, -1)), _nu(z)


def decompose_fixed_algebra(e: KrausChannel) -> list[FixedBlock]:
    """Tensor-product block decomposition of a channel's fixed points.

    Blocks are sorted by descending first-factor then second-factor
    dimension.  Each block carries the fixed second-factor state nu, read
    from the long-run state's factor as block_components reads it; no mu is
    formed.  A state's weight on a block is block_components(block, state)[0].
    """
    blocks, state = _blocks(e)
    y = state.factor()
    out = []
    for block in blocks:
        _, z = _block_factor(block, y)
        if z is None:
            raise UnsupportedStructureError("invariant state puts no weight on a block")
        out.append(FixedBlock(block.d1, block.d2, block.isometry, _nu(z)))
    return out

