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
from functools import cached_property, lru_cache
from itertools import accumulate

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
    """One tensor-product summand W (M_d1 x nu) W† of the fixed-point
    decomposition: its isometry W and its fixed second-factor state nu."""

    d1: int
    d2: int
    isometry: np.ndarray  # d x (d1*d2), columns orthonormal, (factor1, factor2) slow/fast
    nu: DensityOperator  # fixed second-factor state

    @cached_property
    def _adjoint(self) -> np.ndarray:
        """W†, read-only, formed once per block when first read."""
        w = dagger(self.isometry)
        w.flags.writeable = False
        return w

    @property
    def projector(self) -> np.ndarray:
        return self.isometry @ self._adjoint

    def embed(self, mu: np.ndarray) -> np.ndarray:
        """Lift mu x nu, nu the block's own, from the block factors to the full space.

        mu may be a matrix or an (n, d1, d1) stack, lifted as one batch.
        """
        mu, nu = np.asarray(mu), self.nu.matrix
        d1, d2 = self.d1, self.d2
        if mu.ndim not in (2, 3) or mu.shape[-2:] != (d1, d1) or nu.shape != (d2, d2):
            raise ShapeError(
                f"factor shapes {mu.shape} and {nu.shape} do not match "
                f"({d1}, {d1}) and ({d2}, {d2})"
            )
        return self.isometry @ linalg.tensor(mu, nu) @ self._adjoint


@lru_cache(maxsize=32)
def _layout(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the coordinate order of _coords on d x d matrices.

    The first lists the row-major flat entries in that order: the diagonal,
    then the upper and the lower triangle, paired so that entry i of each
    addresses (j, k) and (k, j), j < k.  The second gives, for the real and
    then the imaginary part of each flat entry, its place in [0, diagonal
    coordinates, off-diagonal ones over sqrt2, their imaginary halves
    negated], which _from_coords gathers from: the lower triangle is the
    conjugate of the upper one, and the diagonal is real.
    """
    j, k = np.triu_indices(d, 1)
    dg, up, lo = np.arange(d) * (d + 1), j * d + k, k * d + j
    m = up.size
    order = np.concatenate([dg, up, lo])
    place = np.zeros((d * d, 2), dtype=np.intp)
    place[dg, 0] = 1 + np.arange(d)
    place[up, 0] = place[lo, 0] = 1 + d + np.arange(m)
    place[up, 1] = 1 + d + m + np.arange(m)
    place[lo, 1] = 1 + d + 2 * m + np.arange(m)
    out = (order, place.reshape(-1))
    for a in out:
        a.flags.writeable = False
    return out


def _coords(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, or of each matrix in a stack.

    The coordinates are (X_jj, sqrt2 Re X_jk, sqrt2 Im X_jk), j < k: the
    inner products with the HS-orthonormal basis {E_jj, (E_jk + E_kj)/sqrt2,
    i(E_jk - E_kj)/sqrt2}, so Re Tr(a b) is the dot product of the coordinates.
    The diagonal and the upper triangle are read in one gather (_layout).
    """
    d = h.shape[-1]
    t = h.reshape(*h.shape[:-2], d * d)[..., _layout(d)[0][: (d * d + d) // 2]]
    off = t[..., d:] * np.sqrt(2)
    return np.concatenate([t[..., :d].real, off.real, off.imag], axis=-1)


def _from_coords(v: np.ndarray, d: int) -> np.ndarray:
    """The exactly Hermitian matrix, or stack, with the given real coordinates.

    One gather of the real and imaginary parts of every entry (_layout).
    The off-diagonal coordinates are scaled by 1/sqrt2, as numpy's complex
    division by sqrt2 scales them.
    """
    lead, m = v.shape[:-1], (d * d - d) // 2
    off = v[..., d:] * (1 / np.sqrt(2))
    src = np.concatenate([np.zeros((*lead, 1)), v[..., :d], off, -off[..., m:]], -1)
    return src.take(_layout(d)[1], -1).view(complex).reshape(*lead, d, d)


def _real_superop(s: np.ndarray, d: int) -> np.ndarray:
    """Re(B† S B): a Hermiticity-preserving superoperator in real coordinates.

    B's columns are the vectorized basis of _coords, so B is unitary and
    B† S B is real when S maps Hermitian operators to Hermitian ones.  Built
    from one gather of S's rows and columns in the order of _coords (_layout),
    without forming B.
    """
    order = _layout(d)[0]
    m = (d * d - d) // 2
    c = np.sqrt(0.5)
    t = s.take(order, 0).take(order, 1)
    tu, tl = t[:, d : d + m], t[:, d + m :]
    t[:, d : d + m], t[:, d + m :] = (tu + tl) * c, (tu - tl) * (1j * c)
    xu, xl = t[d : d + m], t[d + m :]
    out = np.empty((d * d, d * d))
    out[:d], out[d : d + m], out[d + m :] = t[:d].real, (xu + xl).real * c, (xu - xl).imag * c
    return out


def _orthonormal_hermitian(mats: np.ndarray) -> np.ndarray:
    """HS-orthonormal basis of the real span of a stack of Hermitian matrices, stacked."""
    if not len(mats):
        return mats
    _, s, vt = np.linalg.svd(_coords(mats), full_matrices=False)
    return _from_coords(vt[s > tol.SINGULAR_TOL * s[0]], mats.shape[-1])


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
        a.reshape(-1)[:: d * d + 1] += 1
        rows.append(a)
    stacked = rows[0] if len(rows) == 1 else np.vstack(rows)
    u, s, vt = np.linalg.svd(stacked, full_matrices=False)
    keep = s <= tol.NULL_TOL
    return vt[keep], u[:, keep].T


def fixed_deviation(e: KrausChannel, x: np.ndarray) -> np.ndarray:
    """max |E(X) - X| of a matrix, or of each matrix of a stack: how far X is from fixed."""
    return np.abs(e(x) - x).max((-2, -1))


def _riesz_state(
    e: KrausChannel, right: np.ndarray, left: np.ndarray
) -> tuple[DensityOperator, np.ndarray]:
    """Long-run state from I/d: the Riesz projection R (L^T R)^-1 L^T coords(I/d),
    and the left kernel L as a stack of matrices, read from coordinates
    together with the state's matrix.

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
    coords = np.linalg.solve(left @ right.T, start) @ right
    mats = _from_coords(np.vstack([coords, left]), d)
    mat, basis = mats[0], mats[1:]
    if np.abs(e._act(mat) - mat).max() > tol.FIX_TOL:
        raise UnsupportedStructureError("averaged state failed the invariance check")
    try:
        return DensityOperator(mat / np.trace(mat).real), basis
    except NotPSDError as err:
        raise UnsupportedStructureError(
            f"long-run state is not positive semidefinite ({err}): the fixed"
            " space is not resolved at the kernel cut"
        ) from err


def invariant_state(e: KrausChannel) -> DensityOperator:
    """Long-run invariant state reached from the maximally mixed input."""
    _common_dim((e,))
    return _riesz_state(e, *_fixed_kernels(e))[0]


def _eigen_clusters(h: np.ndarray) -> tuple[list[slice], np.ndarray]:
    """Eigenvalue clusters of h (slices of ascending eigenvalues) and its eigenvectors."""
    w, v = np.linalg.eigh(hermitize(h))
    scale = 1 + max(-w[0], w[-1])  # the largest |eigenvalue|, w being ascending
    cuts = (np.flatnonzero(np.diff(w) > tol.CLUSTER_TOL * scale) + 1).tolist()
    return [slice(a, b) for a, b in zip([0, *cuts], [*cuts, w.size])], v


def _compress(q: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """q† b q for each b of an (n, d, d) stack, from two products of the whole stack.

    The first is b q for every b at once; the second gives each (q† b q)^T
    as (b q)^T conj(q), so the result is a view of those transposes.
    """
    n, d, _ = stack.shape
    k = q.shape[1]
    x = (stack.reshape(n * d, d) @ q).reshape(n, d, k)
    return (x.swapaxes(1, 2).reshape(n * k, d) @ q.conj()).reshape(n, k, k).swapaxes(1, 2)


def _minimal_projections(basis: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Minimal projections of the algebra spanned by the HS-orthonormal stack
    basis, which together resolve the identity: the orthonormal columns of
    each, those columns side by side, Q = [q_1 ... q_m], and the
    compressions Q† b Q of the basis to all of them.

    On a block W (M_d1 x I_d2) W† the fixed combination sum_a b_a / (a + pi)
    is x x I_d2 for a generic x, so one eigh splits the space into minimal
    projections unless two values tie.  A projection p is minimal exactly
    when p A p is C p, which the diagonal blocks q_j† b q_j show.  A part on
    which some element compresses to a non-scalar is split by the
    eigenspaces of the least scalar one, again projections of the algebra,
    and the product is formed anew, until no such part is left.  A part of
    rank one is minimal.
    """
    n, d = len(basis), basis.shape[-1]
    combination = (1 / (np.arange(n) + np.pi)) @ basis.reshape(n, d * d)
    groups, q = _eigen_clusters(combination.reshape(d, d))
    parts = [q[:, g] for g in groups]  # side by side, they are q itself
    while True:
        f = _compress(q, basis)
        ranks = [p.shape[1] for p in parts]
        starts = list(accumulate(ranks[:-1], initial=0))
        # off[j][a] = max |q_j† b_a q_j - (its (0, 0) entry) I| of a part j of
        # rank k > 1, from one gather of the diagonal blocks of each rank
        off = {}
        for k in set(ranks) - {1}:
            js = [j for j, r in enumerate(ranks) if r == k]
            idx = np.array([range(starts[j], starts[j] + k) for j in js])
            s = f[:, idx[:, :, None], idx[:, None, :]]  # (n, parts, k, k)
            off.update(zip(js, np.abs(s - s[..., :1, :1] * np.eye(k)).max((2, 3)).T))
        refined = []
        for j, p in enumerate(parts):
            if j in off and off[j].max() > tol.BLOCK_TOL:
                lo, hi = starts[j], starts[j] + ranks[j]
                groups, v = _eigen_clusters(f[np.argmax(off[j]), lo:hi, lo:hi])
                if len(groups) > 1:  # one cluster is kept, and fails the factoring check
                    refined += [p @ v[:, g] for g in groups]
                    continue
            refined.append(p)
        if len(refined) == len(parts):
            return parts, q, f
        parts = refined
        q = np.hstack(parts)


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
    parts, q, f = _minimal_projections(basis)
    n = len(basis)
    ranks = [p.shape[1] for p in parts]
    starts = list(accumulate(ranks[:-1], initial=0))
    mag = np.abs(f).max(0)
    coupled = np.maximum.reduceat(np.maximum.reduceat(mag, starts, 0), starts, 1) > tol.BLOCK_TOL
    label = coupled.argmax(1)
    if not (coupled == (label[:, None] == label)).all():
        raise UnsupportedStructureError(
            "fixed space is not closed under multiplication: an element couples two blocks"
        )
    members_of = {}  # each block's parts, keyed and ordered by its first part
    for j, first in enumerate(label.tolist()):
        members_of.setdefault(first, []).append(j)
    blocks = []
    for first, members in members_of.items():
        d1, d2 = len(members), ranks[first]
        if any(ranks[j] != d2 for j in members):
            raise UnsupportedStructureError(
                f"coupled parts of ranks {sorted({ranks[j] for j in members})} do not share one rank"
            )
        cols = [starts[j] + i for j in members for i in range(d2)]
        if d2 == 1:
            blocks.append((d1, 1, q[:, cols]))
            continue
        t = f[:, cols][:, :, cols]  # the block's compressions, (n, d1 d2, d1 d2)
        c = t.reshape(n, d1, d2, d1, d2)[:, :, :, 0]  # q_j† b q_1, (n, d1, d2, d2)
        norms = np.sqrt(np.add.reduce((c.conj() * c).real, axis=(2, 3)))  # np.linalg.norm's
        best = norms.argmax(0)
        m = c[best, np.arange(d1)] * (np.sqrt(d2) / norms[best, np.arange(d1)])[:, None, None]
        align = np.zeros((d1, d2, d1, d2), complex)
        align[np.arange(d1), :, np.arange(d1)] = m  # the block-diagonal alignment
        align = align.reshape(d1 * d2, d1 * d2)
        # (W_k† b W_k)^T, contiguous, minus (its first-factor part) x I: zero
        # exactly when W_k† b W_k is (something) x I
        g = _compress(align, t).swapaxes(1, 2).reshape(n, d1, d2, d1, d2)
        for k in range(1, d2):
            g[:, :, k, :, k] -= g[:, :, 0, :, 0]
        g[:, :, 0, :, 0] = 0
        if np.abs(g).max() > tol.BLOCK_TOL:
            raise UnsupportedStructureError(
                f"failed to factor a central block of {d1} parts of rank {d2} as (matrices) x identity"
            )
        blocks.append((d1, d2, q[:, cols] @ align))
    total = sum(d1 * d1 for d1, _, _ in blocks)
    if total != n:
        raise UnsupportedStructureError(
            f"block algebras of total dimension {total} do not match the span's {n}"
        )
    return sorted(blocks, key=lambda b: (-b[0], -b[1]))


def _blocks(*channels: KrausChannel) -> tuple[list[FixedBlock], DensityOperator]:
    """Block decomposition of the operators fixed by every channel, and the
    long-run state of their uniform mixture Phi: one channel itself, or for
    two or more the union of their Kraus sets, scaled.  Each block is built
    once, with the nu that block_components reads from the long-run state.

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
    and an operator fixed by every E_i† is fixed by their average Phi†.  That
    state is faithful on the support, so it weighs on every block; a block it
    does not weigh on is unsupported structure.
    """
    d = _common_dim(channels)
    phi = channels[0]
    if len(channels) > 1:
        # a uniform mixture of trace-preserving channels is one
        phi = KrausChannel._from_stack(
            np.concatenate([ch.kraus for ch in channels]) / np.sqrt(len(channels)), d, d
        )
    state, basis = _riesz_state(phi, *_fixed_kernels(phi))
    supp = state.support
    if supp.rank == d:
        blocks = _decompose_algebra(basis)
    else:
        v = supp.isometry
        blocks = _decompose_algebra(_orthonormal_hermitian(dagger(v) @ basis @ v))
        blocks = [(d1, d2, v @ w) for d1, d2, w in blocks]
    out = []
    for (d1, d2, w), (_, z) in zip(blocks, _block_factors(blocks, state.factor())):
        if z is None:
            raise UnsupportedStructureError("invariant state puts no weight on a block")
        out.append(FixedBlock(d1, d2, w, _nu(z)))
    return out, state


def _block_factors(blocks: list[tuple], y: np.ndarray) -> list[tuple]:
    """Weight on each (d1, d2, W) block of the state of factor Y, and the
    normalized (d1, d2, -1) factor W† Y / sqrt(weight), or None when the
    weight counts as zero.

    One product reads every block: the rows of the blocks' W† stacked, each
    times Y as its own (1, d) x (d, m) product, so a block's factor has the
    same bits whichever blocks are read with it.
    """
    rows = np.concatenate([dagger(w) for _, _, w in blocks])
    z = (rows[:, None, :] @ y)[:, 0]
    out, start = [], 0
    for d1, d2, _ in blocks:
        zb = z[start : start + d1 * d2].reshape(d1, d2, -1)
        start += d1 * d2
        weight = float(np.vdot(zb, zb).real)
        out.append((weight, None if weight <= tol.BLOCK_WEIGHT_TOL else zb / np.sqrt(weight)))
    return out


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
    [(weight, z)] = _block_factors([(block.d1, block.d2, block.isometry)], state.factor())
    if z is None:
        return weight, None, None
    return weight, DensityOperator._from_factor(z.reshape(block.d1, -1)), _nu(z)


def decompose_fixed_algebra(e: KrausChannel) -> list[FixedBlock]:
    """Tensor-product block decomposition of a channel's fixed points.

    Blocks are sorted by descending first-factor then second-factor
    dimension.  Each is built once by _blocks, with the fixed second-factor
    state nu read from the long-run state's factor as block_components reads
    it; no mu is formed.  A state's weight on a block is
    block_components(block, state)[0].
    """
    return _blocks(e)[0]
