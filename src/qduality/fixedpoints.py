"""Fixed-point structure of channels and broadcasting obstructions.

A square trace-preserving channel's invariant operators decompose the space
into a direct sum of tensor-product blocks: on each block the invariant
states are (anything on the first factor) x (one fixed state on the second).
This module computes that decomposition numerically and uses it to build the
witnesses behind the no-broadcasting, ensemble-broadcasting and
ensemble-cloning arguments, plus the universal-broadcasting equivalence.

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
from .duality import (
    IsoPair,
    channel_distance_on_support,
    factor_distance,
    iso_forward,
    iso_reverse,
)
from .errors import (
    PreconditionError,
    ShapeError,
    UnsupportedStructureError,
    ValidationError,
)
from .linalg import dagger, hermitize
from .qobjects import (
    DensityOperator,
    Ensemble,
    KrausChannel,
    max_entangled,
    unitary_channel,
)


@dataclass(frozen=True)
class FixedSpace:
    """Hilbert-Schmidt-orthonormal Hermitian basis of {X : E(X) = X}."""

    basis: tuple  # of Hermitian ndarrays

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
    weight: float | None = None

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
        return self.isometry @ _tensor(mu, nu) @ dagger(self.isometry)


@dataclass(frozen=True)
class BroadcastWitness:
    """Nonorthogonal pure states forced to be cloned by a broadcaster."""

    block_index: int
    block: FixedBlock
    clonable_states: tuple  # two vectors in the d1-dim block factor
    overlap: float


def _tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products of np.kron(a, b) (a's indices slow), without its overhead;
    for a stack a, those of each matrix in it."""
    (m, n), (p, q) = a.shape[-2:], b.shape
    return (a[..., :, None, :, None] * b[:, None, :]).reshape(*a.shape[:-2], m * p, n * q)


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
    return FixedSpace(tuple(_from_coords(right, d)))


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


def decompose_fixed_algebra(
    e: KrausChannel, reference: DensityOperator | None = None
) -> list[FixedBlock]:
    """Tensor-product block decomposition of a channel's fixed points.

    Blocks are sorted by descending first-factor then second-factor
    dimension.  Each block carries the fixed second-factor state, read from
    the long-run state's factor; weights are filled in only when a reference
    invariant state is supplied.
    """
    blocks, state = _blocks(e)
    out = []
    for block in blocks:
        _, _, nu = block_components(block, state)
        if nu is None:
            raise UnsupportedStructureError("invariant state puts no weight on a block")
        weight = None if reference is None else block_components(block, reference)[0]
        out.append(replace(block, nu=nu, weight=weight))
    return out


def _check_fixed_by(e: KrausChannel, state: np.ndarray, what: str) -> None:
    if np.max(np.abs(e(state) - state)) > tol.FIX_TOL:
        raise PreconditionError(f"{what} is not fixed by the channel within {tol.FIX_TOL:g}")


def _commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a @ b - b @ a)))


def broadcast_obstruction(
    sigma1: DensityOperator,
    sigma2: DensityOperator,
    e1: KrausChannel,
    e2: KrausChannel,
) -> BroadcastWitness:
    """Clonable nonorthogonal pure states forced by broadcasting two states.

    Both channels must fix both (noncommuting) states; the witness lives in
    the first factor of a common fixed block where the two decomposition
    components fail to commute.
    """
    return _obstruction(sigma1, sigma2, e1, e2)[0]


def _obstruction(sigma1, sigma2, e1, e2):
    """The witness, with the blocks and long-run state of _blocks it was read from."""
    for ch in (e1, e2):
        _check_fixed_by(ch, sigma1.matrix, "sigma1")
        _check_fixed_by(ch, sigma2.matrix, "sigma2")
    if _commutator_norm(sigma1.matrix, sigma2.matrix) <= tol.COMMUTE_TOL:
        raise PreconditionError("input states commute; no obstruction arises")
    blocks, state = _blocks(e1, e2)
    for idx, block in enumerate(blocks):
        # components on a block with d1 = 1 are 1 x 1 and commute
        _, mu1, nu1 = block_components(block, sigma1)
        _, mu2, nu2 = block_components(block, sigma2)
        if mu1 is None or mu2 is None:
            continue
        if _commutator_norm(mu1.matrix, mu2.matrix) <= tol.COMMUTE_TOL:
            continue
        states = _nonorthogonal_pair(mu1.matrix, mu2.matrix)
        if states is None:
            continue
        # (nu1 + nu2) / 2 as its factor [Z1 Z2] / sqrt2
        nu = DensityOperator._from_factor(np.hstack([nu1.factor(), nu2.factor()]) / np.sqrt(2))
        overlap = float(abs(np.vdot(*states)))
        return BroadcastWitness(idx, replace(block, nu=nu), states, overlap), blocks, state
    raise PreconditionError("no common fixed block with noncommuting components was found")


def _nonorthogonal_pair(mu1: np.ndarray, mu2: np.ndarray):
    """Eigenvector pair of the two components with overlap strictly in (0,1).

    The pair maximizes o (1 - o) over the overlaps o = |V1† V2| of the two
    eigenbases; of those within SCORE_TIE_TOL of the largest score the first
    in row-major order, so rounding does not choose among exact ties.
    """
    v1 = linalg.support(mu1).eigenvectors
    v2 = linalg.support(mu2).eigenvectors
    o = np.abs(dagger(v1) @ v2)
    score = o * (1 - o)
    best = score.max()
    if best < tol.OVERLAP_TOL:
        return None
    a, b = np.unravel_index(np.argmax(score >= best * (1 - tol.SCORE_TIE_TOL)), score.shape)
    return v1[:, a], v2[:, b]


def _block_basis(rho: DensityOperator, blocks: list[FixedBlock], state: DensityOperator):
    """Block eigenbasis: an eigenbasis of a state fixed by the channels that
    respects their blocks.

    On block k every such state is W_k (mu x nu_k) W_k† (Lindblad, Lett.
    Math. Phys. 47, 189, 1999), so W_k (V_mu x V_nu), V the eigenvectors of
    rho's block components, diagonalizes rho there whatever the degeneracy
    of its spectrum; W_k serves where rho has no weight.  The blocks span
    the support of the long-run state, off which rho vanishes: the rest of
    that state's eigenvectors complete the unitary.
    """
    cols = []
    for block in blocks:
        _, mu, nu = block_components(block, rho)
        if mu is None:
            cols.append(block.isometry)
        else:
            vecs = [linalg.support(f.matrix).eigenvectors for f in (mu, nu)]
            cols.append(block.isometry @ _tensor(*vecs))
    supp = state.support
    cols.append(supp.eigenvectors[:, supp.rank :])
    return np.hstack(cols)


def _check(name: str, value: float, tolerance: float, larger_ok: bool = False) -> dict:
    """One report check: value against tolerance, as an upper bound or, with
    `larger_ok`, a lower one.

    `margin` is tolerance / value (value / tolerance for a lower bound): for
    positive values it exceeds 1 exactly when the check passes, and it ranks
    checks by how close they came.  It is None when the divisor is 0, so a
    report stays strict JSON.
    """
    value, tolerance = float(value), float(tolerance)
    ok = value >= tolerance if larger_ok else value <= tolerance
    num, den = (value, tolerance) if larger_ok else (tolerance, value)
    return {
        "name": name,
        "value": value,
        "tolerance": tolerance,
        "pass": bool(ok),
        "margin": num / den if den else None,
    }


def _pure_entangled_factor(x: np.ndarray, block: FixedBlock, label: str, checks: list) -> dict:
    """Purity, Schmidt rank and captured weight of the first-factor state, by name.

    Appends the checks that the state is pure and entangled to `checks`.

    x is a factor of a state on two copies of the ambient space (first copy
    slow).  (W x W)† x, with W the block isometry, is two contractions of x
    reshaped to (d, d, k); it is the factor of the state compressed to the
    block on both copies, and its squared norm the captured weight.
    Folding the two second-factor legs into its columns gives a factor Z of
    the normalized first-factor state zeta = Z Z†, whose one thin SVD gives
    the purity (sum of s^4) and the top vector, so no d^2 x d^2 matrix is
    formed.
    """
    wc = block.isometry.conj()
    d = wc.shape[0]
    # (W† x I), then (I x W†)
    y = np.einsum("sp,stk->ptk", wc, x.reshape(d, d, -1))
    y = np.einsum("tq,ptk->pqk", wc, y)
    captured = float(np.vdot(y, y).real)
    d1, d2 = block.d1, block.d2
    # keep the two first-factor legs as rows, fold the second-factor legs into columns
    z = y.reshape(d1, d2, d1, d2, -1).transpose(0, 2, 1, 3, 4).reshape(d1 * d1, -1)
    u, sv, _ = np.linalg.svd(z / np.sqrt(captured), full_matrices=False)
    purity = float(np.sum(sv**4))
    rank = linalg.schmidt_rank(u[:, 0], (d1, d1))
    checks += [
        _check(f"{label}.factor_purity", purity, 1 - tol.DUAL_PURE_TOL, larger_ok=True),
        _check(f"{label}.schmidt_rank", rank, 2, larger_ok=True),
    ]
    return {"factor_purity": purity, "schmidt_rank": rank, "captured_weight": captured}


def monogamy_demo(
    p: float,
    sigma1: DensityOperator,
    sigma2: DensityOperator,
    e1: KrausChannel,
    e2: KrausChannel,
) -> dict:
    """Post-selected pure entangled factors from an ensemble broadcaster.

    Mixes the two states, builds each channel's dual state in the mixture's
    block eigenbasis, measures the block projector on the first system, and
    checks that the surviving first-factor state is pure and entangled.
    """
    if not 0 < p < 1:
        raise PreconditionError("mixing weight must lie strictly between 0 and 1")
    witness, blocks, state = _obstruction(sigma1, sigma2, e1, e2)
    block = witness.block
    rho = DensityOperator(hermitize(p * sigma1.matrix + (1 - p) * sigma2.matrix))
    basis = _block_basis(rho, blocks, state)
    proj = block.projector
    d = rho.dim
    checks = []
    results = {}
    for label, ch in (("channel1", e1), ("channel2", e2)):
        x = iso_forward(IsoPair(rho, ch), basis).state.factor()
        # (P x I) X: the projector applied to tau's factor folded to d x (d k)
        post = (proj @ x.reshape(d, -1)).reshape(x.shape)
        prob = float(np.vdot(post, post).real)
        checks.append(_check(f"{label}.block_probability", prob, tol.ZERO_PROB, larger_ok=True))
        factor = _pure_entangled_factor(post / np.sqrt(prob), block, label, checks)
        results[label] = {"block_probability": prob, **factor}
    return {
        "block_index": witness.block_index,
        "witness_overlap": witness.overlap,
        "checks": checks,
        "results": results,
    }


def cloning_demo(ensemble: Ensemble, e1: KrausChannel, e2: KrausChannel) -> dict:
    """Pure entangled dual states forced by cloning a pure-state ensemble.

    No measurement is needed: all ensemble states share one fixed block, so
    the dual state's block factor, in the average's block eigenbasis, is
    already pure and entangled.
    """
    for _, state in ensemble.members:
        if state.purity() < 1 - tol.PURE_TOL:
            raise PreconditionError("ensemble members must be pure states")
    vecs = np.stack([s.support.eigenvectors[:, 0] for _, s in ensemble.members], axis=1)
    # pairwise overlaps: the strict upper triangle of the Gram matrix
    o = np.abs(dagger(vecs) @ vecs)[np.triu_indices(len(ensemble.members), 1)]
    if np.any((o <= tol.OVERLAP_TOL) | (o >= 1 - tol.OVERLAP_TOL)):
        raise PreconditionError(
            "ensemble members must be pairwise nonorthogonal and nonidentical"
        )
    for ch in (e1, e2):
        for _, state in ensemble.members:
            _check_fixed_by(ch, state.matrix, "ensemble member")
    blocks, long_run = _blocks(e1, e2)
    weights = [[block_components(b, s)[0] for _, s in ensemble.members] for b in blocks]
    shared = next((i for i, w in enumerate(weights) if min(w) > 1 - tol.CAPTURED_TOL), None)
    if shared is None:
        raise PreconditionError("ensemble members do not share a single fixed block")
    block = blocks[shared]
    rho = DensityOperator(hermitize(ensemble.average()))
    basis = _block_basis(rho, blocks, long_run)
    checks = []
    results = {}
    for label, ch in (("channel1", e1), ("channel2", e2)):
        x = iso_forward(IsoPair(rho, ch), basis).state.factor()
        results[label] = _pure_entangled_factor(x, block, label, checks)
        captured = results[label]["captured_weight"]
        checks.append(
            _check(f"{label}.captured_weight", captured, 1 - tol.CAPTURED_TOL, larger_ok=True)
        )
    return {"block_index": shared, "checks": checks, "results": results}


def universal_from_channels(e1: KrausChannel, e2: KrausChannel) -> dict:
    """Identity reduced channels give maximally entangled dual states.

    The hypothesis is read from each channel's Choi state; the dual state
    is read through the conditional map at I/d, as its factor, and compared
    with |Phi+> by factor_distance.
    """
    d = _common_dim((e1, e2))
    phi = max_entangled(d)
    target = np.outer(phi, np.conj(phi))
    mixed = DensityOperator._from_factor(np.eye(d) / np.sqrt(d))
    checks = []
    for label, ch in (("channel1", e1), ("channel2", e2)):
        dev_id = float(np.max(np.abs(ch.choi() - target)))
        if dev_id > tol.MAX_ENTANGLED_TOL:
            raise PreconditionError(f"{label} is not the identity channel")
        x = iso_forward(IsoPair(mixed, ch)).state.factor()
        dev = factor_distance(x, phi[:, None])
        checks.append(_check(f"{label}.dual_state_deviation", dev, tol.MAX_ENTANGLED_TOL))
    return {"verdict": all(c["pass"] for c in checks), "checks": checks}


def universal_from_states(tau1, tau2) -> dict:
    """Pure maximally entangled reduced states give identity channels.

    Non-qualifying inputs produce a negative verdict rather than an error.
    Everything is read from tau's factor X, so tau's (dA dB)^2 matrix is
    never formed or decomposed: the purity is ||X†X||_F^2, the A-marginal
    is X~ X~† with X folded to dA x (dB k), and the top vector of tau is
    X's first left singular vector, phases fixed as linalg.support fixes them.
    """
    checks = []
    corrections = []
    for label, tau in (("state1", tau1), ("state2", tau2)):
        da, db = tau.dims
        x = tau.state.factor()
        purity = float(np.linalg.norm(dagger(x) @ x) ** 2)
        checks.append(_check(f"{label}.purity", purity, 1 - tol.DUAL_PURE_TOL, larger_ok=True))
        folded = x.reshape(da, -1)
        marg = folded @ dagger(folded)
        mix_dev = float(np.max(np.abs(marg - np.eye(da) / da)))
        checks.append(_check(f"{label}.maximally_mixed_marginal", mix_dev, tol.MIXED_MARGINAL_TOL))
        if not (checks[-2]["pass"] and checks[-1]["pass"] and da == db):
            corrections.append(None)
            continue
        top = linalg._fix_phases(np.linalg.svd(x, full_matrices=False)[0][:, :1])[:, 0]
        # the polar factor of sqrt(dA) times the top vector: a marginal within
        # MIXED_MARGINAL_TOL of I/dA leaves that matrix about as far from
        # unitary, more than unitary_channel's TP_TOL check allows
        w, _, vh = np.linalg.svd(np.sqrt(da) * top.reshape(da, db).T)
        u = w @ vh
        # Frobenius Choi distance of E to u's channel, that of u† o E to the
        # identity by unitary invariance
        dev = channel_distance_on_support(
            iso_reverse(tau).channel, unitary_channel(u), np.eye(da)
        )
        checks.append(_check(f"{label}.corrected_channel_identity", dev, tol.UNITARY_CHANNEL_TOL))
        corrections.append(u)
    square = all(t.dims[0] == t.dims[1] for t in (tau1, tau2))
    verdict = square and all(c["pass"] for c in checks)
    return {"verdict": verdict, "checks": checks, "corrections": corrections}

