"""Fixed-point structure of channels and broadcasting obstructions.

A square trace-preserving channel's invariant operators decompose the space
into a direct sum of tensor-product blocks: on each block the invariant
states are (anything on the first factor) x (one fixed state on the second).
This module computes that decomposition numerically and uses it to build the
witnesses behind the no-broadcasting, ensemble-broadcasting and
ensemble-cloning arguments, plus the universal-broadcasting equivalence.

The decomposition uses no random draws and no retries.  The central blocks
are the joint eigenspaces of an orthonormal basis of the algebra's center;
each block is factored from a minimal projection q0 by one SVD of the
products f q0 (a deterministic form of the block-diagonalization of Murota,
Kanno, Kojima & Kojima, 2010).  Each step checks its result and raises
UnsupportedStructureError when the check fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt

import numpy as np

from . import linalg
from .duality import IsoPair, eigenbasis, iso_forward, std_iso_forward
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
    kraus_from_choi,
    max_entangled,
)

NULL_TOL = 1e-9
FIX_TOL = 1e-9
BLOCK_TOL = 1e-8
CLUSTER_TOL = 1e-6


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
        """Lift mu x nu on the block factors to the full space."""
        if nu is None:
            if self.nu is None:
                raise ValidationError("block has no fixed second-factor state")
            nu = self.nu.matrix
        small = np.kron(mu, nu)
        return self.isometry @ small @ dagger(self.isometry)

    def compress(self, m: np.ndarray) -> np.ndarray:
        """Restrict a full-space operator to block coordinates."""
        return dagger(self.isometry) @ m @ self.isometry


@dataclass(frozen=True)
class BroadcastWitness:
    """Nonorthogonal pure states forced to be cloned by a broadcaster."""

    block_index: int
    block: FixedBlock
    clonable_states: tuple  # two vectors in the d1-dim block factor
    overlap: float


def _nullspace(m: np.ndarray, tol: float = NULL_TOL) -> np.ndarray:
    """Columns spanning {x : m x = 0}, singular values <= tol."""
    _, s, vt = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    n = vt.shape[0]
    svals = np.zeros(n)
    svals[: s.size] = s
    return dagger(vt)[:, svals <= tol]


def _embed_herm(h: np.ndarray) -> np.ndarray:
    """Real coordinates (Re, Im) of a matrix, or of each matrix in a stack."""
    lead = h.shape[:-2]
    return np.concatenate(
        [h.real.reshape(*lead, -1), h.imag.reshape(*lead, -1)], axis=-1
    )


def _unembed_herm(v: np.ndarray, d: int) -> np.ndarray:
    half = d * d
    return (v[..., :half] + 1j * v[..., half:]).reshape(*v.shape[:-1], d, d)


def _orthonormal_hermitian(mats: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """HS-orthonormal Hermitian basis of the real span of a stack, stacked."""
    if not len(mats):
        return mats
    _, s, vt = np.linalg.svd(_embed_herm(mats), full_matrices=False)
    return hermitize(_unembed_herm(vt[s > tol * s[0]], mats.shape[-1]))


def _hermitian_basis_from_vectors(vecs: np.ndarray, d: int) -> np.ndarray:
    """Hermitize a complex matrix-space basis given as vectorized columns."""
    x = vecs.T.reshape(-1, d, d)
    parts = np.stack([(x + dagger(x)) / 2, (x - dagger(x)) / 2j], axis=1)
    return _orthonormal_hermitian(parts.reshape(-1, d, d))


def _fixed_basis(superops, d: int) -> np.ndarray:
    """Stacked Hermitian basis of the operators fixed by every superoperator."""
    stacked = np.vstack([s - np.eye(d * d) for s in superops])
    kernel = _nullspace(stacked)
    basis = _hermitian_basis_from_vectors(kernel, d)
    if len(basis) != kernel.shape[1]:
        raise UnsupportedStructureError(
            "fixed space is not closed under conjugate transpose"
        )
    return basis


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
    return FixedSpace(tuple(_fixed_basis([ch.superoperator() for ch in channels], d)))


def invariant_state(e: KrausChannel) -> DensityOperator:
    """Long-run invariant state reached from the maximally mixed input.

    Computed as the spectral projection of vec(I/d) onto the fixed space
    along the range of (identity - superoperator); this is the exact limit
    of averaged channel powers.  One SVD gives both the kernel and the range.
    """
    d = _common_dim((e,))
    u, s, vt = np.linalg.svd(np.eye(d * d) - e.superoperator())
    kernel = dagger(vt)[:, s <= NULL_TOL]
    if kernel.shape[1] == 0:
        raise UnsupportedStructureError("channel has no fixed state")
    full = np.hstack([kernel, u[:, s > NULL_TOL]])
    coeffs, *_ = np.linalg.lstsq(full, np.eye(d).reshape(-1) / d, rcond=None)
    vec = kernel @ coeffs[: kernel.shape[1]]
    mat = hermitize(vec.reshape(d, d))
    if np.max(np.abs(e(mat) - mat)) > FIX_TOL:
        raise UnsupportedStructureError("averaged state failed the invariance check")
    eig = linalg._psd_eig(mat)
    mat = eig.reconstruct()
    return DensityOperator(mat / np.trace(mat).real)


def _eigen_clusters(h: np.ndarray) -> tuple[list, np.ndarray]:
    """Eigenvalue clusters of h (ascending runs of indices) and its eigenvectors."""
    w, v = np.linalg.eigh(hermitize(h))
    cuts = np.flatnonzero(np.diff(w) > CLUSTER_TOL * (1 + np.max(np.abs(w)))) + 1
    return np.split(np.arange(w.size), cuts), v


def _products(basis: np.ndarray) -> np.ndarray:
    """All pairwise products p[a, c] = basis[a] @ basis[c], shape (n, n, d, d).

    One (n*d x d) @ (d x n*d) product; the result is a view of it.
    """
    n, d, _ = basis.shape
    flat = basis.reshape(n * d, d) @ basis.transpose(1, 0, 2).reshape(d, n * d)
    return flat.reshape(n, d, n, d).transpose(0, 2, 1, 3)


def _check_algebra_closure(
    basis: np.ndarray, products: np.ndarray, tol: float = BLOCK_TOL
) -> None:
    """Verify the span is closed under multiplication (so it is an algebra).

    The Hermitian and anti-Hermitian parts of basis[a] @ basis[c] are
    (p[a, c] + p[c, a]) / 2 and (p[a, c] - p[c, a]) / 2i; both are symmetric
    or antisymmetric in (a, c), so the pairs a <= c cover every product.
    Each part v must lie in the span: its residual r after projection onto
    the (HS-orthonormal) basis obeys |r| <= tol * (1 + |v|).
    """
    if not len(basis):
        raise UnsupportedStructureError("empty fixed space")
    ia, ic = np.triu_indices(len(basis))
    ac, ca = products[ia, ic], products[ic, ia]
    v = _embed_herm(np.concatenate([(ac + ca) / 2, (ac - ca) / 2j]))
    rows = _embed_herm(basis)
    resid = v - (v @ rows.T) @ rows
    if np.any(np.linalg.norm(resid, axis=1) > tol * (1 + np.linalg.norm(v, axis=1))):
        raise UnsupportedStructureError("fixed space is not closed under multiplication")


def _center_basis(basis: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Stacked Hermitian basis of the commuting core of the algebra.

    Column f of the constraint matrix stacks i[basis[f], basis[g]] over g.
    """
    n = len(basis)
    comm = 1j * (products - products.swapaxes(0, 1))
    constraint = _embed_herm(comm).reshape(n, -1).T
    coeff_null = _nullspace(constraint, tol=1e-8)
    return hermitize(np.tensordot(coeff_null.T.real, basis, axes=1))


def _is_factored(basis: np.ndarray, w: np.ndarray, d1: int, d2: int) -> bool:
    """Whether every w† f w, f in the stacked basis, is (something) x identity_d2."""
    t = (dagger(w) @ basis @ w).reshape(-1, d1, d2, d1, d2)
    b1 = np.einsum("naibi->nab", t) / d2  # partial trace over the second factor
    b1_x_id = b1[:, :, None, :, None] * np.eye(d2)[:, None, :]
    return np.max(np.abs(t - b1_x_id)) <= BLOCK_TOL


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
    if s.size > d1 and s[d1] > CLUSTER_TOL * s[d1 - 1]:
        raise UnsupportedStructureError(f"no singular-value gap after {d1} block copies")
    w = cols @ (np.sqrt(d2) * vt[:d1].reshape(d1, r, d2).transpose(1, 0, 2).reshape(r, r))
    # the identity is in the span, so a factored W†W is the identity too
    if not _is_factored(basis, w, d1, d2):
        raise UnsupportedStructureError("failed to factor a central block of the algebra")
    return d1, d2, w


def _decompose_algebra(basis: np.ndarray, d: int) -> list[tuple[int, int, np.ndarray]]:
    """Split a unital *-algebra (stacked basis) into its (d1, d2, isometry) blocks."""
    products = _products(basis)
    _check_algebra_closure(basis, products)
    center = _center_basis(basis, products)
    if not len(center):
        raise UnsupportedStructureError("algebra has an empty center")
    blocks = [_split_block(basis, cols) for cols in _central_blocks(center, d)]
    return sorted(blocks, key=lambda b: (-b[0], -b[1]))


def _compress(e: KrausChannel, v: np.ndarray) -> KrausChannel:
    """The channel restricted to the range of the isometry v."""
    rank = v.shape[1]
    return KrausChannel(tuple(dagger(v) @ k @ v for k in e.kraus), rank, rank)


def _recurrent_compression(e: KrausChannel):
    """Restrict to the support of the long-run state if it is rank deficient.

    Returns (isometry onto that support or None, invariant state of the
    channel compressed to it).
    """
    rho_inf = invariant_state(e)
    supp = linalg.support(rho_inf.matrix)
    if supp.rank == e.din:
        return None, rho_inf
    rho_c = invariant_state(_compress(e, supp.isometry))
    if linalg.support(rho_c.matrix).rank != supp.rank:
        raise UnsupportedStructureError(
            "no full-rank invariant state even on the recurrent support"
        )
    return supp.isometry, rho_c


def _blocks(*channels: KrausChannel) -> tuple[list[FixedBlock], np.ndarray]:
    """Block decomposition of the operators fixed by every channel.

    Compresses to the recurrent support of the channels' average, decomposes
    the fixed algebra of the dual maps there and re-embeds the blocks.  Also
    returns the average's long-run invariant state on the full space.
    """
    d = _common_dim(channels)
    if len(channels) == 1:
        mixed = channels[0]
    else:
        scale = np.sqrt(len(channels))
        mixed = KrausChannel(tuple(k / scale for ch in channels for k in ch.kraus), d, d)
    embed, rho_c = _recurrent_compression(mixed)
    state = rho_c.matrix
    if embed is not None:
        state = embed @ state @ dagger(embed)
        channels = tuple(_compress(ch, embed) for ch in channels)
    dim = channels[0].din
    basis = _fixed_basis([dagger(ch.superoperator()) for ch in channels], dim)
    blocks = [
        FixedBlock(d1, d2, w if embed is None else embed @ w)
        for d1, d2, w in _decompose_algebra(basis, dim)
    ]
    return blocks, state


def block_components(block: FixedBlock, state: np.ndarray):
    """Weight and factor states of one block component of a state.

    Returns (weight, mu, nu); mu and nu are None when the weight vanishes.
    """
    small = block.compress(state)
    weight = float(np.trace(small).real)
    if weight <= 1e-12:
        return weight, None, None
    small = small / weight
    mu = hermitize(linalg.partial_trace(small, (block.d1, block.d2), "A"))
    nu = hermitize(linalg.partial_trace(small, (block.d1, block.d2), "B"))
    return weight, mu, nu


def decompose_fixed_algebra(
    e: KrausChannel, reference: DensityOperator | None = None
) -> list[FixedBlock]:
    """Tensor-product block decomposition of a channel's fixed points.

    Blocks are sorted by descending first-factor then second-factor
    dimension.  Each block carries the fixed second-factor state; weights
    are filled in only when a reference invariant state is supplied.
    """
    blocks, state = _blocks(e)
    out = []
    for block in blocks:
        _, _, nu = block_components(block, state)
        if nu is None:
            raise UnsupportedStructureError("invariant state puts no weight on a block")
        weight = None
        if reference is not None:
            weight, _, _ = block_components(block, reference.matrix)
        out.append(replace(block, nu=DensityOperator(nu), weight=weight))
    return out


def _check_fixed_by(e: KrausChannel, state: np.ndarray, tol: float, what: str) -> None:
    if np.max(np.abs(e(state) - state)) > tol:
        raise PreconditionError(f"{what} is not fixed by the channel within {tol:g}")


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
    for ch in (e1, e2):
        _check_fixed_by(ch, sigma1.matrix, FIX_TOL, "sigma1")
        _check_fixed_by(ch, sigma2.matrix, FIX_TOL, "sigma2")
    if _commutator_norm(sigma1.matrix, sigma2.matrix) <= 1e-8:
        raise PreconditionError("input states commute; no obstruction arises")
    blocks, _ = _blocks(e1, e2)
    for idx, block in enumerate(blocks):
        q1, mu1, nu1 = block_components(block, sigma1.matrix)
        q2, mu2, nu2 = block_components(block, sigma2.matrix)
        if q1 <= 1e-10 or q2 <= 1e-10 or block.d1 < 2:
            continue
        if _commutator_norm(mu1, mu2) <= 1e-8:
            continue
        nu = DensityOperator(hermitize((nu1 + nu2) / 2))
        witness_block = FixedBlock(block.d1, block.d2, block.isometry, nu)
        states = _nonorthogonal_pair(mu1, mu2)
        if states is None:
            continue
        v1, v2 = states
        return BroadcastWitness(
            block_index=idx,
            block=witness_block,
            clonable_states=(v1, v2),
            overlap=float(abs(np.vdot(v1, v2))),
        )
    raise PreconditionError(
        "no common fixed block with noncommuting components was found"
    )


def _nonorthogonal_pair(mu1: np.ndarray, mu2: np.ndarray):
    """Eigenvector pair of the two components with overlap strictly in (0,1)."""
    v1s = linalg.herm_eig(mu1).eigenvectors.T
    v2s = linalg.herm_eig(mu2).eigenvectors.T
    best = None
    best_score = 0.0
    for a in v1s:
        for b in v2s:
            o = abs(np.vdot(a, b))
            score = o * (1 - o)
            if score > best_score:
                best_score = score
                best = (a, b)
    if best is None or best_score < 1e-8:
        return None
    return best


def _check(name: str, value: float, tol: float, larger_ok: bool = False) -> dict:
    ok = value >= tol if larger_ok else value <= tol
    return {"name": name, "value": float(value), "tolerance": float(tol), "pass": bool(ok)}


def _pure_entangled_factor(
    tau: np.ndarray, block: FixedBlock, d_total: int
) -> tuple[float, int, float]:
    """Purity, Schmidt rank and captured weight of the first-factor state.

    tau lives on two copies of the ambient space; both copies are compressed
    to the block and the second factors are traced out.
    """
    w = block.isometry
    both = np.kron(w, w)
    small = dagger(both) @ tau @ both
    captured = float(np.trace(small).real)
    small = hermitize(small / captured)
    d1, d2 = block.d1, block.d2
    t = small.reshape(d1, d2, d1, d2, d1, d2, d1, d2)
    # keep the two first-factor legs, trace the two second-factor legs
    zeta = np.einsum("aibjcidj->abcd", t).reshape(d1 * d1, d1 * d1)
    zeta = hermitize(zeta)
    purity = float(np.trace(zeta @ zeta).real)
    top = linalg.herm_eig(zeta).eigenvectors[:, 0]
    rank = linalg.schmidt_rank(top, (d1, d1))
    return purity, rank, captured


def monogamy_demo(
    p: float,
    sigma1: DensityOperator,
    sigma2: DensityOperator,
    e1: KrausChannel,
    e2: KrausChannel,
    basis: np.ndarray | None = None,
) -> dict:
    """Post-selected pure entangled factors from an ensemble broadcaster.

    Mixes the two states, builds each channel's dual state in the mixture's
    eigenbasis, measures the block projector on the first system, and checks
    that the surviving first-factor state is pure and entangled.
    """
    if not 0 < p < 1:
        raise PreconditionError("mixing weight must lie strictly between 0 and 1")
    witness = broadcast_obstruction(sigma1, sigma2, e1, e2)
    block = witness.block
    rho = DensityOperator(
        hermitize(p * sigma1.matrix + (1 - p) * sigma2.matrix)
    )
    if basis is None:
        basis = eigenbasis(rho)
    proj = block.projector
    d = rho.dim
    checks = []
    results = {}
    for label, ch in (("channel1", e1), ("channel2", e2)):
        tau = iso_forward(IsoPair(rho, ch), basis).state.matrix
        big_proj = np.kron(proj, np.eye(d))
        prob = float(np.trace(big_proj @ tau).real)
        checks.append(_check(f"{label}.block_probability", prob, 1e-12, larger_ok=True))
        post = big_proj @ tau @ big_proj / prob
        purity, rank, captured = _pure_entangled_factor(post, block, d)
        checks.append(_check(f"{label}.factor_purity", purity, 1 - 1e-8, larger_ok=True))
        checks.append(_check(f"{label}.schmidt_rank", rank, 2, larger_ok=True))
        results[label] = {
            "block_probability": prob,
            "factor_purity": purity,
            "schmidt_rank": rank,
            "captured_weight": captured,
        }
    return {
        "block_index": witness.block_index,
        "witness_overlap": witness.overlap,
        "checks": checks,
        "results": results,
    }


def cloning_demo(ensemble: Ensemble, e1: KrausChannel, e2: KrausChannel) -> dict:
    """Pure entangled dual states forced by cloning a pure-state ensemble.

    No measurement is needed: all ensemble states share one fixed block, so
    the dual state's block factor is already pure and entangled.
    """
    vecs = []
    for weight, state in ensemble.members:
        purity = state.purity()
        if purity < 1 - 1e-8:
            raise PreconditionError("ensemble members must be pure states")
        vecs.append(linalg.herm_eig(state.matrix).eigenvectors[:, 0])
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            o = abs(np.vdot(vecs[i], vecs[j]))
            if o <= 1e-8 or o >= 1 - 1e-8:
                raise PreconditionError(
                    "ensemble members must be pairwise nonorthogonal and nonidentical"
                )
    for ch in (e1, e2):
        for _, state in ensemble.members:
            _check_fixed_by(ch, state.matrix, FIX_TOL, "ensemble member")
    blocks, _ = _blocks(e1, e2)
    shared = None
    for idx, block in enumerate(blocks):
        weights = [
            float(np.trace(block.projector @ s.matrix).real)
            for _, s in ensemble.members
        ]
        if all(w > 1 - 1e-8 for w in weights):
            shared = idx
            break
    if shared is None:
        raise PreconditionError("ensemble members do not share a single fixed block")
    block = blocks[shared]
    rho = DensityOperator(hermitize(ensemble.average()))
    d = rho.dim
    basis = eigenbasis(rho)
    checks = []
    results = {}
    for label, ch in (("channel1", e1), ("channel2", e2)):
        tau = iso_forward(IsoPair(rho, ch), basis).state.matrix
        purity, rank, captured = _pure_entangled_factor(tau, block, d)
        checks.append(_check(f"{label}.factor_purity", purity, 1 - 1e-10, larger_ok=True))
        checks.append(_check(f"{label}.schmidt_rank", rank, 2, larger_ok=True))
        checks.append(_check(f"{label}.captured_weight", captured, 1 - 1e-8, larger_ok=True))
        results[label] = {
            "factor_purity": purity,
            "schmidt_rank": rank,
            "captured_weight": captured,
        }
    return {"block_index": shared, "checks": checks, "results": results}


def universal_from_channels(e1: KrausChannel, e2: KrausChannel) -> dict:
    """Identity reduced channels give maximally entangled dual states."""
    d = _common_dim((e1, e2))
    phi = max_entangled(d)
    target = np.outer(phi, np.conj(phi))
    checks = []
    for label, ch in (("channel1", e1), ("channel2", e2)):
        dev_id = float(np.max(np.abs(ch.choi() - target)))
        if dev_id > 1e-10:
            raise PreconditionError(f"{label} is not the identity channel")
        tau = std_iso_forward(ch)
        checks.append(_check(f"{label}.dual_state_deviation", float(np.max(np.abs(tau - target))), 1e-10))
    return {"verdict": all(c["pass"] for c in checks), "checks": checks}


def universal_from_states(tau1, tau2) -> dict:
    """Pure maximally entangled reduced states give identity channels.

    Non-qualifying inputs produce a negative verdict rather than an error.
    """
    checks = []
    corrections = []
    verdict = True
    for label, tau in (("state1", tau1), ("state2", tau2)):
        da, db = tau.dims
        mat = tau.state.matrix
        purity = float(np.trace(mat @ mat).real)
        pure_ok = purity >= 1 - 1e-10
        checks.append(_check(f"{label}.purity", purity, 1 - 1e-10, larger_ok=True))
        marg = tau.marginal("A")
        mix_dev = float(np.max(np.abs(marg - np.eye(da) / da)))
        mix_ok = mix_dev <= 1e-9
        checks.append(_check(f"{label}.maximally_mixed_marginal", mix_dev, 1e-9))
        if not (pure_ok and mix_ok and da == db):
            verdict = False
            corrections.append(None)
            continue
        top = linalg.herm_eig(mat).eigenvectors[:, 0]
        u = np.sqrt(da) * top.reshape(da, db).T
        rot = np.kron(np.eye(da), dagger(u))
        corrected = rot @ mat @ dagger(rot)
        chan = kraus_from_choi(hermitize(corrected), da, db)
        from .qobjects import choi_distance, identity_channel

        dev = choi_distance(chan, identity_channel(da))
        checks.append(_check(f"{label}.corrected_channel_identity", dev, 1e-9))
        corrections.append(u)
        if dev > 1e-9:
            verdict = False
    return {"verdict": verdict, "checks": checks, "corrections": corrections}


def universal_broadcast_equiv(direction: str, first, second) -> dict:
    """Run either direction of the universal-broadcasting equivalence."""
    if direction == "a":
        return universal_from_channels(first, second)
    if direction == "b":
        return universal_from_states(first, second)
    raise ValidationError(f"direction must be 'a' or 'b', got {direction!r}")
