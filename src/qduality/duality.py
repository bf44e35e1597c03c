"""The conditional channel-state duality.

It pairs (rho, E-restricted-to-support(rho)) with a bipartite state whose
A-marginal is rho^T.  At rho = I/dA it is the standard duality, pairing a
CP map E with its Choi state (I x E)(|Phi+><Phi+|), KrausChannel.choi.

The map is basis dependent; the computational basis is the default and an
optional unitary selects another basis.  Subsystem A is the slow index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from . import tolerances as tol
from .errors import ShapeError, ValidationError, ZeroProbabilityError
from .linalg import as_matrix, dagger, hermitize
from .qobjects import (
    DensityOperator,
    KrausChannel,
    Povm,
    check_state_matrix,
    check_unit_trace,
    kraus_factor,
)


@dataclass(frozen=True)
class BipartiteState:
    """Density operator on A x B with declared factor dimensions."""

    state: DensityOperator
    dims: tuple[int, int]

    def __post_init__(self):
        da, db = self.dims
        if da * db != self.state.dim:
            raise ShapeError(f"dims {self.dims} do not multiply to {self.state.dim}")

    def marginal(self, keep: str) -> np.ndarray:
        """The reduced state on A (keep="A") or on B (keep="B"), from the
        state's factor (linalg.factor_partial_trace)."""
        return linalg.factor_partial_trace(self.state.factor(), self.dims, keep)


@dataclass(frozen=True)
class IsoPair:
    """A state together with a channel trace-preserving on its support.

    The constructor checks the dimensions and that the channel is trace
    preserving on the support of rho; rho and the channel were validated by
    their own constructors.  `support` reads rho's one stored Support, from
    which the support rank, projector, isometry and square root all come;
    the square root is formed once per pair and shared by its readers.
    """

    rho: DensityOperator
    channel: KrausChannel

    def __post_init__(self):
        if self.channel.din != self.rho.dim:
            raise ShapeError("channel input dimension does not match the state")
        supp = self.support
        check_tp_on_support(supp.eigenvectors, supp.rank, self.channel.kraus)

    @property
    def support(self) -> linalg.Support:
        return self.rho.support

    @cached_property
    def root(self) -> np.ndarray:
        """rho^{1/2} on its support, zero off it; read-only, as every reader shares it."""
        root = self.support.power(0.5)
        root.flags.writeable = False
        return root

    @property
    def support_rank(self) -> int:
        return self.support.rank

    @property
    def dims(self) -> tuple[int, int]:
        return self.channel.din, self.channel.dout


def check_tp_on_support(vecs: np.ndarray, ranks, kraus: np.ndarray) -> None:
    """Reject a channel not trace preserving on the support of its state: P (sum K†K) P = P.

    P projects on the leading `ranks` columns of `vecs`, the state's
    eigenvectors, and `kraus` is the channel's (k, dout, din) stack; for a
    stack of pairs every argument has a leading pair axis.  The rank cut is
    a mask on the columns (linalg.leading_columns).
    """
    v = linalg.leading_columns(vecs, ranks)
    proj = hermitize(v @ dagger(v))
    x = kraus.reshape(*kraus.shape[:-3], -1, kraus.shape[-1])
    total = dagger(x) @ x
    # written so that a nan (0 * inf off the support) fails
    if not np.max(np.abs(proj @ total @ proj - proj)) <= tol.TP_TOL:
        raise ValidationError("channel is not trace-preserving on the support of the state")


def eigenbasis(rho: DensityOperator) -> np.ndarray:
    """Deterministic eigenbasis of a state, eigenvalues descending: its Support's if complete."""
    vecs = rho.support.eigenvectors
    return vecs if vecs.shape[1] == rho.dim else linalg.support(rho.matrix).eigenvectors


def iso_forward(pair: IsoPair, basis: np.ndarray | None = None) -> BipartiteState:
    """Bipartite state dual to (rho, channel-on-support) in the chosen basis.

    tau = X X† with X the channel's stacked Kraus factor at S = (rho^T)^{1/2}:
    column k of X is vec(S K_k^T) = (I x K_k) sqrt(dA) ((rho^T)^{1/2} x I)|Phi+>.
    In a unitary basis U the state is (U x I) tau_c (U x I)†, with tau_c
    built from (U† rho U, K U); both rotations fold into
    S = U (U† rho^{1/2} U)^T U^T, so the channel itself is never rotated.
    The root is the pair's own, and tau is PSD by construction: it is kept
    as its factor X, with its unit trace checked as ||X||_F^2.  No
    decomposition runs here: tau's Support (one thin SVD of X) is taken
    when tau.state.support is first read, and the (dA dB)^2
    matrix hermitize(X X†), with the shape, Hermiticity and trace checks of
    a library-built state, when tau.state.matrix is first read.
    """
    x = forward_factor(pair.root, pair.channel.kraus, basis)
    return BipartiteState(DensityOperator._from_factor(x), pair.dims)


def forward_factor(
    root: np.ndarray, kraus: np.ndarray, basis: np.ndarray | None = None
) -> np.ndarray:
    """The factor X of iso_forward's tau = X X†, from arrays: for one pair or a stack.

    `root` is rho^{1/2} on its support, (..., dA, dA), `kraus` the channel's
    (..., k, dB, dA) stack and `basis` one basis or one per pair; X is
    (..., dA dB, k).  The unit trace of X X† is the caller's to check
    (check_unit_trace, through DensityOperator._from_factor in iso_forward).
    """
    if basis is None:
        s = root.swapaxes(-1, -2)
    else:
        u = as_matrix(basis, stack=True)
        s = u @ (dagger(u) @ root @ u).swapaxes(-1, -2) @ u.swapaxes(-1, -2)
    return kraus_factor(s, kraus)


def iso_reverse(tau: BipartiteState) -> IsoPair:
    """Recover (rho, channel-on-support) from a bipartite state.

    tau = Y Y† with Y = tau.state.factor(): for a tau built by iso_forward,
    or loaded as its factor, the factor the state holds, so no
    decomposition of tau runs and its matrix is never formed; for a tau
    loaded as a matrix the factor of the one eigendecomposition taken when
    it was loaded.  Column k of Y, reshaped to dA x dB, is
    (rho^T)^{1/2} K_k^T, whose transpose is K_k rho^{1/2}.  Those blocks
    stacked are the (k dB) x dA matrix C = [K_1 rho^{1/2}; ...; K_K rho^{1/2}],
    the channel read as a conditional state: C†C = rho^{1/2} (sum K†K)
    rho^{1/2} = rho.  One thin SVD C = U S V† then gives rho = V S^2 V† and
    the polar factor U V† = C rho^{-1/2} on the support, whose k-th dB x dA
    block is K_k.  The Kraus family is a partial isometry by construction,
    so sum K†K is the support projector of rho to rounding however small
    rho's smallest kept eigenvalue is.

    Any factor of tau gives the same rho and the same channel.  Every factor
    is Y0 V for the full-column-rank factor Y0 of tau and some V with
    V V† = I (V = Y0^+ Y), and Y0 V turns C into (V^T x I_dB) C: C†C = rho,
    and with it the singular values S and the support rank they give, is
    unchanged, and the polar factor becomes (V^T x I_dB) U V†, which mixes
    the Kraus operators by V, the unitary freedom of a Kraus representation
    of one channel.  The recovered channel has one Kraus operator per
    column of Y, none trimmed: the input channel's count for a tau from
    iso_forward, the file's column count for a tau loaded as its factor.

    For a tau loaded as a matrix, Y keeps every eigenpair of tau above the
    rounding level of its decomposition (Support.floor), not only those in
    tau's support rank.  An eigenvalue of tau scales like an eigenvalue of
    rho times the weight of a Kraus component, and that product can fall
    under the bar of linalg.kept_rank while both factors are well
    above it.  The support is decided once, by kept_rank on S^2, the
    spectrum of rho.

    The channel is returned on the full input space, trace preserving on the
    support of rho and zero off it.  Both parts come from internal
    constructors, with no eigensolver: rho, PSD by construction, with the
    Support (V, S^2) of the same SVD; the Kraus family, the polar factor
    as one (K, dB, dA) stack, which as a partial isometry is
    trace-nonincreasing by construction.
    """
    da, db = tau.dims
    rho, v, sv, rank, kraus = reverse_factor(tau.state.factor(), da, db)
    supp = linalg.support_from_svd(v[:, :rank], sv[:rank], da)
    return IsoPair(
        DensityOperator._with_support(rho, supp), KrausChannel._from_stack(kraus, da, db)
    )


def reverse_factor(y: np.ndarray, da: int, db: int) -> tuple:
    """iso_reverse on arrays: for one factor Y of tau, (dA dB, k), or a stack of them.

    C, (k dB) x dA with C[(k, j), i] = Y[(i, j), k], stacks the blocks
    K_k rho^{1/2}: C†C = rho, and its polar factor is the Kraus stack.
    Returns (rho, V, S, rank, kraus) from the one thin SVD C = U S V†:
    rho's matrix V S^2 V†; V, whose columns are rho's eigenvectors, and
    the singular values S, all min(dA, k dB) of them, with the rank that
    linalg.kept_rank keeps of S^2, padded with zeros to dA; and the polar
    factor U V† as the recovered channel's (k, dB, dA) Kraus stack.  A
    stack gets one rank per factor, and both products take V† with its
    rows past the rank zeroed (linalg.leading_columns of V), so the
    columns of U and V past it drop out.  No check runs here:
    iso_reverse's constructors run them, and reverse_stack, on one factor
    or a stack, runs the same checks on arrays.
    """
    count = y.shape[-1]
    lead = y.shape[:-2]
    c = y.reshape(*lead, da, db, count).swapaxes(-3, -1).reshape(*lead, count * db, da)
    u, sv, vh = np.linalg.svd(c, full_matrices=False)
    # rho's spectrum on its dA dimensions, for the rank bar
    w = np.zeros((*lead, da))
    w[..., : sv.shape[-1]] = s2 = sv**2
    ranks = linalg.kept_rank(w)
    # V_r†: the rows of V† past the rank zeroed, so neither product needs V_r
    vhr = linalg.leading_columns(vh.swapaxes(-1, -2), ranks).swapaxes(-1, -2)
    v = dagger(vh)
    rho = hermitize((v * s2[..., None, :]) @ vhr)
    kraus = (u @ vhr).reshape(*lead, count, db, da)
    return rho, v, sv, ranks, kraus


def factor_distance(x1: np.ndarray, x2: np.ndarray):
    """Frobenius distance ||X1 X1† - X2 X2†||_F of two factors with equal rows.

    One thin QR [X1 X2] = Q [R1 R2] gives X1 X1† - X2 X2† =
    Q (R1 R1† - R2 R2†) Q†, whose Frobenius norm is that of the
    (k1 + k2)-square middle factor: neither product is formed.  The
    Frobenius norm bounds the largest entry from above.  Two stacks of
    factors give one distance per pair, as an array; two factors a float.
    """
    if x1.shape[-2] != x2.shape[-2]:
        raise ShapeError(f"factors have {x1.shape[-2]} and {x2.shape[-2]} rows")
    r = np.linalg.qr(np.concatenate([x1, x2], -1), mode="r")
    r1, r2 = r[..., : x1.shape[-1]], r[..., x1.shape[-1] :]
    dist = linalg.frobenius(r1 @ dagger(r1) - r2 @ dagger(r2))
    return float(dist) if dist.ndim == 0 else dist


def channel_distance_on_support(
    e1: KrausChannel, e2: KrausChannel, isometry: np.ndarray
) -> float:
    """Frobenius distance between the Choi states of two channels restricted
    to the isometry's range.

    The restricted Choi state of e is X X† / r with X = e.factor(V^T) for
    the d x r isometry V; the two factors are compared by factor_distance,
    so neither (r dB)^2 Choi matrix is formed, and the distance is divided
    by r.
    """
    v = as_matrix(isometry)
    return _choi_distance(e1.kraus, e2.kraus, v, v.shape[-1])


def _choi_distance(kraus1: np.ndarray, kraus2: np.ndarray, vecs: np.ndarray, ranks):
    """channel_distance_on_support of Kraus stacks on the isometry of the
    leading `ranks` columns of `vecs`: for one pair of channels, or for
    each pair of a stack.  The columns past a rank are zeroed
    (linalg.leading_columns), which adds zero rows to both factors, and
    the 1/r of the restricted Choi states scales the one distance, not
    the factors."""
    s = linalg.leading_columns(vecs, ranks).swapaxes(-1, -2)
    return factor_distance(kraus_factor(s, kraus1), kraus_factor(s, kraus2)) / ranks


def verify_roundtrip(pair: IsoPair) -> dict:
    """Forward-then-reverse deviations for the conditional isomorphism: the
    one-pair case of the stacked `verify roundtrip` kernels.

    tau's factor X = forward_factor(rho^{1/2}, K), checked for unit trace
    as iso_forward checks it, is reversed by reverse_stack, which runs
    iso_reverse's checks on the recovered pair (a Hermitian unit-trace
    state, a channel trace preserving on its support) with no object built
    around either.  `rho_deviation` is the largest entry of the difference
    of the states; `channel_deviation` is channel_distance_on_support on
    rho's support, the Frobenius distance of the restricted Choi states.
    Both come from roundtrip_deviations, as for a stack of pairs.
    """
    supp = pair.support
    kraus = pair.channel.kraus
    x = forward_factor(pair.root, kraus)
    check_unit_trace(x)
    back_rho, back_kraus = reverse_stack(x, pair.dims)
    rho_dev, chan_dev = roundtrip_deviations(
        pair.rho.matrix, supp.eigenvectors, supp.rank, kraus, back_rho, back_kraus
    )
    return {
        "rho_deviation": float(rho_dev),
        "channel_deviation": float(chan_dev),
        "support_rank": pair.support_rank,
    }


def reverse_stack(x: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """iso_reverse of one tau factor (dA dB, k) or a stack of them (n, dA dB,
    k), as arrays: the recovered states' matrices and Kraus stacks.

    Each factor is read as its (k dB) x dA matrix C = [K_k rho^{1/2}], with
    C†C = rho and the Kraus stack its polar factor, and the whole stack
    takes one batched SVD (reverse_factor).  The recovered pairs go through
    the checks that iso_reverse's constructors run on one pair: a Hermitian
    unit-trace state, and a channel trace preserving on its support.  One
    factor is verify_roundtrip's case, a stack the `verify roundtrip`
    suite's.
    """
    rho, v, _, ranks, kraus = reverse_factor(x, *dims)
    check_state_matrix(rho)
    check_tp_on_support(v, ranks, kraus)
    return rho, kraus


def roundtrip_deviations(
    rho: np.ndarray,
    vecs: np.ndarray,
    ranks,
    kraus: np.ndarray,
    back_rho: np.ndarray,
    back_kraus: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """verify_roundtrip's two deviations, for one pair or each pair of a stack.

    A pair is given as arrays: rho's matrix, its eigenvectors and kept rank
    (the leading `ranks` columns of `vecs` span the support) and its Kraus
    stack, with the matrix and Kraus stack recovered from its tau.  Ragged
    ranks of a stack are cut by a mask on the columns of `vecs`
    (_choi_distance).
    """
    rho_dev = np.abs(rho - back_rho).max((-2, -1))
    return rho_dev, _choi_distance(kraus, back_kraus, vecs, ranks)


def verify_measure_commute(
    rho: DensityOperator,
    e: KrausChannel,
    m: Povm,
    outcome: int,
    basis: np.ndarray | None = None,
) -> float:
    """Frobenius deviation between measuring on the dual state and on the
    preparation: the one-pair case of measure_commute_deviations."""
    if m.dim != e.din:
        raise ShapeError("POVM and state dimensions differ")
    m_root = linalg.support(m.elements[outcome]).power(0.5)
    return float(measure_commute_deviations(IsoPair(rho, e).root, e.kraus, m_root, basis))


def measure_commute_deviations(
    root: np.ndarray, kraus: np.ndarray, m_root: np.ndarray, basis: np.ndarray | None = None
) -> np.ndarray:
    """verify_measure_commute's deviation, for one pair (rho^{1/2}, a Kraus
    stack and sqrt(M) of the measured POVM element, in one basis) or each
    pair of a stack (in one basis, or one basis per pair).

    Compares (sqrt(M) x I) tau (sqrt(M) x I) (unnormalized) with the forward
    image of the transposed-measurement update of rho, scaled by its
    probability; the diagram holds when M commutes with rho in the
    isomorphism basis.  Both are compared as factors (factor_distance):
    sqrt(M) applied to tau's factor folded to dA x (dB k), and the update
    held as its factor sqrt(M^T) rho^{1/2}, with sqrt(M^T) the transpose of
    sqrt(M) in that basis.  The one-pair constructors' checks run on the
    whole stack; an outcome of probability at most ZERO_PROB raises
    ZeroProbabilityError.
    """
    x = forward_factor(root, kraus, basis)
    check_unit_trace(x)
    path1 = (m_root @ x.reshape(root.shape[:-1] + (-1,))).reshape(x.shape)
    updated = linalg.transpose_in_basis(m_root, basis) @ root
    prob = linalg.frobenius(updated) ** 2
    zero = prob[prob <= tol.ZERO_PROB]
    if zero.size:
        raise ZeroProbabilityError(f"measured outcome has probability {zero[0]:.3e}")
    scale = np.sqrt(prob)[..., None, None]
    post = updated / scale
    check_unit_trace(post)
    supp = linalg.support_from_factor(post)
    check_tp_on_support(supp.eigenvectors, supp.rank, kraus)
    x2 = forward_factor(supp.power(0.5), kraus, basis)
    check_unit_trace(x2)
    return factor_distance(path1, scale * x2)
