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
    reduced_channel,
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
        return linalg.partial_trace(self.state.matrix, self.dims, keep)


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
        proj = self.support.projector
        total = self.channel.kraus_sum
        # written so that a nan (0 * inf off the support) fails
        if not np.max(np.abs(proj @ total @ proj - proj)) <= tol.TP_TOL:
            raise ValidationError(
                "channel is not trace-preserving on the support of the state"
            )

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
    root = pair.root
    if basis is None:
        s = root.T
    else:
        u = as_matrix(basis)
        s = u @ (dagger(u) @ root @ u).T @ u.T
    x = pair.channel.factor(s)
    tau = DensityOperator._from_factor(x)
    return BipartiteState(tau, pair.dims)


def iso_reverse(tau: BipartiteState) -> IsoPair:
    """Recover (rho, channel-on-support) from a bipartite state.

    tau = Y Y† with Y = tau.state.factor(): for a tau built by iso_forward,
    or loaded as its factor, the factor the state holds, so no
    decomposition of tau runs and its matrix is never formed; for a tau
    loaded as a matrix the factor of the one eigendecomposition taken when
    it was loaded.  Column k of Y, reshaped to dA x dB, is
    M_k = (rho^T)^{1/2} K_k^T, so B = [M_1 ... M_K] has tau_A = B B†.  One
    thin SVD B = U S W† then gives rho = (U S^2 U†)^T and the polar factor
    U W† = tau_A^{-1/2} B on the support, whose k-th dA x dB block is K_k^T.
    The Kraus family is a partial isometry by construction, so sum K†K is
    the support projector of rho to rounding however small rho's smallest
    kept eigenvalue is.

    Any factor of tau gives the same rho and the same channel.  Every factor
    is Y0 V for the full-column-rank factor Y0 of tau and some V with
    V V† = I (V = Y0^+ Y), and Y0 V turns B into B (V x I_dB): B B† = tau_A,
    and with it rho, the singular values S and the rank cutoff on them, is
    unchanged, and the polar factor becomes U W† (V x I_dB), which mixes
    the Kraus operators by V, the unitary freedom of a Kraus representation
    of one channel.  The recovered channel has one Kraus operator per
    column of Y, none trimmed: the input channel's count for a tau from
    iso_forward, the file's column count for a tau loaded as its factor.

    For a tau loaded as a matrix, Y keeps every eigenpair of tau above the
    rounding level of its decomposition (Support.floor), not only those
    above the rank cutoff.  An eigenvalue of tau scales like an eigenvalue
    of rho times the weight of a Kraus component, and that product can sit
    below the cutoff while both factors are well above it.  The support is
    decided once, by the rank cutoff on S^2, the spectrum of tau_A.

    The channel is returned on the full input space, trace preserving on the
    support of rho and zero off it.  Both parts come from internal
    constructors, with no eigensolver: rho, PSD by construction, with the
    Support (conj U, S^2) of the same SVD; the Kraus family, the polar
    factor as one (K, dB, dA) stack, which as a partial isometry is
    trace-nonincreasing by construction.
    """
    da, db = tau.dims
    y = tau.state.factor()
    count = y.shape[1]
    b = y.T.reshape(count, da, db).transpose(1, 0, 2).reshape(da, count * db)
    u, sv, wh = np.linalg.svd(b, full_matrices=False)
    rank = linalg.kept_rank(sv**2)
    u, sv, wh = u[:, :rank], sv[:rank], wh[:rank]
    rho = hermitize((u * sv**2) @ dagger(u)).T
    supp = linalg.support_from_svd(u.conj(), sv, da)
    polar = u @ wh
    kraus = polar.reshape(da, count, db).transpose(1, 2, 0)
    return IsoPair(
        DensityOperator._with_support(rho, supp), KrausChannel._from_stack(kraus, da, db)
    )


def factor_distance(x1: np.ndarray, x2: np.ndarray) -> float:
    """Frobenius distance ||X1 X1† - X2 X2†||_F of two factors with equal rows.

    One thin QR [X1 X2] = Q [R1 R2] gives X1 X1† - X2 X2† =
    Q (R1 R1† - R2 R2†) Q†, whose Frobenius norm is that of the
    (k1 + k2)-square middle factor: neither product is formed.  The
    Frobenius norm bounds the largest entry from above.
    """
    if x1.shape[0] != x2.shape[0]:
        raise ShapeError(f"factors have {x1.shape[0]} and {x2.shape[0]} rows")
    r = np.linalg.qr(np.concatenate([x1, x2], 1), mode="r")
    r1, r2 = r[:, : x1.shape[1]], r[:, x1.shape[1] :]
    return float(np.linalg.norm(r1 @ dagger(r1) - r2 @ dagger(r2)))


def channel_distance_on_support(
    e1: KrausChannel, e2: KrausChannel, isometry: np.ndarray
) -> float:
    """Frobenius distance between the Choi states of two channels restricted
    to the isometry's range.

    The restricted Choi state of e is X X† with X = e.factor(V^T / sqrt(r))
    for the d x r isometry V; the two factors are compared by
    factor_distance, so neither (r dB)^2 Choi matrix is formed.
    """
    v = as_matrix(isometry)
    s = v.T / np.sqrt(v.shape[1])
    return factor_distance(e1.factor(s), e2.factor(s))


def verify_roundtrip(pair: IsoPair) -> dict:
    """Forward-then-reverse deviations for the conditional isomorphism.

    `rho_deviation` is the largest entry of the difference of the states;
    `channel_deviation` is channel_distance_on_support on rho's support,
    the Frobenius distance of the restricted Choi states.
    """
    tau = iso_forward(pair)
    back = iso_reverse(tau)
    rho_dev = float(np.max(np.abs(pair.rho.matrix - back.rho.matrix)))
    chan_dev = channel_distance_on_support(
        pair.channel, back.channel, pair.support.isometry
    )
    return {
        "rho_deviation": rho_dev,
        "channel_deviation": chan_dev,
        "support_rank": pair.support_rank,
    }


def verify_trace_commute(
    rho: DensityOperator, e: KrausChannel, dims_out: tuple[int, int]
) -> float:
    """Frobenius deviation between tracing C after or before the isomorphism.

    Tr_C(X X†) is X~ X~† with X~ tau's factor folded to (dA dB) x (dC k), so
    both sides are compared as factors and no (dA dB dC)^2 matrix is formed.
    """
    db, dc = dims_out
    if db * dc != e.dout:
        raise ShapeError(f"output dim {e.dout} does not factor as {dims_out}")
    da = e.din
    x = iso_forward(IsoPair(rho, e)).state.factor()
    e_red = reduced_channel(e, dims_out, "C")
    x_red = iso_forward(IsoPair(rho, e_red)).state.factor()
    return factor_distance(x.reshape(da * db, -1), x_red)


def verify_measure_commute(
    rho: DensityOperator,
    e: KrausChannel,
    m: Povm,
    outcome: int,
    basis: np.ndarray | None = None,
) -> float:
    """Frobenius deviation between measuring on the dual state and on the preparation.

    Compares (sqrt(M) x I) tau (sqrt(M) x I) (unnormalized) with the forward
    image of the transposed-measurement update of rho, scaled by its
    probability.  The diagram holds when the POVM element commutes with rho
    in the isomorphism basis.  Both sides are compared as factors by
    factor_distance: (sqrt(M) x I) X is sqrt(M) applied to tau's factor X
    folded to dA x (dB k), and the update sqrt(M^T) rho sqrt(M^T) is held as
    its factor sqrt(M^T) rho^{1/2}, so no (dA dB)^2 matrix is formed.  The
    Frobenius norm bounds the largest entry of the difference from above.
    sqrt(M^T) is the transpose of sqrt(M) in the same basis, so one Support
    of M gives both roots.
    """
    x = iso_forward(IsoPair(rho, e), basis).state.factor()
    root = linalg.support(m.elements[outcome]).power(0.5)
    path1 = (root @ x.reshape(e.din, -1)).reshape(x.shape)
    root_t = linalg.transpose_in_basis(root, basis)
    updated = root_t @ rho.support.power(0.5)
    prob = float(np.vdot(updated, updated).real)
    if prob <= tol.ZERO_PROB:
        raise ZeroProbabilityError(f"outcome {outcome} has probability {prob:.3e}")
    pair2 = IsoPair(DensityOperator._from_factor(updated / np.sqrt(prob)), e)
    path2 = np.sqrt(prob) * iso_forward(pair2, basis).state.factor()
    return factor_distance(path1, path2)
