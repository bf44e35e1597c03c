"""Broadcasting, monogamy and cloning witnesses: the applications of the
fixed-point algebra.

Two noncommuting states fixed by two channels force nonorthogonal clonable
pure states in a common block (broadcast_obstruction), and the dual states
of a broadcaster or cloner are then pure and entangled on that block
(monogamy_demo, cloning_demo); universal broadcasting is equivalent to
maximally entangled pure dual states (universal_from_channels and
universal_from_states).  `check` builds every report check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from . import tolerances as tol
from .duality import IsoPair, channel_distance_on_support, factor_distance
from .duality import iso_forward, iso_reverse
from .errors import PreconditionError
from .fixedpoints import FixedBlock, _blocks, _common_dim, block_components, fixed_deviation
from .linalg import dagger, hermitize
from .qobjects import DensityOperator, Ensemble, KrausChannel, max_entangled, unitary_channel


@dataclass(frozen=True)
class BroadcastWitness:
    """Nonorthogonal pure states forced to be cloned by a broadcaster."""

    block_index: int
    block: FixedBlock
    clonable_states: tuple  # two vectors in the d1-dim block factor
    overlap: float


def _check_fixed_by(e: KrausChannel, state: np.ndarray, what: str) -> None:
    if fixed_deviation(e, state) > tol.FIX_TOL:
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
            cols.append(block.isometry @ linalg.tensor(*vecs))
    supp = state.support
    cols.append(supp.eigenvectors[:, supp.rank :])
    return np.hstack(cols)


def check(name: str, value: float, tolerance: float, larger_ok: bool = False) -> dict:
    """One report check: value against tolerance, as an upper bound or, with
    `larger_ok`, a lower one.

    `margin` is tolerance / value (value / tolerance for a lower bound): for
    positive values it exceeds 1 exactly when the check passes, and it ranks
    checks by how close they came.  It is None when the divisor is 0, so a
    report stays strict JSON; for the same reason a nan or infinite value
    is written as None, with margin None, and fails the check.
    """
    value, tolerance = float(value), float(tolerance)
    finite = math.isfinite(value)
    ok = finite and (value >= tolerance if larger_ok else value <= tolerance)
    num, den = (value, tolerance) if larger_ok else (tolerance, value)
    return {
        "name": name,
        "value": value if finite else None,
        "tolerance": tolerance,
        "pass": ok,
        "margin": num / den if finite and den else None,
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
        check(f"{label}.factor_purity", purity, 1 - tol.DUAL_PURE_TOL, larger_ok=True),
        check(f"{label}.schmidt_rank", rank, 2, larger_ok=True),
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
        checks.append(check(f"{label}.block_probability", prob, tol.ZERO_PROB, larger_ok=True))
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
            check(f"{label}.captured_weight", captured, 1 - tol.CAPTURED_TOL, larger_ok=True)
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
        checks.append(check(f"{label}.dual_state_deviation", dev, tol.MAX_ENTANGLED_TOL))
    return {"verdict": all(c["pass"] for c in checks), "checks": checks}


def universal_from_states(tau1, tau2) -> dict:
    """Pure maximally entangled reduced states give identity channels.

    Non-qualifying inputs produce a negative verdict rather than an error.
    Everything is read from tau's factor X, so tau's (dA dB)^2 matrix is
    never formed or decomposed: the purity is ||X†X||_F^2, the A-marginal
    is tau.marginal("A"), X~ X~† with X folded to dA x (dB k), and the top
    vector of tau is X's first left singular vector, phases fixed as
    linalg.support fixes them.
    """
    checks = []
    corrections = []
    for label, tau in (("state1", tau1), ("state2", tau2)):
        da, db = tau.dims
        x = tau.state.factor()
        purity = float(np.linalg.norm(dagger(x) @ x) ** 2)
        checks.append(check(f"{label}.purity", purity, 1 - tol.DUAL_PURE_TOL, larger_ok=True))
        mix_dev = float(np.max(np.abs(tau.marginal("A") - np.eye(da) / da)))
        checks.append(check(f"{label}.maximally_mixed_marginal", mix_dev, tol.MIXED_MARGINAL_TOL))
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
        checks.append(check(f"{label}.corrected_channel_identity", dev, tol.UNITARY_CHANNEL_TOL))
        corrections.append(u)
    square = all(t.dims[0] == t.dims[1] for t in (tau1, tau2))
    verdict = square and all(c["pass"] for c in checks)
    return {"verdict": verdict, "checks": checks, "corrections": corrections}

