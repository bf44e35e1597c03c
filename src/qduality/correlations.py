"""Joint statistics of the two operationally equivalent scenarios.

Parallel: measure M on A and N on B of the bipartite dual state.
Sequential: transposed-M preparation of rho, evolve, measure N.
Exact tables plus a seeded Monte Carlo sampler over either table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .duality import BipartiteState, IsoPair, iso_forward
from .errors import ShapeError, ValidationError
from .qobjects import Povm


@dataclass(frozen=True)
class JointTable:
    """Outcome probabilities indexed (M-outcome, N-outcome)."""

    probs: np.ndarray
    m_labels: tuple
    n_labels: tuple

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(self.m_labels), len(self.n_labels)):
            raise ShapeError("table shape does not match label counts")
        if np.any(p < -tol.TABLE_TOL):
            raise ValidationError("joint table has negative entries")
        if abs(p.sum() - 1.0) > tol.TABLE_TOL:
            raise ValidationError(f"joint table sums to {p.sum()}, not 1")
        object.__setattr__(self, "probs", np.maximum(p, 0.0))

    def m_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=1)


@dataclass(frozen=True)
class SampleReport:
    """Empirical counts for a joint table at a fixed seed."""

    counts: np.ndarray
    trials: int
    seed: int
    tv_distance: float


def _read_against(ops: np.ndarray, n: Povm) -> np.ndarray:
    """probs[a, b] = Tr(N_b ops_a) for a stack of dB x dB operators, as one product."""
    flat_n = n.elements.transpose(0, 2, 1).reshape(len(n), -1)
    return (ops.reshape(len(ops), -1) @ flat_n.T).real


def joint_parallel(tau: BipartiteState, m: Povm, n: Povm) -> JointTable:
    """probs[a, b] = Tr((M_a x N_b) tau), contracted on tau's factor.

    With tau = X X† and X reshaped to (dA, dB, k), Tr_A((M_a x I) tau) is
    sum over j, c of (M_a X)[j, :, c] conj(X[j, :, c])^T: one batched
    product applies the M stack to the A index, one more pairs the result
    with conj(X) over the A and Kraus indices, and each of the dB x dB
    operators is read against the N stack.  Neither tau's matrix nor its
    Support is formed.
    """
    da, db = tau.dims
    if m.dim != da or n.dim != db:
        raise ShapeError("POVM dimensions do not match the state factors")
    x = tau.state.factor()
    k = x.shape[1]
    mx = (m.elements @ x.reshape(da, db * k)).reshape(len(m), da, db, k)
    xb = x.reshape(da, db, k).transpose(1, 0, 2).reshape(db, da * k)
    reduced = mx.transpose(0, 2, 1, 3).reshape(len(m), db, da * k) @ xb.conj().T
    return JointTable(_read_against(reduced, n), m.labels, n.labels)


def joint_sequential(
    pair: IsoPair, m: Povm, n: Povm, basis: np.ndarray | None = None
) -> JointTable:
    """probs[a, b] = Tr(N_b E(sqrt(rho) M_a^T sqrt(rho))).

    The transpose is taken in the isomorphism basis.  The stack of prepared
    operators sqrt(rho) M_a^T sqrt(rho) goes through the Kraus stack in one
    batched product, and the outputs are read against the N stack.
    """
    da, db = pair.dims
    if m.dim != da or n.dim != db:
        raise ShapeError("POVM dimensions do not match the pair")
    root = pair.root
    prepared = root @ m.transposed_elements(basis) @ root
    return JointTable(_read_against(pair.channel(prepared), n), m.labels, n.labels)


def verify_equivalence(
    pair: IsoPair, m: Povm, n: Povm, basis: np.ndarray | None = None
) -> float:
    """Max elementwise gap between the parallel and sequential tables."""
    tau = iso_forward(pair, basis)
    p = joint_parallel(tau, m, n)
    q = joint_sequential(pair, m, n, basis)
    return float(np.max(np.abs(p.probs - q.probs)))


def sample(table: JointTable, trials: int, seed: int) -> SampleReport:
    """Inverse-CDF sampling of the flattened table with a PCG64 generator."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    flat = table.probs.reshape(-1)
    cdf = np.cumsum(flat)
    cdf[-1] = 1.0
    # cell i gets the draws u with cdf[i-1] <= u < cdf[i]: count them by
    # locating the cell edges in the sorted draws, not each draw in the cdf
    draws = rng.random(trials)
    draws.sort()
    below = np.searchsorted(draws, cdf, side="left")
    counts = np.diff(below, prepend=0).reshape(table.probs.shape)
    tv = 0.5 * float(np.abs(counts / trials - table.probs).sum())
    return SampleReport(counts=counts, trials=trials, seed=seed, tv_distance=tv)
