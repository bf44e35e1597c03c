"""Joint statistics of the two operationally equivalent scenarios.

Parallel: measure M on A and N on B of the bipartite dual state.
Sequential: transposed-M preparation of rho, evolve, measure N.
Exact tables plus a seeded Monte Carlo sampler over either table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import BipartiteState, IsoPair, iso_forward
from .errors import ShapeError, ValidationError
from .qobjects import Povm

TABLE_TOL = 1e-10


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
        if np.any(p < -TABLE_TOL):
            raise ValidationError("joint table has negative entries")
        if abs(p.sum() - 1.0) > TABLE_TOL:
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


def joint_parallel(tau: BipartiteState, m: Povm, n: Povm) -> JointTable:
    """probs[a, b] = Tr((M_a x N_b) tau)."""
    da, db = tau.dims
    if m.dim != da or n.dim != db:
        raise ShapeError("POVM dimensions do not match the state factors")
    t = tau.state.matrix.reshape(da, db, da, db)
    probs = np.empty((len(m), len(n)))
    for a, ma in enumerate(m.elements):
        # contract the A legs once per M element
        ta = np.einsum("kj,jmkn->mn", ma, t)
        for b, nb in enumerate(n.elements):
            probs[a, b] = np.trace(nb @ ta).real
    return JointTable(probs, m.labels, n.labels)


def joint_sequential(
    pair: IsoPair, m: Povm, n: Povm, basis: np.ndarray | None = None
) -> JointTable:
    """probs[a, b] = Tr(N_b E(sqrt(rho) M_a^T sqrt(rho))).

    The transpose is taken in the isomorphism basis.
    """
    da, db = pair.dims
    if m.dim != da or n.dim != db:
        raise ShapeError("POVM dimensions do not match the pair")
    root = pair.support.power(0.5)
    mt = m.transpose(basis)
    probs = np.empty((len(m), len(n)))
    for a, ma in enumerate(mt.elements):
        out = pair.channel(root @ ma @ root)
        for b, nb in enumerate(n.elements):
            probs[a, b] = np.trace(nb @ out).real
    return JointTable(probs, m.labels, n.labels)


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
    below = np.searchsorted(np.sort(rng.random(trials)), cdf, side="left")
    counts = np.diff(below, prepend=0).reshape(table.probs.shape)
    tv = 0.5 * float(np.abs(counts / trials - table.probs).sum())
    return SampleReport(counts=counts, trials=trials, seed=seed, tv_distance=tv)
