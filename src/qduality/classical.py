"""Classical probability scaffold: joints, marginals, conditionals, dynamics.

Serves as the diagonal-case oracle for the quantum constructions.  A joint
table is indexed (i, j) = (Y-value, X-value); a stochastic matrix entry
(i, j) is the transition probability from X=j to Y=i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .errors import SupportError, ValidationError


def _check_distribution(w: np.ndarray, what: str) -> np.ndarray:
    if np.any(w < -tol.DISTRIBUTION_TOL):
        raise ValidationError(f"{what} has negative entries")
    w = np.maximum(w, 0.0)
    total = float(w.sum())
    if abs(total - 1.0) > tol.DISTRIBUTION_TOL:
        raise ValidationError(f"{what} sums to {total}, not 1")
    return w / total


@dataclass(frozen=True)
class Distribution:
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", _check_distribution(w, "distribution"))

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class JointDistribution:
    table: np.ndarray  # table[i, j] = P(Y=i, X=j)

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2:
            raise ValidationError("joint table must be a matrix")
        object.__setattr__(self, "table", _check_distribution(t, "joint table"))


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic transition matrix, possibly undefined on some columns.

    support_mask marks the columns on which the dynamics is defined; undefined
    columns hold zeros and are excluded from validation.
    """

    entries: np.ndarray
    support_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2:
            raise ValidationError("stochastic matrix must be a matrix")
        mask = self.support_mask
        mask = np.ones(e.shape[1], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if mask.shape != (e.shape[1],):
            raise ValidationError("support mask length must match column count")
        for j in np.nonzero(mask)[0]:
            col = e[:, j]
            if np.any(col < -tol.DISTRIBUTION_TOL):
                raise ValidationError(f"column {j} has negative entries")
            if abs(col.sum() - 1.0) > tol.DISTRIBUTION_TOL:
                raise ValidationError(f"column {j} sums to {col.sum()}, not 1")
        e = np.maximum(e, 0.0)
        e[:, ~mask] = 0.0
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "support_mask", mask)


def marginals(j: JointDistribution) -> tuple[Distribution, Distribution]:
    """(P(X), P(Y)) from a joint table."""
    px = j.table.sum(axis=0)
    py = j.table.sum(axis=1)
    return Distribution(px), Distribution(py)


def conditional(j: JointDistribution) -> StochasticMatrix:
    """Conditional P(Y|X), undefined on columns with P(X)=0."""
    px = j.table.sum(axis=0)
    mask = px > 0
    entries = np.zeros_like(j.table)
    entries[:, mask] = j.table[:, mask] / px[mask]
    return StochasticMatrix(entries, mask)


def compose(p: Distribution, g: StochasticMatrix) -> JointDistribution:
    """Joint table P(Y=i, X=j) = g[i, j] * p[j]."""
    if len(p) != g.entries.shape[1]:
        raise ValidationError("distribution length does not match column count")
    supported = p.weights > 0
    if np.any(supported & ~g.support_mask):
        raise SupportError("dynamics undefined on a column where P(X) > 0")
    return JointDistribution(g.entries * p.weights)


def evolve(p: Distribution, g: StochasticMatrix) -> Distribution:
    """Push a distribution through the dynamics: P(Y) = sum_j g[:, j] p[j]."""
    joint = compose(p, g)
    return marginals(joint)[1]


def classical_iso_roundtrip(
    p: Distribution, g: StochasticMatrix
) -> tuple[Distribution, StochasticMatrix]:
    """Forward to a joint table and back to (marginal, restricted dynamics)."""
    joint = compose(p, g)
    return marginals(joint)[0], conditional(joint)
