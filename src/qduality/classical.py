"""Classical probability scaffold: joints, marginals, conditionals, dynamics.

Serves as the diagonal-case oracle for the quantum constructions.  A joint
table is indexed (i, j) = (X-value, Y-value), tau's A (x) B order; a
stochastic matrix entry (i, j) is the transition probability from X=j to
Y=i.  checked_distribution is the one rule for "nonnegative and sums to 1".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .errors import ShapeError, SupportError, ValidationError


def checked_distribution(p: np.ndarray, what: str, axes=None) -> np.ndarray:
    """p, or each distribution of a stack, checked nonnegative with sum 1 and
    clipped at zero, not renormalized.

    The sum runs over `axes` (every axis by default); the other axes index
    the stack.  Entries may lie down to TRACE_TOL below zero, and each total
    within TRACE_TOL of 1; a nan fails.
    """
    if np.any(p < -tol.TRACE_TOL):
        raise ValidationError(f"{what} has negative entries")
    total = p.sum(axes)
    # written so that a nan total fails
    bad = ~(np.abs(total - 1.0) <= tol.TRACE_TOL)
    if np.any(bad):
        raise ValidationError(f"{what} sums to {total[bad].flat[0]}, not 1")
    return np.maximum(p, 0.0)


@dataclass(frozen=True)
class Distribution:
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", checked_distribution(w, "distribution"))

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class JointTable:
    """Joint probabilities probs[a, b] of outcome a of X (or of a measurement M)
    and outcome b of Y (or of N), with labels "0", "1", ... by default."""

    probs: np.ndarray
    m_labels: tuple = None
    n_labels: tuple = None

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2:
            raise ValidationError("joint table must be a matrix")
        for name, count in (("m_labels", p.shape[0]), ("n_labels", p.shape[1])):
            if getattr(self, name) is None:
                object.__setattr__(self, name, tuple(str(i) for i in range(count)))
        if p.shape != (len(self.m_labels), len(self.n_labels)):
            raise ShapeError("table shape does not match label counts")
        object.__setattr__(self, "probs", checked_distribution(p, "joint table"))


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
        checked = np.zeros_like(e)
        checked[:, mask] = checked_distribution(e[:, mask], "stochastic column", axes=0)
        object.__setattr__(self, "entries", checked)
        object.__setattr__(self, "support_mask", mask)


def marginals(j: JointTable) -> tuple[Distribution, Distribution]:
    """(P(X), P(Y)) from a joint table."""
    return Distribution(j.probs.sum(axis=1)), Distribution(j.probs.sum(axis=0))


def conditional(j: JointTable) -> StochasticMatrix:
    """Conditional P(Y|X), undefined on columns with P(X)=0."""
    px = j.probs.sum(axis=1)
    mask = px > 0
    entries = np.zeros(j.probs.shape[::-1])
    entries[:, mask] = (j.probs[mask] / px[mask, None]).T
    return StochasticMatrix(entries, mask)


def compose(p: Distribution, g: StochasticMatrix) -> JointTable:
    """Joint table P(X=j, Y=i) = p[j] * g[i, j]."""
    if len(p) != g.entries.shape[1]:
        raise ValidationError("distribution length does not match column count")
    supported = p.weights > 0
    if np.any(supported & ~g.support_mask):
        raise SupportError("dynamics undefined on a column where P(X) > 0")
    return JointTable(p.weights[:, None] * g.entries.T)


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
