"""Joint statistics of the two operationally equivalent scenarios.

Parallel: measure M on A and N on B of the bipartite dual state.
Sequential: transposed-M preparation of rho, evolve, measure N.
Exact tables plus a seeded Monte Carlo sampler over either table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import JointTable, checked_distribution
from .duality import BipartiteState, IsoPair, iso_forward
from .errors import ShapeError, ValidationError
from .linalg import dagger, transpose_in_basis
from .qobjects import Povm, apply_kraus, congruence


@dataclass(frozen=True)
class SampleReport:
    """Empirical counts for a joint table at a fixed seed."""

    counts: np.ndarray
    trials: int
    seed: int
    tv_distance: float


def _read_against(ops: np.ndarray, n_elements: np.ndarray) -> np.ndarray:
    """probs[..., a, b] = Tr(N_b ops_a) for a (..., j, dB, dB) stack of operators
    and a (..., nN, dB, dB) stack of N elements.

    Each entry is its own sum over the dB^2 products of entries, so its
    rounding does not depend on how many operators or elements there are:
    zero elements padded onto either stack change no other entry.
    """
    flat_ops = ops.reshape(*ops.shape[:-2], 1, -1)
    flat_n = n_elements.swapaxes(-1, -2).reshape(*n_elements.shape[:-2], -1)[..., None, :, :]
    return (flat_ops * flat_n).sum(-1).real


def parallel_ops(x: np.ndarray, m_elements: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """The (..., nM, dB, dB) operators Tr_A((M_a x I) X X†) for tau's factor X, (..., dA dB, k).

    With X reshaped to (dA, dB, k), Tr_A((M_a x I) tau) is sum over j, c
    of (M_a X)[j, :, c] conj(X[j, :, c])^T: one batched product applies the
    M stack to the A index, and one more pairs the result with conj(X) over
    the A and Kraus indices.
    """
    da, db = dims
    lead, k, nm = x.shape[:-2], x.shape[-1], m_elements.shape[-3]
    mx = (m_elements @ x.reshape(*lead, 1, da, db * k)).reshape(*lead, nm, da, db, k)
    xb = x.reshape(*lead, da, db, k).swapaxes(-3, -2).reshape(*lead, 1, db, da * k)
    return mx.swapaxes(-3, -2).reshape(*lead, nm, db, da * k) @ dagger(xb)


def sequential_ops(
    root: np.ndarray, kraus: np.ndarray, m_elements: np.ndarray, basis: np.ndarray | None = None
) -> np.ndarray:
    """The (..., nM, dB, dB) outputs E(sqrt(rho) M_a^T sqrt(rho)), for
    rho^{1/2} (..., dA, dA) and the channel's (..., k, dB, dA) Kraus stack.

    The transpose is taken in the isomorphism basis.  The stack of prepared
    operators (qobjects.congruence) goes through the Kraus stack in
    apply_kraus's two batched products.
    """
    prepared = congruence(root, transpose_in_basis(m_elements, basis))
    return apply_kraus(kraus[..., None, :, :, :], prepared)


def joint_parallel(tau: BipartiteState, m: Povm, n: Povm) -> JointTable:
    """probs[a, b] = Tr((M_a x N_b) tau), contracted on tau's factor.

    The dB x dB operators of parallel_ops are read against the N stack.
    Neither tau's matrix nor its Support is formed.
    """
    da, db = tau.dims
    if m.dim != da or n.dim != db:
        raise ShapeError("POVM dimensions do not match the state factors")
    ops = parallel_ops(tau.state.factor(), m.elements, tau.dims)
    return JointTable(_read_against(ops, n.elements), m.labels, n.labels)


def joint_sequential(
    pair: IsoPair, m: Povm, n: Povm, basis: np.ndarray | None = None
) -> JointTable:
    """probs[a, b] = Tr(N_b E(sqrt(rho) M_a^T sqrt(rho))).

    The outputs of sequential_ops are read against the N stack.
    """
    da, db = pair.dims
    if m.dim != da or n.dim != db:
        raise ShapeError("POVM dimensions do not match the pair")
    ops = sequential_ops(pair.root, pair.channel.kraus, m.elements, basis)
    return JointTable(_read_against(ops, n.elements), m.labels, n.labels)


def verify_equivalence(
    pair: IsoPair, m: Povm, n: Povm, basis: np.ndarray | None = None
) -> float:
    """Max elementwise gap between the parallel and sequential tables: the
    one-pair case of equivalence_deviations."""
    da, db = pair.dims
    if m.dim != da or n.dim != db:
        raise ShapeError("POVM dimensions do not match the pair")
    x = iso_forward(pair, basis).state.factor()
    dev = equivalence_deviations(
        pair.root, pair.channel.kraus, x, m.elements, n.elements, pair.dims, basis
    )
    return float(dev)


def equivalence_deviations(
    root: np.ndarray,
    kraus: np.ndarray,
    x: np.ndarray,
    m_elements: np.ndarray,
    n_elements: np.ndarray,
    dims: tuple[int, int],
    basis: np.ndarray | None = None,
) -> np.ndarray:
    """Max elementwise gap between the parallel and sequential tables, for
    one pair and its POVMs or for each of a stack.

    A pair is given as rho^{1/2}, its Kraus stack and x, the factor of its
    tau from forward_factor.  POVMs of a stack with ragged element counts
    are zero-padded to one stack (randomgen.povm_stack).  Padded elements
    give zero rows and columns, and _read_against reads every entry alone,
    so they change no entry and no gap.  Each table is checked by
    classical.checked_distribution, as a JointTable is.
    """
    # the parallel and the sequential operators as one (2, ..., nM, dB, dB) stack
    ops = np.stack(
        [parallel_ops(x, m_elements, dims), sequential_ops(root, kraus, m_elements, basis)]
    )
    p, q = checked_distribution(_read_against(ops, n_elements), "joint table", axes=(-2, -1))
    return np.abs(p - q).max((-2, -1))


def sample(table: JointTable, trials: int, seed: int) -> SampleReport:
    """Counts of `trials` draws from the flattened table, as one multinomial
    draw of a PCG64 generator: O(cells) time and memory, for any count up to
    2**63 - 1.

    The cell probabilities are the widths of the inverse-CDF sampler's cells:
    the differences of the cumulative sums capped at 1, with the last one set
    to 1.  So the counts follow the law that sorting `trials` uniforms into
    the cells would give, and a table summing to a little over 1 (within
    TRACE_TOL) is still a distribution.  Seeded counts differ from those of
    releases that sorted uniform draws.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = np.minimum(np.cumsum(table.probs.reshape(-1)), 1.0)
    edges[-1] = 1.0
    counts = rng.multinomial(trials, np.diff(edges, prepend=0.0)).reshape(table.probs.shape)
    tv = 0.5 * float(np.abs(counts / trials - table.probs).sum())
    return SampleReport(counts=counts, trials=trials, seed=seed, tv_distance=tv)
