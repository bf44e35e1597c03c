"""Validated quantum objects and the measurement/preparation machinery.

Density operators, Kraus channels, POVMs and ensembles, plus the generalized
Born rule, the square-root update rule, ensemble preparations and the
POVM/ensemble correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from . import tolerances as tol
from .classical import Distribution
from .errors import (
    NotPSDError,
    ShapeError,
    ValidationError,
    ZeroProbabilityError,
)
from .linalg import as_matrix, dagger, hermitize


def _checked_state_matrix(matrix) -> np.ndarray:
    """Shape, Hermiticity and unit-trace checks of every state built from a matrix."""
    m = as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise ShapeError("density operator must be square")
    if not linalg.is_hermitian(m):
        raise ValidationError("density operator is not Hermitian")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > tol.TRACE_TOL:
        raise ValidationError(f"density operator has trace {tr}, not 1")
    return m


@dataclass(frozen=True)
class DensityOperator:
    """Unit-trace PSD Hermitian matrix with one stored Support.

    The public constructor validates shape, Hermiticity and unit trace, then
    positivity from one linalg.support of the matrix, which it keeps as the
    state's Support.  States that are PSD by construction come from
    internal constructors that skip the eigenvalue check: `_with_support`
    takes the matrix and the Support it is given and checks the matrix's
    shape, Hermiticity and trace; `_from_factor` takes a factor X of the
    matrix X X† and checks the unit trace as ||X||_F^2.  It runs no
    decomposition: the matrix and the Support (one thin SVD of X) are each
    formed only when first read, and the matrix, Hermitian by construction
    and of the trace already checked, is not scanned again.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _checked_state_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        self.__dict__["support"] = linalg.support(m, "density operator")

    @classmethod
    def _with_support(cls, matrix: np.ndarray, supp: linalg.Support) -> "DensityOperator":
        """A state that is PSD by construction, with its Support already known.

        For library-built states only (a reversed rho): skips the eigenvalue
        check and keeps `supp`, which must be the support of `matrix`.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", _checked_state_matrix(matrix))
        state.__dict__["support"] = supp
        return state

    @classmethod
    def _from_factor(cls, x: np.ndarray) -> "DensityOperator":
        """The state X X† of a finite factor X, PSD and Hermitian by construction.

        For tau = X X† of iso_forward, for a state loaded as its factor and
        for a random state G G†: the trace is checked here as ||X||_F^2;
        the Support (one thin SVD of X) and the matrix are formed only when
        first read.  The matrix is hermitize(X X†), with no further
        Hermiticity or trace scan.
        """
        tr = float(np.vdot(x, x).real)
        # written so that a nan trace fails: the matrix is not scanned later
        if not abs(tr - 1.0) <= tol.TRACE_TOL:
            raise ValidationError(f"density operator has trace {tr}, not 1")
        state = object.__new__(cls)
        state.__dict__["_factor"] = x
        return state

    def __getattr__(self, name):
        # only reached while a state built from its factor has no matrix yet
        if name != "matrix" or "_factor" not in self.__dict__:
            raise AttributeError(name)
        x = self.__dict__["_factor"]
        m = self.__dict__["matrix"] = np.asarray(hermitize(x @ dagger(x)), dtype=complex)
        return m

    @cached_property
    def support(self) -> linalg.Support:
        """The state's one eigendecomposition: rank, isometry, projector, powers.

        Every other constructor stores it; a state held as its factor takes
        it here, on first read, from one thin SVD of the factor.
        """
        return linalg.support_from_factor(self.__dict__["_factor"])

    def factor(self) -> np.ndarray:
        """A matrix X with X X† equal to the state.

        The factor the state was built from, if it was, so reading it runs
        no decomposition; otherwise the Support's factor.
        """
        x = self.__dict__.get("_factor")
        return self.support.factor() if x is None else x

    @property
    def dim(self) -> int:
        # the factor's rows serve before the matrix is formed
        return self.__dict__.get("matrix", self.__dict__.get("_factor")).shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def pure_state(vec: np.ndarray) -> DensityOperator:
    """Projector onto a (normalized) state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    n = np.linalg.norm(v)
    if n <= 0:
        raise ValidationError("zero vector is not a state")
    v = v / n
    return DensityOperator(np.outer(v, np.conj(v)))


def _stack(family) -> np.ndarray | list:
    """A family of matrices as one fresh read-only (n, rows, cols) complex array.

    Entries are checked as as_matrix checks a matrix.  An empty family, or
    one whose members differ in shape, comes back as a list of checked
    matrices, so the caller can name the member that does not fit.
    """
    if not isinstance(family, np.ndarray):
        family = list(family)
    try:
        stack = np.array(family, dtype=complex)
    except (TypeError, ValueError):
        stack = None
    if stack is None or stack.ndim != 3:
        mats = [as_matrix(m) for m in family]
        if not mats or any(m.shape != mats[0].shape for m in mats):
            return mats
        stack = np.stack(mats)
    elif not np.isfinite(stack).all():
        raise ValidationError("matrix has non-finite entries")
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True)
class KrausChannel:
    """CP map given by a finite Kraus family of dout x din matrices.

    `kraus` is one read-only (k, dout, din) array, the stacked Kraus factor;
    the constructor accepts it or any sequence of matrices.  It checks the
    shape and finiteness of the whole stack and that sum K†K = X†X, with
    X = kraus.reshape(-1, din), has no eigenvalue above 1 (one GEMM and one
    eigvalsh).  The action, Choi state and superoperator all read the stack.

    Families the library builds trace-nonincreasing by construction come
    from the internal constructor `_from_stack`, which runs none of these
    checks: the rows of a QR isometry (randomgen.random_channel), the
    polar factor of iso_reverse, the reshaped stack of reduced_channel and
    fixedpoints' mixtures and compressions.  Loaders and user code go
    through the public constructor.
    """

    kraus: np.ndarray
    din: int
    dout: int

    def __post_init__(self):
        ks = _stack(self.kraus)
        if not len(ks):
            raise ValidationError("channel needs at least one Kraus operator")
        # a stack shares one shape; a list is a family that did not stack
        for k in ks if isinstance(ks, list) else ks[:1]:
            if k.shape != (self.dout, self.din):
                raise ShapeError(
                    f"Kraus operator shape {k.shape} != ({self.dout}, {self.din})"
                )
        object.__setattr__(self, "kraus", ks)
        w = np.linalg.eigvalsh(self.kraus_sum)
        # written so that a nan eigenvalue (sum K†K overflowed) fails
        if not w[-1] <= 1 + tol.TP_TOL:
            raise ValidationError(
                "sum of K†K exceeds the identity; not trace-nonincreasing"
            )

    @classmethod
    def _from_stack(cls, stack: np.ndarray, din: int, dout: int) -> "KrausChannel":
        """A channel whose (k, dout, din) stack is trace-nonincreasing by construction.

        For library-built families only: the stack must be finite, of that
        shape, and not written by anyone else; it is kept (contiguous and
        complex) read-only, with no shape, finiteness or sum K†K check.
        """
        ks = np.ascontiguousarray(stack, dtype=complex)
        ks.flags.writeable = False
        channel = object.__new__(cls)
        object.__setattr__(channel, "kraus", ks)
        object.__setattr__(channel, "din", din)
        object.__setattr__(channel, "dout", dout)
        return channel

    @property
    def kraus_sum(self) -> np.ndarray:
        """Sum of K†K; equals the identity for trace-preserving channels."""
        x = self.kraus.reshape(-1, self.din)
        return dagger(x) @ x

    @property
    def is_trace_preserving(self) -> bool:
        return bool(
            np.max(np.abs(self.kraus_sum - np.eye(self.din))) <= tol.TP_TOL
        )

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        """E(rho) of a din x din matrix, or of each matrix in an (n, din, din) stack.

        A stack is one batched product, with the same sums as one call per
        matrix.
        """
        m = as_matrix(rho, stack=True)
        if m.shape[-2:] != (self.din, self.din):
            raise ShapeError(f"input shape {m.shape} does not end in ({self.din}, {self.din})")
        ks = self.kraus
        return (ks @ m[..., None, :, :] @ dagger(ks)).sum(-3)

    def factor(self, s: np.ndarray) -> np.ndarray:
        """Stacked Kraus factor X with column k = vec(S K_k^T).

        For an operator S with din columns, (I x E)(|s><s|) = X X† where
        |s> = vec(S) is S flattened row-major (first index slow).
        """
        ks = self.kraus
        return (as_matrix(s) @ ks.transpose(0, 2, 1)).reshape(len(ks), -1).T

    def choi(self) -> np.ndarray:
        """Choi state (I x E)(|Phi+><Phi+|); trace 1 for TP channels."""
        x = self.factor(np.eye(self.din) / np.sqrt(self.din))
        return x @ dagger(x)

    def superoperator(self) -> np.ndarray:
        """din^2 -> dout^2 matrix acting on row-major vectorized operators.

        Entry ((a, b), (c, d)) is sum_k K_k[a, c] conj(K_k[b, d]), i.e.
        sum_k kron(K_k, conj(K_k)): one GEMM of the vectorized Kraus
        operators, entry ((a, c), (b, d)), then one transpose.
        """
        dout, din = self.dout, self.din
        vec = self.kraus.reshape(len(self.kraus), dout * din)
        s = (vec.T @ vec.conj()).reshape(dout, din, dout, din)
        return s.transpose(0, 2, 1, 3).reshape(dout * dout, din * din)


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel((np.eye(d),), d, d)


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = as_matrix(u)
    return KrausChannel((u,), u.shape[1], u.shape[0])


def max_entangled(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_j |j>|j> as a vector of length d^2."""
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def _check_complete(els: np.ndarray) -> None:
    if not np.max(np.abs(els.sum(0) - np.eye(els.shape[1]))) <= tol.TP_TOL:
        raise ValidationError("POVM elements do not sum to the identity")


@dataclass(frozen=True)
class Povm:
    """Positive operators summing to the identity, with outcome labels.

    `elements` is one read-only (n, d, d) array; the constructor accepts it
    or any sequence of matrices and checks the whole stack at once (one
    batched eigvalsh, one sum).

    Stacks the library builds Hermitian and PSD by construction come from
    the internal constructor `_from_stack`, which checks only their one
    sum, with no eigensolver and no Hermiticity scan: the random POVMs of
    randomgen and `transpose`.  Loaders, povm_from_ensemble and user code
    go through the public constructor.
    """

    elements: np.ndarray
    labels: tuple = field(default=None)

    def __post_init__(self):
        els = _stack(self.elements)
        if not len(els):
            raise ValidationError("POVM needs at least one element")
        d = els[0].shape[0]
        for m in els if isinstance(els, list) else els[:1]:
            if m.shape != (d, d):
                raise ShapeError("POVM elements must share one square shape")
        size = np.abs(els).max(axis=(1, 2))
        skew = np.abs(els - dagger(els)).max(axis=(1, 2))
        not_hermitian = skew > tol.HERM_TOL * (1 + size)
        not_psd = np.linalg.eigvalsh(hermitize(els))[:, 0] < -tol.PSD_TOL
        # the first element that fails names the failure, Hermiticity first
        bad = np.flatnonzero(not_hermitian | not_psd)
        if bad.size and not_hermitian[bad[0]]:
            raise ValidationError("POVM element is not Hermitian")
        if bad.size:
            raise NotPSDError("POVM element is not positive semidefinite")
        _check_complete(els)
        labels = self.labels
        if labels is None:
            labels = tuple(str(i) for i in range(len(els)))
        labels = tuple(str(l) for l in labels)
        if len(labels) != len(els):
            raise ValidationError("label count must match element count")
        object.__setattr__(self, "elements", els)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _from_stack(cls, stack: np.ndarray, labels: tuple | None = None) -> "Povm":
        """A POVM from an (n, d, d) stack of operators PSD by construction.

        For library-built stacks only: the stack must hold Hermitian PSD
        operators and not be written by anyone else; it is kept (contiguous
        and complex) read-only.  Only the one-sum completeness check runs,
        which also rejects NaN; there is no eigensolver and no Hermiticity
        scan.  `labels`, if given, are a POVM's validated labels.
        """
        els = np.ascontiguousarray(stack, dtype=complex)
        _check_complete(els)
        els.flags.writeable = False
        if labels is None:
            labels = tuple(str(i) for i in range(len(els)))
        povm = object.__new__(cls)
        object.__setattr__(povm, "elements", els)
        object.__setattr__(povm, "labels", labels)
        return povm

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return len(self.elements)

    def transposed_elements(self, basis: np.ndarray | None = None) -> np.ndarray:
        """The (n, d, d) stack of elementwise transposes, optionally in a
        unitary basis U: U (U† M U)^T U†.  A transpose of a POVM is a POVM,
        so the stack is not checked again."""
        return linalg.transpose_in_basis(self.elements, basis)

    def transpose(self, basis: np.ndarray | None = None) -> "Povm":
        """Elementwise transpose, optionally in a unitary basis, as a Povm.

        U (U† M U)^T U† is Hermitian and PSD for any U, so `_from_stack`'s
        completeness check is the one a non-unitary basis can fail."""
        return Povm._from_stack(self.transposed_elements(basis), self.labels)


def computational_povm(d: int) -> Povm:
    eye = np.eye(d)
    return Povm(tuple(np.outer(eye[i], eye[i]).astype(complex) for i in range(d)))


@dataclass(frozen=True)
class Ensemble:
    """Weighted family of density operators on one space."""

    members: tuple  # of (weight, DensityOperator)

    def __post_init__(self):
        ms = tuple((float(w), s) for w, s in self.members)
        if not ms:
            raise ValidationError("ensemble needs at least one member")
        d = ms[0][1].dim
        total = 0.0
        for w, s in ms:
            # written so that a nan weight fails
            if not w >= -tol.ZERO_PROB:
                raise ValidationError(f"ensemble weights must be nonnegative, got {w}")
            if s.dim != d:
                raise ShapeError("ensemble states must share one dimension")
            total += w
        if not abs(total - 1.0) <= tol.TRACE_TOL:
            raise ValidationError(f"ensemble weights sum to {total}, not 1")
        object.__setattr__(self, "members", ms)

    @property
    def dim(self) -> int:
        return self.members[0][1].dim

    def average(self) -> np.ndarray:
        return sum(w * s.matrix for w, s in self.members)


def born(m: Povm, rho: DensityOperator) -> Distribution:
    """Outcome distribution Tr(M rho)."""
    if m.dim != rho.dim:
        raise ShapeError("POVM and state dimensions differ")
    w = np.array([np.trace(el @ rho.matrix).real for el in m.elements])
    total = float(w.sum())
    if abs(total - 1.0) > tol.TRACE_TOL:
        raise ValidationError(f"Born probabilities sum to {total}, not 1")
    return Distribution(np.maximum(w, 0.0) / w.sum())


def m_measure(
    m: Povm, outcome: int, rho: DensityOperator
) -> tuple[float, DensityOperator]:
    """Outcome probability and square-root-rule updated state."""
    if m.dim != rho.dim:
        raise ShapeError("POVM and state dimensions differ")
    el = m.elements[outcome]
    prob = float(np.trace(el @ rho.matrix).real)
    if prob <= tol.ZERO_PROB:
        raise ZeroProbabilityError(
            f"outcome {outcome} has probability {prob:.3e}; conditional undefined"
        )
    root = linalg.support(el).power(0.5)
    post = hermitize(root @ rho.matrix @ root) / prob
    return prob, DensityOperator(post)


def m_prepare(m: Povm, rho: DensityOperator) -> Ensemble:
    """Ensemble {(Tr(M rho), sqrt(rho) M sqrt(rho)/Tr(M rho))}.

    Zero-probability outcomes are dropped.
    """
    if m.dim != rho.dim:
        raise ShapeError("POVM and state dimensions differ")
    root = rho.support.power(0.5)
    members = []
    for el in m.elements:
        prob = float(np.trace(el @ rho.matrix).real)
        if prob <= tol.ZERO_PROB:
            continue
        state = hermitize(root @ el @ root) / prob
        members.append((prob, DensityOperator(state)))
    return Ensemble(tuple(members))


def povm_from_ensemble(ens: Ensemble, rho: DensityOperator) -> Povm:
    """POVM whose preparation of rho reproduces the given ensemble.

    On the support of rho the elements are P(M) rho^{-1/2} rho(M) rho^{-1/2};
    the off-support remainder is split uniformly across the elements so the
    family sums to the identity.
    """
    if ens.dim != rho.dim:
        raise ShapeError("ensemble and state dimensions differ")
    if np.max(np.abs(ens.average() - rho.matrix)) > tol.ENSEMBLE_AVERAGE_TOL:
        raise ValidationError("ensemble does not average to the given state")
    supp = rho.support
    inv_root = supp.power(-0.5)
    perp = np.eye(rho.dim) - supp.projector
    k = len(ens.members)
    elements = tuple(
        hermitize(w * inv_root @ s.matrix @ inv_root) + perp / k
        for w, s in ens.members
    )
    return Povm(elements)


def reduced_channel(
    e: KrausChannel, dims_out: tuple[int, int], trace: str
) -> KrausChannel:
    """Compose a two-output channel with the partial trace over one factor.

    Tr_C o E has the Kraus operators (I x <c|) K_k and Tr_B o E the
    operators (<b| x I) K_k: one reshape of the Kraus stack, whose output
    index splits as (B slow, C fast).
    """
    db, dc = dims_out
    if db * dc != e.dout:
        raise ShapeError(f"output dim {e.dout} does not factor as {dims_out}")
    if trace not in ("B", "C"):
        raise ValidationError(f"trace must be 'B' or 'C', got {trace!r}")
    # the new family has the same sum K†K, so it needs no check
    ks = e.kraus.reshape(-1, db, dc, e.din)
    if trace == "C":
        return KrausChannel._from_stack(
            ks.transpose(0, 2, 1, 3).reshape(-1, db, e.din), e.din, db
        )
    return KrausChannel._from_stack(ks.reshape(-1, dc, e.din), e.din, dc)
