"""Seeded random instances for verification suites.

States come from Wishart-normalized Gaussians, channels from random
Stinespring isometries, POVMs from sum-normalized random positive operators.
Each is valid by construction and built by its class's internal
constructor, which runs no eigensolver; a POVM's completeness is still
checked by one sum.

Drawing and building are separate steps.  The draws read the stream in a
fixed order; the array builders (density_factor, stinespring_kraus,
povm_elements, diagonal_elements, iso_pair_stack) take the draws of one
instance or a stack of them, with a leading instance axis, and give each
instance what the one-instance constructors give it.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .duality import IsoPair, check_tp_on_support
from .errors import ValidationError
from .qobjects import DensityOperator, KrausChannel, Povm, check_complete, check_unit_trace


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


def complex_from(z: np.ndarray) -> np.ndarray:
    """Complex matrices from real Gaussians (..., 2, rows, cols): real parts, then imaginary."""
    return z[..., 0, :, :] + 1j * z[..., 1, :, :]


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """A complex standard normal array: its real part's draws, then its imaginary part's."""
    z = rng.standard_normal((2, *np.atleast_1d(shape)))
    return z[0] + 1j * z[1]


def random_unitary(d: int, rng) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian with fixed phases."""
    rng = rng_from(rng)
    q, r = np.linalg.qr(complex_gaussian(rng, (d, d)))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def density_factor(z: np.ndarray) -> np.ndarray:
    """The factor G / ||G||_F of the state G G† / ||G||_F^2, of the complex G
    of real Gaussians (2, d, rank), or for each G of a stack of them."""
    g = complex_from(z)
    return g / linalg.frobenius(g)[..., None, None]


def density_from(z: np.ndarray) -> DensityOperator:
    """The state of one draw (2, d, rank), held as its factor G / ||G||_F:
    PSD by construction, so no eigensolver runs, and its matrix and Support
    are formed when first read."""
    return DensityOperator._from_factor(density_factor(z))


def random_density(d: int, rng, rank: int | None = None) -> DensityOperator:
    """Normalized G G-dagger with a d x rank complex standard normal G."""
    return density_from(rng_from(rng).standard_normal((2, d, d if rank is None else rank)))


def _kraus_count(din: int, dout: int, k: int | None) -> int:
    """The Kraus count of a random channel: din by default; a (dout k) x din
    isometry needs dout k >= din, so at least ceil(din / dout)."""
    k = din if k is None else k
    if k < 1 or dout * k < din:
        raise ValidationError(
            f"a {din} -> {dout} channel needs at least {-(-din // dout)} Kraus operators, got {k}"
        )
    return k


def stinespring_kraus(z: np.ndarray, dout: int) -> np.ndarray:
    """The (k, dout, din) Kraus stack of the isometry Q of the thin QR of the
    complex (dout k) x din Gaussian of real ones (2, dout k, din), so
    sum K†K = I; for a stack of them, one batched QR and a stack of Kraus
    stacks."""
    q, _ = np.linalg.qr(complex_from(z))
    return q.reshape(*z.shape[:-3], -1, dout, z.shape[-1])


def channel_from(z: np.ndarray, dout: int) -> KrausChannel:
    """The trace-preserving channel of one Stinespring draw (2, dout k, din)."""
    return KrausChannel._from_stack(stinespring_kraus(z, dout), z.shape[-1], dout)


def random_channel(din: int, dout: int, rng, kraus_count: int | None = None) -> KrausChannel:
    """Trace-preserving channel from a random Stinespring isometry."""
    k = _kraus_count(din, dout, kraus_count)
    return channel_from(rng_from(rng).standard_normal((2, dout * k, din)), dout)


def povm_elements(z: np.ndarray) -> np.ndarray:
    """Elements of n positive operators G G-dagger normalized by the inverse
    root of their sum, from (..., n, 2, d, d) Gaussians: the real and
    imaginary parts of each G.

    The inverse root of each sum comes from one eigh, and one batched
    congruence normalizes the stack.  A stack of POVMs with fewer elements
    than n is padded with zero Gaussians, which give zero elements and
    leave every sum and every other element as they are.
    """
    g = complex_from(z)
    raw = g @ linalg.dagger(g)
    w, v = np.linalg.eigh(raw.sum(-3))
    inv_root = ((v / np.sqrt(w)[..., None, :]) @ linalg.dagger(v))[..., None, :, :]
    return linalg.hermitize(inv_root @ raw @ inv_root)


def random_povm(d: int, n: int, rng) -> Povm:
    """n positive operators G G-dagger normalized by the inverse root of their sum.

    The n Gaussians come from one draw of shape (n, 2, d, d): the same
    stream as n draws of a (d, d) real part and then a (d, d) imaginary
    part.
    """
    rng = rng_from(rng)
    return Povm._from_stack(povm_elements(rng.standard_normal((n, 2, d, d))))


def diagonal_elements(w: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Elements of the POVMs diagonal in a unitary basis, from (..., n, d)
    positive weights normalized by their column sums; one basis, or one per
    POVM of a stack.  A zero row of weights gives a zero element."""
    w = w / w.sum(-2, keepdims=True)
    u = linalg.as_matrix(np.eye(w.shape[-1]) if basis is None else basis, stack=True)
    u = u[..., None, :, :]
    return linalg.hermitize((u * w[..., None, :]) @ linalg.dagger(u))


def random_diagonal_povm(d: int, n: int, rng, basis: np.ndarray | None = None) -> Povm:
    """POVM whose elements are diagonal in the given unitary basis."""
    return Povm._from_stack(diagonal_elements(rng_from(rng).random((n, d)) + 1e-3, basis))


def draw_iso_pair(
    da: int, db: int, rng, rank: int | None = None, kraus_count: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The real Gaussians of random_iso_pair, in one draw: the state's
    (2, da, rank), then the channel's Stinespring (2, db k, da)."""
    r, k = da if rank is None else rank, _kraus_count(da, db, kraus_count)
    z = rng_from(rng).standard_normal(2 * da * (r + db * k))
    split = 2 * da * r
    return z[:split].reshape(2, da, r), z[split:].reshape(2, db * k, da)


def random_iso_pair(
    da: int, db: int, rng, rank: int | None = None, kraus_count: int | None = None
) -> IsoPair:
    g, a = draw_iso_pair(da, db, rng, rank, kraus_count)
    return IsoPair(density_from(g), channel_from(a, db))


def iso_pair_stack(g: np.ndarray, a: np.ndarray, db: int) -> tuple:
    """The pairs random_iso_pair builds from a stack of its draws, as arrays.

    Returns (rho, eigenvectors, ranks, root, kraus): rho's matrices; the
    eigenvectors and kept ranks of their Supports, from one batched thin
    SVD of the factors; rho^{1/2} on each support; and the channels'
    (k, dB, dA) Kraus stacks, from one batched QR.  The checks of the
    one-pair constructors run on the whole stack: each factor's unit trace
    and each channel's trace preservation on its state's support.
    """
    x = density_factor(g)
    check_unit_trace(x)
    supp = linalg.support_from_factor(x)
    kraus = stinespring_kraus(a, db)
    check_tp_on_support(supp.eigenvectors, supp.rank, kraus)
    rho = linalg.hermitize(x @ linalg.dagger(x))
    return rho, supp.eigenvectors, supp.rank, supp.power(0.5), kraus


def _padded(zs: list) -> tuple[np.ndarray, np.ndarray]:
    """Ragged draws (n_i, ...) as one zero-padded (len(zs), max n_i, ...)
    array, with the mask of the drawn entries."""
    counts = np.array([len(z) for z in zs])
    drawn = np.arange(counts.max()) < counts[:, None]
    padded = np.zeros(drawn.shape + zs[0].shape[1:])
    padded[drawn] = np.concatenate(zs)
    return padded, drawn


def povm_stack(zs: list) -> np.ndarray:
    """Elements of the random POVMs of ragged draws (n_i, 2, d, d), as one
    stack padded with zero elements to the largest n_i; each POVM's
    completeness is checked."""
    els = povm_elements(_padded(zs)[0])
    check_complete(els)
    return els


def diagonal_povm_stack(ws: list, bases: np.ndarray) -> np.ndarray:
    """Elements of the random_diagonal_povm of each of ragged uniform draws
    (n_i, d), in its own basis of `bases`, padded as povm_stack pads; each
    POVM's completeness is checked."""
    w, drawn = _padded(ws)
    w[drawn] += 1e-3
    els = diagonal_elements(w, bases)
    check_complete(els)
    return els
