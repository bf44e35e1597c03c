"""Seeded random instances for verification suites.

States come from Wishart-normalized Gaussians, channels from random
Stinespring isometries, POVMs from sum-normalized random positive operators.
Each is valid by construction and built by its class's internal
constructor, which runs no eigensolver; a POVM's completeness is still
checked by one sum.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .duality import IsoPair
from .errors import ValidationError
from .qobjects import DensityOperator, KrausChannel, Povm


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(d: int, rng) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian with fixed phases."""
    rng = rng_from(rng)
    q, r = np.linalg.qr(complex_gaussian(rng, (d, d)))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_density(d: int, rng, rank: int | None = None) -> DensityOperator:
    """Normalized G G-dagger with a d x rank complex standard normal G.

    The state is held as its factor G / ||G||_F: PSD by construction, so no
    eigensolver runs, and its matrix and Support are formed when first read.
    """
    rng = rng_from(rng)
    rank = d if rank is None else rank
    g = complex_gaussian(rng, (d, rank))
    return DensityOperator._from_factor(g / np.linalg.norm(g))


def random_channel(din: int, dout: int, rng, kraus_count: int | None = None) -> KrausChannel:
    """Trace-preserving channel from a random Stinespring isometry.

    The (dout k) x din isometry needs dout k >= din: at least ceil(din / dout)
    Kraus operators.
    """
    rng = rng_from(rng)
    k = din if kraus_count is None else kraus_count
    if k < 1 or dout * k < din:
        raise ValidationError(
            f"a {din} -> {dout} channel needs at least {-(-din // dout)} Kraus operators, got {k}"
        )
    a = complex_gaussian(rng, (dout * k, din))
    q, _ = np.linalg.qr(a)  # (dout*k) x din isometry, so sum K†K = I
    return KrausChannel._from_stack(q.reshape(k, dout, din), din, dout)


def random_povm(d: int, n: int, rng) -> Povm:
    """n positive operators G G-dagger normalized by the inverse root of their sum.

    The n Gaussians come from one draw of shape (n, 2, d, d): the same
    stream as n draws of a (d, d) real part and then a (d, d) imaginary
    part.  The inverse root of the sum comes from one eigh, and one batched
    congruence normalizes the stack.
    """
    rng = rng_from(rng)
    z = rng.standard_normal((n, 2, d, d))
    g = z[:, 0] + 1j * z[:, 1]
    raw = g @ linalg.dagger(g)
    w, v = np.linalg.eigh(raw.sum(0))
    inv_root = (v / np.sqrt(w)) @ linalg.dagger(v)
    return Povm._from_stack(linalg.hermitize(inv_root @ raw @ inv_root))


def random_diagonal_povm(d: int, n: int, rng, basis: np.ndarray | None = None) -> Povm:
    """POVM whose elements are diagonal in the given unitary basis."""
    rng = rng_from(rng)
    w = rng.random((n, d)) + 1e-3
    w /= w.sum(axis=0)
    if basis is None:
        return Povm._from_stack(w[:, :, None] * np.eye(d))
    u = linalg.as_matrix(basis)
    return Povm._from_stack(linalg.hermitize((u * w[:, None, :]) @ linalg.dagger(u)))


def random_iso_pair(
    da: int, db: int, rng, rank: int | None = None, kraus_count: int | None = None
) -> IsoPair:
    rng = rng_from(rng)
    rho = random_density(da, rng, rank)
    channel = random_channel(da, db, rng, kraus_count)
    return IsoPair(rho, channel)
