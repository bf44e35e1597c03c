"""Seeded random instances for verification suites.

States come from Wishart-normalized Gaussians, channels from random
Stinespring isometries, POVMs from sum-normalized random positive operators.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .duality import IsoPair
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
    """Trace-preserving channel from a random Stinespring isometry."""
    rng = rng_from(rng)
    k = din if kraus_count is None else kraus_count
    a = complex_gaussian(rng, (dout * k, din))
    q, _ = np.linalg.qr(a)  # (dout*k) x din isometry
    return KrausChannel(q.reshape(k, dout, din), din, dout)


def random_povm(d: int, n: int, rng) -> Povm:
    """n positive operators G G-dagger normalized by the inverse root of their sum.

    The n Gaussians are drawn one after another, each real part before its
    imaginary part, and stacked; one batched congruence normalizes them.
    """
    rng = rng_from(rng)
    g = np.stack([complex_gaussian(rng, (d, d)) for _ in range(n)])
    raw = g @ linalg.dagger(g)
    inv_root = linalg.support(raw.sum(0)).power(-0.5)
    return Povm(linalg.hermitize(inv_root @ raw @ inv_root))


def random_diagonal_povm(d: int, n: int, rng, basis: np.ndarray | None = None) -> Povm:
    """POVM whose elements are diagonal in the given basis."""
    rng = rng_from(rng)
    w = rng.random((n, d)) + 1e-3
    w /= w.sum(axis=0)
    elements = []
    for row in w:
        el = np.diag(row).astype(complex)
        if basis is not None:
            el = basis @ el @ linalg.dagger(basis)
        elements.append(linalg.hermitize(el))
    return Povm(tuple(elements))


def random_iso_pair(
    da: int, db: int, rng, rank: int | None = None, kraus_count: int | None = None
) -> IsoPair:
    rng = rng_from(rng)
    rho = random_density(da, rng, rank)
    channel = random_channel(da, db, rng, kraus_count)
    return IsoPair(rho, channel)
