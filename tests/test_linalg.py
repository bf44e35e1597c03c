import numpy as np
import pytest

from qduality import linalg
from qduality.errors import NotPSDError, ValidationError
from qduality.qobjects import DensityOperator, KrausChannel, identity_channel
from qduality.randomgen import complex_gaussian, random_density, random_unitary


@pytest.mark.parametrize(
    "spectrum, rank",
    [
        # four eigenvalues each under the cutoff (5e-11) weigh 1.6e-10 together,
        # more than a unit-trace check lets a cut drop
        ([0.5, 0.5] + [4e-11] * 4, 6),
        # one of them alone weighs less than RANK_TAIL_FACTOR times the largest
        ([1.0, 4e-11], 1),
        # a tail of rounding noise still reads as zero
        ([1.0] + [1e-17] * 50, 1),
    ],
)
def test_kept_rank_bounds_the_mass_counted_as_zero(spectrum, rank):
    assert linalg.kept_rank(np.array(spectrum)) == rank


def test_hermitize_and_is_hermitian(rng):
    g = complex_gaussian(rng, (4, 4))
    h = linalg.hermitize(g)
    assert linalg.is_hermitian(h)
    assert not linalg.is_hermitian(g + np.diag([1j, 0, 0, 0]))


def shifted_psd(rng, d):
    # a random Hermitian matrix shifted by a multiple of I to be positive definite
    h = linalg.hermitize(complex_gaussian(rng, (d, d)))
    return h + 2 * np.abs(h).sum() * np.eye(d)


def test_support_reconstructs_and_sorts(rng):
    h = shifted_psd(rng, 5)
    eig = linalg.support(h)
    assert np.all(np.diff(eig.eigenvalues) <= 0)
    v = eig.eigenvectors
    assert np.allclose((v * eig.eigenvalues) @ v.conj().T, h, atol=1e-12)
    # columns orthonormal
    assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-12)
    # phase convention: each column's largest-modulus entry is real and >= 0
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(5)]
    assert np.all(np.abs(pivots.imag) <= 1e-15) and np.all(pivots.real >= 0)


def test_support_reverses_eigh_without_sorting(rng):
    # degenerate eigenvalues keep eigh's own order, reversed
    u = linalg.support(shifted_psd(rng, 5)).eigenvectors
    h = linalg.hermitize((u * np.array([3.0, 2.0, 2.0, 2.0, 1.0])) @ u.conj().T)
    w, v = np.linalg.eigh(h)
    eig = linalg.support(h)
    assert np.array_equal(eig.eigenvalues, w[::-1])
    assert np.array_equal(eig.eigenvectors, linalg._fix_phases(v[:, ::-1]))


def test_psd_sqrt_squares_back(rng):
    p = random_density(4, rng).matrix
    r = linalg.support(p).power(0.5)
    assert np.allclose(r @ r, p, atol=1e-12)
    assert linalg.is_hermitian(r)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        linalg.support(np.diag([1.0, -0.5]))


def with_entry(value):
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = m[1, 0] = value
    return m


@pytest.mark.parametrize(
    "bad",
    [with_entry(complex(0.1, np.nan)), with_entry(complex(np.inf, 0.0))],
    ids=["imag-nan", "real-inf"],
)
@pytest.mark.parametrize(
    "use",
    [
        DensityOperator,
        lambda m: KrausChannel((m, np.eye(2)), 2, 2),
        lambda m: identity_channel(2)(m),
        lambda m: linalg.partial_trace(m, (1, 2), "B"),
    ],
    ids=["state", "kraus", "channel-call", "partial-trace"],
)
def test_non_finite_part_is_rejected(bad, use):
    # a non-finite value in only one of the real and imaginary parts
    with pytest.raises(ValidationError, match="non-finite"):
        use(bad)


def test_partial_trace_against_einsum(rng):
    m = linalg.hermitize(complex_gaussian(rng, (6, 6)))
    t = m.reshape(2, 3, 2, 3)
    assert np.allclose(
        linalg.partial_trace(m, (2, 3), "A"), np.einsum("ijkj->ik", t), atol=1e-13
    )
    assert np.allclose(
        linalg.partial_trace(m, (2, 3), "B"), np.einsum("ijil->jl", t), atol=1e-13
    )


def test_partial_trace_of_product(rng):
    a = random_density(2, rng).matrix
    b = random_density(3, rng).matrix
    m = np.kron(a, b)
    assert np.allclose(linalg.partial_trace(m, (2, 3), "A"), a, atol=1e-12)
    assert np.allclose(linalg.partial_trace(m, (2, 3), "B"), b, atol=1e-12)


def test_support_pinv_properties(rng):
    p = random_density(5, rng, rank=3).matrix
    supp = linalg.support(p)
    inv, rank = supp.power(-1.0), supp.rank
    assert rank == 3
    proj = supp.projector
    assert np.allclose(inv @ p, proj, atol=1e-10)
    inv_root = supp.power(-0.5)
    assert np.allclose(inv_root @ p @ inv_root, proj, atol=1e-10)


def test_support_isometry_spans_support(rng):
    p = random_density(4, rng, rank=2).matrix
    supp = linalg.support(p)
    v = supp.isometry
    assert v.shape == (4, 2)
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)
    assert np.allclose(v @ v.conj().T, supp.projector, atol=1e-10)


def test_support_from_factor_matches_eigendecomposition(rng):
    x = complex_gaussian(rng, (6, 3))
    p = x @ x.conj().T
    by_svd, by_eigh = linalg.support_from_factor(x), linalg.support(p)
    assert by_svd.eigenvalues.shape == (6,)
    assert by_svd.rank == by_eigh.rank == 3
    assert np.allclose(by_svd.eigenvalues, by_eigh.eigenvalues, atol=1e-12)
    assert np.allclose(by_svd.projector, by_eigh.projector, atol=1e-12)
    assert np.allclose(by_svd.power(0.5), by_eigh.power(0.5), atol=1e-12)
    y = by_svd.factor()
    assert np.allclose(y @ y.conj().T, p, atol=1e-12)


def test_support_from_factor_resolves_small_eigenvalues(rng):
    s = np.array([1.0, 1e-3, 1e-9])
    u = random_unitary(4, rng)[:, :3]
    x = (u * s) @ random_unitary(3, rng)
    supp = linalg.support_from_factor(x)
    assert np.allclose(supp.eigenvalues, [1.0, 1e-6, 1e-18, 0.0], rtol=1e-6, atol=0)
    # 1e-18 is below the rank cutoff but above the SVD's rounding level, so
    # the factor keeps its eigenvector
    assert supp.rank == 2
    y = supp.factor()
    assert y.shape == (4, 3)
    assert abs(np.vdot(u[:, 2], y[:, 2])) / 1e-9 == pytest.approx(1.0, abs=1e-6)


def test_schmidt_rank_of_product_state(rng):
    a = complex_gaussian(rng, 3)
    b = complex_gaussian(rng, 2)
    v = np.kron(a, b)
    assert linalg.schmidt_rank(v / np.linalg.norm(v), (3, 2)) == 1


def test_random_unitary_is_unitary(rng):
    u = random_unitary(4, rng)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
