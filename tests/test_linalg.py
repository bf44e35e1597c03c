import numpy as np
import pytest

from qduality import linalg
from qduality import tolerances as tol
from qduality.errors import NotPSDError, ValidationError
from qduality.qobjects import DensityOperator, KrausChannel, identity_channel
from qduality.randomgen import complex_gaussian, random_density, random_unitary


@pytest.mark.parametrize(
    "spectrum, rank",
    [
        # four eigenvalues each under 5e-11 of the largest weigh 1.6e-10
        # together, more than a unit-trace check lets a cut drop
        ([0.5, 0.5] + [4e-11] * 4, 6),
        # one of them alone clears the bar, RANK_TAIL_FACTOR / 2 times the largest
        ([1.0, 4e-11], 2),
        # a tail of rounding noise still reads as zero
        ([1.0] + [1e-17] * 50, 1),
    ],
)
def test_kept_rank_bounds_the_mass_counted_as_zero(spectrum, rank):
    assert linalg.kept_rank(np.array(spectrum)) == rank


def _two_rule_kept_rank(w):
    """kept_rank as it was with a second rule: an entry above the cutoff
    max(1e-10 x the largest, 1e-12) counted whatever the tail bound said."""
    top = w[..., :1]
    kept = w > np.maximum(1e-10 * top, 1e-12)
    if not kept.all():
        tail = w[..., ::-1].cumsum(-1)[..., ::-1]
        kept |= tail > tol.RANK_TAIL_FACTOR * top
    rank = kept.sum(-1)
    return int(rank) if rank.ndim == 0 else rank


def _spectra_around_the_old_cutoff(n, d=12):
    """n descending nonnegative spectra of length d: the first rows built by
    hand at the edges of the old cutoff and of the tail bound, the rest random."""
    rng = np.random.default_rng(24)
    rows = [np.zeros(d), np.eye(d)[0], np.full(d, 1.0 / d)]
    for top in (1.0, 0.3, 1e-2, 1e-3, 1e-6, 1e-12):
        for ratio in (1e-10, 5e-11, 4e-11, 3e-11, 1e-12 / top):
            for count in (1, 2, d - 1):
                rows.append(np.r_[top, np.full(count, ratio * top), np.zeros(d - 1 - count)])
        # the old cutoff's floor itself, and a tail that sums to the bound
        rows.append(np.r_[top, np.full(d - 1, 1e-12)])
        rows.append(np.r_[top, 2.5e-11 * top, 2.5e-11 * top, np.zeros(d - 3)])
    hand = np.array(rows)
    m = n - len(hand)
    # tops from 1 down to 1e-16 (below 1e-2 the floor 1e-12 binds), entries
    # graded down to 1e-14 of the top, and trailing zeros
    top = 10.0 ** -rng.uniform(0, 16, (m, 1))
    w = -np.sort(-(top * 10.0 ** -rng.uniform(0, 14, (m, d))), axis=1)
    w[:, 0] = top[:, 0]
    w[np.arange(d) >= rng.integers(1, d + 1, (m, 1))] = 0.0
    # ties: some entries set to 1e-10, 5e-11, 4e-11 or 3e-11 of the top
    tie = rng.random((m, d)) < 0.1
    tie[:, 0] = False
    factors = np.array([1e-10, 5e-11, 4e-11, 3e-11])[rng.integers(0, 4, (m, d))]
    w = np.where(tie, factors * top, w)
    return np.vstack([hand, -np.sort(-w, axis=1)])


def test_kept_rank_keeps_at_least_the_two_rule_rank():
    # an entry the tail bound counted is at least its tail over d, more than
    # RANK_TAIL_FACTOR / d times the largest: the per-entry bar counts it
    # too.  What the bar counts as zero, at most d - 1 entries each under
    # it, still weighs at most the tail bound.
    spectra = _spectra_around_the_old_cutoff(100_000)
    d = spectra.shape[1]
    ranks = linalg.kept_rank(spectra)
    two_rule = _two_rule_kept_rank(spectra)
    assert np.all(ranks >= two_rule) and np.any(ranks > two_rule)
    assert np.array_equal(ranks, (spectra > tol.RANK_TAIL_FACTOR / d * spectra[:, :1]).sum(1))
    dropped = np.where(np.arange(d) >= ranks[:, None], spectra, 0.0).sum(1)
    assert np.all(dropped <= tol.RANK_TAIL_FACTOR * spectra[:, 0])
    # full, partial and zero ranks all occur
    assert {0, 1, d} <= set(ranks.tolist()) and len(set(ranks.tolist())) > 3
    # each spectrum alone, for the hand-built rows and a sample of the rest
    for w, rank in zip(spectra[:10_000], ranks):
        assert linalg.kept_rank(w) == rank
    assert linalg.kept_rank(spectra[:5, :0]).tolist() == [0] * 5
    assert linalg.kept_rank(np.zeros(0)) == 0


def _near_cutoff_spectra(n, rng):
    """n spectra of lengths 2-8: a top entry of 1 and the rest between 1e-12
    and 10^-9.5, around the bar; each row padded with zeros to length 8, and
    its length."""
    lengths = rng.integers(2, 9, n)
    w = -np.sort(-(10.0 ** -rng.uniform(9.5, 12, (n, 8))), axis=1)
    w[:, 0] = 1.0
    w[np.arange(8) >= lengths[:, None]] = 0.0
    return w, lengths


def test_kept_rank_of_a_spectrum_cut_at_its_rank_is_that_rank():
    # each kept entry clears the bar alone, so a second cut drops nothing:
    # the spectrum of tau_A, rho's cut at its rank, gets rho's rank back
    spectra, lengths = _near_cutoff_spectra(20_000, np.random.default_rng(25))
    rows = [spectra[lengths == d, :d] for d in range(2, 9)]
    for w in rows + [_spectra_around_the_old_cutoff(10_000)]:
        ranks = linalg.kept_rank(w)
        cut = np.where(np.arange(w.shape[1]) < ranks[:, None], w, 0.0)
        assert np.array_equal(linalg.kept_rank(cut), ranks)
        assert len(set(ranks.tolist())) > 1


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
    # 1e-18 is under the tail bound, so outside the support rank, but above
    # the SVD's rounding level, so the factor keeps its eigenvector
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
