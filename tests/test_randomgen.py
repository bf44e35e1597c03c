import numpy as np
import pytest

from qduality import linalg
from qduality.errors import ValidationError
from qduality.qobjects import DensityOperator, KrausChannel, Povm, reduced_channel
from qduality.randomgen import (
    complex_gaussian,
    random_channel,
    random_density,
    random_diagonal_povm,
    random_povm,
    random_unitary,
    rng_from,
)


def _old_density(d, rng, rank=None):
    # one normalized G G† through the public constructor
    rng = rng_from(rng)
    g = complex_gaussian(rng, (d, d if rank is None else rank))
    m = g @ linalg.dagger(g)
    return DensityOperator(linalg.hermitize(m / np.trace(m).real)).matrix


def _old_povm(d, n, rng):
    # one element at a time, each normalized by its own congruence
    rng = rng_from(rng)
    raw = []
    for _ in range(n):
        g = complex_gaussian(rng, (d, d))
        raw.append(g @ linalg.dagger(g))
    inv_root = linalg.support(sum(raw)).power(-0.5)
    return [linalg.hermitize(inv_root @ e @ inv_root) for e in raw]


@pytest.mark.parametrize("d, rank", [(1, None), (3, None), (5, 2), (8, None)])
def test_random_density_matches_per_element_construction(d, rank):
    for seed in range(5):
        state = random_density(d, seed, rank)
        assert "matrix" not in vars(state)
        assert np.max(np.abs(state.matrix - _old_density(d, seed, rank))) <= 1e-14


def _old_diagonal_povm(d, n, rng, basis=None):
    # one element at a time, each through its own congruence
    rng = rng_from(rng)
    w = rng.random((n, d)) + 1e-3
    w /= w.sum(axis=0)
    elements = []
    for row in w:
        el = np.diag(row).astype(complex)
        if basis is not None:
            el = basis @ el @ linalg.dagger(basis)
        elements.append(linalg.hermitize(el))
    return elements


_POVM_SIZES = [(1, 2), (2, 4), (2, 5), (3, 4), (3, 5), (5, 3), (6, 3)]


@pytest.mark.parametrize("d, n", _POVM_SIZES)
def test_random_povm_matches_per_element_construction(d, n):
    for seed in range(5):
        new_rng, old_rng = rng_from(seed), rng_from(seed)
        got = random_povm(d, n, new_rng).elements
        want = _old_povm(d, n, old_rng)
        assert got.shape == (n, d, d)
        assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) <= 1e-14
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("d, n", _POVM_SIZES)
def test_random_diagonal_povm_matches_per_element_construction(d, n, rotated):
    for seed in range(5):
        basis = random_unitary(d, 100 + seed) if rotated else None
        new_rng, old_rng = rng_from(seed), rng_from(seed)
        got = random_diagonal_povm(d, n, new_rng, basis).elements
        want = _old_diagonal_povm(d, n, old_rng, basis)
        assert got.shape == (n, d, d)
        assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) <= 1e-14
        assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_one_draw_is_the_stream_of_per_element_draws():
    # random_povm's (n, 2, d, d) draw: n pairs of (d, d) real, imaginary parts
    n, d = 4, 3
    one = rng_from(7).standard_normal((n, 2, d, d))
    rng = rng_from(7)
    pairs = [(rng.standard_normal((d, d)), rng.standard_normal((d, d))) for _ in range(n)]
    assert np.array_equal(one, np.array(pairs))


def test_diagonal_povm_in_a_bad_basis_is_rejected():
    # the one-sum check and the basis' finiteness check stand in for the
    # public constructor's
    with pytest.raises(ValidationError, match="sum to the identity"):
        random_diagonal_povm(3, 2, 0, basis=2 * np.eye(3))
    with pytest.raises(ValidationError, match="non-finite"):
        random_diagonal_povm(3, 2, 0, basis=np.full((3, 3), np.nan))


@pytest.mark.parametrize("d, n", _POVM_SIZES)
def test_trusted_outputs_pass_the_public_constructors(d, n):
    for seed in range(3):
        rng = rng_from(seed)
        povms = [
            random_povm(d, n, rng),
            random_diagonal_povm(d, n, rng),
            random_diagonal_povm(d, n, rng, random_unitary(d, rng)),
        ]
        povms.append(povms[0].transpose(random_unitary(d, rng)))
        for m in povms:
            assert not m.elements.flags.writeable
            assert np.array_equal(Povm(m.elements, m.labels).elements, m.elements)
        e = random_channel(d, 2 * n, rng, kraus_count=d + 1)
        for c in (e, reduced_channel(e, (2, n), "C"), reduced_channel(e, (2, n), "B")):
            assert not c.kraus.flags.writeable
            assert np.array_equal(KrausChannel(c.kraus, c.din, c.dout).kraus, c.kraus)


def test_generators_draw_from_a_shared_stream_in_the_old_order():
    # the next draw after each generator is the same as after the old one
    for make, old in ((random_density, _old_density), (random_povm, _old_povm)):
        args = (3,) if make is random_density else (3, 4)
        new_rng, old_rng = rng_from(11), rng_from(11)
        make(*args, new_rng)
        old(*args, old_rng)
        assert new_rng.random() == old_rng.random()


def test_random_density_runs_no_eigensolver(numpy_calls):
    state = random_density(4, 0)
    assert abs(np.trace(state.matrix) - 1) <= 1e-15
    assert numpy_calls["eigh"] == numpy_calls["eigvalsh"] == numpy_calls["svd"] == []
    # the Support is one thin SVD of the factor, taken when first read
    assert state.support.rank == 4
    assert numpy_calls["svd"] == [(4, 4)]


@pytest.mark.parametrize(
    "din, dout, count",
    [(3, 3, 0), (4, 2, 1), (5, 2, 2)],
    ids=["no-kraus", "isometry-too-short", "one-short-of-ceil"],
)
def test_random_channel_rejects_a_kraus_count_it_cannot_build(din, dout, count):
    # a (dout k) x din Stinespring isometry needs k >= 1 and dout k >= din
    with pytest.raises(ValidationError, match="Kraus operators"):
        random_channel(din, dout, 0, kraus_count=count)
