import numpy as np
import pytest

from qduality import linalg
from qduality.qobjects import DensityOperator
from qduality.randomgen import complex_gaussian, random_density, random_povm, rng_from


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


@pytest.mark.parametrize("d, n", [(1, 2), (2, 4), (3, 5), (6, 3)])
def test_random_povm_matches_per_element_construction(d, n):
    for seed in range(5):
        got = random_povm(d, n, seed).elements
        want = _old_povm(d, n, seed)
        assert got.shape == (n, d, d)
        assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) <= 1e-14


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
