import numpy as np
import pytest

from qduality.correlations import (
    JointTable,
    joint_parallel,
    joint_sequential,
    sample,
    verify_equivalence,
)
from qduality.duality import IsoPair, eigenbasis, iso_forward
from qduality.errors import ValidationError
from qduality.qobjects import born
from qduality.randomgen import random_iso_pair, random_povm


def test_joint_table_validation():
    with pytest.raises(ValidationError):
        JointTable(np.array([[0.5, 0.4], [0.4, 0.4]]), ("a", "b"), ("c", "d"))


def test_parallel_equals_sequential(rng):
    pair = random_iso_pair(2, 3, rng)
    m = random_povm(2, 4, rng)
    n = random_povm(3, 3, rng)
    assert verify_equivalence(pair, m, n) < 1e-12


def test_equivalence_in_rotated_basis(rng):
    pair = random_iso_pair(3, 2, rng)
    basis = eigenbasis(pair.rho)
    m = random_povm(3, 3, rng)
    n = random_povm(2, 2, rng)
    tau = iso_forward(pair, basis)
    p = joint_parallel(tau, m, n)
    q = joint_sequential(pair, m, n, basis)
    assert np.max(np.abs(p.probs - q.probs)) < 1e-12


def test_sequential_m_marginal_is_transposed_born(rng):
    pair = random_iso_pair(3, 3, rng)
    m = random_povm(3, 4, rng)
    n = random_povm(3, 2, rng)
    table = joint_sequential(pair, m, n)
    expected = born(m.transpose(), pair.rho)
    assert np.allclose(table.m_marginal(), expected.weights, atol=1e-12)


def test_sample_deterministic_and_close(rng):
    t = JointTable(np.full((2, 2), 0.25), ("0", "1"), ("0", "1"))
    r1 = sample(t, 100000, 42)
    r2 = sample(t, 100000, 42)
    assert np.array_equal(r1.counts, r2.counts)
    assert r1.counts.sum() == 100000
    assert r1.tv_distance <= 0.02


def test_sample_concentrates_on_point_mass():
    t = JointTable(np.array([[1.0, 0.0], [0.0, 0.0]]), ("0", "1"), ("0", "1"))
    r = sample(t, 1000, 7)
    assert r.counts[0, 0] == 1000
    assert r.tv_distance == 0.0


def _bincount_sample(table, trials, seed):
    """Counts by locating each draw in the cdf, the sampler's defining formula."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(table.probs.reshape(-1))
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, rng.random(trials), side="right")
    return np.bincount(draws, minlength=cdf.size).reshape(table.probs.shape)


@pytest.mark.parametrize(
    "probs",
    [
        np.array([[0.0, 0.3, 0.0], [0.2, 0.0, 0.5]]),
        np.array([[0.0, 0.0], [0.0, 1.0]]),
        np.array([[1.0]]),
        np.array([[0.1, 0.2, 0.3, 0.4, 0.0]]),
    ],
)
def test_sample_counts_match_per_draw_search(probs):
    t = JointTable(probs, tuple(map(str, range(probs.shape[0]))), tuple(map(str, range(probs.shape[1]))))
    for seed in range(10):
        got = sample(t, 5000, seed).counts
        want = _bincount_sample(t, 5000, seed)
        assert got.dtype == want.dtype and np.array_equal(got, want)
