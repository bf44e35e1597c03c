import numpy as np
import pytest

from qduality.classical import (
    Distribution,
    JointTable,
    StochasticMatrix,
    classical_iso_roundtrip,
    compose,
    conditional,
    evolve,
    marginals,
)
from qduality import correlations
from qduality.duality import iso_forward
from qduality.errors import SupportError, ValidationError
from qduality.qobjects import Ensemble, computational_povm, pure_state
from qduality.randomgen import random_iso_pair


def random_instance(rng, ny=4, nx=3, zeros=()):
    p = rng.random(nx)
    for j in zeros:
        p[j] = 0.0
    p /= p.sum()
    g = rng.random((ny, nx))
    g /= g.sum(axis=0)
    return Distribution(p), StochasticMatrix(g)


def test_compose_marginals_roundtrip(rng):
    p, g = random_instance(rng)
    joint = compose(p, g)
    px, py = marginals(joint)
    assert np.allclose(px.weights, p.weights, atol=1e-14)
    assert np.allclose(py.weights, g.entries @ p.weights, atol=1e-14)


def test_roundtrip_exact_on_support(rng):
    p, g = random_instance(rng, zeros=(1,))
    p2, g2 = classical_iso_roundtrip(p, g)
    assert np.allclose(p2.weights, p.weights, atol=1e-14)
    mask = p.weights > 0
    assert np.allclose(g2.entries[:, mask], g.entries[:, mask], atol=1e-14)
    # undefined column zeroed and unmasked
    assert not g2.support_mask[1]
    assert np.all(g2.entries[:, 1] == 0)


def test_evolve_matches_matrix_action(rng):
    p, g = random_instance(rng)
    out = evolve(p, g)
    assert np.allclose(out.weights, g.entries @ p.weights, atol=1e-14)


def test_compose_rejects_undefined_supported_column(rng):
    p = Distribution(np.array([0.5, 0.5]))
    entries = np.array([[1.0, 0.0], [0.0, 0.0]])
    g = StochasticMatrix(entries, support_mask=np.array([True, False]))
    with pytest.raises(SupportError):
        compose(p, g)


def test_distribution_validation():
    with pytest.raises(ValidationError):
        Distribution(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        Distribution(np.array([1.1, -0.1]))


def test_stochastic_matrix_validation():
    with pytest.raises(ValidationError):
        StochasticMatrix(np.array([[0.5, 0.2], [0.4, 0.8]]))


def test_joint_distribution_validation():
    with pytest.raises(ValidationError):
        JointTable(np.array([[0.5, 0.4], [0.4, 0.4]]))


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0.6, -0.1], [0.3, 0.2]], "joint table has negative entries"),
        ([[0.5, 0.4], [0.4, 0.4]], "joint table sums to 1.7000000000000002, not 1"),
        ([0.5, 0.5], "joint table must be a matrix"),
        ([[[1.0]]], "joint table must be a matrix"),
    ],
    ids=["negative", "sum", "ndim-1", "ndim-3"],
)
def test_joint_distribution_rejection_names_the_failure(table, message):
    with pytest.raises(ValidationError) as info:
        JointTable(np.array(table))
    assert str(info.value) == message


def test_conditional_of_deterministic_dynamics():
    table = np.array([[0.3, 0.0], [0.0, 0.7]])
    g = conditional(JointTable(table))
    assert np.allclose(g.entries, np.eye(2), atol=1e-14)


def _stack_with_a_nan_table():
    # two copies of one pair, the second with a nan in tau's factor
    pair = random_iso_pair(2, 2, np.random.default_rng(0))
    m, n = computational_povm(2), computational_povm(2)
    x = np.stack([iso_forward(pair).state.factor()] * 2)
    x[1, 0, 0] = np.nan
    correlations.equivalence_deviations(
        np.stack([pair.root] * 2), np.stack([pair.channel.kraus] * 2), x,
        np.stack([m.elements] * 2), np.stack([n.elements] * 2), pair.dims,
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: Distribution([np.nan, 1.0]),
        lambda: JointTable([[np.nan, 0.5], [0.25, 0.25]]),
        lambda: StochasticMatrix([[np.nan, 0.5], [1.0, 0.5]]),
        _stack_with_a_nan_table,
        lambda: Ensemble(((np.nan, pure_state(np.array([1.0, 0.0]))),)),
    ],
    ids=["distribution", "joint-table", "stochastic-column", "table-of-a-stack", "ensemble"],
)
def test_nan_probability_is_rejected(build):
    with pytest.raises(ValidationError):
        build()
