import numpy as np
import pytest

from qduality import correlations, linalg
from qduality import tolerances as tol
from qduality.classical import marginals
from qduality.correlations import (
    JointTable,
    joint_parallel,
    joint_sequential,
    sample,
    verify_equivalence,
)
from qduality.duality import BipartiteState, IsoPair, eigenbasis, iso_forward
from qduality.errors import ValidationError
from qduality.qobjects import DensityOperator
from qduality.randomgen import random_iso_pair, random_povm, random_unitary


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
    expected = [np.trace(el @ pair.rho.matrix).real for el in m.transpose().elements]
    assert np.allclose(marginals(table)[0].weights, expected, atol=1e-12)


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


def _multinomial_counts(table, trials, seed):
    """One multinomial draw over the widths of the inverse-CDF cells, the
    sampler's defining formula: the differences of the cumulative sums
    capped at 1, the last one set to 1."""
    edges = np.minimum(np.cumsum(table.probs.reshape(-1)), 1.0)
    edges[-1] = 1.0
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.multinomial(trials, np.diff(edges, prepend=0.0)).reshape(table.probs.shape)


SAMPLED_TABLES = [
    np.array([[0.0, 0.3, 0.0], [0.2, 0.0, 0.5]]),
    np.array([[0.0, 0.0], [0.0, 1.0]]),
    np.array([[1.0]]),
    np.array([[0.1, 0.2, 0.3, 0.4, 0.0]]),
]


def _labelled(probs):
    return JointTable(probs, tuple(map(str, range(probs.shape[0]))), tuple(map(str, range(probs.shape[1]))))


@pytest.mark.parametrize("probs", SAMPLED_TABLES)
def test_sample_counts_are_one_multinomial_draw(probs):
    t = _labelled(probs)
    for seed in range(10):
        got = sample(t, 5000, seed).counts
        want = _multinomial_counts(t, 5000, seed)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("probs", SAMPLED_TABLES)
def test_sample_counts_follow_the_table(probs):
    # over 200 seeds the mean count of each cell lies within 4 sigma of
    # trials * p, and a zero cell is never drawn
    t, trials, seeds = _labelled(probs), 5000, 200
    counts = np.array([sample(t, trials, seed).counts for seed in range(seeds)])
    assert np.all(counts.sum((-2, -1)) == trials)
    sigma = np.sqrt(trials * probs * (1 - probs) / seeds)
    assert np.all(np.abs(counts.mean(0) - trials * probs) <= 4 * sigma)
    assert np.all(counts[:, probs == 0] == 0)


def test_sample_of_a_table_summing_past_one():
    # a table the loader accepts, summing to 1 + TRACE_TOL / 2: its cells past
    # 1 are capped, so the last, zero cell gets no draws and nothing raises
    probs = np.array([[0.5, 0.5 + tol.TRACE_TOL / 2, 0.0]])
    counts = sample(_labelled(probs), 1000, 0).counts
    assert counts.sum() == 1000 and counts[0, 2] == 0


def _formed_table(tau, m, n):
    # Tr((M_a x N_b) tau) from tau's formed matrix
    t = tau.state.matrix
    return np.array([[np.trace(np.kron(ma, nb) @ t).real for nb in n.elements] for ma in m.elements])


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("da, db, rank, kraus", [(2, 3, None, None), (3, 2, 2, 4), (3, 3, 1, 1), (1, 4, None, 4)])
def test_joint_parallel_from_factor_matches_formed_matrix(rng, rotated, da, db, rank, kraus):
    pair = random_iso_pair(da, db, rng, rank=rank, kraus_count=kraus)
    basis = random_unitary(da, rng) if rotated else None
    m = random_povm(da, 3, rng)
    n = random_povm(db, 4, rng)
    tau = iso_forward(pair, basis)
    p = joint_parallel(tau, m, n).probs
    assert "matrix" not in vars(tau.state)
    assert np.max(np.abs(p - _formed_table(tau, m, n))) <= 1e-14


def test_joint_parallel_of_a_matrix_state(rng):
    # a tau known only by its matrix is read through its Support's factor
    tau = iso_forward(random_iso_pair(2, 3, rng))
    loaded = BipartiteState(DensityOperator(tau.state.matrix), tau.dims)
    m, n = random_povm(2, 2, rng), random_povm(3, 3, rng)
    p = joint_parallel(loaded, m, n).probs
    assert np.max(np.abs(p - _formed_table(tau, m, n))) <= 1e-14


@pytest.mark.parametrize("rotated", [False, True])
def test_joint_sequential_matches_per_element_formula(rng, rotated):
    pair = random_iso_pair(3, 2, rng, rank=2)
    basis = random_unitary(3, rng) if rotated else None
    m, n = random_povm(3, 4, rng), random_povm(2, 3, rng)
    root = pair.support.power(0.5)
    want = np.array(
        [
            [np.trace(nb @ pair.channel(root @ mt @ root)).real for nb in n.elements]
            for mt in m.transpose(basis).elements
        ]
    )
    got = joint_sequential(pair, m, n, basis).probs
    assert np.max(np.abs(got - want)) <= 1e-14


def test_verify_equivalence_runs_on_factors(rng, monkeypatch, numpy_calls):
    built = []

    def forward(pair, basis=None, _fn=correlations.iso_forward):
        built.append(_fn(pair, basis))
        return built[-1]

    monkeypatch.setattr(correlations, "iso_forward", forward)
    pair = random_iso_pair(3, 3, rng)
    basis = random_unitary(3, rng)
    m, n = random_povm(3, 4, rng), random_povm(3, 2, rng)
    numpy_calls.reset()
    assert verify_equivalence(pair, m, n, basis) <= 1e-14
    # no SVD of tau, no re-validated transposed POVM, no Kronecker product
    assert numpy_calls["svd"] == numpy_calls["eigvalsh"] == numpy_calls["kron"] == []
    (tau,) = built
    assert "matrix" not in vars(tau.state) and "support" not in vars(tau.state)


@pytest.mark.parametrize("rotated", [False, True], ids=["computational", "rotated"])
def test_verify_equivalence_takes_one_root(rng, monkeypatch, rotated):
    # rho^{1/2} is formed once per pair and read by both tables
    powers = []

    def power(supp, exponent, _fn=linalg.Support.power):
        powers.append(exponent)
        return _fn(supp, exponent)

    monkeypatch.setattr(linalg.Support, "power", power)
    for trial in range(3):
        pair = random_iso_pair(3, 2, rng)
        basis = random_unitary(3, rng) if rotated else None
        m, n = random_povm(3, 3, rng), random_povm(2, 2, rng)
        powers.clear()
        assert verify_equivalence(pair, m, n, basis) <= 1e-12
        assert powers == [0.5], trial
