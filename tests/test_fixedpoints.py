import ast
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qduality import cli, serialize
from qduality import fixedpoints as fp
from qduality import witnesses as wt
from qduality import linalg
from qduality import duality
from qduality.duality import BipartiteState, IsoPair
from qduality.errors import PreconditionError, ShapeError, UnsupportedStructureError
from qduality.qobjects import (
    DensityOperator,
    Ensemble,
    KrausChannel,
    identity_channel,
    max_entangled,
    pure_state,
    unitary_channel,
)
from qduality.randomgen import complex_gaussian, random_channel, random_density, random_unitary
from qduality.tolerances import BLOCK_WEIGHT_TOL, FIX_TOL, NULL_TOL, SCORE_TIE_TOL


def dephasing_channel(d):
    eye = np.eye(d, dtype=complex)
    return KrausChannel(
        tuple(np.outer(eye[:, i], eye[:, i]) for i in range(d)), d, d
    )


def depolarizing_channel(d):
    eye = np.eye(d, dtype=complex)
    kraus = tuple(
        np.outer(eye[:, i], eye[:, j]) / np.sqrt(d) for i in range(d) for j in range(d)
    )
    return KrausChannel(kraus, d, d)


def block_channel_4():
    """Measure {block(0,1), block(2,3)}; identity on the first block,
    flatten to the maximally mixed state inside the second."""
    eye = np.eye(4, dtype=complex)
    p1 = np.diag([1, 1, 0, 0]).astype(complex)
    kraus = [p1] + [
        np.outer(eye[:, i], eye[:, j]) / np.sqrt(2) for i in (2, 3) for j in (2, 3)
    ]
    return KrausChannel(tuple(kraus), 4, 4)


def identity_plus_dephasing(d, keep, u=None):
    """Identity on the first `keep` basis states, full dephasing on the rest,
    conjugated by the unitary u when one is given."""
    eye = np.eye(d, dtype=complex)
    kraus = [np.diag([1.0] * keep + [0.0] * (d - keep)).astype(complex)]
    kraus += [np.outer(eye[:, i], eye[:, i]) for i in range(keep, d)]
    if u is not None:
        kraus = [u @ k @ u.conj().T for k in kraus]
    return KrausChannel(tuple(kraus), d, d)


def stacked_fixed_basis(superops, d):
    """Reference: Hermitian basis of the operators fixed by every superoperator,
    from one SVD of the stacked real S - I."""
    eye = np.eye(d * d)
    stacked = np.vstack([fp._real_superop(s, d) - eye for s in superops])
    _, s, vt = np.linalg.svd(stacked, full_matrices=False)
    return fp._from_coords(vt[s <= NULL_TOL], d)


def dual_fixed_basis(e):
    return stacked_fixed_basis([e.superoperator().conj().T], e.din)


def compressed(e, v):
    """Reference: the channel with Kraus set V† K V, e restricted to the range of v."""
    r = v.shape[1]
    return KrausChannel._from_stack(v.conj().T @ e.kraus @ v, r, r)


def test_fixed_space_dimensions():
    for d in (2, 3):
        assert fp.fixed_point_space(identity_channel(d)).dim == d * d
        assert fp.fixed_point_space(dephasing_channel(d)).dim == d
        assert fp.fixed_point_space(depolarizing_channel(d)).dim == 1


def test_fixed_space_common_to_several_channels():
    assert fp.fixed_point_space(identity_channel(3), dephasing_channel(3)).dim == 3
    with pytest.raises(ShapeError):
        fp.fixed_point_space(identity_channel(2), dephasing_channel(3))


def test_fixed_space_basis_is_invariant_and_orthonormal(rng):
    e = dephasing_channel(3)
    space = fp.fixed_point_space(e)
    for i, x in enumerate(space.basis):
        assert np.max(np.abs(e(x) - x)) < 1e-9
        for j, y in enumerate(space.basis):
            ip = np.trace(x.conj().T @ y)
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-9


def test_fixed_space_basis_is_one_read_only_stack():
    space = fp.fixed_point_space(dephasing_channel(3))
    assert isinstance(space.basis, np.ndarray) and space.basis.shape == (3, 3, 3)
    assert not space.basis.flags.writeable
    assert space.dim == 3


def test_fixed_space_invariant_under_kraus_remixing(rng):
    e = dephasing_channel(3)
    u = random_unitary(3, rng)
    remixed = tuple(
        sum(u[i, j] * k for j, k in enumerate(e.kraus)) for i in range(3)
    )
    e2 = KrausChannel(remixed, 3, 3)
    assert fp.fixed_point_space(e2).dim == fp.fixed_point_space(e).dim


def test_invariant_state_is_fixed(rng):
    e = random_channel(3, 3, rng)
    rho = fp.invariant_state(e)
    assert np.max(np.abs(e(rho.matrix) - rho.matrix)) < 1e-9


def test_invariant_state_of_unitary_channel(rng):
    # generic-phase unitary: only the maximally mixed state survives averaging
    u = random_unitary(4, rng)
    rho = fp.invariant_state(unitary_channel(u))
    assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-9)
    assert np.max(np.abs(unitary_channel(u)(rho.matrix) - rho.matrix)) < 1e-9


def cycle_fed_by_decay():
    """Cyclic shift on levels 0-2, identity on level 3, level 4 decays into level 0.

    Its powers oscillate forever from I/5, and its fixed space has two
    components, so the long-run state depends on where the decay feeds in.
    """
    k_cycle = np.zeros((5, 5), dtype=complex)
    k_cycle[:3, :3] = np.roll(np.eye(3), 1, axis=0)
    k_cycle[3, 3] = 1
    k_decay = np.zeros((5, 5), dtype=complex)
    k_decay[0, 4] = 1
    return KrausChannel((k_cycle, k_decay), 5, 5)


def amplitude_damping_plus_identity(gamma):
    """Damping |1> -> |0> with probability gamma, identity on |2> and |3>."""
    k0 = np.diag([1.0, np.sqrt(1 - gamma), 1.0, 1.0]).astype(complex)
    k1 = np.zeros((4, 4), dtype=complex)
    k1[0, 1] = np.sqrt(gamma)
    return KrausChannel((k0, k1), 4, 4)


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: random_channel(3, 3, rng),
        lambda rng: unitary_channel(np.roll(np.eye(3), 1, axis=0)),
        lambda rng: cycle_fed_by_decay(),
        lambda rng: amplitude_damping_plus_identity(0.3),
    ],
    ids=["random", "cyclic-unitary", "cycle-fed-by-decay", "damping-plus-identity"],
)
def test_invariant_state_is_the_cesaro_limit(rng, make):
    # average E^n(I/d) over n in [N, 2N): the transient before N has decayed,
    # and N = 2001 is a whole number of periods of the cyclic shift, so the
    # window average equals the Cesaro limit to rounding
    e = make(rng)
    d = e.din
    n = 2001
    x = np.eye(d, dtype=complex) / d
    for _ in range(n):
        x = e(x)
    total = np.zeros((d, d), dtype=complex)
    for _ in range(n):
        total += x
        x = e(x)
    assert np.max(np.abs(fp.invariant_state(e).matrix - total / n)) <= 1e-6


@pytest.mark.parametrize(
    "make",
    [lambda rng: random_channel(3, 3, rng), lambda rng: amplitude_damping_plus_identity(0.3)],
    ids=["random", "damping-plus-identity"],
)
def test_invariant_state_support_is_its_eigendecomposition(rng, make):
    state = fp.invariant_state(make(rng))
    supp = linalg.support(state.matrix)
    assert state.support.rank == supp.rank
    assert np.allclose(state.support.eigenvalues, supp.eigenvalues, atol=1e-12)
    assert np.allclose(state.support.projector, supp.projector, atol=1e-10)


def test_decompose_compresses_to_recurrent_support(rng):
    e = amplitude_damping_plus_identity(0.3)
    assert np.allclose(fp.invariant_state(e).matrix, np.diag([0.5, 0, 0.25, 0.25]), atol=1e-12)
    blocks = fp.decompose_fixed_algebra(e)
    assert [(b.d1, b.d2) for b in blocks] == [(3, 1)]
    assert np.allclose(blocks[0].projector, np.diag([1.0, 0.0, 1.0, 1.0]), atol=1e-9)
    for _ in range(5):
        x = blocks[0].embed(random_density(3, rng).matrix)
        assert np.max(np.abs(e(x) - x)) <= 1e-8


def test_decompose_identity():
    blocks = fp.decompose_fixed_algebra(identity_channel(3))
    assert [(b.d1, b.d2) for b in blocks] == [(3, 1)]


def test_decompose_dephasing():
    blocks = fp.decompose_fixed_algebra(dephasing_channel(3))
    assert [(b.d1, b.d2) for b in blocks] == [(1, 1)] * 3


def test_decompose_depolarizing():
    blocks = fp.decompose_fixed_algebra(depolarizing_channel(3))
    assert [(b.d1, b.d2) for b in blocks] == [(1, 3)]
    assert np.allclose(blocks[0].nu.matrix, np.eye(3) / 3, atol=1e-8)


def test_decompose_block_channel():
    e = block_channel_4()
    blocks = fp.decompose_fixed_algebra(e)
    assert [(b.d1, b.d2) for b in blocks] == [(2, 1), (1, 2)]
    assert np.allclose(blocks[1].nu.matrix, np.eye(2) / 2, atol=1e-8)


def test_decompose_reconstruction_invariant(rng):
    e = block_channel_4()
    for block in fp.decompose_fixed_algebra(e):
        for _ in range(10):
            mu = random_density(block.d1, rng).matrix
            x = block.embed(mu)
            assert np.max(np.abs(e(x) - x)) < 1e-8


def test_decompose_covers_fixed_space():
    e = block_channel_4()
    blocks = fp.decompose_fixed_algebra(e)
    assert sum(b.d1 * b.d1 for b in blocks) == fp.fixed_point_space(e).dim


def test_decompose_amplitude_damping_uses_recurrent_support():
    k0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    k1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    blocks = fp.decompose_fixed_algebra(KrausChannel((k0, k1), 2, 2))
    assert [(b.d1, b.d2) for b in blocks] == [(1, 1)]
    assert np.allclose(blocks[0].projector, np.diag([1.0, 0.0]), atol=1e-9)


def test_decompose_unitary_conjugation(rng):
    # commutant of a two-distinct-eigenvalue unitary on C^3
    u_basis = random_unitary(3, rng)
    u = u_basis @ np.diag([1.0, 1.0, 1j]) @ u_basis.conj().T
    blocks = fp.decompose_fixed_algebra(unitary_channel(u))
    assert [(b.d1, b.d2) for b in blocks] == [(2, 1), (1, 1)]


def test_decompose_weight_from_reference():
    e = block_channel_4()
    ref = DensityOperator(np.diag([0.3, 0.3, 0.2, 0.2]).astype(complex))
    blocks = fp.decompose_fixed_algebra(e)
    weights = [fp.block_components(b, ref)[0] for b in blocks]
    assert abs(weights[0] - 0.6) < 1e-10
    assert abs(weights[1] - 0.4) < 1e-10


def depolarized_qubit_channel(m, p):
    """I_m x (qubit depolarizing channel of strength p)."""
    paulis = (
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1.0, -1.0]),
    )
    weights = (1 - 3 * p / 4, p / 4, p / 4, p / 4)
    kraus = tuple(np.kron(np.eye(m), np.sqrt(w) * s).astype(complex) for w, s in zip(weights, paulis))
    return KrausChannel(kraus, 2 * m, 2 * m)


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: identity_plus_dephasing(7, 4),
        lambda rng: identity_plus_dephasing(7, 4, random_unitary(7, rng)),
        lambda rng: depolarized_qubit_channel(4, 0.5),
        lambda rng: tensor_blocks_channel([(3, 2), (2, 1), (1, 1)], rng)[0],
    ],
    ids=["identity-plus-dephasing-d7", "rotated-d7", "depolarizing-qubit-d8", "tensor-blocks-d9"],
)
def test_decompose_call_budget(rng, numpy_calls, make):
    # one SVD, the kernel's; one eigh for the long-run state's support and
    # one for the fixed combination, whose clusters are already minimal on
    # these channels; each block's nu is read from the state's factor, so no
    # eigvalsh.  The one solve is the Riesz projection's.
    e = make(rng)
    numpy_calls.reset()
    fp.decompose_fixed_algebra(e)
    assert numpy_calls["eigvalsh"] == []
    assert len(numpy_calls["eigh"]) == 2
    assert len(numpy_calls["svd"]) == 1
    assert numpy_calls["einsum"] == []
    assert len(numpy_calls["solve"]) == 1


# the four channels of test_decompose_call_budget and one whose long-run
# state is rank-deficient
DECOMPOSED = pytest.mark.parametrize(
    "make",
    [
        lambda rng: identity_plus_dephasing(7, 4),
        lambda rng: identity_plus_dephasing(7, 4, random_unitary(7, rng)),
        lambda rng: depolarized_qubit_channel(4, 0.5),
        lambda rng: tensor_blocks_channel([(3, 2), (2, 1), (1, 1)], rng)[0],
        lambda rng: amplitude_damping_plus_identity(0.3),
    ],
    ids=["identity-plus-dephasing-d7", "rotated-d7", "depolarizing-qubit-d8", "tensor-blocks-d9",
         "damping"],
)


@DECOMPOSED
def test_decomposition_forms_only_each_blocks_nu(rng, monkeypatch, make):
    # each nu is the one block_components reads from the long-run state, and
    # it is the only state built from a factor: no mu is formed
    e = make(rng)
    built = []

    def counted(cls, x, _fn=DensityOperator._from_factor.__func__):
        built.append(x.shape)
        return _fn(cls, x)

    with monkeypatch.context() as patch:
        patch.setattr(DensityOperator, "_from_factor", classmethod(counted))
        blocks = fp.decompose_fixed_algebra(e)
    assert len(built) == len(blocks)
    state = fp.invariant_state(e)
    for block in blocks:
        assert np.array_equal(block.nu.matrix, fp.block_components(block, state)[2].matrix)


@DECOMPOSED
def test_one_channel_and_its_mixture_with_itself_give_one_decomposition(rng, make):
    # _blocks takes one channel as it is and two through their mixture.
    # Blocks are sorted by shape only, so blocks of one shape are matched
    # by their spans: each span of one list is that of exactly one of the other
    e = make(rng)
    one, state = fp._blocks(e)
    two, mixed_state = fp._blocks(e, e)
    assert [(b.d1, b.d2) for b in one] == [(b.d1, b.d2) for b in two]
    assert np.max(np.abs(state.matrix - mixed_state.matrix)) <= FIX_TOL
    gaps = np.array([[np.max(np.abs(a.projector - b.projector)) for b in two] for a in one])
    close = gaps <= 1e-8
    assert (close.sum(0) == 1).all() and (close.sum(1) == 1).all()


def matrix_block_components(block, state):
    """Reference: weight and partial traces of the state compressed to the block."""
    w = block.isometry
    small = w.conj().T @ state @ w
    weight = float(np.trace(small).real)
    if weight <= BLOCK_WEIGHT_TOL:
        return weight, None, None
    t = (small / weight).reshape(block.d1, block.d2, block.d1, block.d2)
    mu = linalg.hermitize(np.trace(t, axis1=1, axis2=3))
    nu = linalg.hermitize(np.trace(t, axis1=0, axis2=2))
    return weight, mu, nu


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: identity_plus_dephasing(7, 4),
        lambda rng: identity_plus_dephasing(7, 4, random_unitary(7, rng)),
        lambda rng: depolarized_qubit_channel(4, 0.5),
        lambda rng: block_channel_4(),
        lambda rng: amplitude_damping_plus_identity(0.3),
        lambda rng: tensor_blocks_channel([(3, 2), (2, 1), (1, 1)], rng)[0],
    ],
    ids=["structured", "structured-rotated", "depolarizing", "block", "damping", "tensor-blocks"],
)
def test_block_nu_is_the_partial_trace_of_the_long_run_state(rng, make):
    e = make(rng)
    state = fp.invariant_state(e)
    for block in fp.decompose_fixed_algebra(e):
        weight, mu, nu = matrix_block_components(block, state.matrix)
        assert np.max(np.abs(block.nu.matrix - nu)) <= 1e-13
        got = fp.block_components(block, state)
        assert abs(got[0] - weight) <= 1e-13
        assert np.max(np.abs(got[1].matrix - mu)) <= 1e-13
        assert np.max(np.abs(got[2].matrix - nu)) <= 1e-13


def test_block_components_of_a_block_without_weight():
    # the block channel's second block, (1, 2), holds no part of |0><0|
    e = block_channel_4()
    blocks = fp.decompose_fixed_algebra(e)
    weight, mu, nu = fp.block_components(blocks[1], pure_state(np.eye(4)[:, 0]))
    assert weight == 0.0 and mu is None and nu is None


def _loop_pair(mu1, mu2):
    # the double loop _nonorthogonal_pair replaced, kept as the reference; of
    # the pairs whose score ties with the best one, the first wins
    v1s = linalg.support(mu1).eigenvectors.T
    v2s = linalg.support(mu2).eigenvectors.T
    pairs = [(a, b) for a in v1s for b in v2s]
    scores = [abs(np.vdot(a, b)) * (1 - abs(np.vdot(a, b))) for a, b in pairs]
    best = max(scores)
    if best < 1e-8:
        return None
    return next(pair for pair, score in zip(pairs, scores) if score >= best * (1 - SCORE_TIE_TOL))


def test_nonorthogonal_pair_matches_the_loop():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        mu1 = random_density(d, rng, rank=int(rng.integers(1, d + 1))).matrix
        mu2 = random_density(d, rng).matrix
        got, want = wt._nonorthogonal_pair(mu1, mu2), _loop_pair(mu1, mu2)
        assert want is not None, seed
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), seed


def test_witness_is_not_chosen_by_rounding():
    # for |0> and a tilted pure state two eigenvector pairs tie exactly in
    # o (1 - o), both with overlap sin .3.  In a rotated basis the two scores
    # differ by rounding, and the first pair in row-major order must win
    # however the inputs round: the first eigenvector of sigma1's component
    u = random_unitary(2, np.random.default_rng(1))
    tilt = u @ np.array([np.cos(0.3), np.sin(0.3)])
    s1 = pure_state(u[:, 0])
    e = identity_channel(2)
    witness = wt.broadcast_obstruction(s1, pure_state(tilt), e, e)
    v1, v2 = witness.clonable_states
    assert abs(abs(np.vdot(v1, v2)) - np.sin(0.3)) <= 1e-14
    # the block's frame comes from an eigh, so compare in ambient coordinates
    assert abs(abs(np.vdot(u[:, 0], witness.block.isometry @ v1)) - 1) <= 1e-14
    rng = np.random.default_rng(35)
    for _ in range(20):
        h = linalg.hermitize(complex_gaussian(rng, (2, 2))) * 1e-15
        h -= np.trace(h) / 2 * np.eye(2)
        s2 = DensityOperator(np.outer(tilt, tilt.conj()) + h)
        got = wt.broadcast_obstruction(s1, s2, e, e).clonable_states
        assert np.max(np.abs(got[0] - v1)) <= 1e-13
        assert np.max(np.abs(got[1] - v2)) <= 1e-13


def test_broadcast_obstruction_runs_no_eigvalsh(numpy_calls):
    # the mixture and compressions are built valid, and nu is a factor
    s1, s2, e1, e2 = qubit_example()
    numpy_calls.reset()
    w = wt.broadcast_obstruction(s1, s2, e1, e2)
    assert numpy_calls["eigvalsh"] == []
    assert np.allclose(w.block.nu.matrix, [[1.0]], atol=1e-15)


def test_cloning_demo_rejects_identical_members():
    # the first and the last member are identical
    plus = pure_state(np.array([1.0, 1.0]))
    ens = Ensemble(((0.5, plus), (0.25, pure_state(np.array([0.0, 1.0]))), (0.25, plus)))
    with pytest.raises(PreconditionError, match="nonidentical"):
        wt.cloning_demo(ens, identity_channel(2), identity_channel(2))


def qubit_example():
    s1 = pure_state(np.array([1.0, 0.0]))
    s2 = pure_state(np.array([1.0, 1.0]) / np.sqrt(2))
    return s1, s2, identity_channel(2), identity_channel(2)


def test_broadcast_obstruction_qubit():
    s1, s2, e1, e2 = qubit_example()
    w = wt.broadcast_obstruction(s1, s2, e1, e2)
    assert abs(w.overlap - 1 / np.sqrt(2)) < 1e-10
    assert 1e-8 < w.overlap < 1 - 1e-8
    v1, v2 = w.clonable_states
    for vec in (v1, v2):
        full = w.block.embed(np.outer(vec, vec.conj()))
        assert np.max(np.abs(e1(full) - full)) < 1e-8
        assert np.max(np.abs(e2(full) - full)) < 1e-8


def test_broadcast_obstruction_rejects_commuting_states():
    s1 = DensityOperator(np.diag([0.8, 0.2]))
    s2 = DensityOperator(np.diag([0.3, 0.7]))
    with pytest.raises(PreconditionError):
        wt.broadcast_obstruction(s1, s2, identity_channel(2), identity_channel(2))


def test_broadcast_obstruction_rejects_unfixed_states(rng):
    s1, s2, _, _ = qubit_example()
    with pytest.raises(PreconditionError):
        wt.broadcast_obstruction(s1, s2, depolarizing_channel(2), identity_channel(2))


def test_monogamy_demo_qubit():
    s1, s2, e1, e2 = qubit_example()
    res = wt.monogamy_demo(0.5, s1, s2, e1, e2)
    assert all(c["pass"] for c in res["checks"])
    for r in res["results"].values():
        assert r["block_probability"] > 0.1
        assert r["factor_purity"] >= 1 - 1e-8
        assert r["schmidt_rank"] >= 2


def test_monogamy_demo_rejects_bad_weight():
    s1, s2, e1, e2 = qubit_example()
    with pytest.raises(PreconditionError):
        wt.monogamy_demo(1.0, s1, s2, e1, e2)


def test_cloning_demo_qubit():
    s1, s2, e1, e2 = qubit_example()
    ens = Ensemble(((0.5, s1), (0.5, s2)))
    res = wt.cloning_demo(ens, e1, e2)
    assert all(c["pass"] for c in res["checks"])


def test_cloning_demo_rejects_orthogonal_ensemble():
    s1 = pure_state(np.array([1.0, 0.0]))
    s2 = pure_state(np.array([0.0, 1.0]))
    ens = Ensemble(((0.5, s1), (0.5, s2)))
    with pytest.raises(PreconditionError):
        wt.cloning_demo(ens, identity_channel(2), identity_channel(2))


def test_cloning_demo_rejects_mixed_member():
    s1 = pure_state(np.array([1.0, 0.0]))
    s2 = DensityOperator(np.array([[0.6, 0.2], [0.2, 0.4]]))
    ens = Ensemble(((0.5, s1), (0.5, s2)))
    with pytest.raises(PreconditionError):
        wt.cloning_demo(ens, identity_channel(2), identity_channel(2))


def test_universal_direction_a():
    res = wt.universal_from_channels(identity_channel(2), identity_channel(2))
    assert res["verdict"]
    for c in res["checks"]:
        assert c["value"] <= 1e-10


def test_universal_direction_a_fails_on_a_wrong_dual_state(monkeypatch):
    # the dual state is read through iso_forward, not from the Choi state the
    # hypothesis was checked on, so a wrong one (here |00>) fails the check
    def product_dual(pair, basis=None):
        d = pair.rho.dim
        x = np.zeros((d * d, 1), dtype=complex)
        x[0] = 1.0
        return BipartiteState(DensityOperator._from_factor(x), (d, d))

    monkeypatch.setattr(wt, "iso_forward", product_dual)
    res = wt.universal_from_channels(identity_channel(2), identity_channel(2))
    assert not res["verdict"]
    assert [c["pass"] for c in res["checks"]] == [False, False]


def test_universal_direction_a_rejects_nonidentity(rng):
    with pytest.raises(PreconditionError):
        wt.universal_from_channels(unitary_channel(random_unitary(2, rng)), identity_channel(2))


def test_universal_direction_b_rotated(rng):
    d = 3
    phi = max_entangled(d)
    u = random_unitary(d, rng)
    vec = np.kron(np.eye(d), u) @ phi
    t = BipartiteState(pure_state(vec), (d, d))
    res = wt.universal_from_states(t, t)
    assert res["verdict"]


def test_universal_direction_b_negative_verdict():
    t = BipartiteState(pure_state(np.eye(4, dtype=complex)[:, 0]), (2, 2))
    res = wt.universal_from_states(t, t)
    assert not res["verdict"]


def _formed_pure_entangled_factor(tau, block):
    # the matrix formulas the factor path replaced, kept as the reference
    w = block.isometry
    both = np.kron(w, w)
    small = both.conj().T @ tau @ both
    captured = float(np.trace(small).real)
    small = linalg.hermitize(small / captured)
    d1, d2 = block.d1, block.d2
    t = small.reshape(d1, d2, d1, d2, d1, d2, d1, d2)
    zeta = linalg.hermitize(np.einsum("aibjcidj->abcd", t).reshape(d1 * d1, d1 * d1))
    purity = float(np.trace(zeta @ zeta).real)
    top = linalg.support(zeta).eigenvectors[:, 0]
    rank = linalg.schmidt_rank(top, (d1, d1))
    return {"factor_purity": purity, "schmidt_rank": rank, "captured_weight": captured}


def formed_block_basis(rho, e1, e2):
    """Reference for the demos' basis: W_k kron(V_mu, V_nu) over the blocks, the
    eigenvectors of the partial traces of rho's compressed matrix, then the
    long-run state's eigenvectors off its support."""
    blocks, state = fp._blocks(e1, e2)
    cols = []
    for block in blocks:
        _, mu, nu = matrix_block_components(block, rho.matrix)
        if mu is None:
            cols.append(block.isometry)
            continue
        cols.append(block.isometry @ np.kron(*(linalg.support(m).eigenvectors for m in (mu, nu))))
    supp = linalg.support(state.matrix)
    cols.append(supp.eigenvectors[:, supp.rank :])
    return np.hstack(cols)


def _formed_monogamy(p, s1, s2, e1, e2, basis=None):
    block = wt.broadcast_obstruction(s1, s2, e1, e2).block
    rho = DensityOperator(linalg.hermitize(p * s1.matrix + (1 - p) * s2.matrix))
    if basis is None:
        basis = formed_block_basis(rho, e1, e2)
    big_proj = np.kron(block.projector, np.eye(rho.dim))
    results = {}
    for label, ch in (("channel1", e1), ("channel2", e2)):
        tau = duality.iso_forward(IsoPair(rho, ch), basis).state.matrix
        prob = float(np.trace(big_proj @ tau).real)
        post = big_proj @ tau @ big_proj / prob
        results[label] = {"block_probability": prob, **_formed_pure_entangled_factor(post, block)}
    return results


def _formed_cloning(ens, e1, e2, block_index):
    block = fp._blocks(e1, e2)[0][block_index]
    rho = DensityOperator(linalg.hermitize(ens.average()))
    basis = formed_block_basis(rho, e1, e2)
    return {
        label: _formed_pure_entangled_factor(
            duality.iso_forward(IsoPair(rho, ch), basis).state.matrix, block
        )
        for label, ch in (("channel1", e1), ("channel2", e2))
    }


def _rotated(u, vec):
    return pure_state(u @ np.asarray(vec, dtype=complex))


def _qubit_case():
    s1, s2, e1, e2 = qubit_example()
    return (s1, s2), (s1, s2), e1, e2


def _block_case():
    # block (2, 1) beside a (1, 2) block; mixed states carry weight on both
    e = block_channel_4()
    nu2 = np.diag([0, 0, 0.5, 0.5]).astype(complex)
    plus = np.array([1, 1, 0, 0]) / np.sqrt(2)
    t1 = DensityOperator(0.8 * np.diag([1, 0, 0, 0]).astype(complex) + 0.2 * nu2)
    t2 = DensityOperator(0.8 * np.outer(plus, plus).astype(complex) + 0.2 * nu2)
    pure = (pure_state(np.eye(4)[:, 0]), pure_state(plus))
    return (t1, t2), pure, e, e


def _rotated_dephasing_case():
    u = random_unitary(3, np.random.default_rng(31))
    e = identity_plus_dephasing(3, 2, u)
    s1, s2 = _rotated(u, [1, 0, 0]), _rotated(u, [1, 1, 0])
    return (s1, s2), (s1, s2), e, e


def product_block():
    """E(X) = Tr_2(X) x I/2 in the rotated basis u, and a second channel that
    also turns the second factor: one (2, 2) block, fixed states mu x I/2.

    Returns u and the states |0><0| x I/2 and |+><+| x I/2, rotated, with the
    channels.  Every mixture of the states has a degenerate spectrum.
    """
    u = random_unitary(4, np.random.default_rng(32))
    v = random_unitary(2, np.random.default_rng(33))
    eye = np.eye(2, dtype=complex)
    kraus = [np.kron(eye, np.outer(eye[:, i], eye[:, j]) / np.sqrt(2)) for i in range(2) for j in range(2)]
    turn = np.kron(eye, v)
    e1 = KrausChannel(tuple(u @ k @ u.conj().T for k in kraus), 4, 4)
    e2 = KrausChannel(tuple(u @ turn @ k @ u.conj().T for k in kraus), 4, 4)
    plus = np.array([1, 1]) / np.sqrt(2)
    states = tuple(
        DensityOperator(linalg.hermitize(u @ np.kron(np.outer(a, a), eye / 2) @ u.conj().T))
        for a in (np.array([1, 0]), plus)
    )
    return u, states, e1, e2


def _product_block_case():
    _, states, e1, e2 = product_block()
    return states, None, e1, e2


DEMO_CASES = {
    "qubit": _qubit_case,
    "block": _block_case,
    "rotated dephasing": _rotated_dephasing_case,
    "product block": _product_block_case,
}


def _assert_results_match(results, reference):
    assert results.keys() == reference.keys()
    for label, ref in reference.items():
        got = results[label]
        assert got.keys() == ref.keys()
        assert got["schmidt_rank"] == ref["schmidt_rank"]
        for key, value in ref.items():
            assert abs(got[key] - value) <= 1e-12, (label, key)


@pytest.fixture
def built_taus(monkeypatch):
    """Every tau the demos build, recorded as witnesses builds it."""
    built = []

    def forward(pair, basis=None, _fn=wt.iso_forward):
        built.append(_fn(pair, basis))
        return built[-1]

    monkeypatch.setattr(wt, "iso_forward", forward)
    return built


@pytest.mark.parametrize("case", DEMO_CASES)
def test_demos_run_on_factors(case, numpy_calls, built_taus):
    mixed, pure, e1, e2 = DEMO_CASES[case]()
    monogamy_ref = _formed_monogamy(0.4, *mixed, e1, e2)
    numpy_calls.reset()
    res = wt.monogamy_demo(0.4, *mixed, e1, e2)
    assert numpy_calls["kron"] == []
    assert all(c["pass"] for c in res["checks"])
    _assert_results_match(res["results"], monogamy_ref)
    if pure is not None:
        ens = Ensemble(((0.3, pure[0]), (0.7, pure[1])))
        numpy_calls.reset()
        res = wt.cloning_demo(ens, e1, e2)
        assert numpy_calls["kron"] == []
        assert all(c["pass"] for c in res["checks"])
        _assert_results_match(res["results"], _formed_cloning(ens, e1, e2, res["block_index"]))
    assert built_taus and all("matrix" not in vars(tau.state) for tau in built_taus)


def test_demos_take_one_block_decomposition(monkeypatch):
    calls = []

    def counted(*channels, _fn=wt._blocks):
        calls.append(len(channels))
        return _fn(*channels)

    monkeypatch.setattr(wt, "_blocks", counted)
    (s1, s2), pure, e1, e2 = _block_case()
    wt.monogamy_demo(0.4, s1, s2, e1, e2)
    assert calls == [2]
    wt.cloning_demo(Ensemble(((0.3, pure[0]), (0.7, pure[1]))), e1, e2)
    assert calls == [2, 2]


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_monogamy_demo_on_a_product_block_matches_the_product_basis(p):
    # the blocks' basis gives the results of u, in which E1 is Tr_2(X) x I/2
    u, (s1, s2), e1, e2 = product_block()
    res = wt.monogamy_demo(p, s1, s2, e1, e2)
    assert all(c["pass"] for c in res["checks"]), res["checks"]
    _assert_results_match(res["results"], _formed_monogamy(p, s1, s2, e1, e2, u))
    # the witness's nu is (nu1 + nu2) / 2 = I/2
    nu = wt.broadcast_obstruction(s1, s2, e1, e2).block.nu
    assert np.max(np.abs(nu.matrix - np.eye(2) / 2)) <= 1e-14


@pytest.mark.parametrize("p", ["0.1", "0.5", "0.9"])
def test_monogamy_demo_cli_on_a_product_block(tmp_path, capsys, p):
    _, (s1, s2), e1, e2 = product_block()
    argv = ["monogamy-demo", "--p", p]
    for flag, obj in (
        ("--sigma1", serialize.state_to_json(s1)),
        ("--sigma2", serialize.state_to_json(s2)),
        ("--channel1", serialize.channel_to_json(e1)),
        ("--channel2", serialize.channel_to_json(e2)),
    ):
        path = tmp_path / f"{flag[2:]}.json"
        serialize.save(path, obj)
        argv += [flag, str(path)]
    code = cli.main(argv)
    rep = json.loads(capsys.readouterr().out)
    assert code == 0, rep["checks"]
    assert all(c["pass"] for c in rep["checks"])


def flat_blocks_channels(shapes, rng):
    """Direct sum over (d1, d2) of id_{d1} x (replace by I/d2), conjugated by a
    Haar unitary u; and the same channel followed by a Haar unitary on each
    second factor.  Returns u and the two channels."""
    d = sum(d1 * d2 for d1, d2 in shapes)
    kraus = []
    turn = np.zeros((d, d), dtype=complex)
    offset = 0
    for d1, d2 in shapes:
        part = slice(offset, offset + d1 * d2)
        turn[part, part] = np.kron(np.eye(d1), random_unitary(d2, rng))
        for i in range(d2):
            for j in range(d2):
                k = np.zeros((d, d), dtype=complex)
                k[part, part] = np.kron(np.eye(d1), unit(d2, i, j)) / np.sqrt(d2)
                kraus.append(k)
        offset += d1 * d2
    u = random_unitary(d, rng)

    def rotated(ks):
        return KrausChannel(tuple(u @ k @ u.conj().T for k in ks), d, d)

    return u, rotated(kraus), rotated([turn @ k for k in kraus])


@settings(max_examples=30)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3
    ).filter(lambda shapes: shapes[0][0] >= 2 and sum(d1 * d2 for d1, d2 in shapes) <= 10),
    p=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_monogamy_demo_needs_no_basis_on_flat_blocks(shapes, p, seed):
    # states mu x I/d2 on the first block: mixtures have degenerate spectra
    rng = np.random.default_rng(seed)
    u, e1, e2 = flat_blocks_channels(shapes, rng)
    d1, d2 = shapes[0]
    w = u[:, : d1 * d2]
    states = []
    for _ in range(2):
        a = complex_gaussian(rng, d1)
        a /= np.linalg.norm(a)
        states.append(DensityOperator(linalg.hermitize(w @ np.kron(np.outer(a, a.conj()), np.eye(d2) / d2) @ w.conj().T)))
    res = wt.monogamy_demo(p, *states, e1, e2)
    assert all(c["pass"] for c in res["checks"]), res["checks"]


def _formed_universal(tau):
    # the matrix formulas universal_from_states replaced, as the reference
    da, db = tau.dims
    mat = tau.state.matrix
    purity = float(np.trace(mat @ mat).real)
    mix_dev = float(np.max(np.abs(linalg.partial_trace(mat, tau.dims, "A") - np.eye(da) / da)))
    if da != db:
        return purity, mix_dev, None
    top = linalg.support(mat).eigenvectors[:, 0]
    w, _, vh = np.linalg.svd(np.sqrt(da) * top.reshape(da, db).T)
    return purity, mix_dev, w @ vh


def _universal_taus():
    rng = np.random.default_rng(34)
    taus = []
    for d in (2, 3):
        vec = np.kron(np.eye(d), random_unitary(d, rng)) @ max_entangled(d)
        taus.append(BipartiteState(pure_state(vec), (d, d)))
        taus.append(BipartiteState(DensityOperator._from_factor(vec.reshape(-1, 1)), (d, d)))
    # a unitary channel's dual state at I/d, held as its one-column factor
    pair = IsoPair(DensityOperator(np.eye(3) / 3), unitary_channel(random_unitary(3, rng)))
    taus.append(duality.iso_forward(pair))
    # mixed states with unequal marginals get a negative verdict
    pair = IsoPair(random_density(2, rng), random_channel(2, 3, rng))
    taus.append(duality.iso_forward(pair))
    taus.append(BipartiteState(random_density(6, rng), (3, 2)))
    return taus


@pytest.mark.parametrize("index", range(7))
def test_universal_from_states_runs_on_factors(index, numpy_calls):
    tau = _universal_taus()[index]
    da, db = tau.dims
    # the reference reads a copy, so tau's own matrix stays unformed
    copy = BipartiteState(DensityOperator._from_factor(tau.state.factor()), tau.dims)
    purity, mix_dev, correction = _formed_universal(copy)
    numpy_calls.reset()
    res = wt.universal_from_states(tau, tau)
    assert res["verdict"] == (index < 5)
    values = {c["name"]: c["value"] for c in res["checks"]}
    assert abs(values["state1.purity"] - purity) <= 1e-12
    assert abs(values["state1.maximally_mixed_marginal"] - mix_dev) <= 1e-12
    if res["verdict"]:
        assert np.max(np.abs(res["corrections"][0] - correction)) <= 1e-12
    assert numpy_calls["kron"] == []
    for name in ("eigh", "eigvalsh"):
        assert all(shape[0] < da * db for shape in numpy_calls[name]), name
    if "_factor" in vars(tau.state):
        assert "matrix" not in vars(tau.state)


def unit3(i, j):
    return np.outer(np.eye(3)[:, i], np.eye(3)[:, j]).astype(complex)


def hermitian_span(*mats):
    basis = fp._orthonormal_hermitian(np.stack([np.asarray(m, dtype=complex) for m in mats]))
    assert len(basis) == len(mats)
    return basis


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.diag([1, -1]).astype(complex)


def direct_sum(a, b):
    out = np.zeros((len(a) + len(b),) * 2, dtype=complex)
    out[: len(a), : len(a)] = a
    out[len(a) :, len(a) :] = b
    return out


def span_not_closed_under_products():
    # sigma_x sigma_z = -i sigma_y lies outside the real span of {I, sigma_x, sigma_z}
    return hermitian_span(np.eye(2), PAULI_X, PAULI_Z)


def test_closure_rejects_span_not_closed_under_products():
    # its two rank-one parts are coupled, a block M2 of dimension 4
    with pytest.raises(UnsupportedStructureError, match="total dimension 4"):
        fp._decompose_algebra(span_not_closed_under_products())


def test_closure_accepts_m2_plus_c():
    basis = hermitian_span(
        unit3(0, 0),
        unit3(1, 1),
        unit3(0, 1) + unit3(1, 0),
        1j * (unit3(0, 1) - unit3(1, 0)),
        unit3(2, 2),
    )
    blocks = fp._decompose_algebra(basis)
    assert [(d1, d2) for d1, d2, _ in blocks] == [(2, 1), (1, 1)]


def test_closure_accepts_commutative_algebra():
    # diagonal in the eigenbasis of E00 + 0.2 (|0><1| + |1><0|), so three 1x1 blocks
    basis = hermitian_span(np.eye(3), unit3(2, 2), unit3(0, 0) + 0.2 * (unit3(0, 1) + unit3(1, 0)))
    blocks = fp._decompose_algebra(basis)
    assert [(d1, d2) for d1, d2, _ in blocks] == [(1, 1)] * 3


def span_coupling_blocks():
    # commutative-looking, but |0><2| + |2><0| couples the two parts on
    # span{|0>, |2>} into a block M2, which the span does not hold
    return hermitian_span(np.eye(3), unit3(0, 0), unit3(0, 2) + unit3(2, 0))


def test_certificate_rejects_span_coupling_blocks():
    with pytest.raises(UnsupportedStructureError, match="total dimension 5"):
        fp._decompose_algebra(span_coupling_blocks())


def span_smaller_than_its_blocks():
    # {x + phi(x)} for a linear phi that is no homomorphism: block diagonal,
    # and each block compresses onto all of M2, but the span has dimension 4
    # where M2 + M2 has 8
    return hermitian_span(
        np.eye(4),
        direct_sum(PAULI_X, (PAULI_X - PAULI_Y - PAULI_Z) / 2),
        direct_sum(PAULI_Y, (PAULI_Y - PAULI_X - PAULI_Z) / 2),
        direct_sum(PAULI_Z, -(PAULI_X + PAULI_Y) / 2),
    )


def test_certificate_rejects_span_smaller_than_its_blocks():
    with pytest.raises(UnsupportedStructureError, match="total dimension 8"):
        fp._decompose_algebra(span_smaller_than_its_blocks())


def unfactored_span():
    # the combination of {I, Z x I, X x I, Y x Z} has two rank-2 eigenspaces,
    # on which every element is scalar and which X x I and Y x Z couple.  The
    # span has the dimension 4 of M2 x I2, but aligned by one coupling the
    # other is not (something) x identity
    return hermitian_span(
        np.eye(4),
        np.kron(PAULI_Z, np.eye(2)),
        np.kron(PAULI_X, np.eye(2)),
        np.kron(PAULI_Y, PAULI_Z),
    )


def test_split_block_rejects_unfactored_block():
    assert [p.shape[1] for p in fp._minimal_projections(unfactored_span())[0]] == [2, 2]
    with pytest.raises(UnsupportedStructureError, match="failed to factor"):
        fp._decompose_algebra(unfactored_span())


def steered_span(gens, u):
    """An HS-orthonormal basis of the span of the orthonormal stack gens
    whose fixed combination sum_a b_a / (a + pi) is |w| sum_k u_k gens_k,
    w = 1 / (a + pi): the Householder reflection taking w / |w| to the unit
    vector u, applied to gens."""
    w = 1 / (np.arange(len(gens)) + np.pi)
    x = w / np.linalg.norm(w) - u
    return np.tensordot(np.eye(len(gens)) - 2 * np.outer(x, x) / (x @ x), gens, 1)


def span_coupling_a_chain():
    # the combination is diagonal with distinct values, so the parts are
    # |0>, |1> and |2>; |0><1| + h.c. and |1><2| + h.c. couple them in a chain
    # that does not couple |0> with |2>: no partition into blocks
    gens = np.stack([
        np.eye(3) / np.sqrt(3),
        np.diag([1.0, 0.0, -1.0]) / np.sqrt(2),
        (unit3(0, 1) + unit3(1, 0)) / np.sqrt(2),
        (unit3(1, 2) + unit3(2, 1)) / np.sqrt(2),
    ])
    return steered_span(gens, np.array([0.6, 0.8, 0.0, 0.0]))


def span_coupling_unequal_ranks():
    # the combination's eigenspaces are |0> and span{|1>, |2>}, on which every
    # element is scalar, and |0><1| + h.c. couples the two
    gens = np.stack([
        np.eye(3) / np.sqrt(3),
        np.diag([2.0, -1.0, -1.0]) / np.sqrt(6),
        (unit3(0, 1) + unit3(1, 0)) / np.sqrt(2),
    ])
    return steered_span(gens, np.array([0.6, 0.8, 0.0]))


def _weightless_block():
    # the long-run state is faithful on the blocks, so only a substituted
    # state (|0><0|, no weight on block_channel_4's second block) gets here
    e = block_channel_4()
    blocks, _ = fp._blocks(e)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fp, "_blocks", lambda e: (blocks, pure_state(np.eye(4)[:, 0])))
        fp.decompose_fixed_algebra(e)


def rotating_pair_unitary(seed):
    """V diag(1, e^{i 1e-9}, e^i, e^{2i}) V† at d = 4, V Haar from `seed`: the
    pair (1, e^{i 1e-9}) puts two singular values of I - S at about 1e-9,
    where the kernel cut NULL_TOL lies."""
    v = random_unitary(4, np.random.default_rng(seed))
    return v @ np.diag(np.exp(1j * np.array([0, 1e-9, 1, 2]))) @ v.conj().T


# seeds at which the kernel cut splits the rotating pair and the Riesz
# projection gives a matrix that is not PSD
ROTATING_PAIR_SEEDS = (2, 9, 17)


# each UnsupportedStructureError in fixedpoints, by a fragment of its
# message, and one input that reaches it
CERTIFICATE_INPUTS = {
    "long-run state is not positive semidefinite": lambda: fp.invariant_state(
        unitary_channel(rotating_pair_unitary(2))
    ),
    "channel has no fixed state": lambda: fp._riesz_state(
        dephasing_channel(2), np.zeros((0, 4)), np.zeros((0, 4))
    ),
    "averaged state failed the invariance check": lambda: fp._riesz_state(
        amplitude_damping_plus_identity(0.3),
        *fp._fixed_kernels(amplitude_damping_plus_identity(0.3))[::-1],
    ),
    "not closed under multiplication": lambda: fp._decompose_algebra(span_coupling_a_chain()),
    "do not share one rank": lambda: fp._decompose_algebra(span_coupling_unequal_ranks()),
    "failed to factor a central block": lambda: fp._decompose_algebra(unfactored_span()),
    "block algebras of total dimension": lambda: fp._decompose_algebra(span_smaller_than_its_blocks()),
    "invariant state puts no weight on a block": _weightless_block,
}


def raise_site_messages():
    """The literal text of each UnsupportedStructureError message raised in
    fixedpoints, with {} for every formatted value."""
    tree = ast.parse(inspect.getsource(fp))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Raise)
            and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "UnsupportedStructureError"
        ):
            msg = node.exc.args[0]
            parts = msg.values if isinstance(msg, ast.JoinedStr) else [msg]
            yield "".join(p.value if isinstance(p, ast.Constant) else "{}" for p in parts)


def test_every_certificate_has_an_input():
    sites = list(raise_site_messages())
    for site in sites:
        assert sum(key in site for key in CERTIFICATE_INPUTS) == 1, f"no one input for {site!r}"
    for key in CERTIFICATE_INPUTS:
        assert sum(key in site for site in sites) == 1, f"{key!r} names no one raise site"


@pytest.mark.parametrize("fragment", sorted(CERTIFICATE_INPUTS))
def test_every_certificate_is_reachable(fragment):
    with pytest.raises(UnsupportedStructureError, match=fragment):
        CERTIFICATE_INPUTS[fragment]()


@pytest.mark.parametrize("seed", ROTATING_PAIR_SEEDS)
def test_unresolved_long_run_state_is_unsupported_structure(tmp_path, capsys, seed):
    # a valid channel is never invalid input: the non-PSD long-run state of
    # a split rotating pair exits 3, never 1
    e = unitary_channel(rotating_pair_unitary(seed))
    with pytest.raises(UnsupportedStructureError, match="not positive semidefinite"):
        fp.decompose_fixed_algebra(e)
    path = tmp_path / "e.json"
    serialize.save(path, serialize.channel_to_json(e))
    assert cli.main(["decompose", "--channel", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("unsupported structure: long-run state is not positive semidefinite")


@pytest.mark.parametrize(
    "e, count",
    [(block_channel_4(), 2), (identity_plus_dephasing(5, 3), 3), (dephasing_channel(3), 3)],
    ids=["block4", "id3-deph2", "deph3"],
)
def test_center_has_one_element_per_block(e, count):
    # the center of the fixed algebra is spanned by the block projectors, one
    # per block, each commuting with every operator the adjoint fixes
    basis = dual_fixed_basis(e)
    blocks = fp.decompose_fixed_algebra(e)
    assert len(blocks) == count
    for block in blocks:
        z = block.projector
        for f in basis:
            assert np.max(np.abs(z @ f - f @ z)) < 1e-8


def test_superoperator_is_sum_of_krons_on_rectangular_channel(rng):
    e = random_channel(2, 3, rng, kraus_count=4)
    expected = sum(np.kron(k, np.conj(k)) for k in e.kraus)
    s = e.superoperator()
    assert s.shape == (9, 4)
    assert np.allclose(s, expected, atol=1e-14)


def check_rotated_identity_plus_dephasing(d, rng):
    e = identity_plus_dephasing(d, d // 2, random_unitary(d, rng))
    blocks = fp.decompose_fixed_algebra(e)
    assert [(b.d1, b.d2) for b in blocks] == [(d // 2, 1)] + [(1, 1)] * (d - d // 2)
    worst = 0.0
    for block in blocks:
        for _ in range(5):
            x = block.embed(random_density(block.d1, rng).matrix)
            worst = max(worst, np.max(np.abs(e(x) - x)))
    assert worst <= 1e-8


def test_decompose_rotated_identity_plus_dephasing_d12(rng):
    check_rotated_identity_plus_dephasing(12, rng)


def test_decompose_rotated_identity_plus_dephasing_d24(rng):
    # n = 156 fixed operators on C^24: an n x n x d x d product tensor would
    # hold 2.3e8 complex entries
    check_rotated_identity_plus_dephasing(24, rng)


def test_decompose_is_deterministic(rng):
    e = identity_plus_dephasing(6, 3, random_unitary(6, rng))
    first = fp.decompose_fixed_algebra(e)
    second = fp.decompose_fixed_algebra(e)
    assert [(b.d1, b.d2) for b in first] == [(b.d1, b.d2) for b in second]
    for b1, b2 in zip(first, second):
        assert np.array_equal(b1.isometry, b2.isometry)


def test_factor_check_needs_identity_on_second_factor():
    # M2 x I2 in (factor1 slow, factor2 fast) order, and its swap I2 x M2:
    # both are one block (2, 2) whose isometry puts the identity on the
    # second factor; the isometry with its factors swapped does not
    paulis = [np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z]
    swap = np.eye(4)[:, [0, 2, 1, 3]]

    def unfactored(basis, w):
        t = (w.conj().T @ basis @ w).reshape(-1, 2, 2, 2, 2)
        mu = np.trace(t, axis1=2, axis2=4) / 2
        return np.max(np.abs(t - mu[:, :, None, :, None] * np.eye(2)[:, None, :]))

    for order in (np.eye(4), swap):
        basis = hermitian_span(*(order @ np.kron(p, np.eye(2)) @ order.T for p in paulis))
        [(d1, d2, w)] = fp._decompose_algebra(basis)
        assert (d1, d2) == (2, 2)
        assert unfactored(basis, w) <= 1e-12
        assert unfactored(basis, w @ swap) >= 0.1


def tensor_blocks_channel(shapes, rng):
    """Direct sum over (d1, d2) of id_{d1} x (replace by a random full-rank nu),
    conjugated by a Haar unitary U, and its planted block projectors U P_k U†."""
    d = sum(d1 * d2 for d1, d2 in shapes)
    kraus = []
    offset = 0
    for d1, d2 in shapes:
        w, v = np.linalg.eigh(random_density(d2, rng).matrix)
        for i in range(d2):
            for j in range(d2):
                k = np.zeros((d, d), dtype=complex)
                replace = np.sqrt(max(w[i], 0.0)) * np.outer(v[:, i], np.eye(d2)[j])
                k[offset : offset + d1 * d2, offset : offset + d1 * d2] = np.kron(
                    np.eye(d1), replace
                )
                kraus.append(k)
        offset += d1 * d2
    u = random_unitary(d, rng)
    cuts = np.cumsum([0] + [d1 * d2 for d1, d2 in shapes])
    projectors = [u[:, a:b] @ u[:, a:b].conj().T for a, b in zip(cuts[:-1], cuts[1:])]
    return KrausChannel(tuple(u @ k @ u.conj().T for k in kraus), d, d), projectors


def assert_planted_blocks(blocks, projectors):
    """Each block's W W† is within 1e-8 of exactly one planted projector, and
    each planted projector of exactly one block: shapes alone do not show
    which parts were grouped into a block."""
    gaps = np.array([[np.max(np.abs(b.projector - p)) for p in projectors] for b in blocks])
    close = gaps <= 1e-8
    assert (close.sum(0) == 1).all() and (close.sum(1) == 1).all()


@pytest.mark.parametrize(
    "shapes",
    [
        [(2, 2), (1, 3)],
        [(3, 2), (2, 1), (1, 1)],
        [(4, 2), (2, 3), (1, 2)],
        [(2, 2)] * 3,
        [(1, 1)] * 8,
        [(1, 3)] * 4,
    ],
    ids=["d7", "d9", "d16", "3x(2,2)", "8x(1,1)", "4x(1,3)"],
)
def test_decompose_tensor_product_blocks(rng, shapes):
    e, projectors = tensor_blocks_channel(shapes, rng)
    blocks = fp.decompose_fixed_algebra(e)
    assert [(b.d1, b.d2) for b in blocks] == shapes
    assert_planted_blocks(blocks, projectors)
    worst = 0.0
    for block in blocks:
        w = block.isometry
        worst = max(worst, np.max(np.abs(w.conj().T @ w - np.eye(w.shape[1]))))
        for _ in range(5):
            x = block.embed(random_density(block.d1, rng).matrix)
            worst = max(worst, np.max(np.abs(e(x) - x)))
    assert worst <= 1e-8


def test_central_blocks_refine_when_the_combined_element_ties_two_blocks(rng, numpy_calls):
    # the algebra C p1 + C p2 + C p3 with p1, p2 of rank 2, in a basis that
    # mixes p1 and p2 at the angle where the combination sum_a b_a / (a + pi)
    # takes one value on both, so its split has two parts and the elements
    # refine the part of rank 4
    c0, c1 = 1 / np.pi, 1 / (1 + np.pi)
    theta = np.arctan((c0 - c1) / (c0 + c1))
    u = random_unitary(5, rng)
    p1, p2, p3 = (u @ np.diag(m).astype(complex) @ u.conj().T for m in (
        [1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]
    ))
    cos, sin = np.cos(theta), np.sin(theta)
    basis = np.stack([(cos * p1 + sin * p2) / np.sqrt(2), (-sin * p1 + cos * p2) / np.sqrt(2), p3])
    combined = np.tensordot(1 / (np.arange(3) + np.pi), basis, 1)
    groups, _ = fp._eigen_clusters(combined)
    assert [g.stop - g.start for g in groups] == [1, 4]
    numpy_calls.reset()
    projectors = [q @ q.conj().T for q in fp._minimal_projections(basis)[0]]
    # one eigh splits the space and one the part of rank 4; the parts of
    # rank 2 are minimal, which their compressions show without an eigh
    assert numpy_calls["eigh"] == [(5, 5), (4, 4)]
    assert len(projectors) == 3
    for want in (p1, p2, p3):
        assert sum(np.max(np.abs(got - want)) <= 1e-12 for got in projectors) == 1


def test_central_blocks_separate_blocks_equal_in_one_element(rng):
    # C p1 + C p2 + C p3, p1 and p2 of rank 2 sharing their coefficient in
    # the first basis element
    u = random_unitary(5, rng)
    p1, p2, p3 = (u @ np.diag(m).astype(complex) @ u.conj().T for m in (
        [1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]
    ))
    basis = np.stack([(p1 + p2) / 2, (p1 - p2) / 2, p3])
    projectors = [q @ q.conj().T for q in fp._minimal_projections(basis)[0]]
    assert len(projectors) == 3
    for want in (p1, p2, p3):
        assert sum(np.max(np.abs(got - want)) <= 1e-12 for got in projectors) == 1
    # two elements that split the space into three blocks span no algebra
    # of three blocks
    with pytest.raises(UnsupportedStructureError, match="total dimension 3"):
        fp._decompose_algebra(basis[1:])


def test_full_matrix_block_is_its_central_projector(rng):
    # identity on a rotated 4-dimensional subspace: its block is M4 x I1,
    # returned without factoring, so W W† is the block's projector
    u = random_unitary(7, rng)
    e = identity_plus_dephasing(7, 4, u)
    block = fp.decompose_fixed_algebra(e)[0]
    assert (block.d1, block.d2) == (4, 1)
    w = block.isometry
    assert np.max(np.abs(w.conj().T @ w - np.eye(4))) <= 1e-12
    want = u[:, :4] @ u[:, :4].conj().T
    assert np.max(np.abs(w @ w.conj().T - want)) <= 1e-12


SHAPE = st.tuples(st.integers(1, 4), st.integers(1, 3))


@settings(max_examples=50)
@given(
    # lists of shapes, and lists of one repeated shape
    shapes=st.one_of(
        st.lists(SHAPE, min_size=1, max_size=4),
        st.builds(lambda shape, count: [shape] * count, SHAPE, st.integers(2, 6)),
    ).filter(lambda shapes: sum(d1 * d2 for d1, d2 in shapes) <= 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_decompose_random_tensor_product_blocks(shapes, seed):
    rng = np.random.default_rng(seed)
    e, projectors = tensor_blocks_channel(shapes, rng)
    blocks = fp.decompose_fixed_algebra(e)
    assert [(b.d1, b.d2) for b in blocks] == sorted(shapes, key=lambda s: (-s[0], -s[1]))
    assert_planted_blocks(blocks, projectors)
    assert sum(b.d1 * b.d1 for b in blocks) == fp.fixed_point_space(e).dim
    for block in blocks:
        w = block.isometry
        assert np.max(np.abs(w.conj().T @ w - np.eye(w.shape[1]))) <= 1e-8
        x = block.embed(random_density(block.d1, rng).matrix)
        assert np.max(np.abs(e(x) - x)) <= 1e-8


def unit(d, j, k):
    return np.outer(np.eye(d)[j], np.eye(d)[k]).astype(complex)


def explicit_coordinate_basis(d):
    """d^2 x d^2 unitary whose columns are the row-major vectorized basis
    {E_jj, (E_jk + E_kj)/sqrt2, i(E_jk - E_kj)/sqrt2}, j < k, built entry by entry."""
    cols = [unit(d, j, j) for j in range(d)]
    pairs = list(zip(*np.triu_indices(d, 1)))
    for j, k in pairs:
        cols.append((unit(d, j, k) + unit(d, k, j)) / np.sqrt(2))
    for j, k in pairs:
        cols.append(1j * (unit(d, j, k) - unit(d, k, j)) / np.sqrt(2))
    return np.stack([c.reshape(-1) for c in cols], axis=1)


def span_projector(vecs):
    """Orthogonal projector onto the complex span of the columns."""
    q = np.linalg.qr(vecs)[0]
    return q @ q.conj().T


def complex_kernels(e):
    """Fixed spaces of a channel and its adjoint from one complex SVD of I - S (columns)."""
    d = e.din
    u, s, vt = np.linalg.svd(np.eye(d * d) - e.superoperator())
    keep = s <= NULL_TOL
    return vt[keep].conj().T, u[:, keep]


def vectorized(stack):
    return stack.reshape(len(stack), -1).T


def test_coordinates_round_trip_and_are_an_isometry(rng):
    h = np.stack([linalg.hermitize(random_unitary(5, rng)) for _ in range(3)])
    v = fp._coords(h)
    assert v.shape == (3, 25) and v.dtype == float
    assert np.max(np.abs(fp._from_coords(v, 5) - h)) <= 1e-15
    back = fp._from_coords(v, 5)
    assert np.array_equal(back, back.conj().swapaxes(1, 2))
    for a, va in zip(h, v):
        for b, vb in zip(h, v):
            assert abs(va @ vb - np.trace(a @ b).real) <= 1e-13


@pytest.mark.parametrize("adjoint", [False, True], ids=["S", "S-dagger"])
@pytest.mark.parametrize(
    "make",
    [lambda rng: random_channel(3, 3, rng), lambda rng: amplitude_damping_plus_identity(0.3)],
    ids=["random", "non-unital"],
)
def test_real_superoperator_is_the_explicit_change_of_basis(rng, make, adjoint):
    e = make(rng)
    d = e.din
    s = e.superoperator()
    if adjoint:
        s = s.conj().T
    b = explicit_coordinate_basis(d)
    dense = b.conj().T @ s @ b
    assert np.max(np.abs(dense.imag)) <= 1e-14
    real = fp._real_superop(s, d)
    assert real.dtype == float
    assert np.max(np.abs(real - dense.real)) <= 1e-14
    # the adjoint's real superoperator is the transpose
    other = e.superoperator() if adjoint else e.superoperator().conj().T
    assert np.max(np.abs(fp._real_superop(other, d) - real.T)) <= 1e-14
    # the same singular values as the complex I - S
    eye = np.eye(d * d)
    want = np.linalg.svd(eye - s, compute_uv=False)
    assert np.max(np.abs(np.linalg.svd(eye - real, compute_uv=False) - want)) <= 1e-12


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: random_channel(3, 3, rng),
        lambda rng: amplitude_damping_plus_identity(0.3),
        lambda rng: cycle_fed_by_decay(),
    ],
    ids=["random", "non-unital", "rank-deficient-long-run"],
)
def test_real_kernels_span_the_complex_kernels(rng, make):
    e = make(rng)
    d = e.din
    right, left = fp._fixed_kernels(e)
    want_right, want_left = complex_kernels(e)
    for coords, want in ((right, want_right), (left, want_left)):
        assert coords.shape[0] == want.shape[1]
        herm = fp._from_coords(coords, d)
        gram = np.einsum("aij,bji->ab", herm, herm)
        assert np.max(np.abs(gram - np.eye(len(herm)))) <= 1e-12
        got = span_projector(vectorized(herm))
        assert np.max(np.abs(got - span_projector(want))) <= 1e-10


def test_fixed_basis_of_two_channels_spans_the_complex_kernel():
    e1, e2 = block_channel_4(), amplitude_damping_plus_identity(0.3)
    supers = [e1.superoperator(), e2.superoperator()]
    eye = np.eye(16)
    _, s, vt = np.linalg.svd(np.vstack([m - eye for m in supers]))
    want = vt[s <= NULL_TOL].conj().T
    basis = np.stack(fp.fixed_point_space(e1, e2).basis)
    ref = stacked_fixed_basis(supers, 4)
    assert np.max(np.abs(span_projector(vectorized(basis)) - span_projector(vectorized(ref)))) <= 1e-12
    # a E00 + t (E22 + E33): the block channel's M2 + C, damped on level 1
    assert len(basis) == want.shape[1] == 2
    for e in (e1, e2):
        for x in basis:
            assert np.max(np.abs(e(x) - x)) <= 1e-12
    assert np.max(np.abs(span_projector(vectorized(basis)) - span_projector(want))) <= 1e-10


def block_algebra(blocks):
    """Stacked basis W (E_ab x I) W† of the algebra the blocks describe."""
    mats = []
    for b in blocks:
        for unit in np.eye(b.d1 * b.d1).reshape(-1, b.d1, b.d1):
            mats.append(b.embed(unit, np.eye(b.d2)))
    return np.stack(mats)


def phase_pair(d, rng):
    """Identity on d/2 plus dephasing, and a unitary that is the identity on
    the first d/2 levels and a phase on the others, both rotated by one
    unitary: their common dual fixed algebra is M_{d/2} plus d/2 scalars."""
    u = random_unitary(d, rng)
    half = d // 2
    phases = np.exp(2j * np.pi * np.arange(d - half) / (d - half + 1))
    w = np.diag(np.concatenate([np.ones(half), phases]))
    return identity_plus_dephasing(d, half, u), unitary_channel(u @ w @ u.conj().T)


@pytest.mark.parametrize(
    "make, v, dim",
    [
        (lambda rng: phase_pair(6, rng), np.eye(6), 12),
        # damping empties level 1, so the mixture's long-run state has rank 3
        (
            lambda rng: (
                amplitude_damping_plus_identity(0.3),
                unitary_channel(np.diag([np.exp(0.7j), 1, 1, 1])),
            ),
            np.eye(4)[:, [0, 2, 3]],
            5,
        ),
    ],
    ids=["d6-pair", "rank-deficient-mixture"],
)
def test_blocks_of_two_channels_span_the_stacked_dual_kernel(rng, make, v, dim):
    # reference: the common kernel of the stacked adjoints, on the support v
    e1, e2 = make(rng)
    blocks, state = fp._blocks(e1, e2)
    state = state.matrix
    assert np.max(np.abs(state - v @ v.conj().T @ state @ v @ v.conj().T)) <= 1e-12
    superops = [compressed(e, v).superoperator().conj().T for e in (e1, e2)]
    ref = stacked_fixed_basis(superops, v.shape[1])
    ref = v @ ref @ v.conj().T
    got = block_algebra(blocks)
    assert len(got) == len(ref) == dim
    assert np.max(np.abs(span_projector(vectorized(got)) - span_projector(vectorized(ref)))) <= 1e-10


def decaying_into_support(d, rng):
    """A channel on C^d, d >= 3, whose long-run state has rank 2 <= r < d,
    with its tensor block shapes and r: tensor blocks (tensor_blocks_channel)
    on r levels, the other d - r levels decaying into them, all Haar-rotated.

    Its Kraus stack is an isometry from C^d: the first r columns are the
    block channel's Kraus operators, zero on the transient rows, so the r
    levels are invariant; the rest are random columns orthogonal to them,
    which leak weight into the r levels, so the transient levels decay.
    """
    r = int(rng.integers(2, d))
    shapes, left = [], r
    while left:
        d1 = int(rng.integers(1, left + 1))
        d2 = int(rng.integers(1, left // d1 + 1))
        shapes.append((d1, d2))
        left -= d1 * d2
    blocks = tensor_blocks_channel(shapes, rng)[0].kraus
    n = len(blocks) + 1
    first = np.zeros((n, d, r), dtype=complex)
    first[:-1, :r] = blocks
    first = first.reshape(n * d, r)
    rest = complex_gaussian(rng, (n * d, d - r))
    rest, _ = np.linalg.qr(rest - first @ (first.conj().T @ rest))
    kraus = np.hstack([first, rest]).reshape(n, d, d)
    u = random_unitary(d, rng)
    return KrausChannel(u @ kraus @ u.conj().T, d, d), shapes, r


def test_compressed_dual_kernel_is_the_compressed_channels_dual_kernel():
    # the left kernel of the full I - S, compressed to the long-run support
    # and orthonormalized, spans the dual fixed space of V† K V
    for seed in range(200):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 8))
        e, shapes, r = decaying_into_support(d, rng)
        supp = fp.invariant_state(e).support
        assert supp.rank == r, seed
        v = supp.isometry
        dual = fp._from_coords(fp._fixed_kernels(e)[1], d)
        got = fp._orthonormal_hermitian(v.conj().T @ dual @ v)
        want = dual_fixed_basis(compressed(e, v))
        assert len(got) == len(want) == sum(d1 * d1 for d1, _ in shapes), seed
        gap = span_projector(vectorized(got)) - span_projector(vectorized(want))
        assert np.max(np.abs(gap)) <= 1e-8, seed
        blocks = fp.decompose_fixed_algebra(e)
        assert [(b.d1, b.d2) for b in blocks] == sorted(shapes, key=lambda s: (-s[0], -s[1]))


@pytest.mark.parametrize(
    "decompose",
    [fp.decompose_fixed_algebra, fp._blocks, lambda e: fp._blocks(e, e)],
    ids=["decompose_fixed_algebra", "_blocks", "_blocks-of-two"],
)
def test_rank_deficient_decomposition_takes_one_kernel_svd(monkeypatch, decompose):
    calls = []

    def counted(*channels, _fn=fp._fixed_kernels):
        calls.append(len(channels))
        return _fn(*channels)

    monkeypatch.setattr(fp, "_fixed_kernels", counted)
    rng = np.random.default_rng(31)
    cases = [amplitude_damping_plus_identity(0.3), cycle_fed_by_decay()]
    cases += [decaying_into_support(d, rng)[0] for d in (4, 6)]
    for e in cases:
        assert fp.invariant_state(e).support.rank < e.din
        calls.clear()
        decompose(e)
        assert calls == [1]


def test_embed_matches_kron_and_checks_factor_shapes(rng):
    block = fp.decompose_fixed_algebra(tensor_blocks_channel([(2, 3)], rng)[0])[0]
    mu = random_density(2, rng).matrix
    nu = random_density(3, rng).matrix
    w = block.isometry
    want = w @ np.kron(mu, nu) @ w.conj().T
    assert np.max(np.abs(block.embed(mu, nu) - want)) <= 1e-15
    with pytest.raises(ShapeError, match=r"\(2, 2\) and \(3, 3\)"):
        block.embed(np.eye(3), nu)
    with pytest.raises(ShapeError, match=r"\(2, 2\) and \(3, 3\)"):
        block.embed(mu, np.eye(2))
    with pytest.raises(ShapeError, match=r"\(2, 2\) and \(3, 3\)"):
        block.embed(np.ones(2))


def test_embed_on_a_stack_matches_each_matrix_and_kron(rng):
    block = fp.decompose_fixed_algebra(tensor_blocks_channel([(2, 3)], rng)[0])[0]
    mus = np.stack([random_density(2, rng).matrix for _ in range(4)])
    nu = random_density(3, rng).matrix
    w = block.isometry
    got = block.embed(mus, nu)
    assert got.shape == (4, 6, 6)
    for lifted, mu in zip(got, mus):
        assert np.array_equal(lifted, block.embed(mu, nu))
        assert np.max(np.abs(lifted - w @ np.kron(mu, nu) @ w.conj().T)) <= 1e-15
    # the block's own nu serves a stack too
    assert np.array_equal(block.embed(mus)[2], block.embed(mus[2]))


@pytest.mark.parametrize("shape", [(2,), (1, 1, 2, 2), (4, 3, 3), (4, 2, 3), (3, 2)])
def test_embed_rejects_a_stack_of_the_wrong_shape(rng, shape):
    block = fp.decompose_fixed_algebra(tensor_blocks_channel([(2, 3)], rng)[0])[0]
    with pytest.raises(ShapeError, match=r"\(2, 2\) and \(3, 3\)"):
        block.embed(np.ones(shape))


def einsum_center_image(basis):
    """Reference: the image of T(X) = sum_a b_a X b_a by its einsum formula."""
    n, d, _ = basis.shape
    t = np.einsum("aik,alj->ijkl", basis, basis).reshape(d * d, d * d)
    return (t @ basis.reshape(n, d * d).T).T.reshape(n, d, d)


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: identity_plus_dephasing(7, 4, random_unitary(7, rng)),
        lambda rng: tensor_blocks_channel([(2, 2), (2, 1), (1, 3)], rng)[0],
        lambda rng: depolarized_qubit_channel(4, 0.5),
    ],
    ids=["identity-plus-dephasing-d7", "tensor-blocks-d9", "depolarizing-qubit-d8"],
)
def test_center_basis_matches_its_einsum_formula(rng, make):
    # the center is the image of T, as T(x x I) = Tr(x)/d2 times the block
    # projector: the block projectors span that image
    e = make(rng)
    basis = fp._from_coords(fp._fixed_kernels(e)[1], e.din)
    want = vectorized(fp._orthonormal_hermitian(einsum_center_image(basis)))
    got = vectorized(np.stack([b.projector for b in fp.decompose_fixed_algebra(e)]))
    assert got.shape[1] == want.shape[1]
    assert np.max(np.abs(span_projector(got) - span_projector(want))) <= 1e-12


def test_decompose_rotated_identity_plus_dephasing_d32(rng):
    check_rotated_identity_plus_dephasing(32, rng)


@pytest.mark.parametrize(
    "value, tol, larger_ok, passed, margin",
    [
        (1e-12, 1e-10, False, True, 100.0),
        (1e-9, 1e-10, False, False, 0.1),
        (0.5, 0.25, True, True, 2.0),
        (1.0, 2.0, True, False, 0.5),
        (0.0, 1e-10, False, True, None),
        (0.0, 0.0, True, True, None),
        (np.nan, 1e-9, False, False, None),
        (np.nan, 1e-9, True, False, None),
        (np.inf, 1e-9, False, False, None),
        (np.inf, 1e-9, True, False, None),
    ],
)
def test_check_reports_its_margin(value, tol, larger_ok, passed, margin):
    check = wt.check("c", value, tol, larger_ok)
    assert check["pass"] is passed
    assert check["margin"] == (None if margin is None else pytest.approx(margin, rel=1e-15))
    # a non-finite value is written as null
    assert check["value"] == (value if np.isfinite(value) else None)
    json.dumps(check, allow_nan=False)  # strict JSON
