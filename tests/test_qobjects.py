import numpy as np
import pytest

from qduality import linalg
from qduality.errors import ShapeError, ValidationError, ZeroProbabilityError
from qduality.qobjects import (
    DensityOperator,
    Ensemble,
    KrausChannel,
    Povm,
    born,
    computational_povm,
    identity_channel,
    kraus_from_choi,
    m_measure,
    m_prepare,
    max_entangled,
    povm_from_ensemble,
    pure_state,
    reduced_channel,
    unitary_channel,
)
from qduality.randomgen import (
    random_channel,
    random_density,
    random_povm,
    random_unitary,
)


def test_density_operator_validation():
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([0.5, 0.4]))  # trace
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([1.5, -0.5]))  # positivity
    with pytest.raises(ValidationError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # hermiticity


def test_pure_state_normalizes(rng):
    v = np.array([3.0, 4.0j])
    rho = pure_state(v)
    assert abs(rho.purity() - 1) < 1e-12
    assert np.allclose(rho.matrix @ rho.matrix, rho.matrix, atol=1e-12)


def test_kraus_channel_validation():
    with pytest.raises(ValidationError):
        KrausChannel((np.eye(2) * 1.1,), 2, 2)
    e = identity_channel(3)
    assert e.is_trace_preserving
    assert e.tp_class == "trace-preserving"


def test_channel_call_and_superoperator_agree(rng):
    e = random_channel(3, 4, rng)
    x = linalg.hermitize(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    via_super = (e.superoperator() @ x.reshape(-1)).reshape(4, 4)
    assert np.allclose(via_super, e(x), atol=1e-12)


def test_dual_channel_is_adjoint(rng):
    # the adjoint map is the conjugate transpose of the superoperator; it is
    # unital, and not trace non-increasing when dout < din or E is not unital
    for din, dout in ((2, 3), (3, 2), (3, 3)):
        e = random_channel(din, dout, rng)
        dual = lambda y: (e.superoperator().conj().T @ y.reshape(-1)).reshape(din, din)
        x = linalg.hermitize(rng.standard_normal((din, din)))
        y = linalg.hermitize(rng.standard_normal((dout, dout)))
        assert abs(np.trace(y @ e(x)) - np.trace(dual(y) @ x)) < 1e-12
        assert np.allclose(dual(np.eye(dout)), np.eye(din), atol=1e-10)
    # the 3 -> 3 channel is not unital, so its adjoint is not trace preserving
    assert np.max(np.abs(e(np.eye(3)) - np.eye(3))) > 1e-3


def test_choi_of_identity_is_max_entangled(rng):
    phi = max_entangled(2)
    assert np.allclose(identity_channel(2).choi(), np.outer(phi, phi.conj()), atol=1e-14)


def test_kraus_from_choi_roundtrip(rng):
    e = random_channel(3, 2, rng)
    e2 = kraus_from_choi(e.choi(), 3, 2)
    assert np.allclose(e.choi(), e2.choi(), atol=1e-12)
    assert e2.is_trace_preserving


def test_povm_validation(rng):
    with pytest.raises(ValidationError):
        Povm((np.diag([0.5, 0.5]), np.diag([0.4, 0.5])))  # completeness
    with pytest.raises(ValidationError):
        Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))  # positivity
    m = random_povm(3, 4, rng)
    assert np.allclose(sum(m.elements), np.eye(3), atol=1e-10)


def test_povm_transpose_in_basis(rng):
    u = random_unitary(3, rng)
    m = random_povm(3, 3, rng)
    t = m.transpose(u)
    for el, elt in zip(m.elements, t.elements):
        expected = u @ (u.conj().T @ el @ u).T @ u.conj().T
        assert np.allclose(elt, expected, atol=1e-12)


def test_born_matches_trace_rule(rng):
    rho = random_density(3, rng)
    m = random_povm(3, 4, rng)
    p = born(m, rho)
    direct = np.array([np.trace(el @ rho.matrix).real for el in m.elements])
    assert np.allclose(p.weights, direct, atol=1e-12)


def test_m_measure_update(rng):
    rho = random_density(2, rng)
    m = random_povm(2, 3, rng)
    prob, post = m_measure(m, 1, rho)
    root = linalg.support(m.elements[1]).power(0.5)
    expected = root @ rho.matrix @ root
    assert abs(prob - np.trace(expected).real) < 1e-12
    assert np.allclose(post.matrix, expected / np.trace(expected).real, atol=1e-12)


def test_m_measure_zero_probability():
    rho = pure_state(np.array([1.0, 0.0]))
    m = computational_povm(2)
    with pytest.raises(ZeroProbabilityError):
        m_measure(m, 1, rho)


def test_m_prepare_reassembles_state(rng):
    rho = random_density(3, rng)
    m = random_povm(3, 4, rng)
    ens = m_prepare(m, rho)
    assert np.allclose(ens.average(), rho.matrix, atol=1e-12)


def test_povm_from_ensemble_recovers_on_support(rng):
    rho = random_density(4, rng, rank=3)
    m = random_povm(4, 3, rng)
    ens = m_prepare(m, rho)
    rec = povm_from_ensemble(ens, rho)
    proj = linalg.support(rho.matrix).projector
    for a, b in zip(m.elements, rec.elements):
        assert np.allclose(proj @ a @ proj, proj @ b @ proj, atol=1e-9)


def test_ensemble_validation(rng):
    s = random_density(2, rng)
    with pytest.raises(ValidationError):
        Ensemble(((0.6, s), (0.6, s)))


def test_reduced_channel_matches_partial_trace(rng):
    e = random_channel(3, 6, rng)
    x = random_density(3, rng).matrix
    red = reduced_channel(e, (2, 3), "C")
    assert np.allclose(red(x), linalg.partial_trace(e(x), (2, 3), "A"), atol=1e-11)
    red_b = reduced_channel(e, (2, 3), "B")
    assert np.allclose(red_b(x), linalg.partial_trace(e(x), (2, 3), "B"), atol=1e-11)


def test_unitary_channel_action(rng):
    u = random_unitary(3, rng)
    e = unitary_channel(u)
    x = random_density(3, rng).matrix
    assert np.allclose(e(x), u @ x @ u.conj().T, atol=1e-12)


def test_state_support_is_computed_once(rng):
    m = random_density(4, rng, rank=3).matrix
    state = DensityOperator(m)
    assert state.support is state.support
    assert state.support.rank == 3
    assert np.allclose(state.support.projector @ m, m, atol=1e-12)


def test_internal_constructor_checks_all_but_positivity():
    m = np.diag([1.0, 0.0]).astype(complex)
    supp = linalg.support(m)
    state = DensityOperator._with_support(m, supp)
    assert state.support is supp
    with pytest.raises(ValidationError, match="trace"):
        DensityOperator._with_support(np.diag([0.5, 0.4]), supp)
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityOperator._with_support(np.array([[0.5, 0.5], [0.0, 0.5]]), supp)
    with pytest.raises(ShapeError):
        DensityOperator._with_support(np.ones((2, 3)) / 2, supp)
    # positivity is the caller's guarantee: no eigenvalue check runs
    DensityOperator._with_support(np.diag([1.5, -0.5]), supp)
