import numpy as np
import pytest

from qduality import linalg
from qduality.duality import BipartiteState, iso_reverse
from qduality.errors import NotPSDError, ShapeError, ValidationError, ZeroProbabilityError
from qduality.qobjects import (
    DensityOperator,
    Ensemble,
    KrausChannel,
    Povm,
    born,
    computational_povm,
    identity_channel,
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


@pytest.mark.parametrize("din, dout", [(2, 3), (3, 2)])
def test_stacked_channel_matches_per_operator_sums(rng, din, dout):
    e = random_channel(din, dout, rng, kraus_count=3)
    ks = list(e.kraus)
    x = rng.standard_normal((din, din)) + 1j * rng.standard_normal((din, din))
    s = rng.standard_normal((2, din)) + 1j * rng.standard_normal((2, din))
    cols = [(s @ k.T).reshape(-1) for k in ks]
    phi = np.eye(din).reshape(-1) / np.sqrt(din)
    choi = sum(
        np.outer(np.kron(np.eye(din), k) @ phi, (np.kron(np.eye(din), k) @ phi).conj())
        for k in ks
    )
    pairs = [
        (e(x), sum(k @ x @ k.conj().T for k in ks)),
        (e.kraus_sum, sum(k.conj().T @ k for k in ks)),
        (e.factor(s), np.stack(cols, axis=1)),
        (e.choi(), choi),
        (e.superoperator(), sum(np.kron(k, k.conj()) for k in ks)),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14


def test_kraus_stack_is_read_only_copy(rng):
    family = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex) / 2
    e = KrausChannel(family, 2, 2)
    assert e.kraus.shape == (2, 2, 2) and e.kraus.dtype == complex
    with pytest.raises(ValueError):
        e.kraus[0, 0, 0] = 1.0
    # the caller's array stays writable and detached from the channel
    family[0, 0, 0] = 0.0
    assert e.kraus[0, 0, 0] == 0.5
    assert np.array_equal(KrausChannel(list(family), 2, 2).kraus, family)


@pytest.mark.parametrize(
    "family, error, message",
    [
        ((), ValidationError, "at least one Kraus operator"),
        (np.zeros((0, 2, 2)), ValidationError, "at least one Kraus operator"),
        ((np.eye(2)[0],), ShapeError, "expected a matrix, got ndim=1"),
        (np.eye(2), ShapeError, "expected a matrix, got ndim=1"),
        ((np.eye(2), np.eye(3)), ShapeError, r"Kraus operator shape \(3, 3\) != \(2, 2\)"),
        ((np.ones((3, 2)),), ShapeError, r"Kraus operator shape \(3, 2\) != \(2, 2\)"),
        ((np.eye(2), np.full((2, 2), np.nan)), ValidationError, "non-finite"),
        ((np.full((2, 2), np.inf), np.eye(3)), ValidationError, "non-finite"),
        ((np.eye(2), 0.5 * np.eye(2)), ValidationError, "exceeds the identity"),
    ],
)
def test_kraus_channel_rejections(family, error, message):
    with pytest.raises(error, match=message):
        KrausChannel(family, 2, 2)


@pytest.mark.parametrize("din, dout", [(2, 3), (3, 2), (4, 4)])
def test_channel_call_on_a_stack_matches_each_matrix(rng, din, dout):
    e = random_channel(din, dout, rng, kraus_count=3)
    stack = rng.standard_normal((5, din, din)) + 1j * rng.standard_normal((5, din, din))
    got = e(stack)
    assert got.shape == (5, dout, dout)
    for out, m in zip(got, stack):
        assert np.array_equal(out, e(m))


@pytest.mark.parametrize("din, dout", [(2, 3), (3, 2), (4, 4)])
def test_channel_call_on_a_matrix_is_the_kraus_sum(rng, din, dout):
    e = random_channel(din, dout, rng, kraus_count=3)
    m = rng.standard_normal((din, din)) + 1j * rng.standard_normal((din, din))
    ks = e.kraus
    assert np.array_equal(e(m), (ks @ m @ linalg.dagger(ks)).sum(0))


@pytest.mark.parametrize(
    "shape, error, message",
    [
        ((2,), ShapeError, "ndim=1"),
        ((1, 1, 2, 2), ShapeError, "ndim=4"),
        ((3, 3), ShapeError, r"does not end in \(2, 2\)"),
        ((4, 2, 3), ShapeError, r"does not end in \(2, 2\)"),
        ((4, 3, 2), ShapeError, r"does not end in \(2, 2\)"),
        (None, ValidationError, "non-finite"),
    ],
)
def test_channel_call_rejects_bad_input(shape, error, message):
    if shape is None:  # a stack with one non-finite entry
        x = np.stack([np.eye(2)] * 3).astype(complex)
        x[1, 0, 1] = np.nan
    else:
        x = np.ones(shape)
    with pytest.raises(error, match=message):
        identity_channel(2)(x)


@pytest.mark.parametrize("din, dout", [(2, 3), (3, 2), (4, 4)])
def test_superoperator_matches_its_einsum_formula(rng, din, dout):
    ks = random_channel(din, dout, rng, kraus_count=3).kraus
    want = np.einsum("kac,kbd->abcd", ks, ks.conj()).reshape(dout * dout, din * din)
    got = KrausChannel(ks, din, dout).superoperator()
    assert np.max(np.abs(got - want)) <= 1e-15


def test_matrix_of_a_factored_state_is_not_rescanned(rng, monkeypatch):
    # Hermitian by construction, trace checked as ||X||_F^2 when built
    x = random_density(3, rng, rank=2).factor()
    real = np.eye(3)[:, :2] / np.sqrt(2)
    states = [DensityOperator._from_factor(x), DensityOperator._from_factor(real)]

    def scanned(m):
        raise AssertionError("the matrix of a factored state was scanned")

    monkeypatch.setattr(linalg, "is_hermitian", scanned)
    for state, f in zip(states, (x, real)):
        m = state.matrix
        assert m.dtype == complex
        assert np.array_equal(m, linalg.hermitize(f @ linalg.dagger(f)))
        assert state.matrix is m


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_factor_with_a_non_finite_entry_is_rejected(bad):
    # its trace is the only check a factored state gets
    x = np.eye(2, 1, dtype=complex)
    x[1, 0] = bad
    with pytest.raises(ValidationError, match="trace"):
        DensityOperator._from_factor(x)


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


def test_choi_state_roundtrip_through_iso_reverse(rng):
    # the Choi state is the dual state of (I/din, E)
    e = random_channel(3, 2, rng)
    e2 = iso_reverse(BipartiteState(DensityOperator(e.choi()), (3, 2))).channel
    assert np.allclose(e.choi(), e2.choi(), atol=1e-12)
    assert e2.is_trace_preserving


def test_povm_validation(rng):
    with pytest.raises(ValidationError):
        Povm((np.diag([0.5, 0.5]), np.diag([0.4, 0.5])))  # completeness
    with pytest.raises(ValidationError):
        Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))  # positivity
    m = random_povm(3, 4, rng)
    assert np.allclose(sum(m.elements), np.eye(3), atol=1e-10)


def test_povm_stack_keeps_indexing_iteration_and_len(rng):
    m = random_povm(3, 4, rng)
    assert m.elements.shape == (4, 3, 3) and len(m) == 4 and m.dim == 3
    assert np.array_equal(m.elements[1], list(m.elements)[1])
    with pytest.raises(ValueError):
        m.elements[0, 0, 0] = 1.0


@pytest.mark.parametrize(
    "args, error, message",
    [
        (((),), ValidationError, "at least one element"),
        (((np.eye(2), np.eye(3)),), ShapeError, "one square shape"),
        (((np.ones((2, 3)), np.ones((2, 3))),), ShapeError, "one square shape"),
        (((np.eye(2), np.full((2, 2), np.nan)),), ValidationError, "non-finite"),
        # the first failing element names the failure
        (((np.diag([1.5, -0.5]), np.array([[0.0, 1.0], [0.0, 0.0]])),), NotPSDError, "positive"),
        (((np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.5, -0.5])),), ValidationError, "Hermitian"),
        (((np.diag([0.5, 0.5]), np.diag([0.4, 0.5])),), ValidationError, "sum to the identity"),
        (((np.eye(2),), ("a", "b")), ValidationError, "label count"),
    ],
)
def test_povm_rejections(args, error, message):
    with pytest.raises(error, match=message):
        Povm(*args)


def test_povm_transpose_in_basis(rng):
    u = random_unitary(3, rng)
    m = random_povm(3, 3, rng)
    t = m.transpose(u)
    for el, elt in zip(m.elements, t.elements):
        expected = u @ (u.conj().T @ el @ u).T @ u.conj().T
        assert np.allclose(elt, expected, atol=1e-12)


def test_povm_transpose_in_a_non_unitary_basis_is_rejected(rng):
    # the transpose skips the eigensolver, not the completeness check
    m = random_povm(3, 3, rng)
    with pytest.raises(ValidationError, match="sum to the identity"):
        m.transpose(2 * np.eye(3))


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


def test_reduced_channel_keeps_weak_kraus_component(rng):
    # an isometry plus a weak random channel: the reduced Choi states are
    # rank-deficient but for the weak part, whose eigenvalues (about gamma
    # relative) lie below a relative eigenvalue cutoff of 1e-10
    gamma = 1e-12
    v = random_unitary(6, rng)[:, :3]
    weak = random_channel(3, 6, rng, kraus_count=2)
    kraus = [np.sqrt(1 - gamma) * v] + [np.sqrt(gamma) * k for k in weak.kraus]
    e = KrausChannel(tuple(kraus), 3, 6)
    x = random_density(3, rng).matrix
    for trace, keep in (("C", "A"), ("B", "B")):
        red = reduced_channel(e, (2, 3), trace)
        assert np.max(np.abs(red(x) - linalg.partial_trace(e(x), (2, 3), keep))) <= 1e-15


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


def test_factor_constructor_checks_trace_and_forms_matrix_on_read(rng):
    x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    x /= np.linalg.norm(x)
    supp = linalg.support_from_factor(x)
    state = DensityOperator._from_factor(x)
    assert state.dim == 4 and state.support.rank == supp.rank == 3
    assert np.array_equal(state.support.eigenvalues, supp.eigenvalues)
    assert np.array_equal(state.support.eigenvectors, supp.eigenvectors)
    assert "matrix" not in vars(state)
    m = state.matrix
    assert m is state.matrix
    assert np.array_equal(m, linalg.hermitize(x @ x.conj().T))
    with pytest.raises(ValidationError, match="trace"):
        DensityOperator._from_factor(0.9 * x)
    with pytest.raises(AttributeError):
        state.other


@pytest.mark.parametrize("weights", [(float("nan"), 1.0), (0.5, float("nan"))])
def test_nan_ensemble_weight_is_rejected(weights):
    states = (pure_state(np.array([1.0, 0.0])), pure_state(np.array([0.0, 1.0])))
    with pytest.raises(ValidationError, match="ensemble weights"):
        Ensemble(tuple(zip(weights, states)))
