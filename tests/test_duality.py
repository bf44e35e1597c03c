import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qduality import cli, duality, linalg, serialize
from qduality.duality import (
    BipartiteState,
    IsoPair,
    channel_distance_on_support,
    eigenbasis,
    iso_forward,
    iso_reverse,
    verify_measure_commute,
    verify_roundtrip,
)
from qduality.errors import ShapeError, ValidationError, ZeroProbabilityError
from qduality.qobjects import (
    DensityOperator,
    KrausChannel,
    Povm,
    computational_povm,
    identity_channel,
    pure_state,
    reduced_channel,
    unitary_channel,
)
from qduality.randomgen import (
    random_channel,
    random_density,
    random_diagonal_povm,
    random_iso_pair,
    random_povm,
    random_unitary,
)


def test_iso_pair_rejects_mismatched_channel(rng):
    rho = random_density(2, rng)
    e = random_channel(3, 3, rng)
    with pytest.raises(Exception):
        IsoPair(rho, e)


def test_iso_pair_requires_tp_on_support(rng):
    rho = pure_state(np.array([1.0, 0.0]))
    # trace-decreasing everywhere, hence also on the support
    e = KrausChannel((np.eye(2) * 0.5,), 2, 2)
    with pytest.raises(ValidationError):
        IsoPair(rho, e)
    # trace-preserving only on span(|0>) is accepted
    k = np.array([[1.0, 0.0], [0.0, 0.5]])
    e2 = KrausChannel((k,), 2, 2)
    pair = IsoPair(rho, e2)
    assert pair.support_rank == 1


def test_iso_pair_rejects_an_overflowing_channel():
    # sum K†K = diag(inf, 1): the compression to span(|0>) meets 0 * inf = nan
    k = np.eye(2, dtype=complex)
    k[0, 0] = 1e308
    e = KrausChannel._from_stack(k[None], 2, 2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValidationError):
        IsoPair(pure_state(np.array([1.0, 0.0])), e)


def test_forward_marginal_is_transposed_state(rng):
    pair = random_iso_pair(3, 4, rng)
    tau = iso_forward(pair)
    assert np.allclose(tau.marginal("A"), pair.rho.matrix.T, atol=1e-12)


@pytest.mark.parametrize("rank", [3, 1], ids=["full-rank", "rank-deficient"])
@pytest.mark.parametrize("keep", ["A", "B"])
def test_marginal_folds_the_factor(rng, keep, rank):
    tau = iso_forward(random_iso_pair(3, 2, rng, rank=rank))
    marg = tau.marginal(keep)
    assert "matrix" not in vars(tau.state)
    reference = linalg.partial_trace(tau.state.matrix, tau.dims, keep)
    assert marg.shape == reference.shape
    assert np.max(np.abs(marg - reference)) <= 1e-15
    with pytest.raises(ValidationError):
        tau.marginal("C")


def test_forward_on_identity_channel_purifies(rng):
    rho = random_density(3, rng)
    tau = iso_forward(IsoPair(rho, identity_channel(3)))
    mat = tau.state.matrix
    assert np.trace(mat @ mat).real > 1 - 1e-12


def test_collapse_to_standard_at_maximally_mixed(rng):
    e = random_channel(3, 2, rng)
    rho = DensityOperator(np.eye(3) / 3)
    tau = iso_forward(IsoPair(rho, e)).state.matrix
    assert np.max(np.abs(tau - e.choi())) < 1e-13


def test_std_iso_marginal_maximally_mixed(rng):
    e = random_channel(4, 3, rng)
    tau = e.choi()
    marg = linalg.partial_trace(tau, (4, 3), "A")
    assert np.allclose(marg, np.eye(4) / 4, atol=1e-12)


def _choi_action(tau, dims, sigma):
    # E(sigma) = dA^2 <Phi+| sigma x tau |Phi+>, contracting the A and A' legs
    # of the (dA dB)^2 Choi matrix: the reference for KrausChannel.choi
    da, db = dims
    return da * np.einsum("jk,jmkn->mn", sigma, tau.reshape(da, db, da, db))


def test_std_iso_reverse_recovers_action(rng):
    e = random_channel(2, 3, rng)
    tau = e.choi()
    x = random_density(2, rng).matrix
    assert np.allclose(_choi_action(tau, (2, 3), x), e(x), atol=1e-12)


def test_roundtrip_full_rank(rng):
    pair = random_iso_pair(3, 3, rng)
    res = verify_roundtrip(pair)
    assert res["rho_deviation"] < 1e-10
    assert res["channel_deviation"] < 1e-10


def test_roundtrip_rank_deficient(rng):
    pair = random_iso_pair(4, 2, rng, rank=2)
    res = verify_roundtrip(pair)
    assert res["support_rank"] == 2
    assert res["rho_deviation"] < 1e-10
    assert res["channel_deviation"] < 1e-10


NEAR_CUTOFF = [1e-6, 1e-7, 1e-8, 1e-9, 1e-10]
WEAK_KRAUS = [
    (smallest, gamma, rotated)
    for rotated in (False, True)
    for gamma in (1e-4, 1e-6, 1e-8)
    for smallest in (1e-3, 1e-5)
]


def _near_cutoff_pair(rng, smallest):
    # graded spectrum whose smallest eigenvalue ratio runs down to 1e-10,
    # twice the tail bound of the support rank; a Choi matrix formed as tau_A^{-1/2} tau tau_A^{-1/2} loses
    # positivity here, the polar factor of tau's Kraus factor does not
    u = random_unitary(4, rng)
    w = np.array([1.0, 0.5, 0.25, smallest])
    rho = DensityOperator(linalg.hermitize((u * (w / w.sum())) @ u.conj().T))
    return IsoPair(rho, random_channel(4, 4, rng))


def _weak_kraus_pair(smallest, gamma, rotated):
    # amplitude damping: tau's eigenvalue for the weak Kraus operator is
    # about smallest * gamma, under the tail bound of the support rank
    # although rho's spectrum and the channel's Choi spectrum are each well
    # above it
    k0 = np.diag([1.0, np.sqrt(1 - gamma)]).astype(complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    rho = np.diag([1.0, smallest]) / (1 + smallest)
    u = random_unitary(2, np.random.default_rng(5)) if rotated else np.eye(2)
    rho = DensityOperator(linalg.hermitize(u @ rho @ u.conj().T))
    return IsoPair(rho, KrausChannel((k0 @ u.conj().T, k1 @ u.conj().T), 2, 2))


def _sub_cutoff_pair(d, rng):
    # d - 2 eigenvalues of 4e-11, each under the tail bound (5e-11 here) and
    # together heavier than TRACE_TOL: cut from the support, they would take
    # tau's unit trace with them
    w = np.array([0.5, 0.5 - (d - 2) * 4e-11] + [4e-11] * (d - 2))
    u = random_unitary(d, rng)
    rho = DensityOperator(linalg.hermitize((u * w) @ u.conj().T))
    return IsoPair(rho, random_channel(d, 2, rng))


@pytest.mark.parametrize("d", [6, 8])
def test_roundtrip_of_eigenvalues_under_the_rank_cutoff(rng, d):
    pair = _sub_cutoff_pair(d, rng)
    assert pair.support_rank == d
    res = verify_roundtrip(pair)
    assert res["rho_deviation"] <= 1e-9
    assert res["channel_deviation"] <= 1e-9


@pytest.mark.parametrize("smallest", NEAR_CUTOFF)
def test_roundtrip_near_rank_cutoff(rng, smallest):
    pair = _near_cutoff_pair(rng, smallest)
    res = verify_roundtrip(pair)
    assert res["rho_deviation"] <= 1e-9
    assert res["channel_deviation"] <= 1e-9
    back = iso_reverse(iso_forward(pair))
    proj = pair.support.projector
    assert np.max(np.abs(proj @ back.channel.kraus_sum @ proj - proj)) <= 1e-12


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("gamma", [1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("smallest", [1e-3, 1e-5])
def test_roundtrip_weak_kraus_component(smallest, gamma, rotated):
    res = verify_roundtrip(_weak_kraus_pair(smallest, gamma, rotated))
    assert res["rho_deviation"] <= 1e-9
    assert res["channel_deviation"] <= 1e-9


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("gamma", [1e-6, 1e-8])
@pytest.mark.parametrize("smallest", [1e-7, 1e-9])
def test_roundtrip_weak_kraus_below_eigensolver_rounding(smallest, gamma, rotated):
    # tau's weak eigenvalue smallest * gamma lies below 4 eps of the largest,
    # which an eigensolver on tau cannot resolve (the eigh path misses the
    # channel by up to 5.5e-8 here); the thin SVD of the Kraus factor can
    res = verify_roundtrip(_weak_kraus_pair(smallest, gamma, rotated))
    assert res["rho_deviation"] <= 1e-12
    assert res["channel_deviation"] <= 1e-12


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("gamma", [1e-6, 1e-8])
@pytest.mark.parametrize("smallest", [1e-7, 1e-9])
def test_roundtrip_weak_kraus_through_files(tmp_path, capsys, smallest, gamma, rotated):
    # iso forward writes tau as its factor, so the reverse map read from the
    # file resolves the weak eigenvalue as the in-memory round trip does; a
    # matrix file loses it to the eigensolver's rounding (8.9e-8 here)
    pair = _weak_kraus_pair(smallest, gamma, rotated)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("rho", "e", "tau", "r", "k")}
    serialize.save(paths["rho"], serialize.state_to_json(pair.rho))
    serialize.save(paths["e"], serialize.channel_to_json(pair.channel))
    forward = ["iso", "forward", "--rho", paths["rho"], "--channel", paths["e"]]
    reverse = ["iso", "reverse", "--tau", paths["tau"], "--dimA", "2", "--dimB", "2"]
    assert cli.main(forward + ["--out", paths["tau"]]) == 0
    assert cli.main(reverse + ["--out-rho", paths["r"], "--out-channel", paths["k"]]) == 0
    capsys.readouterr()
    rho = serialize.state_from_json(serialize.load(paths["r"]))
    channel = serialize.channel_from_json(serialize.load(paths["k"]))
    assert np.max(np.abs(rho.matrix - pair.rho.matrix)) <= 1e-12
    v = pair.support.isometry
    assert channel_distance_on_support(pair.channel, channel, v) <= 1e-12


def _near_cutoff_tol(pair):
    # the polar factor's first-order error eps s_max / s_min, s the singular
    # values of C, is eps / sqrt(r) for r rho's smallest kept eigenvalue
    # ratio on its support; 2 covers the worst multiple seen, 1.71
    w = pair.support.eigenvalues[: pair.support_rank]
    return max(1e-12, 2 * np.finfo(float).eps / np.sqrt(w[-1] / w[0]))


def _assert_paths_agree(pair, chan_tol):
    # one tau reversed twice: from the Kraus factor iso_forward stored, and
    # from its matrix alone through the public constructor (one eigh).  The
    # eigh resolves tau's small eigenpairs only to eps * |tau|, which
    # rho^{-1/2} amplifies in the recovered channel.  On the near-cutoff
    # family the two channels differ by about 0.43 eps / sqrt(r) (1.71 times
    # it at worst over 6,000 draws), a median 9e-12 at r = 1e-10, where the
    # factor path's median distance to the original channel is 3.5e-12; on
    # the weak-Kraus families r does not govern the gap (up to 112
    # eps / sqrt(r)), which stays under 7.9e-12.  Their dual states agree
    # to rounding.
    tau = iso_forward(pair)
    by_factor = iso_reverse(tau)
    by_eigh = iso_reverse(BipartiteState(DensityOperator(tau.state.matrix), tau.dims))
    assert by_factor.support_rank == by_eigh.support_rank == pair.support_rank
    assert np.max(np.abs(by_factor.rho.matrix - by_eigh.rho.matrix)) <= 1e-12
    v = pair.support.isometry
    assert channel_distance_on_support(by_factor.channel, by_eigh.channel, v) <= chan_tol
    dual_gap = iso_forward(by_factor).state.matrix - iso_forward(by_eigh).state.matrix
    assert np.max(np.abs(dual_gap)) <= 1e-12


@pytest.mark.parametrize("smallest", NEAR_CUTOFF)
def test_factor_path_matches_eigh_path_near_cutoff(rng, smallest):
    pair = _near_cutoff_pair(rng, smallest)
    _assert_paths_agree(pair, _near_cutoff_tol(pair))


@pytest.mark.parametrize("smallest", NEAR_CUTOFF)
def test_matrix_and_factor_of_one_tau_give_one_pair_near_cutoff(smallest):
    # the property over seeded draws: a tau loaded as its matrix and as its
    # factor reverse to the same pair, within the conditioning bound
    for seed in range(20):
        pair = _near_cutoff_pair(np.random.default_rng(seed), smallest)
        _assert_paths_agree(pair, _near_cutoff_tol(pair))


@pytest.mark.parametrize("smallest, gamma, rotated", WEAK_KRAUS)
def test_factor_path_matches_eigh_path_weak_kraus(smallest, gamma, rotated):
    _assert_paths_agree(_weak_kraus_pair(smallest, gamma, rotated), 1e-11)


def _assert_any_factor_gives_one_pair(pair, rng):
    # iso_reverse reads whichever factor tau holds; factors of one tau differ
    # by a V with V V† = I on the right, which mixes the Kraus operators
    # and leaves rho and the channel as they are
    tau = iso_forward(pair)
    x = tau.state.factor()
    k = x.shape[1]
    v = random_unitary(2 * k, rng)[:k]  # k x 2k, orthonormal rows
    factors = {
        "held": x,
        "mixed": x @ v,
        "zero column": np.concatenate([x, np.zeros((x.shape[0], 1))], 1),
        "support": tau.state.support.factor(),
    }
    backs = {
        name: iso_reverse(BipartiteState(DensityOperator._from_factor(y), tau.dims))
        for name, y in factors.items()
    }
    ref = backs["held"]
    iso = pair.support.isometry
    # rounding in a factor reaches the polar factor through 1/s_min(C): the
    # channels agree to 1e-12 while rho's smallest kept eigenvalue ratio r
    # is above about 5e-8, and to eps / sqrt(r) below it, where every
    # factor, the held one too, is that far from the input channel
    w = pair.support.eigenvalues[: pair.support_rank]
    chan_tol = max(1e-12, np.finfo(float).eps / np.sqrt(w[-1] / w[0]))
    for name, y in factors.items():
        back = backs[name]
        assert len(back.channel.kraus) == y.shape[1], name
        assert back.support_rank == pair.support_rank, name
        assert np.max(np.abs(back.rho.matrix - ref.rho.matrix)) <= 1e-12, name
        assert channel_distance_on_support(back.channel, ref.channel, iso) <= chan_tol, name


@pytest.mark.parametrize("da, db, rank", [(3, 4, 3), (3, 4, 2), (4, 2, 4), (2, 5, 1)])
def test_reverse_is_independent_of_the_factor(rng, da, db, rank):
    _assert_any_factor_gives_one_pair(random_iso_pair(da, db, rng, rank=rank), rng)


@pytest.mark.parametrize("smallest", NEAR_CUTOFF)
def test_reverse_is_independent_of_the_factor_near_cutoff(rng, smallest):
    _assert_any_factor_gives_one_pair(_near_cutoff_pair(rng, smallest), rng)


@pytest.mark.parametrize("smallest, gamma, rotated", WEAK_KRAUS)
def test_reverse_is_independent_of_the_factor_weak_kraus(rng, smallest, gamma, rotated):
    _assert_any_factor_gives_one_pair(_weak_kraus_pair(smallest, gamma, rotated), rng)


def test_channel_distance_on_support_is_compressed_choi_distance(rng):
    e1, e2 = random_channel(4, 3, rng), random_channel(4, 3, rng)
    v = random_unitary(4, rng)[:, :2]

    def compressed_choi(e):
        return KrausChannel(tuple(k @ v for k in e.kraus), 2, 3).choi()

    diff = compressed_choi(e1) - compressed_choi(e2)
    dist = channel_distance_on_support(e1, e2, v)
    expected = np.linalg.norm(diff)
    assert abs(dist - expected) <= 1e-15 * expected
    # the Frobenius norm bounds the largest entry, the distance's old meaning
    assert dist >= np.max(np.abs(diff))


def test_verify_roundtrip_never_forms_tau(rng, monkeypatch):
    built = []

    def forward(pair, basis=None, _fn=duality.iso_forward):
        built.append(_fn(pair, basis))
        return built[-1]

    monkeypatch.setattr(duality, "iso_forward", forward)
    pair = random_iso_pair(3, 4, rng, rank=2)
    res = verify_roundtrip(pair)
    assert res["support_rank"] == 2
    (tau,) = built
    assert tau.state.dim == 12
    # the (dA dB)^2 matrix is formed only when read
    assert "matrix" not in vars(tau.state)
    x = pair.channel.factor(pair.support.power(0.5).T)
    assert np.max(np.abs(tau.state.matrix - x @ x.conj().T)) <= 1e-15
    assert "matrix" in vars(tau.state)


def test_verify_roundtrip_eigendecomposes_only_da_matrices(rng, numpy_calls):
    da, db = 3, 4
    rho = random_density(da, rng, rank=2).matrix
    channel = random_channel(da, db, rng)
    numpy_calls.reset()
    res = verify_roundtrip(IsoPair(DensityOperator(rho), channel))
    assert res["support_rank"] == 2
    shapes = numpy_calls["eigh"] + numpy_calls["eigvalsh"]
    # rho's validation and support, and the recovered Kraus family's check
    assert shapes and all(shape == (da, da) for shape in shapes)


@pytest.mark.parametrize("rank", [4, 2])
def test_iso_pair_of_a_matrix_state_takes_one_eigh(rng, numpy_calls, rank):
    # the eigh that checks positivity is kept as the state's Support
    m = random_density(4, rng, rank=rank).matrix
    channel = random_channel(4, 3, rng)
    numpy_calls.reset()
    pair = IsoPair(DensityOperator(m), channel)
    assert pair.support.rank == pair.support_rank == rank
    assert numpy_calls["eigh"] == [(4, 4)]
    assert numpy_calls["eigvalsh"] == []


@pytest.mark.parametrize("da, db, count", [(3, 4, 3), (4, 2, 5), (2, 3, 1)])
def test_verify_roundtrip_call_budget(rng, numpy_calls, da, db, count):
    # one SVD of the tall (k dB) x dA matrix C, one QR
    # (channel_distance_on_support), no eigensolver; a decomposition of tau
    # added back fails here
    pair = IsoPair(random_density(da, rng, rank=2), random_channel(da, db, rng, count))
    numpy_calls.reset()
    verify_roundtrip(pair)
    assert numpy_calls["svd"] == [(count * db, da)]
    assert len(numpy_calls["qr"]) == 1
    # the reversed pair is built valid: no eigensolver re-checks it
    assert numpy_calls["eigh"] == numpy_calls["eigvalsh"] == []
    assert numpy_calls["kron"] == []


def test_roundtrip_when_c_is_wide(rng, numpy_calls):
    # k dB = 2 < dA = 5: C is 2 x 5, so its SVD gives two singular values,
    # padded with zeros to dA for the rank bar, and the recovered Support
    # holds two eigenvectors; each channel is trace preserving on its
    # state's rank-2 support only
    da, count = 5, 2
    v = random_unitary(da, rng)[:, :count]
    rho = DensityOperator(linalg.hermitize((v * [0.7, 0.3]) @ v.conj().T))
    kraus = (random_unitary(count, rng) @ v.conj().T)[:, None, :]
    pair = IsoPair(rho, KrausChannel(kraus, da, 1))
    numpy_calls.reset()
    res = verify_roundtrip(pair)
    assert numpy_calls["svd"] == [(count, da)]
    assert res["support_rank"] == 2
    assert res["rho_deviation"] <= 1e-12 and res["channel_deviation"] <= 1e-12
    back = iso_reverse(iso_forward(pair))
    assert back.rho.support.eigenvectors.shape == (da, count)
    x = np.stack([iso_forward(pair).state.factor()] * 3)
    rho_s, kraus_s = duality.reverse_stack(x, (da, 1))
    assert np.max(np.abs(rho_s - rho.matrix)) <= 1e-12
    assert kraus_s.shape == (3, count, 1, da)


# eigenvalue ratios to the largest: exact zeros (rank deficient), repeats
# (degenerate) and a graded range that reaches 10^-9.9, just above 1e-10,
# twice the tail bound of the support rank
_RATIO = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 0.5]),
    st.floats(0.0, 9.9).map(lambda e: 10.0**-e),
)


@settings(max_examples=150)
@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    ratios=st.lists(_RATIO, min_size=5, max_size=5),
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 8.0).map(lambda e: 10.0**-e)),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_property(dims, ratios, gamma, extra, seed):
    # channel (1 - gamma) E1 + gamma E2, so E2's Kraus operators are weak
    da, db = dims
    rng = np.random.default_rng(seed)
    w = np.array([1.0] + ratios[: da - 1])
    u = random_unitary(da, rng)
    rho = DensityOperator(linalg.hermitize((u * (w / w.sum())) @ u.conj().T))
    need = -(-da // db)  # fewest Kraus operators with a da -> db Stinespring isometry
    strong = random_channel(da, db, rng, need + extra)
    weak = random_channel(da, db, rng, need)
    kraus = [np.sqrt(1 - gamma) * k for k in strong.kraus]
    kraus += [np.sqrt(gamma) * k for k in weak.kraus]
    pair = IsoPair(rho, KrausChannel(tuple(kraus), da, db))
    rank = int(np.count_nonzero(w))
    res = verify_roundtrip(pair)
    assert res["rho_deviation"] <= 1e-9
    assert res["channel_deviation"] <= 1e-9
    assert res["support_rank"] == rank
    back = iso_reverse(iso_forward(pair))
    assert back.support_rank == rank
    # the polar-factor channel, built without checks, passes them
    KrausChannel(back.channel.kraus, da, db)


def test_reverse_reports_support_rank(rng):
    pair = random_iso_pair(3, 2, rng, rank=2)
    back = iso_reverse(iso_forward(pair))
    assert back.support_rank == 2
    # recovered channel annihilates the kernel of rho
    kernel = np.linalg.eigh(pair.rho.matrix)[1][:, 0]
    out = back.channel(np.outer(kernel, kernel.conj()))
    assert np.max(np.abs(out)) < 1e-10


def _herm_power(m, exponent):
    w, v = np.linalg.eigh(m)
    return (v * w**exponent) @ v.conj().T


@pytest.mark.parametrize("da, db", [(3, 2), (2, 3), (4, 4)])
def test_reverse_of_swapped_tau_is_the_petz_map(rng, da, db):
    """Bayes oracle: with A and B swapped, iso_reverse gives the Petz recovery map.

    For full-rank rho and E(rho), the reversed pair of the swapped tau is
    sigma = E(rho)^T and a channel R with T R T equal to the Petz map
    P(Y) = rho^{1/2} E†(E(rho)^{-1/2} Y E(rho)^{-1/2}) rho^{1/2}, T the
    transpose (Leifer & Spekkens 2013; Petz 1986).  tau goes through the
    public constructor, as a loaded tau would.
    """
    rho = random_density(da, rng)
    e = random_channel(da, db, rng)
    out = e(rho.matrix)
    assert np.linalg.eigvalsh(out)[0] > 1e-3
    tau = iso_forward(IsoPair(rho, e)).state.matrix
    swapped = tau.reshape(da, db, da, db).transpose(1, 0, 3, 2).reshape(da * db, da * db)
    pair = iso_reverse(BipartiteState(DensityOperator(swapped), (db, da)))
    assert np.max(np.abs(pair.rho.matrix - out.T)) <= 1e-10

    root, inv_root = _herm_power(rho.matrix, 0.5), _herm_power(out, -0.5)
    for _ in range(4):
        g = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
        y = g @ g.conj().T
        y /= np.trace(y).real
        z = inv_root @ y @ inv_root
        petz = root @ sum(k.conj().T @ z @ k for k in e.kraus) @ root
        assert np.max(np.abs(pair.channel(y.T).T - petz)) <= 1e-10
    assert np.max(np.abs(pair.channel(out.T) - rho.matrix.T)) <= 1e-10


def test_basis_parameter_matches_manual_rotation(rng):
    pair = random_iso_pair(3, 2, rng)
    u = random_unitary(3, rng)
    tau_u = iso_forward(pair, u).state.matrix
    rho_r = u.conj().T @ pair.rho.matrix @ u
    kraus_r = tuple(k @ u for k in pair.channel.kraus)
    pair_r = IsoPair(DensityOperator(linalg.hermitize(rho_r)), KrausChannel(kraus_r, 3, 2))
    tau_c = iso_forward(pair_r).state.matrix
    rot = np.kron(u, np.eye(2))
    assert np.allclose(tau_u, rot @ tau_c @ rot.conj().T, atol=1e-12)


def _trace_c_deviation(rho, e, dims_out):
    """Frobenius distance between Tr_C of tau(rho, E) and tau(rho, Tr_C o E):
    the first traced as a matrix, the second built from the reduced channel."""
    db, dc = dims_out
    tau = iso_forward(IsoPair(rho, e)).state.matrix
    reduced = iso_forward(IsoPair(rho, reduced_channel(e, dims_out, "C"))).state.matrix
    return float(linalg.frobenius(linalg.partial_trace(tau, (rho.dim * db, dc), "A") - reduced))


def test_trace_commute(rng):
    rho = random_density(4, rng)
    e = random_channel(4, 6, rng)
    assert _trace_c_deviation(rho, e, (2, 3)) < 1e-10


def test_measure_commute_for_commuting_povm(rng):
    pair = random_iso_pair(3, 2, rng)
    basis = eigenbasis(pair.rho)
    m = random_diagonal_povm(3, 3, rng, basis=basis)
    dev = verify_measure_commute(pair.rho, pair.channel, m, 0, basis)
    assert dev < 1e-10


def test_measure_commute_fails_without_commutation():
    # the diagram needs [M, rho] = 0 in the isomorphism basis; a projector
    # onto |+> against a nondegenerate diagonal state breaks it
    rho = DensityOperator(np.diag([0.8, 0.2]))
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    proj = np.outer(plus, plus)
    from qduality.qobjects import Povm

    m = Povm((proj, np.eye(2) - proj))
    dev = verify_measure_commute(rho, identity_channel(2), m, 0)
    assert dev > 1e-3



def _formed_measure_commute(rho, e, m, outcome, basis):
    # both sides of the diagram as (dA dB)^2 matrices, with np.kron
    db = e.dout
    tau = iso_forward(IsoPair(rho, e), basis).state.matrix
    root = np.kron(linalg.support(m.elements[outcome]).power(0.5), np.eye(db))
    root_t = linalg.support(m.transpose(basis).elements[outcome]).power(0.5)
    updated = linalg.hermitize(root_t @ rho.matrix @ root_t)
    prob = float(np.trace(updated).real)
    tau2 = iso_forward(IsoPair(DensityOperator(updated / prob), e), basis).state.matrix
    return root @ tau @ root - prob * tau2


@pytest.mark.parametrize("rotated", [False, True])
def test_measure_commute_is_frobenius_of_formed_difference(rng, rotated, numpy_calls):
    # a POVM that does not commute with rho, so the deviation is well above
    # rounding; the Frobenius norm bounds the old largest-entry value
    pair = random_iso_pair(3, 2, rng, rank=2)
    basis = random_unitary(3, rng) if rotated else None
    m = random_povm(3, 3, rng)
    numpy_calls.reset()
    dev = verify_measure_commute(pair.rho, pair.channel, m, 1, basis)
    assert numpy_calls["kron"] == []
    diff = _formed_measure_commute(pair.rho, pair.channel, m, 1, basis)
    expected = np.linalg.norm(diff)
    assert expected > 1e-3
    assert abs(dev - expected) <= 1e-12 * expected
    assert dev >= np.max(np.abs(diff))


def _two_support_measure_commute(rho, e, m, outcome, basis):
    # the factor form with sqrt(M^T) from a second Support, of M^T itself
    x = iso_forward(IsoPair(rho, e), basis).state.factor()
    root = linalg.support(m.elements[outcome]).power(0.5)
    path1 = (root @ x.reshape(e.din, -1)).reshape(x.shape)
    root_t = linalg.support(m.transpose(basis).elements[outcome]).power(0.5)
    updated = root_t @ rho.support.power(0.5)
    prob = float(np.vdot(updated, updated).real)
    pair2 = IsoPair(DensityOperator._from_factor(updated / np.sqrt(prob)), e)
    path2 = np.sqrt(prob) * iso_forward(pair2, basis).state.factor()
    return duality.factor_distance(path1, path2)


def _near_cutoff_povm(d, rng, ratio):
    # M0 = V diag(1, ratio, 0, ...) V†: one eigenvalue near the tail bound
    # of the support rank (5e-11) and one exactly zero
    v = random_unitary(d, rng)
    w = np.zeros(d)
    w[:2] = 1.0, ratio
    m0 = linalg.hermitize((v * w) @ v.conj().T)
    return Povm((m0, np.eye(d) - m0))


@pytest.mark.parametrize("rotated", [False, True])
def test_measure_commute_one_support_matches_two(rng, rotated):
    # sqrt(M^T) read as the transpose of sqrt(M) in the isomorphism basis.
    # Both paths root an eigenvalue lambda known to about eps, so their roots
    # may differ by eps / sqrt(lambda): 1e-12 holds down to lambda ~ 1e-8,
    # the rotated draws near the tail bound (lambda ~ 3e-10) need up to 4e-12.
    cases = [(random_povm(3, 3, rng), o) for o in range(3)]
    cases += [
        (_near_cutoff_povm(3, rng, 10.0**-e), o)
        for e in (8, 9.5, 9.9, 10.1, 10.5)
        for o in (0, 1)
    ]
    for m, outcome in cases:
        pair = random_iso_pair(3, 2, rng)
        basis = random_unitary(3, rng) if rotated else None
        got = verify_measure_commute(pair.rho, pair.channel, m, outcome, basis)
        want = _two_support_measure_commute(pair.rho, pair.channel, m, outcome, basis)
        supp = linalg.support(m.elements[outcome])
        smallest = supp.eigenvalues[supp.rank - 1]
        assert abs(got - want) <= max(1e-12, np.finfo(float).eps / np.sqrt(smallest))


def test_measure_commute_takes_one_support_of_the_element(rng, numpy_calls):
    pair = random_iso_pair(3, 2, rng)
    m = random_povm(3, 3, rng)
    numpy_calls.reset()
    verify_measure_commute(pair.rho, pair.channel, m, 1, random_unitary(3, rng))
    assert numpy_calls["eigh"] == [(3, 3)]


def test_measure_commute_never_forms_tau(rng, monkeypatch):
    # both taus stay factors: no state is built from them, and no tau
    # object whose matrix could be read
    pair = random_iso_pair(3, 2, rng)
    basis = eigenbasis(pair.rho)
    m = random_diagonal_povm(3, 3, rng, basis=basis)

    def refuse(*args, **kwargs):
        raise AssertionError("a state was built from a factor")

    monkeypatch.setattr(duality, "iso_forward", refuse)
    monkeypatch.setattr(DensityOperator, "_from_factor", refuse)
    assert verify_measure_commute(pair.rho, pair.channel, m, 2, basis) < 1e-10


def test_measure_commute_rejects_a_povm_of_another_dimension(rng):
    pair = random_iso_pair(2, 2, rng)
    with pytest.raises(ShapeError, match="dimensions differ"):
        verify_measure_commute(pair.rho, pair.channel, computational_povm(3), 0)


def test_measure_commute_of_a_zero_probability_outcome_raises():
    rho = pure_state(np.array([1.0, 0.0]))
    m = computational_povm(2)
    with pytest.raises(ZeroProbabilityError):
        verify_measure_commute(rho, identity_channel(2), m, 1)


def test_a_zero_probability_trial_fails_its_stack(rng):
    # a stack of random pairs with |1><1| measured on a pure |0><0| in it
    pairs = [random_iso_pair(2, 2, rng) for _ in range(3)]
    root = np.stack([p.root for p in pairs] + [np.diag([1.0, 0.0])])
    kraus = np.stack([p.channel.kraus for p in pairs] + [pairs[0].channel.kraus])
    m_root = np.stack([np.eye(2)] * 3 + [np.diag([0.0, 1.0])])
    assert (duality.measure_commute_deviations(root[:3], kraus[:3], m_root[:3]) < 1e-10).all()
    with pytest.raises(ZeroProbabilityError):
        duality.measure_commute_deviations(root, kraus, m_root)


# the README's 1e-9 on both commutation diagrams, over every dimension, rank
# and Kraus count a Stinespring isometry allows
@settings(max_examples=25)
@given(
    da=st.integers(1, 4),
    dims_out=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    rank=st.integers(1, 4),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_trace_commute_property(da, dims_out, rank, extra, seed):
    rng = np.random.default_rng(seed)
    d1, d2 = dims_out
    need = -(-da // (d1 * d2))
    rho = random_density(da, rng, min(rank, da))
    e = random_channel(da, d1 * d2, rng, need + extra)
    assert _trace_c_deviation(rho, e, dims_out) <= 1e-9


@settings(max_examples=25)
@given(
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    rank=st.integers(1, 4),
    extra=st.integers(0, 2),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_measure_commute_property(dims, rank, extra, n, seed):
    da, db = dims
    rng = np.random.default_rng(seed)
    rho = random_density(da, rng, min(rank, da))
    e = random_channel(da, db, rng, -(-da // db) + extra)
    basis = eigenbasis(rho)
    m = random_diagonal_povm(da, n, rng, basis=basis)
    outcome = int(rng.integers(n))
    assert verify_measure_commute(rho, e, m, outcome, basis) <= 1e-9


def test_unitary_dual_state_is_pure_and_entangled(rng):
    rho = random_density(3, rng)
    u = random_unitary(3, rng)
    tau = iso_forward(IsoPair(rho, unitary_channel(u))).state.matrix
    assert np.trace(tau @ tau).real > 1 - 1e-12
    top = linalg.support(tau).eigenvectors[:, 0]
    assert linalg.schmidt_rank(top, (3, 3)) >= 2


def test_bipartite_state_dim_check(rng):
    rho = random_density(4, rng)
    with pytest.raises(Exception):
        BipartiteState(rho, (3, 2))
