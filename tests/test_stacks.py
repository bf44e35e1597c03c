"""The stacked `verify` kernels against their one-trial cases, bit for bit.

Every `verify` suite checks its trials as one stack per chunk; each trial's
deviation must be exactly that of the one-pair function (verify_roundtrip,
verify_equivalence, verify_measure_commute) on the same draws.  The
one-pair functions run the suites' kernels on one pair: verify_roundtrip
is forward_factor, the unit-trace check, reverse_stack and
roundtrip_deviations, the sequence of the `verify roundtrip` suite, so
these tests compare a batched run of each kernel with an unbatched one, and
the pair's own objects (its state's Support and root) with the suite's
stacked draws.  A ragged stack is handled by one rule: ranks are cut by a
mask on the columns, and POVMs are padded with zero elements that change no
table entry and no measured element.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qduality import cli, correlations, duality, linalg, randomgen
from qduality.duality import (
    IsoPair,
    eigenbasis,
    verify_measure_commute,
    verify_roundtrip,
)
from qduality.correlations import verify_equivalence
from qduality.qobjects import Povm


def _looped(what, da, db, trials, seed):
    """Each trial's deviation from the one-pair functions, drawn as the suite draws."""
    rng = randomgen.rng_from(seed)
    devs = []
    for _ in range(trials):
        pair = randomgen.random_iso_pair(da, db, rng)
        if what == "roundtrip":
            res = verify_roundtrip(pair)
            devs.append(max(res["rho_deviation"], res["channel_deviation"]))
        elif what == "equivalence":
            m = randomgen.random_povm(da, int(rng.integers(2, 6)), rng)
            n = randomgen.random_povm(db, int(rng.integers(2, 6)), rng)
            devs.append(verify_equivalence(pair, m, n))
        else:  # measure-commute
            basis = eigenbasis(pair.rho)
            m = randomgen.random_diagonal_povm(da, int(rng.integers(2, 5)), rng, basis=basis)
            outcome = int(rng.integers(len(m)))
            devs.append(verify_measure_commute(pair.rho, pair.channel, m, outcome, basis))
    return np.array(devs)


@settings(max_examples=40)
@given(
    what=st.sampled_from(sorted(cli._SUITES)),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    trials=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.integers(1, 400),
)
def test_stacked_trials_equal_the_one_trial_kernels(what, dims, trials, seed, chunk):
    # a chunk budget of a few hundred numbers puts chunk boundaries inside the run
    da, db = dims
    with mock.patch.object(cli, "_CHUNK_NUMBERS", chunk):
        chunks = list(cli._deviations(cli._SUITES[what], randomgen.rng_from(seed), da, db, trials))
    assert sum(map(len, chunks)) == trials
    assert np.array_equal(np.concatenate(chunks), _looped(what, da, db, trials, seed))


# eigenvalue ratios to the largest: exact zeros (rank deficient), repeats,
# a graded range, and values from 1.6e-10 down to the tail bound of 5e-11
_RATIO = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 0.5]),
    st.floats(0.0, 9.0).map(lambda e: 10.0**-e),
    st.floats(9.8, 10.3).map(lambda e: 10.0**-e),
)


def _state_draw(rng, da, ratios):
    """A state draw (2, da, da) whose state has eigenvalues proportional to 1, ratios..."""
    w = np.array([1.0] + ratios[: da - 1])
    g = randomgen.random_unitary(da, rng) * np.sqrt(w)
    return np.stack([g.real, g.imag])


@settings(max_examples=60)
@given(
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    spectra=st.lists(st.lists(_RATIO, min_size=3, max_size=3), min_size=1, max_size=6),
    rank=st.one_of(st.none(), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_of_graded_and_rank_deficient_states(dims, spectra, rank, seed):
    # ragged kept ranks within one stack: spectra near the tail bound, or a
    # random_iso_pair(rank=...) Gaussian of fewer columns than rows
    da, db = dims
    rng = np.random.default_rng(seed)
    rank = None if rank is None else min(rank, da)
    g, a, m, n = [], [], [], []
    # a pure and a full-rank state join every stack, so its ranks are ragged
    spectra = spectra + [[0.0] * 3, [0.5] * 3]
    for ratios in spectra:
        zg, za = randomgen.draw_iso_pair(da, db, rng, rank=rank)
        g.append(zg if rank is not None else _state_draw(rng, da, ratios))
        a.append(za)
        m.append(rng.standard_normal((int(rng.integers(2, 6)), 2, da, da)))
        n.append(rng.standard_normal((int(rng.integers(2, 6)), 2, db, db)))
    rho, vecs, ranks, root, kraus, x = cli._pairs_and_taus(g, a, db)
    back_rho, back_kraus = duality.reverse_stack(x, (da, db))
    rho_devs, chan_devs = duality.roundtrip_deviations(
        rho, vecs, ranks, kraus, back_rho, back_kraus
    )
    m_els, n_els = randomgen.povm_stack(m), randomgen.povm_stack(n)
    eq_devs = correlations.equivalence_deviations(root, kraus, x, m_els, n_els, (da, db))
    for i in range(len(spectra)):
        pair = IsoPair(randomgen.density_from(g[i]), randomgen.channel_from(a[i], db))
        assert ranks[i] == pair.support_rank
        res = verify_roundtrip(pair)
        assert rho_devs[i] == res["rho_deviation"]
        assert chan_devs[i] == res["channel_deviation"]
        pm = Povm._from_stack(randomgen.povm_elements(m[i]))
        pn = Povm._from_stack(randomgen.povm_elements(n[i]))
        assert eq_devs[i] == verify_equivalence(pair, pm, pn)


def test_kept_rank_of_a_stack_is_that_of_each_spectrum():
    spectra = np.array(
        [
            [0.5, 0.5 - 1.6e-10, 4e-11, 4e-11, 4e-11, 4e-11],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.4, 0.3, 0.2, 0.1, 1e-11, 0.0],
            [1 / 6] * 6,
        ]
    )
    ranks = linalg.kept_rank(spectra)
    assert ranks.tolist() == [linalg.kept_rank(w) for w in spectra] == [6, 1, 5, 6]
    assert linalg.kept_rank(spectra[:, :0]).tolist() == [0, 0, 0, 0]


@settings(max_examples=60)
@given(
    d=st.integers(1, 4),
    spectra=st.lists(st.lists(_RATIO, min_size=3, max_size=3), min_size=1, max_size=5),
    exponent=st.sampled_from([0.5, -0.5, -1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_power_on_support_of_a_ragged_stack_is_each_support_power(d, spectra, exponent, seed):
    # a pure state and a zero tail join every stack; the eigenvectors are
    # either a random unitary's columns or phased coordinate vectors, whose
    # support is a coordinate subspace, so the result is exactly zero off it
    rng = np.random.default_rng(seed)
    spectra = spectra + [[0.0] * 3, [0.5, 0.0, 0.0]]
    eps = np.finfo(float).eps
    for coordinate in (False, True):
        supports = []
        for ratios in spectra:
            w = np.array([1.0] + ratios[: d - 1])
            w[1:] = np.sort(w[1:])[::-1]
            if coordinate:
                vecs = np.eye(d)[:, rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))
            else:
                vecs = randomgen.random_unitary(d, rng)
            supports.append(linalg.support_from_eigenpairs(vecs, w, d, d * eps))
        stacked = linalg.power_on_support(
            np.stack([s.eigenvectors for s in supports]),
            np.stack([s.eigenvalues for s in supports]),
            np.array([s.rank for s in supports]),
            exponent,
        )
        assert np.isfinite(stacked).all()
        for power, supp in zip(stacked, supports):
            assert np.array_equal(power, supp.power(exponent))
            if coordinate:
                off = np.abs(supp.eigenvectors[:, supp.rank :]).argmax(0)
                assert not power[off].any() and not power[:, off].any()


@settings(max_examples=60)
@given(
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    counts=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    pads=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_povm_elements_change_no_table_entry(dims, counts, pads, seed):
    # the parallel and sequential operators of one pair, read against N,
    # with and without zero elements appended to the M and the N stack
    da, db = dims
    rng = np.random.default_rng(seed)
    pair = randomgen.random_iso_pair(da, db, rng)
    x = duality.iso_forward(pair).state.factor()
    m = randomgen.povm_elements(rng.standard_normal((counts[0], 2, da, da)))
    n = randomgen.povm_elements(rng.standard_normal((counts[1], 2, db, db)))

    def tables(m, n):
        ops = np.stack(
            [
                correlations.parallel_ops(x, m, dims),
                correlations.sequential_ops(pair.root, pair.channel.kraus, m),
            ]
        )
        return correlations._read_against(ops, n)

    padded = tables(
        np.concatenate([m, np.zeros((pads[0], da, da))]),
        np.concatenate([n, np.zeros((pads[1], db, db))]),
    )
    assert np.array_equal(padded[..., : counts[0], : counts[1]], tables(m, n))
    assert not padded[..., counts[0] :, :].any() and not padded[..., counts[1] :].any()
