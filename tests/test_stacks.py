"""The stacked `verify` kernels against their one-trial cases, bit for bit.

`verify roundtrip` and `verify equivalence` check their trials as one stack
per chunk; each trial's deviations must be exactly those of the one-pair
functions (verify_roundtrip, verify_equivalence) on the same draws.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qduality import cli, correlations, duality, linalg, randomgen
from qduality.duality import IsoPair, verify_roundtrip
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
        else:
            m = randomgen.random_povm(da, int(rng.integers(2, 6)), rng)
            n = randomgen.random_povm(db, int(rng.integers(2, 6)), rng)
            devs.append(verify_equivalence(pair, m, n))
    return np.array(devs)


@settings(max_examples=40)
@given(
    what=st.sampled_from(["roundtrip", "equivalence"]),
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
    m_els, m_counts = randomgen.povm_stack(m)
    n_els, n_counts = randomgen.povm_stack(n)
    eq_devs = correlations.equivalence_deviations(
        root, kraus, x, m_els, n_els, m_counts, n_counts, (da, db)
    )
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
    assert ranks.tolist() == [linalg.kept_rank(w) for w in spectra] == [6, 1, 4, 6]
    assert linalg.kept_rank(spectra[:, :0]).tolist() == [0, 0, 0, 0]
