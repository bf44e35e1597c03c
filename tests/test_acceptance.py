"""Acceptance suite: one test per headline property, one printed line each."""

import numpy as np
import pytest

from qduality import fixedpoints as fp, linalg
from qduality import witnesses as wt
from qduality.classical import Distribution, StochasticMatrix, classical_iso_roundtrip, compose
from qduality.correlations import JointTable, sample, verify_equivalence
from qduality.duality import (
    IsoPair,
    eigenbasis,
    iso_forward,
    verify_measure_commute,
    verify_roundtrip,
)
from qduality.qobjects import (
    DensityOperator,
    Ensemble,
    KrausChannel,
    identity_channel,
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
    random_diagonal_povm,
    random_iso_pair,
    random_povm,
    random_unitary,
    rng_from,
)

from families import block_channel_4, dephasing_channel, depolarizing_channel


@pytest.fixture(autouse=True)
def _live_report(capsys):
    global _report_capsys
    _report_capsys = capsys
    yield
    _report_capsys = None


def report(num, name, passed, detail):
    line = f"acceptance {num:2d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    with _report_capsys.disabled():
        print(line, flush=True)
    assert passed, line


def test_01_roundtrip():
    rng = rng_from(101)
    worst = 0.0
    for i in range(200):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        rank = None if i % 2 == 0 else int(rng.integers(1, da))
        pair = random_iso_pair(da, db, rng, rank=rank)
        res = verify_roundtrip(pair)
        worst = max(worst, res["rho_deviation"], res["channel_deviation"])
    report(1, "duality round trip", worst <= 1e-9, f"max deviation {worst:.2e}")


def test_02_operational_equivalence():
    rng = rng_from(102)
    worst = 0.0
    for i in range(200):
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        rank = None if i % 2 == 0 else int(rng.integers(1, da))
        pair = random_iso_pair(da, db, rng, rank=rank)
        m = random_povm(da, int(rng.integers(2, 6)), rng)
        n = random_povm(db, int(rng.integers(2, 6)), rng)
        worst = max(worst, verify_equivalence(pair, m, n))
    report(2, "parallel vs sequential statistics", worst <= 1e-10, f"max |P-Q| {worst:.2e}")


def test_03_standard_iso_marginal():
    rng = rng_from(103)
    worst = 0.0
    for _ in range(100):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        e = random_channel(da, db, rng)
        tau = e.choi()
        marg = linalg.partial_trace(tau, (da, db), "A")
        worst = max(worst, float(np.max(np.abs(marg - np.eye(da) / da))))
    report(3, "standard dual state marginal", worst <= 1e-10, f"max deviation {worst:.2e}")


def test_04_collapse_at_maximally_mixed():
    rng = rng_from(104)
    worst = 0.0
    for _ in range(50):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        e = random_channel(da, db, rng)
        pair = IsoPair(DensityOperator(np.eye(da) / da), e)
        tau = iso_forward(pair).state.matrix
        worst = max(worst, float(np.max(np.abs(tau - e.choi()))))
    report(4, "collapse to standard map at I/d", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_05_classical_oracle():
    rng = rng_from(105)
    worst_embed = 0.0
    worst_rt = 0.0
    for i in range(100):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        p = rng.random(nx)
        if i % 3 == 0 and nx > 2:
            p[0] = 0.0  # exercise the restricted-support branch
        p /= p.sum()
        g = rng.random((ny, nx))
        g /= g.sum(axis=0)
        dist, stoch = Distribution(p), StochasticMatrix(g)
        joint = compose(dist, stoch)
        # embed as commuting quantum objects and compare dual-state diagonal
        rho = DensityOperator(np.diag(p).astype(complex))
        eye_in, eye_out = np.eye(nx), np.eye(ny)
        kraus = tuple(
            np.sqrt(g[a, b]) * np.outer(eye_out[:, a], eye_in[b])
            for a in range(ny)
            for b in range(nx)
        )
        tau = iso_forward(IsoPair(rho, KrausChannel(kraus, nx, ny))).state.matrix
        diag = np.diag(tau).real.reshape(nx, ny)
        worst_embed = max(worst_embed, float(np.max(np.abs(diag - joint.probs))))
        p2, g2 = classical_iso_roundtrip(dist, stoch)
        mask = p > 0
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(p2.weights - p))),
            float(np.max(np.abs(g2.entries[:, mask] - g[:, mask]))),
        )
    ok = worst_embed <= 1e-12 and worst_rt <= 1e-12
    report(5, "diagonal/classical oracle", ok, f"embed {worst_embed:.2e}, roundtrip {worst_rt:.2e}")


def test_06_unitary_purity():
    rng = rng_from(106)
    worst_purity = 1.0
    min_rank = 99
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho = random_density(d, rng, rank=int(rng.integers(2, d + 1)))
        u = random_unitary(d, rng)
        tau = iso_forward(IsoPair(rho, unitary_channel(u))).state.matrix
        worst_purity = min(worst_purity, float(np.trace(tau @ tau).real))
        top = linalg.support(tau).eigenvectors[:, 0]
        min_rank = min(min_rank, linalg.schmidt_rank(top, (d, d)))
    ok = worst_purity >= 1 - 1e-10 and min_rank >= 2
    report(6, "unitary dual states pure and entangled", ok,
           f"min purity {worst_purity:.12f}, min Schmidt rank {min_rank}")


def test_07_commutativity_diagrams():
    rng = rng_from(107)
    worst_trace = 0.0
    for _ in range(100):
        db = int(rng.integers(2, 4))
        dc = int(rng.integers(2, 4))
        da = int(rng.integers(2, 4))
        rho = random_density(da, rng)
        e = random_channel(da, db * dc, rng)
        # Tr_C of tau(rho, E) against tau(rho, Tr_C o E)
        traced = linalg.partial_trace(iso_forward(IsoPair(rho, e)).state.matrix, (da * db, dc), "A")
        reduced = iso_forward(IsoPair(rho, reduced_channel(e, (db, dc), "C"))).state.matrix
        worst_trace = max(worst_trace, float(linalg.frobenius(traced - reduced)))
    worst_meas = 0.0
    for _ in range(100):
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        pair = random_iso_pair(da, db, rng)
        basis = eigenbasis(pair.rho)
        m = random_diagonal_povm(da, int(rng.integers(2, 5)), rng, basis=basis)
        outcome = int(rng.integers(len(m.elements)))
        worst_meas = max(
            worst_meas,
            verify_measure_commute(pair.rho, pair.channel, m, outcome, basis),
        )
    ok = worst_trace <= 1e-9 and worst_meas <= 1e-9
    report(7, "trace and measurement diagrams commute", ok,
           f"trace {worst_trace:.2e}, measure {worst_meas:.2e}")


def test_08_povm_ensemble_lemma():
    rng = rng_from(108)
    worst_mix = 0.0
    worst_conv = 0.0
    for i in range(100):
        d = int(rng.integers(2, 5))
        rank = None if i % 2 == 0 else int(rng.integers(1, d))
        rho = random_density(d, rng, rank=rank)
        m = random_povm(d, int(rng.integers(2, 5)), rng)
        ens = m_prepare(m, rho)
        worst_mix = max(worst_mix, float(np.max(np.abs(ens.average() - rho.matrix))))
        rec = povm_from_ensemble(ens, rho)
        ens2 = m_prepare(rec, rho)
        for (w1, s1), (w2, s2) in zip(ens.members, ens2.members):
            worst_conv = max(
                worst_conv,
                abs(w1 - w2),
                float(np.max(np.abs(w1 * s1.matrix - w2 * s2.matrix))),
            )
    ok = worst_mix <= 1e-10 and worst_conv <= 1e-9
    report(8, "measurement/ensemble correspondence", ok,
           f"mixture {worst_mix:.2e}, converse {worst_conv:.2e}")


def test_09_fixed_point_structure():
    deph, depol = dephasing_channel(3), depolarizing_channel(3)
    dims_ok = (
        fp.fixed_point_space(identity_channel(3)).dim == 9
        and fp.fixed_point_space(deph).dim == 3
        and fp.fixed_point_space(depol).dim == 1
    )
    e = block_channel_4()
    blocks = fp.decompose_fixed_algebra(e)
    shape_ok = [(b.d1, b.d2) for b in blocks] == [(2, 1), (1, 2)]
    nu_err = float(np.max(np.abs(blocks[1].nu.matrix - np.eye(2) / 2))) if shape_ok else 1.0
    rng = rng_from(109)
    recon = 0.0
    for b in blocks:
        for _ in range(10):
            mu = random_density(b.d1, rng).matrix
            x = b.embed(mu)
            recon = max(recon, float(np.max(np.abs(e(x) - x))))
    ok = dims_ok and shape_ok and nu_err <= 1e-8 and recon <= 1e-8
    report(9, "fixed-point block structure", ok,
           f"dims {dims_ok}, blocks {shape_ok}, nu err {nu_err:.2e}, recon {recon:.2e}")


def test_10_monogamy_construction():
    s1 = pure_state(np.array([1.0, 0.0]))
    s2 = pure_state(np.array([1.0, 1.0]) / np.sqrt(2))
    res_qubit = wt.monogamy_demo(0.5, s1, s2, identity_channel(2), identity_channel(2))
    e = block_channel_4()
    nu2 = np.diag([0, 0, 0.5, 0.5]).astype(complex)
    t1 = DensityOperator(0.8 * np.diag([1, 0, 0, 0]).astype(complex) + 0.2 * nu2)
    plus = np.zeros(4, dtype=complex)
    plus[:2] = 1 / np.sqrt(2)
    t2 = DensityOperator(0.8 * np.outer(plus, plus.conj()) + 0.2 * nu2)
    res_block = wt.monogamy_demo(0.5, t1, t2, e, e)
    ok = True
    details = []
    for label, res in (("qubit", res_qubit), ("block", res_block)):
        for r in res["results"].values():
            ok = ok and r["block_probability"] > 0.1
            ok = ok and r["factor_purity"] >= 1 - 1e-8
            ok = ok and r["schmidt_rank"] >= 2
        probs = [r["block_probability"] for r in res["results"].values()]
        details.append(f"{label} min prob {min(probs):.3f}")
    report(10, "monogamy post-selection", ok, "; ".join(details))


def test_11_universal_broadcasting():
    res_a = wt.universal_from_channels(identity_channel(2), identity_channel(2))
    worst_a = max(c["value"] for c in res_a["checks"])
    rng = rng_from(111)
    worst_b = 0.0
    ok_b = True
    from qduality.duality import BipartiteState

    for _ in range(20):
        d = int(rng.integers(2, 4))
        u = random_unitary(d, rng)
        vec = np.kron(np.eye(d), u) @ max_entangled(d)
        t = BipartiteState(pure_state(vec), (d, d))
        res = wt.universal_from_states(t, t)
        ok_b = ok_b and res["verdict"]
        worst_b = max(
            worst_b,
            max(c["value"] for c in res["checks"] if "identity" in c["name"]),
        )
    ok = res_a["verdict"] and worst_a <= 1e-10 and ok_b and worst_b <= 1e-9
    report(11, "universal broadcasting equivalence", ok,
           f"direction-a {worst_a:.2e}, direction-b {worst_b:.2e}")


def test_12_sampler_regression():
    t = JointTable(np.full((2, 2), 0.25), ("0", "1"), ("0", "1"))
    r1 = sample(t, 100000, 42)
    r2 = sample(t, 100000, 42)
    ok = r1.tv_distance <= 0.02 and np.array_equal(r1.counts, r2.counts)
    report(12, "sampler regression", ok,
           f"tv {r1.tv_distance:.4f}, reproducible {np.array_equal(r1.counts, r2.counts)}")
