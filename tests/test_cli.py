import ast
import dataclasses
import gc
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qduality import cli, correlations, duality, fixedpoints, linalg, randomgen, serialize, witnesses
from qduality import tolerances as tol
from qduality.duality import BipartiteState, IsoPair, eigenbasis, iso_forward
from qduality.correlations import JointTable
from qduality.errors import NotPSDError
from qduality.qobjects import (
    DensityOperator,
    KrausChannel,
    identity_channel,
    max_entangled,
    pure_state,
)
from qduality.randomgen import random_channel, random_density, random_unitary


@pytest.fixture
def files(tmp_path):
    eye = np.eye(2, dtype=complex)
    serialize.save(
        tmp_path / "rho.json",
        serialize.state_to_json(DensityOperator(np.eye(2) / 2)),
    )
    serialize.save(
        tmp_path / "id2.json", serialize.channel_to_json(identity_channel(2))
    )
    deph = KrausChannel(
        (np.outer(eye[:, 0], eye[:, 0]), np.outer(eye[:, 1], eye[:, 1])), 2, 2
    )
    serialize.save(tmp_path / "deph.json", serialize.channel_to_json(deph))
    serialize.save(
        tmp_path / "zero.json",
        serialize.state_to_json(pure_state(np.array([1.0, 0.0]))),
    )
    serialize.save(
        tmp_path / "plus.json",
        serialize.state_to_json(pure_state(np.array([1.0, 1.0]) / np.sqrt(2))),
    )
    serialize.save(
        tmp_path / "table.json",
        serialize.table_to_json(
            JointTable(np.full((2, 2), 0.25), ("0", "1"), ("0", "1"))
        ),
    )
    # |Phi+><Phi+| as its factor: the dual state of (I/2, identity), a Choi state too
    serialize.save(tmp_path / "phi.json", serialize.factor_to_json(max_entangled(2)[:, None]))
    return tmp_path


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_iso_forward_identity_gives_max_entangled(files, capsys):
    out = files / "tau.json"
    code, rep = run(
        capsys,
        [
            "iso", "forward",
            "--rho", str(files / "rho.json"),
            "--channel", str(files / "id2.json"),
            "--out", str(out),
        ],
    )
    assert code == 0
    tau = serialize.state_from_json(serialize.load(out)).matrix
    phi = max_entangled(2)
    assert np.allclose(tau, np.outer(phi, phi.conj()), atol=1e-12)


def test_iso_reverse_roundtrip(files, capsys, tmp_path):
    tau = tmp_path / "tau.json"
    code, _ = run(
        capsys,
        [
            "iso", "forward",
            "--rho", str(files / "rho.json"),
            "--channel", str(files / "deph.json"),
            "--out", str(tau),
        ],
    )
    assert code == 0
    # the file `iso forward` wrote goes in as it is
    code, rep = run(
        capsys,
        [
            "iso", "reverse",
            "--tau", str(tau),
            "--dimA", "2", "--dimB", "2",
            "--out-rho", str(tmp_path / "rho_back.json"),
            "--out-channel", str(tmp_path / "e_back.json"),
        ],
    )
    assert code == 0
    rho = serialize.state_from_json(serialize.load(tmp_path / "rho_back.json"))
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-10)


def test_iso_forward_never_forms_tau(files, capsys, monkeypatch):
    built = []

    def forward(pair, basis=None, _fn=cli.iso_forward):
        built.append(_fn(pair, basis))
        return built[-1]

    monkeypatch.setattr(cli, "iso_forward", forward)
    out = files / "tau.json"
    code, rep = run(
        capsys,
        [
            "iso", "forward",
            "--rho", str(files / "rho.json"),
            "--channel", str(files / "deph.json"),
            "--out", str(out),
        ],
    )
    assert code == 0
    assert rep["checks"][0]["name"] == "marginal_matches_transposed_input"
    (tau,) = built
    # the marginal check and the written file both read tau's factor
    assert "matrix" not in vars(tau.state)
    assert serialize.load(out) == serialize.state_to_json(tau.state)
    assert "factor" in serialize.load(out)


def _readme_usage_lines():
    """README's `qduality ...` usage lines, each as its argv."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [
        shlex.split(line)[1:]
        for line in readme.read_text().splitlines()
        if line.startswith("qduality ")
    ]


def _epilog_subcommands():
    """The subcommands of --help's verification map, each as its argv."""
    cells = [re.split(r" {2,}", line.strip())[-1] for line in cli._EPILOG.splitlines()[1:]]
    return [cmd.split() for cell in cells for cmd in cell.split(", ")]


def test_docs_name_only_what_the_parser_takes():
    parser = cli.build_parser()
    usage = _readme_usage_lines()
    assert usage
    for argv in usage:
        _, unknown = parser.parse_known_args(argv)
        assert unknown == [], argv
    # each map entry parses in the usage line that README gives it
    mapped = _epilog_subcommands()
    for cmd in mapped:
        assert any(argv[: len(cmd)] == cmd for argv in usage), cmd
    assert set(cli._SUITES) <= {cmd[1] for cmd in mapped if cmd[0] == "verify"}


def test_readme_iso_pipelines_run(tmp_path, capsys, monkeypatch):
    # README's forward -> reverse lines, each output file fed on as it is
    lines = [argv for argv in _readme_usage_lines() if argv[0] in ("iso", "std-iso")]
    modes = [argv[:2] for argv in lines]
    for command in ("iso", "std-iso"):
        assert [command, "forward"] in modes and [command, "reverse"] in modes
    rng = np.random.default_rng(11)
    monkeypatch.chdir(tmp_path)
    serialize.save("rho.json", serialize.state_to_json(random_density(2, rng)))
    serialize.save("e.json", serialize.channel_to_json(random_channel(2, 2, rng)))
    for argv in lines:
        code, rep = run(capsys, argv)
        assert code == 0, argv
        assert rep["checks"] and all(c["pass"] for c in rep["checks"])


def test_iso_pipeline_keeps_eigenvalues_under_the_rank_cutoff(tmp_path, capsys):
    # four eigenvalues of 4e-11, each under 5e-11 of the largest, weigh
    # 1.6e-10 together: a cut that dropped them would leave tau with trace
    # 1 - 1.6e-10
    u = random_unitary(6, np.random.default_rng(1))
    w = np.array([0.5, 0.5 - 1.6e-10] + [4e-11] * 4)
    rho = DensityOperator(linalg.hermitize((u * w) @ u.conj().T))
    serialize.save(tmp_path / "rho.json", serialize.state_to_json(rho))
    channel = random_channel(6, 2, np.random.default_rng(2))
    serialize.save(tmp_path / "e.json", serialize.channel_to_json(channel))
    paths = {name: str(tmp_path / f"{name}.json") for name in ("rho", "e", "tau", "back")}
    forward = ["iso", "forward", "--channel", paths["e"]]
    code, _ = run(capsys, forward + ["--rho", paths["rho"], "--out", paths["tau"]])
    assert code == 0
    argv = ["iso", "reverse", "--tau", paths["tau"], "--dimA", "6", "--dimB", "2"]
    code, rep = run(capsys, argv + ["--out-rho", paths["back"]])
    assert code == 0 and rep["supportRank"] == 6
    code, _ = run(capsys, forward + ["--rho", paths["back"]])
    assert code == 0


def _near_cutoff_state(seed):
    """A Haar-rotated state with eigenvalues near the rank bar, and its rng:
    seeds below 20 give diag(1, 3e-11, 3e-11)/tr, the rest a top eigenvalue
    of 1 and 1-5 more between 1e-12 and 10^-9.5 of it, normalized."""
    rng = np.random.default_rng(seed)
    if seed < 20:
        w = np.array([1.0, 3e-11, 3e-11])
    else:
        w = np.r_[1.0, 10.0 ** -rng.uniform(9.5, 12, int(rng.integers(1, 6)))]
    u = random_unitary(w.size, rng)
    return DensityOperator(linalg.hermitize((u * (w / w.sum())) @ u.conj().T)), rng


@pytest.mark.parametrize("seed", range(40))
def test_iso_forward_then_reverse_passes_near_the_rank_cutoff(tmp_path, capsys, seed):
    # each kept eigenvalue clears the rank bar alone, so tau_A, whose
    # spectrum is rho's cut at its rank, gets the same rank and no direction
    # carrying tau entries of about sqrt(3e-11) is dropped
    rho, rng = _near_cutoff_state(seed)
    d = rho.dim
    serialize.save(tmp_path / "rho.json", serialize.state_to_json(rho))
    serialize.save(tmp_path / "e.json", serialize.channel_to_json(random_channel(d, d, rng)))
    paths = {name: str(tmp_path / f"{name}.json") for name in ("rho", "e", "tau")}
    forward = ["iso", "forward", "--rho", paths["rho"], "--channel", paths["e"]]
    code, _ = run(capsys, forward + ["--out", paths["tau"]])
    assert code == 0
    reverse = ["iso", "reverse", "--tau", paths["tau"], "--dimA", str(d), "--dimB", str(d)]
    code, rep = run(capsys, reverse)
    assert code == 0 and rep["supportRank"] == rho.support.rank
    if seed < 20:
        assert rep["supportRank"] == 3


def test_std_iso_reverse_of_trace_decreasing_channel_names_trace(tmp_path, capsys):
    half = KrausChannel((np.diag([1.0, 0.5]),), 2, 2)
    serialize.save(tmp_path / "half.json", serialize.channel_to_json(half))
    tau = str(tmp_path / "tau.json")
    code, _ = run(
        capsys, ["std-iso", "forward", "--channel", str(tmp_path / "half.json"), "--out", tau]
    )
    assert code == 0
    code = cli.main(["std-iso", "reverse", "--tau", tau, "--dimA", "2", "--dimB", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("invalid input: ") and "trace" in err


def _std_iso_reverse(tau_json, tmp_path, capsys):
    serialize.save(tmp_path / "tau.json", tau_json)
    code = cli.main(
        ["std-iso", "reverse", "--tau", str(tmp_path / "tau.json"), "--dimA", "2", "--dimB", "2"]
    )
    return code, capsys.readouterr()


@pytest.mark.parametrize("rank", [2, 1], ids=["full-rank", "rank-deficient"])
def test_std_iso_reverse_of_non_choi_state_names_marginal(tmp_path, capsys, rank):
    # a unit-trace state whose A-marginal is not I/dA is no channel's Choi state
    rng = np.random.default_rng(5)
    pair = IsoPair(random_density(2, rng, rank=rank), random_channel(2, 2, rng))
    code, captured = _std_iso_reverse(
        serialize.state_to_json(iso_forward(pair).state), tmp_path, capsys
    )
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")
    assert "A-marginal" in captured.err
    assert "Traceback" not in captured.err


def test_std_iso_reverse_of_factor_file_runs_no_eigh(tmp_path, capsys, monkeypatch, numpy_calls):
    states = []

    def reverse(tau, _fn=cli.iso_reverse):
        states.append(tau.state)
        return _fn(tau)

    def forward(pair, basis=None, _fn=cli.iso_forward):
        states.append(_fn(pair, basis).state)
        return BipartiteState(states[-1], pair.dims)

    e = random_channel(2, 2, np.random.default_rng(6))
    x = e.factor(np.eye(2) / np.sqrt(2))
    numpy_calls.reset()
    monkeypatch.setattr(cli, "iso_reverse", reverse)
    monkeypatch.setattr(cli, "iso_forward", forward)
    code, captured = _std_iso_reverse(serialize.factor_to_json(x), tmp_path, capsys)
    assert code == 0, captured.err
    assert json.loads(captured.out)["checks"][0]["name"] == "reconstructed_joint_state"
    assert numpy_calls["eigh"] == []
    # the loaded tau and the rebuilt one are compared as factors
    assert len(states) == 2
    assert all("matrix" not in vars(state) for state in states)


@pytest.mark.parametrize("command", ["iso", "std-iso"])
def test_reverse_of_factor_file_decomposes_no_tau(tmp_path, capsys, numpy_calls, command):
    # iso_reverse reads the loaded factor itself: the only SVD is of the
    # (k dB) x dA matrix C, and no eigensolver sees dA dB rows
    da, db = 2, 3
    rng = np.random.default_rng(8)
    e = random_channel(da, db, rng, 3)
    rho = DensityOperator(np.eye(da) / da) if command == "std-iso" else random_density(da, rng)
    x = iso_forward(IsoPair(rho, e)).state.factor()
    serialize.save(tmp_path / "tau.json", serialize.factor_to_json(x))
    numpy_calls.reset()
    code, _ = run(
        capsys,
        [command, "reverse", "--tau", str(tmp_path / "tau.json"), "--dimA", str(da), "--dimB", str(db)],
    )
    assert code == 0
    assert numpy_calls["svd"] == [(3 * db, da)]
    for name in ("eigh", "eigvalsh"):
        assert all(shape[0] < da * db for shape in numpy_calls[name]), name
    assert numpy_calls["kron"] == []


@pytest.mark.parametrize("da, db, count", [(3, 2, 2), (2, 3, 1), (4, 2, 2)])
def test_every_reverse_svd_is_tall(tmp_path, capsys, numpy_calls, da, db, count):
    # the reverse map factors the (k dB) x dA matrix C = [K_k rho^{1/2}]:
    # with k dB >= dA no path takes the SVD of its wide transpose, which
    # LAPACK factors by the slower LQ route
    rng = np.random.default_rng(3)
    pair = randomgen.random_iso_pair(da, db, rng, kraus_count=count)
    std = IsoPair(DensityOperator(np.eye(da) / da), pair.channel)
    for name, p in (("tau", pair), ("std", std)):
        serialize.save(tmp_path / f"{name}.json", serialize.factor_to_json(iso_forward(p).state.factor()))
    numpy_calls.reset()
    duality.iso_reverse(iso_forward(pair))
    duality.verify_roundtrip(pair)
    dims = ["--dimA", str(da), "--dimB", str(db)]
    for argv in (
        ["iso", "reverse", "--tau", str(tmp_path / "tau.json")],
        ["std-iso", "reverse", "--tau", str(tmp_path / "std.json")],
        ["verify", "roundtrip", "--trials", "3", "--seed", "2"],
    ):
        code, _ = run(capsys, argv + dims)
        assert code == 0, argv
    shapes = numpy_calls["svd"]
    assert len(shapes) >= 5
    assert [shape for shape in shapes if shape[-2] < shape[-1]] == []


@pytest.mark.parametrize("command", ["iso", "std-iso"])
def test_reverse_check_fails_on_a_wrong_channel(tmp_path, capsys, monkeypatch, command):
    # both reverse commands check the rebuilt tau against the loaded one
    e = random_channel(2, 2, np.random.default_rng(7))

    def wrong(tau, _fn=cli.iso_reverse):
        pair = _fn(tau)
        return IsoPair(pair.rho, identity_channel(2))

    monkeypatch.setattr(cli, "iso_reverse", wrong)
    serialize.save(tmp_path / "tau.json", serialize.factor_to_json(e.factor(np.eye(2) / np.sqrt(2))))
    code, rep = run(
        capsys, [command, "reverse", "--tau", str(tmp_path / "tau.json"), "--dimA", "2", "--dimB", "2"]
    )
    assert code == 2
    (check,) = rep["checks"]
    assert check["name"] == "reconstructed_joint_state" and check["value"] > 1e-2


def _factor_file(x, dim=None, **extra):
    obj = {"dim": x.shape[0] if dim is None else dim, "factor": serialize.matrix_to_json(x)}
    return {**obj, **extra}


_UNIT_FACTOR = np.eye(4, 2) / np.sqrt(2)


def _factor_data(data):
    return {"dim": 4, "factor": {"rows": 4, "cols": 2, "data": data}}


@pytest.mark.parametrize(
    "obj, message",
    [
        (_factor_file(np.where(np.eye(4, 2) > 0, np.inf, 0.0)), "finite"),
        (_factor_file(_UNIT_FACTOR, dim=2), "rows"),
        (_factor_file(_UNIT_FACTOR * (1 + 1e-9)), "trace"),
        (_factor_file(np.zeros((4, 0))), "trace"),
        (
            _factor_file(_UNIT_FACTOR, matrix=serialize.matrix_to_json(np.eye(4) / 4)),
            "exactly one",
        ),
        ({"dim": 4}, "exactly one"),
        (_factor_data([[0.5, 0.0]] * 7 + [[0.5]]), "pairs"),
        (_factor_data([[0.5, 0.0, 0.0]] * 8), "pairs"),
        (_factor_data(None), "malformed"),
        (_factor_data([[10**400, 0]] + [[0.0, 0.0]] * 7), "malformed"),
    ],
    ids=[
        "non-finite", "rows-not-dim", "trace-off", "no-columns", "both", "neither",
        "ragged-pairs", "triples", "null-data", "beyond-float",
    ],
)
def test_invalid_factor_file_exit_1(tmp_path, capsys, obj, message):
    serialize.save(tmp_path / "tau.json", obj)
    code = cli.main(
        ["iso", "reverse", "--tau", str(tmp_path / "tau.json"), "--dimA", "2", "--dimB", "2"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


# the unit factor file as `serialize.save` writes it, and its first entry
_UNIT_TAU = json.dumps(_factor_file(_UNIT_FACTOR), sort_keys=True, separators=(",", ":"))
_FIRST = "[[0.7071067811865475,"
_REVERSE = ["iso", "reverse", "--dimA", "2", "--dimB", "2", "--tau"]


@pytest.mark.parametrize(
    "raw, code, message",
    [
        (_UNIT_TAU.replace(_FIRST, "[[NaN,").encode(), 1, "matrix entries must be finite"),
        (_UNIT_TAU.replace(_FIRST, "[[Infinity,").encode(), 1, "matrix entries must be finite"),
        (_UNIT_TAU.replace(_FIRST, "[[1e400,").encode(), 1, "matrix entries must be finite"),
        (
            _UNIT_TAU.replace('"rows":4}', '"rows":4,}').encode(),
            1,
            "malformed JSON in {path} at line 1 column 157:"
            " Expecting property name enclosed in double quotes",
        ),
        (b"\xef\xbb\xbf" + _UNIT_TAU.encode(), 0, ""),
        (_UNIT_TAU.encode("utf-16"), 0, ""),
        (_UNIT_TAU[:-1].encode() + b',"note":"\\ud800"}', 0, ""),
    ],
    ids=["nan", "infinity", "exponent-beyond-float", "trailing-comma", "utf8-bom", "utf16-bom",
         "lone-surrogate"],
)
def test_inputs_orjson_rejects_keep_their_outcome(tmp_path, capsys, raw, code, message):
    # what each file gave when json alone decoded the input files
    path = tmp_path / "tau.json"
    (tmp_path / "plain.json").write_text(_UNIT_TAU)
    _, plain = run(capsys, _REVERSE + [str(tmp_path / "plain.json")])
    path.write_bytes(raw)
    got = cli.main(_REVERSE + [str(path)])
    captured = capsys.readouterr()
    assert got == code
    if code:
        assert captured.out == ""
        assert captured.err == f"invalid input: {message.format(path=path)}\n"
    else:
        rep = json.loads(captured.out)
        for key in ("elapsedMs", "inputsDigest"):
            del rep[key], plain[key]
        assert rep == plain


@pytest.mark.parametrize("field", ['"dim":4', '"rows":4'], ids=["dim", "rows"])
def test_integer_beyond_64_bits_exit_1(tmp_path, capsys, field):
    # orjson reads 2**64 + 1 as the float 2**64, json as the int; both are invalid
    path = tmp_path / "tau.json"
    path.write_text(_UNIT_TAU.replace(field, f"{field[:-1]}{2**64 + 1}"))
    code = cli.main(_REVERSE + [str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")
    assert "Traceback" not in captured.err


def _diagonal_files(tmp_path, zero, one, where):
    """A d = 2 state diag(0.3, 0.7) and the identity channel as files, with
    their exact zeros and ones written as `zero` and `one` in the file named
    by `where` (both, "rho" or "channel") and as 0.0 and 1.0 elsewhere."""
    def data(diagonal, spelled):
        z, o = (zero, one) if spelled else (0.0, 1.0)
        return [[o if v == 1 else v, z] if v else [z, z] for v in diagonal]

    rho = {"dim": 2, "matrix": {"rows": 2, "cols": 2,
                                "data": data([0.3, 0, 0, 0.7], where in ("both", "rho"))}}
    kraus = {"rows": 2, "cols": 2, "data": data([1, 0, 0, 1], where in ("both", "channel"))}
    channel = {"din": 2, "dout": 2, "kraus": [kraus]}
    for name, obj in (("rho", rho), ("e", channel)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    return ["iso", "forward", "--rho", str(tmp_path / "rho.json"),
            "--channel", str(tmp_path / "e.json"), "--out", str(tmp_path / "tau.json")]


@pytest.mark.parametrize("where", ["both", "rho", "channel"])
def test_boolean_matrix_entries_exit_1(tmp_path, capsys, where):
    # struct reads true and false as 1.0 and 0.0; the loader refuses them
    code = cli.main(_diagonal_files(tmp_path, False, True, where))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == (
        "invalid input: matrix entries must be numbers, not true or false\n"
    )


@pytest.mark.parametrize("zero, one", [(0, 1), (0.0, 1.0), (0, 1.0), (0.0, 1)])
def test_integral_matrix_entries_exit_0(tmp_path, capsys, zero, one):
    # the same files with numbers for the zeros and ones load as before
    code = cli.main(_diagonal_files(tmp_path, zero, one, "both"))
    rep = json.loads(capsys.readouterr().out)
    assert code == 0, rep["checks"]


@pytest.mark.parametrize(
    "prefix",
    ["", '["' + "]" * 200_000 + '",'],
    ids=["brackets", "closers-in-a-string"],
)
def test_deeply_nested_file_exit_1(tmp_path, prefix):
    path = tmp_path / "deep.json"
    path.write_text(prefix + "[" * 200_000 + "]" * 200_000 + ("]" if prefix else ""))
    # in a child process, so that a parser overflowing the C stack fails only this test
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from qduality import cli; sys.exit(cli.main(sys.argv[1:]))",
         "iso", "reverse", "--tau", str(path), "--dimA", "1", "--dimB", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"invalid input: malformed JSON in {path}: nested too deeply\n"


def test_verify_subcommands_pass(files, capsys):
    for what in ("roundtrip", "equivalence", "measure-commute"):
        code, rep = run(
            capsys,
            ["verify", what, "--dimA", "2", "--dimB", "2", "--trials", "10", "--seed", "3"],
        )
        assert code == 0, what
        assert rep["checks"][0]["pass"]


def test_fixed_points_dephasing(files, capsys):
    code, rep = run(capsys, ["fixed-points", "--channel", str(files / "deph.json")])
    assert code == 0
    assert rep["dim"] == 2


def test_decompose_dephasing(files, capsys):
    code, rep = run(capsys, ["decompose", "--channel", str(files / "deph.json")])
    assert code == 0
    assert rep["blocks"] == [{"d1": 1, "d2": 1}, {"d1": 1, "d2": 1}]


def _rotated_structured_4():
    """Identity on two basis states of C^4, dephasing on the other two, rotated:
    blocks (2, 1), (1, 1), (1, 1)."""
    u = random_unitary(4, np.random.default_rng(41))
    eye = np.eye(4, dtype=complex)
    kraus = [np.diag([1.0, 1.0, 0.0, 0.0])] + [np.outer(eye[:, i], eye[:, i]) for i in (2, 3)]
    return KrausChannel(tuple(u @ k @ u.conj().T for k in kraus), 4, 4)


def _product_block_4():
    """E(X) = Tr_2(X) x I/2, rotated: one (2, 2) block."""
    u = random_unitary(4, np.random.default_rng(42))
    eye = np.eye(2, dtype=complex)
    kraus = [np.kron(eye, np.outer(eye[:, i], eye[:, j])) / np.sqrt(2) for i in (0, 1) for j in (0, 1)]
    return KrausChannel(tuple(u @ k @ u.conj().T for k in kraus), 4, 4)


DECOMPOSE_CASES = {"rotated-structured-d4": _rotated_structured_4, "product-block-d4": _product_block_4}


def _decompose_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    serialize.save(path, serialize.channel_to_json(DECOMPOSE_CASES[name]()))
    return path


def _record_channel_inputs(monkeypatch) -> list:
    """Every input KrausChannel.__call__ is given from now on, in order."""
    inputs = []
    call = KrausChannel.__call__
    monkeypatch.setattr(KrausChannel, "__call__", lambda ch, rho: inputs.append(rho) or call(ch, rho))
    return inputs


def _reembedding_loop(e, blocks):
    """Reference: the re-embedding check one sample at a time, five random
    states per block; the worst deviation and the lifted states."""
    rng = np.random.default_rng(0)
    worst = 0.0
    states = []
    for block in blocks:
        for _ in range(5):
            lifted = block.embed(random_density(block.d1, rng).matrix)
            worst = max(worst, float(np.max(np.abs(e(lifted) - lifted))))
            states.append(lifted)
    return worst, np.stack(states)


@pytest.mark.parametrize("name", DECOMPOSE_CASES)
def test_decompose_check_matches_the_per_sample_loop(tmp_path, capsys, monkeypatch, name):
    path = _decompose_file(tmp_path, name)
    e = serialize.channel_from_json(json.loads(path.read_text()))
    want, states = _reembedding_loop(e, fixedpoints.decompose_fixed_algebra(e))
    checked = _record_channel_inputs(monkeypatch)
    code, rep = run(capsys, ["decompose", "--channel", str(path)])
    assert code == 0
    (check,) = rep["checks"]
    assert check["name"] == "block_reconstruction"
    assert abs(check["value"] - want) <= 1e-15
    # the one stacked application checks every state the loop lifts
    assert checked[-1].shape == states.shape
    assert np.max(np.abs(checked[-1] - states)) <= 1e-15


def test_decompose_draws_the_states_of_five_random_density_calls(tmp_path, capsys, monkeypatch):
    # one block with d1 = 3: a norm summed other than as random_density sums
    # it rounds differently here, so the lifted states must be equal, not close
    path = tmp_path / "id3.json"
    serialize.save(path, serialize.channel_to_json(identity_channel(3)))
    e = serialize.channel_from_json(json.loads(path.read_text()))
    _, states = _reembedding_loop(e, fixedpoints.decompose_fixed_algebra(e))
    checked = _record_channel_inputs(monkeypatch)
    code, _ = run(capsys, ["decompose", "--channel", str(path)])
    assert code == 0
    assert np.array_equal(checked[-1], states)


def _rolled_isometry_columns(blocks):
    """The blocks with the columns of their joint isometry [W_1 ... W_m] rolled by one."""
    w = np.roll(np.hstack([b.isometry for b in blocks]), 1, axis=1)
    cuts = np.cumsum([b.isometry.shape[1] for b in blocks])[:-1]
    return [dataclasses.replace(b, isometry=part) for b, part in zip(blocks, np.hsplit(w, cuts))]


@pytest.mark.parametrize("name", DECOMPOSE_CASES)
def test_decompose_check_fails_on_a_corrupted_block(tmp_path, capsys, monkeypatch, name):
    # the re-embedding check is not vacuous: blocks whose isometry is off fail it
    path = _decompose_file(tmp_path, name)
    decompose = fixedpoints.decompose_fixed_algebra
    monkeypatch.setattr(
        fixedpoints, "decompose_fixed_algebra", lambda e: _rolled_isometry_columns(decompose(e))
    )
    code, rep = run(capsys, ["decompose", "--channel", str(path)])
    assert code == 2
    (check,) = rep["checks"]
    assert check["name"] == "block_reconstruction" and not check["pass"]
    assert check["value"] > 1e-3


def test_decompose_applies_the_channel_twice(tmp_path, capsys, monkeypatch):
    # the long-run state's invariance check, then one stacked application
    # to all fifteen lifted states of the three blocks
    path = _decompose_file(tmp_path, "rotated-structured-d4")
    inputs = _record_channel_inputs(monkeypatch)
    code, rep = run(capsys, ["decompose", "--channel", str(path)])
    assert code == 0 and len(rep["blocks"]) == 3
    assert [np.shape(x) for x in inputs] == [(4, 4), (15, 4, 4)]


def test_broadcast_demo(files, capsys):
    code, rep = run(
        capsys,
        [
            "broadcast-demo",
            "--sigma1", str(files / "zero.json"),
            "--sigma2", str(files / "plus.json"),
        ],
    )
    assert code == 0
    assert abs(rep["overlap"] - 1 / np.sqrt(2)) < 1e-10


def test_fixed_point_checks_apply_each_channel_once_to_a_stack(tmp_path, capsys, monkeypatch):
    # identity on a rotated plane of C^3, dephasing off it; two pure states in the plane
    u = random_unitary(3, np.random.default_rng(43))
    third = np.outer(np.eye(3)[:, 2], np.eye(3)[:, 2])
    kraus = tuple(u @ k @ u.conj().T for k in (np.diag([1.0, 1.0, 0.0]), third))
    serialize.save(tmp_path / "e.json", serialize.channel_to_json(KrausChannel(kraus, 3, 3)))
    for name, v in (("s1", [1.0, 0.0, 0.0]), ("s2", [1.0, 1.0, 0.0])):
        serialize.save(tmp_path / f"{name}.json", serialize.state_to_json(pure_state(u @ np.array(v))))
    load = lambda name: serialize.loads((tmp_path / f"{name}.json").read_bytes(), name)
    e = serialize.channel_from_json(load("e"))
    s1, s2 = (serialize.state_from_json(load(name)) for name in ("s1", "s2"))
    # references: one channel application per matrix, as the checks were made before
    basis = fixedpoints.fixed_point_space(e).basis
    invariance = max(float(np.max(np.abs(e(x) - x))) for x in basis)
    w = witnesses.broadcast_obstruction(s1, s2, e, e)
    lifted = [w.block.embed(np.outer(v, v.conj())) for v in w.clonable_states]
    witness_devs = [float(np.max(np.abs(e(x) - x))) for x in lifted]
    inputs = _record_channel_inputs(monkeypatch)
    stacks = lambda: [np.shape(x) for x in inputs if np.ndim(x) == 3]
    code, rep = run(capsys, ["fixed-points", "--channel", str(tmp_path / "e.json")])
    assert code == 0 and stacks() == [(len(basis), 3, 3)]
    assert rep["checks"][0]["value"] == invariance
    inputs.clear()
    argv = ["broadcast-demo", "--sigma1", str(tmp_path / "s1.json"), "--sigma2", str(tmp_path / "s2.json")]
    code, rep = run(capsys, argv + ["--channel1", str(tmp_path / "e.json"), "--channel2", str(tmp_path / "e.json")])
    assert code == 0 and stacks() == [(2, 3, 3), (2, 3, 3)]
    got = {c["name"]: c["value"] for c in rep["checks"]}
    assert [got["witness1_fixed_by_both_channels"], got["witness2_fixed_by_both_channels"]] == witness_devs


def test_broadcast_demo_commuting_states_exit_3(files, capsys, tmp_path):
    serialize.save(
        tmp_path / "one.json",
        serialize.state_to_json(pure_state(np.array([0.0, 1.0]))),
    )
    code = cli.main(
        [
            "broadcast-demo",
            "--sigma1", str(files / "zero.json"),
            "--sigma2", str(tmp_path / "one.json"),
        ]
    )
    assert code == 3


def test_monogamy_and_cloning_demos(files, capsys, tmp_path):
    code, rep = run(
        capsys,
        [
            "monogamy-demo",
            "--sigma1", str(files / "zero.json"),
            "--sigma2", str(files / "plus.json"),
            "--p", "0.5",
        ],
    )
    assert code == 0
    ens = {
        "members": [
            {"weight": 0.5, "state": serialize.load(files / "zero.json")},
            {"weight": 0.5, "state": serialize.load(files / "plus.json")},
        ]
    }
    serialize.save(tmp_path / "ens.json", ens)
    code, rep = run(capsys, ["cloning-demo", "--ensemble", str(tmp_path / "ens.json")])
    assert code == 0


def test_universal_demo_direction_a(files, capsys):
    code, rep = run(
        capsys,
        [
            "universal-demo", "--direction", "a",
            "--channel1", str(files / "id2.json"),
            "--channel2", str(files / "id2.json"),
        ],
    )
    assert code == 0
    assert rep["verdict"]


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["a", "--channel1", "id2.json", "--channel2", "id2.json", "--tau1", "nowhere.json", "--dimA", "9"],
         "--tau1 or --dimA"),
        (["a", "--channel1", "id2.json", "--channel2", "id2.json", "--dimB", "2"], "--dimB"),
        (["b", "--tau1", "phi.json", "--tau2", "phi.json", "--dimA", "2", "--dimB", "2", "--channel2", "id2.json"],
         "--channel2"),
    ],
    ids=["a-reads-no-tau-or-dims", "a-reads-no-dimB", "b-reads-no-channel"],
)
def test_universal_demo_rejects_the_other_direction_inputs(files, capsys, argv, unread):
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    code = cli.main(["universal-demo", "--direction", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"invalid input: universal-demo {argv[0]} does not read {unread}\n"


@pytest.mark.parametrize(
    "argv, command, extra",
    [
        (["iso", "forward", "--rho", "rho.json", "--channel", "id2.json", "--tol", "0.5"], "iso forward", "--tol 0.5"),
        (["std-iso", "reverse", "--tau", "phi.json", "--dimA", "2", "--dimB", "2", "--rho", "rho.json"],
         "std-iso reverse", "--rho rho.json"),
        (["verify", "roundtrip", "--bogus", "1"], "verify roundtrip", "--bogus 1"),
        (["sample", "--table", "table.json", "--dimA", "2"], "sample", "--dimA 2"),
    ],
    ids=["iso-forward", "std-iso-reverse", "verify-roundtrip", "sample"],
)
def test_unrecognized_arguments_name_the_command_and_mode(files, capsys, argv, command, extra):
    code = cli.main([str(files / a) if a.endswith(".json") else a for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    extra = " ".join(str(files / a) if a.endswith(".json") else a for a in extra.split())
    assert captured.err == f"invalid input: qduality {command}: unrecognized arguments: {extra}\n"


def test_sample_deterministic_report(files, capsys):
    argv = ["sample", "--table", str(files / "table.json"), "--trials", "100000", "--seed", "42"]
    code1, rep1 = run(capsys, argv)
    code2, rep2 = run(capsys, argv)
    assert code1 == code2 == 0
    rep1.pop("elapsedMs")
    rep2.pop("elapsedMs")
    assert rep1 == rep2
    assert rep1["checks"][0]["value"] <= 0.02


def test_cached_parser_reports_match_fresh_parser(files, capsys):
    argv_list = [
        ["verify", "roundtrip", "--trials", "0"],
        ["iso", "forward", "--rho", str(files / "rho.json"), "--channel", str(files / "id2.json")],
        ["sample", "--table", str(files / "table.json"), "--trials", "100000", "--seed", "3"],
    ]

    def outcomes(fresh):
        out = []
        for argv in argv_list:
            if fresh:
                cli.build_parser.cache_clear()
            code = cli.main(argv)
            captured = capsys.readouterr()
            rep = json.loads(captured.out) if captured.out else None
            if rep:
                rep.pop("elapsedMs")
            out.append((code, rep, captured.err))
        return out

    assert cli.build_parser() is cli.build_parser()
    cached = outcomes(fresh=False)
    assert [c for c, _, _ in cached] == [1, 0, 0]
    assert cached == outcomes(fresh=True)


def test_sample_check_failure_exit_2(files, capsys):
    code, rep = run(
        capsys,
        ["sample", "--table", str(files / "table.json"), "--trials", "1000",
         "--seed", "42", "--tol", "1e-9"],
    )
    assert code == 2


def test_invalid_state_file_exit_1(tmp_path, capsys):
    rho = DensityOperator(np.eye(2) / 2)
    obj = {"dim": 2, "matrix": serialize.matrix_to_json(np.eye(2) * 0.45)}
    serialize.save(tmp_path / "bad.json", obj)
    code = cli.main(
        ["iso", "forward", "--rho", str(tmp_path / "bad.json"), "--channel", str(tmp_path / "bad.json")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "trace" in err


def test_malformed_json_exit_1(tmp_path, capsys):
    (tmp_path / "broken.json").write_text("{not json")
    code = cli.main(["fixed-points", "--channel", str(tmp_path / "broken.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "line" in err


def test_out_of_float_range_number_exit_1(files, tmp_path, capsys):
    # an integer literal beyond float range, as a matrix entry
    big = '{"dim": 1, "matrix": {"cols": 1, "data": [[1' + "0" * 400 + ', 0]], "rows": 1}}'
    (tmp_path / "big.json").write_text(big)
    code = cli.main(
        ["iso", "forward", "--rho", str(tmp_path / "big.json"), "--channel", str(files / "id2.json")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "invalid input" in err
    assert "Traceback" not in err


def test_incomplete_povm_named_invariant(tmp_path):
    bad = {
        "dim": 2,
        "elements": [serialize.matrix_to_json(np.diag([0.5, 0.5]))],
        "labels": ["only"],
    }
    from qduality.errors import ValidationError

    serialize.save(tmp_path / "povm.json", bad)
    with pytest.raises(ValidationError, match="identity|complete"):
        serialize.povm_from_json(serialize.load(tmp_path / "povm.json"))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "roundtrip", "--trials", "-3"],
        ["verify", "roundtrip", "--trials", "0"],
        ["sample", "--table", "table.json", "--trials", "0"],
        ["iso", "forward"],
        ["iso", "reverse", "--tau", "rho.json"],
        ["std-iso", "forward"],
        ["decompose", "--channel", "nodin.json"],
        ["decompose"],
        ["verify", "roundtrip", "--trials", "abc"],
        ["iso", "sideways"],
        ["iso", "forward", "--rho", "rho.json", "--channel", "id2.json", "--tol", "0.5"],
        ["iso", "forward", "--rho", "rho.json", "--channel", "id2.json", "--tau", "phi.json"],
        ["iso", "reverse", "--tau", "phi.json", "--dimA", "2", "--dimB", "2", "--rho", "rho.json"],
        ["std-iso", "forward", "--channel", "id2.json", "--dimA", "2"],
        ["monogamy-demo", "--sigma1", "zero.json", "--sigma2", "plus.json", "--p", "1.5"],
        ["monogamy-demo", "--sigma1", "zero.json", "--sigma2", "plus.json", "--p", "0"],
        ["monogamy-demo", "--sigma1", "zero.json", "--sigma2", "plus.json", "--p", "nan"],
        ["verify", "roundtrip", "--seed", "-1"],
        ["verify", "equivalence", "--seed", "-1"],
        # not a suite: the parser rejects the name as an invalid choice
        ["verify", "trace-commute", "--seed", "-1"],
        ["verify", "measure-commute", "--seed", "-1"],
        ["sample", "--table", "table.json", "--seed", "-1"],
    ],
    ids=[
        "verify-negative-trials",
        "verify-zero-trials",
        "sample-zero-trials",
        "iso-forward-no-inputs",
        "iso-reverse-no-dims",
        "std-iso-forward-no-channel",
        "channel-without-din",
        "decompose-no-channel",
        "verify-text-trials",
        "iso-unknown-mode",
        "iso-forward-tol",
        "iso-forward-tau",
        "iso-reverse-rho",
        "std-iso-forward-dimA",
        "monogamy-p-above-one",
        "monogamy-p-zero",
        "monogamy-p-nan",
        "verify-roundtrip-negative-seed",
        "verify-equivalence-negative-seed",
        "verify-trace-commute-negative-seed",
        "verify-measure-commute-negative-seed",
        "sample-negative-seed",
    ],
)
def test_invalid_arguments_exit_1(files, capsys, argv):
    nodin = serialize.channel_to_json(identity_channel(2))
    del nodin["din"]
    serialize.save(files / "nodin.json", nodin)
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")
    if argv[:2] == ["verify", "trace-commute"]:
        assert "invalid choice: 'trace-commute'" in captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "verification map" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["forward", "reverse"])
@pytest.mark.parametrize("command", ["iso", "std-iso"])
def test_mode_help_exits_0(capsys, command, mode):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, mode, "--help"])
    assert exc.value.code == 0
    assert f"qduality {command} {mode}" in capsys.readouterr().out


def _state_with_smallest_eigenvalue(w_min):
    # trace one, eigenvalues (1 - w_min, 0, w_min) in a rotated basis
    u = random_unitary(3, np.random.default_rng(8))
    return linalg.hermitize((u * [1 - w_min, 0.0, w_min]) @ u.conj().T)


def _iso_forward_of(tmp_path, capsys, state_obj):
    serialize.save(tmp_path / "rho.json", state_obj)
    serialize.save(tmp_path / "id3.json", serialize.channel_to_json(identity_channel(3)))
    code = cli.main(
        ["iso", "forward", "--rho", str(tmp_path / "rho.json"), "--channel", str(tmp_path / "id3.json")]
    )
    return code, capsys.readouterr()


def test_matrix_state_file_psd_check(tmp_path, capsys):
    # the loader reads positivity from the eigendecomposition it keeps; the
    # verdict and the message are the public constructor's
    bad = _state_with_smallest_eigenvalue(-2e-10)
    with pytest.raises(NotPSDError) as err:
        DensityOperator(bad)
    code, captured = _iso_forward_of(tmp_path, capsys, {"dim": 3, "matrix": serialize.matrix_to_json(bad)})
    assert code == 1 and captured.out == ""
    assert captured.err == f"invalid input: {err.value}\n"
    assert "negative eigenvalue -2.000e-10" in captured.err
    ok = _state_with_smallest_eigenvalue(-5e-11)
    DensityOperator(ok)
    code, captured = _iso_forward_of(tmp_path, capsys, {"dim": 3, "matrix": serialize.matrix_to_json(ok)})
    assert code == 0, captured.err


def test_loaded_matrix_state_takes_one_eigh(tmp_path, capsys, numpy_calls):
    # one eigh at load serves the PSD check and iso_reverse; no eigvalsh of tau
    e = random_channel(2, 2, np.random.default_rng(9))
    tau = iso_forward(IsoPair(random_density(2, np.random.default_rng(10)), e))
    serialize.save(tmp_path / "tau.json", {"dim": 4, "matrix": serialize.matrix_to_json(tau.state.matrix)})
    numpy_calls.reset()
    code, _ = run(capsys, ["iso", "reverse", "--tau", str(tmp_path / "tau.json"), "--dimA", "2", "--dimB", "2"])
    assert code == 0
    assert numpy_calls["eigh"] == [(4, 4)]
    assert (4, 4) not in numpy_calls["eigvalsh"]


@pytest.mark.parametrize("da, db", [(2, 3), (3, 2)])
def test_verify_equivalence_trial_call_budget(capsys, numpy_calls, da, db):
    # the trials are one stack: one batched svd for the states' Supports,
    # one qr for the channels' isometries, one eigh for the inverse roots of
    # the M sums and one for the N sums; the built channels and POVMs are
    # not checked again by an eigensolver, and no call runs per trial
    for trials in (1, 7):
        numpy_calls.reset()
        argv = ["verify", "equivalence", "--dimA", str(da), "--dimB", str(db), "--trials", str(trials)]
        code, rep = run(capsys, argv + ["--seed", "5"])
        assert code == 0
        assert numpy_calls["eigvalsh"] == []
        assert numpy_calls["eigh"] == [(trials, da, da), (trials, db, db)]
        assert numpy_calls["svd"] == [(trials, da, da)]
        assert numpy_calls["qr"] == [(trials, db * da, da)]


@pytest.mark.parametrize("da, db", [(2, 3), (3, 2)])
def test_verify_roundtrip_trial_call_budget(capsys, numpy_calls, da, db):
    # one batched svd of the states' factors and one of the reversed C's,
    # one qr of the Stinespring Gaussians and one of the channel distances'
    # [X1 X2]; no eigensolver, and no call per trial
    for trials in (1, 7):
        numpy_calls.reset()
        argv = ["verify", "roundtrip", "--dimA", str(da), "--dimB", str(db), "--trials", str(trials)]
        code, rep = run(capsys, argv + ["--seed", "5"])
        assert code == 0
        assert numpy_calls["eigh"] == numpy_calls["eigvalsh"] == []
        assert numpy_calls["svd"] == [(trials, da, da), (trials, da * db, da)]
        assert numpy_calls["qr"] == [(trials, db * da, da), (trials, da * db, 2 * da)]


def test_checks_report_their_margin(files, capsys):
    code, rep = run(capsys, ["verify", "roundtrip", "--dimA", "3", "--dimB", "2", "--trials", "3", "--seed", "1"])
    assert code == 0
    (check,) = rep["checks"]
    assert check["margin"] == check["tolerance"] / check["value"] > 1


@pytest.mark.parametrize("eps", [1e-11, 2e-10, 5e-10])
def test_universal_demo_near_unitary_marginal_gets_a_verdict(tmp_path, capsys, eps):
    # a pure tau whose A-marginal (I + eps Z)/2 passes the 1e-9 marginal check
    vec = np.sqrt([(1 + eps) / 2, 0.0, 0.0, (1 - eps) / 2]).astype(complex)
    serialize.save(tmp_path / "tau.json", serialize.factor_to_json(vec.reshape(4, 1)))
    tau = str(tmp_path / "tau.json")
    argv = ["universal-demo", "--direction", "b", "--tau1", tau, "--tau2", tau, "--dimA", "2", "--dimB", "2"]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2), captured.err
    assert "Traceback" not in captured.err
    rep = json.loads(captured.out)
    assert {c["name"] for c in rep["checks"]} >= {"state1.corrected_channel_identity"}


def test_fixed_points_takes_one_svd(files, capsys, numpy_calls):
    # the channel's fixed space is the right kernel of one real SVD of I - S
    numpy_calls.reset()
    code, rep = run(capsys, ["fixed-points", "--channel", str(files / "deph.json")])
    assert code == 0 and rep["dim"] == 2
    assert numpy_calls["svd"] == [(4, 4)]


@pytest.mark.parametrize("da", [2, 3])
def test_verify_measure_commute_reads_the_eigenbasis_of_rho(capsys, numpy_calls, da):
    # the states' Supports (one batched svd of their factors) give the
    # eigenbases: the one eigh is the measured POVM elements', the second
    # svd the updated states'
    argv = ["verify", "measure-commute", "--dimA", str(da), "--dimB", "2", "--trials", "1"]
    code, rep = run(capsys, argv + ["--seed", "5"])
    assert code == 0 and rep["checks"][0]["pass"]
    assert numpy_calls["eigh"] == [(1, da, da)]
    assert numpy_calls["svd"] == [(1, da, da), (1, da, da)]


@pytest.mark.parametrize("what", sorted(cli._SUITES))
def test_verify_lapack_calls_are_per_chunk(capsys, numpy_calls, what):
    # one chunk of 1 or of 20 trials takes the same batched calls
    counts = []
    for trials in (1, 20):
        numpy_calls.reset()
        code, _ = run(capsys, ["verify", what, "--trials", str(trials), "--seed", "3"])
        assert code == 0
        counts.append([len(numpy_calls[name]) for name in ("eigh", "svd", "qr")])
    assert counts[0] == counts[1]


def _overflowing_channel_file(path):
    # sum K†K overflows to inf, so its eigenvalues come out nan
    k = np.eye(2, dtype=complex)
    k[0, 0] = 1e308
    serialize.save(path, {"din": 2, "dout": 2, "kraus": [serialize.matrix_to_json(k)]})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [["std-iso", "forward"], ["iso", "forward", "--rho", "zero.json"]],
    ids=["std-iso-forward", "iso-forward"],
)
def test_overflowing_channel_exit_1(files, capsys, argv):
    _overflowing_channel_file(files / "big.json")
    argv = [str(files / a) if a.endswith(".json") else a for a in argv]
    code = cli.main(argv + ["--channel", str(files / "big.json")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "sum of K†K exceeds the identity" in captured.err


# one run of each command that takes --tol, before the flag is appended
TOL_COMMANDS = {
    "iso": ["iso", "reverse", "--tau", "phi.json", "--dimA", "2", "--dimB", "2"],
    "std-iso": ["std-iso", "reverse", "--tau", "phi.json", "--dimA", "2", "--dimB", "2"],
    "verify": ["verify", "roundtrip", "--trials", "1"],
    "sample": ["sample", "--table", "table.json", "--trials", "10"],
}


@pytest.mark.parametrize("value", ["inf", "1e400", "nan", "-1", "0"])
@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
def test_tol_outside_positive_finite_exit_1(files, capsys, command, value):
    argv = [str(files / a) if a.endswith(".json") else a for a in TOL_COMMANDS[command]]
    code = cli.main(argv + ["--tol", value])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("invalid input: --tol must be positive and finite")


@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
def test_positive_finite_tol_runs(files, capsys, command):
    argv = [str(files / a) if a.endswith(".json") else a for a in TOL_COMMANDS[command]]
    code, _ = run(capsys, argv + ["--tol", "0.5"])
    assert code == 0


@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
def test_memory_error_exit_1(files, capsys, monkeypatch, command):
    # raised where a check would be recorded, so nothing is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli._Run, "check", exhausted)
    argv = [str(files / a) if a.endswith(".json") else a for a in TOL_COMMANDS[command]]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("invalid input: too large to hold in memory")


def _known_deviations(monkeypatch, deviations):
    """Make `verify roundtrip` a suite whose trial i has deviation deviations[i]:
    each draw is the trial's index, and a check reads its draws' deviations."""
    index = iter(range(len(deviations)))
    suite = cli._Suite(
        lambda da, db, rng: (next(index),),
        lambda draws, da, db: np.array([deviations[i] for (i,) in draws]),
        cli._pair_numbers,
    )
    monkeypatch.setitem(cli._SUITES, "roundtrip", suite)


def test_a_nan_verify_trial_fails(capsys, monkeypatch):
    _known_deviations(monkeypatch, [0.0, np.nan, 1e-16])
    code = cli.main(["verify", "roundtrip", "--trials", "3"])

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    rep = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 2
    [check] = rep["checks"]
    assert check["value"] is None and check["margin"] is None and check["pass"] is False
    assert rep["worstTrial"] == 1


@pytest.mark.parametrize("chunk", [cli._CHUNK_NUMBERS, 1, 2], ids=["one-chunk", "chunks-of-1", "chunks-of-2"])
@pytest.mark.parametrize(
    "deviations, worst",
    [
        ([1e-16, 3e-16, 2e-16], 1),
        ([3e-16, 1e-16, 3e-16, 2e-16], 0),
        ([1e-16, 2e-16, 2e-16, 5e-16, 4e-16], 3),
        ([1e-16, np.nan, 5e-16, np.nan], 1),
        ([1e-16, 2e-16, 3e-16, np.nan, 1.0], 3),
    ],
    ids=["middle", "first-of-a-tie", "late", "first-nan", "nan-after-a-larger-chunk"],
)
def test_worst_trial_names_the_largest_deviation_or_the_first_nan(
    capsys, monkeypatch, chunk, deviations, worst
):
    _known_deviations(monkeypatch, deviations)
    monkeypatch.setattr(cli, "_CHUNK_NUMBERS", chunk)
    code = cli.main(["verify", "roundtrip", "--trials", str(len(deviations))])
    rep = json.loads(capsys.readouterr().out)
    assert rep["worstTrial"] == worst
    value = rep["checks"][0]["value"]
    assert (value is None and code == 2) if np.isnan(deviations[worst]) else value == deviations[worst]


@pytest.mark.parametrize("what", ["roundtrip", "equivalence"])
def test_worst_trial_replays_alone(capsys, what):
    # the trial that worstTrial names, drawn after the trials before it,
    # has the reported deviation as a one-trial check
    code, rep = run(capsys, ["verify", what, "--dimA", "3", "--dimB", "2", "--trials", "9", "--seed", "4"])
    rng = randomgen.rng_from(4)
    suite = cli._SUITES[what]
    draws = [suite.draw(3, 2, rng) for _ in range(rep["trials"])]
    assert suite.check(draws[rep["worstTrial"] :][:1], 3, 2)[0] == rep["checks"][0]["value"]


def _verify_reference(what, da, db, trials, seed):
    """The if-chain over suites that cli._SUITES replaced, kept as the reference."""
    rng = randomgen.rng_from(seed)
    worst = 0.0
    for _ in range(trials):
        if what == "roundtrip":
            pair = randomgen.random_iso_pair(da, db, rng)
            res = duality.verify_roundtrip(pair)
            worst = max(worst, res["rho_deviation"], res["channel_deviation"])
        elif what == "equivalence":
            pair = randomgen.random_iso_pair(da, db, rng)
            m = randomgen.random_povm(da, int(rng.integers(2, 6)), rng)
            n = randomgen.random_povm(db, int(rng.integers(2, 6)), rng)
            worst = max(worst, correlations.verify_equivalence(pair, m, n))
        else:  # measure-commute
            pair = randomgen.random_iso_pair(da, db, rng)
            basis = eigenbasis(pair.rho)
            m = randomgen.random_diagonal_povm(da, int(rng.integers(2, 5)), rng, basis=basis)
            outcome = int(rng.integers(len(m)))
            res = duality.verify_measure_commute(pair.rho, pair.channel, m, outcome, basis)
            worst = max(worst, res)
    return worst


@pytest.mark.parametrize("da, db", [(2, 2), (3, 2)])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("what", sorted(cli._SUITES))
def test_verify_suites_match_the_if_chain(capsys, what, seed, da, db):
    argv = ["verify", what, "--dimA", str(da), "--dimB", str(db), "--trials", "4", "--seed", str(seed)]
    code, rep = run(capsys, argv)
    assert code == 0
    assert rep["checks"][0]["value"] == _verify_reference(what, da, db, 4, seed)


def test_every_verify_suite_has_a_default_tolerance():
    assert set(tol.VERIFY_TOL) == set(cli._SUITES)


def test_every_verify_report_says_whether_its_worst_trial_is_resolved(capsys, monkeypatch):
    # equivalence deviations at d <= 8 are a few ulps: which trial is worst is rounding
    for seed in (0, 1, 2):
        for da, db in ((2, 2), (3, 5), (8, 8)):
            argv = ["verify", "equivalence", "--dimA", str(da), "--dimB", str(db), "--seed", str(seed)]
            code, rep = run(capsys, argv)
            assert code == 0 and rep["worstTrialResolved"] is False, (seed, da, db)
    # a worst trial above the floor, or a nan one, is resolved; it fails the check here
    for deviations in ([1e-16, 1e-6, 2e-16], [1e-16, np.nan, 2e-16]):
        _known_deviations(monkeypatch, deviations)
        code = cli.main(["verify", "roundtrip", "--trials", "3"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 2 and rep["worstTrial"] == 1 and rep["worstTrialResolved"] is True
    # at the floor, which grows with dA dB, it is not; just above it, it is
    for da, db in ((2, 2), (3, 5)):
        floor = tol.WORST_TRIAL_FLOOR_PER_DIM * da * db
        for deviation, resolved in ((floor, False), (np.nextafter(floor, 1.0), True)):
            _known_deviations(monkeypatch, [deviation, 0.0])
            argv = ["verify", "roundtrip", "--trials", "2", "--dimA", str(da), "--dimB", str(db)]
            code, rep = run(capsys, argv)
            assert code == 0 and rep["worstTrial"] == 0 and rep["worstTrialResolved"] is resolved


@pytest.fixture
def large_tau(tmp_path):
    """A 64 x 64 matrix tau file, the size of the benchmark's `iso reverse` input."""
    tau = iso_forward(randomgen.random_iso_pair(8, 8, randomgen.rng_from(3))).state.matrix
    path = tmp_path / "tau64.json"
    serialize.save(path, {"dim": 64, "matrix": serialize.matrix_to_json(tau)})
    return str(path)


@pytest.fixture
def collector():
    """Restores the collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_reading_a_large_tau_runs_no_collector_sweep(capsys, large_tau, collector):
    gc.enable()
    sweeps = []

    def record(phase, info):
        if phase == "start":
            sweeps.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        code = cli.main(["iso", "reverse", "--tau", large_tau, "--dimA", "8", "--dimB", "8"])
    finally:
        gc.callbacks.remove(record)
    capsys.readouterr()
    assert code == 0 and sweeps == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_reading_leaves_the_collector_as_found(capsys, tmp_path, large_tau, collector, enabled):
    (gc.enable if enabled else gc.disable)()
    assert cli.main(["iso", "reverse", "--tau", large_tau, "--dimA", "8", "--dimB", "8"]) == 0
    assert gc.isenabled() is enabled
    # a state file with trace 0.9 raises inside the build, after decoding
    bad = tmp_path / "bad.json"
    serialize.save(bad, {"dim": 2, "matrix": serialize.matrix_to_json(np.eye(2) * 0.45)})
    assert cli.main(["iso", "reverse", "--tau", str(bad), "--dimA", "1", "--dimB", "2"]) == 1
    assert gc.isenabled() is enabled
    capsys.readouterr()


def test_every_file_is_read_by_the_reader():
    # a command that read or decoded a file itself would bypass the digest
    # and the paused collector
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    readers = {"load", "loads", "read_bytes", "read_text", "open"}
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    callee = node.func
                    name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                    if name in readers:
                        found.add((func.name, name))
    assert found == {("read", "read_bytes"), ("read", "loads")}
