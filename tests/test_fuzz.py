"""The CLI's exit-code contract over structurally mutated input files and
small and huge command-line integers.

Valid d=2 state, channel, tau, Choi state and ensemble files have one field replaced by
0, -1, 1e308, NaN, a string, null or a ragged list, or deleted; every
command that reads them must exit 0, 1, 2 or 3, let no exception escape and
print only strict JSON.  The `verify` suites and `sample` get the same
contract over their integer flags.  Everything runs in-process.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qduality import cli, serialize
from qduality.correlations import JointTable
from qduality.duality import IsoPair, iso_forward
from qduality.errors import ValidationError
from qduality.qobjects import DensityOperator, Ensemble, KrausChannel, Povm, pure_state

DELETE = object()
REPLACEMENTS = (0, -1, 1e308, float("nan"), "x", None, [[1.0, 0.0], [1.0]], DELETE)

# command line -> the input files it reads, by placeholder
COMMANDS = {
    "iso forward": ["iso", "forward", "--rho", "{state}", "--channel", "{channel}"],
    "iso reverse": ["iso", "reverse", "--tau", "{tau}", "--dimA", "2", "--dimB", "2"],
    "std-iso forward": ["std-iso", "forward", "--channel", "{channel}"],
    "std-iso reverse": ["std-iso", "reverse", "--tau", "{choi}", "--dimA", "2", "--dimB", "2"],
    "fixed-points": ["fixed-points", "--channel", "{channel}"],
    "decompose": ["decompose", "--channel", "{channel}"],
    "cloning-demo": ["cloning-demo", "--ensemble", "{ensemble}"],
}


def _valid_files() -> dict:
    amp = np.sqrt(0.3)
    channel = KrausChannel(
        (np.array([[1.0, 0.0], [0.0, np.sqrt(1 - amp**2)]]), np.array([[0.0, amp], [0.0, 0.0]])),
        2,
        2,
    )
    rho = DensityOperator(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
    zero, plus = pure_state(np.array([1.0, 0.0])), pure_state(np.array([1.0, 1.0]))
    return {
        "state": serialize.state_to_json(rho),
        "channel": serialize.channel_to_json(channel),
        "tau": serialize.factor_to_json(iso_forward(IsoPair(rho, channel)).state.factor()),
        "choi": serialize.factor_to_json(channel.factor(np.eye(2) / np.sqrt(2))),
        "ensemble": serialize.ensemble_to_json(Ensemble(((0.4, zero), (0.6, plus)))),
        "table": serialize.table_to_json(JointTable(np.full((2, 2), 0.25), ("0", "1"), ("0", "1"))),
        "povm": serialize.povm_to_json(Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), ("a", "b"))),
    }


VALID = _valid_files()


def _slots(node):
    """Every (container, key) pair in a JSON value, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _slots(node[key])


def _mutated(name: str, index: int, replacement):
    obj = copy.deepcopy(VALID[name])
    slots = list(_slots(obj))
    container, key = slots[index % len(slots)]
    if replacement is DELETE:
        del container[key]
    else:
        container[key] = replacement
    return obj


def _strict(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, obj in VALID.items():
        (path / f"{name}.json").write_text(json.dumps(obj))
    return path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    which=st.integers(0, 1),
    index=st.integers(0, 10**6),
    replacement=st.sampled_from(REPLACEMENTS),
)
def test_mutated_inputs_keep_the_exit_code_contract(folder, command, which, index, replacement):
    argv = COMMANDS[command]
    inputs = [a[1:-1] for a in argv if a.startswith("{")]
    target = inputs[which % len(inputs)]
    paths = {name: str(folder / f"{name}.json") for name in inputs}
    paths[target] = str(folder / "mutated.json")
    (folder / "mutated.json").write_text(json.dumps(_mutated(target, index, replacement)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([a.format(**paths) for a in argv])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("invalid input: ")
    if out.getvalue():
        _strict(out.getvalue())


def test_the_valid_files_pass_every_command(folder):
    for command, argv in COMMANDS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([a.format(**{n: str(folder / f"{n}.json") for n in VALID}) for a in argv])
        assert code == 0, command
        _strict(out.getvalue())


SIZES = {"dim", "rows", "cols", "din", "dout"}


def _mistyped(name: str):
    """(slot index, replacement) for every size, weight and first matrix pair
    of a file: a string, a boolean or a fraction where a number belongs."""
    for index, (container, key) in enumerate(_slots(VALID[name])):
        value = container[key]
        if key in SIZES:
            yield from ((index, str(value)), (index, True), (index, value + 0.5))
        elif key == "weight":
            yield from ((index, str(value)), (index, True))
        elif key == "data":
            # the first [re, im] pair as a two-digit string, and its re as text
            yield from ((index + 1, "12"), (index + 2, str(container[key][0][0])))


READERS = {name: [argv for argv in COMMANDS.values() if f"{{{name}}}" in argv] for name in VALID}
MISTYPED = [(name, index, value) for name in sorted(VALID) if READERS[name]
            for index, value in _mistyped(name)]


@pytest.mark.parametrize(
    "name, index, replacement", MISTYPED, ids=[f"{n}-{i}-{v!r}" for n, i, v in MISTYPED]
)
def test_mistyped_numbers_exit_1(folder, name, index, replacement):
    (folder / "mistyped.json").write_text(json.dumps(_mutated(name, index, replacement)))
    for argv in READERS[name]:
        paths = {n: str(folder / f"{n}.json") for n in VALID}
        paths[name] = str(folder / "mistyped.json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([a.format(**paths) for a in argv])
        assert (code, out.getvalue()) == (1, ""), argv[:2]
        assert err.getvalue().startswith("invalid input: "), argv[:2]


# label fields hold a JSON array of strings; str() would turn each of these
# into labels, and split a text into one label per character
NOT_LABELS = ("ab", [True, "1"], [None, {"a": 1}], [0, 1], {"0": "a", "1": "b"})


@pytest.mark.parametrize("key", ["m_labels", "n_labels"])
@pytest.mark.parametrize("replacement", NOT_LABELS, ids=repr)
def test_table_labels_that_are_not_strings_exit_1(folder, key, replacement):
    obj = copy.deepcopy(VALID["table"])
    obj[key] = replacement
    (folder / "labels.json").write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["sample", "--table", str(folder / "labels.json"), "--trials", "100"])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith(f"invalid input: {key} must be an array of strings")


@pytest.mark.parametrize("replacement", NOT_LABELS, ids=repr)
def test_povm_labels_that_are_not_strings_are_invalid(replacement):
    # no command reads a POVM file, so the loader is called directly
    obj = copy.deepcopy(VALID["povm"])
    obj["labels"] = replacement
    with pytest.raises(ValidationError, match="labels must be an array of strings"):
        serialize.povm_from_json(obj)


def test_absent_labels_count_from_zero():
    table = copy.deepcopy(VALID["table"])
    del table["m_labels"], table["n_labels"]
    loaded = serialize.table_from_json(table)
    assert (loaded.m_labels, loaded.n_labels) == (("0", "1"), ("0", "1"))
    povm = copy.deepcopy(VALID["povm"])
    del povm["labels"]
    assert serialize.povm_from_json(povm).labels == ("0", "1")


# command line -> the integer flags it takes; each gets a value of INTEGERS,
# all of them small, so no draw allocates much
INTEGER_FLAGS = {
    **{
        f"verify {what}": (["verify", what], ("--seed", "--trials", "--dimA", "--dimB"))
        for what in cli._SUITES
    },
    "sample": (["sample", "--table", "{table}"], ("--seed", "--trials")),
}
INTEGERS = (-2, -1, 0, 1, 2, 3)


@settings(max_examples=100)
@given(
    command=st.sampled_from(sorted(INTEGER_FLAGS)),
    values=st.lists(st.sampled_from(INTEGERS), min_size=4, max_size=4),
)
def test_small_integer_flags_keep_the_exit_code_contract(folder, command, values):
    base, flags = INTEGER_FLAGS[command]
    argv = [a.format(table=str(folder / "table.json")) for a in base]
    for flag, value in zip(flags, values):
        argv += [flag, str(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("invalid input: ")
    else:
        _strict(out.getvalue())


# values past what any array or 64-bit count holds, and the largest 64-bit count
HUGE_INTEGERS = (2**31, 2**62, 2**63 - 1, 2**63, 2**70)


@settings(max_examples=100)
@given(
    command=st.sampled_from(sorted(INTEGER_FLAGS)),
    values=st.lists(st.sampled_from(HUGE_INTEGERS), min_size=3, max_size=3),
)
def test_huge_integer_flags_keep_the_exit_code_contract(folder, command, values):
    # a `verify` suite gets huge sizes and one trial, so no run loops for
    # long; `sample` gets a huge seed and trial count
    base, _ = INTEGER_FLAGS[command]
    argv = [a.format(table=str(folder / "table.json")) for a in base]
    if command == "sample":
        seed, trials = values[:2]
        argv += ["--seed", str(seed), "--trials", str(trials)]
        runs = trials <= 2**63 - 1
    else:
        seed, da, db = values
        argv += ["--seed", str(seed), "--dimA", str(da), "--dimB", str(db), "--trials", "1"]
        runs = False
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if runs:
        rep = _strict(out.getvalue())
        assert code == 0 and sum(map(sum, rep["counts"])) == trials
    else:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("invalid input: ")
        assert err.getvalue().rstrip().endswith("too large to hold in memory")
