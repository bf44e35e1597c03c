"""The CLI's exit-code contract over structurally mutated input files.

Valid d=2 state, channel, tau, Choi state and ensemble files have one field replaced by
0, -1, 1e308, NaN, a string, null or a ragged list, or deleted; every
command that reads them must exit 0, 1, 2 or 3, let no exception escape and
print only strict JSON.  Everything runs in-process.
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
from qduality.duality import IsoPair, iso_forward
from qduality.qobjects import DensityOperator, Ensemble, KrausChannel, pure_state

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
