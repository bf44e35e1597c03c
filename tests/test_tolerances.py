import ast
import functools
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import qduality

SRC = Path(qduality.__file__).parent

# randomgen's `+ 1e-3` keeps every random diagonal POVM weight away from zero:
# a parameter of the random draw, not a threshold that decides anything
EXEMPT = {("randomgen.py", "1e-3")}


def _small_literals(path):
    """Float literals with a negative exponent (1e-9, 2.5E-3) in a source file."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
    return [
        (tok.string, tok.start[0])
        for tok in tokens
        if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string)
    ]


def test_thresholds_are_named_only_in_tolerances():
    found = {
        (path.name, literal, line)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tolerances.py"
        for literal, line in _small_literals(path)
    }
    bare = sorted(f"{n}:{line}: {lit}" for n, lit, line in found if (n, lit) not in EXEMPT)
    assert bare == [], "name these in qduality.tolerances"
    # an exemption with nothing left to exempt goes too
    assert {(name, lit) for name, lit, _ in found} == EXEMPT


@pytest.mark.parametrize(
    "module, name",
    [
        ("classical", "SUM_TOL"),
        ("classical", "_check_distribution"),
        ("classical", "JointDistribution"),
        ("classical", "JointTable.m_marginal"),
        ("correlations", "checked_probs"),
        ("correlations", "TABLE_TOL"),
        ("duality", "TP_ON_SUPPORT_TOL"),
        ("fixedpoints", "NULL_TOL"),
        ("fixedpoints", "FIX_TOL"),
        ("fixedpoints", "BLOCK_TOL"),
        ("fixedpoints", "CLUSTER_TOL"),
        ("linalg", "HERM_TOL"),
        ("linalg", "PSD_TOL"),
        ("linalg", "RANK_TOL_FACTOR"),
        ("linalg", "RANK_TOL_FLOOR"),
        ("qobjects", "TRACE_TOL"),
        ("qobjects", "TP_TOL"),
        ("qobjects", "ZERO_PROB"),
        ("cli", "_VERIFY_DEFAULT_TOL"),
        ("tolerances", "RANK_TOL_FACTOR"),
        ("tolerances", "RANK_TOL_FLOOR"),
        ("tolerances", "WORST_TRIAL_FLOOR"),
        ("tolerances", "DISTRIBUTION_TOL"),
        ("tolerances", "TABLE_TOL"),
        ("", "JointDistribution"),
    ],
)
def test_former_tolerance_names_are_gone(module, name):
    # one spelling per threshold, and one rule and one joint-table type for
    # "nonnegative and sums to 1": the old names are not re-exported
    *owner, last = name.split(".")
    path = "qduality" + (f".{module}" if module else "")
    assert not hasattr(functools.reduce(getattr, owner, importlib.import_module(path)), last)


def _tol_reads(path):
    """Names read as tol.NAME in a source file."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "tol"
    }


def test_every_threshold_is_read():
    # a rule deleted without its threshold leaves the threshold behind: fail on it
    tree = ast.parse((SRC / "tolerances.py").read_text(encoding="utf-8"))
    defined = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
    }
    verify = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "VERIFY_TOL"
    )
    read = {value.id for value in verify.values}
    for path in SRC.glob("*.py"):
        read |= _tol_reads(path)
    assert sorted(defined - read) == []
