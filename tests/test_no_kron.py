import io
import tokenize
from pathlib import Path

import qduality

SRC = Path(qduality.__file__).parent


def _kron_calls(path):
    """Lines of the source file that call a name or attribute `kron`."""
    tokens = [
        tok
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT)
    ]
    return [
        tok.start[0]
        for tok, nxt in zip(tokens, tokens[1:])
        if tok.type == tokenize.NAME and tok.string == "kron" and nxt.string == "("
    ]


def test_source_calls_no_kron():
    # Kronecker products are formed by broadcasting, or never: np.kron's
    # d^2 x d^2 results are what the factor paths avoid
    found = [f"{p.name}:{line}" for p in sorted(SRC.glob("*.py")) for line in _kron_calls(p)]
    assert found == [], "form products by broadcasting, as linalg.tensor does"


def test_scan_finds_a_kron_call(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import numpy as np\n# np.kron(a, b) in a comment\nx = np.kron(\n    a, b)\ny = 'kron(a)'\nz = kron (a, b)\n")
    assert _kron_calls(path) == [3, 6]
