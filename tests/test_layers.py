import io
import tokenize
from pathlib import Path

import qduality

SRC = Path(qduality.__file__).parent

# the fixed-point algebra sits below the duality, its applications and the CLI;
# the probability rule's home is a leaf that qobjects and correlations both import
FORBIDDEN = {
    "fixedpoints.py": {"duality", "witnesses", "cli"},
    "classical.py": {p.stem for p in SRC.glob("*.py")} - {"classical", "tolerances", "errors"},
}


def _imported_modules(path):
    """Names of the package modules a source file imports, with their lines.

    Reads `from .m import ...`, `from . import m, ...`, `from qduality.m
    import ...`, `from qduality import m` and `import qduality.m`.
    """
    found = []
    line = []
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            words = [t.string for t in line if t.type in (tokenize.NAME, tokenize.OP)]
            if words[:1] in (["from"], ["import"]):
                found += [(n, line[0].start[0]) for n in _modules(words)]
            line = []
        elif tok.type not in (tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT):
            line.append(tok)
    return found


def _modules(words):
    if words[0] == "import":
        # import qduality.m [as x], ...
        names = " ".join(words[1:]).replace(" . ", ".").split(" , ")
        return [n.split()[0].split(".")[1] for n in names if n.startswith("qduality.")]
    cut = words.index("import")
    source = "".join(words[1:cut])
    # the names before each comma, without an `as` alias
    parts = " ".join(w for w in words[cut + 1 :] if w not in ("(", ")")).split(",")
    imported = [part.split()[0] for part in parts if part.strip()]
    if source in (".", "qduality"):
        return imported
    if source.startswith("."):
        return [source[1:].split(".")[0]]
    if source.startswith("qduality."):
        return [source.split(".")[1]]
    return []


def test_layered_modules_import_no_module_above_them():
    found = [
        f"{name}:{line} {m}"
        for name, forbidden in FORBIDDEN.items()
        for m, line in _imported_modules(SRC / name)
        if m in forbidden
    ]
    assert found == [], (
        "fixedpoints holds the algebra only, and classical, the probability rule's "
        "home, imports no package module but tolerances and errors"
    )


def test_scan_finds_package_imports(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import numpy as np\n"
        "from . import linalg, cli\n"
        "# from .duality import iso_forward\n"
        "from .duality import (\n    IsoPair,\n)\n"
        "def f():\n    from qduality import witnesses as w\n"
        "import qduality.serialize\n"
        "s = 'from .cli import main'\n"
    )
    assert _imported_modules(path) == [
        ("linalg", 2), ("cli", 2), ("duality", 4), ("witnesses", 8), ("serialize", 9)
    ]
