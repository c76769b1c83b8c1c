import ast
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_invalid_escapes_in_string_literals():
    # An invalid escape such as "\d" in a regex literal warns at compile
    # time (SyntaxWarning from 3.12, DeprecationWarning before); as an
    # error it is a SyntaxError naming the file and line.
    sources = [path for folder in ("src", "tests", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert sources
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in sources:
            compile(path.read_bytes(), str(path), "exec")


def test_library_imports_only_the_standard_library():
    # nlgen is a stdlib-only library: every import in it, one inside a
    # function too, names a standard module or nlgen itself.
    allowed = sys.stdlib_module_names | {"nlgen"}
    imported = set()
    for path in sorted((ROOT / "src" / "nlgen").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # not an import, or a relative one within nlgen
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in allowed, f"{path.name}:{node.lineno}: {name}"
                imported.add(top)
    assert {"json", "decimal"} <= imported
