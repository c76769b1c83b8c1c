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
