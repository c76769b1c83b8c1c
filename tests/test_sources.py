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


def _library_imports():
    """(where, top-level module) for every import in nlgen, one inside a
    function too, but a relative one within nlgen."""
    for path in sorted((ROOT / "src" / "nlgen").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # not an import, or a relative one within nlgen
                continue
            for name in names:
                yield f"{path.name}:{node.lineno}: {name}", \
                    name.partition(".")[0]


def test_library_imports_only_the_standard_library():
    # nlgen is a stdlib-only library: every import in it names a standard
    # module or nlgen itself.
    allowed = sys.stdlib_module_names | {"nlgen"}
    imported = set()
    for where, top in _library_imports():
        assert top in allowed, where
        imported.add(top)
    assert {"json", "decimal"} <= imported


def test_library_keeps_no_ambient_state():
    # Per-call state, such as what a plan file has declared so far, is
    # passed to the code that reads it, never kept where another call
    # could see it: nlgen imports nothing for context variables, threads,
    # processes or event loops.
    ambient = {"contextvars", "threading", "multiprocessing", "concurrent",
               "asyncio"}
    assert [where for where, top in _library_imports()
            if top in ambient] == []


def test_every_perfbench_instrument_records_calls():
    # perfbench times layers by replacing the module attributes listed in
    # its INSTRUMENTS.  A function renamed, inlined or called other than
    # through its module global would silently drop out of its layer; a
    # fluent patient_report run through the library, the staged codecs and
    # the CLI calls every one of them.
    import importlib.util

    import nlgen
    import oracle
    from conftest import run_cli

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    demo = ROOT / "src" / "nlgen" / "data" / "demo"
    schema_path = demo / "patient_report.schema"
    data_path = demo / "patient_report.json"
    before = tracing.originals()
    with tracing.Tracer() as tracer:
        parsed = nlgen.parse_schema(schema_path.read_text(encoding="utf-8"))
        data = nlgen.load_data(data_path.read_text(encoding="utf-8"))
        text = nlgen.generate_text(parsed, data, "fluent")
        traversed = nlgen.traverse(parsed, data)
        assert nlgen.validate(traversed) == []  # as for a plan built by hand
        plan = nlgen.document_plan_from_json(
            nlgen.document_plan_to_json(traversed))
        plans = nlgen.sentence_plans_from_json(nlgen.sentence_plans_to_json(
            nlgen.plan_sentences(plan, "fluent")))
        assert nlgen.realize_document(plans) == text
        code, out, _ = run_cli(["generate", "--schema", str(schema_path),
                                "--data", str(data_path)])
        assert (code, out) == (0, text + "\n")
    assert tracing.originals() == before
    called = {name for (_, name), stat in tracer.stats.items() if stat[0]}
    names = [instrument[0] for instrument in tracing.INSTRUMENTS]
    assert len(names) == 22
    assert [name for name in names if name not in called] == []
    # A template of literals keeps its message, and each emit node visited
    # still calls instantiate_template once: visit_note's two, both all
    # literals, on each of three traversals.
    note = nlgen.parse_schema((demo / "visit_note.schema").read_text(
        encoding="utf-8"))
    note_data = nlgen.load_data((demo / "visit_note.json").read_text(
        encoding="utf-8"))
    with tracing.Tracer() as tracer:
        for _ in range(3):
            plan = nlgen.traverse(note, note_data)
            assert len(nlgen.ir.plan_leaves(plan)) == 2
    assert tracer.stats["", "schema.instantiate_template"][0] == 6
    assert tracer.stats["", "schema.traverse"][0] == 3
    # Each arc tried still calls eval_condition once, as the previous
    # traversal, kept in tests/oracle.py, did.
    counts = []
    for traverse in (nlgen.traverse, oracle.previous_traverse):
        with tracing.Tracer() as tracer:
            traverse(parsed, data)
        counts.append(tracer.stats["", "schema.eval_condition"][0])
    assert counts[0] == counts[1] > 0


def test_no_nested_function_refers_to_its_own_name():
    # A nested function that calls itself holds itself through its closure
    # cell, so every call of the function around it leaves a reference
    # cycle that only the cyclic collector frees (tests/test_cycles.py
    # checks the same at run time).  Such a walk is a module-level
    # function or a loop over an explicit stack.
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for path in sorted((ROOT / "src" / "nlgen").rglob("*.py")):
        for outer in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if not isinstance(outer, functions):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, functions) and \
                        any(isinstance(node, ast.Name) and
                            node.id == inner.name for node in ast.walk(inner)):
                    found.append(f"{path.name}:{inner.lineno}: {inner.name}")
    assert found == []
