"""One benchmark process: runs in a fresh interpreter started by run.py.

    worker.py setup MANIFEST              time set-up only
    worker.py run MANIFEST SECONDS        untraced in-process workload
    worker.py trace MANIFEST SECONDS      traced in-process workload
    worker.py cli MANIFEST SECONDS        untraced cli_batch workload
    worker.py cli-trace MANIFEST SECONDS  traced cli_batch workload
    worker.py nlgen TRACE PHASE ARGS...   ``nlgen ARGS`` with spans on

The last line of standard output is a JSON object.  Every mode but the
last generates its load from this one thread: the next document starts
only when the previous one has returned.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402  (after the path set-up above)
from calibrate import Calibration  # noqa: E402

# One cycle of a run: timed blocks of each kind, alternating.
DIRECT_BLOCK_S = 0.1   # generate_text
STAGE_BLOCK_S = 0.05   # the staged path
CALIBRATION_BLOCK_S = 0.025
TRACE_BLOCK_S = 0.5    # traced runs: untraced and traced blocks alternate
SETUP_SAMPLES = 5      # fresh processes timed for setup_s
CLI_TRACED_RUNS = 3    # traced --batch runs per in-process traced run


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run(cmd: list[str], stdin: str | None):
    start = time.perf_counter()
    done = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                          env=_env(), timeout=120)
    return time.perf_counter() - start, done


def _nlgen(args: list[str],
           stdin: str | None = None) -> tuple[float, str | None]:
    """Run ``python -m nlgen ARGS``; (wall seconds, stdout, or None if
    the process failed)."""
    wall, done = _run([sys.executable, "-m", "nlgen", *args], stdin)
    return wall, done.stdout if done.returncode == 0 else None


def _process(cmd: list[str], stdin: str | None = None) -> tuple[float, str]:
    """Run one of the benchmark's own processes, which must succeed."""
    wall, done = _run(cmd, stdin)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return wall, done.stdout


def _traced_nlgen(trace: Path, phase: str, args: list[str],
                  stdin: str | None = None) -> tuple[float, str, dict]:
    """``nlgen ARGS`` in a traced process; (wall, stdout, its trace: the
    tracer's summary and kept spans)."""
    wall, out = _process([sys.executable, str(Path(__file__)), "nlgen",
                          str(trace), phase, *args], stdin)
    with open(trace, encoding="utf-8") as fh:
        return wall, out, json.load(fh)


class Timed:
    """Timed blocks of work.

    A block is (wall seconds, per-document seconds).  In-process runs
    follow each block with a calibration block, and ``calibrated(speed)``
    gives every block since the previous call the machine speed measured
    right after it (calibrate.py).
    """

    def __init__(self):
        self.blocks: list[tuple[float, list[float]]] = []
        self.speeds: list[float] = []

    def calibrated(self, speed: float) -> None:
        self.speeds += [speed] * (len(self.blocks) - len(self.speeds))

    @property
    def count(self) -> int:
        return sum(len(lat) for _, lat in self.blocks)

    def rate(self, normalized: bool = False) -> float:
        speeds = self.speeds if normalized else [1.0] * len(self.blocks)
        return self.count / sum(w * s for (w, _), s in
                                zip(self.blocks, speeds))

    def latencies(self, normalized: bool = False) -> list[float]:
        speeds = self.speeds if normalized else [1.0] * len(self.blocks)
        return [x * s for (_, lat), s in zip(self.blocks, speeds)
                for x in lat]


class Caller(Timed):
    """A closed-loop caller cycling through ``docs`` in order.

    ``call(doc)`` returns the document's text; a text that differs from
    ``refs[i]``, or a call that raises, counts as failed.
    """

    def __init__(self, docs: list, refs: list, call, tracer=None):
        super().__init__()
        self.docs, self.refs, self.call = docs, refs, call
        self.tracer = tracer
        self.pos = 0
        self.failed = 0
        self.first_failure = ""

    def run_for(self, seconds: float) -> None:
        latencies = []
        begin = time.perf_counter()
        end = begin + seconds
        while True:
            i = self.pos % len(self.docs)
            if self.tracer is not None:
                self.tracer.doc = self.pos
            self.pos += 1
            start = time.perf_counter()
            try:
                text = self.call(self.docs[i])
            except Exception as exc:  # counted as a failed document
                text = f"{type(exc).__name__}: {exc}"
            stop = time.perf_counter()
            latencies.append(stop - start)
            if text != self.refs[i]:
                self.failed += 1
                self.first_failure = self.first_failure or \
                    f"document {i}: {str(text)[:200]!r}"
            if stop >= end:
                break
        self.blocks.append((time.perf_counter() - begin, latencies))


# ---------------------------------------------------------------------------
# In-process workloads


def setup(manifest: dict):
    """Import nlgen, load the default lexicon and parse every schema and
    data file; (seconds, nlgen module, parsed schemas, parsed data)."""
    start = time.perf_counter()
    import nlgen
    nlgen.default_lexicon()
    schemas, data = {}, {}
    for doc in manifest["docs"]:
        if doc["schema"] not in schemas:
            schemas[doc["schema"]] = nlgen.parse_schema(
                Path(doc["schema"]).read_text(encoding="utf-8"))
        if doc["data"] not in data:
            data[doc["data"]] = nlgen.load_data(
                Path(doc["data"]).read_text(encoding="utf-8"))
    return time.perf_counter() - start, nlgen, schemas, data


def _references(nlgen, manifest, schemas, data) -> tuple[list, list, list]:
    """Per document: (schema, data, profile) and the text it must equal;
    and the problems found.

    A fluent document without an expected text is checked once by the
    oracles in check.py; its verified text is then the reference for
    every later output.  A document the oracles reject keeps a reference
    no output can equal, so every attempt at it counts as failed.
    """
    docs, refs, problems = [], [], []
    for doc in manifest["docs"]:
        args = (schemas[doc["schema"]], data[doc["data"]], doc["profile"])
        docs.append(args)
        expect = doc["expect"]
        if "text" in expect:
            refs.append(expect["text"])
            continue
        plans = nlgen.plan_sentences(nlgen.traverse(*args[:2]), args[2])
        text = nlgen.realize_document(plans)
        plain = nlgen.generate_text(*args[:2], "plain")
        found = check.oracle_problems(plans, text, plain, expect)
        problems += [f"{doc['data']}: {p}" for p in found]
        refs.append(None if found else text)
    return docs, refs, problems


def _direct(nlgen):
    def call(doc):
        return nlgen.generate_text(*doc)
    return call


def _staged(nlgen):
    """What ``nlgen plan | nlgen sentplan | nlgen realize`` computes,
    through the same module attributes the CLI calls, minus process
    start."""
    def call(doc):
        schema_def, data, profile = doc
        plan = nlgen.schema.traverse(schema_def, data)
        plan = nlgen.ir.document_plan_from_json(
            nlgen.ir.document_plan_to_json(plan))
        plans = nlgen.sentplan.plan_sentences(plan, profile)
        plans = nlgen.ir.sentence_plans_from_json(
            nlgen.ir.sentence_plans_to_json(plans))
        return nlgen.realize.realize_document(plans)
    return call


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _result(callers: list, extra_problems: list) -> dict:
    failed = sum(c.failed for c in callers)
    attempted = sum(c.count for c in callers)
    notes = [c.first_failure for c in callers if c.first_failure]
    return {"attempted": attempted, "failed": failed,
            "problems": extra_problems + notes}


def _setup_probe(manifest: dict) -> float:
    _, out = _process([sys.executable, str(Path(__file__)), "setup",
                       str(Path(manifest["root"]) / "manifest.json")])
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def _metrics(doc: Timed, stage: Timed, setups: Timed, rss: float,
             per_doc: float, normalized: bool) -> dict:
    """The end-to-end metrics; ``per_doc`` divides each sample of ``doc``
    into per-document times (the files of one --batch process)."""
    lat = [x / per_doc * 1e3 for x in doc.latencies(normalized)]
    return {
        "docs_per_s": doc.rate(normalized),
        "doc_p50_ms": statistics.median(lat),
        "doc_p90_ms": _percentile(lat, 90),
        "stage_docs_per_s": stage.rate(normalized),
        "setup_s": statistics.median(setups.latencies(normalized)),
        "peak_rss_mb": rss,
    }


def _report(out: dict, doc: Timed, stage: Timed, setups: Timed,
            rss: float, cal: Calibration | None = None,
            per_doc: float = 1) -> dict:
    raw = _metrics(doc, stage, setups, rss, per_doc, False)
    out.update(raw=raw, samples={"doc": doc.count, "stage": stage.count,
                                 "setup": setups.count})
    if cal is None:
        out["metrics"] = raw
    else:
        out.update(metrics=_metrics(doc, stage, setups, rss, per_doc, True),
                   speed=cal.speed)
    return out


def run_inprocess(manifest: dict, seconds: float) -> dict:
    cal, setups = Calibration(), Timed()
    setup_s, nlgen, schemas, data = setup(manifest)
    setups.blocks.append((setup_s, [setup_s]))
    for _ in range(SETUP_SAMPLES - 1):
        probe = _setup_probe(manifest)
        setups.blocks.append((probe, [probe]))
        setups.calibrated(cal.run_for(CALIBRATION_BLOCK_S))
    docs, refs, problems = _references(nlgen, manifest, schemas, data)
    direct = Caller(docs, refs, _direct(nlgen))
    staged = Caller(docs, refs, _staged(nlgen))
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        direct.run_for(DIRECT_BLOCK_S)
        staged.run_for(STAGE_BLOCK_S)
        speed = cal.run_for(CALIBRATION_BLOCK_S)
        direct.calibrated(speed)
        staged.calibrated(speed)
    return _report(_result([direct, staged], problems), direct, staged,
                   setups, _peak_rss_mb(), cal)


def trace_inprocess(manifest: dict, seconds: float) -> dict:
    import layers
    from tracing import Tracer, originals

    before = originals()
    tracer = Tracer()
    with tracer:
        tracer.phase = "setup"
        _, nlgen, schemas, data = setup(manifest)
    docs, refs, problems = _references(nlgen, manifest, schemas, data)
    untraced = Caller(docs, refs, _direct(nlgen))
    traced = Caller(docs, refs, _direct(nlgen), tracer)
    staged = Caller(docs, refs, _staged(nlgen), tracer)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        untraced.run_for(TRACE_BLOCK_S)
        with tracer:
            tracer.phase = "doc"
            traced.run_for(TRACE_BLOCK_S)
            tracer.phase = "stage"
            staged.run_for(TRACE_BLOCK_S / 2)
    if originals() != before:
        problems.append("a wrapped nlgen attribute was not restored")

    # The CLI over this workload's batch directory, in traced processes.
    batch = manifest["batch"]
    verified = {doc["data"]: ref for doc, ref in zip(manifest["docs"], refs)
                if doc["profile"] == "fluent"}
    cli_runs = []
    for _ in range(CLI_TRACED_RUNS):
        cli_runs.append(_traced_nlgen(
            Path(manifest["root"]) / "trace-cli.json", "cli",
            ["generate", "--schema", batch["schema"],
             "--batch", batch["dir"]])[2])
        problems += _batch_problems(batch, verified)
    result = _result([untraced, traced, staged], problems)
    result["attempted"] += CLI_TRACED_RUNS * len(batch["expected"])
    result["layers"] = layers.compute(
        [tracer.summary()] + [run["summary"] for run in cli_runs],
        docs=traced.count, stage_docs=staged.count, basis="setup", runs=1,
        batch_phase="cli", untraced_rate=untraced.rate(),
        traced_rate=traced.rate())
    result["layers"].update(layers.probes(manifest, SRC))
    result["spans"] = tracer.spans + [s for run in cli_runs
                                      for s in run["spans"]]
    return result


def _batch_problems(batch: dict, verified: dict) -> list[str]:
    """Compare each .txt written by ``generate --batch`` with its
    reference, then delete it."""
    problems = []
    for data_path, expected in batch["expected"].items():
        expected = verified.get(data_path) if expected is None else expected
        out = Path(data_path).with_suffix(".txt")
        try:
            text = out.read_text(encoding="utf-8")
            out.unlink()
        except OSError as exc:
            problems.append(f"{out.name}: {exc}")
            continue
        if expected is None or text != expected + "\n":
            problems.append(f"{out.name}: output differs from reference")
    return problems


# ---------------------------------------------------------------------------
# cli_batch: one nlgen process at a time


class _Runs(Timed):
    """Wall times of whole nlgen processes, one block each, with the
    documents they produced."""

    def __init__(self):
        super().__init__()
        self.docs = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, wall: float, docs: int, problems: list[str]) -> None:
        self.blocks.append((wall, [wall]))
        self.docs += docs
        self.failed += min(len(problems), docs)
        self.problems += problems[:3]

    def rate(self, normalized: bool = False) -> float:
        return self.docs / sum(wall for wall, _ in self.blocks)


def _pipeline(doc: dict, traced_dir: Path | None = None):
    """``nlgen plan | nlgen sentplan | nlgen realize`` for one document,
    one process after another; (wall, text, trace of each process)."""
    steps = [["plan", "--schema", doc["schema"], "--data", doc["data"]],
             ["sentplan", "--plan", "-", "--profile", doc["profile"]],
             ["realize", "--sentences", "-"]]
    wall, text, traces = 0.0, None, []
    for args in steps:
        if traced_dir is None:
            step_wall, text = _nlgen(args, text)
            if text is None:
                break
        else:
            step_wall, text, trace = _traced_nlgen(
                traced_dir / "trace-stage.json", "stage", args, text)
            traces.append(trace)
        wall += step_wall
    return wall, text, traces


def _check_one(text: str | None, expected: str, name: str) -> list[str]:
    return [] if text == expected + "\n" else [f"{name}: output differs"]


def run_cli(manifest: dict, seconds: float, traced: bool = False) -> dict:
    """cli_batch.  Its timings are not calibrated: the wall time of one
    ``--batch`` process varied by 14% (coefficient of variation) from one
    process to the next, and scaling by calibration blocks run just before
    and after each process left that unchanged."""
    batch = manifest["batch"]
    docs = manifest["docs"]
    files = len(batch["expected"])
    gen = ["generate", "--schema", batch["schema"], "--batch", batch["dir"]]
    runs, traced_runs, stages, setups = _Runs(), _Runs(), _Runs(), _Runs()
    for doc in docs[:SETUP_SAMPLES] if not traced else ():
        wall, out = _nlgen(["generate", "--schema", doc["schema"],
                            "--data", doc["data"]])
        setups.add(wall, 1, _check_one(out, doc["expect"]["text"],
                                       doc["data"]))
    root = Path(manifest["root"])
    traces, n = [], 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        wall, _ = _nlgen(gen)
        runs.add(wall, files, _batch_problems(batch, {}))
        doc = docs[n % len(docs)]
        n += 1
        if traced:
            wall, _, trace = _traced_nlgen(root / "trace-batch.json", "doc",
                                           gen)
            traces.append(trace)
            traced_runs.add(wall, files, _batch_problems(batch, {}))
            wall, text, stage_traces = _pipeline(doc, root)
            traces += stage_traces
        else:
            wall, text, _ = _pipeline(doc)
        stages.add(wall, 1, _check_one(text, doc["expect"]["text"],
                                       doc["data"]))
    parts = [runs, traced_runs, stages, setups]
    out = {"attempted": sum(p.docs for p in parts),
           "failed": sum(p.failed for p in parts),
           "problems": sum((p.problems for p in parts), [])}
    if not traced:
        return _report(out, runs, stages, setups,
                       _peak_rss_mb(resource.RUSAGE_CHILDREN), per_doc=files)
    import layers
    out["layers"] = layers.compute(
        [t["summary"] for t in traces], docs=traced_runs.docs,
        stage_docs=stages.docs, basis="doc", runs=traced_runs.count,
        batch_phase="doc", untraced_rate=runs.rate(),
        traced_rate=traced_runs.rate())
    out["layers"].update(layers.probes(manifest, SRC))
    out["spans"] = [s for t in traces for s in t["spans"]]
    return out


def traced_nlgen(trace_path: str, phase: str, args: list[str]) -> int:
    """Run the nlgen CLI in this process with every span wrapper on, then
    write the tracer's summary and kept spans to ``trace_path``."""
    sys.path.insert(0, str(SRC))
    from tracing import Tracer

    import nlgen.cli
    tracer = Tracer()
    tracer.phase = phase
    with tracer:
        code = nlgen.cli.main(args)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"summary": tracer.summary(), "spans": tracer.spans}, fh)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "nlgen":
        return traced_nlgen(argv[1], argv[2], argv[3:])
    sys.path.insert(0, str(SRC))
    manifest = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    seconds = float(argv[2]) if len(argv) > 2 else 0.0
    if mode == "setup":
        result = {"setup_s": setup(manifest)[0]}
    elif mode == "run":
        result = run_inprocess(manifest, seconds)
    elif mode == "trace":
        result = trace_inprocess(manifest, seconds)
    elif mode == "cli":
        result = run_cli(manifest, seconds)
    elif mode == "cli-trace":
        result = run_cli(manifest, seconds, traced=True)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if "spans" in result:
        from tracing import write_spans
        write_spans(result.pop("spans"), Path(manifest["out"]) /
                    f"spans-{manifest['workload']}.jsonl.gz")
        result["growth"] = result["layers"].pop("growth_table")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
