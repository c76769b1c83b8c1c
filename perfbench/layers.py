"""Per-layer metrics of a traced run.

Most come from spans (tracing.py): per document, per run of set-up or
``--batch``, or per call.  Two come from probes that time public
functions directly with tracing off: process start, and the growth sweeps
that fit how ``traverse``, ``plan_sentences`` and ``realize_document``
scale with schema width and document length.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

START_PROBES = 5
SWEEP_REPEATS = 5
SWEEP_BUDGET_S = 0.25

# Spans timed per document: (metric, span name, phase, use self time).
_PER_DOC_MS = (
    ("schema.traverse.ms", "schema.traverse", "doc", False),
    ("schema.traverse.self_ms", "schema.traverse", "doc", True),
    ("schema.eval_condition.self_ms", "schema.eval_condition", "doc", True),
    ("schema.instantiate_template.self_ms", "schema.instantiate_template",
     "doc", True),
    ("ir.validate.ms", "ir.validate", "doc", False),
    ("ir.document_plan_to_json.ms", "ir.document_plan_to_json", "stage",
     False),
    ("ir.document_plan_from_json.ms", "ir.document_plan_from_json", "stage",
     False),
    ("ir.sentence_plans_to_json.ms", "ir.sentence_plans_to_json", "stage",
     False),
    ("ir.sentence_plans_from_json.ms", "ir.sentence_plans_from_json",
     "stage", False),
    ("sentplan.plan_sentences.self_ms", "sentplan.plan_sentences", "doc",
     True),
    ("sentplan.aggregate.ms", "sentplan.aggregate", "doc", False),
    ("sentplan.insert_discourse_markers.ms",
     "sentplan.insert_discourse_markers", "doc", False),
    ("sentplan.pronominalize.ms", "sentplan.pronominalize", "doc", False),
    ("realize.realize_sentence.ms", "realize.realize_sentence", "doc",
     False),
    ("realize.orthography.ms", "realize.orthography", "doc", False),
)
_PER_DOC_CALLS = (
    ("schema.eval_condition.calls_per_doc", "schema.eval_condition"),
    ("ir.validate.calls_per_doc", "ir.validate"),
    ("lexicon.verb_form.calls_per_doc", "lexicon.verb_form"),
    ("lexicon.pronoun.calls_per_doc", "lexicon.pronoun"),
)


def compute(summaries: list[dict], docs: int, stage_docs: int, basis: str,
            runs: int, batch_phase: str, untraced_rate: float,
            traced_rate: float) -> dict:
    """Per-layer metrics from Tracer.summary() of each traced process.

    ``docs`` and ``stage_docs`` count the documents traced in the "doc"
    and "stage" phases; ``basis`` is the phase whose ``runs`` runs carry
    the per-run schema metrics and the first default_lexicon call
    ("setup" in-process, "doc" for cli_batch), and ``batch_phase`` the
    phase of the traced ``--batch`` processes.
    """
    ms = defaultdict(float)     # (phase, name) -> total duration, ms
    own = defaultdict(float)    # (phase, name) -> total self time, ms
    calls = defaultdict(int)    # (phase, name) -> calls
    sizes = defaultdict(int)    # (phase, name) -> summed result counts
    first_lexicon, cli_main = [], []
    for summary in summaries:
        for phase, name, n, seconds, self_s, size in summary["stats"]:
            key = (phase, name)
            calls[key] += n
            ms[key] += seconds * 1e3
            own[key] += self_s * 1e3
            sizes[key] += size
        first_lexicon += [d * 1e3 for phase, name, d in summary["first"]
                          if (phase, name) ==
                          (basis, "lexicon.default_lexicon")]
        cli_main += [d * 1e3 for phase, name, durations
                     in summary["durations"] for d in durations
                     if (phase, name) == (batch_phase, "cli.main")]
    out = {}
    for metric, name, phase, use_self in _PER_DOC_MS:
        per = docs if phase == "doc" else stage_docs
        out[metric] = (own if use_self else ms)[(phase, name)] / per
    for metric, name in _PER_DOC_CALLS:
        out[metric] = calls[("doc", name)] / docs
    out["schema.parse_schema.ms"] = ms[(basis, "schema.parse_schema")] / runs
    out["schema.parse_schema.calls"] = \
        calls[(basis, "schema.parse_schema")] / runs
    out["schema.load_data.ms"] = ms[(basis, "schema.load_data")] / runs
    messages = sizes[("doc", "schema.traverse")]
    out["schema.messages_per_doc"] = messages / docs
    out["sentplan.clauses_per_message"] = \
        sizes[("doc", "sentplan.plan_sentences")] / messages
    out["ir.json_bytes_per_doc"] = (
        sizes[("stage", "ir.document_plan_to_json")]
        + sizes[("stage", "ir.sentence_plans_to_json")]) / stage_docs
    out["realize.tokens_per_doc"] = \
        sizes[("doc", "realize.realize_sentence")] / docs
    out["realize.chars_per_doc"] = \
        sizes[("doc", "realize.realize_document")] / docs
    out["lexicon.default_lexicon.ms"] = statistics.median(first_lexicon)
    out["cli.main.ms"] = statistics.mean(cli_main)
    out["trace.overhead_ratio"] = untraced_rate / traced_rate
    return out


def _fastest(fn) -> float:
    """Fastest of at least SWEEP_REPEATS timed calls, and of as many as
    fit in SWEEP_BUDGET_S, after a warm-up call: the sweep measures how
    cost scales, so it takes the call least disturbed by the collector or
    by other processes."""
    fn()
    gc.collect()
    times: list[float] = []
    while len(times) < SWEEP_REPEATS or sum(times) < SWEEP_BUDGET_S:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)


def probes(manifest: dict, src: Path) -> dict:
    """Process start and the growth sweeps, all with tracing off."""
    import nlgen

    starts = []
    for _ in range(START_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nlgen"], check=True,
                       env=dict(os.environ, PYTHONPATH=str(src)),
                       timeout=60)
        starts.append((time.perf_counter() - start) * 1e3)

    def load(paths):
        schema_path, data_path = paths
        return (nlgen.parse_schema(Path(schema_path).read_text("utf-8")),
                nlgen.load_data(Path(data_path).read_text("utf-8")))

    table, traverse_pts, plan_pts, realize_pts = [], [], [], []
    for arcs, paths in manifest["growth"]["arcs"].items():
        schema_def, data = load(paths)
        t = _fastest(lambda: nlgen.traverse(schema_def, data))
        traverse_pts.append((int(arcs), t))
        table.append({"sweep": "arcs", "size": int(arcs),
                      "traverse_ms": t * 1e3})
    for count, paths in manifest["growth"]["messages"].items():
        plan = nlgen.traverse(*load(paths))
        plans = nlgen.plan_sentences(plan, "fluent")
        t_plan = _fastest(lambda: nlgen.plan_sentences(plan, "fluent"))
        t_real = _fastest(lambda: nlgen.realize_document(plans))
        plan_pts.append((int(count), t_plan))
        realize_pts.append((int(count), t_real))
        table.append({"sweep": "messages", "size": int(count),
                      "plan_sentences_ms": t_plan * 1e3,
                      "realize_document_ms": t_real * 1e3})
    return {
        "cli.process_start_ms": statistics.median(starts),
        "schema.traverse.growth_exp": _exponent(traverse_pts),
        "sentplan.growth_exp": _exponent(plan_pts),
        "realize.growth_exp": _exponent(realize_pts),
        "growth_table": table,
    }
