"""Spans around nlgen's public functions, recorded from outside the program.

nlgen's modules call each other's functions through module globals looked
up at call time (``ir.validate(...)``, ``aggregate(...)``, ``verb_form``
as imported into ``realize``), so replacing a module attribute with a
timing wrapper puts a span at that layer boundary without editing the
program.  Untraced runs install no wrapper.

A span is (id, name, start, end, parent, doc, thread, size, phase).
``parent`` is the innermost open span of the same thread; a thread with
no open span (a pool thread of ``nlgen generate --batch``) hangs under the
innermost span open on the thread that installed the tracer.  ``size``
is a count taken from the result where one is named in INSTRUMENTS:
messages planned, clauses, tokens, characters or JSON bytes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time


def _leaves(plan) -> int:
    import nlgen.ir
    return len(nlgen.ir.plan_leaves(plan))


def _clauses(plans) -> int:
    return sum(len(sp.clauses) for sp in plans)


def _utf8(text) -> int:
    return len(text.encode("utf-8"))


# (span name, function, modules whose attribute is replaced, result count)
INSTRUMENTS = (
    ("schema.parse_schema", "parse_schema",
     ("nlgen", "nlgen.schema"), None),
    ("schema.load_data", "load_data", ("nlgen", "nlgen.schema"), None),
    ("schema.traverse", "traverse", ("nlgen", "nlgen.schema"), _leaves),
    ("schema.eval_condition", "eval_condition",
     ("nlgen", "nlgen.schema"), None),
    ("schema.instantiate_template", "instantiate_template",
     ("nlgen", "nlgen.schema"), None),
    ("ir.validate", "validate", ("nlgen", "nlgen.ir"), None),
    ("ir.document_plan_to_json", "document_plan_to_json",
     ("nlgen", "nlgen.ir"), _utf8),
    ("ir.document_plan_from_json", "document_plan_from_json",
     ("nlgen", "nlgen.ir"), None),
    ("ir.sentence_plans_to_json", "sentence_plans_to_json",
     ("nlgen", "nlgen.ir"), _utf8),
    ("ir.sentence_plans_from_json", "sentence_plans_from_json",
     ("nlgen", "nlgen.ir"), None),
    ("sentplan.plan_sentences", "plan_sentences",
     ("nlgen", "nlgen.sentplan"), _clauses),
    ("sentplan.aggregate", "aggregate", ("nlgen", "nlgen.sentplan"), len),
    ("sentplan.insert_discourse_markers", "insert_discourse_markers",
     ("nlgen", "nlgen.sentplan"), None),
    ("sentplan.pronominalize", "pronominalize",
     ("nlgen", "nlgen.sentplan"), None),
    ("realize.realize_document", "realize_document",
     ("nlgen", "nlgen.realize"), len),
    ("realize.realize_sentence", "realize_sentence",
     ("nlgen", "nlgen.realize"), len),
    ("realize.orthography", "orthography", ("nlgen", "nlgen.realize"), None),
    ("lexicon.default_lexicon", "default_lexicon",
     ("nlgen", "nlgen.lexicon", "nlgen.realize", "nlgen.cli"), None),
    ("lexicon.verb_form", "verb_form", ("nlgen.realize",), None),
    ("lexicon.pronoun", "pronoun", ("nlgen.realize",), None),
    ("cli.main", "main", ("nlgen.cli",), None),
    ("cli.generate_one", "_generate_one", ("nlgen.cli",), None),
)

# cli._generate_one(args, schema_path, data_path, lex): one document each.
_DOC_ARG = {"cli.generate_one": 2}


# Spans kept in memory for the spans file; every span counts in the stats.
SPAN_CAP = 100_000
# Span names whose every duration is kept.
_KEEP_DURATIONS = ("cli.main",)


class Tracer:
    """Installs span wrappers, aggregates spans as they end, keeps the
    first SPAN_CAP of them for the spans file, restores on exit.

    ``stats`` maps (phase, name) to [calls, seconds, self seconds, summed
    result counts], ``first`` to the duration of the first call, and
    ``durations`` to every duration for the names in _KEEP_DURATIONS.
    Self time subtracts the time of child spans on the same thread;
    children on other threads (the --batch pool under ``cli.main``) run
    in parallel with it and are not subtracted.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats: dict[tuple[str, str], list] = {}
        self.first: dict[tuple[str, str], float] = {}
        self.durations: dict[tuple[str, str], list[float]] = {}
        self.phase = ""
        self.doc: object = None
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[list]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home = threading.get_ident()
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, count):
        tracer = self
        doc_arg = _DOC_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            home = tracer._stacks.get(tracer._home)
            caller = stack[-1] if stack else None
            parent = caller[0] if caller else (home[-1][0] if home else None)
            if doc_arg is not None:
                tracer._local.doc = args[doc_arg]
            doc = getattr(tracer._local, "doc", tracer.doc) \
                if tid != tracer._home else tracer.doc
            frame = [next(tracer._ids), 0.0]  # id, child seconds
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if caller is not None:
                    caller[1] += end - start
            size = count(result) if count is not None else None
            tracer._record((frame[0], name, start, end, parent, doc, tid,
                            size, tracer.phase), end - start - frame[1])
            return result

        return traced

    def _record(self, span: tuple, self_s: float) -> None:
        name, start, end, size, phase = span[1], span[2], span[3], span[7], \
            span[8]
        with self._lock:
            stat = self.stats.setdefault((phase, name), [0, 0.0, 0.0, 0])
            stat[0] += 1
            stat[1] += end - start
            stat[2] += self_s
            stat[3] += size or 0
            self.first.setdefault((phase, name), end - start)
            if name in _KEEP_DURATIONS:
                self.durations.setdefault((phase, name), []).append(
                    end - start)
            if len(self.spans) < SPAN_CAP:
                self.spans.append(span)

    def summary(self) -> dict:
        """The aggregates, in a JSON-ready form."""
        return {"stats": [[*key, *stat] for key, stat in self.stats.items()],
                "first": [[*key, d] for key, d in self.first.items()],
                "durations": [[*key, d] for key, d in
                              self.durations.items()]}

    def install(self) -> "Tracer":
        for name, attr, modules, count in INSTRUMENTS:
            original = getattr(importlib.import_module(modules[-1]), attr)
            wrapper = self._wrap(name, original, count)
            for module_name in modules:
                module = importlib.import_module(module_name)
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        return self

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def write_spans(spans, path) -> None:
    """Write spans as gzipped JSON lines, one object per span."""
    keys = ("id", "name", "start", "end", "parent", "doc", "thread", "size",
            "phase")
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span)),
                                separators=(",", ":")) + "\n")


def originals() -> dict[tuple[str, str], object]:
    """Current value of every attribute INSTRUMENTS replaces."""
    out = {}
    for _, attr, modules, _ in INSTRUMENTS:
        for module_name in modules:
            module = importlib.import_module(module_name)
            out[(module_name, attr)] = getattr(module, attr)
    return out
