"""Command-line driver for the generation pipeline.

Subcommands mirror the pipeline stages:

    nlgen generate  --schema S (--data D | --batch DIR) [--profile P] ...
    nlgen plan      --schema S --data D
    nlgen sentplan  --plan P [--profile fluent|plain]
    nlgen realize   --sentences F [--lexicon L]

plan/sentplan/realize read and write the canonical JSON serializations,
so their composition is byte-identical to generate.  "-" reads a stage
input from stdin, for one input flag at most.  generate takes exactly one
of --data and --batch.
Generated text is the only stdout content.  Every failure, a bad argument
included, leaves through main() as a single "stage: message" line on
stderr and that stage's exit code (1 parse, 2 traverse, 3 sentplan,
4 realize, 5 I/O, 6 usage).  A line longer than 280 characters keeps
its head and its tail around "…", so input is never echoed without
bound.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import ir, realize, schema, sentplan
from .errors import NlgenError
from .lexicon import Lexicon, default_lexicon, load_lexicon

# The exit code of each stage; a failure's stage decides its code.
STAGE_CODES = {"parse": 1, "traverse": 2, "sentplan": 3, "realize": 4,
               "io": 5, "usage": 6}
# The flags that name an input file, any one of which may be "-".
_INPUT_FLAGS = ("schema", "data", "plan", "sentences", "lexicon")
# The longest failure line written whole, and how much of a longer one
# is kept: its head, which names the stage and the file, and its tail.
_MAX_LINE, _HEAD, _TAIL = 280, 200, 60


class _StageFailure(Exception):
    """``_StageFailure(stage, message)``, written out by main()."""


class _Parser(argparse.ArgumentParser):
    """An argument error is a failure of the "usage" stage; subparsers
    are built from the same class."""

    def error(self, message: str):
        raise _StageFailure("usage", message)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            # Decoded here: sys.stdin's error handler follows the locale,
            # and in UTF-8 mode it would let bad bytes through.
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _StageFailure("io", f"cannot read {path}: {exc}")


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when ``path`` is
    None; output that is not empty ends in a newline."""
    if text and not text.endswith("\n"):
        text += "\n"
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        if path is None and sys.stdout is sys.__stdout__:
            # What the buffer still holds would fail again when the
            # interpreter flushes it at exit; the null device takes it.
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise _StageFailure("io", f"cannot write {path or '<stdout>'}: {exc}")


def _stage(stage: str, source: str, fn, *args):
    """Run one pipeline step; its failure names the stage and the input
    file it was working on."""
    try:
        return fn(*args)
    except NlgenError as exc:
        name = "<stdin>" if source == "-" else source
        raise _StageFailure(stage, f"{name}: {exc}")


def _read(stage: str, path: str, parse):
    """Read one input file and decode it with ``parse``; the one reader
    for every input kind."""
    return _stage(stage, path, parse, _read_text(path))


def _make_plan(schema_def: schema.SchemaDef,
               data_path: str) -> ir.DocumentPlan:
    data = _read("parse", data_path, schema.load_data)
    return _stage("traverse", data_path, schema.traverse, schema_def, data)


def _generate_one(args, schema_def: schema.SchemaDef, data_path: str,
                  lex: Lexicon) -> str:
    plan = _make_plan(schema_def, data_path)
    plans = _stage("sentplan", data_path, sentplan.plan_sentences, plan,
                   args.profile)
    return _stage("realize", data_path, realize.realize_document, plans, lex)


def cmd_generate(args) -> None:
    lex = default_lexicon() if args.lexicon is None else \
        _read("parse", args.lexicon, load_lexicon)
    schema_def = _read("parse", args.schema, schema.parse_schema)
    if args.batch is None:
        _write(None, _generate_one(args, schema_def, args.data, lex))
        return
    batch_dir = Path(args.batch)
    if not batch_dir.is_dir():
        raise _StageFailure("io", f"not a directory: {args.batch}")
    data_files = sorted(batch_dir.glob("*.json"))
    if not data_files:
        raise _StageFailure("io", f"no .json data files in {args.batch}")
    for data_file in data_files:
        _write(str(data_file.with_suffix(".txt")),
               _generate_one(args, schema_def, str(data_file), lex))


def cmd_plan(args) -> None:
    schema_def = _read("parse", args.schema, schema.parse_schema)
    _write(None, ir.document_plan_to_json(_make_plan(schema_def, args.data)))


def cmd_sentplan(args) -> None:
    plan = _read("sentplan", args.plan, ir.document_plan_from_json)
    plans = _stage("sentplan", args.plan, sentplan.plan_sentences, plan,
                   args.profile)
    _write(None, ir.sentence_plans_to_json(plans))


def cmd_realize(args) -> None:
    lex = default_lexicon() if args.lexicon is None else \
        _read("parse", args.lexicon, load_lexicon)
    plans = _read("realize", args.sentences, ir.sentence_plans_from_json)
    _write(None, _stage("realize", args.sentences, realize.realize_document,
                        plans, lex))


@functools.cache  # one per process: a parser's parts refer to each other
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlgen",
        description="Generate English documents from structured data "
                    "through a schema-driven three-stage pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the full pipeline")
    gen.add_argument("--schema", required=True, help="schema file")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="data file (JSON)")
    source.add_argument("--batch", metavar="DIR",
                        help="generate one document per .json file in DIR, "
                             "writing .txt files next to them")
    gen.add_argument("--profile", choices=sentplan.PROFILES,
                     default="fluent")
    gen.add_argument("--lexicon", help="lexicon file override")
    gen.set_defaults(func=cmd_generate)

    plan = sub.add_parser("plan", help="stage 1: schema + data to "
                                       "document plan JSON")
    plan.add_argument("--schema", required=True)
    plan.add_argument("--data", required=True)
    plan.set_defaults(func=cmd_plan)

    sp = sub.add_parser("sentplan", help="stage 2: document plan JSON to "
                                         "sentence plans JSON")
    sp.add_argument("--plan", required=True,
                    help="document plan file, or - for stdin")
    sp.add_argument("--profile", choices=sentplan.PROFILES,
                    default="fluent")
    sp.set_defaults(func=cmd_sentplan)

    rz = sub.add_parser("realize", help="stage 3: sentence plans JSON to "
                                        "text")
    rz.add_argument("--sentences", required=True,
                    help="sentence plans file, or - for stdin")
    rz.add_argument("--lexicon", help="lexicon file override")
    rz.set_defaults(func=cmd_realize)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Every failure leaves here, as one stderr line
    and its stage's exit code; --help alone exits through argparse."""
    try:
        args = build_parser().parse_args(argv)
        stdin = [f"--{flag}" for flag in _INPUT_FLAGS
                 if getattr(args, flag, None) == "-"]
        if len(stdin) > 1:  # the first reader would leave none to the next
            raise _StageFailure("usage", f"only one of the arguments "
                                         f"{' '.join(stdin)} may be - (stdin)")
        args.func(args)
    except _StageFailure as failure:
        stage, message = failure.args
        line = f"{stage}: {(message.splitlines() or ['error'])[0]}"
        if len(line) > _MAX_LINE:
            line = f"{line[:_HEAD]}…{line[-_TAIL:]}"
        print(line, file=sys.stderr)
        return STAGE_CODES[stage]
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
