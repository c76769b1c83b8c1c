"""Command-line driver for the generation pipeline.

Subcommands mirror the pipeline stages:

    nlgen generate  --schema S --data D [--profile fluent|plain] ...
    nlgen plan      --schema S --data D
    nlgen sentplan  --plan P [--profile fluent|plain]
    nlgen realize   --sentences F [--lexicon L]

plan/sentplan/realize read and write the canonical JSON serializations,
so their composition is byte-identical to generate.  "-" reads a stage
input from stdin.  Generated text is the only stdout content; diagnostics
go to stderr as a single "stage: message" line, and each failing stage
has its own exit code (1 parse, 2 traverse, 3 sentplan, 4 realize,
5 I/O).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import ir, realize, schema, sentplan
from .errors import NlgenError
from .lexicon import Lexicon, default_lexicon, load_lexicon

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_TRAVERSE = 2
EXIT_SENTPLAN = 3
EXIT_REALIZE = 4
EXIT_IO = 5


class _StageFailure(Exception):
    def __init__(self, stage: str, code: int, message: str):
        super().__init__(message)
        self.stage = stage
        self.code = code


def _fail(stage: str, code: int, message: str) -> _StageFailure:
    first_line = str(message).splitlines()[0] if str(message) else "error"
    return _StageFailure(stage, code, first_line)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            # Decoded here: sys.stdin's error handler follows the locale,
            # and in UTF-8 mode it would let bad bytes through.
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _fail("io", EXIT_IO, f"cannot read {path}: {exc}")


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _fail("io", EXIT_IO, f"cannot write {path}: {exc}")


def _stage(stage: str, code: int, source: str, fn, *args):
    """Run one pipeline step; its failure names the stage and the input
    file it was working on."""
    try:
        return fn(*args)
    except NlgenError as exc:
        name = "<stdin>" if source == "-" else source
        raise _fail(stage, code, f"{name}: {exc}")


def _read(stage: str, code: int, path: str, parse):
    """Read one input file and decode it with ``parse``; the one reader
    for every input kind."""
    return _stage(stage, code, path, parse, _read_text(path))


def _make_plan(schema_def: schema.SchemaDef,
               data_path: str) -> ir.DocumentPlan:
    data = _read("parse", EXIT_PARSE, data_path, schema.load_data)
    return _stage("traverse", EXIT_TRAVERSE, data_path, schema.traverse,
                  schema_def, data)


def _emit(text: str) -> None:
    if text:
        sys.stdout.write(text + "\n")


def _generate_one(args, schema_def: schema.SchemaDef, data_path: str,
                  lex: Lexicon) -> str:
    plan = _make_plan(schema_def, data_path)
    plans = _stage("sentplan", EXIT_SENTPLAN, data_path,
                   sentplan.plan_sentences, plan, args.profile)
    return _stage("realize", EXIT_REALIZE, data_path,
                  realize.realize_document, plans, lex)


def cmd_generate(args) -> int:
    lex = default_lexicon() if args.lexicon is None else \
        _read("parse", EXIT_PARSE, args.lexicon, load_lexicon)
    schema_def = _read("parse", EXIT_PARSE, args.schema, schema.parse_schema)
    if args.batch:
        batch_dir = Path(args.batch)
        if not batch_dir.is_dir():
            raise _fail("io", EXIT_IO, f"not a directory: {args.batch}")
        data_files = sorted(batch_dir.glob("*.json"))
        if not data_files:
            raise _fail("io", EXIT_IO,
                        f"no .json data files in {args.batch}")
        for data_file in data_files:
            text = _generate_one(args, schema_def, str(data_file), lex)
            _write_text(str(data_file.with_suffix(".txt")),
                        text + "\n" if text else "")
        return EXIT_OK
    if not args.data:
        raise _fail("io", EXIT_IO, "either --data or --batch is required")
    _emit(_generate_one(args, schema_def, args.data, lex))
    return EXIT_OK


def cmd_plan(args) -> int:
    schema_def = _read("parse", EXIT_PARSE, args.schema, schema.parse_schema)
    plan = _make_plan(schema_def, args.data)
    sys.stdout.write(ir.document_plan_to_json(plan))
    return EXIT_OK


def cmd_sentplan(args) -> int:
    plan = _read("sentplan", EXIT_SENTPLAN, args.plan,
                 ir.document_plan_from_json)
    plans = _stage("sentplan", EXIT_SENTPLAN, args.plan,
                   sentplan.plan_sentences, plan, args.profile)
    sys.stdout.write(ir.sentence_plans_to_json(plans))
    return EXIT_OK


def cmd_realize(args) -> int:
    lex = default_lexicon() if args.lexicon is None else \
        _read("parse", EXIT_PARSE, args.lexicon, load_lexicon)
    plans = _read("realize", EXIT_REALIZE, args.sentences,
                  ir.sentence_plans_from_json)
    _emit(_stage("realize", EXIT_REALIZE, args.sentences,
                 realize.realize_document, plans, lex))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlgen",
        description="Generate English documents from structured data "
                    "through a schema-driven three-stage pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the full pipeline")
    gen.add_argument("--schema", required=True, help="schema file")
    gen.add_argument("--data", help="data file (JSON)")
    gen.add_argument("--profile", choices=sentplan.PROFILES,
                     default="fluent")
    gen.add_argument("--lexicon", help="lexicon file override")
    gen.add_argument("--batch", metavar="DIR",
                     help="generate one document per .json file in DIR, "
                          "writing .txt files next to them")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _StageFailure as failure:
        print(f"{failure.stage}: {failure}", file=sys.stderr)
        return failure.code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
