"""No stage leaves a reference cycle: the objects a document makes are
freed by reference counting as soon as the caller drops its result, not
by a later pass of the cyclic collector.

Each check calls once to fill what is built on first use (encoders,
decoders, word caches), then counts the objects gc.collect() finds after
a second call made with the collector off.
"""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlgen
from nlgen import ir, schema

from conftest import random_document_plan, run_cli

PROFILES = ("fluent", "plain")


def cyclic_garbage(call) -> int:
    """How many objects a call of ``call`` leaves that only the cyclic
    collector can free."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def staged(plan, profile: str) -> str:
    """What ``nlgen plan | nlgen sentplan | nlgen realize`` computes from
    a plan, in one process."""
    plan = ir.document_plan_from_json(ir.document_plan_to_json(plan))
    plans = ir.sentence_plans_from_json(ir.sentence_plans_to_json(
        nlgen.plan_sentences(plan, profile)))
    return nlgen.realize_document(plans)


@pytest.mark.parametrize("profile", PROFILES)
def test_generate_text_leaves_no_cycle(corpus, profile):
    for doc in corpus:
        assert cyclic_garbage(lambda: nlgen.generate_text(
            doc.schema, doc.data, profile)) == 0, doc.name


@pytest.mark.parametrize("profile", PROFILES)
def test_staged_path_leaves_no_cycle(corpus, profile):
    for doc in corpus:
        assert staged(nlgen.traverse(doc.schema, doc.data), profile) == \
            doc.golden(profile).removesuffix("\n")
        assert cyclic_garbage(lambda: staged(
            nlgen.traverse(doc.schema, doc.data), profile)) == 0, doc.name


def test_validate_leaves_no_cycle(corpus):
    for doc in corpus:
        plan = nlgen.traverse(doc.schema, doc.data)
        decoded = ir.document_plan_from_json(ir.document_plan_to_json(plan))
        for plan in (plan, decoded):
            assert cyclic_garbage(lambda: nlgen.validate(plan)) == 0, \
                doc.name


def test_compiled_guard_leaves_no_cycle():
    # A compiled guard keeps its operator, path and literal, not the
    # Condition that caches it, so a guard built by hand and dropped after
    # use is freed at once.
    data = schema.DataRecordSet(records={"r": {"x": 2}})

    def run():
        guard = schema.Condition("and", args=(
            schema.Condition("gt", "r.x", 1),
            schema.Condition("not", args=(schema.Condition("eq", "r.x", 3),))))
        assert schema.eval_condition(guard, data)

    assert cyclic_garbage(run) == 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_plans_leave_no_cycle(seed):
    plan = random_document_plan(random.Random(seed))

    def run():
        assert nlgen.validate(plan) == []
        for profile in PROFILES:
            direct = nlgen.realize_document(
                nlgen.plan_sentences(plan, profile))
            assert staged(plan, profile) == direct

    assert cyclic_garbage(run) == 0


def test_batch_leaves_no_cycle_per_file(corpus, tmp_path):
    # The argument parser is built once per process, so after the first
    # call cli.main leaves only the cycle of the schema file it parses:
    # each schema of a file holds the file's schema set, which holds it.
    # That is what one document through a fresh parse leaves (with the
    # guards it compiled and the messages it kept), and a file of a batch
    # adds nothing to it.
    doc = next(doc for doc in corpus if doc.name == "patient_report")
    parsed = cyclic_garbage(lambda: nlgen.generate_text(
        nlgen.parse_schema(doc.schema_source), doc.data, "fluent"))
    assert parsed > 0
    runs = [["--data", str(doc.data_path)]]
    for files in (1, 20):
        folder = tmp_path / f"batch{files}"
        folder.mkdir()
        for i in range(files):
            (folder / f"d{i:02d}.json").write_bytes(doc.data_path.read_bytes())
        runs.append(["--batch", str(folder)])
    for run in runs:
        args = ["generate", "--schema", str(doc.schema_path), *run]
        assert run_cli(args)[0] == 0
        assert cyclic_garbage(lambda: run_cli(args)) == parsed, run

