"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them).

Every expected string below is frozen from the corpus goldens; the
dictionary oracles live in tests/data/.
"""

import random
import time

import nlgen
from nlgen import lexicon, realize, schema

import oracle
from conftest import run_cli
from test_lexicon import CELLS, load_noun_oracle, load_verb_oracle
from test_realize import random_stream


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def get(corpus, name):
    return next(d for d in corpus if d.name == name)


def test_criterion_1_aggregation_fixture(corpus):
    doc = get(corpus, "sam_pair")
    started = time.perf_counter()
    text = nlgen.generate_text(
        nlgen.parse_schema(doc.schema_source), doc.data, "fluent")
    elapsed = time.perf_counter() - started
    ok = text == "Sam has high blood pressure and low blood sugar." \
        and elapsed < 1.0
    _report(1, "aggregation fixture is byte-exact in under a second", ok)


def test_criterion_2_pronominalization_fixture(corpus):
    doc = get(corpus, "visit_note")
    text = nlgen.generate_text(doc.schema, doc.data, "fluent")
    ok = text == "I just saw Mrs. Black. She has a high temperature."
    _report(2, "pronominalization fixture is byte-exact", ok)


def test_criterion_3_discourse_marker_fixture(corpus):
    doc = get(corpus, "conditional")
    text = nlgen.generate_text(doc.schema, doc.data, "fluent")
    ok = text == ("If Sam goes to the hospital, he should also go to "
                  "the store.")
    _report(3, "discourse marker fixture is byte-exact", ok)


def test_criterion_4_realization_rules(corpus):
    checks = [lexicon.pluralize("box") == "boxes",
              lexicon.verb_form("be", "first", "singular",
                                "present") == "am"]

    doc = get(corpus, "reflexive")
    checks.append(nlgen.generate_text(doc.schema, doc.data, "fluent")
                  == "John saw himself.")

    helen = [realize.word("I"), realize.word("saw"),
             realize.word("Helen"),
             realize.word("Jones"), realize.punct(","),
             realize.word("my"), realize.word("sister-in-law"),
             realize.punct(","), realize.punct("."), realize.boundary()]
    rendered = realize.orthography(helen)
    checks.append(rendered == "I saw Helen Jones, my sister-in-law.")
    checks.append(rendered.endswith("."))

    rng = random.Random(1404)
    clean = all(",." not in realize.orthography(random_stream(rng))
                for _ in range(1000))
    checks.append(clean)
    _report(4, "point absorption, morphology, agreement, reflexives",
            all(checks))


def test_criterion_5_information_preservation(corpus):
    started = time.perf_counter()
    ok = True
    for doc in corpus:
        plan = schema.traverse(doc.schema, doc.data)
        want = oracle.expand_document_plan(plan)
        for profile in ("fluent", "plain"):
            got = oracle.expand_sentence_plans(
                nlgen.plan_sentences(plan, profile))
            ok = ok and got == want
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    _report(5, "proposition sets preserved on the corpus, both profiles",
            ok)


def test_criterion_6_oracle_equivalence():
    noun_ok = all(lexicon.pluralize(lemma) == plural
                  for lemma, plural in load_noun_oracle())
    verb_ok = all(
        lexicon.verb_form(lemma, person, number, tense) == want
        for lemma, forms in load_verb_oracle()
        for (person, number, tense), want in zip(CELLS, forms))
    _report(6, "hand dictionaries reproduced with zero mismatches",
            noun_ok and verb_ok)


def test_criterion_7_schema_round_trip(corpus):
    ok = True
    for doc in corpus:
        reparsed = schema.parse_schema(oracle.print_schema(doc.schema))
        ok = ok and dict(reparsed.schema_set) == dict(doc.schema.schema_set)
        ok = ok and schema.traverse(doc.schema, doc.data) == \
            schema.traverse(doc.schema, doc.data)
    _report(7, "parse-print-parse equality and traverse determinism", ok)


def test_criterion_8_stage_composition(corpus, tmp_path):
    ok = True
    for doc in corpus:
        for profile in ("fluent", "plain"):
            code_a, direct, _ = run_cli([
                "generate", "--schema", str(doc.schema_path),
                "--data", str(doc.data_path), "--profile", profile])
            _, plan_json, _ = run_cli([
                "plan", "--schema", str(doc.schema_path),
                "--data", str(doc.data_path)])
            plan_file = tmp_path / "stage.plan.json"
            plan_file.write_text(plan_json, encoding="utf-8")
            _, sent_json, _ = run_cli([
                "sentplan", "--plan", str(plan_file),
                "--profile", profile])
            sent_file = tmp_path / "stage.sent.json"
            sent_file.write_text(sent_json, encoding="utf-8")
            code_b, piped, _ = run_cli([
                "realize", "--sentences", str(sent_file)])
            ok = ok and code_a == 0 and code_b == 0 and piped == direct
    _report(8, "per-stage CLI composition is byte-identical to generate",
            ok)


def test_criterion_9_plain_profile_contract(corpus):
    third_person_forms = {
        form.lower()
        for (person, _, _, _), form in
        lexicon.default_lexicon().pronoun_table.items()
        if person == "third"}
    ok = True
    for doc in corpus:
        plan = schema.traverse(doc.schema, doc.data)
        plain = nlgen.plan_sentences(plan, "plain")
        fluent = nlgen.plan_sentences(plan, "fluent")
        ok = ok and len(plain) >= len(fluent)
        text = realize.realize_document(plain)
        tokens = {w.strip(".,?").lower() for w in text.split()}
        ok = ok and not (tokens & third_person_forms)
    _report(9, "plain profile: no third-person pronouns, never fewer "
               "sentences", ok)
