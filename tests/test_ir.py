import copy
import dataclasses
import json
import random
import re
from pathlib import Path
from typing import get_args, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlgen import ir, plan_sentences, realize_document, schema
from nlgen.errors import DataError, NlgenError

import oracle
from conftest import (GOLDEN_DIR, SHARED_TYPES, random_document_plan,
                      run_cli, shared_objects)


SAM = ir.Entity(id="sam", name="Sam", gender="masculine",
                number="singular")


def phrase(*premods, head, det=None, prep=None):
    return ir.ComplementPhrase(head=head, determiner=det,
                               premodifiers=tuple(premods),
                               preposition=prep)


def seq(*children, label="sequence"):
    return ir.PlanNode(label=label, children=tuple(children))


def sam_pair_plan():
    bp = ir.Message(subject="sam", verb="have",
                    complements=(phrase("high", "blood", head="pressure"),))
    sugar = ir.Message(subject="sam", verb="have",
                       complements=(phrase("low", "blood", head="sugar"),))
    return ir.DocumentPlan(root=seq(bp, sugar),
                           entities={"sam": SAM})


# Hand-derived canonical tuples for the two-finding plan.
BP_TUPLE = ("sam", "have",
            (("noun-phrase", "none", ("blood", "high"), "pressure",
              "none"),),
            "present", "none", "positive", None)
SUGAR_TUPLE = ("sam", "have",
               (("noun-phrase", "none", ("blood", "low"), "sugar",
                 "none"),),
               "present", "none", "positive", None)


class TestPropositionSet:
    def test_two_finding_plan(self):
        assert oracle.expand_document_plan(sam_pair_plan()) == {
            BP_TUPLE, SUGAR_TUPLE}

    def test_empty_plan(self):
        assert oracle.expand_document_plan(ir.DocumentPlan(root=None)) == \
            set()

    def test_deterministic(self):
        a = oracle.expand_document_plan(sam_pair_plan())
        b = oracle.expand_document_plan(sam_pair_plan())
        assert a == b

    def test_invariant_under_relabeling(self):
        plan = sam_pair_plan()
        relabeled = dataclasses.replace(
            plan, root=dataclasses.replace(plan.root, label="contrast"))
        assert oracle.expand_document_plan(plan) == \
            oracle.expand_document_plan(relabeled)

    def test_premodifier_order_is_cosmetic(self):
        a = ir.Message(subject="sam", verb="have",
                       complements=(phrase("high", "blood",
                                           head="pressure"),))
        b = ir.Message(subject="sam", verb="have",
                       complements=(phrase("blood", "high",
                                           head="pressure"),))
        pa = ir.DocumentPlan(root=a, entities={"sam": SAM})
        pb = ir.DocumentPlan(root=b, entities={"sam": SAM})
        assert oracle.expand_document_plan(pa) == \
            oracle.expand_document_plan(pb)

    def test_condition_nested_tuple(self):
        trigger = ir.Message(subject="sam", verb="go",
                             complements=(phrase(head="hospital", det="the",
                                                 prep="to"),))
        msg = ir.Message(subject="sam", verb="go", modal="should",
                         complements=(phrase(head="store", det="the",
                                             prep="to"),),
                         condition=trigger)
        plan = ir.DocumentPlan(root=msg, entities={"sam": SAM})
        (row,) = oracle.expand_document_plan(plan)
        assert row[4] == "should"
        assert row[6] == ("sam", "go",
                          (("prepositional-phrase", "the", (), "hospital",
                            "to"),),
                          "present", "none", "positive")


class TestValidate:
    def test_well_formed_leaf_plan(self):
        msg = ir.Message(subject="sam", verb="rest")
        plan = ir.DocumentPlan(root=msg, entities={"sam": SAM})
        assert ir.validate(plan) == []

    def test_empty_plan_is_clean(self):
        assert ir.validate(ir.DocumentPlan(root=None)) == []

    def test_summary_names_three_problems_and_a_count(self):
        # Up to three problems are joined as they always were.
        assert ir.summarize(["p1"]) == "p1"
        assert ir.summarize(["p1", "p2", "p3"]) == "p1; p2; p3"
        assert ir.summarize(["p1", "p2", "p3", "p4"]) == \
            "p1; p2; p3; and 1 more"
        assert ir.summarize([f"p{i}" for i in range(20)]) == \
            "p0; p1; p2; and 17 more"

    def test_relation_without_children(self):
        plan = ir.DocumentPlan(
            root=seq(seq(), ir.Message(subject="sam", verb="rest")),
            entities={"sam": SAM})
        problems = ir.validate(plan)
        assert any("root.children[0]" in p and "no children" in p
                   for p in problems)

    def test_missing_entity_is_referential_violation(self):
        plan = dataclasses.replace(sam_pair_plan(), entities={})
        problems = ir.validate(plan)
        assert any("referential integrity" in p for p in problems)

    def test_condition_nesting_depth(self):
        inner = ir.Message(subject="sam", verb="rest")
        mid = ir.Message(subject="sam", verb="rest", condition=inner)
        outer = ir.Message(subject="sam", verb="rest", condition=mid)
        plan = ir.DocumentPlan(root=outer, entities={"sam": SAM})
        assert any("nest" in p for p in ir.validate(plan))

    def test_phrase_kind_is_derived(self):
        # A phrase cannot disagree with its kind: the preposition and the
        # head decide it.
        for shape, kind in (
                (phrase("high", head="pressure", det="a"), "noun-phrase"),
                (phrase(head="store", det="the", prep="to"),
                 "prepositional-phrase"),
                (ir.ComplementPhrase(head="@sam", preposition="with"),
                 "prepositional-phrase"),
                (ir.ComplementPhrase(head="@sam"), "entity-reference")):
            assert shape.kind == kind
        assert "kind" not in json.loads(
            ir._codec(ir.ComplementPhrase)[0](phrase(head="store"), {}))

    def test_entity_reference_rejects_premodifiers(self):
        bad = ir.ComplementPhrase(head="@sam", premodifiers=("tall",))
        msg = ir.Message(subject="sam", verb="see", complements=(bad,))
        plan = ir.DocumentPlan(root=msg, entities={"sam": SAM})
        assert any("premodifiers" in p for p in ir.validate(plan))

    def test_uppercase_verb_rejected(self):
        msg = ir.Message(subject="sam", verb="Rest")
        plan = ir.DocumentPlan(root=msg, entities={"sam": SAM})
        assert any("lowercase" in p for p in ir.validate(plan))

    def test_entity_head_takes_no_determiner_or_premodifiers(self):
        for bad in (
                ir.ComplementPhrase(head="@sam", determiner="the"),
                ir.ComplementPhrase(head="@sam", preposition="with",
                                    premodifiers=("tall",)),
                ir.ComplementPhrase(head="@sam", preposition="with",
                                    determiner="a")):
            msg = ir.Message(subject="sam", verb="see", complements=(bad,))
            plan = ir.DocumentPlan(root=msg, entities={"sam": SAM})
            assert ir.validate(plan) == [
                "root.complements[0]: an @entity head takes no "
                "determiner or premodifiers"]

    def test_verb_lemma_is_one_lowercase_word(self):
        assert ir.is_verb_lemma("have")
        for bad in ("", "Has", "go.to", "go home", "9", "re-check", 5, None):
            assert not ir.is_verb_lemma(bad), bad
            msg = ir.Message(subject="sam", verb=bad)
            plan = ir.DocumentPlan(root=msg, entities={"sam": SAM})
            # A verb that is not a str breaks the field's type, which is
            # checked before the lemma rule reads it.
            assert ir.validate(plan) == (
                ["root: verb lemma must be one lowercase alphabetic word"]
                if type(bad) is str else
                [f"root.verb: expected a string, got {ir.json_kind(bad)}"])

    def test_modal_takes_present_tense(self):
        for tense in ("past", "future"):
            trigger = ir.Message(subject="sam", verb="go", modal="can",
                                 tense=tense)
            msg = ir.Message(subject="sam", verb="rest", modal="must",
                             tense=tense, condition=trigger)
            plan = ir.DocumentPlan(root=msg, entities={"sam": SAM})
            assert ir.validate(plan) == [
                "root: a modal takes present tense",
                "root.condition: a modal takes present tense"]
        ok = ir.Message(subject="sam", verb="rest", modal="can")
        assert ir.validate(ir.DocumentPlan(root=ok,
                                           entities={"sam": SAM})) == []

    def test_blank_text_rejected(self):
        msg = ir.Message(subject="sam", verb="rest", adverb=" ",
                         complements=(phrase(" ", head="report"),
                                      phrase(head=""),
                                      phrase(head="store", prep=" ")))
        plan = ir.DocumentPlan(root=msg, entities={"sam": SAM})
        assert ir.validate(plan) == [
            "root: blank adverb",
            "root.complements[0]: blank word in complement",
            "root.complements[1]: blank word in complement",
            "root.complements[2]: blank word in complement"]
        blank = ir.Entity(id="x", head=" ")
        named = ir.Entity(id="y", name=" ", head="thing")
        plan = ir.DocumentPlan(root=None, entities={"x": blank, "y": named})
        assert len([p for p in ir.validate(plan) if "name/head" in p]) == 2

    def test_relation_node_needs_a_label(self):
        # A missing label is a value outside the RelationLabel domain.
        node = ir.PlanNode(label=None, children=(
            ir.Message(subject="sam", verb="rest"),))
        plan = ir.DocumentPlan(root=node, entities={"sam": SAM})
        assert ir.validate(plan) == [
            "root.label: unknown value None; expected one of sequence, "
            "elaboration, contrast"]

    @pytest.mark.parametrize("root, problem", [
        (seq(1), "root.children[0]: expected a PlanNode or a Message, got "
                 "a number"),
        (seq(None), "root.children[0]: expected a PlanNode or a Message, "
                    "got null"),
        (1, "root: expected a PlanNode or a Message, got a number"),
        (seq(seq(ir.Message(subject="sam", verb="rest"), "rest")),
         "root.children[0].children[1]: expected a PlanNode or a Message, "
         "got a string"),
    ], ids=["number-child", "null-child", "number-root", "text-grandchild"])
    def test_a_node_of_another_type_is_one_problem(self, root, problem):
        # Each tree node is a PlanNode or a Message; validate names any
        # other value where it stands, and raises nothing.
        plan = ir.DocumentPlan(root=root, entities={"sam": SAM})
        assert ir.validate(plan) == oracle.reference_validate(plan) == \
            [problem]

    @pytest.mark.parametrize("root, problem", [
        (ir.Message(subject="sam", verb="rest", adverb=True),
         "root.adverb: expected a string, got a boolean"),
        (ir.Message(subject="sam", verb="see",
                    complements=(ir.ComplementPhrase(head={}),)),
         "root.complements[0].head: expected a string, got an object"),
        (ir.PlanNode(label="sequence", children=None),
         "root.children: expected a tuple, got null"),
        (ir.Message(subject="sam", verb="rest", polarity="maybe"),
         "root.polarity: unknown value 'maybe'; expected one of positive, "
         "negative"),
        (seq(ir.Message(subject="sam", verb="rest"), label="because"),
         "root.label: unknown value 'because'; expected one of sequence, "
         "elaboration, contrast"),
        (ir.Message(subject="sam", verb="rest", tense=0),
         "root.tense: unknown value 0; expected one of present, past, "
         "future"),
        (ir.Message(subject="sam", verb="see",
                    complements=[ir.ComplementPhrase(head="store")]),
         "root.complements: expected a tuple, got an array"),
    ], ids=["bool-adverb", "object-head", "null-children", "polarity",
            "label", "number-tense", "list-complements"])
    def test_a_value_its_field_cannot_hold_is_one_problem(self, root,
                                                           problem):
        # Each field's row, read from its type hint, refuses the value
        # before any rule reads it, in the decoder's words.
        plan = ir.DocumentPlan(root=root, entities={"sam": SAM})
        assert ir.validate(plan) == oracle.reference_validate(plan) == \
            [problem]

    def test_a_shared_object_is_checked_once(self):
        bad = ir.ComplementPhrase(head=7)
        msg = ir.Message(subject="sam", verb="see", complements=(bad, bad))
        plan = ir.DocumentPlan(root=seq(msg, msg), entities={"sam": SAM})
        assert ir.validate(plan) == oracle.reference_validate(plan) == [
            "root.children[0].complements[0].head: expected a string, got "
            "a number"]

    def test_the_checks_take_any_value(self):
        assert ir.validate(None) == ["expected a DocumentPlan, got null"]
        assert ir.validate_sentences(()) == [
            "sentences: expected a list, got tuple"]

    @pytest.mark.parametrize("encode, value, problem", [
        (ir.document_plan_to_json,
         ir.DocumentPlan(root=seq(1), entities={"sam": SAM}),
         "root.children[0]: expected a PlanNode or a Message, got a "
         "number"),
        (ir.document_plan_to_json,
         ir.DocumentPlan(root=ir.Message(subject="sam", verb="rest",
                                         tense=0), entities={"sam": SAM}),
         "root.tense: unknown value 0; expected one of present, past, "
         "future"),
        (ir.sentence_plans_to_json,
         [ir.SentencePlan(clauses=(ir.ClauseSpec(ir.ReferenceSpec(SAM),
                                                 "rest", tense=0),))],
         "sentences[0].clauses[0].tense: unknown value 0; expected one of "
         "present, past, future"),
        (ir.sentence_plans_to_json, [ir.SentencePlan(clauses=(None,))],
         "sentences[0].clauses[0]: expected a ClauseSpec, got null"),
        # Values that no encoder step broke on, written before as plans
        # that the decoder refuses or reads as another plan.
        (ir.document_plan_to_json,
         ir.DocumentPlan(root=ir.PlanNode(label="sequence", children=None)),
         "root.children: expected a tuple, got null"),
        (ir.document_plan_to_json,
         ir.DocumentPlan(root=seq(ir.Message(subject="sam", verb="rest"),
                                  label="because"), entities={"sam": SAM}),
         "root.label: unknown value 'because'; expected one of sequence, "
         "elaboration, contrast"),
        (ir.document_plan_to_json,
         ir.DocumentPlan(root=ir.Message(subject="sam", verb="rest",
                                         polarity="maybe"),
                         entities={"sam": SAM}),
         "root.polarity: unknown value 'maybe'; expected one of positive, "
         "negative"),
        (ir.document_plan_to_json, ir.DocumentPlan(root=None, entities=None),
         "entities: expected a dict, got null"),
        (ir.document_plan_to_json, ir.DocumentPlan(root=None, entities=[]),
         "entities: expected a dict, got an array"),
        (ir.document_plan_to_json,
         ir.DocumentPlan(root=ir.Message(
             subject="sam", verb="see", complements=(
                 ir.ComplementPhrase(head="dog", premodifiers="big"),)),
             entities={"sam": SAM}),
         "root.complements[0].premodifiers: expected a tuple, got a string"),
        (ir.sentence_plans_to_json,
         [ir.SentencePlan(clauses=(ir.ClauseSpec(
             ir.ReferenceSpec(SAM), "rest", discourse_markers="also"),))],
         "sentences[0].clauses[0].discourse_markers: expected a tuple, got "
         "a string"),
        (ir.sentence_plans_to_json,
         [ir.SentencePlan(clauses=(ir.ClauseSpec(
             ir.ReferenceSpec(SAM, mode=None), "rest"),))],
         "sentences[0].clauses[0].subject_ref.mode: unknown value None; "
         "expected one of full-name, pronoun, reflexive-pronoun"),
        # 0 equals the default, False, but is not left out as it.
        (ir.sentence_plans_to_json,
         [ir.SentencePlan(clauses=(ir.ClauseSpec(ir.ReferenceSpec(SAM),
                                                 "rest"),), new_paragraph=0)],
         "sentences[0].new_paragraph: expected a boolean, got a number"),
    ], ids=["plan-child", "plan-tense", "sentence-tense", "sentence-clause",
            "plan-children-null", "plan-label", "plan-polarity",
            "plan-entities-null", "plan-entities-list", "plan-premodifiers",
            "sentence-markers", "sentence-mode-null", "sentence-paragraph-0"])
    def test_encoders_refuse_what_the_checks_refuse(self, encode, value,
                                                     problem):
        with pytest.raises(DataError) as info:
            encode(value)
        assert str(info.value) == problem

    def test_entity_needs_exactly_one_of_name_head(self):
        both = ir.Entity(id="x", name="X", head="thing")
        neither = ir.Entity(id="y")
        plan = ir.DocumentPlan(root=None, entities={"x": both,
                                                    "y": neither})
        problems = ir.validate(plan)
        assert len([p for p in problems if "name/head" in p]) == 2

    def test_honorific_needs_a_name_and_no_blank(self):
        plan = ir.DocumentPlan(root=None, entities={
            "doc": ir.Entity(id="doc", head="doctor", honorific="Dr."),
            "sam": dataclasses.replace(SAM, honorific=" "),
            "ann": ir.Entity(id="ann", name="Ann", honorific="Dr.")})
        assert ir.validate(plan) == [f"entities[doc]: {ir.HONORIFIC_RULE}",
                                     f"entities[sam]: {ir.HONORIFIC_RULE}"]

    def test_random_plans_validate_clean(self, rng):
        for _ in range(30):
            plan = random_document_plan(rng)
            assert ir.validate(plan) == []


class TestSerialization:
    def test_document_plan_round_trip(self):
        plan = sam_pair_plan()
        text = ir.document_plan_to_json(plan)
        assert ir.document_plan_from_json(text) == plan

    def test_document_plan_dump_is_stable(self):
        plan = sam_pair_plan()
        once = ir.document_plan_to_json(plan)
        again = ir.document_plan_to_json(ir.document_plan_from_json(once))
        assert once == again

    def test_random_plans_round_trip(self, rng):
        for _ in range(30):
            plan = random_document_plan(rng)
            assert ir.document_plan_from_json(
                ir.document_plan_to_json(plan)) == plan

    def test_sentence_plans_round_trip(self, rng):
        for _ in range(10):
            plan = random_document_plan(rng)
            for profile in ("fluent", "plain"):
                plans = plan_sentences(plan, profile)
                text = ir.sentence_plans_to_json(plans)
                assert ir.sentence_plans_from_json(text) == plans

    def test_malformed_document_plan(self):
        with pytest.raises(DataError):
            ir.document_plan_from_json("{\"root\": {}}")
        with pytest.raises(DataError):
            ir.document_plan_from_json("not json")

    def test_decoding_validates_the_document_plan(self):
        text = ir.document_plan_to_json(
            dataclasses.replace(sam_pair_plan(), entities={}))
        with pytest.raises(DataError,
                           match=r"^root\.children\[0\]: "
                                 r"referential integrity"):
            ir.document_plan_from_json(text)

    def test_decoding_runs_only_the_rules(self, rng, monkeypatch):
        # The decoder has checked every type, so decoding does not walk
        # the rows again.
        plan = random_document_plan(rng)
        text = ir.document_plan_to_json(plan)
        monkeypatch.setattr(ir, "_misfits", None)
        assert ir.document_plan_from_json(text) == plan

    def test_sentplan_does_not_validate_a_plan_file(self, monkeypatch):
        def fail(plan):
            raise AssertionError("validate called")

        monkeypatch.setattr(ir, "validate", fail)
        plan_file = GOLDEN_DIR / "patient_report.plan.json"
        golden = GOLDEN_DIR / "patient_report.fluent.sentences.json"
        assert run_cli(["sentplan", "--plan", str(plan_file)]) == \
            (0, golden.read_text(encoding="utf-8"), "")

    def test_messages_carry_no_source_key(self):
        payload = json.loads(ir.document_plan_to_json(sam_pair_plan()))
        payload["root"]["children"][0]["source_key"] = ""
        with pytest.raises(DataError,
                           match="unknown field 'source_key'"):
            ir.document_plan_from_json(json.dumps(payload))

    def test_malformed_sentence_plans(self):
        with pytest.raises(DataError):
            ir.sentence_plans_from_json("[{}]")

    def test_a_message_root_round_trips(self):
        # A plan of one message has that message as its root, with no
        # relation node above it.
        msg = ir.Message(subject="sam", verb="rest", modal="should")
        plan = ir.DocumentPlan(root=msg, entities={"sam": SAM})
        text = ir.document_plan_to_json(plan)
        assert json.loads(text)["root"] == {"modal": "should",
                                            "subject": "sam", "verb": "rest"}
        assert ir.document_plan_from_json(text) == plan
        assert ir.from_obj(ir.DocumentPlan, json.loads(text)) == plan
        for profile in ("fluent", "plain"):
            plans = plan_sentences(plan, profile)
            assert [sp.new_paragraph for sp in plans] == [False]
            assert ir.sentence_plans_from_json(
                ir.sentence_plans_to_json(plans)) == plans

    def test_readme_plans_read_back_byte_for_byte(self):
        # Each document plan the README shows decodes, and encodes to the
        # very text shown, so the examples cannot go stale.
        readme = (Path(__file__).parent.parent / "README.md").read_text(
            encoding="utf-8")
        shown = re.findall(r'^```\n(\{"entities".*"root".*\n)```$', readme,
                           re.M)
        assert len(shown) == 2
        for text in shown:
            plan = ir.document_plan_from_json(text)
            assert ir.document_plan_to_json(plan) == text
            assert [type(child) for child in plan.root.children] == \
                [ir.Message, ir.Message]

    def test_empty_plan_serializes(self):
        text = ir.document_plan_to_json(ir.DocumentPlan(root=None))
        assert ir.document_plan_from_json(text).root is None

    def test_canonical_form_leaves_out_defaults(self):
        # A message has no modal, adverb or condition, a phrase no
        # determiner or preposition, and none of them is written; a
        # required field is written even as null.
        text = ir.document_plan_to_json(sam_pair_plan())
        assert text == (
            '{"entities":{"sam":{"gender":"masculine","id":"sam",'
            '"name":"Sam"}},"root":{"children":['
            '{"complements":[{"head":"pressure",'
            '"premodifiers":["high","blood"]}],"subject":"sam",'
            '"verb":"have"},'
            '{"complements":[{"head":"sugar",'
            '"premodifiers":["low","blood"]}],"subject":"sam",'
            '"verb":"have"}],"label":"sequence"}}\n')
        assert ir.document_plan_to_json(ir.DocumentPlan(root=None)) == \
            '{"root":null}\n'

    def test_sentence_plans_are_an_array_keyed_by_field(self):
        plans = [ir.SentencePlan(clauses=(
            ir.ClauseSpec(subject_ref=ir.ReferenceSpec(entity=SAM),
                          verb="rest"),
            ir.ClauseSpec(subject_ref=ir.ReferenceSpec(entity=SAM,
                                                       mode="pronoun"),
                          verb="rest")))]
        payload = json.loads(ir.sentence_plans_to_json(plans))
        (sentence,) = payload
        first, second = sentence["clauses"]
        sam = {"gender": "masculine", "id": "sam", "name": "Sam"}
        assert first["subject_ref"] == {"entity": sam}
        assert second["subject_ref"] == {"entity": sam, "mode": "pronoun"}

    def test_sentence_plans_carry_no_terminal_and_word_markers(self):
        ref = ir.ReferenceSpec(entity=SAM)
        plans = [ir.SentencePlan(clauses=(
            ir.ClauseSpec(subject_ref=ref, verb="rest",
                          discourse_markers=("also",)),))]
        text = ir.sentence_plans_to_json(plans)
        (sentence,) = json.loads(text)
        assert list(sentence) == ["clauses"]
        assert '"discourse_markers":["also"]' in text
        assert ir.sentence_plans_from_json(text) == plans

    def test_decode_error_names_the_path(self):
        payload = json.loads(ir.document_plan_to_json(sam_pair_plan()))
        payload["root"]["children"][1]["tense"] = "pluperfect"
        with pytest.raises(DataError,
                           match=r"^root\.children\[1\]\.tense: "
                                 r"unknown value 'pluperfect'"):
            ir.document_plan_from_json(json.dumps(payload))

    def test_decode_rejects_wrong_json_types(self):
        payload = json.loads(ir.document_plan_to_json(sam_pair_plan()))
        payload["entities"]["sam"]["name"] = 7
        with pytest.raises(DataError,
                           match=r"entities\[sam\]\.name: expected a "
                                 r"string, got a number"):
            ir.document_plan_from_json(json.dumps(payload))

    _SAM_REF = {"entity": {"id": "sam", "name": "Sam"}}

    @pytest.mark.parametrize("decode, value, problem", [
        (ir.document_plan_from_json,
         {"root": {"subject": "sam", "verb": "rest", "complements": 5}},
         "root.complements: expected an array, got a number"),
        (ir.document_plan_from_json,
         {"root": {"subject": "sam", "verb": "see", "complements": [
             {"head": "dog", "premodifiers": "big"}]}},
         "root.complements[0].premodifiers: expected an array, got a "
         "string"),
        (ir.sentence_plans_from_json, [{"clauses": 5}],
         "sentences[0].clauses: expected an array, got a number"),
        (ir.sentence_plans_from_json,
         [{"clauses": [{"subject_ref": _SAM_REF, "verb": "rest",
                        "complements": [5]}]}],
         "sentences[0].clauses[0].complements[0]: expected an array, got a "
         "number"),
        (ir.sentence_plans_from_json, {"sentences": []},
         "sentences: expected an array, got an object"),
    ], ids=["plan-complements", "plan-premodifiers", "sentence-clauses",
            "sentence-unit", "sentence-file"])
    def test_a_value_not_an_array_is_named_at_its_own_path(self, decode,
                                                          value, problem):
        # The path ends at the value, with no index into it.
        with pytest.raises(DataError) as info:
            decode(json.dumps(value))
        assert str(info.value) == problem

    @pytest.mark.parametrize("text", ["1" * (ir.MAX_DIGITS + 1),
                                      "-" + "9" * (ir.MAX_DIGITS + 1)],
                             ids=["past-bound", "minus-past-bound"])
    def test_integer_past_the_size_rule_is_refused(self, text):
        with pytest.raises(DataError, match=re.escape(
                f"malformed document plan: {ir.DIGITS_RULE}")):
            ir.document_plan_from_json(f'{{"root": {text}}}')

    def test_integer_at_the_size_rule_decodes(self):
        text = "-" + "9" * ir.MAX_DIGITS
        assert ir._parse(f"[{text}]", "file") == [1 - ir.INT_BOUND]

    @pytest.mark.parametrize("escapes", [r"\ud800", r"\uDC80", r"x\udbffy",
                                         r"\ude00\ud83d", r"\ud83d\\ude00"])
    def test_lone_surrogate_escape_is_refused(self, escapes):
        with pytest.raises(DataError, match=re.escape(
                f"malformed data file: {ir._LONE_SURROGATE}") + "$"):
            ir._parse(f'{{"k": ["{escapes}"]}}', "data file")
        with pytest.raises(DataError, match="lone surrogate"):
            ir._parse(f'{{"{escapes}": 1}}', "data file")

    @pytest.mark.parametrize("reader, what, text", [
        (schema.load_data, "data file",
         '{"entities":{"sam":{"name":"Sam\ud800"}},"records":{}}'),
        (ir.document_plan_from_json, "document plan",
         '{"entities":{"sam":{"id":"sam","name":"Sam"}},'
         '"root":{"subject":"sam","verb":"rest",'
         '"adverb":"\udc80"}}'),
        (ir.sentence_plans_from_json, "sentence plans",
         '[{"clauses":[{"subject_ref":{"entity":{"id":"\udbff",'
         '"name":"Sam"}},"verb":"rest"}]}]'),
    ], ids=["data", "document-plan", "sentence-plans"])
    def test_raw_lone_surrogate_is_refused(self, reader, what, text):
        # A str handed to the library may hold the character itself,
        # which no file the CLI reads as UTF-8 can.
        with pytest.raises(DataError) as info:
            reader(text)
        assert str(info.value) == f"malformed {what}: {ir._LONE_SURROGATE}"

    def test_surrogate_pair_escape_is_one_character(self):
        assert ir._parse(r'["\ud83d\ude00", "\uDBFF\uDFFF"]', "file") == \
            ["\U0001F600", "\U0010FFFF"]
        # An escaped backslash before "ud800" is no escape.
        assert ir._parse(r'["\\ud800"]', "file") == ["\\ud800"]

    def test_byte_order_mark_is_refused(self):
        with pytest.raises(DataError, match="^malformed sentence plans: "
                                            "Unexpected UTF-8 BOM"):
            ir.sentence_plans_from_json('\ufeff[]')

    def test_deep_nesting_is_a_serialization_error(self):
        too_deep = f"JSON values nest more than {ir.MAX_NESTING} levels"
        with pytest.raises(DataError, match=too_deep):
            ir.sentence_plans_from_json("[" * 100_000)
        clause = {"subject_ref": {"entity": {"id": "sam", "name": "Sam"}},
                  "verb": "rest"}
        for _ in range(900):
            clause = {"subject_ref": clause["subject_ref"], "verb": "rest",
                      "condition": clause}
        text = json.dumps([{"clauses": [clause]}])
        with pytest.raises(DataError, match=too_deep):
            ir.sentence_plans_from_json(text)

    def test_decoder_meets_the_depth_first_on_a_built_value(self):
        # Values built in Python reach the decoder's walk at any depth,
        # past the interpreter's recursion limit.
        message = {"subject": "sam", "verb": "rest"}
        for _ in range(10_000):
            message = {"subject": "sam", "verb": "rest", "condition": message}
        with pytest.raises(DataError, match=f"^JSON values nest more than "
                                            f"{ir.MAX_NESTING} levels$"):
            ir.from_obj(ir.Message, message)

    def test_domains_are_the_literal_members(self):
        assert ir.PERSONS == get_args(ir.Person)
        assert ir.CASES == get_args(ir.Case)
        assert get_type_hints(ir.Entity)["person"] is ir.Person


def _references(plans):
    for sp in plans:
        for clause in sp.clauses:
            while clause is not None:
                yield clause.subject_ref
                yield from (rc.ref for unit in clause.complements
                            for rc in unit if rc.ref is not None)
                clause = clause.condition


def _plain(value, every_field: bool, numbers: dict | None = None):
    """A plan value as JSON data by the codec's rule, from
    dataclasses.fields alone, sharing no code with ir: each dataclass
    holds every field, as files once did, or only those that differ from
    their default.  Given ``numbers``
    (filled in text order), a value of a shared type equal to one written
    before is written as its number; without it, in full, as files once
    were."""
    if dataclasses.is_dataclass(value):
        if numbers is not None and isinstance(value, SHARED_TYPES):
            of_type = numbers.setdefault(type(value), {})
            if value in of_type:
                return of_type[value]
        out = {}
        for f in sorted(dataclasses.fields(value), key=lambda f: f.name):
            v = getattr(value, f.name)
            default = f.default if f.default_factory is dataclasses.MISSING \
                else f.default_factory()
            if every_field or v != default:
                out[f.name] = _plain(v, every_field, numbers)
        if numbers is not None and isinstance(value, SHARED_TYPES):
            of_type[value] = len(of_type)
        return out
    if isinstance(value, dict):
        return {k: _plain(value[k], every_field, numbers)
                for k in sorted(value)}
    if isinstance(value, (tuple, list)):
        return [_plain(v, every_field, numbers) for v in value]
    return value


def _text(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":")) + "\n"


def _reference_encoding(plan) -> str:
    return _text(_plain(plan, every_field=False, numbers={}))


def _inline_encoding(plan) -> str:
    """The text files were written as before back-references: every use
    of a shared value in full."""
    return _text(_plain(plan, every_field=False))


# Characters json.dumps escapes or writes raw: a quote, a backslash, every
# control character, U+2028, non-ASCII text and an astral character.
_AWKWARD = ['"', "\\", *map(chr, range(32)), "\u2028", "é", "\U0001F600"]
_EVERY_AWKWARD = "".join(_AWKWARD)


class TestCodecProperties:
    @staticmethod
    def _sentence_plans(rng):
        for _ in range(20):
            plan = random_document_plan(rng)
            for profile in ("fluent", "plain"):
                yield plan_sentences(plan, profile)

    # The round trip: TestSerialization.test_sentence_plans_round_trip.
    def test_references_to_one_id_share_one_entity(self, rng):
        # Each reference holds its entity in full, so the references to
        # one id hold equal entities, not one object.
        for plans in self._sentence_plans(rng):
            decoded = ir.sentence_plans_from_json(
                ir.sentence_plans_to_json(plans))
            by_id = {}
            for ref in _references(decoded):
                assert by_id.setdefault(ref.entity.id, ref.entity) \
                    == ref.entity
            assert by_id == {ref.entity.id: ref.entity
                             for ref in _references(plans)}

    def test_decoded_objects_are_frozen_and_hash_alike(self, rng):
        for plans in self._sentence_plans(rng):
            decoded = ir.sentence_plans_from_json(
                ir.sentence_plans_to_json(plans))
            assert hash(tuple(decoded)) == hash(tuple(plans))
            clause = decoded[0].clauses[0]
            with pytest.raises(dataclasses.FrozenInstanceError):
                clause.verb = "go"
            with pytest.raises(dataclasses.FrozenInstanceError):
                clause.subject_ref.entity.gender = "feminine"
        plan = random_document_plan(rng)
        again = ir.document_plan_from_json(ir.document_plan_to_json(plan))
        assert hash(again.root) == hash(plan.root)
        with pytest.raises(dataclasses.FrozenInstanceError):
            again.root.label = "contrast"

    def test_document_plan_matches_a_reference_encoder(self, rng):
        for _ in range(30):
            plan = random_document_plan(rng)
            assert ir.document_plan_to_json(plan) == \
                _reference_encoding(plan)
        assert ir.document_plan_to_json(ir.DocumentPlan(root=None)) == \
            _reference_encoding(ir.DocumentPlan(root=None))

    def test_sentence_plans_match_a_reference_encoder(self, rng):
        for plans in self._sentence_plans(rng):
            assert ir.sentence_plans_to_json(plans) == \
                _reference_encoding(plans)

    @settings(max_examples=50, deadline=None)
    @given(words=st.lists(st.text(st.sampled_from([*_AWKWARD, "a", " "]),
                                  max_size=6), min_size=6, max_size=6))
    @example(words=[_EVERY_AWKWARD] * 6)
    def test_text_is_escaped_as_json_dumps_escapes_it(self, words):
        eid, name, head, premodifier, preposition, adverb = words
        entity = ir.Entity(id=eid, name=name, honorific=premodifier)
        word = ir.ComplementPhrase(head=head, premodifiers=(premodifier,),
                                   preposition=preposition)
        message = ir.Message(subject=eid, verb="rest", complements=(word,),
                             adverb=adverb)
        plan = ir.DocumentPlan(
            root=seq(message, message),
            entities={eid: entity, name: ir.Entity(id=name, head=head)})
        assert ir.document_plan_to_json(plan) == _reference_encoding(plan)
        ref = ir.ReferenceSpec(entity=entity)
        clause = ir.ClauseSpec(
            subject_ref=ref, verb="rest", discourse_markers=(adverb,),
            complements=((ir.ResolvedComplement(phrase=word),
                          ir.ResolvedComplement(phrase=phrase(head="@" + eid),
                                                ref=ref)),))
        plans = [ir.SentencePlan(clauses=(clause, clause))]
        assert ir.sentence_plans_to_json(plans) == \
            _reference_encoding(plans)

    def test_a_shared_value_is_written_as_its_copies_are(self):
        for mode in get_args(ir.ReferenceMode):
            ref = ir.ReferenceSpec(entity=SAM, mode=mode)
            complement = ir.ResolvedComplement(
                phrase=phrase(head="@sam", prep="with"),
                ref=ir.ReferenceSpec(entity=SAM))

            def plans(make):
                return [ir.SentencePlan(clauses=tuple(
                    ir.ClauseSpec(subject_ref=make(ref), verb="see",
                                  complements=((make(complement),),
                                               (make(complement),)))
                    for _ in range(5)))]

            shared, copies = plans(lambda value: value), plans(copy.deepcopy)
            first, second = copies[0].clauses[:2]
            assert first.subject_ref is not second.subject_ref
            assert first.complements[0][0] is not second.complements[0][0]
            text = ir.sentence_plans_to_json(shared)
            assert shared == copies
            assert text == ir.sentence_plans_to_json(copies) == \
                _reference_encoding(copies)
            assert ir.sentence_plans_from_json(text) == shared
            # The complement's reference comes first in the text, as
            # number 0; a different subject reference is number 1, written
            # in full at its first use.
            written = _reference_encoding(ref).removesuffix("\n")
            if ref == complement.ref:
                assert text.count('"subject_ref":0') == 5
            else:
                assert text.count(f'"subject_ref":{written}') == 1
                assert text.count('"subject_ref":1') == 4
        word = phrase("high", head="pressure")
        words = [word] * 3 + [copy.deepcopy(word) for _ in range(3)]
        plan = ir.DocumentPlan(
            root=seq(*[ir.Message(subject="sam", verb="have",
                                  complements=(w,)) for w in words]),
            entities={"sam": SAM})
        assert ir.document_plan_to_json(plan) == _reference_encoding(plan)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_a_lone_value_round_trips(self, seed):
        # from_obj reads a lone value as a file of its own, so a value
        # encoded alone reads back alone, back-references and all.
        plan = random_document_plan(random.Random(seed))
        lone = {tp: [] for tp in (ir.Message, ir.PlanNode, ir.ClauseSpec,
                                  ir.SentencePlan, *SHARED_TYPES)}
        stack = [plan, *(plan_sentences(plan, profile)
                         for profile in ("fluent", "plain"))]
        while stack:
            value = stack.pop()
            if type(value) in lone:
                lone[type(value)].append(value)
            if dataclasses.is_dataclass(value):
                stack += [getattr(value, f.name)
                          for f in dataclasses.fields(value)]
            elif isinstance(value, (tuple, list)):
                stack += value
        assert all(lone[tp] for tp in (ir.Message, ir.PlanNode, ir.ClauseSpec,
                                       ir.SentencePlan, ir.ReferenceSpec))
        for tp, values in lone.items():
            encode = ir._codec(tp)[0]
            for value in values:
                text = encode(value, {})
                assert ir.from_obj(tp, json.loads(text)) == value, text
                if tp in (ir.PlanNode, ir.Message):  # as a plan child
                    child = ir.PlanNode | ir.Message
                    assert ir._codec(child)[0](value, {}) == text
                    assert ir.from_obj(child, json.loads(text)) == value

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_each_shared_value_is_written_once(self, seed):
        plan = random_document_plan(random.Random(seed))
        files = [(plan, ir.document_plan_to_json, ir.document_plan_from_json,
                  _inline_encoding(plan))]
        for profile in ("fluent", "plain"):
            plans = plan_sentences(plan, profile)
            files.append((plans, ir.sentence_plans_to_json,
                          ir.sentence_plans_from_json,
                          _inline_encoding(plans)))
        for value, to_json, from_json, inline in files:
            text = to_json(value)
            decoded = from_json(text)
            assert decoded == value and to_json(decoded) == text
            # A file written before decodes to the same plan, one object
            # per use, and that writes the same text as shared objects.
            unshared = from_json(inline)
            assert unshared == value and to_json(unshared) == text
            assert to_json(copy.deepcopy(value)) == text
            values = shared_objects(decoded)
            assert len({id(v) for v in values}) == len(set(values))

    # (file, where the bad value goes, the value, the message)
    @pytest.mark.parametrize("kind, path, value, message", [
        ("sentences", (1, "clauses", 0, "subject_ref"), 5,
         "sentences[1].clauses[0].subject_ref: number 5 names none of the "
         "1 earlier ReferenceSpec values"),
        ("sentences", (1, "clauses", 0, "subject_ref"), -1,
         "sentences[1].clauses[0].subject_ref: number -1 names none of the "
         "1 earlier ReferenceSpec values"),
        ("sentences", (1, "clauses", 0, "subject_ref"), True,
         "sentences[1].clauses[0].subject_ref: expected an object, got a "
         "boolean"),
        ("sentences", (1, "clauses", 0, "subject_ref"), 1.0,
         "sentences[1].clauses[0].subject_ref: expected an object, got a "
         "number"),
        ("plan", ("root", "children", 0, "complements", 0), 0,
         "root.children[0].complements[0]: number 0 names none of "
         "the 0 earlier ComplementPhrase values"),
        # Outside a file no value comes before, so none can be named.
        ("bare", ("phrase",), 0,
         "phrase: number 0 names none of the 0 earlier ComplementPhrase "
         "values"),
    ], ids=["past-the-end", "negative", "boolean", "fraction", "none-before",
            "bare-from-obj"])
    def test_a_bad_number_is_refused(self, kind, path, value, message):
        plan = sam_pair_plan()
        if kind == "plan":
            obj = json.loads(ir.document_plan_to_json(plan))
            decode = ir.document_plan_from_json
        elif kind == "sentences":
            obj = json.loads(ir.sentence_plans_to_json(
                plan_sentences(plan, "plain")))
            decode = ir.sentence_plans_from_json
        else:
            obj = {"phrase": {"head": "store"}}

            def decode(text):
                return ir.from_obj(ir.ResolvedComplement, json.loads(text))
        *parents, last = path
        target = obj
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            decode(json.dumps(obj))

    @pytest.mark.parametrize("stage, option, code, old, new, message", [
        ("sentplan", "--plan", 3,
         '{"head":"sugar","premodifiers":["low","blood"]}', "3",
         "root.children[1].complements[0]: number 3 names none of "
         "the 1 earlier ComplementPhrase values"),
        ("realize", "--sentences", 4, '"subject_ref":0', '"subject_ref":4',
         "sentences[1].clauses[0].subject_ref: number 4 names none of the "
         "1 earlier ReferenceSpec values"),
    ], ids=["sentplan", "realize"])
    def test_a_bad_number_is_one_stage_line(self, tmp_path, stage, option,
                                            code, old, new, message):
        plan = sam_pair_plan()
        text = ir.document_plan_to_json(plan) if stage == "sentplan" \
            else ir.sentence_plans_to_json(plan_sentences(plan, "plain"))
        assert old in text
        path = tmp_path / "bad.json"
        path.write_text(text.replace(old, new), encoding="utf-8")
        assert run_cli([stage, option, str(path)]) == \
            (code, "", f"{stage}: {path}: {message}\n")

    def test_a_plan_at_the_nesting_bound_is_encoded(self):
        # The deepest plan validate() accepts, built by hand: relation
        # nodes down to level MAX_NESTING, then a leaf.
        node = ir.Message(subject="sam", verb="rest")
        for _ in range(ir.MAX_NESTING + 1):
            node = seq(node, label="elaboration")
        plan = ir.DocumentPlan(root=node, entities={"sam": SAM})
        assert ir.validate(plan) == []
        assert ir.validate(dataclasses.replace(plan, root=seq(node))) != []
        text = ir.document_plan_to_json(plan)
        assert text == _reference_encoding(plan)
        assert ir.document_plan_from_json(text) == plan

    def test_a_plan_too_deep_to_encode_is_named(self):
        # Deeper than the encoder's frames reach: the check names it
        # without recursing that deep.
        node = ir.Message(subject="sam", verb="rest")
        for _ in range(1000):
            node = seq(node)
        with pytest.raises(DataError) as info:
            ir.document_plan_to_json(
                ir.DocumentPlan(root=node, entities={"sam": SAM}))
        assert str(info.value) == (
            "root.children[0].children[0]... (level 101): relation nodes "
            "nest more than 100 levels below the root")

    def test_sentence_plans_too_deep_to_encode_are_named(self):
        ref = ir.ReferenceSpec(SAM)
        clause = ir.ClauseSpec(ref, "rest")
        for _ in range(1000):
            clause = ir.ClauseSpec(ref, "rest", condition=clause)
        with pytest.raises(DataError) as info:
            ir.sentence_plans_to_json([ir.SentencePlan(clauses=(clause,))])
        assert str(info.value) == ("sentences[0].clauses[0].condition: "
                                   "conditions may not nest below one level")

    def test_files_with_every_field_still_read(self, rng):
        # Files written before defaults were left out spell every field
        # out, as dataclasses.asdict does; each decodes to the value of
        # the compact file and encodes to the compact text.
        for _ in range(20):
            plan = random_document_plan(rng)
            full = _plain(plan, every_field=True)
            assert full == json.loads(json.dumps(dataclasses.asdict(plan)))
            compact = ir.document_plan_to_json(plan)
            decoded = ir.document_plan_from_json(_text(full))
            assert decoded == ir.document_plan_from_json(compact) == plan
            assert ir.document_plan_to_json(decoded) == compact
            for profile in ("fluent", "plain"):
                plans = plan_sentences(plan, profile)
                compact = ir.sentence_plans_to_json(plans)
                decoded = ir.sentence_plans_from_json(
                    _text(_plain(plans, every_field=True)))
                assert decoded == ir.sentence_plans_from_json(compact) == \
                    plans
                assert ir.sentence_plans_to_json(decoded) == compact

    def test_defaults_are_filled_and_factories_called(self):
        one = ir.document_plan_from_json('{"root":null}')
        two = ir.document_plan_from_json('{"root":null}')
        assert one == ir.DocumentPlan(root=None)
        assert one.entities == {} and one.entities is not two.entities
        (sp,) = ir.sentence_plans_from_json(
            '[{"clauses":[{"subject_ref":{"entity":{"id":"sam",'
            '"name":"Sam"}},"verb":"rest"}]}]')
        assert sp == ir.SentencePlan(clauses=(ir.ClauseSpec(
            subject_ref=ir.ReferenceSpec(entity=ir.Entity(id="sam",
                                                          name="Sam")),
            verb="rest"),))

    def test_one_id_with_two_feature_sets_is_not_encoded(self):
        she = dataclasses.replace(SAM, gender="feminine")
        plans = [ir.SentencePlan(clauses=(
            ir.ClauseSpec(subject_ref=ir.ReferenceSpec(entity=SAM),
                          verb="rest"),
            ir.ClauseSpec(subject_ref=ir.ReferenceSpec(entity=she),
                          verb="rest")))]
        with pytest.raises(DataError, match="'sam'"):
            ir.sentence_plans_to_json(plans)

    def test_decoder_refuses_classes_with_init_logic(self):
        @dataclasses.dataclass(frozen=True)
        class Checked:
            n: str

            def __post_init__(self):
                pass

        @dataclasses.dataclass(frozen=True, slots=True)
        class Slotted:
            n: str

        for cls in (Checked, Slotted):
            with pytest.raises(TypeError, match="__init__"):
                ir.from_obj(cls, {"n": "x"})


class TestValidateSentences:
    def test_plans_from_plan_sentences_are_clean(self, rng):
        for _ in range(10):
            plan = random_document_plan(rng)
            for profile in ("fluent", "plain"):
                assert ir.validate_sentences(
                    plan_sentences(plan, profile)) == []

    def test_sentence_without_clauses(self):
        problems = ir.validate_sentences([ir.SentencePlan(clauses=())])
        assert problems == ["sentences[0]: sentence has no clauses"]

    def test_condition_nesting_depth(self):
        ref = ir.ReferenceSpec(entity=SAM)
        inner = ir.ClauseSpec(subject_ref=ref, verb="rest")
        mid = ir.ClauseSpec(subject_ref=ref, verb="rest", condition=inner)
        outer = ir.ClauseSpec(subject_ref=ref, verb="rest", condition=mid)
        ok = ir.SentencePlan(clauses=(mid,))
        bad = ir.SentencePlan(clauses=(outer,))
        problems = ir.validate_sentences([ok, bad])
        assert len(problems) == 1
        assert problems[0].startswith("sentences[1].clauses[0].condition:")

    def test_modal_takes_present_tense(self):
        ref = ir.ReferenceSpec(entity=SAM)
        trigger = ir.ClauseSpec(subject_ref=ref, verb="go", modal="should",
                                tense="future")
        main = ir.ClauseSpec(subject_ref=ref, verb="rest", modal="can",
                             tense="past", condition=trigger)
        assert ir.validate_sentences([ir.SentencePlan(clauses=(main,))]) == [
            "sentences[0].clauses[0]: a modal takes present tense",
            "sentences[0].clauses[0].condition: a modal takes present "
            "tense"]

    def test_decoding_checks_sentences(self):
        text = ir.sentence_plans_to_json([ir.SentencePlan(clauses=())])
        with pytest.raises(DataError, match="no clauses"):
            ir.sentence_plans_from_json(text)

    def test_decoding_runs_only_the_rules(self, rng, monkeypatch):
        # The decoder has checked every type, so decoding does not walk
        # the rows again.
        text = ir.sentence_plans_to_json(
            plan_sentences(random_document_plan(rng), "fluent"))
        monkeypatch.setattr(ir, "_misfits", None)
        assert ir.sentence_plans_from_json(text)

    def test_is_public(self):
        import nlgen
        assert nlgen.validate_sentences is ir.validate_sentences

    def test_one_id_with_two_entities_is_named_alike(self):
        # Two clauses whose subjects are Sam and a plural Sam: the check,
        # the encoder and the decoder name the clash in the same words.
        plans = [ir.SentencePlan(clauses=(
            ir.ClauseSpec(ir.ReferenceSpec(SAM), "rest"),
            ir.ClauseSpec(ir.ReferenceSpec(
                dataclasses.replace(SAM, number="plural")), "rest")))]
        clash = "entity 'sam' is referenced with two different feature sets"
        assert ir.validate_sentences(plans) == \
            oracle.reference_validate_sentences(plans) == [clash]
        for run in (lambda: ir.sentence_plans_to_json(plans),
                    lambda: ir.sentence_plans_from_json(
                        _reference_encoding(plans))):
            with pytest.raises(DataError) as info:
                run()
            assert str(info.value) == clash

    def test_hand_built_plans_are_typed_then_checked(self):
        ref = ir.ReferenceSpec(entity=SAM)
        clause = ir.ClauseSpec(subject_ref=ref, verb="rest")
        for clauses, problems in [
                ((dataclasses.replace(clause, subject_ref=None),),
                 ["sentences[0].clauses[0].subject_ref: expected a "
                  "ReferenceSpec, got null"]),
                ((dataclasses.replace(clause, subject_ref=ir.ReferenceSpec(
                    SAM, mode="they")),),
                 ["sentences[0].clauses[0].subject_ref.mode: unknown value "
                  "'they'; expected one of full-name, pronoun, "
                  "reflexive-pronoun"]),
                ((dataclasses.replace(clause, subject_ref=ir.ReferenceSpec(
                    ir.Entity(id="sam"))),),
                 ["entities[sam]: exactly one of name/head must be given, "
                  "not blank"])]:
            plans = [ir.SentencePlan(clauses=clauses)]
            assert ir.validate_sentences(plans) == \
                oracle.reference_validate_sentences(plans) == problems


# ---------------------------------------------------------------------------
# Faulty plans for comparing the checks with the references in oracle.py.
# Each fault takes a plan (or sentence plans) and an rng that places it.

_BAD_PHRASES = (
    ir.ComplementPhrase(head=" "),
    ir.ComplementPhrase(head="report", premodifiers=("", "new")),
    ir.ComplementPhrase(head="store", preposition=" "),
    ir.ComplementPhrase(head="@sam", determiner="the"),
    ir.ComplementPhrase(head="@sam", preposition="with",
                        premodifiers=("tall",)),
    ir.ComplementPhrase(head="@nobody"),
    ir.ComplementPhrase(head="@ ", premodifiers=(" ",)),
)


def _swap(node, old, new):
    """The tree at ``node`` with the node ``old`` (by identity) made
    ``new``."""
    if node is old:
        return new
    if type(node) is not ir.PlanNode:
        return node
    return dataclasses.replace(node, children=tuple(
        _swap(child, old, new) for child in node.children))


def _edit_message(plan, rng, edit):
    leaves = ir.plan_leaves(plan)
    if not leaves:  # an empty relation node took the last one
        return plan
    target = rng.choice(leaves)
    return dataclasses.replace(
        plan, root=_swap(plan.root, target, edit(target)))


def _add_phrase(plan, rng, bad):
    def edit(msg):
        complements = list(msg.complements)
        complements.insert(rng.randint(0, len(complements)), bad)
        return dataclasses.replace(msg, complements=tuple(complements))
    return _edit_message(plan, rng, edit)


def _nest_conditions(msg):
    inner = dataclasses.replace(msg, condition=None)
    return dataclasses.replace(msg, condition=dataclasses.replace(
        inner, condition=dataclasses.replace(inner, condition=inner)))


def _misshape(plan, rng):
    # A relation node without children, in place of a message or beside
    # it: the one wrong shape a plan file can hold.
    empty = ir.PlanNode(label=rng.choice(ir.RELATION_LABELS), children=())
    return _edit_message(plan, rng, lambda msg: rng.choice([
        empty, seq(msg, empty, label=empty.label)]))


def _too_deep(plan, rng):
    # One or two top-level branches wrapped in about MAX_NESTING relation
    # nodes: some reach just below the bound, some just past it.
    children = list(plan.root.children)
    for i in rng.sample(range(len(children)),
                        rng.randint(1, min(2, len(children)))):
        for _ in range(ir.MAX_NESTING - 1 + rng.randint(0, 3)):
            children[i] = seq(children[i], label="elaboration")
    return dataclasses.replace(plan, root=dataclasses.replace(
        plan.root, children=tuple(children)))


def _shared_bad_phrase(plan, rng):
    bad = rng.choice(_BAD_PHRASES)
    bad = ir.ComplementPhrase(bad.head, bad.determiner, bad.premodifiers,
                              bad.preposition)  # one new object
    for _ in range(3):
        plan = _add_phrase(plan, rng, bad)
    return plan


_PLAN_FAULTS = {
    "blank word": lambda plan, rng: _add_phrase(
        plan, rng, rng.choice(_BAD_PHRASES[:3])),
    "blank adverb": lambda plan, rng: _edit_message(
        plan, rng, lambda msg: dataclasses.replace(msg, adverb=" ")),
    "bad verb": lambda plan, rng: _edit_message(
        plan, rng, lambda msg: dataclasses.replace(
            msg, verb=rng.choice(["Rest", "go home", ""]))),
    "modal tense": lambda plan, rng: _edit_message(
        plan, rng, lambda msg: dataclasses.replace(
            msg, modal="can", tense="past")),
    "unknown entity": lambda plan, rng: rng.choice([
        lambda: _edit_message(plan, rng, lambda msg: dataclasses.replace(
            msg, subject="nobody")),
        lambda: _add_phrase(plan, rng, ir.ComplementPhrase(head="@nobody")),
    ])(),
    "@-head": lambda plan, rng: _add_phrase(
        plan, rng, rng.choice(_BAD_PHRASES[3:])),
    "nested conditions": lambda plan, rng: _edit_message(
        plan, rng, _nest_conditions),
    "node shape": _misshape,
    "too deep": _too_deep,
    "shared bad phrase": _shared_bad_phrase,
}


def _edit_clause(plans, rng, edit):
    """``plans`` with one clause, drawn by rng, made ``edit(clause)``."""
    full = [i for i, sp in enumerate(plans) if sp.clauses]
    if not full:
        return plans
    i = rng.choice(full)
    clauses = list(plans[i].clauses)
    j = rng.randrange(len(clauses))
    clauses[j] = edit(clauses[j])
    return plans[:i] + [dataclasses.replace(
        plans[i], clauses=tuple(clauses))] + plans[i + 1:]


def _add_complement(plans, rng, rc):
    def edit(clause):
        units = list(clause.complements) or [()]
        i = rng.randrange(len(units))
        units[i] += (rc,)
        return dataclasses.replace(clause, complements=tuple(units))
    return _edit_clause(plans, rng, edit)


def _some_entity(plans, rng):
    refs = list(_references(plans))  # none once every clause is gone
    return rng.choice(refs).entity if refs else SAM


def _wrong_ref(plans, rng):
    # A head that names one entity, or none, with another's reference.
    ent = _some_entity(plans, rng)
    head = rng.choice(["@nobody", "@" + ent.id + "x", ent.id])
    return _add_complement(plans, rng, ir.ResolvedComplement(
        ir.ComplementPhrase(head=head), ir.ReferenceSpec(ent)))


def _entity_clash(plans, rng):
    # A reference that holds an entity of the plans with another number.
    ent = _some_entity(plans, rng)
    other = dataclasses.replace(ent, number=rng.choice(
        [n for n in ir.NUMBERS if n != ent.number]))
    return _add_complement(plans, rng, ir.ResolvedComplement(
        ir.ComplementPhrase(head="@" + ent.id), ir.ReferenceSpec(other)))


def _bad_complement(plans, rng):
    ent = _some_entity(plans, rng)
    return rng.choice([
        ir.ResolvedComplement(rng.choice(_BAD_PHRASES[:3])),
        ir.ResolvedComplement(ir.ComplementPhrase(
            head="@" + ent.id, determiner="the"), ir.ReferenceSpec(ent)),
        ir.ResolvedComplement(ir.ComplementPhrase(head="@" + ent.id)),
        ir.ResolvedComplement(ir.ComplementPhrase(head="@nobody"),
                              ir.ReferenceSpec(ent, "pronoun")),
    ])


def _shared_bad_complement(plans, rng):
    bad = _bad_complement(plans, rng)
    bad = ir.ResolvedComplement(bad.phrase, bad.ref)  # one new object
    for _ in range(3):
        plans = _add_complement(plans, rng, bad)
    return plans


def _no_clauses(plans, rng):
    i = rng.randrange(len(plans))
    return plans[:i] + [dataclasses.replace(plans[i], clauses=())] + \
        plans[i + 1:]


def _nest_clauses(clause):
    inner = dataclasses.replace(clause, condition=None)
    return dataclasses.replace(clause, condition=dataclasses.replace(
        inner, condition=dataclasses.replace(inner, condition=inner)))


_SENTENCE_FAULTS = {
    "blank word": lambda plans, rng: _add_complement(
        plans, rng, ir.ResolvedComplement(rng.choice(_BAD_PHRASES[:3]))),
    "blank marker": lambda plans, rng: _edit_clause(
        plans, rng, lambda clause: dataclasses.replace(
            clause, discourse_markers=clause.discourse_markers + (" ",))),
    "bad verb": lambda plans, rng: _edit_clause(
        plans, rng, lambda clause: dataclasses.replace(
            clause, verb="Rest", modal=rng.choice([None, "can"]),
            tense="past")),
    "unknown entity": _wrong_ref,
    "entity clash": _entity_clash,
    "@-head": lambda plans, rng: _add_complement(
        plans, rng, _bad_complement(plans, rng)),
    "nested conditions": lambda plans, rng: _edit_clause(
        plans, rng, _nest_clauses),
    "clause shape": lambda plans, rng: rng.choice([
        lambda: _no_clauses(plans, rng),
        lambda: _edit_clause(plans, rng, lambda clause: dataclasses.replace(
            clause, complements=clause.complements + ((),))),
    ])(),
    "shared bad complement": _shared_bad_complement,
}


def _decoded_plan(plan):
    """``plan`` read back from its file, not checked."""
    return ir.from_obj(ir.DocumentPlan,
                       json.loads(ir.document_plan_to_json(plan)))


def _decoded_sentences(plans):
    """``plans`` read back from their file, not checked; the file is
    written by the reference encoder, which refuses nothing."""
    return ir.from_obj(list[ir.SentencePlan],
                       json.loads(_reference_encoding(plans)))


class TestChecksMatchReference:
    # validate() and validate_sentences() format a path only for a value
    # that fails and check each complement object once per call; the
    # references in oracle.py format every path and check every use.
    # Both must name the same problems in the same order, on plans built
    # by hand and on plans read back from their files, where one object
    # stands for every use of a value.

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           faults=st.lists(st.sampled_from(sorted(_PLAN_FAULTS)),
                           max_size=4, unique=True))
    def test_validate(self, seed, faults):
        rng = random.Random(seed)
        plan = random_document_plan(rng)
        for fault in faults:
            plan = _PLAN_FAULTS[fault](plan, rng)
        expected = oracle.reference_validate(plan)
        assert bool(expected) == bool(faults) or "too deep" in faults
        assert ir.validate(plan) == expected
        decoded = _decoded_plan(plan)
        assert decoded == plan
        assert ir.validate(decoded) == oracle.reference_validate(decoded) \
            == expected

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           profile=st.sampled_from(["fluent", "plain"]),
           faults=st.lists(st.sampled_from(sorted(_SENTENCE_FAULTS)),
                           max_size=4, unique=True))
    def test_validate_sentences(self, seed, profile, faults):
        rng = random.Random(seed)
        plans = plan_sentences(random_document_plan(rng), profile)
        for fault in faults:
            plans = _SENTENCE_FAULTS[fault](plans, rng)
        expected = oracle.reference_validate_sentences(plans)
        assert bool(expected) == bool(faults)
        assert ir.validate_sentences(plans) == expected
        decoded = _decoded_sentences(plans)
        assert decoded == plans
        assert ir.validate_sentences(decoded) == \
            oracle.reference_validate_sentences(decoded) == expected

    def test_a_shared_bad_phrase_is_named_at_each_use(self):
        bad = ir.ComplementPhrase(head="@sam", determiner="the")
        msg = ir.Message(subject="sam", verb="see", complements=(bad, bad))
        plan = ir.DocumentPlan(root=seq(msg, msg),
                               entities={"sam": SAM})
        rule = ir.ENTITY_HEAD_RULE
        assert ir.validate(plan) == oracle.reference_validate(plan) == [
            f"root.children[{i}].complements[{j}]: {rule}"
            for i in (0, 1) for j in (0, 1)]


# Values no plan field holds, put in place of one field of one object.
_JUNK = (None, 0, True, "", [], {}, object())


def _plan_objects(value) -> list:
    """Every plan object in a plan value, once each."""
    found, seen, stack = [], set(), [value]
    while stack:
        v = stack.pop()
        if dataclasses.is_dataclass(v) and id(v) not in seen:
            seen.add(id(v))
            found.append(v)
            stack += [getattr(v, f.name) for f in dataclasses.fields(v)]
        elif isinstance(v, (tuple, list)):
            stack += v
        elif isinstance(v, dict):
            stack += v.values()
    return found


def _swapped(value, old, new):
    """``value`` rebuilt with the plan object ``old`` made ``new`` at every
    use; objects shared before are shared after."""
    memo: dict = {}

    def swap(v):
        if v is old:
            return new
        if id(v) not in memo:
            if dataclasses.is_dataclass(v):
                memo[id(v)] = type(v)(**{f.name: swap(getattr(v, f.name))
                                         for f in dataclasses.fields(v)})
            elif type(v) in (tuple, list):
                memo[id(v)] = type(v)(map(swap, v))
            elif type(v) is dict:
                memo[id(v)] = {k: swap(x) for k, x in v.items()}
            else:
                return v
        return memo[id(v)]
    return swap(value)


class TestJunkFields:
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           profile=st.sampled_from(["fluent", "plain"]),
           sentences=st.booleans(),
           junk=st.sampled_from(range(len(_JUNK))))
    def test_a_junk_field_is_named_or_harmless(self, seed, profile,
                                               sentences, junk):
        # One field of one object of a plan, or of its sentence plans,
        # holds a value of the wrong type.  The checks name it, as the
        # references in oracle.py do, and raise nothing; the encoders
        # raise only DataError; and a plan the checks pass reads back
        # equal from its file and generates text or an NlgenError.
        rng = random.Random(seed)
        plan = random_document_plan(rng)
        value = plan_sentences(plan, profile) if sentences else plan
        target = rng.choice(_plan_objects(value))
        name = rng.choice([f.name for f in dataclasses.fields(target)])
        bad = _swapped(value, target, dataclasses.replace(
            target, **{name: _JUNK[junk]}))
        if sentences:
            check, reference = ir.validate_sentences, \
                oracle.reference_validate_sentences
            encode, decode = ir.sentence_plans_to_json, \
                ir.sentence_plans_from_json
            tp = list[ir.SentencePlan]
        else:
            check, reference = ir.validate, oracle.reference_validate
            encode, decode = ir.document_plan_to_json, \
                ir.document_plan_from_json
            tp = ir.DocumentPlan
        problems = check(bad)
        assert type(problems) is list
        assert problems == reference(bad)
        try:
            text = encode(bad)
        except DataError:
            assert problems
            return
        # The encoders refuse every value that its field's row refuses,
        # so what they write reads back as the plan it was.
        assert ir.from_obj(tp, json.loads(text)) == bad
        if problems:
            return
        assert decode(text) == bad
        try:
            realize_document(bad if sentences else
                             plan_sentences(bad, profile))
        except NlgenError:
            pass


def _junk_plan(seed, profile, sentences, junk):
    """A random plan, or its sentence plans, with one field of one object
    holding _JUNK[junk]."""
    rng = random.Random(seed)
    plan = random_document_plan(rng)
    value = plan_sentences(plan, profile) if sentences else plan
    target = rng.choice(_plan_objects(value))
    name = rng.choice([f.name for f in dataclasses.fields(target)])
    return _swapped(value, target, dataclasses.replace(
        target, **{name: _JUNK[junk]}))


# Characters a byte edit writes into a plan file: JSON's punctuation, some
# digits and letters of its literals and of the plans' words.
_FILE_CHARS = '{}[]:,"-019 .abeilnorstu'
# Values a value edit writes in place of one of a parsed file's values,
# besides the file's own values.
_FILE_VALUES = (None, 0, 1, True, "", "rest", [], {})


def _slots(value) -> list[tuple]:
    """(container, key) for every value inside a parsed JSON value."""
    slots, stack = [], [value]
    while stack:
        v = stack.pop()
        items = v.items() if type(v) is dict else enumerate(v) \
            if type(v) is list else ()
        for key, item in items:
            slots.append((v, key))
            stack.append(item)
    return slots


class TestDecodedPlansFit:
    # A decoded plan fits its rows, so decoding runs the rules alone: the
    # decoder refuses what the rows refuse, and decoding a file refuses
    # the plan it was written from as the public check does.
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1),
           profile=st.sampled_from(["fluent", "plain"]),
           sentences=st.booleans(),
           junk=st.sampled_from(range(len(_JUNK))))
    def test_decoding_names_what_the_check_names(self, seed, profile,
                                                 sentences, junk):
        bad = _junk_plan(seed, profile, sentences, junk)
        if sentences:
            check, encode, decode = ir.validate_sentences, \
                ir.sentence_plans_to_json, ir.sentence_plans_from_json
        else:
            check, encode, decode = ir.validate, ir.document_plan_to_json, \
                ir.document_plan_from_json
        problems = check(bad)
        try:
            text = encode(bad)
        except DataError:
            return
        try:
            decoded = decode(text)
        except DataError as exc:
            assert problems and str(exc) == ir.summarize(problems)
        else:
            assert (decoded, problems) == (bad, [])

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), sentences=st.booleans(),
           edits=st.lists(st.tuples(st.integers(0, 10**6),
                                    st.integers(0, 2),
                                    st.text(_FILE_CHARS, max_size=2)),
                          max_size=3),
           swaps=st.lists(st.tuples(st.integers(0, 10**6),
                                    st.integers(0, 10**6)), max_size=2))
    def test_what_decodes_fits_its_rows(self, seed, sentences, edits,
                                        swaps):
        # A random plan file with byte edits, each cutting up to two
        # characters at a point and writing up to two in their place,
        # then value edits, each putting one of _FILE_VALUES or a copy of
        # one of the file's values in place of one of its values.
        plan = random_document_plan(random.Random(seed))
        if sentences:
            tp = list[ir.SentencePlan]
            text = ir.sentence_plans_to_json(plan_sentences(plan, "fluent"))
        else:
            tp, text = ir.DocumentPlan, ir.document_plan_to_json(plan)
        for where, cut, new in edits:
            at = where % (len(text) + 1)
            text = text[:at] + new + text[at + cut:]
        try:
            value = json.loads(text)
        except ValueError:
            return
        for where, pick in swaps:
            slots = _slots(value)
            if slots:
                container, key = slots[where % len(slots)]
                pool = _FILE_VALUES + tuple(c[k] for c, k in slots)
                container[key] = copy.deepcopy(pool[pick % len(pool)])
        try:
            decoded = ir.from_obj(tp, value)
        except DataError:
            return
        assert ir._misfits(decoded, ir._row(tp), "") == []


class TestOracleAgreement:
    def test_sentence_side_equals_document_side(self, rng):
        # Both sides read back from their JSON files, as the
        # plan | sentplan pipe passes them.
        for _ in range(30):
            plan = ir.document_plan_from_json(
                ir.document_plan_to_json(random_document_plan(rng)))
            for profile in ("fluent", "plain"):
                plans = ir.sentence_plans_from_json(
                    ir.sentence_plans_to_json(plan_sentences(plan, profile)))
                assert oracle.expand_sentence_plans(plans) == \
                    oracle.expand_document_plan(plan)
