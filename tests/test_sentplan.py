import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlgen
from nlgen import ir, realize, schema, sentplan
from nlgen.errors import DataError

import oracle
from conftest import random_document_plan, shared_objects

SAM = ir.Entity(id="sam", name="Sam", gender="masculine",
                number="singular")
JOHN = ir.Entity(id="john", name="John", gender="masculine",
                 number="singular")
MRS_BLACK = ir.Entity(id="mrs_black", name="Black", honorific="Mrs.",
                      gender="feminine", number="singular")
SPEAKER = ir.Entity(id="speaker", head="speaker", person="first")

ENTITIES = {e.id: e for e in (SAM, JOHN, MRS_BLACK, SPEAKER)}


def np(*premods, head, det=None, prep=None):
    return ir.ComplementPhrase(head=head, determiner=det,
                               premodifiers=tuple(premods), preposition=prep)


def message(subject, verb, *comps, **kw):
    return ir.Message(subject=subject, verb=verb,
                      complements=tuple(comps), **kw)


def plan_of(*messages, entities=None):
    root = ir.PlanNode(label="sequence", children=messages)
    return ir.DocumentPlan(root=root, entities=dict(entities or ENTITIES))


def render(plans):
    return realize.realize_document(plans)


class TestAggregate:
    def test_same_shape_messages_merge(self):
        msgs = [message("sam", "have", np("high", "blood",
                                          head="pressure")),
                message("sam", "have", np("low", "blood", head="sugar"))]
        clauses = sentplan.aggregate(msgs, ENTITIES)
        assert len(clauses) == 1
        assert len(clauses[0].complements) == 2

    def test_different_subjects_stay_apart(self):
        msgs = [message("sam", "have", np(head="pressure")),
                message("mrs_black", "have", np(head="temperature"))]
        assert len(sentplan.aggregate(msgs, ENTITIES)) == 2

    def test_different_tense_blocks_merge(self):
        msgs = [message("sam", "see", np(head="report"), tense="past"),
                message("sam", "see", np(head="report"))]
        assert len(sentplan.aggregate(msgs, ENTITIES)) == 2

    def test_cap_splits_groups_three_and_two(self):
        msgs = [message("sam", "need", np(head=h))
                for h in ("rest", "water", "time", "help", "sleep")]
        clauses = sentplan.aggregate(msgs, ENTITIES)
        assert [len(c.complements) for c in clauses] == [3, 2]
        # Brute-force re-expansion reproduces the original five tuples.
        plans = [ir.SentencePlan(clauses=(c,)) for c in clauses]
        assert oracle.subject_verb_multiset(plans) == \
            oracle.message_subject_verb_multiset(msgs)

    def test_condition_bearing_messages_never_merge(self):
        trigger = message("sam", "go", np(head="hospital", det="the",
                                          prep="to"))
        msgs = [message("sam", "go", np(head="store", det="the",
                                        prep="to"), condition=trigger),
                message("sam", "go", np(head="office", det="the",
                                        prep="to"))]
        assert len(sentplan.aggregate(msgs, ENTITIES)) == 2

    def test_complementless_messages_never_merge(self):
        msgs = [message("sam", "rest"), message("sam", "rest")]
        assert len(sentplan.aggregate(msgs, ENTITIES)) == 2

    def test_adverb_mismatch_blocks_merge(self):
        msgs = [message("sam", "see", np(head="report"), adverb="just"),
                message("sam", "see", np(head="result"))]
        assert len(sentplan.aggregate(msgs, ENTITIES)) == 2

    def test_order_preserved(self):
        msgs = [message("sam", "have", np(head="pressure")),
                message("mrs_black", "rest"),
                message("sam", "have", np(head="sugar"))]
        clauses = sentplan.aggregate(msgs, ENTITIES)
        assert [c.subject_ref.entity.id for c in clauses] == \
            ["sam", "mrs_black", "sam"]

    def test_subject_verb_multiset_preserved(self, rng):
        for _ in range(20):
            plan = random_document_plan(rng)
            messages = ir.plan_leaves(plan)
            clauses = sentplan.aggregate(messages, plan.entities)
            plans = [ir.SentencePlan(clauses=(c,)) for c in clauses]
            assert oracle.subject_verb_multiset(plans) == \
                oracle.message_subject_verb_multiset(messages)


class TestDiscourseMarkers:
    def fixture_plans(self):
        trigger = message("sam", "go", np(head="hospital", det="the",
                                          prep="to"))
        main = message("sam", "go", np(head="store", det="the",
                                       prep="to"),
                       modal="should", condition=trigger)
        return [ir.SentencePlan(
            clauses=(sentplan._build_clause(main, ENTITIES),))]

    def test_also_attached_pre_verb(self):
        plans = sentplan.insert_discourse_markers(self.fixture_plans())
        markers = plans[0].clauses[0].discourse_markers
        assert markers == ("also",)

    def test_different_verbs_leave_plan_alone(self):
        trigger = message("sam", "go", np(head="hospital", det="the",
                                          prep="to"))
        main = message("sam", "rest", modal="should", condition=trigger)
        plans = [ir.SentencePlan(
            clauses=(sentplan._build_clause(main, ENTITIES),))]
        assert sentplan.insert_discourse_markers(plans) == plans

    def test_same_complements_leave_plan_alone(self):
        trigger = message("sam", "go", np(head="store", det="the",
                                          prep="to"))
        main = message("sam", "go", np(head="store", det="the",
                                       prep="to"),
                       modal="should", condition=trigger)
        plans = [ir.SentencePlan(
            clauses=(sentplan._build_clause(main, ENTITIES),))]
        assert sentplan.insert_discourse_markers(plans) == plans

    def test_sentence_without_conditional_is_returned_as_given(self):
        plans = sentplan.plan_sentences(
            plan_of(message("sam", "go", np(head="store", det="the",
                                            prep="to"))), "plain")
        assert sentplan.insert_discourse_markers(plans)[0] is plans[0]

    def test_phrase_key_tells_apart_what_the_kind_key_did(self):
        # The key once began with ComplementPhrase.kind and wrote a
        # missing preposition as "none"; written out here, that key and
        # today's call the same pairs of phrases equal.
        def kind_key(phrase):
            ref = phrase.head.startswith("@") and phrase.head[1:]
            return (phrase.kind, phrase.determiner or "none",
                    tuple(sorted(p.lower() for p in phrase.premodifiers)),
                    phrase.head if ref else phrase.head.lower(),
                    phrase.preposition or "none")

        phrases = [
            ir.ComplementPhrase(head=head, determiner=det,
                                premodifiers=mods, preposition=prep)
            for head in ("@x", "X", "x")
            for det in (None, "a", "the")
            for mods in ((), ("big", "Red"), ("red", "big"))
            for prep in (None, "", "none", "to")]
        for one in phrases:
            for other in phrases:
                assert (kind_key(one) == kind_key(other)) == \
                    (sentplan._normalize_phrase(one)
                     == sentplan._normalize_phrase(other)), (one, other)

    def test_idempotent(self):
        once = sentplan.insert_discourse_markers(self.fixture_plans())
        twice = sentplan.insert_discourse_markers(once)
        assert once == twice


class TestPronominalize:
    def build(self, *messages, profile="plain"):
        return sentplan.plan_sentences(plan_of(*messages), profile)

    def test_repeated_subject_becomes_pronoun(self):
        plans = self.build(
            message("speaker", "see", np(head="@mrs_black"), tense="past",
                    adverb="just"),
            message("mrs_black", "have", np("high", head="temperature",
                                            det="a")))
        out = sentplan.pronominalize(plans, ENTITIES)
        assert out[1].clauses[0].subject_ref.mode == "pronoun"
        assert render(out) == \
            "I just saw Mrs. Black. She has a high temperature."

    def test_first_mention_stays_full(self):
        plans = self.build(
            message("mrs_black", "have", np(head="temperature", det="a")))
        out = sentplan.pronominalize(plans, ENTITIES)
        assert out[0].clauses[0].subject_ref.mode == "full-name"

    def test_window_is_one_sentence(self):
        plans = self.build(
            message("sam", "rest"),
            message("mrs_black", "rest"),
            message("sam", "rest"))
        out = sentplan.pronominalize(plans, ENTITIES)
        # Two sentences back is out of the window.
        assert out[2].clauses[0].subject_ref.mode == "full-name"

    def test_gender_competitor_blocks_pronoun(self):
        plans = self.build(
            message("sam", "see", np(head="@john")),
            message("sam", "rest"))
        out = sentplan.pronominalize(plans, ENTITIES)
        assert out[1].clauses[0].subject_ref.mode == "full-name"

    def test_different_gender_does_not_block(self):
        plans = self.build(
            message("sam", "see", np(head="@mrs_black")),
            message("sam", "rest"))
        out = sentplan.pronominalize(plans, ENTITIES)
        assert out[1].clauses[0].subject_ref.mode == "pronoun"

    def test_object_coreferent_with_subject_is_reflexive(self):
        plans = self.build(
            message("john", "see", np(head="@john"), tense="past"))
        out = sentplan.pronominalize(plans, ENTITIES)
        ref = out[0].clauses[0].complements[0][0].ref
        assert ref.mode == "reflexive-pronoun"
        assert render(out) == "John saw himself."

    @pytest.mark.parametrize("features, fluent, plain", [
        ('"person": "first"', "I see myself.", "I see me."),
        ('"person": "first", "number": "plural"', "We see ourselves.",
         "We see us."),
        ('"person": "second"', "You see yourself.", "You see you."),
        ('"person": "second", "number": "plural"', "You see yourselves.",
         "You see you."),
    ])
    def test_speaker_and_hearer_objects_are_reflexive(self, features,
                                                      fluent, plain):
        # Binding applies in every person; the plain profile writes every
        # reference as given and so keeps no reflexive.
        parsed = schema.parse_schema(
            "schema s\nnode a emit subject=path(r.who) verb=see "
            "complement=path(r.obj)\n")
        data = schema.load_data(
            f'{{"entities": {{"me": {{"head": "speaker", {features}}}}}, '
            f'"records": {{"r": {{"who": "@me", "obj": "@me"}}}}}}')
        assert nlgen.generate_text(parsed, data, profile="fluent") == fluent
        assert nlgen.generate_text(parsed, data, profile="plain") == plain

    def test_condition_clause_licenses_main_subject(self):
        trigger = message("sam", "go", np(head="hospital", det="the",
                                          prep="to"))
        plans = self.build(
            message("sam", "go", np(head="store", det="the", prep="to"),
                    modal="should", condition=trigger))
        out = sentplan.pronominalize(plans, ENTITIES)
        clause = out[0].clauses[0]
        assert clause.condition.subject_ref.mode == "full-name"
        assert clause.subject_ref.mode == "pronoun"

    def test_condition_complement_reflexive_to_condition_subject(self):
        # Inside "if ..." the local subject is the condition's subject: a
        # complement coreferent with it is reflexive, one coreferent with
        # the main subject is not.
        trigger = message("sam", "see", np(head="@sam"),
                          np(head="@mrs_black", prep="with"))
        plans = self.build(
            message("mrs_black", "rest", modal="should", condition=trigger))
        out = sentplan.pronominalize(plans, ENTITIES)
        cond = out[0].clauses[0].condition
        assert [rc.ref.mode for rc in cond.complements[0]] == \
            ["reflexive-pronoun", "full-name"]
        assert out[0].clauses[0].subject_ref.mode == "pronoun"
        assert render(out) == \
            "If Sam sees himself with Mrs. Black, she should rest."

    def test_sentences_without_pronouns_are_returned_as_given(self):
        plans = self.build(
            message("sam", "rest"),
            message("mrs_black", "see", np(head="@john")),
            message("mrs_black", "rest"))
        out = sentplan.pronominalize(plans, ENTITIES)
        assert out[0] is plans[0]
        assert out[1] is plans[1]
        assert out[2] is not plans[2]
        assert out[2].clauses[0].subject_ref.mode == "pronoun"

    def test_unknown_entity_is_lookup_failure(self):
        plans = self.build(message("sam", "rest"))
        with pytest.raises(DataError):
            sentplan.pronominalize(plans, {})

    def test_pronouns_recoverable_on_random_plans(self, rng):
        for _ in range(30):
            plan = random_document_plan(rng)
            plans = sentplan.plan_sentences(plan, "fluent")
            assert oracle.check_pronouns_recoverable(plans) == []


class TestPlanSentences:
    def sam_pair(self):
        return plan_of(
            message("sam", "have", np("high", "blood", head="pressure")),
            message("sam", "have", np("low", "blood", head="sugar")))

    def test_fluent_aggregates_to_one_sentence(self):
        plans = sentplan.plan_sentences(self.sam_pair(), "fluent")
        assert len(plans) == 1
        assert len(plans[0].clauses[0].complements) == 2

    def test_plain_keeps_two_sentences(self):
        plans = sentplan.plan_sentences(self.sam_pair(), "plain")
        assert len(plans) == 2
        for sp in plans:
            assert sp.clauses[0].subject_ref.mode == "full-name"

    def test_single_leaf_fluent_equals_plain(self):
        plan = plan_of(message("sam", "rest"))
        assert sentplan.plan_sentences(plan, "fluent") == \
            sentplan.plan_sentences(plan, "plain")

    def test_plain_sentence_count_is_leaf_count(self, rng):
        for _ in range(20):
            plan = random_document_plan(rng)
            leaves = len(ir.plan_leaves(plan))
            plain = sentplan.plan_sentences(plan, "plain")
            fluent = sentplan.plan_sentences(plan, "fluent")
            assert len(plain) == leaves
            assert len(fluent) <= len(plain)

    def test_information_preserved_on_corpus(self, corpus):
        from nlgen import traverse

        for doc in corpus:
            plan = traverse(doc.schema, doc.data)
            want = oracle.expand_document_plan(plan)
            for profile in ("fluent", "plain"):
                plans = sentplan.plan_sentences(plan, profile)
                assert oracle.expand_sentence_plans(plans) == want, \
                    (doc.name, profile)

    def test_information_preserved_on_random_plans(self, rng):
        for _ in range(30):
            plan = random_document_plan(rng)
            want = oracle.expand_document_plan(plan)
            for profile in ("fluent", "plain"):
                assert oracle.expand_sentence_plans(
                    sentplan.plan_sentences(plan, profile)) == want

    def test_paragraphs_follow_root_relation_children(self):
        sub = ir.PlanNode(label="elaboration",
                          children=(message("sam", "rest"),))
        root = ir.PlanNode(
            label="sequence",
            children=(message("sam", "rest"), message("sam", "rest"), sub))
        plan = ir.DocumentPlan(root=root, entities=ENTITIES)
        plans = sentplan.plan_sentences(plan, "plain")
        assert [sp.new_paragraph for sp in plans] == [False, False, True]

    def test_plain_has_no_inserted_markers(self):
        trigger = message("sam", "go", np(head="hospital", det="the",
                                          prep="to"))
        plan = plan_of(message("sam", "go",
                               np(head="store", det="the", prep="to"),
                               modal="should", condition=trigger))
        plans = sentplan.plan_sentences(plan, "plain")
        assert plans[0].clauses[0].discourse_markers == ()

    def test_plain_keeps_authored_adverbs(self):
        plan = plan_of(message("speaker", "see", np(head="@mrs_black"),
                               tense="past", adverb="just"))
        plans = sentplan.plan_sentences(plan, "plain")
        assert plans[0].clauses[0].discourse_markers == ("just",)

    def test_invalid_plan_rejected(self):
        bad = dataclasses.replace(self.sam_pair(), entities={})
        with pytest.raises(DataError):
            sentplan.plan_sentences(bad, "fluent")

    def test_plans_are_not_validated_again(self, corpus, monkeypatch):
        def fail(plan):
            raise AssertionError("validate called")

        monkeypatch.setattr(ir, "validate", fail)
        for doc in corpus:
            plan = schema.traverse(doc.schema, doc.data)
            for profile in sentplan.PROFILES:
                assert sentplan.plan_sentences(plan, profile)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            sentplan.plan_sentences(self.sam_pair(), "casual")

    def test_pass_order_markers_then_pronouns(self):
        # The conditional fixture needs markers computed on aggregated
        # clauses and pronouns computed last; end to end that yields the
        # "he should also" shape.
        trigger = message("sam", "go", np(head="hospital", det="the",
                                          prep="to"))
        plan = plan_of(message("sam", "go",
                               np(head="store", det="the", prep="to"),
                               modal="should", condition=trigger))
        plans = sentplan.plan_sentences(plan, "fluent")
        assert render(plans) == \
            "If Sam goes to the hospital, he should also go to the store."


def with_merge_runs(plan, rng):
    """``plan`` with most leaves taking the previous leaf's subject, verb,
    tense, modal, polarity and adverb, so that aggregation sees runs of
    mergeable messages, up to the cap and beyond."""
    prev = None

    def rewrite(node):
        nonlocal prev
        if type(node) is ir.PlanNode:
            return dataclasses.replace(
                node, children=tuple(rewrite(c) for c in node.children))
        msg = node
        if prev is not None and rng.random() < 0.7:
            msg = dataclasses.replace(
                msg, subject=prev.subject, verb=prev.verb, tense=prev.tense,
                modal=prev.modal, polarity=prev.polarity,
                adverb=prev.adverb, condition=None)
        prev = msg
        return msg

    return dataclasses.replace(plan, root=rewrite(plan.root))


class TestSharedReferences:
    """One plan_sentences() call makes each reference and resolved
    complement once."""

    def test_one_reference_per_entity_and_mode(self):
        at_sam = np(head="@sam", prep="with")
        plan = plan_of(message("sam", "rest"), message("sam", "sleep"),
                       message("mrs_black", "eat", at_sam),
                       message("mrs_black", "sit", at_sam))
        fluent = sentplan.plan_sentences(plan, "fluent")
        assert render(fluent) == "Sam rests. He sleeps. Mrs. Black eats " \
            "with him. She sits with him."
        he = fluent[1].clauses[0].subject_ref
        first, second = (sp.clauses[0].complements[0][0]
                         for sp in fluent[2:])
        assert he.mode == "pronoun" and first.ref is he
        assert first is second
        plain = sentplan.plan_sentences(plan, "plain")
        sam = plain[0].clauses[0].subject_ref
        assert sam.mode == "full-name" and plain[1].clauses[0].subject_ref \
            is sam
        first, second = (sp.clauses[0].complements[0][0]
                         for sp in plain[2:])
        assert first is second and first.ref is sam

    def test_the_staged_path_shares_what_the_direct_path_shares(self,
                                                                corpus):
        def objects(value):  # distinct objects of each shared type
            unique = {id(v): v for v in shared_objects(value)}.values()
            return Counter(type(v).__name__ for v in unique)

        for doc in corpus:
            plan = schema.traverse(doc.schema, doc.data)
            decoded = ir.document_plan_from_json(
                ir.document_plan_to_json(plan))
            for profile in sentplan.PROFILES:
                direct = sentplan.plan_sentences(plan, profile)
                for plans in (direct, sentplan.plan_sentences(decoded,
                                                              profile)):
                    again = ir.sentence_plans_from_json(
                        ir.sentence_plans_to_json(plans))
                    assert objects(plans) == objects(again) == \
                        objects(direct), (doc.name, profile)

    def test_each_call_makes_its_own(self):
        plan = plan_of(message("sam", "rest"))
        first, second = (sentplan.plan_sentences(plan, "plain")
                         for _ in range(2))
        assert first == second
        assert first[0].clauses[0].subject_ref is not \
            second[0].clauses[0].subject_ref


class TestReferencePasses:
    """The passes against the copy-and-replace references in oracle.py."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_plan_sentences_matches_reference(self, seed):
        rng = random.Random(seed)
        plan = random_document_plan(rng)
        for plan in (plan, with_merge_runs(plan, rng)):
            for profile in ("plain", "fluent"):
                out = sentplan.plan_sentences(plan, profile)
                assert out == oracle.reference_plan_sentences(plan, profile)
            # A second run over the fluent output starts from modes and
            # markers already set.
            assert sentplan.pronominalize(out, plan.entities) == \
                oracle.reference_pronominalize(out, plan.entities)
            assert sentplan.insert_discourse_markers(out) == \
                oracle.reference_insert_discourse_markers(out)
