import dataclasses
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlgen
from nlgen import ir, realize, schema
from nlgen.lexicon import default_lexicon
from nlgen.realize import boundary, punct, word

import oracle
from conftest import random_document_plan

SAM = ir.Entity(id="sam", name="Sam", gender="masculine",
                number="singular")
JOHN = ir.Entity(id="john", name="John", gender="masculine",
                 number="singular")
SPEAKER = ir.Entity(id="speaker", head="speaker", person="first")
MRS_BLACK = ir.Entity(id="mrs_black", name="Black", honorific="Mrs.",
                      gender="feminine", number="singular")
PATIENT = ir.Entity(id="patient", head="patient", gender="masculine",
                    number="singular")


def np(*premods, head, det=None, prep=None):
    phrase = ir.ComplementPhrase(head=head, determiner=det,
                                 premodifiers=tuple(premods),
                                 preposition=prep)
    return ir.ResolvedComplement(phrase=phrase)


def entity_comp(ent, mode="full-name", prep=None):
    phrase = ir.ComplementPhrase(head="@" + ent.id, preposition=prep)
    return ir.ResolvedComplement(
        phrase=phrase, ref=ir.ReferenceSpec(entity=ent, mode=mode))


def clause(subject, verb, *units, mode="full-name", tense="present",
           modal=None, polarity="positive", markers=(), condition=None):
    return ir.ClauseSpec(
        subject_ref=ir.ReferenceSpec(entity=subject, mode=mode),
        verb=verb,
        tense=tense,
        modal=modal,
        polarity=polarity,
        complements=tuple(units),
        discourse_markers=tuple(markers),
        condition=condition,
    )


def sentence(*clauses, new_paragraph=False):
    return ir.SentencePlan(clauses=tuple(clauses),
                           new_paragraph=new_paragraph)


def words_of(stream):
    return [t.text for t in stream if t.kind == "word"]


def has_text(phrase, lex=None):
    """Text of "Sam has" and one complement phrase."""
    return realize.realize_document(
        [sentence(clause(SAM, "have", (phrase,)))], lex)


class TestRealizeSentence:
    def test_aggregated_findings(self):
        c = clause(SAM, "have",
                   (np("high", "blood", head="pressure"),),
                   (np("low", "blood", head="sugar"),))
        stream = realize.realize_sentence(sentence(c))
        assert words_of(stream) == ["Sam", "has", "high", "blood",
                                    "pressure", "and", "low", "blood",
                                    "sugar"]
        assert realize.orthography(stream) == \
            "Sam has high blood pressure and low blood sugar."

    def test_conditional_with_marker(self):
        trigger = clause(SAM, "go",
                         (np(head="hospital", det="the", prep="to"),))
        main = clause(SAM, "go",
                      (np(head="store", det="the", prep="to"),),
                      mode="pronoun", modal="should", markers=("also",),
                      condition=trigger)
        text = realize.orthography(realize.realize_sentence(sentence(main)))
        assert text == ("If Sam goes to the hospital, he should also go "
                        "to the store.")

    def test_reflexive_object(self):
        c = clause(JOHN, "see",
                   (entity_comp(JOHN, mode="reflexive-pronoun"),),
                   tense="past")
        text = realize.orthography(realize.realize_sentence(sentence(c)))
        assert text == "John saw himself."

    def test_pronoun_case_follows_position(self):
        c = clause(JOHN, "see", (entity_comp(MRS_BLACK, mode="pronoun"),),
                   mode="pronoun")
        text = realize.orthography(realize.realize_sentence(sentence(c)))
        assert text == "He sees her."

    def test_first_person_agreement(self):
        c = clause(SPEAKER, "be", (np(head="here"),))
        text = realize.orthography(realize.realize_sentence(sentence(c)))
        assert text == "I am here."

    def test_adverb_before_inflected_verb(self):
        c = clause(SPEAKER, "see", (entity_comp(MRS_BLACK),),
                   tense="past", markers=("just",))
        text = realize.orthography(realize.realize_sentence(sentence(c)))
        assert text == "I just saw Mrs. Black."

    def test_three_way_coordination_has_no_oxford_comma(self):
        c = clause(SAM, "need", (np(head="rest"),), (np(head="water"),),
                   (np(head="time"),))
        text = realize.orthography(realize.realize_sentence(sentence(c)))
        assert text == "Sam needs rest, water and time."

    def test_head_noun_reference(self):
        c = clause(PATIENT, "rest")
        text = realize.orthography(realize.realize_sentence(sentence(c)))
        assert text == "The patient rests."

    def test_negation_uses_do_support(self):
        c = clause(SAM, "have", (np(head="appointment", det="a"),),
                   polarity="negative")
        text = realize.orthography(realize.realize_sentence(sentence(c)))
        assert text == "Sam does not have an appointment."

    def test_negated_modal(self):
        c = clause(SAM, "go", (np(head="store", det="the", prep="to"),),
                   modal="should", polarity="negative")
        text = realize.orthography(realize.realize_sentence(sentence(c)))
        assert text == "Sam should not go to the store."

    def test_future_tense(self):
        c = clause(SAM, "go", (np(head="store", det="the", prep="to"),),
                   tense="future")
        text = realize.orthography(realize.realize_sentence(sentence(c)))
        assert text == "Sam will go to the store."

    def test_subject_verb_agreement_goes_through_lexicon(self):
        from nlgen.lexicon import verb_form

        for ent in (SAM, SPEAKER, PATIENT):
            for verb in ("be", "have", "go", "rest"):
                for tense in ("present", "past"):
                    c = clause(ent, verb, tense=tense)
                    emitted = words_of(realize.realize_sentence(sentence(c)))
                    expected = verb_form(verb, ent.person, ent.number,
                                         tense)
                    assert expected in " ".join(emitted)

    def test_clause_coordination(self):
        c1 = clause(SAM, "rest")
        c2 = clause(MRS_BLACK, "rest")
        text = realize.orthography(realize.realize_sentence(
            sentence(c1, c2)))
        assert text == "Sam rests and Mrs. Black rests."


NURSES = ir.Entity(id="nurses", head="night nurse", gender="feminine",
                   number="plural")
YOU = ir.Entity(id="you", head="reader", person="second", number="plural")

# Hand-built sentences for the branches random plans reach rarely or not
# at all: the copula, negation with a modal or "will", markers after each
# kind of auxiliary, honorifics, plural heads, reflexives, first and
# second person, and coordination of three units.
_HAND_BUILT = {
    "negated-copula-with-marker": sentence(clause(
        SAM, "be", (np(head="ill"),), polarity="negative",
        markers=("also",))),
    "plural-copula-past": sentence(clause(
        NURSES, "be", (np(head="tired"),), tense="past")),
    "negated-past-with-marker": sentence(clause(
        SAM, "see", (entity_comp(MRS_BLACK),), polarity="negative",
        tense="past", markers=("still",))),
    "negated-modal-with-marker": sentence(clause(
        MRS_BLACK, "go", (np(head="home"),), modal="can",
        polarity="negative", markers=("also",))),
    "negated-future-with-marker": sentence(clause(
        NURSES, "rest", tense="future", polarity="negative",
        markers=("also",))),
    "reflexive": sentence(clause(
        SAM, "see", (entity_comp(SAM, "reflexive-pronoun"),),
        mode="pronoun")),
    "plural-reflexive-after-preposition": sentence(clause(
        NURSES, "watch",
        (entity_comp(NURSES, "reflexive-pronoun", prep="with"),),
        tense="future")),
    "first-and-second-person": sentence(
        clause(SPEAKER, "call", (entity_comp(YOU, "pronoun"),)),
        clause(YOU, "have", (np("new", head="report", det="a"),),
               mode="pronoun", tense="past")),
    "three-units-and-a-second-clause": sentence(
        clause(NURSES, "have", (np("high", head="pressure"),),
               (np(head="store", det="the", prep="to"),),
               (entity_comp(MRS_BLACK, "pronoun", prep="with"),)),
        clause(JOHN, "visit", (entity_comp(NURSES),), modal="must")),
    "condition-with-honorific": sentence(clause(
        MRS_BLACK, "go", (np(head="store", det="the", prep="to"),),
        mode="pronoun", modal="should", markers=("also",),
        condition=clause(MRS_BLACK, "go",
                         (np(head="hospital", det="the", prep="to"),),
                         polarity="negative", tense="past"))),
}


class TestLinearizerMatchesReference:
    """realize_sentence against the list-concatenating linearizer kept in
    oracle.py: identical token lists, token for token."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_plans(self, seed):
        plan = random_document_plan(random.Random(seed))
        lex = default_lexicon()
        for profile in ("plain", "fluent"):
            for sp in nlgen.plan_sentences(plan, profile):
                assert realize.realize_sentence(sp, lex) == \
                    oracle.reference_realize_sentence(sp, lex)

    @pytest.mark.parametrize("name", _HAND_BUILT)
    def test_hand_built_sentences(self, name):
        sp = _HAND_BUILT[name]
        lex = default_lexicon()
        assert realize.realize_sentence(sp, lex) == \
            oracle.reference_realize_sentence(sp, lex)

    @pytest.mark.parametrize("name, text", [
        ("negated-copula-with-marker", "Sam is also not ill."),
        ("negated-modal-with-marker", "Mrs. Black can also not go home."),
        ("negated-future-with-marker", "The night nurses will also not rest."),
        ("negated-past-with-marker", "Sam still did not see Mrs. Black."),
    ])
    def test_marker_comes_before_not(self, name, text):
        lex = default_lexicon()
        tokens = realize.realize_sentence(_HAND_BUILT[name], lex)
        assert realize.orthography(tokens) == text


class TestRealizeDocument:
    def test_sentences_join_with_single_space(self):
        plans = [sentence(clause(SAM, "rest")),
                 sentence(clause(SAM, "rest"))]
        assert realize.realize_document(plans) == "Sam rests. Sam rests."

    def test_paragraph_break_renders_blank_line(self):
        plans = [sentence(clause(SAM, "rest")),
                 sentence(clause(SAM, "rest"), new_paragraph=True)]
        assert realize.realize_document(plans) == \
            "Sam rests.\n\nSam rests."

    def test_empty_document(self):
        assert realize.realize_document([]) == ""


class TestSharedValues:
    """Each distinct word is one token, shared by every caller; what a
    planning call shares lives only as long as the call."""

    def test_a_word_is_one_token(self):
        assert realize.word("x") is realize.word("x")
        assert realize.word("x") == realize.Token("word", "x")

    def test_goldens_with_cold_and_warm_caches(self, corpus):
        def staged(doc, profile):
            plan = ir.document_plan_from_json(ir.document_plan_to_json(
                schema.traverse(doc.schema, doc.data)))
            plans = ir.sentence_plans_from_json(ir.sentence_plans_to_json(
                nlgen.plan_sentences(plan, profile)))
            return realize.realize_document(plans)

        for doc in corpus:
            for profile in ("fluent", "plain"):
                realize.word.cache_clear()
                schema._parse_complement_text.cache_clear()
                golden = doc.golden(profile).removesuffix("\n")
                for _ in range(2):  # cold caches, then warm ones
                    assert nlgen.generate_text(doc.schema, doc.data,
                                               profile) == golden
                    assert staged(doc, profile) == golden

    def test_documents_back_to_back_reuse_an_entity_id(self):
        # Each document's entities are new objects, and may reuse the
        # memory, and so the id(), of the last document's.
        parsed = nlgen.parse_schema(
            'schema s\nnode a emit subject="p" verb=rest\n'
            'node b emit subject="p" verb=see complement="@q"\n'
            'node c emit subject="q" verb=see complement="@p"\n'
            'arc a -> b\narc b -> c\n')
        for name, gender, he, him in [("Sam", "masculine", "He", "him"),
                                      ("Ann", "feminine", "She", "her")] * 3:
            data = nlgen.load_data(json.dumps({"entities": {
                "p": {"name": name, "gender": gender},
                "q": {"head": "dog"}}, "records": {}}))
            assert nlgen.generate_text(parsed, data) == \
                f"{name} rests. {he} sees the dog. It sees {him}."
            assert nlgen.generate_text(parsed, data, "plain") == \
                f"{name} rests. {name} sees the dog. The dog sees {name}."


class TestOrthography:
    def test_point_absorption(self):
        stream = [word("I"), word("saw"), word("Helen"),
                  word("Jones"), punct(","), word("my"),
                  word("sister-in-law"), punct(","), punct("."),
                  boundary()]
        assert realize.orthography(stream) == \
            "I saw Helen Jones, my sister-in-law."

    def test_capitalization_and_spacing(self):
        assert realize.orthography([word("hello"), punct("."),
                                    boundary()]) == "Hello."

    def test_duplicate_punctuation_collapses(self):
        stream = [word("done"), punct("."), punct("."), boundary()]
        assert realize.orthography(stream) == "Done."

    def test_comma_series_collapses_to_period(self):
        stream = [word("done"), punct(","), punct(","), punct("."),
                  boundary()]
        assert realize.orthography(stream) == "Done."

    @pytest.mark.parametrize("stream", [
        [word("Bob"), word("Jr."), punct("."), boundary()],
        [word("Bob"), word("Jr."), punct(","), punct("."), boundary()],
    ])
    def test_word_keeps_its_own_period(self, stream):
        assert realize.orthography(stream) == "Bob Jr."

    # The realizer writes the determiner "a" as "a" or "an", whichever the
    # next word takes; orthography leaves every word as it is.

    def test_article_before_vowel(self):
        assert has_text(np(head="apple", det="a")) == "Sam has an apple."

    def test_article_exceptions(self):
        lex = default_lexicon()
        assert has_text(np(head="hour", det="a"), lex) == "Sam has an hour."
        assert has_text(np(head="university", det="a"), lex) == \
            "Sam has a university."

    def test_article_exceptions_without_a_lexicon(self):
        assert has_text(np(head="hour", det="a")) == "Sam has an hour."
        assert has_text(np(head="university", det="a")) == \
            "Sam has a university."

    @pytest.mark.parametrize("following, article", [
        # A number is read aloud: its leading thousands group decides.
        ("8", "an"), ("80", "an"), ("800", "an"), ("8,000", "an"),
        ("8000", "an"), ("11", "an"), ("18", "an"), ("11,000", "an"),
        ("18500", "an"), ("8.5", "an"), ("1,800", "a"), ("1800", "a"),
        ("110", "a"), ("180", "a"), ("7", "a"), ("100", "a"),
        # A word that starts with a number reads that number aloud.
        ("8-hour", "an"), ("11-year", "an"), ("18th-century", "an"),
        ("80s", "an"), ("1,800-mile", "a"), ("7-day", "a"),
        # Initialisms and single letters go by the first letter's name.
        ("FBI", "an"), ("NHS", "an"), ("MRI", "an"), ("X", "an"),
        ("x-ray", "an"), ("f", "an"), ("UK", "a"), ("U-turn", "a"),
        ("BBC", "a"), ("y", "a"),
        # Other words go by their first letter; the lexicon wins first.
        ("apple", "an"), ("Umbrella", "an"), ("fox", "a"), ("hour", "an"),
        ("university", "a"), ("unit", "a"), ("ex-wife", "an"),
    ])
    def test_article_by_spoken_sound(self, following, article):
        assert has_text(np(following, head="shift", det="a")) == \
            f"Sam has {article} {following} shift."

    def test_lexicon_exception_beats_the_letter_rule(self):
        base = default_lexicon()
        lex = dataclasses.replace(base, article_exceptions={
            **base.article_exceptions, "nato": "a"})
        phrase = np("NATO", head="plan", det="a")
        assert has_text(phrase, lex) == "Sam has a NATO plan."
        assert has_text(phrase) == "Sam has an NATO plan."

    @pytest.mark.parametrize("complement, expected", [
        # The schema stores "a" and "an" alike as the determiner "a".
        ("an university", "a university"),
        ("an 7 hour delay", "a 7 hour delay"),
        ("An UK visa", "a UK visa"),
        ("A apple", "an apple"),
        ("a FBI agent", "an FBI agent"),
        # Lexicon exceptions win; the next word keeps its own case.
        ("a hour", "an hour"),
        ("AN Hour", "an Hour"),
        ("to a airport", "to an airport"),
    ])
    def test_article_chosen_both_ways(self, complement, expected):
        source = f'schema s\nnode n emit subject="sam" verb=see ' \
                 f'complement="{complement}"\n'
        data = nlgen.load_data('{"entities": {"sam": {"name": "Sam"}}}')
        assert nlgen.generate_text(nlgen.parse_schema(source), data) == \
            f"Sam sees {expected}."

    def test_sentence_boundary_single_space(self):
        stream = [word("one"), punct("."), boundary(), word("two"),
                  punct("."), boundary()]
        assert realize.orthography(stream) == "One. Two."

    def test_paragraph_boundary_blank_line(self):
        stream = [word("one"), punct("."), boundary("paragraph"),
                  word("two"), punct("."), boundary()]
        assert realize.orthography(stream) == "One.\n\nTwo."


PLURAL_SCHEMA = """schema plural
node temp emit subject=path(r.who) verb=have complement="a high temperature"
node see emit subject=path(r.who) verb=see complement=path(r.what)
arc temp -> see
"""


def plural_text(who_head, what_head, profile, lex=None):
    """A plural head-noun entity in subject position, then another in
    complement position."""
    data = nlgen.load_data(json.dumps({
        "entities": {"who": {"head": who_head, "number": "plural"},
                     "what": {"head": what_head, "number": "plural"}},
        "records": {"r": {"who": "who", "what": "@what"}}}))
    return nlgen.generate_text(nlgen.parse_schema(PLURAL_SCHEMA), data,
                               profile, lex)


class TestPluralHeadNouns:
    @pytest.mark.parametrize("profile, second", [
        ("fluent", "They"), ("plain", "The nurses")])
    def test_regular_plural_in_subject_and_complement(self, profile,
                                                      second):
        assert plural_text("nurse", "box", profile) == \
            f"The nurses have a high temperature. {second} see the boxes."

    @pytest.mark.parametrize("profile, second", [
        ("fluent", "They"), ("plain", "The children")])
    def test_irregular_plural_from_lexicon(self, profile, second):
        assert plural_text("child", "blood test", profile) == \
            (f"The children have a high temperature. {second} see the "
             f"blood tests.")

    def test_plural_goes_through_the_given_lexicon(self):
        from nlgen.lexicon import default_lexicon

        base = default_lexicon()
        lex = dataclasses.replace(base, irregular_plurals={
            **base.irregular_plurals, "box": "boxen"})
        assert plural_text("child", "box", "plain", lex) == \
            ("The children have a high temperature. The children see the "
             "boxen.")


NAMES_SCHEMA = nlgen.parse_schema("""schema names
node see emit subject=path(r.x) verb=see complement=path(r.y)
node cold emit subject=path(r.y) verb=have complement="a cold"
arc see -> cold
""")


def names_text(x, y, profile="plain"):
    """x sees y, then y has a cold; ``x`` and ``y`` are entity tables."""
    data = nlgen.load_data(json.dumps({
        "entities": {"x": x, "y": y},
        "records": {"r": {"x": "x", "y": "@y"}}}))
    return nlgen.generate_text(NAMES_SCHEMA, data, profile)


def written_as(ref, words):
    """Whether the words of ``ref`` stand in ``words`` (a text split on
    spaces) as written.  The first may be capitalized at a sentence start;
    the last may carry a comma, or the sentence period unless it ends in
    a period of its own."""
    heads = {ref[0], ref[0][:1].upper() + ref[0][1:]}
    tails = ("", ",") if ref[-1].endswith(".") else ("", ",", ".")
    for i in range(len(words) - len(ref) + 1):
        at_start = i == 0 or words[i - 1].endswith(".")
        for head in heads if at_start else (ref[0],):
            for tail in tails:
                want = [head, *ref[1:]]
                want[-1] += tail
                if words[i:i + len(ref)] == want:
                    return True
    return False


_NAMES = st.lists(st.sampled_from([
    "A", "An", "an", "a", "i", "Ok", "Jr.", "Li", "Nguyen", "hour", "Bob",
    "St."]), min_size=1, max_size=3).map(" ".join)


class TestNamesPassThrough:
    """A name is written as given: orthography takes none of its words
    for an article, and its own final period ends the sentence."""

    @pytest.mark.parametrize("profile, text", [
        ("plain", "An Nguyen has high blood pressure. An Nguyen has low "
                  "blood sugar."),
        ("fluent", "An Nguyen has high blood pressure and low blood "
                   "sugar."),
    ])
    def test_subject_name(self, corpus, profile, text):
        doc = next(d for d in corpus if d.name == "sam_pair")
        sam = doc.data.entities["sam"]
        data = dataclasses.replace(doc.data, entities={
            "sam": dataclasses.replace(sam, name="An Nguyen")})
        assert nlgen.generate_text(doc.schema, data, profile) == text

    @pytest.mark.parametrize("name, text", [
        ("An Li", "Sam sees An Li. An Li has a cold."),
        ("A Ok", "Sam sees A Ok. A Ok has a cold."),
        ("Bob Jr.", "Sam sees Bob Jr. Bob Jr. has a cold."),
    ])
    def test_object_name(self, name, text):
        assert names_text({"name": "Sam"}, {"name": name}) == text

    def test_complement_keeps_its_own_period(self):
        source = 'schema s\nnode n emit subject="sam" verb=go ' \
                 'complement="to St."\n'
        data = nlgen.load_data('{"entities": {"sam": {"name": "Sam"}}}')
        assert nlgen.generate_text(nlgen.parse_schema(source), data) == \
            "Sam goes to St."

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(x=_NAMES, y=_NAMES,
           honorific=st.sampled_from([None, "Mrs.", "Dr."]))
    def test_full_references_verbatim(self, x, y, honorific):
        first = {"name": x, "gender": "feminine"}
        if honorific:
            first["honorific"] = honorific
        for profile in ("fluent", "plain"):
            text = names_text(first, {"name": y}, profile)
            assert ".." not in text, text
            words = text.split()
            for ref in (f"{honorific or ''} {x}", y):
                assert written_as(ref.split(), words), (ref, text)


FORBIDDEN = re.compile(r",\.| \.| ,|  ")


def random_stream(rng):
    pool = ["sam", "report", "high", "blood", "a", "store", "i",
            "hello", "world", "apple", "egg", "mrs.", "Honest",
            "sister-in-law", "7"]
    toks = []
    for _ in range(rng.randint(0, 30)):
        roll = rng.random()
        if roll < 0.62:
            toks.append(word(rng.choice(pool)))
        elif roll < 0.85:
            toks.append(punct(rng.choice([",", ".", "?"])))
        else:
            toks.append(boundary(rng.choice(["sentence", "sentence",
                                             "paragraph"])))
    toks.append(boundary())
    return toks


_ORTHOGRAPHY_TOKENS = st.one_of(
    st.sampled_from([
        "a", "an", "A", "An", "i", "apple", "Egg", "umbrella", "cat",
        "Store", "8", "11", "7", "1,800", "FBI", "UK", "x-ray", "hour",
        "university", "mrs."]).map(word),
    st.sampled_from([",", ".", "?"]).map(punct),
    st.sampled_from(["sentence", "paragraph"]).map(boundary))


class TestOrthographyMatchesReference:
    """orthography against the one-pass-per-rule version kept in
    oracle.py, which runs point absorption to a fixed point."""

    @settings(max_examples=1000, deadline=None, derandomize=True,
              database=None)
    @given(stream=st.lists(_ORTHOGRAPHY_TOKENS, max_size=24))
    def test_random_streams(self, stream):
        assert realize.orthography(stream) == \
            oracle.reference_orthography(stream)

    @pytest.mark.parametrize("marks, text", [
        ([".", "paragraph", ",", "."], "One.\n\nTwo."),
        ([",", "paragraph", "."], "One.\n\nTwo."),
        ([".", ",", ".", ",", "."], "One. Two."),
        (["?", ",", "sentence", "."], "One?. Two."),
    ])
    def test_mark_runs(self, marks, text):
        stream = [word("one")]
        stream += [boundary(m) if m.isalpha() else punct(m) for m in marks]
        stream += [word("two"), punct("."), boundary()]
        assert realize.orthography(stream) == text
        assert oracle.reference_orthography(stream) == text


class TestOrthographyProperties:
    def test_randomized_streams(self):
        rng = random.Random(97)
        for _ in range(1000):
            stream = random_stream(rng)
            text = realize.orthography(stream)
            assert not FORBIDDEN.search(text), repr(text)

    def test_corpus_outputs_clean(self, corpus):
        from nlgen import generate_text

        for doc in corpus:
            for profile in ("fluent", "plain"):
                text = generate_text(doc.schema, doc.data, profile)
                assert not FORBIDDEN.search(text)
