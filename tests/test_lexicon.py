from pathlib import Path

import pytest

from nlgen import ir, lexicon, realize
from nlgen.errors import DataError

DATA = Path(__file__).parent / "data"

CELLS = [("first", "singular", "present"),
         ("third", "singular", "present"),
         ("third", "plural", "present"),
         ("first", "singular", "past"),
         ("third", "singular", "past"),
         ("third", "plural", "past")]


def load_noun_oracle():
    pairs = []
    for line in (DATA / "noun_oracle.tsv").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            lemma, plural = line.split("\t")
            pairs.append((lemma, plural))
    return pairs


def load_verb_oracle():
    rows = []
    for line in (DATA / "verb_oracle.tsv").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            fields = line.split("\t")
            rows.append((fields[0], fields[1:]))
    return rows


class TestPluralize:
    def test_box(self):
        assert lexicon.pluralize("box") == "boxes"

    def test_default_rule(self):
        assert lexicon.pluralize("report") == "reports"

    def test_matches_dictionary_oracle(self):
        mismatches = [
            (lemma, expected, lexicon.pluralize(lemma))
            for lemma, expected in load_noun_oracle()
            if lexicon.pluralize(lemma) != expected
        ]
        assert mismatches == []

    def test_no_bare_s_after_sibilants(self):
        for lemma, _ in load_noun_oracle():
            if lemma.endswith(("s", "x", "z", "ch", "sh")):
                assert lexicon.pluralize(lemma) != lemma + "s"

    def test_empty_input(self):
        with pytest.raises(ValueError):
            lexicon.pluralize("")


class TestVerbForm:
    def test_first_person_be(self):
        assert lexicon.verb_form("be", "first", "singular",
                                 "present") == "am"

    def test_third_singular_have(self):
        assert lexicon.verb_form("have", "third", "singular",
                                 "present") == "has"

    def test_be_paradigm(self):
        forms = {lexicon.verb_form("be", p, n, t)
                 for p in ("first", "second", "third")
                 for n in ("singular", "plural")
                 for t in ("present", "past")}
        assert {"am", "is", "are", "was", "were"} <= forms

    def test_matches_dictionary_oracle(self):
        mismatches = []
        for lemma, expected in load_verb_oracle():
            for (person, number, tense), want in zip(CELLS, expected):
                got = lexicon.verb_form(lemma, person, number, tense)
                if got != want:
                    mismatches.append((lemma, person, number, tense,
                                       want, got))
        assert mismatches == []

    def test_third_singular_always_inflects(self):
        for lemma, _ in load_verb_oracle():
            assert lexicon.verb_form(lemma, "third", "singular",
                                     "present") != lemma

    def test_future(self):
        assert lexicon.verb_form("go", "third", "singular",
                                 "future") == "will go"

    def test_unknown_verb_conjugates_regularly(self):
        assert lexicon.verb_form("frobnicate", "third", "singular",
                                 "present") == "frobnicates"
        assert lexicon.verb_form("frobnicate", "first", "plural",
                                 "past") == "frobnicated"

    def test_bad_features_rejected(self):
        with pytest.raises(ValueError):
            lexicon.verb_form("go", "fourth", "singular", "present")


class TestPronoun:
    def test_she(self):
        assert lexicon.pronoun("third", "singular", "feminine",
                               "subjective") == "she"

    def test_himself(self):
        assert lexicon.pronoun("third", "singular", "masculine",
                               "reflexive") == "himself"

    def test_first_person_subjective(self):
        assert lexicon.pronoun("first", "singular", "neuter",
                               "subjective") == "I"

    def test_total_over_domain(self):
        for person in ("first", "second", "third"):
            for number in ("singular", "plural"):
                for gender in ("masculine", "feminine", "neuter"):
                    for case in ("subjective", "objective", "reflexive"):
                        form = lexicon.pronoun(person, number, gender,
                                               case)
                        assert form


class TestLexiconFile:
    def test_custom_lexicon(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("[plurals]\ncactus\tcacti\n", encoding="utf-8")
        lex = lexicon.load_lexicon(path.read_text(encoding="utf-8"))
        assert lexicon.pluralize("cactus", lex) == "cacti"

    @pytest.mark.parametrize("section, row, problem", [
        ("plurals", "cactus", "expected 'lemma<TAB>plural'"),
        ("verbs", "be\tthird\tsingular\tpresent",
         "expected 'lemma<TAB>person<TAB>number<TAB>tense<TAB>form'"),
        ("verbs", "be\tfourth\tsingular\tpresent\tis",
         "bad verb features"),
        ("verbs", "be\tthird\tsingular\tpluperfect\tis",
         "bad verb features"),
        ("verbs", "go\tthird\tsingular\tfuture\tshall go",
         "bad verb features"),
        ("pronouns", "third\tsingular\tfeminine\tshe",
         "expected 'person<TAB>number<TAB>gender<TAB>case<TAB>form'"),
        ("pronouns", "third\tsingular\tfeminine\tgenitive\ther",
         "bad pronoun features"),
        ("articles", "hour\tan\tx", "expected 'word<TAB>a|an'"),
        ("articles", "hour\tthe", "bad article features"),
    ])
    def test_bad_row_in_each_section(self, section, row, problem):
        with pytest.raises(DataError) as info:
            lexicon.load_lexicon(f"[{section}]\n{row}\n")
        assert str(info.value) == f"lexicon line 2: {problem}"

    def test_malformed_line(self):
        with pytest.raises(DataError) as info:
            lexicon.load_lexicon("[plurals]\njust-one-field\n")
        assert "line 2" in str(info.value)

    def test_unknown_section(self):
        with pytest.raises(DataError):
            lexicon.load_lexicon("[nouns]\n")

    def test_entry_before_section(self):
        with pytest.raises(DataError):
            lexicon.load_lexicon("a\tb\n")

    def test_comments_and_blanks_ignored(self):
        lex = lexicon.load_lexicon(
            "# header\n\n[plurals]\n# note\nchild\tchildren\n")
        assert lex.irregular_plurals == {"child": "children"}

    def test_article_keys_are_case_insensitive(self):
        lex = lexicon.load_lexicon("[articles]\nHour\tan\nNATO\ta\n")
        assert lex.article_exceptions == {"hour": "an", "nato": "a"}
        sam = ir.ReferenceSpec(entity=ir.Entity(id="sam", name="Sam"))
        for following, text in [("hour", "Sam sees an hour."),
                                ("Hour", "Sam sees an Hour."),
                                ("NATO", "Sam sees a NATO.")]:
            phrase = ir.ComplementPhrase(head=following, determiner="a")
            clause = ir.ClauseSpec(
                subject_ref=sam, verb="see",
                complements=((ir.ResolvedComplement(phrase=phrase),),))
            assert realize.realize_document(
                [ir.SentencePlan(clauses=(clause,))], lex) == text

    @pytest.mark.parametrize("gender", ir.GENDERS + ("-",))
    def test_pronoun_gender_in_domain_loads(self, gender):
        lex = lexicon.load_lexicon(
            f"[pronouns]\nthird\tsingular\t{gender}\tsubjective\tit\n")
        assert lex.pronoun_table == {
            ("third", "singular", gender, "subjective"): "it"}

    @pytest.mark.parametrize("gender", ["feminin", "Feminine", "", "plural"])
    def test_pronoun_gender_outside_domain_refused(self, gender):
        with pytest.raises(DataError) as info:
            lexicon.load_lexicon(
                f"[pronouns]\n# she\n"
                f"third\tsingular\t{gender}\tsubjective\tshe\n")
        assert str(info.value) == "lexicon line 3: bad pronoun features"
