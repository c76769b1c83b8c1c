"""English inflection and closed-class word knowledge.

Pluralization and conjugation are rule-based with an irregulars table
loaded from a plain-text data file, so the lexicon can grow without code
changes.  File format: UTF-8, tab-separated, '#' comments, with section
headers [plurals], [verbs], [pronouns] and [articles]:

    [plurals]   lemma <TAB> plural
    [verbs]     lemma <TAB> person <TAB> number <TAB> tense <TAB> form
    [pronouns]  person <TAB> number <TAB> gender <TAB> case <TAB> form
    [articles]  word <TAB> a|an

A pronoun row's gender is masculine, feminine or neuter, or "-" where
English makes no distinction (first and second person, and the
third-person plural); any other gender is a DataError.  Article keys are
case-insensitive: a row "Hour" applies to "hour", "Hour" and "HOUR".
Unknown verbs conjugate regularly rather than erroring, so generation
never fails on a new domain verb; misinflections surface in the golden
tests instead.  Orthographic doubling (run -> running) is not modeled:
only the tense forms below are ever generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .errors import DataError
from .ir import CASES, GENDERS, NUMBERS, PERSONS, TENSES

VOWELS = "aeiou"
SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")

# Pronoun cells add the reflexive to the cases a reference can take.
_PRONOUN_CASES = CASES + ("reflexive",)


@dataclass(frozen=True)
class Lexicon:
    irregular_plurals: dict[str, str] = field(default_factory=dict)
    irregular_verbs: dict[tuple[str, str, str, str], str] = \
        field(default_factory=dict)
    pronoun_table: dict[tuple[str, str, str, str], str] = \
        field(default_factory=dict)
    article_exceptions: dict[str, str] = field(default_factory=dict)


def load_lexicon(text: str) -> Lexicon:
    """Parse lexicon file text; raises DataError on malformed lines."""
    plurals: dict[str, str] = {}
    verbs: dict[tuple[str, str, str, str], str] = {}
    pronouns: dict[tuple[str, str, str, str], str] = {}
    articles: dict[str, str] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("plurals", "verbs", "pronouns", "articles"):
                raise DataError(f"lexicon line {lineno}: unknown section "
                                f"[{section}]")
            continue
        fields = line.split("\t")
        if section == "plurals":
            if len(fields) != 2:
                raise DataError(f"lexicon line {lineno}: expected "
                                f"'lemma<TAB>plural'")
            plurals[fields[0]] = fields[1]
        elif section == "verbs":
            if len(fields) != 5:
                raise DataError(
                    f"lexicon line {lineno}: expected "
                    f"'lemma<TAB>person<TAB>number<TAB>tense<TAB>form'")
            lemma, person, number, tense, form = fields
            if person not in PERSONS or number not in NUMBERS \
                    or tense not in TENSES:
                raise DataError(f"lexicon line {lineno}: bad verb features")
            verbs[(lemma, person, number, tense)] = form
        elif section == "pronouns":
            if len(fields) != 5:
                raise DataError(
                    f"lexicon line {lineno}: expected "
                    f"'person<TAB>number<TAB>gender<TAB>case<TAB>form'")
            person, number, gender, case, form = fields
            if person not in PERSONS or number not in NUMBERS \
                    or gender not in GENDERS + ("-",) \
                    or case not in _PRONOUN_CASES:
                raise DataError(
                    f"lexicon line {lineno}: bad pronoun features")
            pronouns[(person, number, gender, case)] = form
        elif section == "articles":
            if len(fields) != 2 or fields[1] not in ("a", "an"):
                raise DataError(f"lexicon line {lineno}: expected "
                                f"'word<TAB>a|an'")
            articles[fields[0].lower()] = fields[1]
        else:
            raise DataError(f"lexicon line {lineno}: entry before any "
                            f"section header")
    return Lexicon(plurals, verbs, pronouns, articles)


def load_lexicon_file(path: str) -> Lexicon:
    with open(path, encoding="utf-8") as fh:
        return load_lexicon(fh.read())


_default: Lexicon | None = None


def default_lexicon() -> Lexicon:
    """The lexicon shipped with the package, loaded once."""
    global _default
    if _default is None:
        text = resources.files("nlgen").joinpath("data/lexicon.txt") \
            .read_text(encoding="utf-8")
        _default = load_lexicon(text)
    return _default


def _consonant_y(word: str) -> bool:
    return len(word) > 1 and word.endswith("y") and word[-2] not in VOWELS


def _add_s(word: str) -> str:
    """The -s suffix of noun plurals and third-singular present verbs:
    "-es" after a sibilant, consonant-y to "-ies", else "-s"."""
    if word.endswith(SIBILANT_ENDINGS):
        return word + "es"
    if _consonant_y(word):
        return word[:-1] + "ies"
    return word + "s"


def pluralize(lemma: str, lex: Lexicon | None = None) -> str:
    """Plural of a noun lemma; irregular table hit wins over the rules."""
    if not lemma:
        raise ValueError("cannot pluralize an empty lemma")
    lex = lex or default_lexicon()
    if lemma in lex.irregular_plurals:
        return lex.irregular_plurals[lemma]
    return _add_s(lemma)


def verb_form(lemma: str, person: str, number: str, tense: str,
              lex: Lexicon | None = None) -> str:
    """Inflected verb form agreeing with the given subject features."""
    if person not in PERSONS or number not in NUMBERS \
            or tense not in TENSES:
        raise ValueError(
            f"bad verb features: {person!r}/{number!r}/{tense!r}")
    lex = lex or default_lexicon()
    hit = lex.irregular_verbs.get((lemma, person, number, tense))
    if hit is not None:
        return hit
    if tense == "future":
        return "will " + lemma
    if tense == "past":
        if lemma.endswith("e"):
            return lemma + "d"
        if _consonant_y(lemma):
            return lemma[:-1] + "ied"
        return lemma + "ed"
    # Present: only the third singular inflects, spelled like a plural.
    if person == "third" and number == "singular":
        return _add_s(lemma)
    return lemma


def pronoun(person: str, number: str, gender: str, case: str,
            lex: Lexicon | None = None) -> str:
    """Pronoun form for a feature cell.  The default lexicon covers the
    whole declared domain; a cell missing from a lexicon file is a
    DataError."""
    lex = lex or default_lexicon()
    form = lex.pronoun_table.get((person, number, gender, case))
    if form is None:
        # Standard syncretisms are stored under gender "-".
        form = lex.pronoun_table.get((person, number, "-", case))
    if form is None:
        raise DataError(
            f"lexicon has no pronoun for {person}/{number}/{gender}/{case}")
    return form
