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
A verb row's tense is present or past: the future is always "will" and
the lemma, so a future row is a DataError.  Unknown verbs conjugate
regularly rather than erroring, so generation never fails on a new
domain verb; misinflections surface in the golden tests instead.
Orthographic doubling (run -> running) is not modeled: only the tense
forms below are ever generated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import resources

from .errors import DataError
from .ir import CASES, GENDERS, NUMBERS, PERSONS, TENSES

VOWELS = "aeiou"
SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")

# Each section's columns; the last one holds the entry, the others its
# key.  A column named here takes only these values: a feature's ir
# domain, plus "-" for a gender English does not mark and the reflexive
# among the cases a pronoun cell can take; a verb row has no future.
_COLUMNS = {
    "plurals": ("lemma", "plural"),
    "verbs": ("lemma", "person", "number", "tense", "form"),
    "pronouns": ("person", "number", "gender", "case", "form"),
    "articles": ("word", "a|an"),
}
_DOMAINS = {"person": PERSONS, "number": NUMBERS,
            "tense": ("present", "past"), "gender": GENDERS + ("-",),
            "case": CASES + ("reflexive",), "a|an": ("a", "an")}


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
    tables: dict[str, dict] = {section: {} for section in _COLUMNS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        where = f"lexicon line {lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _COLUMNS:
                raise DataError(f"{where}: unknown section [{section}]")
            continue
        if section is None:
            raise DataError(f"{where}: entry before any section header")
        columns = _COLUMNS[section]
        fields = line.split("\t")
        if len(fields) != len(columns):
            raise DataError(f"{where}: expected '{'<TAB>'.join(columns)}'")
        if any(value not in _DOMAINS[column]
               for column, value in zip(columns, fields)
               if column in _DOMAINS):
            raise DataError(f"{where}: bad {section[:-1]} features")
        *key, entry = fields
        if section == "articles":
            key[0] = key[0].lower()
        tables[section][tuple(key) if len(key) > 1 else key[0]] = entry
    return Lexicon(tables["plurals"], tables["verbs"], tables["pronouns"],
                   tables["articles"])


@functools.cache
def default_lexicon() -> Lexicon:
    """The lexicon shipped with the package, loaded once."""
    text = resources.files("nlgen").joinpath("data/lexicon.txt") \
        .read_text(encoding="utf-8")
    return load_lexicon(text)


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
