"""Surface realization: sentence plans to grammatical English text.

Realization happens in two steps.  realize_sentence() linearizes a
SentencePlan into a token stream (words, punctuation marks, boundaries),
inflecting the verb against the subject's agreement features, rendering
every reference through the lexicon, and writing the indefinite article
as "a" or "an", whichever the next word takes.  orthography() then turns a
token stream into the final string with three ordered rules:

    1. punctuation collapse: ","+"." -> "." (point absorption),
       duplicate adjacent identical marks -> one mark, and a period
       after a word that ends in one ("Jr.", "St.") -> nothing
    2. capitalization at sentence starts
    3. spacing: single spaces between words, none before punctuation,
       blank line at paragraph boundaries

Rule 1 is one pass over the tokens; rules 2-3 are a second pass that
writes the text.  Keeping point absorption a token-level rewrite makes it
locally testable instead of string surgery.  Beyond a sentence's first
capital, orthography changes no word, so names such as "An Nguyen" pass
through as written.

word() interns its immutable Tokens: one per text, for up to WORD_CACHE_SIZE
distinct words, the least recently used dropped first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import ir
from .lexicon import Lexicon, default_lexicon, pluralize, pronoun, verb_form

COMMA = ","
PERIOD = "."
WORD_CACHE_SIZE = 4096  # distinct words kept as shared tokens by word()


class Token(NamedTuple):
    kind: str  # "word" | "punct" | "boundary"
    text: str  # word text, punctuation mark, or "sentence"/"paragraph"


@lru_cache(maxsize=WORD_CACHE_SIZE)
def word(text: str) -> Token:
    return Token("word", text)


def punct(mark: str) -> Token:
    return Token("punct", mark)


def boundary(kind: str = "sentence") -> Token:
    return Token("boundary", kind)


# The fixed tokens of every clause and sentence, built once.
_AND, _IF, _NOT, _WILL = map(word, ("and", "if", "not", "will"))
_COMMA, _PERIOD = punct(COMMA), punct(PERIOD)
_SENTENCE, _PARAGRAPH = boundary("sentence"), boundary("paragraph")


# ---------------------------------------------------------------------------
# Reference and clause linearization


def _head_words(ent: ir.Entity, lex: Lexicon) -> list[str]:
    """Words of the entity's head noun phrase; a plural entity's last word
    ("the nurse" -> "the nurses") is pluralized through the lexicon."""
    words = ent.head.split()
    if ent.number == "plural" and words:
        words[-1] = pluralize(words[-1], lex)
    return words


def _full_reference(ent: ir.Entity, lex: Lexicon) -> list[str]:
    """Words of a full reference: the honorific and the name, or "the" and
    the head noun phrase."""
    if ent.name:
        return f"{ent.honorific or ''} {ent.name}".split()
    return ["the", *_head_words(ent, lex)]


def _add_reference(out: list[Token], ref: ir.ReferenceSpec, case: str,
                   lex: Lexicon) -> None:
    """Append one mention; ``case`` is "subjective" for a subject and
    "objective" for a complement."""
    ent = ref.entity
    # English has no non-pronominal way to mention speaker or hearer, so
    # only a third-person full reference is not a pronoun.
    if ref.mode == "full-name" and ent.person == "third":
        out += map(word, _full_reference(ent, lex))
        return
    if ref.mode == "reflexive-pronoun":
        case = "reflexive"
    out.append(word(pronoun(ent.person, ent.number, ent.gender, case, lex)))


def _add_verb(out: list[Token], clause: ir.ClauseSpec, lex: Lexicon) -> None:
    # Markers come before "not": after an auxiliary that negates on its
    # own ("is also not", "can also not"), else before the verb group
    # ("still did not see", "also goes").
    negative = clause.polarity == "negative"
    markers = map(word, clause.discourse_markers)
    # A modal takes present tense only, so it and "will" both carry the
    # bare verb.
    if clause.modal or clause.tense == "future":
        out.append(word(clause.modal) if clause.modal else _WILL)
        out += markers
        if negative:
            out.append(_NOT)
        out.append(word(clause.verb))
        return
    subj = clause.subject_ref.entity
    if negative and clause.verb == "be":  # negates without do-support
        out.append(word(verb_form("be", subj.person, subj.number,
                                  clause.tense, lex)))
        out += markers
        out.append(_NOT)
        return
    out += markers
    if negative:
        out += (word(verb_form("do", subj.person, subj.number, clause.tense,
                               lex)), _NOT, word(clause.verb))
        return
    out += map(word, verb_form(clause.verb, subj.person, subj.number,
                               clause.tense, lex).split())


# Letters whose English name starts with a vowel sound: "an F", "an x".
_VOWEL_NAMED_LETTERS = frozenset("AEFHILMNORSX")


def _vowel_sound(text: str) -> bool:
    """Whether ``text`` is spoken with a leading vowel sound.  A number
    is read aloud ("an 8", "an 11", "an 18,000", "a 1,800"); a single
    letter or an all-caps initialism, alone or before a hyphen, by its
    first letter's name ("an FBI agent", "an x-ray"); any other word by
    its first letter."""
    digits = text.replace(",", "").partition(".")[0]
    if digits.isascii() and digits.isdigit():
        lead = digits[:len(digits) % 3 or 3]  # the leading thousands group
        return lead[0] == "8" or lead in ("11", "18")
    first = text.partition("-")[0]
    if first.isalpha() and (len(first) == 1 or first.isupper()):
        return first[0].upper() in _VOWEL_NAMED_LETTERS
    return text[:1].lower() in "aeiou"


def _add_phrase(out: list[Token], rc: ir.ResolvedComplement,
                lex: Lexicon) -> None:
    phrase = rc.phrase
    if phrase.preposition:
        out.append(word(phrase.preposition))
    if rc.ref is not None:
        _add_reference(out, rc.ref, "objective", lex)
        return
    head = phrase.head.split()
    if phrase.determiner == "a":
        # "a" or "an", by the next word: the lexicon's exceptions first
        # ("an hour", "a university"), then how the word is spoken.
        following = (phrase.premodifiers or head)[0]
        article = lex.article_exceptions.get(following.lower())
        out.append(word(article or
                        ("an" if _vowel_sound(following) else "a")))
    elif phrase.determiner:
        out.append(word(phrase.determiner))
    out += map(word, phrase.premodifiers)
    out += map(word, head)


def _add_clause(out: list[Token], clause: ir.ClauseSpec,
                lex: Lexicon) -> None:
    if clause.condition is not None:
        out.append(_IF)
        _add_clause(out, clause.condition, lex)
        out.append(_COMMA)
    _add_reference(out, clause.subject_ref, "subjective", lex)
    _add_verb(out, clause, lex)
    # Units of one coordination group: "A", "A and B", "A, B and C".
    last = len(clause.complements) - 1
    for i, unit in enumerate(clause.complements):
        if i:
            out.append(_AND if i == last else _COMMA)
        for rc in unit:
            _add_phrase(out, rc, lex)


def realize_sentence(sp: ir.SentencePlan,
                     lex: Lexicon | None = None) -> list[Token]:
    """Token stream for one sentence, ending in a period and a sentence
    boundary."""
    lex = lex or default_lexicon()
    toks: list[Token] = []
    for i, clause in enumerate(sp.clauses):
        if i:
            toks.append(_AND)
        _add_clause(toks, clause, lex)
    toks.append(_PERIOD)
    toks.append(_SENTENCE)
    return toks


def realize_document(plans: list[ir.SentencePlan],
                     lex: Lexicon | None = None) -> str:
    """Realize a whole document; sentences in order, paragraphs split by
    blank lines."""
    lex = lex or default_lexicon()
    stream: list[Token] = []
    for sp in plans:
        if stream and sp.new_paragraph:
            stream[-1] = _PARAGRAPH
        stream += realize_sentence(sp, lex)
    return orthography(stream)


# ---------------------------------------------------------------------------
# Orthography


def _collapse_punct(stream: list[Token]) -> list[Token]:
    # Boundaries render as mere spacing, so punctuation marks separated
    # only by boundaries are adjacent on the page and collapse the same
    # way as direct neighbors.  A word's own final period ("Jr.", "St.")
    # counts as a mark before the first one after it.
    out: list[Token] = []
    marks: list[int] = []  # indexes into out of the marks since the last word
    own: str | None = None  # PERIOD when the last word ends in one
    for tok in stream:
        if tok.kind == "word":
            marks.clear()
            own = PERIOD if tok.text.endswith(PERIOD) else None
        elif tok.kind == "punct":
            prev = out[marks[-1]].text if marks else own
            if prev == tok.text:
                continue  # duplicate mark
            if prev == COMMA and tok.text == PERIOD:
                # The period absorbs the comma; if a period came before
                # that comma, the two periods are one.
                if (out[marks[-2]].text if len(marks) > 1 else own) \
                        == PERIOD:
                    del out[marks.pop()]
                else:
                    out[marks[-1]] = tok
                continue
            marks.append(len(out))
        out.append(tok)
    return out


def _render(stream: list[Token]) -> str:
    """Rules 2-3: capitals and spacing."""
    parts: list[str] = []
    sep = ""  # separator before the next word
    sentence_start = True
    for kind, text in stream:
        if kind == "word":
            if sentence_start and text[:1].isalpha():
                text = text[0].upper() + text[1:]
            if parts:
                parts.append(sep)
            parts.append(text)
            sep = " "
            sentence_start = False
        elif kind == "punct":
            parts.append(text)  # no space before punctuation
            sep = " "
            sentence_start = sentence_start or text == PERIOD
        else:  # a boundary
            if text == "paragraph":
                sep = "\n\n"
            sentence_start = True
    return "".join(parts)


def orthography(stream: list[Token]) -> str:
    """Final string for a token stream; total over well-formed streams."""
    return _render(_collapse_punct(stream))
