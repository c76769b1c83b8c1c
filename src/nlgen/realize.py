"""Surface realization: sentence plans to grammatical English text.

Realization happens in two steps.  realize_sentence() linearizes a
SentencePlan into a token stream (words, punctuation marks, boundaries),
inflecting the verb against the subject's agreement features and rendering
every reference through the lexicon.  orthography() then turns a token
stream into the final string with four ordered rules:

    1. punctuation collapse: ","+"." -> "." (point absorption) and
       duplicate adjacent identical marks -> one mark
    2. "a" or "an", whichever the next word takes: "an" before a word
       spoken with a leading vowel sound (a vowel letter, a number such
       as 8 or 11, or a letter name such as F in "FBI"), else "a"; so
       "a" becomes "an" and "an" becomes "a" as needed.  A lexicon-driven
       exceptions list wins ("an hour", "a university")
    3. capitalization at sentence starts; standalone "i" -> "I"
    4. spacing: single spaces between words, none before punctuation,
       blank line at paragraph boundaries

Rule 1 is one pass over the tokens; rules 2-4 are a second pass that
writes the text.  Keeping point absorption a token-level rewrite makes it
locally testable instead of string surgery.  The module also hosts the
fill-in-the-blank template realizer, which shares the orthography pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import ir
from .errors import TemplateError
from .lexicon import Lexicon, default_lexicon, pluralize, pronoun, verb_form

COMMA = ","
PERIOD = "."
QUESTION = "?"  # never generated; template text may hold it
_PUNCT_MARKS = (COMMA, PERIOD, QUESTION)

# Words kept whole by the tokenizer even though they end in a period.
ABBREVIATIONS = frozenset({"mr.", "mrs.", "ms.", "dr.", "prof.", "st."})


class Token(NamedTuple):
    kind: str  # "word" | "punct" | "boundary"
    text: str  # word text, punctuation mark, or "sentence"/"paragraph"


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


def _add_phrase(out: list[Token], rc: ir.ResolvedComplement,
                lex: Lexicon) -> None:
    phrase = rc.phrase
    if phrase.preposition:
        out.append(word(phrase.preposition))
    if rc.ref is not None:
        _add_reference(out, rc.ref, "objective", lex)
        return
    if phrase.determiner:
        out.append(word(phrase.determiner))
    out += map(word, phrase.premodifiers)
    out += map(word, phrase.head.split())


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
    return orthography(stream, lex)


# ---------------------------------------------------------------------------
# Orthography


def _collapse_punct(stream: list[Token]) -> list[Token]:
    # Boundaries render as mere spacing, so punctuation marks separated
    # only by boundaries are adjacent on the page and collapse the same
    # way as direct neighbors.
    out: list[Token] = []
    marks: list[int] = []  # indexes into out of the marks since the last word
    for tok in stream:
        if tok.kind == "word":
            marks.clear()
        elif tok.kind == "punct":
            prev = out[marks[-1]].text if marks else None
            if prev == tok.text:
                continue  # duplicate mark
            if prev == COMMA and tok.text == PERIOD:
                # The period absorbs the comma; if a period came before
                # that comma, the two periods are one.
                if len(marks) > 1 and out[marks[-2]].text == PERIOD:
                    del out[marks.pop()]
                else:
                    out[marks[-1]] = tok
                continue
            marks.append(len(out))
        out.append(tok)
    return out


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


def _render(stream: list[Token], exceptions: dict[str, str]) -> str:
    """Rules 2-4: each "a"/"an" is settled when the next word arrives."""
    parts: list[str] = []
    sep = ""  # separator before the next word
    sentence_start = True
    article = -1  # index into parts of an "a"/"an" awaiting the next word
    for kind, text in stream:
        if kind == "word":
            if article >= 0:
                # Boundaries render as spacing; the next word decides.
                chosen = exceptions.get(text.lower()) \
                    or ("an" if _vowel_sound(text) else "a")
                old = parts[article]
                if chosen != old.lower():
                    parts[article] = chosen.capitalize() \
                        if old[0] == "A" else chosen
            if text == "i":
                text = "I"
            elif sentence_start and text[:1].isalpha():
                text = text[0].upper() + text[1:]
            if parts:
                parts.append(sep)
            parts.append(text)
            article = len(parts) - 1 if text.lower() in ("a", "an") else -1
            sep = " "
            sentence_start = False
        elif kind == "punct":
            parts.append(text)  # no space before punctuation
            sep = " "
            article = -1
            sentence_start = sentence_start or text in (PERIOD, QUESTION)
        else:  # a boundary
            if text == "paragraph":
                sep = "\n\n"
            sentence_start = True
    return "".join(parts)


def orthography(stream: list[Token], lex: Lexicon | None = None) -> str:
    """Final string for a token stream; total over well-formed streams."""
    lex = lex or default_lexicon()
    return _render(_collapse_punct(stream), lex.article_exceptions)


def tokenize_text(text: str) -> list[Token]:
    """Re-read plain text as a token stream (used by the template realizer).

    Splits on whitespace, peels trailing punctuation marks off words, and
    treats blank lines as paragraph boundaries.  Known abbreviations such
    as "Mrs." keep their period.
    """
    stream: list[Token] = []
    paragraphs = [p for p in text.split("\n\n") if p.strip()]
    for pi, para in enumerate(paragraphs):
        if pi > 0:
            stream.append(_PARAGRAPH)
        for piece in para.split():
            if piece in _PUNCT_MARKS:
                stream.append(punct(piece))
                continue
            if piece.lower() in ABBREVIATIONS:
                stream.append(word(piece))
                continue
            trailing: list[Token] = []
            while piece and piece[-1] in _PUNCT_MARKS \
                    and piece.lower() not in ABBREVIATIONS:
                trailing.insert(0, punct(piece[-1]))
                piece = piece[:-1]
            if piece:
                stream.append(word(piece))
            stream.extend(trailing)
    stream.append(_SENTENCE)
    return stream


# ---------------------------------------------------------------------------
# Fill-in-the-blank templates

SLOT_KINDS = ("raw", "entity", "number")


@dataclass(frozen=True)
class TemplatePart:
    kind: str  # "literal" | "slot"
    text: str = ""  # literal text or slot name
    slot_kind: str = "raw"


@dataclass(frozen=True)
class Template:
    name: str
    parts: tuple[TemplatePart, ...]


def _parse_template_body(name: str, body: str) -> Template:
    parts: list[TemplatePart] = []
    rest = body
    seen: set[str] = set()
    while rest:
        open_at = rest.find("{")
        if open_at < 0:
            parts.append(TemplatePart("literal", rest))
            break
        if open_at > 0:
            parts.append(TemplatePart("literal", rest[:open_at]))
        close_at = rest.find("}", open_at)
        if close_at < 0:
            raise TemplateError(f"template {name!r}: unclosed slot")
        inner = rest[open_at + 1:close_at]
        slot_name, _, kind = inner.partition(":")
        slot_name = slot_name.strip()
        kind = kind.strip() or "raw"
        if not slot_name:
            raise TemplateError(f"template {name!r}: empty slot name")
        if kind not in SLOT_KINDS:
            raise TemplateError(
                f"template {name!r}: unknown slot kind {kind!r}")
        if slot_name in seen:
            raise TemplateError(
                f"template {name!r}: duplicate slot {slot_name!r}")
        seen.add(slot_name)
        parts.append(TemplatePart("slot", slot_name, kind))
        rest = rest[close_at + 1:]
    return Template(name, tuple(parts))


def parse_templates(source: str) -> dict[str, Template]:
    """Parse a template file: 'template <name>' then body lines, blocks
    separated by blank lines."""
    templates: dict[str, Template] = {}
    name: str | None = None
    body: list[str] = []

    def flush() -> None:
        nonlocal name, body
        if name is not None:
            templates[name] = _parse_template_body(name, " ".join(body))
        name, body = None, []

    for raw in source.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            flush()
            continue
        if line.startswith("template "):
            flush()
            name = line[len("template "):].strip()
            if not name:
                raise TemplateError("template block without a name")
            if name in templates:
                raise TemplateError(f"duplicate template {name!r}")
        elif name is None:
            raise TemplateError(f"text outside a template block: {line!r}")
        else:
            body.append(line)
    flush()
    return templates


def realize_template(template: Template, slots: dict,
                     lex: Lexicon | None = None) -> str:
    """Fill a template and normalize the result through orthography.

    Missing slot values are errors; extra values are ignored.
    """
    lex = lex or default_lexicon()
    pieces: list[str] = []
    for part in template.parts:
        if part.kind == "literal":
            pieces.append(part.text)
            continue
        if part.text not in slots:
            raise TemplateError(f"missing value for slot {part.text!r}")
        value = slots[part.text]
        if part.slot_kind == "entity":
            if not isinstance(value, ir.Entity):
                raise TemplateError(
                    f"slot {part.text!r} expects an entity")
            if not (value.name or value.head):
                raise TemplateError(
                    f"entity {value.id!r} has neither name nor head")
            pieces.append(" ".join(_full_reference(value, lex)))
        elif part.slot_kind == "number":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TemplateError(
                    f"slot {part.text!r} expects a number")
            pieces.append(ir.number_text(value))
        else:
            if not isinstance(value, str):
                raise TemplateError(f"slot {part.text!r} expects text")
            pieces.append(value)
    return orthography(tokenize_text("".join(pieces)), lex)
