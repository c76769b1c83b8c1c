"""Surface realization: sentence plans to grammatical English text.

Realization happens in two steps.  realize_sentence() linearizes a
SentencePlan into a token stream (words, punctuation marks, boundaries),
inflecting the verb against the subject's agreement features and rendering
every reference through the lexicon.  orthography() then turns a token
stream into the final string with an ordered list of rewrite rules:

    1. punctuation collapse: ","+"." -> "." (point absorption) and
       duplicate adjacent identical marks -> one mark
    2. "a" -> "an" before a vowel-initial word, with a lexicon-driven
       exceptions list ("an hour", "a university")
    3. capitalization at sentence starts; standalone "i" -> "I"
    4. spacing: single spaces between words, none before punctuation,
       blank line at paragraph boundaries

Keeping point absorption a token-level rewrite makes it locally testable
instead of string surgery.  The module also hosts the fill-in-the-blank
template realizer, which shares the orthography pass.
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


def _words(text: str) -> list[Token]:
    # Multi-word names ("Helen Jones") become one token per word.
    return [word(w) for w in text.split()]


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


def _reference_tokens(ref: ir.ReferenceSpec, case: str,
                      lex: Lexicon) -> list[Token]:
    """Tokens for one mention; ``case`` is "subjective" for a subject and
    "objective" for a complement."""
    ent = ref.entity
    # English has no non-pronominal way to mention speaker or hearer, so
    # only a third-person full reference is not a pronoun.
    if ref.mode == "full-name" and ent.person == "third":
        return [word(w) for w in _full_reference(ent, lex)]
    if ref.mode == "reflexive-pronoun":
        case = "reflexive"
    return [word(pronoun(ent.person, ent.number, ent.gender, case, lex))]


def _verb_tokens(clause: ir.ClauseSpec, lex: Lexicon) -> list[Token]:
    subj = clause.subject_ref.entity
    markers = [word(m) for m in clause.discourse_markers]
    negative = clause.polarity == "negative"
    if clause.modal:
        toks = [word(clause.modal)]
        if negative:
            toks.append(word("not"))
        return toks + markers + [word(clause.verb)]
    if clause.tense == "future":
        toks = [word("will")]
        if negative:
            toks.append(word("not"))
        return toks + markers + [word(clause.verb)]
    if negative:
        if clause.verb == "be":  # copula negates without do-support
            form = verb_form("be", subj.person, subj.number, clause.tense,
                             lex)
            return [word(form), word("not")] + markers
        aux = verb_form("do", subj.person, subj.number, clause.tense, lex)
        return [word(aux), word("not")] + markers + [word(clause.verb)]
    form = verb_form(clause.verb, subj.person, subj.number, clause.tense,
                     lex)
    return markers + _words(form)


def _phrase_tokens(rc: ir.ResolvedComplement, lex: Lexicon) -> list[Token]:
    phrase = rc.phrase
    toks: list[Token] = []
    if phrase.preposition:
        toks.append(word(phrase.preposition))
    if rc.ref is not None:
        return toks + _reference_tokens(rc.ref, "objective", lex)
    if phrase.determiner:
        toks.append(word(phrase.determiner))
    for mod in phrase.premodifiers:
        toks.append(word(mod))
    toks += _words(phrase.head)
    return toks


def _complement_tokens(units, lex: Lexicon) -> list[Token]:
    # Units of one coordination group: "A", "A and B", "A, B and C".
    toks: list[Token] = []
    count = len(units)
    for i, unit in enumerate(units):
        if i > 0:
            if i == count - 1:
                toks.append(word("and"))
            else:
                toks.append(punct(COMMA))
        for rc in unit:
            toks += _phrase_tokens(rc, lex)
    return toks


def _clause_tokens(clause: ir.ClauseSpec, lex: Lexicon) -> list[Token]:
    toks: list[Token] = []
    if clause.condition is not None:
        toks.append(word("if"))
        toks += _clause_tokens(clause.condition, lex)
        toks.append(punct(COMMA))
    toks += _reference_tokens(clause.subject_ref, "subjective", lex)
    toks += _verb_tokens(clause, lex)
    toks += _complement_tokens(clause.complements, lex)
    return toks


def realize_sentence(sp: ir.SentencePlan,
                     lex: Lexicon | None = None) -> list[Token]:
    """Token stream for one sentence, ending in a period and a sentence
    boundary."""
    lex = lex or default_lexicon()
    toks: list[Token] = []
    for i, clause in enumerate(sp.clauses):
        if i > 0:
            toks.append(word("and"))
        toks += _clause_tokens(clause, lex)
    toks.append(punct(PERIOD))
    toks.append(boundary("sentence"))
    return toks


def realize_document(plans: list[ir.SentencePlan],
                     lex: Lexicon | None = None) -> str:
    """Realize a whole document; sentences in order, paragraphs split by
    blank lines."""
    lex = lex or default_lexicon()
    stream: list[Token] = []
    for sp in plans:
        if stream and sp.new_paragraph:
            stream[-1] = boundary("paragraph")
        stream += realize_sentence(sp, lex)
    return orthography(stream, lex)


# ---------------------------------------------------------------------------
# Orthography


def _collapse_punct_once(stream: list[Token]) -> list[Token]:
    # Boundaries render as mere spacing, so punctuation marks separated
    # only by boundaries are adjacent on the page and collapse the same
    # way as direct neighbors.
    out: list[Token] = []
    last_punct = -1  # index into out; words invalidate it
    for tok in stream:
        if tok.kind == "word":
            out.append(tok)
            last_punct = -1
        elif tok.kind == "boundary":
            out.append(tok)
        else:
            if last_punct >= 0:
                prev = out[last_punct]
                if prev.text == tok.text:
                    continue  # duplicate mark
                if prev.text == COMMA and tok.text == PERIOD:
                    out[last_punct] = tok  # the period absorbs the comma
                    continue
            out.append(tok)
            last_punct = len(out) - 1
    return out


def _collapse_punct(stream: list[Token]) -> list[Token]:
    # An absorption can create a new adjacency, so run to a fixed point;
    # every changing pass removes at least one mark.
    while True:
        out = _collapse_punct_once(stream)
        if out == stream:
            return out
        stream = out


def _apply_articles(stream: list[Token], lex: Lexicon) -> list[Token]:
    exceptions = lex.article_exceptions
    out = list(stream)
    for i, tok in enumerate(out):
        if tok.kind != "word" or tok.text.lower() != "a":
            continue
        j = i + 1  # boundaries render as spacing; the next word decides
        while j < len(out) and out[j].kind == "boundary":
            j += 1
        if j >= len(out) or out[j].kind != "word":
            continue
        following = out[j].text.lower()
        article = exceptions.get(following)
        if article is None:
            article = "an" if following[:1] in "aeiou" else "a"
        if article == "an":
            out[i] = word("An" if tok.text == "A" else "an")
    return out


def _capitalize(stream: list[Token]) -> list[Token]:
    out = list(stream)
    sentence_start = True
    for i, tok in enumerate(stream):
        if tok.kind == "word":
            text = tok.text
            if text == "i":
                out[i] = word("I")
            elif sentence_start and text[:1].isalpha():
                upper = text[0].upper() + text[1:]
                if upper != text:
                    out[i] = word(upper)
            sentence_start = False
        elif tok.kind == "boundary" or tok.text in (PERIOD, QUESTION):
            sentence_start = True
    return out


def _assemble(stream: list[Token]) -> str:
    parts: list[str] = []
    sep = ""  # pending separator before the next word
    for tok in stream:
        if tok.kind == "word":
            if parts:
                parts.append(sep or " ")
            parts.append(tok.text)
            sep = " "
        elif tok.kind == "punct":
            parts.append(tok.text)  # no space before punctuation
            sep = " "
        elif tok.kind == "boundary":
            if tok.text == "paragraph":
                sep = "\n\n"
            elif sep != "\n\n":
                sep = " "
    return "".join(parts)


def orthography(stream: list[Token], lex: Lexicon | None = None) -> str:
    """Final string for a token stream; total over well-formed streams."""
    stream = _collapse_punct(stream)
    stream = _apply_articles(stream, lex or default_lexicon())
    stream = _capitalize(stream)
    return _assemble(stream)


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
            stream.append(boundary("paragraph"))
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
    stream.append(boundary("sentence"))
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
