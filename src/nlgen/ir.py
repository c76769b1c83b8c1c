"""Intermediate representations shared by the pipeline stages.

The document planner produces a DocumentPlan (a labeled tree whose leaves
are Messages), the sentence planner turns it into SentencePlans (clause
structure with reference modes and discourse markers), and the realizer
renders those to text.  Both plan kinds serialize to a canonical JSON form
that leaves out every field at its default and round-trips losslessly;
that serialization is the contract between the stage-level CLI commands.

validate() and validate_sentences() hold the plan invariants.  The check
that sentence planning never changes what a document says is test code:
tests/oracle.py reduces either representation to a set of proposition
tuples, and the two sets must be equal.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import MISSING, dataclass, field
from typing import Literal, Union, get_args, get_origin, get_type_hints

from .errors import DataError

# Each enum domain is declared once, as a Literal; the decoder checks
# values against it and the tuples below are its members, in order.
Gender = Literal["masculine", "feminine", "neuter"]
Number = Literal["singular", "plural"]
Person = Literal["first", "second", "third"]
Tense = Literal["present", "past", "future"]
Modal = Literal["should", "must", "can"]
Polarity = Literal["positive", "negative"]
RelationLabel = Literal["sequence", "elaboration", "contrast"]
Determiner = Literal["a", "the"]
ReferenceMode = Literal["full-name", "pronoun", "reflexive-pronoun"]
Case = Literal["subjective", "objective"]

GENDERS = get_args(Gender)
NUMBERS = get_args(Number)
PERSONS = get_args(Person)
TENSES = get_args(Tense)
MODALS = get_args(Modal)
POLARITIES = get_args(Polarity)
RELATION_LABELS = get_args(RelationLabel)
CASES = get_args(Case)

# Complement heads that name an entity instead of a common noun carry this
# prefix, e.g. "@mrs_black".
ENTITY_MARKER = "@"

# How deep a document plan's relation nodes may nest below its root.
# traverse counts one level per `call` and per non-sequence arc and stops
# past it, and the plan rules refuse a deeper plan, so every stage walks
# trees that fit the interpreter's stack: the encoder spends two
# interpreter frames per plan level and overflows near 495 levels.
MAX_NESTING = 100
# The problem named for plan JSON too deep for the decoders to walk (a
# few hundred levels, by Python version); no valid file comes near it.
_TOO_DEEP = f"JSON values nest more than {MAX_NESTING} levels"


# The most digits an integer may have in any input: the interpreter's
# default limit on integer text, which nlgen applies itself, so that every
# interpreter refuses the same numbers with the same message.  INT_BOUND is
# the least integer past it, for values that are already ints.
MAX_DIGITS = 4300
DIGITS_RULE = f"an integer has at most {MAX_DIGITS} digits"
INT_BOUND = 10 ** MAX_DIGITS


def parse_int(text: str) -> int:
    """Integer text as an int; a ValueError naming DIGITS_RULE past
    MAX_DIGITS digits, before any conversion."""
    if len(text) > MAX_DIGITS and len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(DIGITS_RULE)
    return int(text)


# A modal is followed by the bare verb and has no tense of its own, so
# "can go" cannot say past or future: the schema parser, validate() and
# validate_sentences() refuse a modal with another tense.
MODAL_TENSE_RULE = "a modal takes present tense"
# An @ head names an entity, which the realizer writes whole: traverse(),
# on complement text, and validate() refuse any word before it but a
# preposition.
ENTITY_HEAD_RULE = "an @entity head takes no determiner or premodifiers"
# The realizer writes an honorific only before a name, so every entity
# table refuses one on an unnamed entity, or a blank one.
HONORIFIC_RULE = "an honorific needs a name and may not be blank"


def is_verb_lemma(verb: str) -> bool:
    """A verb lemma is one lowercase alphabetic word ("have", not "Has",
    "go.to", "go home" or a value that is not a str)."""
    return isinstance(verb, str) and verb.isalpha() and verb.islower()


def number_text(value: int | float) -> str:
    """A finite number in positional notation: its shortest repr, with the
    point moved when the repr has an exponent (1e-07 is "0.0000001" and
    1e+16 is "10000000000000000")."""
    text = repr(value)
    if "e" not in text:
        return text
    from decimal import Decimal  # on first use: it slows start-up

    return format(Decimal(text), "f")


# The name of each JSON kind of value, as failure messages write it.
_JSON_KINDS = {dict: "an object", list: "an array", str: "a string",
               int: "a number", float: "a number", bool: "a boolean",
               type(None): "null"}


def json_kind(value) -> str:
    """The JSON kind of ``value`` as messages name it ("an array", "a
    number", "null"); a value no JSON file holds is named by its type."""
    return _JSON_KINDS.get(type(value)) or type(value).__name__


def entity_ref(head: str) -> str | None:
    """Return the entity id named by a complement head, or None."""
    if head.startswith(ENTITY_MARKER):
        return head[len(ENTITY_MARKER):]
    return None


@dataclass(frozen=True)
class Entity:
    """A discourse referent: something the text can talk about."""

    id: str
    name: str | None = None
    head: str | None = None
    gender: Gender = "neuter"
    number: Number = "singular"
    person: Person = "third"
    honorific: str | None = None


@dataclass(frozen=True)
class ComplementPhrase:
    """One complement of a verb: noun phrase, PP, or entity reference."""

    head: str
    determiner: Determiner | None = None
    premodifiers: tuple[str, ...] = ()
    preposition: str | None = None

    @property
    def kind(self) -> str:
        """Derived: "prepositional-phrase" when there is a preposition,
        else "entity-reference" for an @ head, else "noun-phrase"."""
        if self.preposition:
            return "prepositional-phrase"
        if self.head.startswith(ENTITY_MARKER):
            return "entity-reference"
        return "noun-phrase"


@dataclass(frozen=True)
class Message:
    """One atomic proposition selected from the input data.

    A message with a ``condition`` realizes as "If <condition>, <main>".
    ``adverb`` is an optional pre-verb word carried through to the clause
    ("just" in "I just saw ...); it is styling, not propositional content.
    """

    subject: str
    verb: str
    complements: tuple[ComplementPhrase, ...] = ()
    tense: Tense = "present"
    modal: Modal | None = None
    polarity: Polarity = "positive"
    adverb: str | None = None
    condition: Message | None = None


@dataclass(frozen=True)
class PlanNode:
    """DocumentPlan relation node: a label over its children, each a
    PlanNode or a Message, which is a leaf of the tree by itself."""

    label: RelationLabel
    children: tuple[PlanNode | Message, ...]


@dataclass(frozen=True)
class DocumentPlan:
    """Rhetorical tree over Messages, plus the entities they mention.

    ``entities`` travels with the tree so the plan is self-contained:
    validate() and the later stages never need the original input data.
    ``root`` is None for an empty document.
    """

    root: PlanNode | Message | None
    entities: dict[str, Entity] = field(default_factory=dict)


@dataclass(frozen=True)
class ReferenceSpec:
    """How one mention of an entity is to be realized; its case follows
    from its position in the clause."""

    entity: Entity
    mode: ReferenceMode = "full-name"


@dataclass(frozen=True)
class ResolvedComplement:
    """A complement phrase whose entity head (if any) carries a reference."""

    phrase: ComplementPhrase
    ref: ReferenceSpec | None = None


@dataclass(frozen=True)
class ClauseSpec:
    """Deep syntactic shape of one clause.

    ``complements`` is a single coordination group: one unit per source
    message, units joined by "and" at realization time.  An unaggregated
    clause has exactly one unit holding the message's complement phrases.
    ``discourse_markers`` are words placed before the main verb ("also").
    """

    subject_ref: ReferenceSpec
    verb: str
    tense: Tense = "present"
    modal: Modal | None = None
    polarity: Polarity = "positive"
    complements: tuple[tuple[ResolvedComplement, ...], ...] = ()
    discourse_markers: tuple[str, ...] = ()
    condition: ClauseSpec | None = None


@dataclass(frozen=True)
class SentencePlan:
    """One output sentence, ending in a period; ``new_paragraph`` opens a
    paragraph before it."""

    clauses: tuple[ClauseSpec, ...]
    new_paragraph: bool = False


# ---------------------------------------------------------------------------
# Plan lookups


def lookup_entity(entities: dict[str, Entity], entity_id: str) -> Entity:
    """The entity ``entity_id`` names in ``entities``."""
    entity = entities.get(entity_id)
    if entity is None:
        raise DataError(f"dangling entity reference: {entity_id!r}")
    return entity


def plan_leaves(plan: DocumentPlan) -> list[Message]:
    """The messages of a document plan, its leaves, in document order."""
    leaves: list[Message] = []
    stack = [] if plan.root is None else [plan.root]
    while stack:
        node = stack.pop()
        if type(node) is Message:
            leaves.append(node)
        else:
            stack += reversed(node.children)
    return leaves


# ---------------------------------------------------------------------------
# Validation
#
# Each field's type is stated once, by its hint, which _row() reads into
# a row: the decoder refuses a file's value by it, and _misfits() a value
# of a plan built by hand, in the same words; the rules run only on a plan
# whose values fit, and alone on a decoded plan, which the decoder has
# made to fit.  The checks keep a path as links and format it only
# when a check fails.  Each distinct plan object is checked against its
# rows once per call; the rules check each distinct complement once, by
# id (the plan keeps it alive), and name its problems at each use.
# _ROWS holds each hint's row, _FIELD_ROWS each plan class's fields, last
# first, as (name, "." + name, default or an object no value is, quick,
# row).
_ROWS: dict = {}
_FIELD_ROWS: dict = {}


def _row(tp) -> tuple:
    """The row of hint ``tp``: (its Literal domain or (); a container's
    item row or None; quick: by each type a value may have, None if it
    fits, True if its parts are checked, else the set of values that fit;
    what a message says it expects).  A class's codec builds its rows."""
    if (row := _ROWS.get(tp)) is None:
        origin, args = get_origin(tp), get_args(tp)
        if origin is Literal:
            row = args, None, {str: frozenset(args)}, ""
        elif origin in (tuple, list, dict):
            row = (), _row(args[1 if origin is dict else 0]), \
                {origin: True}, f"a {origin.__name__}"
        elif args:  # a union, of at most one Literal
            rows = [_row(a) for a in args]
            row = (sum((r[0] for r in rows), ()), None,
                   {t: ok for r in rows for t, ok in r[2].items()},
                   " or ".join(r[3] for r in rows if r[3] != "null"))
        elif tp in _JSON_KINDS:
            row = (), None, {tp: None}, _JSON_KINDS[tp]
        else:  # a plan class
            _codec(tp)
            row = (), None, {tp: True}, \
                ("an " if tp.__name__[0] in "AEIOU" else "a ") + tp.__name__
        _ROWS[tp] = row
    return row


def _mismatch(row, value) -> str:
    if row[0]:
        return f"unknown value {value!r}; expected one of {', '.join(row[0])}"
    return f"expected {row[3]}, got {json_kind(value)}"


def _path(at) -> str:
    """A path kept as links (parent, name) or (parent, name, index), as text:
    (("sentences", "", 1), ".clauses", 0) is "sentences[1].clauses[0]"."""
    parts = []
    while type(at) is not str:
        parts.append(at[1] if len(at) == 2 else f"{at[1]}[{at[2]}]")
        at = at[0]
    return (at + "".join(reversed(parts))).lstrip(".")


def _misfits(value, row, at) -> list[str]:
    """What of ``value`` at path ``at`` its rows refuse, in document order:
    itself, a container's items, a plan object's fields, and so on down."""
    problems: list[str] = []
    seen = set()  # the plan objects checked
    stack = [(value, row, at)]  # each a value to look into, or a misfit
    while stack:
        value, row, at = stack.pop()
        if row[2].get(type(value)) is not True:
            where, problem = _path(at), _mismatch(row, value)
            problems.append(f"{where}: {problem}" if where else problem)
        elif (item := row[1]) is not None:
            parts = value.items() if type(value) is dict else enumerate(value)
            stack += reversed([(v, item, (at, "", k)) for k, v in parts
                               if (ok := item[2].get(type(v), ())) is not None
                               and (ok is True or v not in ok)
                               and id(v) not in seen])
        elif id(value) not in seen:
            seen.add(id(value))
            fields = value.__dict__
            stack += [(v, row, (at, key)) for name, key, default, quick, row
                      in _FIELD_ROWS[type(value)]
                      if (v := fields[name]) is not default
                      and (ok := quick.get(type(v), ())) is not None
                      and (ok is True or v not in ok)]
    return problems


def _validate_entities(entities: dict[str, Entity]) -> list[str]:
    """The entity-table rules, on a table whose values fit their rows."""
    problems: list[str] = []
    for eid, ent in entities.items():
        where = f"entities[{eid}]"
        if eid != ent.id:
            problems.append(
                f"{where}: table key does not match entity id {ent.id!r}")
        text = ent.name or ent.head
        if not text or ent.name and ent.head or text.isspace():
            problems.append(
                f"{where}: exactly one of name/head must be given, not blank")
        if ent.honorific is not None and not (ent.name and
                                              ent.honorific.strip()):
            problems.append(f"{where}: {HONORIFIC_RULE}")
    return problems


def _validate_verb(msg: Message | ClauseSpec, at, problems: list[str]) -> None:
    if not is_verb_lemma(msg.verb):
        problems.append(f"{_path(at)}: verb lemma must be one lowercase "
                        f"alphabetic word")
    if msg.modal and msg.tense != "present":
        problems.append(f"{_path(at)}: {MODAL_TENSE_RULE}")


def _phrase_problems(phrase: ComplementPhrase) -> list[str]:
    """The problems of a complement's words, without a path."""
    problems = []
    if not (phrase.head.strip() and all(map(str.strip, phrase.premodifiers))) \
            or (phrase.preposition or "").isspace():
        problems.append("blank word in complement")
    if phrase.head.startswith(ENTITY_MARKER) and (phrase.determiner
                                                  or phrase.premodifiers):
        problems.append(ENTITY_HEAD_RULE)
    return problems


def _validate_message(msg: Message, at, entities: dict[str, Entity],
                      checked: dict, problems: list[str],
                      nested: bool = False) -> None:
    _validate_verb(msg, at, problems)
    if msg.subject not in entities:
        problems.append(f"{_path(at)}: referential integrity: unknown "
                        f"subject entity {msg.subject!r}")
    if msg.adverb is not None and msg.adverb.isspace():
        problems.append(f"{_path(at)}: blank adverb")
    for i, phrase in enumerate(msg.complements):
        if (found := checked.get(id(phrase))) is None:
            found = checked[id(phrase)] = _phrase_problems(phrase)
            ref = entity_ref(phrase.head)
            if ref is not None and ref not in entities:
                found.append(f"referential integrity: unknown entity {ref!r}")
        if found:
            problems += [f"{_path(at)}.complements[{i}]: {p}" for p in found]
    if msg.condition is not None:
        if nested:
            problems.append(
                f"{_path(at)}: conditions may not nest below one level")
        else:
            _validate_message(msg.condition, (at, ".condition"), entities,
                              checked, problems, nested=True)


def _validate_node(node: PlanNode | Message, at, level: int,
                   entities: dict[str, Entity], checked: dict,
                   problems: list[str], too_deep: bool = False) -> bool:
    """Check the subtree at ``node``, whose path is ``at``; returns whether
    a branch past MAX_NESTING has been named, as ``too_deep`` is on entry."""
    if type(node) is Message:
        _validate_message(node, at, entities, checked, problems)
        return too_deep
    if level > MAX_NESTING:
        # Named once, at the first branch past the bound.  The full path
        # repeats ".children[i]"; its first segments and the level say
        # where the plan went deep.
        if not too_deep:
            head = ".".join(_path(at).split(".")[:3])
            problems.append(f"{head}... (level {level}): relation nodes "
                            f"nest more than {MAX_NESTING} levels below "
                            f"the root")
        return True
    if not node.children:
        problems.append(f"{_path(at)}: relation node has no children")
    for i, child in enumerate(node.children):
        too_deep = _validate_node(child, (at, ".children", i), level + 1,
                                  entities, checked, problems, too_deep)
    return too_deep


def validate(plan: DocumentPlan) -> list[str]:
    """Check that each value of a plan fits its field, then the invariants
    that types cannot express; returns one description per violation, and
    one for all branches past MAX_NESTING (empty list means the plan is
    well-formed); never raises.  Check a hand-built plan before planning."""
    return _misfits(plan, _row(DocumentPlan), "") or _plan_rules(plan)


def _plan_rules(plan: DocumentPlan) -> list[str]:
    """The rules of a document plan whose values fit their rows: the
    entity-table rules, then the tree's."""
    problems = _validate_entities(plan.entities)
    if plan.root is not None:
        _validate_node(plan.root, "root", 0, plan.entities, {}, problems)
    return problems


def _validate_clause(clause: ClauseSpec, at, checked: dict, refs: dict,
                     problems: list[str], nested: bool = False) -> None:
    _validate_verb(clause, at, problems)
    refs[id(clause.subject_ref)] = clause.subject_ref
    if not all(w.strip() for w in clause.discourse_markers):
        problems.append(f"{_path(at)}: blank discourse marker")
    units = clause.complements
    if len(units) > 1 and not all(units):
        problems.append(f"{_path(at)}: empty unit in a coordination group")
    for i, unit in enumerate(units):
        for j, rc in enumerate(unit):
            # found: (where below the complement, problem) pairs
            if (found := checked.get(id(rc))) is None:
                found = checked[id(rc)] = [
                    (".phrase", p) for p in _phrase_problems(rc.phrase)]
                ref = entity_ref(rc.phrase.head)
                if rc.ref is None:
                    if ref is not None:
                        found.append(("", f"@{ref} head has no ref"))
                elif rc.ref.entity.id != ref:
                    found.append((".ref", f"entity {rc.ref.entity.id!r} is "
                                          f"not the one its head names"))
                if rc.ref is not None:
                    refs[id(rc.ref)] = rc.ref
            if found:
                where = f"{_path(at)}.complements[{i}][{j}]"
                problems += [where + below + ": " + p for below, p in found]
    if clause.condition is not None:
        if nested:
            problems.append(
                f"{_path(at)}: conditions may not nest below one level")
        else:
            _validate_clause(clause.condition, (at, ".condition"), checked,
                             refs, problems, nested=True)


def validate_sentences(plans: list[SentencePlan]) -> list[str]:
    """Check sentence plans built by hand as validate() checks a document
    plan, with one entity per id and the entity rules on the entities they
    refer to.  Decoding runs only the rules."""
    return _misfits(plans, _row(list[SentencePlan]), "sentences") or \
        _sentence_rules(plans)


def _entity_table(refs) -> tuple[dict[str, Entity], list[str]]:
    """The entities that references hold, by id, and the problems of the
    rule that sentence plans refer to one entity per id: one for each id
    that two different entities hold."""
    entities: dict[str, Entity] = {}
    clashes: dict[str, str] = {}
    for ref in refs:
        known = entities.setdefault(ref.entity.id, ref.entity)
        if known is not ref.entity and known != ref.entity:
            clashes[known.id] = (f"entity {known.id!r} is referenced with "
                                 f"two different feature sets")
    return entities, list(clashes.values())


def _sentence_rules(plans: list[SentencePlan]) -> list[str]:
    """The rules of sentence plans whose values fit their rows: one entity
    per id, the entity rules on those entities, then the clause rules."""
    problems: list[str] = []
    checked: dict = {}
    refs: dict = {}  # each distinct reference object, by id
    for i, sp in enumerate(plans):
        if not sp.clauses:
            problems.append(f"sentences[{i}]: sentence has no clauses")
        for j, clause in enumerate(sp.clauses):
            _validate_clause(clause, (("sentences", "", i), ".clauses", j),
                             checked, refs, problems)
    entities, clashes = _entity_table(refs.values())
    return clashes + _validate_entities(entities) + problems


# ---------------------------------------------------------------------------
# Canonical JSON serialization
#
# One rule for every plan type: a dataclass is an object holding, under
# their names, those of its fields that differ from their defaults; a
# tuple or a list is an array, a dict is an object.  A file writes each
# distinct value of a type that sentence planning shares (_SHARED) in
# full at its first use, and each later use as its number: the count of
# distinct values of its type written before it.  Output is compact with
# sorted keys, escaped as by json.dumps without ensure_ascii.  _codec()
# builds each type's encoder and decoder together, once, from the type
# hints, and each is passed its file's state: the encoder the numbers of
# the shared values written, the decoder the shared values decoded.  Both
# test each value by its field's row: the encoder refuses a value the
# row refuses, and writes null only where the hint takes None.  The
# decoder turns a number back into the object it decoded for it, fills
# absent fields from the same defaults and rejects unknown and missing
# fields, wrong JSON types and values outside a Literal domain, naming
# the path.


_SHARED = (ComplementPhrase, ReferenceSpec, ResolvedComplement)
_quote = json.encoder.encode_basestring
_codecs: dict = {}


class _Invalid(Exception):
    """A value its row refuses; ``path`` collects segments innermost first."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path: list[str] = []


def _expect(value, kind: type):
    if type(value) is not kind:
        raise _Invalid(_mismatch(_row(kind), value))
    return value


def _codec(tp):
    """(encode, decode) for ``tp``, built once per type from its hints:
    encode(value, memo) is JSON text, memo holding the numbers of the
    shared values written, and decode(value, file) a parsed JSON value as
    ``tp``, file holding the shared values decoded (see from_obj).  Each
    raises _Invalid for a value that ``tp``'s row refuses."""
    if (codec := _codecs.get(tp)) is not None:
        return codec
    if dataclasses.is_dataclass(tp):
        return _dataclass_codec(tp)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal or tp in _JSON_KINDS:  # a scalar, or a raw part
        row = _row(tp)
        (kind, ok), = row[2].items()  # its one type, and the values that fit
        dump = _quote if kind is str else json.dumps

        def encode(value, memo):
            if type(value) is kind and (ok is None or value in ok):
                return dump(value)
            raise _Invalid(_mismatch(row, value))

        def decode(value, file):
            if type(value) is kind and (ok is None or value in ok):
                return value
            raise _Invalid(_mismatch(row, value))
    elif type(None) in args:  # only here is None written, as null
        inner = tuple(a for a in args if a is not type(None))
        write, item = _codec(inner[0] if len(inner) == 1 else Union[inner])

        def encode(value, memo):
            return "null" if value is None else write(value, memo)

        def decode(value, file):
            return None if value is None else item(value, file)
    elif PlanNode in args:  # a plan child: an object holding "children" is
        # a relation node, and any other object a message; both have
        # required fields, so the keys name the class.
        (node, read_node), (msg, read_msg) = _codec(PlanNode), _codec(Message)

        def encode(value, memo):
            return (node if type(value) is PlanNode else msg)(value, memo)

        def decode(value, file):
            is_node = type(value) is dict and "children" in value
            return (read_node if is_node else read_msg)(value, file)
    elif origin in (tuple, list):
        write, item = _codec(args[0])

        def encode(value, memo):
            text = ""
            for v in _expect(value, origin):
                text += "," + write(v, memo)
            return "[" + text[1:] + "]"

        def decode(value, file):
            out: list = []
            _expect(value, list)
            try:
                for v in value:
                    out.append(item(v, file))
            except _Invalid as exc:
                exc.path.append(f"[{len(out)}]")
                raise
            return origin(out)
    elif origin is dict:
        write, item = _codec(args[1])

        def encode(value, memo):
            return "{" + ",".join([_quote(k) + ":" + write(value[k], memo)
                                   for k in sorted(_expect(value, dict))]) \
                + "}"

        def decode(value, file):
            out: dict = {}
            for key, v in _expect(value, dict).items():
                try:
                    out[key] = item(v, file)
                except _Invalid as exc:
                    exc.path.append(f"[{key}]")
                    raise
            return out
    else:
        raise TypeError(f"no JSON codec for {tp!r}")
    _codecs[tp] = encode, decode
    return encode, decode


def _dataclass_codec(cls):
    # A decoded object is made with object.__new__ and given its fields
    # directly, and the encoder reads them from its __dict__: the frozen
    # __init__ would only set each one again through object.__setattr__.
    # That skips no logic while the class has no __post_init__ and no
    # __slots__, so both are refused here.
    if hasattr(cls, "__post_init__") or hasattr(cls, "__slots__"):
        raise TypeError(f"{cls.__name__} must be decoded through __init__")
    # Filled after registering, so that recursive types resolve: per field
    # in key order (name, ',"name":', default or an object no value
    # equals, its type, encoder), and each field's decoder by name.  A
    # value of another type than its default (0 for False) is never left out.
    writes: list = []
    reads: dict = {}
    declared = dataclasses.fields(cls)
    factories = {f.name: f.default_factory for f in declared
                 if f.default_factory is not MISSING}
    defaults = {f.name: f.default for f in declared
                if f.default is not MISSING}
    new, shared = object.__new__, cls in _SHARED

    def encode(value, memo):
        if type(value) is not cls:
            raise _Invalid(_mismatch(_row(cls), value))
        fields = value.__dict__
        text = ""
        for name, key, default, kind, item in writes:
            if (v := fields[name]) != default or type(v) is not kind:
                text += key + item(v, memo)
        return "{" + text[1:] + "}"

    def decode(value, file):
        if type(value) is not dict:
            if shared and type(value) is int:  # an earlier value's number
                seen = file[cls]
                if 0 <= value < len(seen):
                    return seen[value]
                raise _Invalid(f"number {value} names none of the "
                               f"{len(seen)} earlier {cls.__name__} values")
            _expect(value, dict)
        obj = new(cls)
        fields = obj.__dict__
        fields.update(defaults)
        for name, v in value.items():
            item = reads.get(name)
            if item is None:
                raise _Invalid(f"unknown field {name!r}")
            try:
                fields[name] = item(v, file)
            except _Invalid as exc:
                exc.path.append(f".{name}")
                raise
        if len(fields) < len(reads):
            for name in reads:
                if name not in fields:
                    if name not in factories:
                        raise _Invalid(f"missing field {name!r}")
                    fields[name] = factories[name]()
        if shared:
            file[cls].append(obj)
        return obj

    if shared:
        write = encode

        # memo: the number text of each value written, by id, and under
        # each _SHARED type its distinct values, in file order, by key.  A
        # phrase or a reference is known by its text, which holds a
        # reference's entity in full, and a resolved complement by its
        # parts' numbers; writing a value written before gives no part a
        # new number.
        def encode(value, memo):
            if (n := memo.get(id(value))) is None:
                text = write(value, memo)
                key = text if cls is not ResolvedComplement else (
                    memo[id(value.phrase)], value.ref and memo[id(value.ref)])
                by_key = memo.get(cls) or memo.setdefault(cls, {})
                if (first := by_key.setdefault(key, value)) is value:
                    memo[id(value)] = str(len(by_key) - 1)
                    return text
                memo[id(value)] = n = memo[id(first)]
            return n

    _codecs[cls] = encode, decode
    hints = get_type_hints(cls)
    _FIELD_ROWS[cls] = rows = []
    for f in declared:
        item, reads[f.name] = _codec(hints[f.name])
        default = factories[f.name]() if f.name in factories \
            else defaults.get(f.name, object())
        writes.append((f.name, "," + _quote(f.name) + ":", default,
                       type(default), item))
        row = _row(hints[f.name])
        rows.insert(0, (f.name, "." + f.name, default, row[2], row))
    writes.sort()  # by name, which no two fields share
    return encode, decode


def from_obj(tp, value, where: str = ""):
    """Decode a parsed JSON value into ``tp`` (the one decoder), as one
    file: a number in it names a value decoded before it in ``value``.

    Raises DataError naming the offending path, prefixed by ``where``.
    """
    # Under each _SHARED type, the objects decoded in full so far, in file
    # order, which later uses name by number.
    file = {cls: [] for cls in _SHARED}
    try:
        return _codec(tp)[1](value, file)
    except _Invalid as exc:
        problem, path = str(exc), where + "".join(reversed(exc.path))
    except RecursionError:
        problem, path = _TOO_DEEP, where
    path = path.lstrip(".")
    raise DataError(f"{path}: {problem}" if path else problem)


# Built once: json.loads builds a decoder per call when given parse_int.
_JSON = json.JSONDecoder(parse_int=parse_int)
# A lone UTF-16 surrogate is a character no UTF-8 text can hold: a file
# holding one, raw in the str or as a \u escape json reads, is refused.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_LONE_SURROGATE = "text may not hold a lone surrogate, raw or as a \\u escape"


def _parse(text: str, what: str):
    try:
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        if not text.isascii():
            text.encode("utf-8")
        value = _JSON.decode(text)
        if _SURROGATE_ESCAPE.search(text):  # a valid pair reads as one
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        return value
    except ValueError as exc:
        problem = _LONE_SURROGATE if type(exc) is UnicodeEncodeError else exc
        raise DataError(f"malformed {what}: {problem}") from None
    except RecursionError:
        raise DataError(f"malformed {what}: {_TOO_DEEP}") from None


def summarize(problems: list[str]) -> str:
    """The problems as one line: the first three, then how many more."""
    line = "; ".join(problems[:3])
    if len(problems) > 3:
        line += f"; and {len(problems) - 3} more"
    return line


def _check(problems: list[str]) -> None:
    if problems:
        raise DataError(summarize(problems))


def document_plan_to_json(plan: DocumentPlan) -> str:
    try:
        return _codec(DocumentPlan)[0](plan, {}) + "\n"
    except (_Invalid, TypeError, RecursionError):  # the check names why
        raise DataError(summarize(validate(plan))) from None


def document_plan_from_json(text: str) -> DocumentPlan:
    """Decode a document plan and check it by the rules of validate()."""
    plan = from_obj(DocumentPlan, _parse(text, "document plan"))
    _check(_plan_rules(plan))
    return plan


def sentence_plans_to_json(plans: list[SentencePlan]) -> str:
    """Canonical JSON for sentence plans: an array of them, in which each
    reference holds its entity in full."""
    try:
        text = _codec(list[SentencePlan])[0](plans, memo := {})
        if not _entity_table(memo.get(ReferenceSpec, {}).values())[1]:
            return text + "\n"
    except (_Invalid, TypeError, RecursionError):  # the check names why
        pass
    raise DataError(summarize(validate_sentences(plans)))


def sentence_plans_from_json(text: str) -> list[SentencePlan]:
    """Decode sentence plans and check them with _sentence_rules()."""
    plans = from_obj(list[SentencePlan], _parse(text, "sentence plans"),
                     "sentences")
    _check(_sentence_rules(plans))
    return plans
