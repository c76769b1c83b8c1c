"""Schema files: parsing, condition evaluation, and plan construction.

A schema is a transition network interpreted against input data: nodes
select content, arcs impose rhetorical structure.  The file format is
line-oriented, UTF-8, with '#' comments:

    schema <name>
    node <id> emit subject=<expr> verb=<lemma> [modal=<m>] [tense=<t>]
                   [polarity=<p>] [adverb=<expr>] [condition=<node-id>]
                   complement=<expr>[, <expr>...]
    node <id> call <schema-name>
    node <id> end
    arc <from> -> <to> [when <condition>] [rel <sequence|elaboration|contrast>]

<expr> is a quoted literal or path(<dotted.path>); paths resolve inside
the data record tables.  A statement gives each field at most once.
Complement text starting with '@' references an entity.  Conditions
combine exists/eq/gt/lt/and/or/not with parentheses.  The entry node
of a schema is its first declared node, and the default arc relation is
sequence.  A file may declare several schemas; `call` nodes may target
any schema in the same file.  An emit node's optional
condition=<node-id> names another emit node in the same schema whose
instantiated message becomes the "If ..." antecedent.

Traversal walks depth-first from the entry node, instantiating emit
templates and following every arc whose guard is true, in declaration
order, in time linear in the nodes it visits.  Arcs labeled sequence
splice their results into the surrounding flow; elaboration and contrast
arcs group consecutive same-labeled results under one relation node, and
`call` results form a subtree.  A per-node visit budget, MAX_VISITS (32),
turns runaway cycles into errors.  Traversal keeps its own stack, so a
sequence chain may be any length; each `call` and each non-sequence arc
nests one level, and nesting deeper than ir.MAX_NESTING (100) levels is a
TraversalError.  Guards, parsed or built by hand, may nest operators as
deep, and no deeper.

Parsing stores each schema's nodes by id and its arcs by source node,
both in declaration order, and a template path as the tuple of its dotted
segments.  A node is what its statement says: an emit node is its
MessageTemplate, a call node the name of the schema it calls (a str), and
an end node None.  One check states every schema rule, for parsed and
hand-built schemas alike, and each SchemaDef keeps its result:
parse_schema() reports the first problem in file order at its line and
column, and traverse() the first problem of each schema it enters as a
TraversalError.  Guards are compiled, and check themselves, on first use
(Condition.test), into closures that keep no Condition.  Guards and
templates read a path's value, and their literals, one way: a subclass
of str, int or float as its base type's value, never through its own
methods.  Every other failure during
traversal is a TraversalError naming its arc or node and schema.
Complement text is parsed through one bounded cache shared by the process
(COMPLEMENT_CACHE_SIZE distinct texts, least recently used dropped first);
text that does not parse is not cached.  Parsing fills no cache.  A
template of literals keeps the message its first use builds, one object
for equal messages, as it keeps its problems (so change a template by
dataclasses.replace); the checks that depend on the data run per document.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Any, NamedTuple

from .errors import DataError, SchemaParseError, TraversalError
from . import ir

PREPOSITIONS = frozenset({
    "to", "in", "at", "on", "of", "for", "with", "from", "by", "about",
    "into", "over", "under", "after", "before", "near",
})

_ARTICLES = {"a": "a", "an": "a", "the": "the"}

# The visits each node gets in one traversal; one more is a schema cycle.
MAX_VISITS = 32
# and/or join two guards or more; the parser and the compiler say so alike.
_JOIN_RULE = "{}(...) needs at least two arguments"


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Condition:
    op: str  # one of _OPERATORS
    path: str | None = None
    value: Any = None
    args: tuple["Condition", ...] = ()

    @cached_property
    def test(self) -> Callable[[Any], bool]:
        """This guard as a predicate over data records, built on first
        use; eval_condition() calls it."""
        return _compile_condition(self, 1, {})


# Emit fields that take one word of an ir domain, or no modal.
_DOMAIN_FIELDS = {"modal": (None, *ir.MODALS), "tense": ir.TENSES,
                  "polarity": ir.POLARITIES}


@dataclass(frozen=True)
class MessageTemplate:
    # An expression: a literal is its text, a path the tuple of its
    # dotted segments.
    subject: str | tuple[str, ...]
    verb: str
    complements: tuple[str | tuple[str, ...], ...] = ()
    tense: str = "present"
    modal: str | None = None
    polarity: str = "positive"
    adverb: str | tuple[str, ...] | None = None
    condition_node: str | None = None

    def _find_problems(self) -> tuple[tuple[str, str], ...]:
        """Each template rule this template breaks, as its field (the
        modal rule's names two) and detail."""
        found = [(k, f"unknown {k} {v!r}") for k, d in _DOMAIN_FIELDS.items()
                 if (v := getattr(self, k)) not in d]
        if not ir.is_verb_lemma(self.verb):
            found.append(("verb", f"verb lemma {self.verb!r} must be one "
                                  f"lowercase alphabetic word"))
        if self.modal and self.tense != "present":
            found.append(("modal tense", ir.MODAL_TENSE_RULE))
        exprs = [("subject", self.subject), ("adverb", self.adverb)]
        if type(self.complements) is tuple:
            exprs += [("complements", expr) for expr in self.complements]
        else:
            found.append(("complements", "complements must be a tuple"))
        found += [(k, "a path segment must be a non-empty string")
                  for k, path in exprs if type(path) is tuple
                  and not all(isinstance(s, str) and s for s in path)]
        return tuple(found)

    # Found on first use; a clean template holds the shared empty tuple.
    problems = cached_property(_find_problems)

    # A template of literals' message, kept from its first use (False for a
    # path or a failing literal); a field, so keeping it adds no dict key.
    constant: ir.Message | bool | None = field(
        default_factory=lambda: None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Arc:
    src: str
    dst: str
    guard: Condition | None = None
    rel: str = "sequence"


@dataclass(frozen=True)
class SchemaDef:
    name: str
    # The first declared node; dict equality ignores key order.
    entry: str
    # Nodes by id, and each node's outgoing arcs by its id, both in
    # declaration order, so that a traversal step costs only the visited
    # node's own arcs.  A node is what its statement says: an emit node
    # is its template, a call node the name of the schema it calls, and
    # an end node None.
    nodes: dict[str, MessageTemplate | str | None]
    arcs: dict[str, list[Arc]]
    # All schemas parsed from the same file, shared for call resolution.
    schema_set: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def _problems(self) -> tuple[tuple[str, Any, str], ...]:
        """What _schema_problems() finds, once per object."""
        return tuple(_schema_problems(self))


@dataclass(frozen=True)
class DataRecordSet:
    # records stays raw JSON: schema paths read into it as they find it.
    entities: dict[str, ir.Entity] = field(default_factory=dict)
    records: dict = field(default_factory=dict)

    @cached_property
    def _entity_problems(self) -> list[str]:
        """The entity table's types, then its rules, once per object."""
        return ir._misfits(self.entities, ir._row(dict[str, ir.Entity]),
                           "entities") or ir._validate_entities(self.entities)


# ---------------------------------------------------------------------------
# Schema rules


def _schema_problems(schema: SchemaDef) -> Iterator[tuple[str, Any, str]]:
    """Every schema rule, stated once for parsed and hand-built schemas:
    each problem as its detail, what it is about (None for the schema, a
    node id or an Arc) and its field.  A template's own rules are its
    problems, and a guard's are checked as it is compiled."""
    for name in ("nodes", "arcs"):
        if not isinstance(value := getattr(schema, name), dict):
            yield f"{name}: expected a dict, got {ir.json_kind(value)}", \
                None, name
            return
    nodes = schema.nodes
    if not nodes:
        yield "no nodes are declared", None, "nodes"
    elif schema.entry not in nodes:
        yield f"entry {schema.entry!r} is not a declared node", None, "entry"
    for node_id, node in nodes.items():
        if isinstance(node, MessageTemplate):
            yield from ((detail, node_id, name)
                        for name, detail in node._find_problems())
            name = node.condition_node
            if name and name not in nodes:
                rule = "is not a declared node"
            elif name and not isinstance(nodes[name], MessageTemplate):
                rule = "must be an emit node"
            elif name and nodes[name].condition_node:
                rule = ("has a condition of its own; conditions nest one "
                        "level only")
            else:
                continue
            yield f"condition node {name!r} {rule}", node_id, "condition_node"
        elif isinstance(node, str):
            if not isinstance(schema.schema_set, dict):
                yield (f"schema_set: expected a dict, got "
                       f"{ir.json_kind(schema.schema_set)}", node_id, "call")
            elif not isinstance(schema.schema_set.get(node), SchemaDef):
                yield (f"call target {node!r} is not a declared schema",
                       node_id, "call")
        elif node is not None:
            yield (f"a node is a MessageTemplate, a schema name or None, "
                   f"not {ir.json_kind(node)}", node_id, "node")
    for key, arcs in schema.arcs.items():
        if type(arcs) is not list \
                or not all(isinstance(arc, Arc) for arc in arcs):
            yield "arcs must be a list of Arc", key, "arcs"
            continue
        first_unguarded = next((a for a in arcs if a.guard is None), None)
        for arc in arcs:
            if arc.src != key:
                yield (f"arc source {arc.src!r} is not its key {key!r}", arc,
                       "src")
            ends = [end for end in ("src", "dst")
                    if getattr(arc, end) not in nodes]
            for end in ends:
                yield (f"arc endpoint {getattr(arc, end)!r} is not a declared "
                       f"node", arc, end)
            if not ends and nodes[arc.src] is None:
                yield f"end node {arc.src!r} has an outgoing arc", arc, "src"
            if arc.rel not in ir.RELATION_LABELS:
                yield f"unknown relation label {arc.rel!r}", arc, "rel"
            if arc.guard is None and arc is not first_unguarded:
                yield (f"node {arc.src!r} has more than one unguarded arc",
                       arc, "src")
            if not isinstance(arc.guard, (Condition, type(None))):
                yield (f"guard is {ir.json_kind(arc.guard)}, not a "
                       f"Condition", arc, "guard")


def _schema_error(schema: SchemaDef) -> TraversalError:
    """The schema's first problem, naming the schema and its subject."""
    detail, subject, _ = schema._problems[0]
    if isinstance(subject, Arc):
        detail = f"arc {subject.src!r} -> {subject.dst!r}: {detail}"
    elif subject is not None:
        detail = f"node {subject!r}: {detail}"
    return TraversalError(f"schema {schema.name!r}: {detail}")


# ---------------------------------------------------------------------------
# Lexer

# Blanks and a comment give no token, and a symbol's kind is its own
# text; a character that starts no token is matched alone as "bad".
_TOKEN = re.compile(r"""
      [ \t]+ | \#.*
    | (?P<string> "(?:[^"\\]|\\.)*" )
    | (?P<symbol> -> | [=(),] )
    | (?P<number> -?\d[\d.]* )
    | (?P<ident> \w[\w.]* )
    | (?P<bad> [\s\S] )
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")


class _Tok(NamedTuple):
    kind: str  # ident | number | string | end | a symbol's text
    value: Any
    col: int


def _tokenize_line(text: str, line: int) -> list[_Tok]:
    toks: list[_Tok] = []
    for match in _TOKEN.finditer(text):
        kind, lit, col = match.lastgroup, match[0], match.start() + 1
        # \w also matches numerals that are not digits, such as "²".
        if kind == "ident" and not (lit[0].isalpha() or lit[0] == "_"):
            kind = "bad"
        if kind == "bad":
            problem = "unterminated string" if lit[0] == '"' \
                else f"unexpected character {lit[0]!r}"
            raise SchemaParseError(f"lexical error: {problem}", line, col)
        if kind == "string":
            toks.append(_Tok(kind, _ESCAPE.sub(r"\1", lit[1:-1]), col))
        elif kind == "number":
            # Like every number rule, these messages do not repeat the
            # literal, which may be any length.
            if lit.count(".") > 1:
                raise SchemaParseError(
                    "lexical error: a number has at most one point", line, col)
            try:
                value = float(lit) if "." in lit else ir.parse_int(lit)
            except ValueError:  # digits alone fail only past the size rule
                raise SchemaParseError(f"lexical error: {ir.DIGITS_RULE}",
                                       line, col)
            # A float literal too large to hold reads as infinity.
            if value in (math.inf, -math.inf):
                raise SchemaParseError(
                    "lexical error: a number must be finite", line, col)
            toks.append(_Tok(kind, value, col))
        elif kind is not None:  # blanks and a comment have no group
            toks.append(_Tok(lit if kind == "symbol" else kind, lit, col))
    return toks


# ---------------------------------------------------------------------------
# Parser

class _LineParser:
    """Recursive-descent parser over one statement's tokens, which it
    ends with a token of kind "end" just past the last one."""

    def __init__(self, toks: list[_Tok], line: int, text: str):
        end_col = _TOKEN.match(text, toks[-1].col - 1).end() + 1
        self.toks = toks + [_Tok("end", None, end_col)]
        self.line = line
        self.pos = 0

    def done(self) -> bool:
        return self.toks[self.pos].kind == "end"

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def error(self, message: str) -> SchemaParseError:
        return SchemaParseError(message, self.line, self.peek().col)

    def skip(self, kind: str) -> bool:
        """Take the next token if it is of ``kind``."""
        if self.peek().kind != kind:
            return False
        self.pos += 1
        return True

    def take(self, kind: str) -> _Tok:
        if not self.skip(kind):
            raise self.error(f"expected {kind!r}")
        return self.toks[self.pos - 1]

    def take_ident(self) -> str:
        return self.take("ident").value

    def finish(self, after: str) -> None:
        if not self.done():
            raise self.error(f"unexpected text after {after}")

    def fields(self) -> Iterator[_Tok]:
        """The key of each field left in the statement; none comes twice."""
        seen: set[str] = set()
        while not self.done():
            key = self.take("ident")
            if key.value in seen:
                raise SchemaParseError(f"duplicate field {key.value!r}",
                                       self.line, key.col)
            seen.add(key.value)
            yield key

    def expr(self) -> str | tuple[str, ...]:
        tok = self.peek()
        if self.skip("string"):
            return tok.value
        if tok.value != "path" or not self.skip("ident"):
            raise self.error("expected a quoted literal or path(...)")
        self.take("(")
        path = self.take_ident()
        self.take(")")
        return tuple(path.split("."))

    def condition(self, level: int = 1) -> Condition:
        """One guard operator, ``level`` operators deep in its guard."""
        op_tok = self.take("ident")
        op = op_tok.value
        if op not in _OPERATORS:
            raise SchemaParseError(f"unknown condition operator {op!r}",
                                   self.line, op_tok.col)
        if level > ir.MAX_NESTING:
            raise SchemaParseError(f"guard nests deeper than "
                                   f"{ir.MAX_NESTING} levels",
                                   self.line, op_tok.col)
        self.take("(")
        if op == "exists":
            path = self.take_ident()
            self.take(")")
            return Condition(op="exists", path=path)
        if op in ("eq", "gt", "lt"):
            path = self.take_ident()
            self.take(",")
            value = self._literal(numeric_only=op in ("gt", "lt"))
            self.take(")")
            return Condition(op=op, path=path, value=value)
        if op == "not":
            arg = self.condition(level + 1)
            self.take(")")
            return Condition(op="not", args=(arg,))
        args = [self.condition(level + 1)]
        while self.skip(","):
            args.append(self.condition(level + 1))
        self.take(")")
        if len(args) < 2:
            raise SchemaParseError(_JOIN_RULE.format(op), self.line,
                                   op_tok.col)
        return Condition(op=op, args=tuple(args))

    def _literal(self, numeric_only: bool = False) -> Any:
        tok = self.peek()
        if tok.kind == "end":
            raise self.error("expected a literal")
        if self.skip("number"):
            return tok.value
        if numeric_only:
            raise self.error("expected a number")
        if self.skip("string"):
            return tok.value
        if tok.value in ("true", "false") and self.skip("ident"):
            return tok.value == "true"
        raise self.error("expected a string, number, or true/false")


def _parse_emit_fields(p: _LineParser, node_id: str,
                       columns: dict[str, int]) -> MessageTemplate:
    """The template; ``columns`` gets where each field was written, by its
    template name: its key, but the value of a verb or condition node."""
    fields: dict[str, Any] = {}
    complements: list[str | tuple[str, ...]] = []
    for key_tok in p.fields():
        key = key_tok.value
        p.take("=")
        columns[key] = key_tok.col
        if key in ("subject", "adverb"):
            fields[key] = p.expr()
        elif key == "verb":
            tok = p.peek()
            columns[key] = tok.col
            fields[key] = tok.value if p.skip("string") else p.take_ident()
        elif key in _DOMAIN_FIELDS:
            fields[key] = p.take_ident()
        elif key == "condition":
            columns["condition_node"] = p.peek().col
            fields["condition_node"] = p.take_ident()
        elif key == "complement":
            columns["complements"] = key_tok.col
            complements.append(p.expr())
            while p.skip(","):
                complements.append(p.expr())
        else:
            raise SchemaParseError(
                f"unknown emit field {key!r}", p.line, key_tok.col)
    for key in ("subject", "verb"):
        if key not in fields:
            raise SchemaParseError(f"node {node_id!r}: emit needs {key}=",
                                   p.line, 1)
    return MessageTemplate(complements=tuple(complements), **fields)


def _parse_statements(source: str, positions: dict) -> dict[str, SchemaDef]:
    """Each schema of the file, its entry left blank; ``positions`` gets
    where each statement was written, by its schema's name and what a
    problem may be about (None for the header, a node id, or the id() of
    an Arc, which its schema keeps): the line and each field's column."""
    schemas: dict[str, SchemaDef] = {}
    current: SchemaDef | None = None
    for lineno, raw in enumerate(source.splitlines(), start=1):
        toks = _tokenize_line(raw, lineno)
        if not toks:
            continue
        p = _LineParser(toks, lineno, raw)
        head = p.take("ident")
        if head.value == "schema":
            name_tok = p.take("ident")
            name = name_tok.value
            p.finish("schema name")
            if name in schemas:
                raise SchemaParseError(f"duplicate schema {name!r}",
                                       lineno, head.col)
            current = schemas[name] = SchemaDef(name, "", {}, {})
            positions[name, None] = (lineno, {"nodes": name_tok.col})
            continue
        if current is None:
            raise SchemaParseError("expected schema header", lineno,
                                   head.col)
        columns: dict[str, int] = {}
        if head.value == "node":
            node_id = p.take_ident()
            if node_id in current.nodes:
                raise SchemaParseError(f"duplicate node id {node_id!r}",
                                       lineno, head.col)
            kind = p.take_ident()
            if kind == "emit":
                node = _parse_emit_fields(p, node_id, columns)
            elif kind == "call":
                columns["call"] = p.peek().col
                node = p.take_ident()
                p.finish("call target")
            elif kind == "end":
                p.finish("end")
                node = None
            else:
                raise SchemaParseError(
                    f"unknown node kind {kind!r} (expected emit, call, "
                    f"or end)", lineno, head.col)
            current.nodes[node_id] = node
            positions[current.name, node_id] = (lineno, columns)
        elif head.value == "arc":
            src = p.take("ident")
            p.take("->")
            dst = p.take("ident")
            columns.update(src=src.col, dst=dst.col)
            guard = None
            rel = "sequence"
            for kw in p.fields():
                if kw.value == "when":
                    guard = p.condition()
                elif kw.value == "rel":
                    columns["rel"] = kw.col
                    rel = p.take_ident()
                else:
                    raise SchemaParseError(
                        f"expected 'when' or 'rel', got {kw.value!r}",
                        lineno, kw.col)
            arc = Arc(src.value, dst.value, guard, rel)
            current.arcs.setdefault(arc.src, []).append(arc)
            positions[current.name, id(arc)] = (lineno, columns)
        else:
            raise SchemaParseError(
                f"expected 'schema', 'node', or 'arc', got "
                f"{head.value!r}", lineno, head.col)
    if not schemas:
        raise SchemaParseError("expected schema header", 1, 1)
    return schemas


def parse_schema(source: str) -> SchemaDef:
    """Parse schema text; returns the first (entry) schema with the whole
    file's schema set attached for call resolution.  The schema check's
    first problem in file order is a SchemaParseError where its field was
    written (the later of two fields)."""
    positions: dict = {}
    shared: dict[str, SchemaDef] = {}
    for name, b in _parse_statements(source, positions).items():
        shared[name] = SchemaDef(name, next(iter(b.nodes), ""), b.nodes,
                                 b.arcs, shared)
    found = []
    for name, definition in shared.items():
        for detail, subject, names in definition._problems:
            line, columns = positions[
                name, id(subject) if isinstance(subject, Arc) else subject]
            found.append((line, max(map(columns.get, names.split())), detail))
    if found:
        line, col, detail = min(found, key=lambda problem: problem[:2])
        raise SchemaParseError(detail, line, col)
    return next(iter(shared.values()))


# ---------------------------------------------------------------------------
# Data records and condition evaluation


def load_data(text: str) -> DataRecordSet:
    """Parse a data file: JSON object with "entities" and "records".

    The file goes through the plan codec; an entity's id may be left out
    and defaults to its key in the table."""
    payload = ir._parse(text, "data file")
    table = payload.get("entities") if type(payload) is dict else None
    if type(table) is dict:
        for eid, obj in table.items():
            if type(obj) is dict:
                obj.setdefault("id", eid)
    data = ir.from_obj(DataRecordSet, payload)
    ir._check(data._entity_problems)
    _check_entity_refs(data.records, data.entities)
    return data


def _check_entity_refs(records: dict,
                       entities: dict[str, ir.Entity]) -> None:
    """Refuse the first @ reference, in document order, to an entity the
    data does not declare, and records nested deeper than ir.MAX_NESTING
    levels (the file's top-level object is level 1)."""
    pending: list[tuple[Any, int]] = [(records, 2)]
    while pending:
        value, level = pending.pop()
        if isinstance(value, str):
            ref = ir.entity_ref(value)
            if ref is not None and ref not in entities:
                raise DataError(f"record value references unknown entity "
                                f"{ref!r}")
        elif isinstance(value, (dict, list)):
            if level > ir.MAX_NESTING:
                raise DataError(f"malformed data file: {ir._TOO_DEEP}")
            items = value.values() if isinstance(value, dict) else value
            pending.extend((v, level + 1) for v in reversed(items))


# What _lookup() gives for a path the records do not hold.
_MISSING = object()
# The types of JSON values, which _lookup() gives as they are, and the
# base-type method that gives a subclass of str, int or float as a value.
_JSON_TYPES = frozenset({str, int, float, bool, dict, list, type(None)})
_BASE_VALUE = {str: str.__str__, int: int.__int__, float: float.__float__}


def _lookup(records: Any, segments: tuple[str, ...]) -> Any:
    """The value at a path, given as its segments, or _MISSING; a str,
    int or float subclass reads as its base type's value."""
    value = records
    for segment in segments:
        # Data files decode to plain dicts, read with one probe; the
        # exact-type test skips the much slower ABC check for them.
        if type(value) is dict:
            if (value := value.get(segment, _MISSING)) is _MISSING:
                return _MISSING
        elif isinstance(value, Mapping) and segment in value:
            value = value[segment]
        else:
            return _MISSING
    kind = type(value)
    if kind in _JSON_TYPES:
        return value
    for base, as_base in _BASE_VALUE.items():
        if issubclass(kind, base):
            return as_base(value)
    return value


# The guard operators, the first four reading a path, the comparison each
# of eq, gt and lt makes, and the value types each literal type compares
# with; a bool is never a number here.
_OPERATORS = ("exists", "eq", "gt", "lt", "and", "or", "not")
_COMPARE = {"eq": operator.eq, "gt": operator.gt, "lt": operator.lt}
_NUMBER = (int, float)
_KINDS = {bool: (bool,), str: (str,), int: _NUMBER, float: _NUMBER}


def _mismatch(op: str, path: str, literal: Any, value: Any) -> TraversalError:
    if value is _MISSING:
        return TraversalError(f"missing data path: {path}")
    if op == "eq":
        return TraversalError(
            f"eq({path}, ...): cannot compare {ir.json_kind(value)} "
            f"with {ir.json_kind(literal)}")
    return TraversalError(
        f"{op}({path}, ...): path value is {ir.json_kind(value)}, "
        f"not a number")


def _compile_condition(cond: Condition, level: int,
                       compiled: dict) -> Callable[[Any], bool]:
    """One closure per operator family, ``level`` operators deep in its guard;
    children are compiled with their parent, one level deeper, and kept
    in ``compiled`` by (id, level): a guard built by hand may share an
    argument, which is then compiled once per level, not once per use.

    Compiling checks what the parser guarantees: a known operator at most
    ir.MAX_NESTING levels deep, guards as arguments, one for not and two
    or more for and/or, a str path for exists/eq/gt/lt, and a literal,
    read as _lookup() reads values, that is a bool, str or number for eq
    and a number (never a bool) for gt and lt.  eq takes a value of its
    literal's kind and gt and lt a number, by exact type; any other guard,
    value or missing path is a TraversalError.  The closures keep the
    operator, path and literal, not the Condition, which caches them: so
    a guard is no reference cycle."""
    op, path = cond.op, _lookup(cond.path, ())
    literal = _lookup(cond.value, ())
    kinds = _KINDS.get(type(literal), ()) if op == "eq" else _NUMBER
    if op not in _OPERATORS:
        raise TraversalError(f"unknown condition operator {op!r}")
    if level > ir.MAX_NESTING:
        raise TraversalError(f"guard nests deeper than {ir.MAX_NESTING} "
                             f"levels")
    if op == "not" and len(cond.args) != 1:
        raise TraversalError("not(...) takes exactly one guard")
    if op in _OPERATORS[4:6] and len(cond.args) < 2:
        raise TraversalError(_JOIN_RULE.format(op))
    if not all(isinstance(arg, Condition) for arg in cond.args):
        raise TraversalError(f"{op}(...) takes only guards")
    if op in _OPERATORS[:4] and type(path) is not str:
        raise TraversalError(f"{op}(...) needs a path")
    if op in _OPERATORS[1:4] and type(literal) not in kinds:
        raise TraversalError(
            f"{op}({path}, ...): literal is {ir.json_kind(literal)}, not "
            + ("a boolean, string or number" if op == "eq" else "a number"))
    segments = tuple(path.split(".")) if type(path) is str else ()
    tests = tuple(compiled.get((id(arg), level + 1))
                  or _compile_condition(arg, level + 1, compiled)
                  for arg in cond.args)
    if op == "exists":
        def test(records):
            return _lookup(records, segments) is not _MISSING
    elif op == "not":
        (inner,) = tests

        def test(records):
            return not inner(records)
    elif op in _OPERATORS[4:6]:
        stop = op == "or"

        def test(records):
            for arg_test in tests:
                if arg_test(records) is stop:
                    return stop
            return not stop
    else:  # eq, gt, lt
        compare = _COMPARE[op]

        def test(records):
            value = _lookup(records, segments)
            if type(value) in kinds:
                return compare(value, literal)
            raise _mismatch(op, path, literal, value)
    compiled[id(cond), level] = test
    return test


def eval_condition(cond: Condition, data: DataRecordSet) -> bool:
    """Evaluate an arc guard; a missing path or a value of another type
    is a TraversalError, except that exists() is false on a missing path."""
    return cond.test(data.records)


# ---------------------------------------------------------------------------
# Template instantiation and traversal


# Distinct complement texts kept parsed; a document repeats a few texts
# many times, so the cache stays far below this bound in practice.
COMPLEMENT_CACHE_SIZE = 4096
# Each distinct message of a template of literals while a template keeps it.
_CONSTANTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@lru_cache(maxsize=COMPLEMENT_CACHE_SIZE)
def _parse_complement_text(text: str) -> ir.ComplementPhrase:
    """Complement text as a phrase; the result is frozen, so every caller
    may share it, and a text that fails raises again on every call."""
    text = text.strip()
    if ir.entity_ref(text) is not None:
        return ir.ComplementPhrase(head=text)
    words = text.split()
    if not words:
        raise TraversalError("empty complement text")
    preposition = None
    if len(words) > 1 and words[0].lower() in PREPOSITIONS:
        preposition = words.pop(0).lower()
    determiner = None
    if len(words) > 1 and words[0].lower() in _ARTICLES:
        determiner = _ARTICLES[words.pop(0).lower()]
    head = words[-1]
    premodifiers = tuple(words[:-1])
    if ir.entity_ref(head) is not None and (determiner or premodifiers):
        raise TraversalError(f"{head!r}: {ir.ENTITY_HEAD_RULE}")
    return ir.ComplementPhrase(head=head, determiner=determiner,
                               premodifiers=premodifiers,
                               preposition=preposition)


def _resolve_expr(expr: str | tuple[str, ...], data: DataRecordSet) -> str:
    """The text of an expression: a str literal is its own text, and a
    path's value must be a string, a boolean ("true"/"false"), a finite
    float or an int of at most ir.MAX_DIGITS digits."""
    if type(expr) is str:
        return expr
    if type(expr) is not tuple:  # any other literal
        if type(expr := _lookup(expr, ())) is not str:
            raise TraversalError(f"literal is {ir.json_kind(expr)}, not text")
        return expr
    value = _lookup(data.records, expr)
    kind = type(value)
    if kind is str:
        return value
    if kind is bool:
        return "true" if value else "false"
    if kind is int and -ir.INT_BOUND < value < ir.INT_BOUND \
            or kind is float and math.isfinite(value):
        return ir.number_text(value)
    path = ".".join(expr)
    if value is _MISSING:
        raise TraversalError(f"missing data path: {path}")
    if kind is int:
        raise TraversalError(f"data path {path}: {ir.DIGITS_RULE}")
    if kind is float:
        raise TraversalError(f"data path {path} holds {value}, "
                             f"not a finite number")
    raise TraversalError(f"data path {path} holds "
                         f"{ir.json_kind(value)}, not a string or number")


def _fill(template: MessageTemplate, data: DataRecordSet | None,
          condition: ir.Message | None = None) -> ir.Message:
    """The template's message; its subject and @ heads must be entities
    of the data, if given."""
    subject = _resolve_expr(template.subject, data)
    if subject.startswith(ir.ENTITY_MARKER):
        subject = subject[len(ir.ENTITY_MARKER):]
    if data is not None and subject not in data.entities:
        raise TraversalError(f"unknown entity {subject!r}")
    complements = tuple([_parse_complement_text(_resolve_expr(expr, data))
                         for expr in template.complements])
    for phrase in complements:
        ref = ir.entity_ref(phrase.head)
        if ref is not None and data is not None and ref not in data.entities:
            raise TraversalError(f"unknown entity {ref!r}")
    adverb = None
    if (expr := template.adverb) is not None:
        adverb = _resolve_expr(expr, data).strip() or None
    message = ir.Message(subject, template.verb, complements, template.tense,
                         template.modal, template.polarity, adverb, condition)
    return message if data else _CONSTANTS.setdefault(message, message)


def instantiate_template(template: MessageTemplate, data: DataRecordSet,
                         condition: ir.Message | None = None) -> ir.Message:
    """Fill a message template against the data records.  The subject and
    every @ complement head must name an entity of the data; a blank adverb
    is no adverb.  A template of literals gives its kept message."""
    if template.problems:
        raise TraversalError(template.problems[0][1])
    if (message := template.constant) is None:
        exprs = (template.subject, template.adverb, *template.complements)
        try:
            message = tuple not in map(type, exprs) and _fill(template, None)
        except TraversalError:
            message = False
        object.__setattr__(template, "constant", message)
    if message and message.subject in (entities := data.entities):
        for phrase in message.complements:
            ref = ir.entity_ref(phrase.head)
            if ref is not None and ref not in entities:
                break
        else:
            return replace(message, condition=condition) if condition \
                else message
    return _fill(template, data, condition)


def _close_run(out: list, rel: str, start: int) -> None:
    """Fold a finished run, out[start:], into a relation node if due."""
    if rel != "sequence" and len(out) - start > (rel == "call"):
        out[start:] = [ir.PlanNode(label="sequence" if rel == "call" else rel,
                                   children=tuple(out[start:]))]


def traverse(schema: SchemaDef, data: DataRecordSet) -> ir.DocumentPlan:
    """Interpret a schema over the data records, producing a document plan.

    Deterministic: equal schema and data always yield a structurally
    equal plan, in time linear in the nodes visited.  Each `call` and
    each non-sequence arc nests one level, and nesting past
    ir.MAX_NESTING is a TraversalError, as is a problem of the schema
    check in the schema or a schema it calls.  An entity table that
    breaks the plan rules is a DataError.
    """
    if schema._problems:
        raise _schema_error(schema)
    ir._check(data._entity_problems)
    visits: dict[tuple[str, str], int] = {}
    # Pieces go into one list in document order.  A frame is kept per node
    # with arcs left: its schema, arcs, next arc's index, level, and the
    # label and start in out of its open run (a callee's is labeled "call").
    out: list[ir.PlanNode | ir.Message] = []
    stack: list[list] = []
    definition, node_id, level = schema, schema.entry, 0
    while True:
        key = (definition.name, node_id)
        visits[key] = count = visits.get(key, 0) + 1
        if count > MAX_VISITS:
            raise TraversalError(
                f"visit limit ({MAX_VISITS}) exceeded at node {node_id!r} "
                f"in schema {definition.name!r}; probable schema cycle")
        if level > ir.MAX_NESTING:
            raise TraversalError(
                f"schema nesting deeper than {ir.MAX_NESTING} levels at "
                f"node {node_id!r} in schema {definition.name!r}")
        node = definition.nodes[node_id]
        if isinstance(node, MessageTemplate):
            condition = None
            try:
                if node.condition_node:
                    condition = instantiate_template(
                        definition.nodes[node.condition_node], data)
                out.append(instantiate_template(node, data, condition))
            except TraversalError as exc:
                at = f", condition node {node.condition_node!r}" \
                    if node.condition_node and condition is None else ""
                raise TraversalError(f"node {node_id!r}{at}: template "
                                     f"instantiation failed: {exc}") from exc
        arcs = definition.arcs.get(node_id, ())
        if isinstance(node, str):
            stack.append([definition, arcs, 0, level, "call", len(out)])
            definition = definition.schema_set[node]
            if definition._problems:
                raise _schema_error(definition)
            node_id, level = definition.entry, level + 1
            continue
        if arcs:
            stack.append([definition, arcs, 0, level, "sequence", len(out)])
        while stack:  # the innermost frame's next arc whose guard is true
            frame = stack[-1]
            definition, arcs, i, level, rel, start = frame
            for i in range(i, len(arcs)):
                arc = arcs[i]
                try:
                    if arc.guard is not None \
                            and not eval_condition(arc.guard, data):
                        continue
                except TraversalError as exc:
                    raise TraversalError(
                        f"arc {arc.src!r} -> {arc.dst!r} in schema "
                        f"{definition.name!r}: guard failed: {exc}") from exc
                if arc.rel != rel:
                    _close_run(out, rel, start)
                    frame[4:] = arc.rel, len(out)
                if arc.rel == "sequence" and i + 1 == len(arcs):
                    stack.pop()  # so a chain keeps no frame per node
                else:
                    frame[2] = i + 1
                node_id, level = arc.dst, level + (arc.rel != "sequence")
                break
            else:
                stack.pop()
                _close_run(out, rel, start)
                continue
            break
        else:
            break
    root = ir.PlanNode(label="sequence", children=tuple(out)) if out else None
    return ir.DocumentPlan(root=root, entities=dict(data.entities))
