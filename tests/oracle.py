"""Brute-force oracles for the test suite.

These walk the plan dataclasses directly and re-derive expected values by
plain enumeration, independent of the planning code they are used to
check.  The proposition oracle is here and not in the package:
expand_document_plan and expand_sentence_plans reduce the two sides of
sentence planning to proposition tuples, and the sets must be equal.
print_schema writes schema text back for the parse/print round trip.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Any

from nlgen import ir, schema as lib
from nlgen.errors import TraversalError


def _norm_phrase(phrase):
    head = phrase.head
    if not head.startswith("@"):
        head = head.lower()
    return (
        phrase.kind,
        phrase.determiner or "none",
        tuple(sorted(p.lower() for p in phrase.premodifiers)),
        head,
        phrase.preposition or "none",
    )


def _clause_expansion(clause):
    """One tuple per coordination unit, enumerated directly."""
    condition = None
    if clause.condition is not None:
        condition = _clause_expansion(clause.condition)[0][:6]
    units = clause.complements if clause.complements else ((),)
    rows = []
    for unit in units:
        rows.append((
            clause.subject_ref.entity.id,
            clause.verb.lower(),
            tuple(_norm_phrase(rc.phrase) for rc in unit),
            clause.tense,
            clause.modal or "none",
            clause.polarity,
            condition,
        ))
    return rows


def _message_expansion(msg):
    condition = None
    if msg.condition is not None:
        condition = _message_expansion(msg.condition)[:6]
    return (msg.subject, msg.verb.lower(),
            tuple(_norm_phrase(p) for p in msg.complements),
            msg.tense, msg.modal or "none", msg.polarity, condition)


def expand_document_plan(plan):
    """Proposition tuples of a document plan: one per leaf message,
    whatever the relation labels above it."""
    out = set()
    nodes = [plan.root] if plan.root is not None else []
    while nodes:
        node = nodes.pop()
        if isinstance(node, ir.Message):
            out.add(_message_expansion(node))
        else:
            nodes.extend(node.children)
    return out


def expand_leaves(node):
    """The messages below a plan node, in document order, by recursion."""
    if isinstance(node, ir.Message):
        yield node
    else:
        for child in node.children:
            yield from expand_leaves(child)


def expand_sentence_plans(plans):
    """Proposition tuples of sentence plans by brute-force expansion of
    every coordination group."""
    out = set()
    for sp in plans:
        for clause in sp.clauses:
            out.update(_clause_expansion(clause))
    return out


def subject_verb_multiset(plans):
    """Multiset of (subject, verb) pairs after expanding every group."""
    pairs = Counter()
    for sp in plans:
        for clause in sp.clauses:
            for row in _clause_expansion(clause):
                pairs[(row[0], row[1])] += 1
    return pairs


def message_subject_verb_multiset(messages):
    return Counter((m.subject, m.verb.lower()) for m in messages)


def check_pronouns_recoverable(plans):
    """Re-resolve every pronoun by the stated rule: the nearest preceding
    mention with matching gender and number must be the intended entity.
    Returns a list of failures (empty = all recoverable)."""
    failures = []
    mentions = []  # entities in surface order across the whole document

    def clause_refs(clause):
        refs = []
        if clause.condition is not None:
            refs.extend(clause_refs(clause.condition))
        refs.append(clause.subject_ref)
        for unit in clause.complements:
            for rc in unit:
                if rc.ref is not None:
                    refs.append(rc.ref)
        return refs

    for sp in plans:
        for clause in sp.clauses:
            for ref in clause_refs(clause):
                ent = ref.entity
                if ref.mode == "pronoun" and ent.person == "third":
                    antecedent = None
                    for prior in reversed(mentions):
                        if prior.person == "third" \
                                and prior.gender == ent.gender \
                                and prior.number == ent.number:
                            antecedent = prior
                            break
                    if antecedent is None or antecedent.id != ent.id:
                        failures.append(
                            f"pronoun for {ent.id!r} resolves to "
                            f"{antecedent.id if antecedent else None!r}")
                mentions.append(ent)
    return failures


@dataclass(frozen=True)
class _ReferenceTok:
    kind: str  # ident | number | string | symbol
    value: Any
    line: int
    col: int


def reference_tokenize_line(text: str, line: int) -> list[_ReferenceTok]:
    """One line of schema text by a character loop, as the library read it
    before it matched one token regex; symbols have kind "symbol"."""
    from nlgen.errors import SchemaParseError

    toks: list[_ReferenceTok] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch == '"':
            j = i + 1
            buf = []
            while j < n:
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                    continue
                if text[j] == '"':
                    break
                buf.append(text[j])
                j += 1
            else:
                raise SchemaParseError("lexical error: unterminated string",
                                       line, col)
            toks.append(_ReferenceTok("string", "".join(buf), line, col))
            i = j + 1
            continue
        if text.startswith("->", i):
            toks.append(_ReferenceTok("symbol", "->", line, col))
            i += 2
            continue
        if ch in "=(),":
            toks.append(_ReferenceTok("symbol", ch, line, col))
            i += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            lit = text[i:j]
            if lit.count(".") > 1:
                raise SchemaParseError(
                    "lexical error: a number has at most one point", line,
                    col)
            try:
                value = float(lit) if "." in lit else int(lit)
            except ValueError:
                raise SchemaParseError(
                    f"lexical error: bad number {lit!r}", line, col)
            if value in (float("inf"), float("-inf")):
                raise SchemaParseError(
                    "lexical error: a number must be finite", line, col)
            toks.append(_ReferenceTok("number", value, line, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            toks.append(_ReferenceTok("ident", text[i:j], line, col))
            i = j
            continue
        raise SchemaParseError(f"lexical error: unexpected character "
                               f"{ch!r}", line, col)
    return toks


# ---------------------------------------------------------------------------
# Schema text written back from a parsed schema, so that parsing the
# printed text can be checked to give the same definitions.


def _quote(text):
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _print_expr(expr):
    if type(expr) is tuple:
        return f"path({'.'.join(expr)})"
    return _quote(expr)


def _print_literal(value):
    from nlgen import ir

    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        text = ir.number_text(value)
        # A float keeps a point, so that it reads back as a float.
        if isinstance(value, float) and "." not in text:
            text += ".0"
        return text
    return _quote(str(value))


def print_condition(cond):
    if cond.op == "exists":
        return f"exists({cond.path})"
    if cond.op in ("eq", "gt", "lt"):
        return f"{cond.op}({cond.path}, {_print_literal(cond.value)})"
    inner = ", ".join(print_condition(a) for a in cond.args)
    return f"{cond.op}({inner})"


def _print_node(node_id, node):
    from nlgen.schema import MessageTemplate

    if node is None:
        return f"node {node_id} end"
    if isinstance(node, str):
        return f"node {node_id} call {node}"
    parts = [f"node {node_id} emit",
             f"subject={_print_expr(node.subject)}", f"verb={node.verb}"]
    for key in ("modal", "tense", "polarity"):
        value = getattr(node, key)
        if value != getattr(MessageTemplate, key):  # the field's default
            parts.append(f"{key}={value}")
    if node.adverb is not None:
        parts.append(f"adverb={_print_expr(node.adverb)}")
    if node.condition_node:
        parts.append(f"condition={node.condition_node}")
    if node.complements:
        exprs = ", ".join(_print_expr(e) for e in node.complements)
        parts.append(f"complement={exprs}")
    return " ".join(parts)


def print_schema(schema):
    """Canonical text for a schema and every schema in its set; parsing
    the output reproduces the same definitions."""
    blocks = []
    definitions = list(schema.schema_set.values()) \
        if schema.schema_set else [schema]
    for definition in definitions:
        lines = [f"schema {definition.name}"]
        lines += [_print_node(*item) for item in definition.nodes.items()]
        for arc in all_arcs(definition):
            line = f"arc {arc.src} -> {arc.dst}"
            if arc.guard is not None:
                line += f" when {print_condition(arc.guard)}"
            if arc.rel != "sequence":
                line += f" rel {arc.rel}"
            lines.append(line)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def all_arcs(definition):
    """Every arc of a schema, grouped by source node."""
    return [arc for arcs in definition.arcs.values() for arc in arcs]


def _find_node(definition, node_id):
    for key, node in definition.nodes.items():
        if key == node_id:
            return node
    raise KeyError(node_id)


def _reference_base(value):
    """A value as guards read it: a bool as it is, and a subclass of str,
    float or int as its base type's value, never through its own
    methods."""
    for base, method in ((bool, None), (str, str.__str__),
                         (float, float.__float__), (int, int.__int__)):
        if isinstance(value, base):
            return value if method is None else method(value)
    return value


def _reference_resolve(records, path):
    """Walk a dotted path down the records, splitting it on every call;
    the value found reads as _reference_base gives it."""
    from collections.abc import Mapping

    from nlgen.errors import TraversalError

    value = records
    for segment in path.split("."):
        if not isinstance(value, Mapping) or segment not in value:
            raise TraversalError(f"missing data path: {path}")
        value = value[segment]
    return _reference_base(value)


# Kinds of value as the reference guards name them in failures; values
# no JSON file holds are named by their type.
_REFERENCE_KINDS = {dict: "an object", list: "an array", str: "a string",
                    int: "a number", float: "a number", bool: "a boolean",
                    type(None): "null"}


def _reference_kind(value):
    return _REFERENCE_KINDS.get(type(value), type(value).__name__)


def _reference_check_guard(cond, level=1):
    """Refuse a guard, built by hand, that the parser could not have
    built; the first fault found, the guard before its arguments, names
    the rule it breaks.  ``cond`` is ``level`` operators deep."""
    from nlgen.errors import TraversalError
    from nlgen.ir import MAX_NESTING
    from nlgen.schema import Condition

    op = cond.op
    if op not in ("exists", "eq", "gt", "lt", "and", "or", "not"):
        raise TraversalError(f"unknown condition operator {op!r}")
    if level > MAX_NESTING:
        raise TraversalError(f"guard nests deeper than {MAX_NESTING} levels")
    if op == "not" and len(cond.args) != 1:
        raise TraversalError("not(...) takes exactly one guard")
    if op in ("and", "or") and len(cond.args) < 2:
        raise TraversalError(f"{op}(...) needs at least two arguments")
    if not all(isinstance(arg, Condition) for arg in cond.args):
        raise TraversalError(f"{op}(...) takes only guards")
    if op in ("and", "or", "not"):
        for arg in cond.args:
            _reference_check_guard(arg, level + 1)
        return
    path = _reference_base(cond.path)
    if not isinstance(path, str):
        raise TraversalError(f"{op}(...) needs a path")
    literal = _reference_base(cond.value)
    if op == "eq" and not isinstance(literal, (bool, str, int, float)):
        raise TraversalError(f"eq({path}, ...): literal is "
                             f"{_reference_kind(literal)}, not a boolean, "
                             f"string or number")
    if op in ("gt", "lt") and (isinstance(literal, bool)
                               or not isinstance(literal, (int, float))):
        raise TraversalError(f"{op}({path}, ...): literal is "
                             f"{_reference_kind(literal)}, not a number")


def reference_eval_condition(cond, data):
    """Guards by interpretation, as the library evaluated them before it
    compiled them: the whole guard is checked first, as compiling checks
    it, and then every call walks the operator and its type rules."""
    _reference_check_guard(cond)
    return _reference_interpret(cond, data)


def _reference_interpret(cond, data):
    from nlgen.errors import TraversalError

    if cond.op == "exists":
        try:
            _reference_resolve(data.records, cond.path)
            return True
        except TraversalError:
            return False
    if cond.op == "not":
        return not _reference_interpret(cond.args[0], data)
    if cond.op == "and":
        return all(_reference_interpret(a, data) for a in cond.args)
    if cond.op == "or":
        return any(_reference_interpret(a, data) for a in cond.args)
    value = _reference_resolve(data.records, cond.path)
    literal = _reference_base(cond.value)
    if cond.op == "eq":
        if isinstance(value, bool) != isinstance(literal, bool):
            raise TraversalError(
                f"eq({cond.path}, ...): cannot compare "
                f"{_reference_kind(value)} with {_reference_kind(literal)}")
        if isinstance(value, bool):
            return value == literal
        if isinstance(value, (int, float)) and \
                isinstance(literal, (int, float)):
            return value == literal
        if isinstance(value, str) and isinstance(literal, str):
            return value == literal
        raise TraversalError(
            f"eq({cond.path}, ...): cannot compare "
            f"{_reference_kind(value)} with {_reference_kind(literal)}")
    # gt / lt: numbers only
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TraversalError(
            f"{cond.op}({cond.path}, ...): path value is "
            f"{_reference_kind(value)}, not a number")
    if cond.op == "gt":
        return value > literal
    return value < literal


def reference_traverse(definition, data, max_visits=32):
    """Traversal by plain enumeration: every visit scans all of its
    schema's arcs for its own and finds nodes by linear search.  Guards go
    through reference_eval_condition, templates through the library's
    instantiate_template; every error is a TraversalError, as in
    schema.traverse."""
    from nlgen import ir, schema
    from nlgen.errors import TraversalError

    visits = Counter()

    def instantiate(node_id, template, condition=None):
        try:
            return schema.instantiate_template(template, data, condition)
        except TraversalError as exc:
            raise TraversalError(f"node {node_id!r}: {exc}") from exc

    def relation(label, children):
        return ir.PlanNode(label=label, children=tuple(children))

    def visit(d, node_id):
        visits[d.name, node_id] += 1
        if visits[d.name, node_id] > max_visits:
            raise TraversalError(f"visit limit at {node_id!r}")
        node = _find_node(d, node_id)
        pieces = []
        if isinstance(node, schema.MessageTemplate):
            condition = None
            if node.condition_node:
                condition = instantiate(
                    node_id, _find_node(d, node.condition_node))
            pieces.append(instantiate(node_id, node, condition))
        elif isinstance(node, str):
            sub = d.schema_set.get(node)
            if sub is None:
                raise TraversalError(f"unresolved {node!r}")
            sub_pieces = visit(sub, sub.entry)
            if len(sub_pieces) == 1:
                pieces.append(sub_pieces[0])
            elif sub_pieces:
                pieces.append(relation("sequence", sub_pieces))
        # Runs of consecutive taken arcs with the same label.
        runs = []
        for arc in all_arcs(d):
            if arc.src != node_id:
                continue
            try:
                skip = arc.guard is not None \
                    and not reference_eval_condition(arc.guard, data)
            except TraversalError as exc:
                raise TraversalError(f"arc {arc.src!r}: {exc}") from exc
            if skip:
                continue
            result = visit(d, arc.dst)
            if runs and runs[-1][0] == arc.rel:
                runs[-1][1].extend(result)
            else:
                runs.append((arc.rel, list(result)))
        for label, combined in runs:
            if not combined:
                continue
            if label == "sequence":
                pieces.extend(combined)
            else:
                pieces.append(relation(label, combined))
        return pieces

    pieces = visit(definition, definition.entry)
    return ir.DocumentPlan(
        root=relation("sequence", pieces) if pieces else None,
        entities=dict(data.entities),
    )


# ---------------------------------------------------------------------------
# Sentence planning by copy-and-replace: every pass rebuilds each sentence
# and clause it visits with dataclasses.replace.  The library's passes
# reuse unchanged objects instead and must give equal plans.


def _reference_merge_key(msg):
    return (msg.subject, msg.verb, msg.tense, msg.modal, msg.polarity,
            msg.adverb)


def reference_aggregate(messages, entities, cap=3):
    from dataclasses import replace

    from nlgen import sentplan

    clauses = []
    group = []

    def mergeable(msg):
        return msg.condition is None and bool(msg.complements)

    def flush():
        nonlocal group
        if not group:
            return
        clause = sentplan._build_clause(group[0], entities)
        if len(group) > 1:
            units = tuple(sentplan._resolve_unit(m.complements, entities)
                          for m in group)
            clause = replace(clause, complements=units)
        clauses.append(clause)
        group = []

    for msg in messages:
        if group and mergeable(msg) and mergeable(group[0]) \
                and _reference_merge_key(msg) == \
                _reference_merge_key(group[0]) \
                and len(group) < cap:
            group.append(msg)
            continue
        flush()
        group = [msg]
    flush()
    return clauses


def reference_insert_discourse_markers(plans):
    from dataclasses import replace

    def norm_units(clause):
        return tuple(tuple(_norm_phrase(rc.phrase) for rc in unit)
                     for unit in clause.complements)

    def mark(clause):
        cond = clause.condition
        if cond is None:
            return clause
        if clause.verb != cond.verb:
            return clause
        if norm_units(clause) == norm_units(cond):
            return clause
        if "also" in clause.discourse_markers:
            return clause
        markers = clause.discourse_markers + ("also",)
        return replace(clause, discourse_markers=markers)

    return [replace(sp, clauses=tuple(mark(c) for c in sp.clauses))
            for sp in plans]


def _reference_mention_slots(clause):
    slots = []
    if clause.condition is not None:
        for path, ref in _reference_mention_slots(clause.condition):
            slots.append((("condition",) + path, ref))
    slots.append((("subject",), clause.subject_ref))
    for ui, unit in enumerate(clause.complements):
        for ci, rc in enumerate(unit):
            if rc.ref is not None:
                slots.append((("complement", ui, ci), rc.ref))
    return slots


def _reference_rewrite_clause(clause, modes):
    from dataclasses import replace

    condition = clause.condition
    if condition is not None:
        cond_modes = {path[1:]: mode for path, mode in modes.items()
                      if path[0] == "condition"}
        condition = _reference_rewrite_clause(condition, cond_modes)
    subject_ref = clause.subject_ref
    if ("subject",) in modes:
        subject_ref = replace(subject_ref, mode=modes[("subject",)])
    units = []
    for ui, unit in enumerate(clause.complements):
        new_unit = []
        for ci, rc in enumerate(unit):
            key = ("complement", ui, ci)
            if key in modes:
                new_unit.append(replace(
                    rc, ref=replace(rc.ref, mode=modes[key])))
            else:
                new_unit.append(rc)
        units.append(tuple(new_unit))
    return replace(clause, subject_ref=subject_ref,
                   condition=condition, complements=tuple(units))


def reference_pronominalize(plans, entities):
    from dataclasses import replace

    from nlgen.errors import DataError

    out = []
    prev_sentence = []
    for sp in plans:
        current = []
        new_clauses = []
        for clause in sp.clauses:
            modes = {}
            for path, ref in _reference_mention_slots(clause):
                ent = entities.get(ref.entity.id)
                if ent is None:
                    raise DataError(
                        f"dangling entity reference: {ref.entity.id!r}")
                if path[0] == "condition" and clause.condition is not None:
                    local_subject = clause.condition.subject_ref.entity.id
                else:
                    local_subject = clause.subject_ref.entity.id
                is_subject = path[-1] == "subject"
                if not is_subject and ent.id == local_subject:
                    modes[path] = "reflexive-pronoun"
                elif ent.person == "third":
                    window = prev_sentence + current
                    mentioned = any(o.id == ent.id for o in window)
                    competitors = any(
                        o.id != ent.id and o.person == "third"
                        and o.gender == ent.gender
                        and o.number == ent.number
                        for o in window)
                    if mentioned and not competitors:
                        modes[path] = "pronoun"
                current.append(ent)
            new_clauses.append(_reference_rewrite_clause(clause, modes))
        out.append(replace(sp, clauses=tuple(new_clauses)))
        prev_sentence = current
    return out


def reference_paragraphs(plan):
    """Split the plan into paragraphs: one per relation child of the root,
    with runs of messages among its children sharing a paragraph."""
    if plan.root is None:
        return []
    if isinstance(plan.root, ir.Message):
        return [[plan.root]]
    groups = []
    run = []
    for child in plan.root.children:
        if isinstance(child, ir.Message):
            run.append(child)
            continue
        if run:
            groups.append(run)
            run = []
        messages = list(expand_leaves(child))
        if messages:
            groups.append(messages)
    if run:
        groups.append(run)
    return groups


def reference_plan_sentences(plan, profile):
    """plan_sentences with the paragraph split and the copy-and-replace
    passes above; clause building is the library's."""
    from nlgen import ir, sentplan

    sentences = []
    for pi, messages in enumerate(reference_paragraphs(plan)):
        if profile == "plain":
            clauses = [sentplan._build_clause(m, plan.entities)
                       for m in messages]
        else:
            clauses = reference_aggregate(messages, plan.entities)
        for ci, clause in enumerate(clauses):
            sentences.append(ir.SentencePlan(
                clauses=(clause,),
                new_paragraph=(pi > 0 and ci == 0)))
    if profile == "fluent":
        sentences = reference_insert_discourse_markers(sentences)
        sentences = reference_pronominalize(sentences, plan.entities)
    return sentences


def reference_realize_sentence(sp, lex):
    """realize_sentence as each helper returning a fresh token list that
    its caller concatenates; words and inflections come from the same
    lexicon functions."""
    from nlgen.lexicon import pluralize, pronoun, verb_form
    from nlgen.realize import (
        COMMA, PERIOD, _vowel_sound, boundary, punct, word)

    def words(text):
        return [word(w) for w in text.split()]

    def full_reference(ent):
        if ent.name:
            return f"{ent.honorific or ''} {ent.name}".split()
        head = ent.head.split()
        if ent.number == "plural" and head:
            head[-1] = pluralize(head[-1], lex)
        return ["the", *head]

    def reference_tokens(ref, case):
        ent = ref.entity
        if ref.mode == "full-name" and ent.person == "third":
            return [word(w) for w in full_reference(ent)]
        if ref.mode == "reflexive-pronoun":
            case = "reflexive"
        return [word(pronoun(ent.person, ent.number, ent.gender, case,
                             lex))]

    def verb_tokens(clause):
        subj = clause.subject_ref.entity
        markers = [word(m) for m in clause.discourse_markers]
        negative = clause.polarity == "negative"
        # A marker precedes "not": it follows a modal, "will" or a form of
        # "be", and goes before the do-form of do-support.
        negation = [word("not")] if negative else []
        if clause.modal:
            return [word(clause.modal)] + markers + negation + \
                [word(clause.verb)]
        if clause.tense == "future":
            return [word("will")] + markers + negation + [word(clause.verb)]
        if negative:
            if clause.verb == "be":
                form = verb_form("be", subj.person, subj.number,
                                 clause.tense, lex)
                return [word(form)] + markers + negation
            aux = verb_form("do", subj.person, subj.number, clause.tense,
                            lex)
            return markers + [word(aux)] + negation + [word(clause.verb)]
        form = verb_form(clause.verb, subj.person, subj.number,
                         clause.tense, lex)
        return markers + words(form)

    def phrase_tokens(rc):
        phrase = rc.phrase
        toks = []
        if phrase.preposition:
            toks.append(word(phrase.preposition))
        if rc.ref is not None:
            return toks + reference_tokens(rc.ref, "objective")
        if phrase.determiner == "a":
            following = [*phrase.premodifiers, *phrase.head.split()][0]
            article = lex.article_exceptions.get(following.lower())
            if article is None:
                article = "an" if _vowel_sound(following) else "a"
            toks.append(word(article))
        elif phrase.determiner:
            toks.append(word(phrase.determiner))
        for mod in phrase.premodifiers:
            toks.append(word(mod))
        toks += words(phrase.head)
        return toks

    def complement_tokens(units):
        toks = []
        count = len(units)
        for i, unit in enumerate(units):
            if i > 0:
                if i == count - 1:
                    toks.append(word("and"))
                else:
                    toks.append(punct(COMMA))
            for rc in unit:
                toks += phrase_tokens(rc)
        return toks

    def clause_tokens(clause):
        toks = []
        if clause.condition is not None:
            toks.append(word("if"))
            toks += clause_tokens(clause.condition)
            toks.append(punct(COMMA))
        toks += reference_tokens(clause.subject_ref, "subjective")
        toks += verb_tokens(clause)
        toks += complement_tokens(clause.complements)
        return toks

    toks = []
    for i, clause in enumerate(sp.clauses):
        if i > 0:
            toks.append(word("and"))
        toks += clause_tokens(clause)
    toks.append(punct(PERIOD))
    toks.append(boundary("sentence"))
    return toks


# ---------------------------------------------------------------------------
# Orthography as three passes, point absorption run to a fixed point.  The
# library's two-pass orthography must give the same text.


def _reference_collapse_punct_once(stream):
    from nlgen.realize import COMMA, PERIOD

    out = []
    last_punct = -1  # index into out; words invalidate it
    own_period = False  # the last word ends in a period ("Jr.")
    for tok in stream:
        if tok.kind == "word":
            out.append(tok)
            last_punct = -1
            own_period = tok.text.endswith(PERIOD)
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
            elif own_period and tok.text == PERIOD:
                continue  # the word's own period ends the sentence
            out.append(tok)
            last_punct = len(out) - 1
    return out


def _reference_collapse_punct(stream):
    # An absorption can create a new adjacency, so run to a fixed point;
    # every changing pass removes at least one mark.
    while True:
        out = _reference_collapse_punct_once(stream)
        if out == stream:
            return out
        stream = out


def _reference_capitalize(stream):
    from nlgen.realize import PERIOD, word

    out = list(stream)
    sentence_start = True
    for i, tok in enumerate(stream):
        if tok.kind == "word":
            text = tok.text
            if sentence_start and text[:1].isalpha():
                upper = text[0].upper() + text[1:]
                if upper != text:
                    out[i] = word(upper)
            sentence_start = False
        elif tok.kind == "boundary" or tok.text == PERIOD:
            sentence_start = True
    return out


def _reference_assemble(stream):
    parts = []
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


def reference_orthography(stream):
    """orthography as one pass per rule: point absorption repeated until
    nothing changes, then capitals and spacing, each copying the
    stream."""
    stream = _reference_collapse_punct(stream)
    stream = _reference_capitalize(stream)
    return _reference_assemble(stream)


# ---------------------------------------------------------------------------
# Reference plan checks: validate() and validate_sentences() as they were
# written first, formatting every path as they walk; the library's checks
# must return the same problems in the same order.  The field types are
# stated here by hand, not read from the type hints as the library reads
# them, so that the two checks stay two statements of them.

_TEXT = ((str,), None, "a string", None)
_OPTIONAL_TEXT = ((str, type(None)), None, "a string", None)
_FLAG = ((bool,), None, "a boolean", None)


def _literal(*values, optional=False):
    return (str, type(None)) if optional else (str,), values, "", None


def _one_of(kind, *classes, optional=False):
    return classes + (type(None),) * optional, None, kind, None


def _tuple_of(item):
    return (tuple,), None, "a tuple", item


_TENSE = _literal("present", "past", "future")
_MODAL = _literal("should", "must", "can", optional=True)
_POLARITY = _literal("positive", "negative")
# (types a value may have, values a Literal allows or None, what a
# message says it expects, a container's item spec or None) per field,
# in declaration order.
_REFERENCE_FIELDS = {
    ir.Entity: {
        "id": _TEXT, "name": _OPTIONAL_TEXT, "head": _OPTIONAL_TEXT,
        "gender": _literal("masculine", "feminine", "neuter"),
        "number": _literal("singular", "plural"),
        "person": _literal("first", "second", "third"),
        "honorific": _OPTIONAL_TEXT},
    ir.ComplementPhrase: {
        "head": _TEXT, "determiner": _literal("a", "the", optional=True),
        "premodifiers": _tuple_of(_TEXT), "preposition": _OPTIONAL_TEXT},
    ir.Message: {
        "subject": _TEXT, "verb": _TEXT,
        "complements": _tuple_of(_one_of("a ComplementPhrase",
                                         ir.ComplementPhrase)),
        "tense": _TENSE, "modal": _MODAL, "polarity": _POLARITY,
        "adverb": _OPTIONAL_TEXT,
        "condition": _one_of("a Message", ir.Message, optional=True)},
    ir.PlanNode: {
        "label": _literal("sequence", "elaboration", "contrast"),
        "children": _tuple_of(_one_of("a PlanNode or a Message",
                                      ir.PlanNode, ir.Message))},
    ir.DocumentPlan: {
        "root": _one_of("a PlanNode or a Message", ir.PlanNode, ir.Message,
                        optional=True),
        "entities": ((dict,), None, "a dict",
                     _one_of("an Entity", ir.Entity))},
    ir.ReferenceSpec: {
        "entity": _one_of("an Entity", ir.Entity),
        "mode": _literal("full-name", "pronoun", "reflexive-pronoun")},
    ir.ResolvedComplement: {
        "phrase": _one_of("a ComplementPhrase", ir.ComplementPhrase),
        "ref": _one_of("a ReferenceSpec", ir.ReferenceSpec, optional=True)},
    ir.ClauseSpec: {
        "subject_ref": _one_of("a ReferenceSpec", ir.ReferenceSpec),
        "verb": _TEXT, "tense": _TENSE, "modal": _MODAL,
        "polarity": _POLARITY,
        "complements": _tuple_of(_tuple_of(_one_of(
            "a ResolvedComplement", ir.ResolvedComplement))),
        "discourse_markers": _tuple_of(_TEXT),
        "condition": _one_of("a ClauseSpec", ir.ClauseSpec, optional=True)},
    ir.SentencePlan: {
        "clauses": _tuple_of(_one_of("a ClauseSpec", ir.ClauseSpec)),
        "new_paragraph": _FLAG},
}


def _reference_misfits(value, spec, where, problems, seen):
    """Check ``value`` against ``spec``, then a container's items and a
    plan object's fields, depth first; a plan object reached again is
    not checked again."""
    types, values, kind, item = spec
    if type(value) not in types or values is not None and \
            value is not None and value not in values:
        problem = (f"unknown value {value!r}; expected one of "
                   f"{', '.join(values)}" if values is not None else
                   f"expected {kind}, got {ir.json_kind(value)}")
        problems.append(f"{where}: {problem}" if where else problem)
    elif item is not None:
        pairs = value.items() if type(value) is dict else enumerate(value)
        for key, v in pairs:
            _reference_misfits(v, item, f"{where}[{key}]", problems, seen)
    elif type(value) in _REFERENCE_FIELDS and id(value) not in seen:
        seen.add(id(value))
        for name, field_spec in _REFERENCE_FIELDS[type(value)].items():
            _reference_misfits(getattr(value, name), field_spec,
                               f"{where}.{name}" if where else name,
                               problems, seen)


def _reference_entity_rules(entities):
    problems = []
    for eid, ent in entities.items():
        where = f"entities[{eid}]"
        if eid != ent.id:
            problems.append(
                f"{where}: table key does not match entity id {ent.id!r}")
        given = [text for text in (ent.name, ent.head) if text]
        if len(given) != 1 or given[0].isspace():
            problems.append(
                f"{where}: exactly one of name/head must be given, not blank")
        if ent.honorific is not None and (not ent.name
                                          or not ent.honorific.strip()):
            problems.append(f"{where}: {ir.HONORIFIC_RULE}")
    return problems


def _reference_check_verb(msg, where, problems):
    from nlgen import ir

    if not ir.is_verb_lemma(msg.verb):
        problems.append(
            f"{where}: verb lemma must be one lowercase alphabetic word")
    if msg.modal and msg.tense != "present":
        problems.append(f"{where}: {ir.MODAL_TENSE_RULE}")


def _reference_check_phrase(phrase, where, problems):
    from nlgen import ir

    if not (phrase.head.strip() and all(map(str.strip, phrase.premodifiers))) \
            or (phrase.preposition or "").isspace():
        problems.append(f"{where}: blank word in complement")
    ref = ir.entity_ref(phrase.head)
    if ref is not None and (phrase.determiner or phrase.premodifiers):
        problems.append(f"{where}: {ir.ENTITY_HEAD_RULE}")
    return ref


def _reference_check_message(msg, plan, where, problems, nested=False):
    _reference_check_verb(msg, where, problems)
    if msg.subject not in plan.entities:
        problems.append(
            f"{where}: referential integrity: unknown subject entity "
            f"{msg.subject!r}")
    if msg.adverb is not None and msg.adverb.isspace():
        problems.append(f"{where}: blank adverb")
    for i, phrase in enumerate(msg.complements):
        at = f"{where}.complements[{i}]"
        ref = _reference_check_phrase(phrase, at, problems)
        if ref is not None and ref not in plan.entities:
            problems.append(
                f"{at}: referential integrity: unknown entity {ref!r}")
    if msg.condition is not None:
        if nested:
            problems.append(
                f"{where}: conditions may not nest below one level")
        else:
            _reference_check_message(msg.condition, plan,
                                     f"{where}.condition", problems,
                                     nested=True)


def reference_validate(plan):
    problems = []
    _reference_misfits(plan, ((ir.DocumentPlan,), None, "a DocumentPlan",
                              None), "", problems, set())
    if problems:
        return problems
    problems = _reference_entity_rules(plan.entities)
    too_deep = False

    def walk(node, where, level):
        nonlocal too_deep
        if type(node) is ir.Message:
            _reference_check_message(node, plan, where, problems)
            return
        if level > ir.MAX_NESTING:
            if not too_deep:
                head = ".".join(where.split(".")[:3])
                problems.append(f"{head}... (level {level}): relation "
                                f"nodes nest more than {ir.MAX_NESTING} "
                                f"levels below the root")
            too_deep = True
            return
        if not node.children:
            problems.append(f"{where}: relation node has no children")
        for i, child in enumerate(node.children):
            walk(child, f"{where}.children[{i}]", level + 1)

    if plan.root is not None:
        walk(plan.root, "root", 0)
    return problems


def _reference_check_clause(clause, where, problems, nested=False):
    _reference_check_verb(clause, where, problems)
    if not all(w.strip() for w in clause.discourse_markers):
        problems.append(f"{where}: blank discourse marker")
    units = clause.complements
    if len(units) > 1 and not all(units):
        problems.append(f"{where}: empty unit in a coordination group")
    for i, unit in enumerate(units):
        for j, rc in enumerate(unit):
            at = f"{where}.complements[{i}][{j}]"
            ref = _reference_check_phrase(rc.phrase, f"{at}.phrase",
                                          problems)
            if rc.ref is None:
                if ref is not None:
                    problems.append(f"{at}: @{ref} head has no ref")
                continue
            if rc.ref.entity.id != ref:
                problems.append(f"{at}.ref: entity {rc.ref.entity.id!r} is "
                                f"not the one its head names")
    if clause.condition is not None:
        if nested:
            problems.append(
                f"{where}: conditions may not nest below one level")
        else:
            _reference_check_clause(clause.condition, f"{where}.condition",
                                    problems, nested=True)


def reference_validate_sentences(plans):
    problems = []
    _reference_misfits(plans, ((list,), None, "a list", _one_of(
        "a SentencePlan", ir.SentencePlan)), "sentences", problems, set())
    if problems:
        return problems
    refs = []
    for sp in plans:
        for clause in sp.clauses:
            while clause is not None:
                refs += [clause.subject_ref] + [
                    rc.ref for unit in clause.complements for rc in unit
                    if rc.ref is not None]
                clause = clause.condition
    # One entity per id: the first reference to an id gives its entity,
    # and each id that a different entity also holds is named once.
    entities, problems = {}, []
    for ref in refs:
        known = entities.setdefault(ref.entity.id, ref.entity)
        clash = (f"entity {ref.entity.id!r} is referenced with two "
                 f"different feature sets")
        if known != ref.entity and clash not in problems:
            problems.append(clash)
    problems += _reference_entity_rules(entities)
    for i, sp in enumerate(plans):
        if not sp.clauses:
            problems.append(f"sentences[{i}]: sentence has no clauses")
        for j, clause in enumerate(sp.clauses):
            _reference_check_clause(clause, f"sentences[{i}].clauses[{j}]",
                                    problems)
    return problems


# ---------------------------------------------------------------------------
# Traversal as it was before it appended plan pieces in place and kept a
# constant template's message: each frame's pieces were copied into its
# parent's run when the frame ended, and every message was built anew.
# The library's traverse() and instantiate_template() must give equal
# plans and equal errors.  What the copies share with the library they
# read from nlgen.schema ("lib"), so a patched MAX_VISITS holds for both.


def previous_instantiate_template(template: lib.MessageTemplate,
                                  data: lib.DataRecordSet,
                                  condition: ir.Message | None = None
                                  ) -> ir.Message:
    """Fill a message template against the data records.  The subject
    and every @ complement head must name an entity of the data; a blank
    adverb is no adverb."""
    if template.problems:
        raise TraversalError(template.problems[0][1])
    subject = lib._resolve_expr(template.subject, data)
    if subject.startswith(ir.ENTITY_MARKER):
        subject = subject[len(ir.ENTITY_MARKER):]
    if subject not in data.entities:
        raise TraversalError(f"unknown entity {subject!r}")
    complements = tuple([lib._parse_complement_text(
        lib._resolve_expr(expr, data)) for expr in template.complements])
    for phrase in complements:
        ref = ir.entity_ref(phrase.head)
        if ref is not None and ref not in data.entities:
            raise TraversalError(f"unknown entity {ref!r}")
    adverb = None
    if template.adverb is not None:
        adverb = lib._resolve_expr(template.adverb, data).strip() or None
    return ir.Message(
        subject=subject,
        verb=template.verb,
        complements=complements,
        tense=template.tense,
        modal=template.modal,
        polarity=template.polarity,
        adverb=adverb,
        condition=condition,
    )


def _previous_instantiate_node(schema: lib.SchemaDef, node_id: str,
                               template: lib.MessageTemplate,
                               data: lib.DataRecordSet) -> ir.Message:
    condition = None
    try:
        if template.condition_node:
            condition = previous_instantiate_template(
                schema.nodes[template.condition_node], data)
        return previous_instantiate_template(template, data, condition)
    except TraversalError as exc:
        at = f", condition node {template.condition_node!r}" \
            if template.condition_node and condition is None else ""
        raise TraversalError(f"node {node_id!r}{at}: template "
                             f"instantiation failed: {exc}") from exc


def previous_traverse(schema: lib.SchemaDef,
                      data: lib.DataRecordSet) -> ir.DocumentPlan:
    """Interpret a schema over the data records, producing a document plan.

    Deterministic: equal schema and data always yield a structurally
    equal plan.  Each `call` and each non-sequence arc nests one level,
    and nesting past ir.MAX_NESTING is a TraversalError, as is a problem
    of the schema check in the schema or a schema it calls.  An entity
    table that breaks the plan rules is a DataError.
    """
    if schema._problems:
        raise lib._schema_error(schema)
    ir._check(data._entity_problems)
    visits: dict[tuple[str, str], int] = {}
    # One frame per node being visited: its schema, its arcs not yet
    # followed, its pieces, its runs of same-label results (a callee's
    # pieces are a run labeled "call"), its level, and the label of the
    # run its pieces join in its parent's frame.
    stack: list[tuple] = []

    def enter(definition: lib.SchemaDef, node_id: str, level: int,
              joins: str) -> None:
        while True:  # a call node's frame is topped by its callee's entry
            key = (definition.name, node_id)
            visits[key] = visits.get(key, 0) + 1
            if visits[key] > lib.MAX_VISITS:
                raise TraversalError(
                    f"visit limit ({lib.MAX_VISITS}) exceeded at node "
                    f"{node_id!r} in schema {definition.name!r}; probable "
                    f"schema cycle")
            if level > ir.MAX_NESTING:
                raise TraversalError(
                    f"schema nesting deeper than {ir.MAX_NESTING} levels "
                    f"at node {node_id!r} in schema {definition.name!r}")
            node = definition.nodes[node_id]
            pieces: list = []
            if isinstance(node, lib.MessageTemplate):
                pieces.append(_previous_instantiate_node(
                    definition, node_id, node, data))
            stack.append((definition, iter(definition.arcs.get(node_id, ())),
                          pieces, [], level, joins))
            if not isinstance(node, str):
                return
            definition = definition.schema_set[node]
            if definition._problems:
                raise lib._schema_error(definition)
            node_id = definition.entry
            level, joins = level + 1, "call"

    enter(schema, schema.entry, 0, "sequence")
    while True:
        definition, arcs, pieces, runs, level, joins = stack[-1]
        # Arcs in declaration order; every true guard is taken.
        for arc in arcs:
            try:
                taken = arc.guard is None or lib.eval_condition(arc.guard,
                                                                data)
            except TraversalError as exc:
                raise TraversalError(
                    f"arc {arc.src!r} -> {arc.dst!r} in schema "
                    f"{definition.name!r}: guard failed: {exc}") from exc
            if taken:
                enter(definition, arc.dst, level + (arc.rel != "sequence"),
                      arc.rel)
                break
        else:
            stack.pop()
            for rel, combined in runs:
                if rel == "sequence" or rel == "call" and len(combined) == 1:
                    pieces.extend(combined)
                elif combined:
                    pieces.append(ir.PlanNode(
                        label="sequence" if rel == "call" else rel,
                        children=tuple(combined)))
            if not stack:
                break
            runs = stack[-1][3]
            if runs and runs[-1][0] == joins:
                runs[-1][1].extend(pieces)
            else:
                runs.append((joins, pieces))
    root = ir.PlanNode(label="sequence", children=tuple(pieces)) \
        if pieces else None
    return ir.DocumentPlan(root=root, entities=dict(data.entities))
