"""Sentence planning: document plans to sentence plans.

Three passes add fluency without changing what the text says:

  aggregate              merge adjacent same-shaped messages into one
                         clause with a coordinated complement group
  insert_discourse_markers
                         add "also" to a conditional whose main clause
                         repeats the condition's verb with a different
                         complement
  pronominalize          replace repeated full references with pronouns
                         (and same-clause object corefs with reflexives)

Each pass's decision is one predicate: _joins (whether a message joins
the group before it), _takes_also (whether a clause takes "also") and
_only_meaning (whether a pronoun can only mean its entity in the window).

The "plain" profile skips all three: one sentence per message, every
reference full.  Under both profiles the output carries the same
propositions as the input plan: the test suite expands both sides into
proposition tuples with tests/oracle.py and compares them on every corpus
document and on randomized plans.

Pass order matters: aggregation changes the sentence boundaries that the
recency-based pronoun rule depends on, and the marker pass needs final
clause structure.  Pronominalization uses a deliberately conservative
rule — a one-sentence recency window with a gender/number competitor
block — so a pronoun's nearest feature-matching antecedent is always the
intended entity.

Paragraphs: each relation child of the plan root opens its own paragraph;
a run of messages among the root's children forms one paragraph, and a
root that is a message is one paragraph.  Aggregation never
crosses a paragraph break and never reorders messages.

One plan_sentences() call makes each reference and resolved complement
once and shares it; the memos that share them live only for the call.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby

from . import ir
from .errors import DataError

PROFILES = ("fluent", "plain")

AGGREGATION_CAP = 3  # max coordination units in one group


# Each call's memo is keyed by entity ids or by id()s of objects that the
# call's input or the memo keeps alive, so no id() is reused while it lives.
def _full_name(entity_id: str, entities, memo: dict) -> ir.ReferenceSpec:
    if (ref := memo.get(entity_id)) is None:
        if (entity := entities.get(entity_id)) is None:
            raise DataError(f"dangling entity reference: {entity_id!r}")
        ref = memo[entity_id] = ir.ReferenceSpec(entity=entity)
    return ref


def _resolve_unit(complements, entities, memo: dict | None = None
                  ) -> tuple[ir.ResolvedComplement, ...]:
    memo = {} if memo is None else memo
    unit = []
    for phrase in complements:
        if (rc := memo.get(id(phrase))) is None:
            ref_id = ir.entity_ref(phrase.head)
            rc = memo[id(phrase)] = ir.ResolvedComplement(
                phrase=phrase, ref=None if ref_id is None
                else _full_name(ref_id, entities, memo))
        unit.append(rc)
    return tuple(unit)


def _build_clause(msg: ir.Message, entities,
                  group: Sequence[ir.Message] = (),
                  memo: dict | None = None) -> ir.ClauseSpec:
    """Clause for ``msg``, with one coordination unit per message of
    ``group`` (default: ``msg`` alone)."""
    memo = {} if memo is None else memo
    condition = None
    if msg.condition is not None:
        condition = _build_clause(msg.condition, entities, (), memo)
    return ir.ClauseSpec(
        subject_ref=_full_name(msg.subject, entities, memo),
        verb=msg.verb,
        tense=msg.tense,
        modal=msg.modal,
        polarity=msg.polarity,
        complements=tuple(_resolve_unit(m.complements, entities, memo)
                          for m in group or (msg,)),
        discourse_markers=(msg.adverb,) if msg.adverb else (),
        condition=condition,
    )


def _joins(group: list[ir.Message], msg: ir.Message) -> bool:
    """Whether ``msg`` joins ``group``, the messages just before it: a
    group holds at most AGGREGATION_CAP messages, each with complements
    and no condition, that share subject, verb, tense, modal, polarity
    and adverb."""
    first = group[0]
    return len(group) < AGGREGATION_CAP \
        and msg.condition is None and first.condition is None \
        and bool(msg.complements) and bool(first.complements) \
        and (msg.subject, msg.verb, msg.tense, msg.modal, msg.polarity,
             msg.adverb) == (first.subject, first.verb, first.tense,
                             first.modal, first.polarity, first.adverb)


def aggregate(messages: list[ir.Message], entities: dict[str, ir.Entity],
              memo: dict | None = None) -> list[ir.ClauseSpec]:
    """Merge adjacent messages sharing subject, verb, tense, modal, and
    polarity into one coordinated clause, greedily left to right, at most
    AGGREGATION_CAP units per group.  Condition-bearing messages and messages
    without complements never merge; order is always preserved."""
    groups: list[list[ir.Message]] = []
    for msg in messages:
        if groups and _joins(groups[-1], msg):
            groups[-1].append(msg)
        else:
            groups.append([msg])
    return [_build_clause(g[0], entities, g, memo) for g in groups]


def _with_clauses(sp: ir.SentencePlan,
                  clauses: list[ir.ClauseSpec]) -> ir.SentencePlan:
    """``sp`` itself when ``clauses`` are the very clauses it holds."""
    if all(new is old for new, old in zip(clauses, sp.clauses)):
        return sp
    return ir.SentencePlan(clauses=tuple(clauses),
                           new_paragraph=sp.new_paragraph)


def _normalize_phrase(phrase: ir.ComplementPhrase) -> tuple:
    head = phrase.head if ir.entity_ref(phrase.head) else phrase.head.lower()
    return (
        phrase.determiner or "none",
        tuple(sorted(p.lower() for p in phrase.premodifiers)),
        head,
        phrase.preposition or None,
    )


def _norm_units(clause: ir.ClauseSpec) -> tuple:
    return tuple(tuple(_normalize_phrase(rc.phrase) for rc in unit)
                 for unit in clause.complements)


def _takes_also(clause: ir.ClauseSpec) -> bool:
    """Whether ``clause`` takes "also": its condition has the same verb
    and different complements, and it has no "also" yet."""
    cond = clause.condition
    return cond is not None and clause.verb == cond.verb \
        and "also" not in clause.discourse_markers \
        and _norm_units(clause) != _norm_units(cond)


def insert_discourse_markers(
        plans: list[ir.SentencePlan]) -> list[ir.SentencePlan]:
    """Attach "also" before the main verb of a conditional sentence whose
    condition clause has the same verb but different complements.
    Idempotent: an existing "also" is never duplicated.  Sentences that
    gain no marker are returned as they were given."""

    def mark(clause: ir.ClauseSpec) -> ir.ClauseSpec:
        if not _takes_also(clause):
            return clause
        return ir.ClauseSpec(
            subject_ref=clause.subject_ref, verb=clause.verb,
            tense=clause.tense, modal=clause.modal,
            polarity=clause.polarity, complements=clause.complements,
            discourse_markers=clause.discourse_markers + ("also",),
            condition=clause.condition)

    return [_with_clauses(sp, [mark(c) for c in sp.clauses])
            for sp in plans]


def _only_meaning(ent: ir.Entity, window: list[ir.Entity]) -> bool:
    """Whether a pronoun can only mean ``ent`` in ``window``, the mentions
    of the sentence before and of this one so far: ``ent`` is there, and
    no other third-person entity of its gender and number is."""
    return any(o.id == ent.id for o in window) and not any(
        o.id != ent.id and o.person == "third"
        and o.gender == ent.gender and o.number == ent.number
        for o in window)


def _rewrite(clause: ir.ClauseSpec, refer, memo: dict) -> ir.ClauseSpec:
    """``clause`` with references as ``refer`` gives them, in surface order."""
    condition = clause.condition
    if condition is not None:
        condition = _rewrite(condition, refer, memo)
    subject_ref = refer(clause.subject_ref, None)
    changed = subject_ref is not clause.subject_ref \
        or condition is not clause.condition
    units = []
    for unit in clause.complements:
        new_unit = []
        for rc in unit:
            if rc.ref is not None:
                ref = refer(rc.ref, clause.subject_ref.entity.id)
                if ref is not rc.ref:
                    if (key := (id(rc.phrase), id(ref))) not in memo:
                        memo[key] = ir.ResolvedComplement(rc.phrase, ref)
                    rc = memo[key]
                    changed = True
            new_unit.append(rc)
        units.append(tuple(new_unit))
    if not changed:
        return clause
    return ir.ClauseSpec(
        subject_ref=subject_ref, verb=clause.verb, tense=clause.tense,
        modal=clause.modal, polarity=clause.polarity,
        complements=tuple(units),
        discourse_markers=clause.discourse_markers, condition=condition)


def pronominalize(plans: list[ir.SentencePlan]) -> list[ir.SentencePlan]:
    """Rewrite reference modes using a one-sentence recency window; each
    reference's own entity, the one the realizer writes, decides.

    A third-person mention becomes a pronoun when its entity was already
    mentioned in the immediately preceding sentence or earlier in the
    current sentence, and no other third-person entity with the same
    gender and number appears in that window.  A non-subject mention
    coreferent with its clause subject becomes a reflexive regardless of
    the window, in every person ("I see myself.").  First mentions are
    never pronominalized.  A sentence whose reference modes all stay as
    they are is returned as given.
    """
    memo: dict = {}  # keyed as the note above _full_name says
    prev_sentence: list[ir.Entity] = []
    current: list[ir.Entity] = []

    def refer(ref: ir.ReferenceSpec,
              local_subject: str | None) -> ir.ReferenceSpec:
        # local_subject: id of the subject of the clause this mention is
        # an object of; None for a subject mention.
        ent = ref.entity
        mode = ref.mode
        if ent.id == local_subject:
            mode = "reflexive-pronoun"
        elif ent.person == "third" \
                and _only_meaning(ent, prev_sentence + current):
            mode = "pronoun"
        current.append(ent)
        if mode == ref.mode:
            return ref
        if (key := (id(ref.entity), mode)) not in memo:
            memo[key] = ir.ReferenceSpec(ref.entity, mode)
        return memo[key]

    out: list[ir.SentencePlan] = []
    for sp in plans:
        current = []
        out.append(_with_clauses(
            sp, [_rewrite(c, refer, memo) for c in sp.clauses]))
        prev_sentence = current
    return out


def _paragraph_leaf_groups(plan: ir.DocumentPlan) -> list[list[ir.Message]]:
    """Split the plan into paragraphs: one per relation child of the root,
    with runs of messages among its children sharing a paragraph."""
    root = plan.root
    if type(root) is not ir.PlanNode:  # None, or one message
        return [] if root is None else [[root]]
    groups: list[list[ir.Message]] = []
    for is_leaf, run in groupby(root.children,
                                lambda child: type(child) is ir.Message):
        groups += [list(run)] if is_leaf else [
            ir.plan_leaves(ir.DocumentPlan(root=node)) for node in run]
    return groups


def plan_sentences(plan: ir.DocumentPlan,
                   profile: str = "fluent") -> list[ir.SentencePlan]:
    """Turn a document plan into sentence plans under the given profile.

    The plan must be valid, as traverse() and document_plan_from_json()
    make it; check a plan built by hand with nlgen.validate() first.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"expected one of {PROFILES}")
    sentences: list[ir.SentencePlan] = []
    memo: dict = {}
    for pi, messages in enumerate(_paragraph_leaf_groups(plan)):
        if profile == "plain":
            clauses = [_build_clause(m, plan.entities, (), memo)
                       for m in messages]
        else:
            clauses = aggregate(messages, plan.entities, memo)
        for ci, clause in enumerate(clauses):
            sentences.append(ir.SentencePlan(
                (clause,), new_paragraph=pi > 0 and ci == 0))
    if profile == "fluent":
        sentences = insert_discourse_markers(sentences)
        sentences = pronominalize(sentences)
    return sentences
