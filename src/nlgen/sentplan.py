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

The "plain" profile skips all three: one sentence per message, every
reference full.  Under both profiles proposition_set() of the output
equals proposition_set() of the input plan; the test suite enforces this
on every corpus document and on randomized plans.

Pass order matters: aggregation changes the sentence boundaries that the
recency-based pronoun rule depends on, and the marker pass needs final
clause structure.  Pronominalization uses a deliberately conservative
rule — a one-sentence recency window with a gender/number competitor
block — so a pronoun's nearest feature-matching antecedent is always the
intended entity.

Paragraphs: each relation child of the plan root opens its own paragraph;
a run of bare leaf children forms one paragraph.  Aggregation never
crosses a paragraph break and never reorders messages.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import ir
from .errors import ReferentialIntegrityError

PROFILES = ("fluent", "plain")

AGGREGATION_CAP = 3  # max coordination units in one group


def _entity(entities: dict[str, ir.Entity], entity_id: str) -> ir.Entity:
    ent = entities.get(entity_id)
    if ent is None:
        raise ReferentialIntegrityError(
            f"dangling entity reference: {entity_id!r}")
    return ent


def _resolve_unit(complements, entities) -> tuple[ir.ResolvedComplement, ...]:
    unit = []
    for phrase in complements:
        ref_id = ir.entity_ref(phrase.head)
        if ref_id is None:
            unit.append(ir.ResolvedComplement(phrase=phrase))
        else:
            unit.append(ir.ResolvedComplement(
                phrase=phrase,
                ref=ir.ReferenceSpec(entity=_entity(entities, ref_id))))
    return tuple(unit)


def _build_clause(msg: ir.Message, entities,
                  group: Sequence[ir.Message] = ()) -> ir.ClauseSpec:
    """Clause for ``msg``, with one coordination unit per message of
    ``group`` (default: ``msg`` alone)."""
    condition = None
    if msg.condition is not None:
        condition = _build_clause(msg.condition, entities)
    return ir.ClauseSpec(
        subject_ref=ir.ReferenceSpec(entity=_entity(entities, msg.subject)),
        verb=msg.verb,
        tense=msg.tense,
        modal=msg.modal,
        polarity=msg.polarity,
        complements=tuple(_resolve_unit(m.complements, entities)
                          for m in group or (msg,)),
        discourse_markers=(msg.adverb,) if msg.adverb else (),
        condition=condition,
    )


def _merge_key(msg: ir.Message):
    return (msg.subject, msg.verb, msg.tense, msg.modal, msg.polarity,
            msg.adverb)


def aggregate(messages: list[ir.Message],
              entities: dict[str, ir.Entity]) -> list[ir.ClauseSpec]:
    """Merge adjacent messages sharing subject, verb, tense, modal, and
    polarity into one coordinated clause, greedily left to right, at most
    AGGREGATION_CAP units per group.  Condition-bearing messages and messages
    without complements never merge; order is always preserved."""
    clauses: list[ir.ClauseSpec] = []
    group: list[ir.Message] = []

    def mergeable(msg: ir.Message) -> bool:
        return msg.condition is None and bool(msg.complements)

    def flush() -> None:
        nonlocal group
        if not group:
            return
        clauses.append(_build_clause(group[0], entities, group))
        group = []

    for msg in messages:
        if group and mergeable(msg) and mergeable(group[0]) \
                and _merge_key(msg) == _merge_key(group[0]) \
                and len(group) < AGGREGATION_CAP:
            group.append(msg)
            continue
        flush()
        group = [msg]
    flush()
    return clauses


def _with_clauses(sp: ir.SentencePlan,
                  clauses: list[ir.ClauseSpec]) -> ir.SentencePlan:
    """``sp`` itself when ``clauses`` are the very clauses it holds."""
    if all(new is old for new, old in zip(clauses, sp.clauses)):
        return sp
    return ir.SentencePlan(clauses=tuple(clauses),
                           new_paragraph=sp.new_paragraph)


def insert_discourse_markers(
        plans: list[ir.SentencePlan]) -> list[ir.SentencePlan]:
    """Attach "also" before the main verb of a conditional sentence whose
    condition clause has the same verb but different complements.
    Idempotent: an existing "also" is never duplicated.  Sentences that
    gain no marker are returned as they were given."""

    def norm_units(clause: ir.ClauseSpec):
        return tuple(
            tuple(ir._normalize_phrase(rc.phrase) for rc in unit)
            for unit in clause.complements)

    def mark(clause: ir.ClauseSpec) -> ir.ClauseSpec:
        cond = clause.condition
        if cond is None:
            return clause
        if clause.verb != cond.verb:
            return clause
        if norm_units(clause) == norm_units(cond):
            return clause
        if "also" in clause.discourse_markers:
            return clause
        return ir.ClauseSpec(
            subject_ref=clause.subject_ref, verb=clause.verb,
            tense=clause.tense, modal=clause.modal,
            polarity=clause.polarity, complements=clause.complements,
            discourse_markers=clause.discourse_markers + ("also",),
            condition=cond)

    return [_with_clauses(sp, [mark(c) for c in sp.clauses])
            for sp in plans]


def pronominalize(plans: list[ir.SentencePlan],
                  entities: dict[str, ir.Entity]) -> list[ir.SentencePlan]:
    """Rewrite reference modes using a one-sentence recency window.

    A third-person mention becomes a pronoun when its entity was already
    mentioned in the immediately preceding sentence or earlier in the
    current sentence, and no other third-person entity with the same
    gender and number appears in that window.  A non-subject mention
    coreferent with its clause subject becomes a reflexive regardless of
    the window, in every person ("I see myself.").  First mentions are
    never pronominalized.  A sentence whose reference modes all stay as
    they are is returned as given.
    """
    prev_sentence: list[ir.Entity] = []
    current: list[ir.Entity] = []

    def refer(ref: ir.ReferenceSpec,
              local_subject: str | None) -> ir.ReferenceSpec:
        # local_subject: id of the subject of the clause this mention is
        # an object of; None for a subject mention.
        ent = _entity(entities, ref.entity.id)
        mode = ref.mode
        if ent.id == local_subject:
            mode = "reflexive-pronoun"
        elif ent.person == "third":
            window = prev_sentence + current
            mentioned = any(o.id == ent.id for o in window)
            competitors = any(
                o.id != ent.id and o.person == "third"
                and o.gender == ent.gender and o.number == ent.number
                for o in window)
            if mentioned and not competitors:
                mode = "pronoun"
        current.append(ent)
        if mode == ref.mode:
            return ref
        return ir.ReferenceSpec(entity=ref.entity, mode=mode)

    def rewrite(clause: ir.ClauseSpec) -> ir.ClauseSpec:
        # Surface order: the condition clause, the subject, the complements.
        condition = clause.condition
        if condition is not None:
            condition = rewrite(condition)
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
                        rc = ir.ResolvedComplement(phrase=rc.phrase, ref=ref)
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

    out: list[ir.SentencePlan] = []
    for sp in plans:
        current = []
        out.append(_with_clauses(sp, [rewrite(c) for c in sp.clauses]))
        prev_sentence = current
    return out


def _paragraph_leaf_groups(plan: ir.DocumentPlan) -> list[list[ir.Message]]:
    """Split the plan into paragraphs: one per relation child of the root,
    with runs of bare leaf children sharing a paragraph."""
    if plan.root is None:
        return []
    if plan.root.message is not None:
        return [[plan.root.message]]
    groups: list[list[ir.Message]] = []
    run: list[ir.Message] = []
    for child in plan.root.children:
        if child.message is not None:
            run.append(child.message)
            continue
        if run:
            groups.append(run)
            run = []
        messages = [leaf.message for leaf in
                    ir.plan_leaves(ir.DocumentPlan(root=child))]
        if messages:
            groups.append(messages)
    if run:
        groups.append(run)
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
    for pi, messages in enumerate(_paragraph_leaf_groups(plan)):
        if profile == "plain":
            clauses = [_build_clause(m, plan.entities) for m in messages]
        else:
            clauses = aggregate(messages, plan.entities)
        for ci, clause in enumerate(clauses):
            sentences.append(ir.SentencePlan(
                clauses=(clause,),
                new_paragraph=(pi > 0 and ci == 0),
            ))
    if profile == "fluent":
        sentences = insert_discourse_markers(sentences)
        sentences = pronominalize(sentences, plan.entities)
    return sentences
