"""Reference checks on nlgen's output.

The references come from inputs.py, never from nlgen.  Where a document
has an exact expected text the check is byte equality.  Fluent long_doc
documents are checked the way tests/oracle.py checks the corpus: by
brute-force expansion of the sentence plans against the generated message
set, by re-resolving every pronoun, and by scanning the text for leaked
Python values.
"""

from __future__ import annotations

import json


def _phrase(phrase) -> list:
    head = phrase.head if phrase.head.startswith("@") else phrase.head.lower()
    return [phrase.kind, phrase.determiner or "none",
            sorted(p.lower() for p in phrase.premodifiers), head,
            phrase.preposition or "none"]


def _clause_rows(clause) -> list[list]:
    cond = None
    if clause.condition is not None:
        cond = _clause_rows(clause.condition)[0][:6]
    return [[clause.subject_ref.entity.id, clause.verb.lower(),
             [_phrase(rc.phrase) for rc in unit], clause.tense,
             clause.modal or "none", clause.polarity, cond]
            for unit in clause.complements or ((),)]


def expand_propositions(plans) -> set[str]:
    """Proposition of every coordination unit of every clause, in the JSON
    form of inputs.proposition()."""
    return {json.dumps(row) for sp in plans for clause in sp.clauses
            for row in _clause_rows(clause)}


def pronoun_failures(plans) -> list[str]:
    """Pronouns whose nearest preceding third-person mention with the same
    gender and number is not the intended entity."""
    failures, mentions = [], []

    def refs(clause):
        out = refs(clause.condition) if clause.condition is not None else []
        out.append(clause.subject_ref)
        out += [rc.ref for unit in clause.complements for rc in unit
                if rc.ref is not None]
        return out

    for sp in plans:
        for clause in sp.clauses:
            for ref in refs(clause):
                ent = ref.entity
                if ref.mode == "pronoun" and ent.person == "third":
                    antecedent = next(
                        (m for m in reversed(mentions)
                         if m.person == "third" and m.gender == ent.gender
                         and m.number == ent.number), None)
                    found = getattr(antecedent, "id", None)
                    if found != ent.id:
                        failures.append(f"pronoun for {ent.id!r} resolves "
                                        f"to {found!r}")
                mentions.append(ent)
    return failures


def text_problems(text) -> list[str]:
    """Defects visible in any output text."""
    if not isinstance(text, str) or not text:
        return ["no text"]
    return [f"text contains {leak!r}" for leak in ("None", "{", "}")
            if leak in text]


def oracle_problems(plans, text: str, plain: str, expect: dict) -> list[str]:
    """Every problem the independent checks find in one fluent document:
    ``plans`` and ``text`` are its sentence plans and fluent text, and
    ``plain`` is its text under the plain profile."""
    problems = text_problems(text)
    got = expand_propositions(plans)
    want = set(expect["propositions"])
    if got != want:
        problems.append(f"propositions differ: {len(got - want)} extra, "
                        f"{len(want - got)} missing")
    problems += pronoun_failures(plans)
    if plain != expect["plain_text"]:
        problems.append("plain text differs from the expected text")
    return problems
