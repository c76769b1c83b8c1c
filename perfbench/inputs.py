"""Seeded workload inputs, and the references the benchmark checks against.

Everything here is derived from the seed alone; nlgen only ever sees the
files that write_workload() produces.  Beside each document the generator
records what the output must be, worked out from the input it wrote and
from plain English rules, never from nlgen:

* demo documents: the byte-exact goldens under tests/golden/;
* plain-profile documents, and fluent patient_report and wide_schema
  documents: the exact expected text;
* fluent long_doc documents: the expected proposition set, which check.py
  compares with a brute-force expansion of the sentence plans, plus the
  exact text of the same input under the plain profile.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("small_docs", "wide_schema", "long_doc", "cli_batch")

DEMO_NAMES = ("sam_pair", "visit_note", "conditional", "reflexive",
              "patient_report")
PROFILES = ("fluent", "plain")

# Input sizes.  BENCHMARK.json and perfbench/README.md quote these.
SMALL_PATIENT_COPIES = 2     # data files per patient_report variant (8)
WIDE_ARCS = 1000
WIDE_TRUE = 100              # guards that hold, exactly, in every data file
WIDE_DATA_FILES = 8
LONG_SECTIONS = 20           # sub-schemas called from the entry schema
LONG_CHAIN = 25              # emit nodes per sub-schema chain (see below)
LONG_DATA_FILES = 8
BATCH_COPIES = 37            # data files per patient_report variant (296)
GROWTH_ARCS = (250, 500, 1000, 2000)
GROWTH_MESSAGES = (100, 200, 400, 800)

# ---------------------------------------------------------------------------
# English, written out independently of nlgen's lexicon

_PRESENT_3SG = {"have": "has", "go": "goes", "see": "sees", "need": "needs",
                "call": "calls", "report": "reports"}
_PAST = {"have": "had", "go": "went", "see": "saw", "need": "needed",
         "call": "called", "report": "reported"}
_PRONOUNS = {
    ("first", "singular", "subjective"): "I",
    ("first", "singular", "objective"): "me",
    ("third", "masculine", "subjective"): "he",
    ("third", "feminine", "subjective"): "she",
    ("third", "plural", "subjective"): "they",
}
_PREPOSITIONS = ("to", "with", "at")
_DETERMINERS = ("a", "an", "the")


def _cap(text: str) -> str:
    return text[:1].upper() + text[1:]


def _coordinate(items: list[str]) -> str:
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " and " + items[-1]


def _subject_pronoun(ent: dict) -> str:
    if ent["number"] == "plural":
        return _PRONOUNS[("third", "plural", "subjective")]
    return _PRONOUNS[("third", ent["gender"], "subjective")]


def _plural(noun: str) -> str:
    if noun.endswith(("s", "x", "z", "ch", "sh")):
        return noun + "es"
    if noun.endswith("y") and noun[-2:-1] not in tuple("aeiou"):
        return noun[:-1] + "ies"
    return noun + "s"


def _full_reference(ent: dict, case: str) -> str:
    if ent["person"] == "first":
        return _PRONOUNS[("first", ent["number"], case)]
    if ent.get("name"):
        return " ".join(filter(None, (ent.get("honorific"), ent["name"])))
    head = ent["head"]
    return "the " + (_plural(head) if ent["number"] == "plural" else head)


def _verb_phrase(verb: str, ent: dict, tense: str, modal: str | None) -> str:
    if modal:
        return f"{modal} {verb}"
    if tense == "future":
        return f"will {verb}"
    if tense == "past":
        return _PAST[verb]
    if ent["person"] == "third" and ent["number"] == "singular":
        return _PRESENT_3SG[verb]
    return verb


def _phrase_parts(text: str) -> tuple[str | None, str | None, list[str], str]:
    """(preposition, determiner, premodifiers, head) of complement text,
    following the schema language's complement convention."""
    words = text.split()
    prep = words.pop(0) if len(words) > 1 and words[0] in _PREPOSITIONS \
        else None
    det = words.pop(0) if len(words) > 1 and words[0] in _DETERMINERS \
        else None
    return prep, det, words[:-1], words[-1]


def _phrase_text(text: str, entities: dict) -> str:
    prep, det, premods, head = _phrase_parts(text)
    words = [prep] if prep else []
    if head.startswith("@"):
        words.append(_full_reference(entities[head[1:]], "objective"))
    else:
        rest = premods + [head]
        if det in ("a", "an"):
            det = "an" if rest[0][0] in "aeiou" else "a"
        words += ([det] if det else []) + rest
    return " ".join(words)


def _proposition_phrase(text: str) -> list:
    prep, det, premods, head = _phrase_parts(text)
    if head.startswith("@"):
        kind = "prepositional-phrase" if prep else "entity-reference"
    else:
        kind = "prepositional-phrase" if prep else "noun-phrase"
        head = head.lower()
    det = "a" if det == "an" else det
    return [kind, det or "none", sorted(p.lower() for p in premods), head,
            prep or "none"]


def proposition(msg: dict) -> str:
    """Canonical proposition of a generated message, as a JSON string:
    subject, verb, complements, tense, modal, polarity, condition."""
    def row(m: dict) -> list:
        return [m["subject"], m["verb"],
                [_proposition_phrase(c) for c in m["complements"]],
                m.get("tense", "present"), m.get("modal") or "none",
                "positive"]
    cond = row(msg["condition"]) if msg.get("condition") else None
    return json.dumps(row(msg) + [cond])


def _plain_clause(msg: dict, entities: dict) -> str:
    ent = entities[msg["subject"]]
    words = [_full_reference(ent, "subjective"),
             _verb_phrase(msg["verb"], ent, msg.get("tense", "present"),
                          msg.get("modal"))]
    words += [_phrase_text(c, entities) for c in msg["complements"]]
    return " ".join(words)


def plain_text(paragraphs: list[list[dict]], entities: dict) -> str:
    """Expected plain-profile text: one sentence per message, every
    reference in full, one paragraph per message group."""
    out = []
    for messages in paragraphs:
        sentences = []
        for msg in messages:
            clause = _plain_clause(msg, entities)
            if msg.get("condition"):
                cond = _plain_clause(msg["condition"], entities)
                clause = f"if {cond}, {clause}"
            sentences.append(_cap(clause) + ".")
        out.append(" ".join(sentences))
    return "\n\n".join(out)


# ---------------------------------------------------------------------------
# patient_report variants (small_docs and cli_batch)

_PATIENTS = (("Sam", "masculine"), ("Ann", "feminine"), ("Raj", "masculine"),
             ("Lena", "feminine"), ("Omar", "masculine"), ("Ines", "feminine"),
             ("Theo", "masculine"), ("Maya", "feminine"))
_DOCTORS = (("Mrs.", "Black", "feminine"), ("Dr.", "Okafor", "masculine"),
            ("Mr.", "Hale", "masculine"), ("Ms.", "Reyes", "feminine"))
_BP_FINDINGS = ("high blood pressure", "low blood pressure",
                "an irregular pulse", "a rapid pulse")
_SUGAR_FINDINGS = ("low blood sugar", "high blood sugar")
_PLACES = ("to the store", "to the hospital", "to the clinic",
           "to the pharmacy", "to the lab")


def patient_variant(rng: random.Random, sugar: bool, high_bp: bool,
                    advice: bool) -> tuple[dict, dict]:
    """A patient_report data file and its expected text per profile."""
    name, gender = rng.choice(_PATIENTS)
    honorific, doctor, doctor_gender = rng.choice(_DOCTORS)
    pid = name.lower()
    findings = {"bp": rng.choice(_BP_FINDINGS)}
    if sugar:
        findings["sugar"] = rng.choice(_SUGAR_FINDINGS)
    trigger, place = rng.sample(_PLACES, 2)
    systolic = rng.randint(141, 190) if high_bp else rng.randint(100, 140)
    data = {
        "entities": {
            pid: {"name": name, "gender": gender, "number": "singular"},
            "mrs_black": {"name": doctor, "honorific": honorific,
                          "gender": doctor_gender, "number": "singular"},
        },
        "records": {"patient": {
            "id": pid,
            "findings": findings,
            "bp": {"systolic": systolic, "diastolic": rng.randint(60, 99)},
            "needs_advice": advice,
            "advice": {"place": place, "trigger_place": trigger},
        }},
    }
    found = [findings["bp"]] + ([findings["sugar"]]
                                if sugar and high_bp else [])
    he = _subject_pronoun({"gender": gender, "number": "singular"})
    see = f"see {honorific} {doctor}"
    fluent = [f"{name} has {_coordinate(found)}."]
    plain = [" ".join(f"{name} has {f}." for f in found)]
    if advice:
        fluent.append(f"If {he} goes {trigger}, {he} should also go {place}."
                      f" {_cap(he)} should {see}.")
        plain.append(f"If {name} goes {trigger}, {name} should go {place}."
                     f" {name} should {see}.")
    return data, {"fluent": "\n\n".join(fluent), "plain": "\n\n".join(plain)}


def _patient_variants(rng: random.Random, copies: int):
    combos = [(s, b, a) for s in (True, False) for b in (True, False)
              for a in (True, False)]
    return [patient_variant(rng, *combo) for _ in range(copies)
            for combo in combos]


# ---------------------------------------------------------------------------
# wide_schema: one entry node with many guarded arcs into emit nodes

_WIDE_VERBS = ("have", "need", "report")
_WIDE_PHRASES = (
    "a mild cough", "a rash", "a fever", "an earache", "a sore throat",
    "a headache", "low iron", "mild nausea", "a stiff neck",
    "an elevated pulse", "a dry cough", "a runny nose", "back pain",
    "an itchy eye", "a bruise", "a sprain", "chest pain", "a chill",
    "an ulcer", "a cramp", "dizziness", "fatigue", "a swollen ankle",
    "an allergy")
_WIDE_INTRO = ("have", "a chart")
_GUARD_KINDS = ("eq", "gt", "exists", "and")


def wide_schema(rng: random.Random, arcs: int) -> tuple[str, list]:
    """Schema text with ``arcs`` guarded arcs, and (guard kind, verb,
    phrase) per arc."""
    # Each guard kind and verb on an equal share of the arcs.
    kinds = [_GUARD_KINDS[i % len(_GUARD_KINDS)] for i in range(arcs)]
    verbs = [_WIDE_VERBS[i % len(_WIDE_VERBS)] for i in range(arcs)]
    rng.shuffle(kinds)
    rng.shuffle(verbs)
    spec = [(kind, verb, rng.choice(_WIDE_PHRASES))
            for kind, verb in zip(kinds, verbs)]
    lines = ["schema wide",
             f'node intro emit subject="pt" verb={_WIDE_INTRO[0]} '
             f'complement="{_WIDE_INTRO[1]}"']
    for i, (_, verb, phrase) in enumerate(spec):
        lines.append(f'node n{i:04d} emit subject="pt" verb={verb} '
                     f'complement="{phrase}"')
    for i, (kind, _, _) in enumerate(spec):
        gt, eq = f"gt(v.n{i:04d}, 50)", f'eq(v.s{i:04d}, "on")'
        guard = {"eq": eq, "gt": gt, "exists": f"exists(v.e{i:04d})",
                 "and": f"and({gt}, {eq})"}[kind]
        lines.append(f"arc intro -> n{i:04d} when {guard}")
    return "\n".join(lines) + "\n", spec


def wide_data(rng: random.Random, spec: list, true_count: int):
    """A data file under which exactly ``true_count`` guards hold, with
    its expected fluent text and message count."""
    name, gender = rng.choice(_PATIENTS)
    ent = {"name": name, "gender": gender, "number": "singular",
           "person": "third"}
    chosen = set(rng.sample(range(len(spec)), true_count))
    values: dict = {}
    for i, (kind, _, _) in enumerate(spec):
        hold = i in chosen
        n_ok = s_ok = hold
        if kind == "and" and not hold:
            n_ok = rng.random() < 0.5
            s_ok = not n_ok and rng.random() < 0.5
        if kind in ("gt", "and"):
            values[f"n{i:04d}"] = 70 if n_ok else 30
        if kind in ("eq", "and"):
            values[f"s{i:04d}"] = "on" if s_ok else "off"
        if kind == "exists" and hold:
            values[f"e{i:04d}"] = 1
    data = {"entities": {"pt": {"name": name, "gender": gender,
                                "number": "singular"}},
            "records": {"v": values}}
    messages = [_WIDE_INTRO] + [spec[i][1:] for i in sorted(chosen)]
    # Fluent: runs of one verb coordinate, at most three per clause, and
    # every sentence after the first refers to the one subject by pronoun.
    groups: list[list] = []
    for verb, phrase in messages:
        if groups and groups[-1][0] == verb and len(groups[-1][1]) < 3:
            groups[-1][1].append(phrase)
        else:
            groups.append([verb, [phrase]])
    sentences = []
    for k, (verb, phrases) in enumerate(groups):
        subject = name if k == 0 else _cap(_subject_pronoun(ent))
        verb = _verb_phrase(verb, ent, "present", None)
        sentences.append(f"{subject} {verb} {_coordinate(phrases)}.")
    return data, " ".join(sentences), len(messages)


# ---------------------------------------------------------------------------
# long_doc: an entry schema calling chains of emit nodes

_LONG_VERBS = {"have": ("a fever", "a cough", "an earache", "low iron",
                        "the results", "a new plan", "an appointment"),
               "need": ("a new test", "an extra dose", "more rest",
                        "a referral", "a blood test"),
               "go": _PLACES,
               "see": "@", "call": "@"}
_MASCULINE = ("Ben", "Carl", "Omar", "Theo", "Raj")
_PAIRS = ("Ann and Bo", "Kim and Lee", "Jo and Max")


# Every section has the same shape in a seeded order, so that seeds differ
# in content but not in how much work a document is: runs of one verb and
# tense (lengths and tenses below) and single conditional nodes.
_LONG_RUNS = (4, 4, 3, 3, 2, 2, 1, 1, 1, 1)
_LONG_RUN_TENSES = ("present",) * 5 + ("past",) * 3 + ("future",) * 2
_LONG_CONDITIONALS = 3
_CONDITIONAL_VERBS = ("go", "see", "have")


def long_schema(rng: random.Random, sections: int) -> tuple[str, list]:
    """Entry schema calling ``sections`` sub-schemas; each is a chain of
    LONG_CHAIN emit nodes.  Returns the text and, per section, the node
    specs: runs of one verb and tense, and single conditional nodes whose
    condition repeats the main verb."""
    blocks, spec = [], []
    entry = ["schema long"]
    entry += [f"node p{c:02d} call c{c:02d}" for c in range(sections)]
    # Each section after the first is called when its record exists.
    entry += [f"arc p{c:02d} -> p{c + 1:02d} when exists(c{c + 1:02d})"
              for c in range(sections - 1)]
    blocks.append("\n".join(entry))
    for c in range(sections):
        pieces = [("run", n, t) for n, t in
                  zip(_LONG_RUNS, rng.sample(_LONG_RUN_TENSES,
                                             len(_LONG_RUN_TENSES)))]
        pieces += [("conditional", 1, "present")] * _LONG_CONDITIONALS
        rng.shuffle(pieces)
        nodes, prev_verb = [], None
        for kind, length, tense in pieces:
            if kind == "conditional":
                nodes.append({"verb": rng.choice(_CONDITIONAL_VERBS),
                              "tense": tense, "modal": "should",
                              "run": len(nodes), "conditional": True})
                prev_verb = None
                continue
            verb = rng.choice([v for v in _LONG_VERBS if v != prev_verb])
            run = len(nodes)
            nodes += [{"verb": verb, "tense": tense, "modal": None,
                       "run": run, "conditional": False}] * length
            prev_verb = verb
        lines = [f"schema c{c:02d}"]
        for k, node in enumerate(nodes):
            fields = [f"subject=path(c{c:02d}.s{k:02d})",
                      f"verb={node['verb']}"]
            if node["modal"]:
                fields.append(f"modal={node['modal']}")
            if node["tense"] != "present":
                fields.append(f"tense={node['tense']}")
            if node["conditional"]:
                fields.append(f"condition=q{k:02d}")
            fields.append(f"complement=path(c{c:02d}.o{k:02d})")
            lines.append(f"node m{k:02d} emit " + " ".join(fields))
        for k, node in enumerate(nodes):
            if node["conditional"]:
                lines.append(f"node q{k:02d} emit "
                             f"subject=path(c{c:02d}.s{k:02d}) "
                             f"verb={node['verb']} "
                             f"complement=path(c{c:02d}.q{k:02d})")
        lines += [f"arc m{k:02d} -> m{k + 1:02d}"
                  for k in range(len(nodes) - 1)]
        blocks.append("\n".join(lines))
        spec.append(nodes)
    return "\n\n".join(blocks) + "\n", spec


def long_data(rng: random.Random, spec: list) -> tuple[dict, dict]:
    """A data file for a long_doc schema: five entities (two masculine
    third persons, a titled feminine one, the first-person speaker and a
    plural group), same-subject runs, and the expected propositions and
    plain text."""
    first, second = rng.sample(_MASCULINE, 2)
    entities = {
        "ben": {"name": first, "gender": "masculine"},
        "carl": {"name": second, "gender": "masculine"},
        "eva": {"name": "Lund", "honorific": "Dr.", "gender": "feminine"},
        "me": {"head": "speaker", "person": "first"},
        "pair": {"name": rng.choice(_PAIRS), "number": "plural"},
    }
    full = {eid: {"number": "singular", "person": "third", "gender": "neuter",
                  **ent} for eid, ent in entities.items()}
    ids = list(entities)

    def complement(verb: str, subject: str, used: set) -> str:
        choices = _LONG_VERBS[verb]
        if choices == "@":
            # Now and then an object coreferent with its subject (a
            # reflexive under the fluent profile).
            if full[subject]["person"] == "third" and rng.random() < 0.1:
                choices = ["@" + subject]
            else:
                choices = ["@" + e for e in ids if e != subject]
        fresh = [c for c in choices if c not in used] or list(choices)
        choice = rng.choice(fresh)
        used.add(choice)
        return choice

    records, paragraphs = {}, []
    for c, nodes in enumerate(spec):
        rec, messages, subject, used = {}, [], None, set()
        for k, node in enumerate(nodes):
            if k == node["run"]:
                subject, used = rng.choice(ids), set()
            obj = complement(node["verb"], subject, used)
            rec[f"s{k:02d}"] = subject
            rec[f"o{k:02d}"] = obj
            msg = {"subject": subject, "verb": node["verb"],
                   "complements": [obj], "tense": node["tense"],
                   "modal": node["modal"]}
            if node["conditional"]:
                cond = complement(node["verb"], subject, used)
                rec[f"q{k:02d}"] = cond
                msg["condition"] = {"subject": subject, "verb": node["verb"],
                                    "complements": [cond]}
            messages.append(msg)
        records[f"c{c:02d}"] = rec
        paragraphs.append(messages)
    data = {"entities": entities, "records": records}
    messages = [m for p in paragraphs for m in p]
    expect = {"propositions": sorted({proposition(m) for m in messages}),
              "plain_text": plain_text(paragraphs, full),
              "messages": len(messages)}
    return data, expect


# ---------------------------------------------------------------------------
# Workload files


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return str(path)


def _write_json(path: Path, obj) -> str:
    return _write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_workload(name: str, seed: int, root: Path, repo: Path,
                   growth: bool = False) -> dict:
    """Write the inputs of one workload under ``root`` and return its
    manifest.  ``repo`` is the checkout (demo files and goldens); the
    growth-sweep inputs are written only when ``growth`` is set.

    Manifest keys: ``docs`` (schema, data, profile, expect, messages per
    document, in run order), ``batch`` (a schema and a directory of data
    files for ``nlgen generate --batch``, with the expected text per file)
    and ``growth`` (sweep inputs, used only by traced runs).
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    demo = repo / "src" / "nlgen" / "data" / "demo"
    docs: list[dict] = []
    batch: dict = {}

    def patient_batch(variants, subdir: str) -> dict:
        schema = _write(root / subdir / "patient_report.schema",
                        (demo / "patient_report.schema").read_text("utf-8"))
        expected = {}
        for i, (data, texts) in enumerate(variants):
            path = _write_json(root / subdir / "data" / f"d{i:03d}.json",
                               data)
            expected[path] = texts["fluent"]
        return {"schema": schema, "dir": str(root / subdir / "data"),
                "expected": expected}

    if name == "small_docs":
        for demo_name in DEMO_NAMES:
            schema = _write(root / "demo" / f"{demo_name}.schema",
                            (demo / f"{demo_name}.schema").read_text("utf-8"))
            data = _write(root / "demo" / f"{demo_name}.json",
                          (demo / f"{demo_name}.json").read_text("utf-8"))
            for profile in PROFILES:
                golden = repo / "tests" / "golden" / \
                    f"{demo_name}.{profile}.txt"
                docs.append({"schema": schema, "data": data,
                             "profile": profile,
                             "expect": {"text": golden.read_text("utf-8")
                                        .removesuffix("\n")}})
        variants = _patient_variants(rng, SMALL_PATIENT_COPIES)
        batch = patient_batch(variants, "patients")
        for path, (_, texts) in zip(batch["expected"], variants):
            for profile in PROFILES:
                docs.append({"schema": batch["schema"], "data": path,
                             "profile": profile,
                             "expect": {"text": texts[profile]}})
        rng.shuffle(docs)
    elif name == "wide_schema":
        text, spec = wide_schema(rng, WIDE_ARCS)
        schema = _write(root / "wide" / "wide.schema", text)
        batch = {"schema": schema, "dir": str(root / "wide" / "data"),
                 "expected": {}}
        for i in range(WIDE_DATA_FILES):
            data, expected, count = wide_data(rng, spec, WIDE_TRUE)
            path = _write_json(root / "wide" / "data" / f"d{i:03d}.json", data)
            batch["expected"][path] = expected
            docs.append({"schema": schema, "data": path, "profile": "fluent",
                         "expect": {"text": expected}, "messages": count})
    elif name == "long_doc":
        text, spec = long_schema(rng, LONG_SECTIONS)
        schema = _write(root / "long" / "long.schema", text)
        batch = {"schema": schema, "dir": str(root / "long" / "data"),
                 "expected": {}}
        for i in range(LONG_DATA_FILES):
            data, expect = long_data(rng, spec)
            path = _write_json(root / "long" / "data" / f"d{i:03d}.json", data)
            batch["expected"][path] = None  # checked by oracle, not text
            docs.append({"schema": schema, "data": path, "profile": "fluent",
                         "expect": {k: expect[k] for k in
                                    ("propositions", "plain_text")},
                         "messages": expect["messages"]})
    else:  # cli_batch
        batch = patient_batch(_patient_variants(rng, BATCH_COPIES), "batch")
        docs = [{"schema": batch["schema"], "data": path,
                 "profile": "fluent", "expect": {"text": text}}
                for path, text in batch["expected"].items()]

    sweeps: dict = {"arcs": {}, "messages": {}}
    grng = random.Random(f"growth:{seed}")
    for arcs in GROWTH_ARCS if growth else ():
        text, spec = wide_schema(grng, arcs)
        data, _, _ = wide_data(grng, spec, arcs // 10)
        sweeps["arcs"][arcs] = (
            _write(root / "growth" / f"wide{arcs}.schema", text),
            _write_json(root / "growth" / f"wide{arcs}.json", data))
    for count in GROWTH_MESSAGES if growth else ():
        text, spec = long_schema(grng, count // LONG_CHAIN)
        data, _ = long_data(grng, spec)
        sweeps["messages"][count] = (
            _write(root / "growth" / f"long{count}.schema", text),
            _write_json(root / "growth" / f"long{count}.json", data))

    return {"workload": name, "seed": seed, "docs": docs, "batch": batch,
            "growth": sweeps}
