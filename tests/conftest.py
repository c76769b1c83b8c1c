import contextlib
import dataclasses
import io
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import pytest

import nlgen
from nlgen import ir

GOLDEN_DIR = Path(__file__).parent / "golden"
DATA_DIR = Path(__file__).parent / "data"

CORPUS_NAMES = ["sam_pair", "visit_note", "conditional", "reflexive",
                "patient_report"]


@dataclass
class CorpusDoc:
    name: str
    schema_path: Path
    data_path: Path
    schema_source: str
    schema: object
    data: object

    def golden(self, profile):
        path = GOLDEN_DIR / f"{self.name}.{profile}.txt"
        return path.read_text(encoding="utf-8")


def _demo_dir() -> Path:
    return Path(str(resources.files("nlgen") / "data" / "demo"))


@pytest.fixture(scope="session")
def demo_dir() -> Path:
    return _demo_dir()


@pytest.fixture(scope="session")
def corpus(demo_dir) -> list[CorpusDoc]:
    docs = []
    for name in CORPUS_NAMES:
        schema_path = demo_dir / f"{name}.schema"
        data_path = demo_dir / f"{name}.json"
        source = schema_path.read_text(encoding="utf-8")
        docs.append(CorpusDoc(
            name=name,
            schema_path=schema_path,
            data_path=data_path,
            schema_source=source,
            schema=nlgen.parse_schema(source),
            data=nlgen.load_data(data_path.read_text(encoding="utf-8")),
        ))
    return docs


def run_cli(args: list[str]) -> tuple[int, str, str]:
    from nlgen import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


# The types one plan file writes once and then refers back to by number.
SHARED_TYPES = (ir.ComplementPhrase, ir.ReferenceSpec, ir.ResolvedComplement)


def shared_objects(value) -> list:
    """Every ComplementPhrase, ReferenceSpec and ResolvedComplement in a
    plan value, once per use."""
    found, stack = [], [value]
    while stack:
        v = stack.pop()
        if isinstance(v, SHARED_TYPES):
            found.append(v)
        if dataclasses.is_dataclass(v):
            stack += [getattr(v, f.name) for f in dataclasses.fields(v)]
        elif isinstance(v, (tuple, list)):
            stack += v
        elif isinstance(v, dict):
            stack += v.values()
    return found


def fake_stdin(data: bytes) -> io.TextIOWrapper:
    """A stand-in for sys.stdin holding ``data``; the CLI reads its bytes."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


# ---------------------------------------------------------------------------
# Random plan generation (seeded) for the property harnesses

_ENTITY_POOL = [
    ir.Entity(id="sam", name="Sam", gender="masculine", number="singular"),
    ir.Entity(id="mrs_black", name="Black", honorific="Mrs.",
              gender="feminine", number="singular"),
    ir.Entity(id="john", name="John", gender="masculine",
              number="singular"),
    ir.Entity(id="mary", name="Mary", gender="feminine",
              number="singular"),
    ir.Entity(id="doctor", head="doctor", gender="masculine",
              number="singular"),
    ir.Entity(id="nurses", head="nurse", gender="feminine",
              number="plural"),
    ir.Entity(id="team", head="team", gender="neuter", number="singular"),
    ir.Entity(id="speaker", head="speaker", person="first"),
]

_VERBS = ["have", "see", "go", "visit", "call", "rest", "need", "watch"]
_NOUNS = ["pressure", "temperature", "report", "appointment", "result"]
_MODS = ["high", "low", "new", "blood", "second"]
_PREPS = ["to", "at", "with"]
_PLACES = ["store", "hospital", "office"]


def random_phrase(rng: random.Random, entity_ids: list[str]):
    roll = rng.random()
    if roll < 0.25:
        return ir.ComplementPhrase(head="@" + rng.choice(entity_ids))
    if roll < 0.55:
        return ir.ComplementPhrase(
            head=rng.choice(_PLACES),
            determiner=rng.choice([None, "the", "a"]),
            preposition=rng.choice(_PREPS),
        )
    return ir.ComplementPhrase(
        head=rng.choice(_NOUNS),
        determiner=rng.choice([None, "a", "the"]),
        premodifiers=tuple(rng.sample(_MODS, rng.randint(0, 2))),
    )


def random_message(rng: random.Random, entity_ids: list[str],
                   allow_condition: bool = True) -> ir.Message:
    condition = None
    if allow_condition and rng.random() < 0.2:
        condition = random_message(rng, entity_ids, allow_condition=False)
    subject = rng.choice(entity_ids)
    verb = rng.choice(_VERBS)
    complements = tuple(random_phrase(rng, entity_ids)
                        for _ in range(rng.randint(0, 2)))
    tense = rng.choice(["present", "past", "future"])
    modal = rng.choice([None, None, None, "should", "must", "can"])
    return ir.Message(
        subject=subject,
        verb=verb,
        complements=complements,
        # A modal takes present tense; the tense is still drawn, so the
        # draws that follow are the same with or without a modal.
        tense="present" if modal else tense,
        modal=modal,
        polarity=rng.choice(["positive"] * 4 + ["negative"]),
        adverb=rng.choice([None] * 5 + ["just"]),
        condition=condition,
    )


def random_document_plan(rng: random.Random) -> ir.DocumentPlan:
    entities = {e.id: e for e in
                rng.sample(_ENTITY_POOL, rng.randint(3, len(_ENTITY_POOL)))}
    ids = sorted(entities)

    children = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            children.append(random_message(rng, ids))
        else:
            sub = tuple(random_message(rng, ids)
                        for _ in range(rng.randint(1, 3)))
            children.append(ir.PlanNode(
                label=rng.choice(list(ir.RELATION_LABELS)),
                children=sub))
    root = ir.PlanNode(label="sequence", children=tuple(children))
    return ir.DocumentPlan(root=root, entities=entities)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
