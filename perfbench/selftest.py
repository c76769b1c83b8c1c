"""Self-tests of the benchmark itself:  python3 perfbench/selftest.py

They check that one seed always yields the same input bytes, that the
reference checks catch a corrupted output, and that tracing leaves every
nlgen attribute it wrapped as it found it.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(HERE), str(REPO / "src")]

import check  # noqa: E402
import inputs  # noqa: E402
import nlgen  # noqa: E402
import nlgen.cli  # noqa: E402
from tracing import Tracer, originals  # noqa: E402
from worker import Caller  # noqa: E402


def _scratch() -> Path:
    path = HERE / "_work"
    path.mkdir(exist_ok=True)
    return path


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _demo_patient():
    demo = REPO / "src" / "nlgen" / "data" / "demo"
    return _load({"schema": demo / "patient_report.schema",
                  "data": demo / "patient_report.json"})


def _load(doc: dict):
    return (nlgen.parse_schema(Path(doc["schema"]).read_text("utf-8")),
            nlgen.load_data(Path(doc["data"]).read_text("utf-8")))


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        with tempfile.TemporaryDirectory(dir=_scratch()) as tmp:
            for name in inputs.WORKLOADS:
                a, b, c = (Path(tmp) / f"{name}-{k}" for k in "abc")
                inputs.write_workload(name, 5, a, REPO, growth=True)
                inputs.write_workload(name, 5, b, REPO, growth=True)
                inputs.write_workload(name, 6, c, REPO, growth=True)
                self.assertEqual(_files(a), _files(b), name)
                self.assertNotEqual(_files(a), _files(c), name)


class ReferenceCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(dir=_scratch())
        root = Path(cls.tmp.name)
        cls.small = inputs.write_workload("small_docs", 3, root / "s", REPO)
        cls.long = inputs.write_workload("long_doc", 3, root / "l", REPO)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_corrupted_text_counts_as_failed(self):
        docs = self.small["docs"]
        args = [(*_load(d), d["profile"]) for d in docs]
        refs = [d["expect"]["text"] for d in docs]
        good = Caller(args, refs, lambda a: nlgen.generate_text(*a))
        good.run_for(0)
        self.assertEqual(good.failed, 0)

        def corrupt(a):
            text = nlgen.generate_text(*a)
            return text[:-1] + ("!" if text[-1] != "!" else ".")
        bad = Caller(args, refs, corrupt)
        bad.run_for(0)
        self.assertEqual((bad.failed, bad.count), (1, 1))

    def test_oracles_flag_corrupted_fluent_output(self):
        doc = self.long["docs"][0]
        schema_def, data = _load(doc)
        plans = nlgen.plan_sentences(nlgen.traverse(schema_def, data))
        text = nlgen.realize_document(plans)
        plain = nlgen.generate_text(schema_def, data, "plain")
        expect = doc["expect"]
        self.assertEqual(check.oracle_problems(plans, text, plain, expect),
                         [])
        self.assertTrue(check.oracle_problems(
            plans, text.replace(".", " None.", 1), plain, expect))
        self.assertTrue(check.oracle_problems(
            plans, text, plain.replace("has", "have", 1), expect))
        self.assertTrue(check.oracle_problems(plans[1:], text, plain,
                                              expect))

    def test_unrecoverable_pronoun_is_flagged(self):
        ir = nlgen.ir

        def sentence(ent, mode):
            ref = ir.ReferenceSpec(entity=ent, mode=mode)
            return ir.SentencePlan(clauses=(
                ir.ClauseSpec(subject_ref=ref, verb="have"),))
        al = ir.Entity("al", name="Al", gender="masculine")
        bo = ir.Entity("bo", name="Bo", gender="masculine")
        self.assertEqual(check.pronoun_failures(
            [sentence(al, "full-name"), sentence(al, "pronoun")]), [])
        # "he" after a mention of Bo cannot mean Al.
        self.assertTrue(check.pronoun_failures(
            [sentence(al, "full-name"), sentence(bo, "full-name"),
             sentence(al, "pronoun")]))

    def test_plural_head_noun_reference(self):
        # nlgen writes "The nurse have a fever." here (a known agreement
        # defect), so such a document counts as failed.
        nurses = {"head": "nurse", "number": "plural", "person": "third",
                  "gender": "neuter"}
        msg = {"subject": "n", "verb": "have", "complements": ["a fever"]}
        self.assertEqual(inputs.plain_text([[msg]], {"n": nurses}),
                         "The nurses have a fever.")

    def test_leaked_values_are_flagged(self):
        self.assertEqual(check.text_problems("Sam has a cough."), [])
        self.assertTrue(check.text_problems("Sam has {'k': 1} and None."))
        self.assertTrue(check.text_problems(""))


class Tracing(unittest.TestCase):
    def test_wrappers_are_restored(self):
        schema_def, data = _demo_patient()
        before = originals()
        tracer = Tracer()
        with tracer:
            self.assertNotEqual(originals(), before)
            nlgen.generate_text(schema_def, data)
        self.assertEqual(originals(), before)
        with self.assertRaises(ZeroDivisionError), tracer:
            nlgen.generate_text(schema_def, data)
            1 / 0
        self.assertEqual(originals(), before)
        names = {s[1] for s in tracer.spans}
        self.assertLessEqual({"schema.traverse", "schema.eval_condition",
                              "sentplan.aggregate", "lexicon.verb_form",
                              "realize.orthography"}, names)
        by_id = {s[0]: s for s in tracer.spans}
        for span in tracer.spans:
            if span[1] == "schema.eval_condition":
                self.assertIn(by_id[span[4]][1], ("schema.traverse",
                                                  "schema.eval_condition"))

    def test_batch_pool_threads_nest_under_main(self):
        with tempfile.TemporaryDirectory(dir=_scratch()) as tmp:
            batch = inputs.write_workload("small_docs", 2, Path(tmp),
                                          REPO)["batch"]
            tracer = Tracer()
            with tracer, contextlib.redirect_stdout(io.StringIO()):
                code = nlgen.cli.main(["generate", "--schema",
                                       batch["schema"], "--batch",
                                       batch["dir"]])
        self.assertEqual(code, 0)
        by_id = {s[0]: s for s in tracer.spans}
        main_id = next(s[0] for s in tracer.spans if s[1] == "cli.main")
        home = by_id[main_id][6]
        pool = [s for s in tracer.spans if s[6] != home]
        self.assertTrue(pool)
        for span in pool:
            while span[4] is not None:
                span = by_id[span[4]]
            self.assertEqual(span[0], main_id)
        docs = {s[5] for s in pool if s[1] == "schema.traverse"}
        self.assertEqual(len(docs), len(batch["expected"]))

    def test_self_time_subtracts_child_time(self):
        with Tracer() as tracer:
            nlgen.generate_text(*_demo_patient())
        stats = {name: stat for (_, name), stat in tracer.stats.items()}
        # realize_document's children: default_lexicon (lex is None),
        # realize_sentence per sentence, and orthography.
        children = sum(stats[n][1] for n in (
            "lexicon.default_lexicon", "realize.realize_sentence",
            "realize.orthography"))
        total, own = stats["realize.realize_document"][1:3]
        self.assertAlmostEqual(own, total - children, places=9)
        for calls, seconds, self_s, _ in stats.values():
            self.assertTrue(0 <= self_s <= seconds, (seconds, self_s))


if __name__ == "__main__":
    unittest.main()
