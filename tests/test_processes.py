"""nlgen run as separate processes, ``python -m nlgen``, as a shell runs
it: what only a real process shows, such as what the interpreter itself
prints when it flushes stdout at exit."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nlgen import ir, plan_sentences, traverse

from conftest import CORPUS_NAMES

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def _nlgen(*args: str, stdin=None, stdout=subprocess.PIPE):
    return subprocess.Popen([sys.executable, "-m", "nlgen", *args],
                            stdin=stdin, stdout=stdout,
                            stderr=subprocess.PIPE, env=ENV)


@pytest.mark.parametrize("profile", ["fluent", "plain"])
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_stages_joined_by_pipes_give_the_golden(corpus, name, profile):
    doc = next(d for d in corpus if d.name == name)
    plan = _nlgen("plan", "--schema", str(doc.schema_path),
                  "--data", str(doc.data_path))
    sentences = _nlgen("sentplan", "--plan", "-", "--profile", profile,
                       stdin=plan.stdout)
    text = _nlgen("realize", "--sentences", "-", stdin=sentences.stdout)
    # Each stage's reader now holds the only read end of its pipe.
    plan.stdout.close()
    sentences.stdout.close()
    out, err = text.communicate(timeout=60)
    assert (text.returncode, err) == (0, b"")
    for stage in (plan, sentences):
        assert stage.stderr.read() == b""
        stage.stderr.close()
        assert stage.wait(timeout=60) == 0
    assert out.decode("utf-8") == doc.golden(profile)


def test_plan_with_every_field_through_pipes_gives_the_golden(corpus,
                                                              tmp_path):
    # A plan file as written before fields at their defaults were left
    # out, with every field spelled out, as dataclasses.asdict does.
    doc = next(d for d in corpus if d.name == "patient_report")
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(dataclasses.asdict(
        traverse(doc.schema, doc.data))), encoding="utf-8")
    sentences = _nlgen("sentplan", "--plan", str(plan_file))
    text = _nlgen("realize", "--sentences", "-", stdin=sentences.stdout)
    sentences.stdout.close()
    out, err = text.communicate(timeout=60)
    assert (text.returncode, err) == (0, b"")
    assert sentences.stderr.read() == b""
    sentences.stderr.close()
    assert sentences.wait(timeout=60) == 0
    assert out.decode("utf-8") == doc.golden("fluent")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full to write to")
@pytest.mark.parametrize("command",
                         ["generate", "plan", "sentplan", "realize"])
def test_full_stdout_is_one_line_and_exit_5(corpus, tmp_path, command):
    doc = next(d for d in corpus if d.name == "sam_pair")
    plan = traverse(doc.schema, doc.data)
    plan_file, sentences_file = tmp_path / "p.json", tmp_path / "f.json"
    plan_file.write_text(ir.document_plan_to_json(plan), encoding="utf-8")
    sentences_file.write_text(ir.sentence_plans_to_json(
        plan_sentences(plan, "fluent")), encoding="utf-8")
    args = {"sentplan": ["--plan", str(plan_file)],
            "realize": ["--sentences", str(sentences_file)]}.get(
        command, ["--schema", str(doc.schema_path),
                  "--data", str(doc.data_path)])
    with open("/dev/full", "wb") as full:
        process = _nlgen(command, *args, stdout=full)
        _, err = process.communicate(timeout=60)
    err = err.decode("utf-8")
    assert process.returncode == 5
    assert err.startswith("io: cannot write <stdout>: ")
    assert err.count("\n") == 1 and len(err) < 300
    assert "Traceback" not in err and "Exception ignored" not in err
