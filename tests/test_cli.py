import contextlib
import errno
import io
import json
from typing import Literal, get_args, get_origin
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgen import cli, ir, plan_sentences, schema, sentplan, traverse
from nlgen.errors import DataError

import oracle
from conftest import DATA_DIR, GOLDEN_DIR, fake_stdin, run_cli


def get(corpus, name):
    return next(d for d in corpus if d.name == name)


def _sentences_file(tmp_path, doc, profile="fluent"):
    """Run plan, then sentplan, on a corpus document; the sentence plans
    file, written to ``tmp_path``."""
    code, plan_json, _ = run_cli(["plan", "--schema", str(doc.schema_path),
                                  "--data", str(doc.data_path)])
    assert code == 0
    plan_file = tmp_path / f"{doc.name}.plan.json"
    plan_file.write_text(plan_json, encoding="utf-8")
    code, sent_json, _ = run_cli(["sentplan", "--plan", str(plan_file),
                                  "--profile", profile])
    assert code == 0
    sent_file = tmp_path / f"{doc.name}.{profile}.sentences.json"
    sent_file.write_text(sent_json, encoding="utf-8")
    return sent_file


class TestGenerate:
    @staticmethod
    def _goldens(corpus, demo_dir, profile):
        """Each golden, with the embedded lexicon and with the shipped
        lexicon file passed by --lexicon, whose loader checks pronoun
        genders and lowercases article keys."""
        shipped = ["--lexicon", str(demo_dir.parent / "lexicon.txt")]
        for doc in corpus:
            for lexicon in ([], shipped):
                assert run_cli([
                    "generate", "--schema", str(doc.schema_path),
                    "--data", str(doc.data_path), "--profile", profile,
                    *lexicon]) == (0, doc.golden(profile), ""), doc.name

    def test_fluent_golden_byte_exact(self, corpus, demo_dir):
        self._goldens(corpus, demo_dir, "fluent")

    def test_plain_golden_byte_exact(self, corpus, demo_dir):
        self._goldens(corpus, demo_dir, "plain")

    def test_plain_dumps_same_propositions_more_sentences(self, corpus,
                                                          tmp_path):
        doc = get(corpus, "patient_report")
        fluent_sents, plain_sents = (
            ir.sentence_plans_from_json(
                _sentences_file(tmp_path, doc, profile).read_text())
            for profile in ("fluent", "plain"))
        assert len(plain_sents) >= len(fluent_sents)
        want = oracle.expand_document_plan(traverse(doc.schema, doc.data))
        assert oracle.expand_sentence_plans(fluent_sents) == want
        assert oracle.expand_sentence_plans(plain_sents) == want

    def test_missing_data_file_exits_5(self, corpus):
        doc = get(corpus, "sam_pair")
        code, out, err = run_cli([
            "generate", "--schema", str(doc.schema_path),
            "--data", "/nonexistent/data.json"])
        assert code == 5
        assert out == ""
        assert "/nonexistent/data.json" in err
        assert err.count("\n") == 1

    def test_bad_schema_exits_1_with_position(self, corpus, tmp_path):
        bad = tmp_path / "bad.schema"
        bad.write_text("schema s\nnode a emit !\n")
        doc = get(corpus, "sam_pair")
        code, out, err = run_cli([
            "generate", "--schema", str(bad),
            "--data", str(doc.data_path)])
        assert code == 1
        assert "line 2" in err
        assert err.startswith("parse:")

    def test_traverse_failure_exits_2(self, corpus, tmp_path):
        loop = tmp_path / "loop.schema"
        loop.write_text("schema s\n"
                        "node a emit subject=\"sam\" verb=rest\n"
                        "arc a -> a\n")
        data = tmp_path / "d.json"
        data.write_text('{"entities": {"sam": {"name": "Sam"}}, '
                        '"records": {}}')
        code, _, err = run_cli([
            "generate", "--schema", str(loop), "--data", str(data)])
        assert code == 2
        assert err.startswith("traverse:")

    @staticmethod
    def _generate(tmp_path, schema_text, records):
        schema_file = tmp_path / "s.schema"
        schema_file.write_text(schema_text, encoding="utf-8")
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"entities": {"sam": {"name": "Sam"}},
                                    "records": records}), encoding="utf-8")
        return run_cli(["generate", "--schema", str(schema_file),
                        "--data", str(data)])

    def test_non_scalar_path_values_exit_2(self, tmp_path):
        src = ("schema s\n"
               "node a emit subject=\"sam\" verb=have "
               "complement=path(r.{})\n")
        records = {"r": {"obj": {"k": [1, 2]}, "seq": [1], "nul": None}}
        for key, kind in (("obj", "an object"), ("seq", "an array"),
                          ("nul", "null")):
            code, out, err = self._generate(tmp_path, src.format(key),
                                            records)
            assert (code, out) == (2, "")
            assert err.startswith("traverse:")
            assert err.count("\n") == 1
            assert "node 'a'" in err
            assert f"data path r.{key} holds {kind}" in err

    def test_condition_node_failure_names_both_nodes(self, tmp_path):
        src = ("schema s\n"
               "node a emit subject=\"sam\" verb=go "
               "complement=\"to the store\" condition=b\n"
               "node b emit subject=\"sam\" verb=have "
               "complement=path(r.missing)\n")
        code, out, err = self._generate(tmp_path, src, {"r": {}})
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert "node 'a', condition node 'b'" in err
        assert "missing data path: r.missing" in err

    def test_main_template_failure_names_its_node_alone(self, tmp_path):
        src = ("schema s\n"
               "node a emit subject=\"sam\" verb=go "
               "complement=path(r.missing) condition=b\n"
               "node b emit subject=\"sam\" verb=have "
               "complement=\"a cold\"\n")
        code, out, err = self._generate(tmp_path, src, {"r": {}})
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert ": node 'a': template instantiation failed: " in err
        assert "condition node" not in err
        assert "missing data path: r.missing" in err

    @pytest.mark.parametrize("records, problem", [
        ({}, "missing data path: r.x"),
        ({"r": {"x": "hi"}},
         "gt(r.x, ...): path value is a string, not a number"),
    ])
    def test_guard_failure_names_its_arc(self, tmp_path, records, problem):
        src = ("schema s\n"
               "node a emit subject=\"sam\" verb=rest\n"
               "node b emit subject=\"sam\" verb=go\n"
               "arc a -> b when gt(r.x, 1)\n")
        code, out, err = self._generate(tmp_path, src, records)
        assert (code, out) == (2, "")
        assert err == (f"traverse: {tmp_path / 'd.json'}: arc 'a' -> 'b' in "
                       f"schema 's': guard failed: {problem}\n")

    def test_lexicon_without_pronoun_cell_exits_4(self, corpus, tmp_path):
        doc = get(corpus, "reflexive")
        lex = tmp_path / "lex.txt"
        lex.write_text("[plurals]\n")
        code, out, err = run_cli([
            "generate", "--schema", str(doc.schema_path),
            "--data", str(doc.data_path), "--lexicon", str(lex)])
        assert (code, out) == (4, "")
        assert err.startswith("realize:")
        assert err.count("\n") == 1
        assert "no pronoun for third/singular/masculine/reflexive" in err

    def test_lexicon_with_misspelled_gender_exits_1(self, corpus, tmp_path):
        doc = get(corpus, "reflexive")
        lex = tmp_path / "lex.txt"
        lex.write_text("[pronouns]\nthird\tsingular\tfeminin\tsubjective"
                       "\tshe\n")
        code, out, err = run_cli([
            "generate", "--schema", str(doc.schema_path),
            "--data", str(doc.data_path), "--lexicon", str(lex)])
        assert (code, out) == (1, "")
        assert err == f"parse: {lex}: lexicon line 2: bad pronoun features\n"

    def test_lexicon_override(self, corpus, tmp_path):
        doc = get(corpus, "sam_pair")
        lex = tmp_path / "lex.txt"
        # A lexicon without the "have" paradigm regularizes it.
        lex.write_text("[plurals]\n")
        code, out, _ = run_cli([
            "generate", "--schema", str(doc.schema_path),
            "--data", str(doc.data_path), "--lexicon", str(lex),
            "--profile", "plain"])
        assert code == 0
        assert "Sam haves high blood pressure." in out

    def test_batch_writes_txt_next_to_data(self, corpus, tmp_path):
        doc = get(corpus, "sam_pair")
        batch = tmp_path / "batch"
        batch.mkdir()
        for i in range(3):
            (batch / f"p{i}.json").write_text(
                doc.data_path.read_text(encoding="utf-8"))
        code, out, err = run_cli([
            "generate", "--schema", str(doc.schema_path),
            "--batch", str(batch)])
        assert (code, out, err) == (0, "", "")
        for i in range(3):
            assert (batch / f"p{i}.txt").read_text(encoding="utf-8") == \
                doc.golden("fluent")

    def test_batch_requires_directory(self, corpus):
        doc = get(corpus, "sam_pair")
        code, _, err = run_cli([
            "generate", "--schema", str(doc.schema_path),
            "--batch", "/nonexistent"])
        assert code == 5

    def test_batch_without_data_files_exits_5(self, corpus, tmp_path):
        doc = get(corpus, "sam_pair")
        batch = tmp_path / "batch"
        batch.mkdir()
        (batch / "notes.txt").write_text("not data", encoding="utf-8")
        code, out, err = run_cli([
            "generate", "--schema", str(doc.schema_path),
            "--batch", str(batch)])
        assert (code, out) == (5, "")
        assert err == f"io: no .json data files in {batch}\n"

    def test_unwritable_batch_text_exits_5(self, corpus, tmp_path):
        doc = get(corpus, "sam_pair")
        batch = tmp_path / "batch"
        batch.mkdir()
        (batch / "x.json").write_text(
            doc.data_path.read_text(encoding="utf-8"), encoding="utf-8")
        (batch / "x.txt").mkdir()
        code, out, err = run_cli([
            "generate", "--schema", str(doc.schema_path),
            "--batch", str(batch)])
        assert (code, out) == (5, "")
        assert err.startswith(f"io: cannot write {batch / 'x.txt'}: ")
        assert err.count("\n") == 1


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestOneExit:
    """Argument errors and stdout write errors leave like stage failures:
    one line and the stage's code, never SystemExit or a traceback."""

    @pytest.mark.parametrize("args, detail", [
        (["generate", "--schema", "s", "--data", "d", "--dump-plan", "x"],
         "unrecognized arguments: --dump-plan x"),
        (["plan", "--data", "d"],
         "the following arguments are required: --schema"),
        (["sentplan", "--plan", "p", "--profile", "terse"],
         "argument --profile: invalid choice: "),
        ([], "the following arguments are required: command"),
        (["frob"], "argument command: invalid choice: "),
        (["generate", "--schema", "s", "--data", "d", "--batch", "b"],
         "argument --batch: not allowed with argument --data"),
        (["generate", "--schema", "s"],
         "one of the arguments --data --batch is required"),
        # stdin holds one input: the first reader would leave the next none.
        (["generate", "--schema", "-", "--data", "-"],
         "only one of the arguments --schema --data may be - (stdin)"),
        (["plan", "--schema", "-", "--data", "-"],
         "only one of the arguments --schema --data may be - (stdin)"),
        (["generate", "--schema", "-", "--batch", "b", "--lexicon", "-"],
         "only one of the arguments --schema --lexicon may be - (stdin)"),
        (["realize", "--sentences", "-", "--lexicon", "-"],
         "only one of the arguments --sentences --lexicon may be - (stdin)"),
    ], ids=["unknown-flag", "missing-schema", "bad-profile", "no-command",
            "unknown-command", "data-and-batch", "neither-data-nor-batch",
            "generate-two-stdin", "plan-two-stdin", "batch-two-stdin",
            "realize-two-stdin"])
    def test_usage_error_exits_6(self, args, detail):
        code, out, err = run_cli(args)
        assert (code, out) == (6, "")
        assert err.startswith(f"usage: {detail}")
        assert err.count("\n") == 1 and len(err) < 300

    def test_help_goes_to_stdout_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["generate", "--help"])
        assert info.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: nlgen generate") and err == ""

    @pytest.mark.parametrize("command",
                             ["generate", "plan", "sentplan", "realize"])
    def test_stdout_write_error_exits_5(self, corpus, tmp_path, command):
        doc = get(corpus, "sam_pair")
        sources = ["--schema", str(doc.schema_path),
                   "--data", str(doc.data_path)]
        sentences = _sentences_file(tmp_path, doc)
        args = {"sentplan": ["--plan", str(tmp_path / "sam_pair.plan.json")],
                "realize": ["--sentences", str(sentences)]}
        err = io.StringIO()
        with contextlib.redirect_stdout(_FullStdout()), \
                contextlib.redirect_stderr(err):
            code = cli.main([command, *args.get(command, sources)])
        assert (code, err.getvalue()) == (
            5, "io: cannot write <stdout>: [Errno 28] No space left on "
               "device\n")


class TestPlan:
    def test_stage_files_byte_exact(self, corpus):
        """Each demo document's plan file, and its sentence-plans file
        under each profile, byte for byte against tests/golden."""
        for doc in corpus:
            plan_file = GOLDEN_DIR / f"{doc.name}.plan.json"
            assert run_cli(["plan", "--schema", str(doc.schema_path),
                            "--data", str(doc.data_path)]) == \
                (0, plan_file.read_text(encoding="utf-8"), ""), doc.name
            for profile in sentplan.PROFILES:
                golden = GOLDEN_DIR / f"{doc.name}.{profile}.sentences.json"
                assert run_cli(["sentplan", "--plan", str(plan_file),
                                "--profile", profile]) == \
                    (0, golden.read_text(encoding="utf-8"), ""), \
                    (doc.name, profile)

    def test_plan_is_validate_clean(self, corpus):
        doc = get(corpus, "patient_report")
        code, out, err = run_cli([
            "plan", "--schema", str(doc.schema_path),
            "--data", str(doc.data_path)])
        assert (code, err) == (0, "")
        plan = ir.document_plan_from_json(out)
        assert ir.validate(plan) == []

    def test_empty_document_schema(self, tmp_path):
        s = tmp_path / "empty.schema"
        s.write_text("schema s\nnode done end\n")
        d = tmp_path / "d.json"
        d.write_text('{"entities": {}, "records": {}}')
        code, out, _ = run_cli(["plan", "--schema", str(s),
                                "--data", str(d)])
        assert code == 0
        assert json.loads(out)["root"] is None

    @pytest.mark.parametrize("command", ["plan", "generate"])
    def test_bad_verb_lemma_exits_1(self, command, tmp_path):
        s = tmp_path / "bad.schema"
        s.write_text("schema s\n"
                     "node a emit subject=path(p.who) verb=Has "
                     "complement=\"a cold\"\n")
        d = tmp_path / "d.json"
        d.write_text('{"entities": {"sam": {"name": "Sam"}}, '
                     '"records": {"p": {"who": "@sam"}}}')
        code, out, err = run_cli([command, "--schema", str(s),
                                  "--data", str(d)])
        assert (code, out) == (1, "")
        assert err.startswith("parse: ")
        assert "line 2" in err and "verb lemma 'Has'" in err
        assert err.count("\n") == 1

    def test_bad_schema_exit_1(self, tmp_path):
        s = tmp_path / "bad.schema"
        s.write_text("schema s\nnode\n")
        d = tmp_path / "d.json"
        d.write_text('{"entities": {}, "records": {}}')
        code, _, err = run_cli(["plan", "--schema", str(s),
                                "--data", str(d)])
        assert code == 1
        assert "line 2" in err

    def test_statement_error_is_one_parse_line(self, tmp_path):
        s = tmp_path / "bad.schema"
        s.write_text('schema s\nnode a emit subject="sam" verb=rest\n'
                     "node b end\narc a -> b when maybe(r.x)\n")
        d = tmp_path / "d.json"
        d.write_text('{"entities": {}, "records": {}}')
        code, out, err = run_cli(["plan", "--schema", str(s),
                                  "--data", str(d)])
        assert (code, out) == (1, "")
        assert err == (f"parse: {s}: line 4, column 17: unknown condition "
                       f"operator 'maybe'\n")


def _run_one(tmp_path, command, schema_text, data):
    """Run ``command`` on one schema text and one data object."""
    schema_file = tmp_path / "s.schema"
    schema_file.write_text(schema_text, encoding="utf-8")
    data_file = tmp_path / "d.json"
    data_file.write_text(json.dumps(data), encoding="utf-8")
    return run_cli([command, "--schema", str(schema_file),
                    "--data", str(data_file)])


_SAM = {"sam": {"name": "Sam"}}


class TestCheckedWhereTheyEnter:
    @pytest.mark.parametrize("command", ["plan", "generate"])
    @pytest.mark.parametrize("fields", ['subject="ghost" verb=rest',
                                        'subject="sam" verb=see '
                                        'complement="@ghost"',
                                        'subject="sam" verb=go '
                                        'complement="with @ghost"'])
    def test_unknown_entity_exits_2_naming_the_node(self, tmp_path,
                                                    command, fields):
        code, out, err = _run_one(tmp_path, command,
                                  f"schema s\nnode a emit {fields}\n",
                                  {"entities": _SAM, "records": {}})
        assert (code, out) == (2, "")
        assert err.startswith("traverse: ")
        assert err.count("\n") == 1
        assert "node 'a'" in err and "unknown entity 'ghost'" in err

    @pytest.mark.parametrize("entity, detail", [
        ({"id": "samuel", "name": "Sam"},
         "entities[sam]: table key does not match entity id 'samuel'"),
        ({"name": "Sam", "head": "man"},
         "entities[sam]: exactly one of name/head"),
        ({"head": " "}, "entities[sam]: exactly one of name/head"),
        ({"name": " "}, "entities[sam]: exactly one of name/head"),
    ])
    def test_bad_entity_table_exits_1(self, tmp_path, entity, detail):
        code, out, err = _run_one(
            tmp_path, "generate",
            'schema s\nnode a emit subject="sam" verb=rest\n',
            {"entities": {"sam": entity}, "records": {}})
        assert (code, out) == (1, "")
        assert err.startswith("parse: ")
        assert err.count("\n") == 1
        assert detail in err

    @staticmethod
    def _sentplan(tmp_path, corpus, change):
        doc = get(corpus, "sam_pair")
        obj = json.loads(ir.document_plan_to_json(
            traverse(doc.schema, doc.data)))
        change(obj)
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(obj), encoding="utf-8")
        return run_cli(["sentplan", "--plan", str(f)])

    def test_dangling_entity_in_plan_json_exits_3(self, tmp_path, corpus,
                                                  monkeypatch):
        # The decoder rejects the plan; sentence planning never sees it.
        monkeypatch.setattr(sentplan, "plan_sentences", None)
        code, out, err = self._sentplan(
            tmp_path, corpus, lambda obj: obj["entities"].clear())
        assert (code, out) == (3, "")
        assert err.startswith("sentplan: ")
        assert err.count("\n") == 1
        assert "root.children[0]: referential integrity: " \
               "unknown subject entity 'sam'" in err

    @pytest.mark.parametrize("change, detail", [
        (lambda obj: obj["root"].update(kind="relation"),
         "root: unknown field 'kind'"),
        (lambda obj: obj["root"]["children"][0]["complements"][0]
         .update(kind="noun-phrase"),
         "root.children[0].complements[0]: unknown field 'kind'"),
    ])
    def test_plan_json_with_kind_exits_3(self, tmp_path, corpus, change,
                                         detail):
        code, out, err = self._sentplan(tmp_path, corpus, change)
        assert (code, out) == (3, "")
        assert err.startswith("sentplan: ")
        assert err.count("\n") == 1
        assert detail in err

    def test_labeled_leaf_exits_3(self, tmp_path, corpus):
        # A leaf is a message, which has no label field.
        code, out, err = self._sentplan(
            tmp_path, corpus,
            lambda obj: obj["root"]["children"][0].update(label="contrast"))
        assert (code, out) == (3, "")
        assert err.startswith("sentplan: ")
        assert err.count("\n") == 1
        assert "root.children[0]: unknown field 'label'" in err

    def test_modal_with_past_tense_exits_3(self, tmp_path, corpus):
        code, out, err = self._sentplan(
            tmp_path, corpus, lambda obj: obj["root"]["children"][0]
            .update(modal="can", tense="past"))
        assert (code, out) == (3, "")
        assert err.startswith("sentplan: ")
        assert err.count("\n") == 1
        assert "root.children[0]: a modal takes present tense" in err

    def test_plan_json_with_record_keys_exits_3(self, tmp_path, corpus):
        code, out, err = self._sentplan(
            tmp_path, corpus, lambda obj: obj.update(record_keys=["p"]))
        assert (code, out) == (3, "")
        assert err.startswith("sentplan: ")
        assert err.count("\n") == 1
        assert "unknown field 'record_keys'" in err


class TestNoLostOrBlankWords:
    @pytest.mark.parametrize("adverb", ['""', '" "', '"\t"'])
    def test_blank_adverb_is_no_adverb(self, tmp_path, adverb):
        src = ('schema s\n'
               f'node a emit subject="sam" verb=rest adverb={adverb}\n')
        data = {"entities": _SAM, "records": {}}
        code, out, err = _run_one(tmp_path, "plan", src, data)
        assert (code, err) == (0, "")
        (leaf,) = json.loads(out)["root"]["children"]
        assert "adverb" not in leaf  # None, the default
        code, out, err = _run_one(tmp_path, "generate", src, data)
        assert (code, out, err) == (0, "Sam rests.\n", "")

    @pytest.mark.parametrize("command", ["plan", "generate"])
    @pytest.mark.parametrize("verb", ["go.to", '"go home"', '"9"'])
    def test_verb_lemma_is_one_word_exits_1(self, tmp_path, command, verb):
        code, out, err = _run_one(
            tmp_path, command,
            f'schema s\nnode a emit subject="sam" verb={verb} '
            f'complement="a cold"\n',
            {"entities": _SAM, "records": {}})
        assert (code, out) == (1, "")
        assert err.startswith("parse: ")
        assert err.count("\n") == 1
        assert "line 2" in err and "one lowercase alphabetic word" in err

    @pytest.mark.parametrize("complement", ["the @sam", "big @sam",
                                            "a big @sam", "with the @sam",
                                            "to old @sam"])
    def test_entity_reference_with_words_exits_2(self, tmp_path,
                                                 complement):
        code, out, err = _run_one(
            tmp_path, "generate",
            f'schema s\nnode a emit subject="sam" verb=see '
            f'complement="{complement}"\n',
            {"entities": _SAM, "records": {}})
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert "node 'a'" in err
        assert f"'@sam': {ir.ENTITY_HEAD_RULE}" in err

    @pytest.mark.parametrize("value, shown", [("1e400", "inf"),
                                              ("-1e400", "-inf"),
                                              ("NaN", "nan")])
    def test_non_finite_number_exits_2(self, tmp_path, value, shown):
        schema_file = tmp_path / "s.schema"
        schema_file.write_text('schema s\nnode a emit subject="sam" '
                               'verb=have complement=path(r.v)\n')
        data_file = tmp_path / "d.json"
        data_file.write_text('{"entities": {"sam": {"name": "Sam"}}, '
                             f'"records": {{"r": {{"v": {value}}}}}}}')
        code, out, err = run_cli(["generate", "--schema", str(schema_file),
                                  "--data", str(data_file)])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert "node 'a'" in err
        assert f"data path r.v holds {shown}, not a finite number" in err


class TestLiteralComplements:
    """Literal complements are parsed once per template; the checks that
    ran at traversal still run there, for every document."""

    @pytest.mark.parametrize("command", ["plan", "generate"])
    @pytest.mark.parametrize("complement", ['""', '"  "'])
    def test_blank_literal_exits_2_naming_the_node(self, tmp_path, command,
                                                   complement):
        code, out, err = _run_one(
            tmp_path, command,
            f'schema s\nnode a emit subject="sam" verb=see '
            f'complement={complement}\n',
            {"entities": _SAM, "records": {}})
        assert (code, out) == (2, "")
        assert err.startswith("traverse: ")
        assert err.count("\n") == 1
        assert "node 'a'" in err and "empty complement text" in err

    def test_entity_literal_is_checked_for_every_document(self, tmp_path):
        # --batch parses the schema once: the second document reuses the
        # parsed "@ghost" and must still find its entity missing.
        schema_file = tmp_path / "s.schema"
        schema_file.write_text('schema s\nnode a emit subject="sam" '
                               'verb=see complement="@ghost"\n')
        batch = tmp_path / "batch"
        batch.mkdir()
        ghost = {"ghost": {"name": "Ghost"}}
        (batch / "p0.json").write_text(json.dumps(
            {"entities": {**_SAM, **ghost}, "records": {}}))
        (batch / "p1.json").write_text(json.dumps(
            {"entities": _SAM, "records": {}}))
        code, out, err = run_cli(["generate", "--schema", str(schema_file),
                                  "--batch", str(batch)])
        assert (code, out) == (2, "")
        assert (batch / "p0.txt").read_text() == "Sam sees Ghost.\n"
        assert err.startswith("traverse: ")
        assert err.count("\n") == 1
        assert str(batch / "p1.json") in err
        assert "node 'a'" in err and "unknown entity 'ghost'" in err


class TestNumbers:
    @pytest.mark.parametrize("value, shown", [
        ("1e300", "1" + "0" * 300), ("1e16", "10000000000000000"),
        ("1e-7", "0.0000001"), ("-1.5E-5", "-0.000015"), ("0.5", "0.5"),
        ("120", "120"), ("1e15", "1000000000000000.0")])
    def test_written_without_exponent(self, tmp_path, value, shown):
        schema_file = tmp_path / "s.schema"
        schema_file.write_text('schema s\nnode a emit subject="sam" '
                               'verb=have complement=path(r.v)\n')
        data_file = tmp_path / "d.json"
        data_file.write_text('{"entities": {"sam": {"name": "Sam"}}, '
                             f'"records": {{"r": {{"v": {value}}}}}}}')
        code, out, err = run_cli(["generate", "--schema", str(schema_file),
                                  "--data", str(data_file)])
        assert (code, out, err) == (0, f"Sam has {shown}.\n", "")

    @settings(max_examples=500, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_positional_text_reads_back(self, value):
        text = ir.number_text(value)
        assert "e" not in text
        assert repr(float(text)) == repr(value)  # -0.0 keeps its sign


class TestRealizeCommand:
    def test_re_realizing_dump_is_byte_identical(self, corpus, tmp_path):
        doc = get(corpus, "patient_report")
        code, text, _ = run_cli([
            "generate", "--schema", str(doc.schema_path),
            "--data", str(doc.data_path)])
        assert code == 0
        sent_file = _sentences_file(tmp_path, doc)
        code, again, _ = run_cli(["realize", "--sentences",
                                  str(sent_file)])
        assert code == 0
        assert again == text

    def test_an_entity_is_edited_at_every_reference(self, corpus,
                                                    tmp_path):
        # Each reference holds its entity in full.  An edit at one of
        # Sam's references gives one id two feature sets, which is
        # refused; the same edit at every reference changes every mention.
        obj = _sentence_plan_obj(get(corpus, "patient_report"))
        sams = _entities(obj, "sam")
        assert len(sams) == 2  # the full-name and the pronoun reference
        f = tmp_path / "sentences.json"

        def realize():
            f.write_text(json.dumps(obj), encoding="utf-8")
            return run_cli(["realize", "--sentences", str(f)])

        sams[0]["gender"] = "feminine"
        assert realize() == (4, "", f"realize: {f}: entity 'sam' is "
                                    f"referenced with two different "
                                    f"feature sets\n")
        sams[1]["gender"] = "feminine"
        assert realize() == (0, (
            "Sam has high blood pressure and low blood sugar.\n\n"
            "If she goes to the hospital, she should also go to the "
            "store. She should see Mrs. Black.\n"), "")

    def test_a_file_with_an_entity_table_exits_4(self, tmp_path):
        # Sentence-plans files once held an entity table, with each
        # reference naming its entity by id.  Such a file is refused as a
        # whole, in one line; nlgen sentplan writes it again.
        old = {"entities": {"sam": {"gender": "masculine", "id": "sam",
                                    "name": "Sam"}},
               "sentences": [{"clauses": [{"subject_ref": {"entity": "sam"},
                                           "verb": "rest"}]}]}
        f = tmp_path / "old.json"
        f.write_text(json.dumps(old), encoding="utf-8")
        problem = "sentences: expected an array, got an object"
        assert run_cli(["realize", "--sentences", str(f)]) == (
            4, "", f"realize: {f}: {problem}\n")
        with pytest.raises(DataError, match=f"^{problem}$"):
            ir.sentence_plans_from_json(f.read_text(encoding="utf-8"))

    def test_empty_sentence_list(self, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text('[]')
        code, out, err = run_cli(["realize", "--sentences", str(f)])
        assert (code, out, err) == (0, "", "")

    def test_lexicon_file_is_used(self, corpus, demo_dir, tmp_path):
        sent_file = _sentences_file(tmp_path, get(corpus, "sam_pair"))
        shipped = (demo_dir.parent / "lexicon.txt").read_text(
            encoding="utf-8")
        changed = shipped.replace("third\tsingular\tpresent\thas\n",
                                  "third\tsingular\tpresent\thath\n")
        assert changed != shipped
        lex = tmp_path / "lex.txt"
        lex.write_text(changed, encoding="utf-8")
        code, out, err = run_cli(["realize", "--sentences", str(sent_file),
                                  "--lexicon", str(lex)])
        assert (code, err) == (0, "")
        assert out == "Sam hath high blood pressure and low blood sugar.\n"

    def test_bad_lexicon_file_exits_1(self, corpus, tmp_path):
        sent_file = _sentences_file(tmp_path, get(corpus, "sam_pair"))
        lex = tmp_path / "lex.txt"
        lex.write_text("[plurals]\nchild\n", encoding="utf-8")
        code, out, err = run_cli(["realize", "--sentences", str(sent_file),
                                  "--lexicon", str(lex)])
        assert (code, out) == (1, "")
        assert err == (f"parse: {lex}: lexicon line 2: expected "
                       f"'lemma<TAB>plural'\n")

    def test_truncated_file_exits_4(self, corpus, tmp_path):
        sent_file = _sentences_file(tmp_path, get(corpus, "patient_report"))
        broken = tmp_path / "broken.json"
        broken.write_text(sent_file.read_text()[:40])
        code, out, err = run_cli(["realize", "--sentences", str(broken)])
        assert code == 4
        assert out == ""
        assert err.startswith("realize:")


class TestStageComposition:
    def test_matches_generate_on_corpus(self, corpus, tmp_path):
        for doc in corpus:
            for profile in ("fluent", "plain"):
                code, direct, _ = run_cli([
                    "generate", "--schema", str(doc.schema_path),
                    "--data", str(doc.data_path), "--profile", profile])
                assert code == 0
                code, plan_json, _ = run_cli([
                    "plan", "--schema", str(doc.schema_path),
                    "--data", str(doc.data_path)])
                assert code == 0
                plan_file = tmp_path / f"{doc.name}.{profile}.plan.json"
                plan_file.write_text(plan_json, encoding="utf-8")
                code, sent_json, _ = run_cli([
                    "sentplan", "--plan", str(plan_file),
                    "--profile", profile])
                assert code == 0
                sent_file = tmp_path / f"{doc.name}.{profile}.sent.json"
                sent_file.write_text(sent_json, encoding="utf-8")
                code, piped, _ = run_cli([
                    "realize", "--sentences", str(sent_file)])
                assert code == 0
                assert piped == direct, (doc.name, profile)

    def test_sentplan_rejects_malformed_plan(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{}")
        code, _, err = run_cli(["sentplan", "--plan", str(f)])
        assert code == 3
        assert err.startswith("sentplan:")


def _staged(tmp_path, schema_text, data) -> tuple[str, str]:
    """generate's output and plan | sentplan | realize's, which must
    both succeed, on one schema text and data object."""
    code, direct, err = _run_one(tmp_path, "generate", schema_text, data)
    assert (code, err) == (0, "")
    code, plan_json, err = _run_one(tmp_path, "plan", schema_text, data)
    assert (code, err) == (0, "")
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plan_json, encoding="utf-8")
    code, sent_json, err = run_cli(["sentplan", "--plan", str(plan_file)])
    assert (code, err) == (0, "")
    sent_file = tmp_path / "sent.json"
    sent_file.write_text(sent_json, encoding="utf-8")
    code, piped, err = run_cli(["realize", "--sentences", str(sent_file)])
    assert (code, err) == (0, "")
    return direct, piped


class TestNestingBound:
    """ir.MAX_NESTING is the one depth rule: sequence chains of any length
    generate, and deeper nesting fails the same way in every command."""

    def test_long_sequence_chain_generates_and_stages(self, tmp_path):
        lines = ["schema chain"]
        lines += [f"node n{i} emit subject=\"sam\" verb=rest"
                  for i in range(5000)]
        lines += [f"arc n{i} -> n{i + 1}" for i in range(4999)]
        direct, piped = _staged(tmp_path, "\n".join(lines) + "\n",
                                {"entities": _SAM, "records": {}})
        assert direct.count("rests") == 5000
        assert piped == direct

    def test_nested_calls_past_the_bound_exit_2_alike(self, tmp_path):
        lines = []
        for i in range(400):
            lines += [f"schema s{i}", f"node c call s{i + 1}"]
        lines += ["schema s400", 'node a emit subject="sam" verb=rest']
        errs = set()
        for command in ("plan", "generate"):
            code, out, err = _run_one(tmp_path, command,
                                      "\n".join(lines) + "\n",
                                      {"entities": _SAM, "records": {}})
            assert (code, out) == (2, "")
            assert err.count("\n") == 1
            errs.add(err)
        (err,) = errs
        assert err.startswith("traverse: ")
        assert (f"schema nesting deeper than {ir.MAX_NESTING} levels at "
                f"node 'c' in schema 's{ir.MAX_NESTING + 1}'") in err

    @staticmethod
    def _elaboration_chain(links: int) -> str:
        lines = ["schema s"]
        lines += [f"node n{i} emit subject=\"sam\" verb=rest"
                  for i in range(links + 1)]
        lines += [f"arc n{i} -> n{i + 1} rel elaboration"
                  for i in range(links)]
        return "\n".join(lines) + "\n"

    def test_plan_at_the_bound_passes_every_stage(self, tmp_path):
        direct, piped = _staged(tmp_path,
                                self._elaboration_chain(ir.MAX_NESTING),
                                {"entities": _SAM, "records": {}})
        assert direct.count("rests") == ir.MAX_NESTING + 1
        assert piped == direct

    def test_plan_one_level_deeper_exits_3(self, tmp_path):
        code, plan_json, _ = _run_one(
            tmp_path, "plan", self._elaboration_chain(ir.MAX_NESTING),
            {"entities": _SAM, "records": {}})
        assert code == 0
        obj = json.loads(plan_json)
        deepest = obj["root"]
        while "label" in deepest["children"][-1]:
            deepest = deepest["children"][-1]
        deepest["children"] = [{"label": "elaboration",
                                "children": deepest["children"]}]
        plan_file = tmp_path / "deeper.json"
        plan_file.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run_cli(["sentplan", "--plan", str(plan_file)])
        assert (code, out) == (3, "")
        assert err.startswith("sentplan: ")
        assert err.count("\n") == 1
        assert f"nest more than {ir.MAX_NESTING} levels" in err
        # The line names the level and the first steps of the path, not
        # all 101 of them.
        with mock.patch("sys.stdin", fake_stdin(plan_file.read_bytes())):
            code, out, err = run_cli(["sentplan", "--plan", "-"])
        assert (code, out) == (3, "")
        assert err == (f"sentplan: <stdin>: root.children[1].children[1]... "
                       f"(level {ir.MAX_NESTING + 1}): relation nodes nest "
                       f"more than {ir.MAX_NESTING} levels below the root\n")
        assert len(err) < 200

    def test_many_deep_branches_give_one_short_line(self, tmp_path):
        # 20 branches, each 102 levels deep: the bound is named once, at
        # the first branch past it.
        branch = {"subject": "sam", "verb": "rest"}
        for _ in range(102):
            branch = {"label": "elaboration", "children": [branch]}
        obj = {"entities": {"sam": {"id": "sam", "name": "Sam"}},
               "root": {"label": "sequence", "children": [branch] * 20}}
        plan_file = tmp_path / "wide_and_deep.json"
        plan_file.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run_cli(["sentplan", "--plan", str(plan_file)])
        assert (code, out) == (3, "")
        assert err == (f"sentplan: {plan_file}: root.children[0]."
                       f"children[0]... (level {ir.MAX_NESTING + 1}): "
                       f"relation nodes nest more than {ir.MAX_NESTING} "
                       f"levels below the root\n")
        assert len(err) < 300

    @pytest.mark.parametrize("depth", [600, 2000])
    @pytest.mark.parametrize("command, code", [("sentplan", 3),
                                               ("realize", 4)])
    def test_files_too_deep_to_decode_exit_alike(self, depth, command,
                                                 code):
        # Past a few hundred levels the JSON decoders, not validate, meet
        # the depth first; the line still names the bound.
        if command == "sentplan":
            leaf = '{"subject": "sam", "verb": "rest"}'
            text = ('{"entities": {"sam": {"id": "sam", "name": "Sam"}}, '
                    '"root": ' + '{"label": "elaboration", "children": ['
                    * depth + leaf + "]}" * depth + "}")
            flag = "--plan"
        else:
            text = ('[{"clauses": ['
                    + (_CLAUSE_OBJ + ', "condition": ') * depth + _CLAUSE_OBJ
                    + "}" * (depth + 1) + "]}]")
            flag = "--sentences"
        with mock.patch("sys.stdin", fake_stdin(text.encode("utf-8"))):
            got, out, err = run_cli([command, flag, "-"])
        assert (got, out) == (code, "")
        assert err.startswith(f"{command}: <stdin>: ")
        assert err.count("\n") == 1 and len(err) < 200
        assert f"nest more than {ir.MAX_NESTING} levels" in err
        assert "recursion" not in err


_LONG = "x" * 10_000
_DIGITS = "1" * 5001
_POINTS = "1." * 3000 + "1"  # 6,001 characters
# The rule each oversized number literal breaks, the longest literal first.
_NUMBER_RULES = {_POINTS: "a number has at most one point",
                 f"{_DIGITS}.0": "a number must be finite",
                 _DIGITS: ir.DIGITS_RULE}
_WORDS = " ".join(["big"] * 2500)  # 9,999 characters with blanks
_MANY = 10_000  # levels of nesting, or bad entries, in one file
_REST = 'schema s\nnode a emit subject="sam" verb=rest\nnode b end\n'
_SAM_ONLY = '{"entities": {"sam": {"name": "Sam"}}, "records": {%s}}'
_SAM_TABLE = '{"entities": {"sam": {"id": "sam", "name": "Sam"}}, '
_GENERATE = "generate --schema {0}/s.schema --data {0}/d.json"
_SENTPLAN = "sentplan --plan {0}/p.json"
_REALIZE = "realize --sentences {0}/f.json"
_CLAUSE_OBJ = ('{"subject_ref": {"entity": {"id": "sam", "name": "Sam"}}, '
               '"verb": "rest"')
_BATCH = "generate --schema {0}/s.schema --batch {0}"


class TestBoundedFailureLines:
    """Each input kind holding a 10,000-character token, a 5,001-digit
    number where the kind holds numbers, 10,000 levels of nesting or
    10,000 bad entries, and schema text of 10,000 characters with blanks:
    the failure is still one line of under 300 characters that names the
    file."""

    @pytest.mark.parametrize("command, name, text, stage", [
        (_GENERATE, "s.schema", _REST + f"arc a -> {_LONG}\n", "parse"),
        (_GENERATE, "s.schema",
         _REST + f"arc a -> b when gt(r.n, {_DIGITS})\n", "parse"),
        (_GENERATE, "s.schema",
         _REST + f"arc a -> b when gt(r.n, {_DIGITS}.0)\n", "parse"),
        (_GENERATE, "s.schema",
         _REST + f"arc a -> b when gt(r.n, {_POINTS})\n", "parse"),
        (_GENERATE, "s.schema",
         'schema s\nnode a emit subject="sam" subject="ann" verb=rest\n',
         "parse"),
        (_GENERATE, "d.json", _SAM_ONLY % f'"r": "@{_LONG}"', "parse"),
        (_GENERATE, "d.json", _SAM_ONLY % f'"n": {_DIGITS}', "parse"),
        (_GENERATE + " --lexicon {0}/l.txt", "l.txt", f"[{_LONG}]\n",
         "parse"),
        (_SENTPLAN, "p.json", f'{{"root": null, "{_LONG}": 1}}', "sentplan"),
        (_SENTPLAN, "p.json", f'{{"root": {_DIGITS}}}', "sentplan"),
        (_REALIZE, "f.json", f'[{{"clauses": [], "{_LONG}": 1}}]', "realize"),
        (_REALIZE, "f.json", f'[{_DIGITS}]', "realize"),
        (_GENERATE, "s.schema",
         f'schema s\nnode a emit subject="{_WORDS}" verb=rest\n', "traverse"),
        (_GENERATE, "s.schema",
         f'schema s\nnode a emit subject="sam" verb=see '
         f'complement="{_WORDS} @sam"\n', "traverse"),
        # 10,000 levels of nesting.
        (_GENERATE, "d.json",
         _SAM_ONLY % ('"r": ' + "[" * _MANY + "]" * _MANY), "parse"),
        (_GENERATE, "d.json",
         '{"entities": {"sam": ' + '{"name": ' * _MANY + '"Sam"'
         + "}" * _MANY + "}}", "parse"),
        (_SENTPLAN, "p.json",
         _SAM_TABLE + '"root": '
         + '{"label": "elaboration", "children": [' * _MANY
         + '{"subject": "sam", "verb": "rest"}'
         + "]}" * _MANY + "}", "sentplan"),
        (_REALIZE, "f.json",
         '[{"clauses": ['
         + (_CLAUSE_OBJ + ', "condition": ') * _MANY + _CLAUSE_OBJ
         + "}" * (_MANY + 1) + "]}]", "realize"),
        (_GENERATE, "s.schema",
         _REST + "arc a -> b when " + "not(" * _MANY + "exists(r.x)"
         + ")" * _MANY + "\n", "parse"),
        # 10,000 bad entries.
        (_GENERATE, "d.json",
         '{"entities": {'
         + ", ".join(f'"e{i}": {{"name": " "}}' for i in range(_MANY))
         + "}}", "parse"),
        (_SENTPLAN, "p.json",
         _SAM_TABLE + '"root": {"label": "sequence", "children": ['
         + ", ".join(['{"subject": "sam", "verb": "Go"}']
                     * _MANY) + "]}}", "sentplan"),
        (_REALIZE, "f.json",
         "[" + ", ".join(['{"clauses": []}'] * _MANY) + "]", "realize"),
        (_GENERATE + " --lexicon {0}/l.txt", "l.txt",
         "[verbs]\n" + "go\tfourth\tsingular\tpresent\tgoes\n" * _MANY,
         "parse"),
        # A \u escape of half a surrogate pair, which no UTF-8 text holds.
        (_GENERATE, "d.json", _SAM_ONLY.replace("Sam", "Sam\\ud800") % "",
         "parse"),
        (_BATCH, "d.json", _SAM_ONLY % '"x": "ho\\udc80me"', "parse"),
        (_SENTPLAN, "p.json",
         _SAM_TABLE + '"root": {"subject": "sam", "verb": "rest", '
         '"adverb": "\\uDBFF"}}', "sentplan"),
        (_REALIZE, "f.json",
         '[{"clauses": [' + _CLAUSE_OBJ
         + ', "discourse_markers": ["\\ude00\\ud83d"]}]}]', "realize"),
    ], ids=["schema-token", "schema-number", "schema-float", "schema-points",
            "schema-field-twice", "data-token",
            "data-number", "lexicon-token", "plan-token", "plan-number",
            "sentences-token", "sentences-number", "schema-subject-words",
            "schema-complement-words", "data-records-deep",
            "data-entity-deep", "plan-deep", "sentences-conditions-deep",
            "schema-guard-deep", "data-entities-bad", "plan-messages-bad",
            "sentences-bad", "lexicon-rows-bad", "data-lone-surrogate",
            "batch-lone-surrogate", "plan-lone-surrogate",
            "sentences-lone-surrogate"])
    def test_one_short_line(self, tmp_path, command, name, text, stage):
        (tmp_path / "s.schema").write_text(_REST, encoding="utf-8")
        (tmp_path / "d.json").write_text(_SAM_ONLY % "", encoding="utf-8")
        (tmp_path / name).write_text(text, encoding="utf-8")
        code, out, err = run_cli(command.format(tmp_path).split())
        assert (code, out) == (cli.STAGE_CODES[stage], "")
        # A traversal failure names the data file it was working on.
        named = "d.json" if stage == "traverse" else name
        assert err.startswith(f"{stage}: {tmp_path / named}: ")
        assert err.count("\n") == 1 and len(err) < 300
        assert "Traceback" not in err
        # A number past a size rule gets nlgen's message for that rule on
        # every interpreter, not the interpreter's own or none at all, and
        # the line never repeats the number.
        broken = next((rule for literal, rule in _NUMBER_RULES.items()
                       if literal in text), None)
        for rule in _NUMBER_RULES.values():
            assert (rule in err) == (rule == broken), rule
        for echo in ("1" * 8, "1.1.1.1", "set_int_max_str_digits"):
            assert echo not in err
        # A lone surrogate is named by its rule, and never written out.
        assert ("lone surrogate" in err) == ("\\u" in text)
        assert "\\ud" not in err.lower()


def _sentence_plan_obj(doc) -> list:
    plans = plan_sentences(traverse(doc.schema, doc.data), "fluent")
    return json.loads(ir.sentence_plans_to_json(plans))


def _entities(value, entity_id: str) -> list[dict]:
    """Each entity object with id ``entity_id`` that a reference in a
    parsed sentence-plans file holds, in file order."""
    found = []
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, v in items:
        if key == "entity" and v["id"] == entity_id:
            found.append(v)
        elif isinstance(v, (dict, list)):
            found += _entities(v, entity_id)
    return found


_DELETE = object()
_CLAUSE = (0, "clauses", 0)
# Sam, as the patient_report file holds him at each reference.
_SAM_JSON = {"gender": "masculine", "id": "sam", "name": "Sam"}
_EVERY_SAM = object()  # a path through each reference's Sam


class TestBadSentencePlans:
    # (path inside the file, new value, expected message part)
    @pytest.mark.parametrize("path, value, detail", [
        ((0, "terminal_punct"), "period",
         "sentences[0]: unknown field 'terminal_punct'"),
        ((_EVERY_SAM, "person"), "fourth",
         "sentences[0].clauses[0].subject_ref.entity.person: unknown value "
         "'fourth'"),
        (_CLAUSE + ("tense",), "pluperfect",
         "sentences[0].clauses[0].tense: unknown value 'pluperfect'"),
        ((_EVERY_SAM, "gender"), "other",
         "sentences[0].clauses[0].subject_ref.entity.gender: unknown value "
         "'other'"),
        (_CLAUSE + ("subject_ref", "case"), "genitive",
         "sentences[0].clauses[0].subject_ref: unknown field 'case'"),
        (_CLAUSE + ("mood",), "indicative",
         "sentences[0].clauses[0]: unknown field 'mood'"),
        (_CLAUSE + ("verb",), _DELETE,
         "sentences[0].clauses[0]: missing field 'verb'"),
        (_CLAUSE + ("subject_ref",), [],
         "subject_ref: expected an object, got an array"),
        # The last sentence: emptying an earlier one would leave numbers
        # in later sentences naming values it declared.
        ((2, "clauses"), [],
         "sentences[2]: sentence has no clauses"),
        (_CLAUSE + ("discourse_markers",), [""],
         "sentences[0].clauses[0]: blank discourse marker"),
        (_CLAUSE + ("condition",), {
            "subject_ref": {"entity": _SAM_JSON},
            "verb": "rest", "discourse_markers": ["also", " "]},
         "sentences[0].clauses[0].condition: blank discourse marker"),
        (_CLAUSE + ("condition",), {
            "subject_ref": {"entity": _SAM_JSON}, "verb": "go",
            "modal": "can",
            "tense": "future"},
         "sentences[0].clauses[0].condition: a modal takes present tense"),
        # The document-plan rules, applied to sentence plans.
        (_CLAUSE + ("verb",), "go.to",
         "sentences[0].clauses[0]: verb lemma must be one lowercase "
         "alphabetic word"),
        (_CLAUSE + ("complements", 0, 0, "phrase", "premodifiers"), [" "],
         "sentences[0].clauses[0].complements[0][0].phrase: blank word in "
         "complement"),
        ((_EVERY_SAM, "name"), " ",
         "entities[sam]: exactly one of name/head must be given, not "
         "blank"),
        # The rules that only sentence plans need.
        (_CLAUSE + ("complements", 0, 0),
         {"phrase": {"head": "@ann"}, "ref": None},
         "sentences[0].clauses[0].complements[0][0]: @ann head has no ref"),
        (_CLAUSE + ("complements", 0, 0),
         {"phrase": {"head": "@ann"}, "ref": {"entity": _SAM_JSON}},
         "sentences[0].clauses[0].complements[0][0].ref: entity 'sam' is "
         "not the one its head names"),
        (_CLAUSE + ("complements", 0), [],
         "sentences[0].clauses[0]: empty unit in a coordination group"),
        (_CLAUSE + ("subject_ref", "mode"), "head-noun",
         "sentences[0].clauses[0].subject_ref.mode: unknown value "
         "'head-noun'"),
        # A reference holds its entity in full, and one id names one
        # entity throughout the file.
        (_CLAUSE + ("subject_ref", "entity"), "x",
         "sentences[0].clauses[0].subject_ref.entity: expected an object, "
         "got a string"),
        (_CLAUSE + ("subject_ref", "entity", "number"), "plural",
         "entity 'sam' is referenced with two different feature sets"),
        (_CLAUSE + ("subject_ref", "entity", "id"), _DELETE,
         "sentences[0].clauses[0].subject_ref.entity: missing field 'id'"),
        (_CLAUSE + ("subject_ref", "entity"), None,
         "sentences[0].clauses[0].subject_ref.entity: expected an object, "
         "got null"),
        # Each clause is named once, at its own path.
        (_CLAUSE, {"subject_ref": {"entity": _SAM_JSON}, "verb": "rest",
                   "discourse_markers": [" "],
                   "condition": {"subject_ref": {"entity": _SAM_JSON},
                                 "verb": "rest", "discourse_markers": [""]}},
         "sentences[0].clauses[0]: blank discourse marker; "
         "sentences[0].clauses[0].condition: blank discourse marker\n"),
        # An honorific is written only before a name.
        ((_EVERY_SAM, "honorific"), "  ",
         "entities[sam]: an honorific needs a name and may not be blank"),
    ])
    def test_realize_rejects_with_exit_4(self, corpus, tmp_path, path,
                                         value, detail):
        obj = _sentence_plan_obj(get(corpus, "patient_report"))
        *parents, last = path
        targets = [obj]
        if parents[0] is _EVERY_SAM:
            targets, parents = _entities(obj, "sam"), parents[1:]
        for key in parents:
            targets = [target[key] for target in targets]
        for target in targets:
            if value is _DELETE:
                del target[last]
            else:
                target[last] = value
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run_cli(["realize", "--sentences", str(f)])
        assert (code, out) == (4, "")
        assert err.startswith("realize:")
        assert err.count("\n") == 1
        assert detail in err

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_one_mutated_scalar_never_raises(self, corpus, data):
        obj = _sentence_plan_obj(get(corpus, "patient_report"))
        container, key = data.draw(st.sampled_from(_scalar_slots(obj)))
        container[key] = data.draw(_SCALARS)
        with mock.patch("sys.stdin",
                        fake_stdin(json.dumps(obj).encode("utf-8"))):
            code, _, err = run_cli(["realize", "--sentences", "-"])
        assert code in (0, 4)
        assert code == 0 or err.startswith("realize:")


class TestBadDocumentPlans:
    _LEAF = {"subject": "sam", "verb": "rest"}

    @staticmethod
    def _sentplan(root, sam=_SAM["sam"]) -> tuple[int, str, str]:
        obj = {"entities": {"sam": {"id": "sam", **sam}}, "root": root}
        with mock.patch("sys.stdin",
                        fake_stdin(json.dumps(obj).encode("utf-8"))):
            return run_cli(["sentplan", "--plan", "-"])

    @pytest.mark.parametrize("root, detail", [
        # An object with children is a relation node, which has no subject.
        ({**_LEAF, "children": [_LEAF]}, "root: unknown field 'subject'"),
        ({"subject": "sam", "verb": "see",
          "complements": [{"head": "@ghost"}]},
         "root.complements[0]: referential integrity: unknown "
         "entity 'ghost'"),
    ])
    def test_invalid_plan_exits_3(self, root, detail):
        code, out, err = self._sentplan(root)
        assert (code, out) == (3, "")
        assert err == f"sentplan: <stdin>: {detail}\n"

    def test_honorific_without_a_name_exits_3(self):
        code, out, err = self._sentplan(self._LEAF,
                                        {"head": "man", "honorific": "Dr."})
        assert (code, out) == (3, "")
        assert err == ("sentplan: <stdin>: entities[sam]: an honorific "
                       "needs a name and may not be blank\n")

    def test_leaf_root_is_one_sentence(self):
        code, out, err = self._sentplan(self._LEAF)
        assert (code, err) == (0, "")
        plans = ir.sentence_plans_from_json(out)
        assert [c.verb for sp in plans for c in sp.clauses] == ["rest"]

    def test_a_plan_file_with_wrapped_leaves_exits_3(self):
        # Plan files once wrapped each leaf as {"message": ...}.  A leaf is
        # its message now, so such a file is refused at its first leaf.
        old = DATA_DIR / "sam_pair.wrapped.plan.json"
        assert '{"message":' in old.read_text(encoding="utf-8")
        assert run_cli(["sentplan", "--plan", str(old)]) == (
            3, "", f"sentplan: {old}: root.children[0]: unknown field "
                   f"'message'\n")

    def test_null_root_is_no_sentences(self):
        code, out, err = self._sentplan(None)
        assert (code, err) == (0, "")
        assert out == "[]\n"

    def test_many_problems_name_three_and_a_count(self):
        leaf = {"subject": "sam", "verb": "rest", "adverb": " "}
        obj = {"entities": {"sam": {"id": "sam", "name": "Sam"}},
               "root": {"label": "sequence", "children": [leaf] * 20}}
        with mock.patch("sys.stdin",
                        fake_stdin(json.dumps(obj).encode("utf-8"))):
            code, out, err = run_cli(["sentplan", "--plan", "-"])
        assert (code, out) == (3, "")
        assert err == ("sentplan: <stdin>: "
                       "root.children[0]: blank adverb; "
                       "root.children[1]: blank adverb; "
                       "root.children[2]: blank adverb; "
                       "and 17 more\n")

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_one_mutated_scalar_never_raises(self, corpus, data):
        doc = get(corpus, "patient_report")
        obj = json.loads(ir.document_plan_to_json(
            traverse(doc.schema, doc.data)))
        container, key = data.draw(st.sampled_from(_scalar_slots(obj)))
        container[key] = data.draw(_SCALARS)
        with mock.patch("sys.stdin",
                        fake_stdin(json.dumps(obj).encode("utf-8"))):
            code, _, err = run_cli(["sentplan", "--plan", "-"])
        assert code in (0, 3)
        assert code == 0 or err.startswith("sentplan:")


def _scalar_slots(value) -> list[tuple]:
    """(container, key) for every scalar inside a parsed JSON value."""
    slots = []
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, v in items:
        if isinstance(v, (dict, list)):
            slots += _scalar_slots(v)
        else:
            slots.append((value, key))
    return slots


# Every member of every enum domain in ir, plus the lexicon's extra case.
_DOMAIN_WORDS = sorted({"reflexive"} | {
    word for alias in vars(ir).values() if get_origin(alias) is Literal
    for word in get_args(alias)})
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(allow_nan=False), st.text(max_size=8),
                     st.sampled_from(_DOMAIN_WORDS))


class TestBadDataFiles:
    def test_entity_person_out_of_domain_exits_1(self, corpus, tmp_path):
        doc = get(corpus, "sam_pair")
        payload = json.loads(doc.data_path.read_text(encoding="utf-8"))
        payload["entities"]["sam"]["person"] = "fourth"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli([
            "generate", "--schema", str(doc.schema_path),
            "--data", str(bad)])
        assert (code, out) == (1, "")
        assert err.startswith("parse:")
        assert err.count("\n") == 1
        assert "entities[sam].person: unknown value 'fourth'" in err

    @pytest.mark.parametrize("doc", [{"head": "doctor", "honorific": "Dr."},
                                     {"name": "Doc", "honorific": "  "}])
    def test_honorific_needs_a_name_exits_1(self, tmp_path, doc):
        # The realizer writes an honorific only before a name; "the
        # doctor" would drop it without a word.
        code, out, err = _run_one(
            tmp_path, "generate",
            'schema s\nnode a emit subject="doc" verb=see complement="@sam"\n',
            {"entities": {"doc": doc, **_SAM}, "records": {}})
        assert (code, out) == (1, "")
        assert err == (f"parse: {tmp_path / 'd.json'}: entities[doc]: an "
                       f"honorific needs a name and may not be blank\n")

    def test_batch_failure_names_the_data_file(self, corpus, tmp_path,
                                               monkeypatch):
        doc = get(corpus, "sam_pair")
        batch = tmp_path / "batch"
        batch.mkdir()
        good = doc.data_path.read_text(encoding="utf-8")
        (batch / "p0.json").write_text(good, encoding="utf-8")
        # Entities but no records: the schema's paths do not resolve.
        (batch / "p1.json").write_text(
            json.dumps({"entities": json.loads(good)["entities"],
                        "records": {}}), encoding="utf-8")
        (batch / "p2.json").write_text(good, encoding="utf-8")
        parses = []
        parse = schema.parse_schema
        monkeypatch.setattr(schema, "parse_schema",
                            lambda text: parses.append(1) or parse(text))
        code, out, err = run_cli([
            "generate", "--schema", str(doc.schema_path),
            "--batch", str(batch)])
        assert (code, out) == (2, "")
        assert err.startswith("traverse:")
        assert err.count("\n") == 1
        assert str(batch / "p1.json") in err
        assert len(parses) == 1
        assert (batch / "p0.txt").read_text(encoding="utf-8") == \
            doc.golden("fluent")
        assert not (batch / "p2.txt").exists()

    def test_undecodable_schema_file_exits_5(self, corpus, tmp_path):
        doc = get(corpus, "sam_pair")
        bad = tmp_path / "bad.schema"
        bad.write_bytes(b"schema s\n\xff\n")
        code, out, err = run_cli([
            "generate", "--schema", str(bad), "--data", str(doc.data_path)])
        assert (code, out) == (5, "")
        assert err.startswith(f"io: cannot read {bad}: 'utf-8' codec "
                              f"can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_undecodable_stdin_exits_5(self):
        with mock.patch("sys.stdin", fake_stdin(b'{"root": "\xff"}')):
            code, out, err = run_cli(["sentplan", "--plan", "-"])
        assert (code, out) == (5, "")
        assert err.startswith("io: cannot read -: 'utf-8' codec")
        assert err.count("\n") == 1

    def test_surrogate_pair_escape_is_one_character(self, tmp_path):
        # json.dumps writes the emoji as the escaped pair "\ud83d\ude00".
        data = {"entities": {"sam": {"name": "Sam \U0001F600"}},
                "records": {}}
        assert "\\ud83d\\ude00" in json.dumps(data)
        direct, piped = _staged(
            tmp_path, 'schema s\nnode a emit subject="sam" verb=rest\n', data)
        assert direct == piped == "Sam \U0001F600 rests.\n"

    def test_oversized_integer_exits_1(self, tmp_path):
        # Past ir.MAX_DIGITS digits the decoder refuses an integer before
        # converting it, on every interpreter, with nlgen's own message.
        data_file = tmp_path / "d.json"
        data_file.write_text('{"entities": {"sam": {"name": "Sam"}}, '
                             '"records": {"n": ' + "1" * 5001 + "}}",
                             encoding="utf-8")
        schema_file = tmp_path / "s.schema"
        schema_file.write_text('schema s\nnode a emit subject="sam" '
                               'verb=rest\n', encoding="utf-8")
        code, out, err = run_cli(["generate", "--schema", str(schema_file),
                                  "--data", str(data_file)])
        assert (code, out) == (1, "")
        assert err == (f"parse: {data_file}: malformed data file: "
                       f"{ir.DIGITS_RULE}\n")

    @staticmethod
    def _generate(tmp_path, text: str) -> tuple[int, str, str]:
        data_file = tmp_path / "d.json"
        data_file.write_text(text, encoding="utf-8")
        schema_file = tmp_path / "s.schema"
        schema_file.write_text('schema s\nnode a emit subject="sam" '
                               'verb=rest\n', encoding="utf-8")
        return run_cli(["generate", "--schema", str(schema_file),
                        "--data", str(data_file)])

    @pytest.mark.parametrize("text, detail", [
        ("[]", "expected an object, got an array"),
        ('{"entities": {}, "records": []}',
         "records: expected an object, got an array"),
        ('{"entities": {}, "extra": {}}', "unknown field 'extra'"),
    ])
    def test_wrong_shape_exits_1(self, tmp_path, text, detail):
        code, out, err = self._generate(tmp_path, text)
        assert (code, out) == (1, "")
        assert err == f"parse: {tmp_path / 'd.json'}: {detail}\n"

    @staticmethod
    def _nested(levels: int) -> str:
        """A data file whose JSON values nest ``levels`` deep, counting
        its top-level object and the records object."""
        lists = levels - 2
        return ('{"entities": {"sam": {"name": "Sam"}}, "records": {"r": '
                + "[" * lists + '"@sam"' + "]" * lists + "}}")

    @pytest.mark.parametrize("levels", [ir.MAX_NESTING - 50, ir.MAX_NESTING])
    def test_records_at_the_bound_generate(self, tmp_path, levels):
        assert self._generate(tmp_path, self._nested(levels)) == \
            (0, "Sam rests.\n", "")

    @pytest.mark.parametrize("depth", [ir.MAX_NESTING + 1, 150, 900, 985,
                                       990])
    def test_deeply_nested_records_never_raise(self, tmp_path, depth):
        # Past the bound the line is the same, whether the bound on record
        # nesting or, on a file deep enough, json.loads meets it first.
        code, out, err = self._generate(tmp_path, self._nested(depth))
        assert (code, out) == (1, "")
        assert err == (f"parse: {tmp_path / 'd.json'}: malformed data file: "
                       f"JSON values nest more than {ir.MAX_NESTING} "
                       f"levels\n")
