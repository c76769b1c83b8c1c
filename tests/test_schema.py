import dataclasses
import enum
import json
import random
import re
import time
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlgen
from nlgen import ir, schema
from nlgen.errors import (
    DataError,
    NlgenError,
    SchemaParseError,
    TraversalError,
)

import oracle


def get(corpus, name):
    return next(d for d in corpus if d.name == name)


# Values only records built by hand hold: subclasses of the JSON scalar
# types whose own str() and repr() must never reach the text.
class _Text(str):
    def __str__(self):
        return "Text!"

    __repr__ = __str__


class _Real(float):
    def __str__(self):
        return "Real!"

    __repr__ = __str__


def _liar(base):
    """A subclass of ``base`` whose comparisons all hold and whose text,
    int and float lie: a guard or template that called its own methods
    would read something else than its base value."""
    def holds(self, other):
        return True

    def lie(self, *args):
        return "Liar!"

    return type(f"Liar{base.__name__.title()}", (base,), {
        "__eq__": holds, "__ne__": holds, "__gt__": holds, "__lt__": holds,
        "__hash__": base.__hash__, "__str__": lie, "__repr__": lie,
        "__format__": lie, "__int__": lambda self: 99,
        "__float__": lambda self: 99.0, "strip": lie, "split": lie})


_LIARS = {base: _liar(base) for base in (str, int, float)}


class _Color(enum.IntEnum):
    RED = 1


class _Mood(str, enum.Enum):
    ILL = "ill"


# Propositions of the patient_report demo, enumerated by hand from the
# schema file and the data values before traverse existed.
BP = ("sam", "have",
      (("noun-phrase", "none", ("blood", "high"), "pressure", "none"),),
      "present", "none", "positive", None)
SUGAR = ("sam", "have",
         (("noun-phrase", "none", ("blood", "low"), "sugar", "none"),),
         "present", "none", "positive", None)
ADVICE = ("sam", "go",
          (("prepositional-phrase", "the", (), "store", "to"),),
          "present", "should", "positive",
          ("sam", "go",
           (("prepositional-phrase", "the", (), "hospital", "to"),),
           "present", "none", "positive"))
FOLLOWUP = ("sam", "see",
            (("entity-reference", "none", (), "@mrs_black", "none"),),
            "present", "should", "positive", None)


class TestParse:
    def test_demo_fixture_shape(self, corpus):
        doc = get(corpus, "patient_report")
        assert doc.schema.name == "patient_report"
        assert doc.schema.entry == "start"
        assert len(doc.schema.nodes) == 5
        assert set(doc.schema.schema_set) == {"patient_report", "findings"}

    def test_empty_file(self):
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema("")
        assert "expected schema header" in str(info.value)

    def test_statement_before_header(self):
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema("node a end\n")
        assert "expected schema header" in str(info.value)

    def test_unresolved_arc_endpoint(self):
        src = "schema s\nnode a end\narc a -> x\n"
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema(src)
        assert "'x'" in str(info.value)

    def test_duplicate_node_id(self):
        src = "schema s\nnode a end\nnode a end\n"
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema(src)
        assert "duplicate node id" in str(info.value)

    def test_multiple_unguarded_arcs(self):
        src = ("schema s\n"
               "node a emit subject=\"sam\" verb=rest\n"
               "node b end\nnode c end\n"
               "arc a -> b\narc a -> c\n")
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema(src)
        assert "unguarded" in str(info.value)

    def test_end_node_with_outgoing_arc(self):
        src = "schema s\nnode a end\nnode b end\narc a -> b\n"
        with pytest.raises(SchemaParseError):
            schema.parse_schema(src)

    def test_unterminated_string_names_position(self):
        src = "schema s\nnode a emit subject=\"sam verb=rest\n"
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema(src)
        assert info.value.line == 2
        assert "lexical error" in str(info.value)

    def test_illegal_character(self):
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema("schema s\nnode a %\n")
        assert "lexical error" in str(info.value)

    def test_unknown_relation_label(self):
        src = ("schema s\nnode a end\nnode b end\n"
               "arc a -> b rel cause\n")
        with pytest.raises(SchemaParseError):
            schema.parse_schema(src)

    def test_call_target_must_exist(self):
        src = "schema s\nnode a call missing\n"
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema(src)
        assert "missing" in str(info.value)

    def test_condition_target_must_be_emit(self):
        src = ("schema s\n"
               "node a emit subject=\"sam\" verb=go condition=b\n"
               "node b end\n")
        with pytest.raises(SchemaParseError):
            schema.parse_schema(src)

    def test_condition_may_not_nest(self):
        src = ("schema s\n"
               "node a emit subject=\"sam\" verb=go condition=b\n"
               "node b emit subject=\"sam\" verb=go condition=c\n"
               "node c emit subject=\"sam\" verb=go\n")
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema(src)
        assert "one level" in str(info.value)

    # Lines 1-4 are valid; each case appends statements from line 5 on.
    _CHECKED = ("schema s\n"
                'node a emit subject="sam" verb=rest\n'
                'node b emit subject="sam" verb=rest condition=a\n'
                "node z end\n")

    @pytest.mark.parametrize("extra, position, detail", [
        ("schema t\n", "line 5, column 8", "no nodes are declared"),
        ("arc a -> b\narc b -> ghost\n", "line 6, column 10",
         "arc endpoint 'ghost' is not a declared node"),
        ("arc ghost -> a\n", "line 5, column 5",
         "arc endpoint 'ghost' is not a declared node"),
        ("arc z -> a\n", "line 5, column 5",
         "end node 'z' has an outgoing arc"),
        ("arc a -> b\narc a -> z when exists(r.x)\narc a -> z\n",
         "line 7, column 5", "node 'a' has more than one unguarded arc"),
        ("node c call t\n", "line 5, column 13",
         "call target 't' is not a declared schema"),
        ('node c emit subject="sam" verb=rest condition=ghost\n',
         "line 5, column 47",
         "condition node 'ghost' is not a declared node"),
        ('node c emit subject="sam" verb=rest condition=z\n',
         "line 5, column 47", "condition node 'z' must be an emit node"),
        ('node c emit subject="sam" verb=rest condition=b\n',
         "line 5, column 47", "condition node 'b' has a condition of its "
         "own; conditions nest one level only"),
    ])
    def test_cross_statement_error_names_its_statement(self, extra,
                                                       position, detail):
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema(self._CHECKED + extra)
        assert str(info.value) == f"{position}: {detail}"

    # Every statement-level error, with the full message; each case
    # appends one or two lines to the valid lines 1-3 of _HEAD.
    _HEAD = ('schema s\nnode a emit subject="sam" verb=rest\nnode b end\n')

    @pytest.mark.parametrize("extra, message", [
        ("arc a -> b when maybe(r.x)\n",
         "line 4, column 17: unknown condition operator 'maybe'"),
        ("arc a -> b when and(exists(r.x))\n",
         "line 4, column 17: and(...) needs at least two arguments"),
        ("arc a -> b when eq(r.x,\n", "line 4, column 24: expected a literal"),
        # At the end of a line the column is just past its last token,
        # however long, and a comment after that token changes nothing.
        ("arc a -> b when\n", "line 4, column 16: expected 'ident'"),
        ("arc a -> b when # gt(r.x, 1)\n",
         "line 4, column 16: expected 'ident'"),
        ("arc a ->\n", "line 4, column 9: expected 'ident'"),
        ("node cc\n", "line 4, column 8: expected 'ident'"),
        ("arc a -> b when gt(r.xyz\n", "line 4, column 25: expected ','"),
        ('arc a -> b when gt(r.x, "a")\n',
         "line 4, column 25: expected a number"),
        ("arc a -> b when eq(r.x, foo)\n",
         "line 4, column 25: expected a string, number, or true/false"),
        ('node c emit subject="sam" verb=rest mood=negative\n',
         "line 4, column 37: unknown emit field 'mood'"),
        ("schema t u\n", "line 4, column 10: unexpected text after schema "
         "name"),
        ("node c call s extra\n",
         "line 4, column 15: unexpected text after call target"),
        ("node c end now\n", "line 4, column 12: unexpected text after end"),
        ("schema s\nnode a end\n", "line 4, column 1: duplicate schema 's'"),
        ("node c jump\n", "line 4, column 1: unknown node kind 'jump' "
         "(expected emit, call, or end)"),
        ("arc a -> b if exists(r.x)\n",
         "line 4, column 12: expected 'when' or 'rel', got 'if'"),
        ("edge a -> b\n", "line 4, column 1: expected 'schema', 'node', or "
         "'arc', got 'edge'"),
        # A literal of digits and points with more than one point is
        # refused by a rule, whatever its length, without its text.
        ("arc a -> b when eq(r.x, 1.2.3)\n",
         "line 4, column 25: lexical error: a number has at most one point"),
        ("arc a -> b when gt(r.x, " + "1." * 3000 + "1)\n",
         "line 4, column 25: lexical error: a number has at most one point"),
        # A float literal too large to hold is not read as infinity,
        # and the message does not repeat its digits.
        ("arc a -> b when gt(r.x, -" + "9" * 400 + ".0)\n",
         "line 4, column 25: lexical error: a number must be finite"),
        ("arc a -> b when gt(r.x, " + "1" * 5001 + ".0)\n",
         "line 4, column 25: lexical error: a number must be finite"),
        # An integer past the size rule is refused before it is read,
        # and the message does not repeat its digits.
        ("arc a -> b when gt(r.x, " + "1" * 5001 + ")\n",
         f"line 4, column 25: lexical error: {ir.DIGITS_RULE}"),
        ("arc a -> b when eq(r.x, -" + "9" * 4301 + ")\n",
         f"line 4, column 25: lexical error: {ir.DIGITS_RULE}"),
        # A field or clause is given once; the second key is named.
        ('node c emit subject="sam" subject="ann" verb=see verb=rest\n',
         "line 4, column 27: duplicate field 'subject'"),
        ('node c emit subject="sam" verb=see complement="@ann" '
         'complement="a dog"\n',
         "line 4, column 54: duplicate field 'complement'"),
        ('node c emit subject="sam" verb=go modal=can modal=must\n',
         "line 4, column 45: duplicate field 'modal'"),
        ("arc a -> b when exists(r.x) rel contrast rel elaboration "
         "when exists(r.y)\n", "line 4, column 42: duplicate field 'rel'"),
        ("arc a -> b rel contrast when exists(r.x) when exists(r.y)\n",
         "line 4, column 42: duplicate field 'when'"),
        ("node c emit verb=rest subject=\n",
         "line 4, column 31: expected a quoted literal or path(...)"),
        ("node c emit subject=sam verb=rest\n",
         "line 4, column 21: expected a quoted literal or path(...)"),
        # The later of the two fields is named.
        ('node c emit subject="sam" verb=go modal=can tense=past\n',
         "line 4, column 45: a modal takes present tense"),
        ('node c emit subject="sam" tense=future verb=go modal=must\n',
         "line 4, column 48: a modal takes present tense"),
    ])
    def test_statement_error_message(self, extra, message):
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema(self._HEAD + extra)
        assert str(info.value) == message

    def test_integer_literal_at_the_digit_bound_parses(self):
        parsed = schema.parse_schema(
            self._HEAD + "arc a -> b when eq(r.x, -" + "9" * ir.MAX_DIGITS
            + ")\n")
        assert parsed.arcs["a"][0].guard.value == 1 - ir.INT_BOUND

    def test_quoted_comma_is_a_string_not_a_comma(self):
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema(
                self._HEAD + 'node c emit subject="sam" verb=rest '
                'complement="x" ","\n')
        assert str(info.value) == "line 4, column 52: expected 'ident'"

    def test_emit_requires_subject_and_verb(self):
        with pytest.raises(SchemaParseError):
            schema.parse_schema("schema s\nnode a emit verb=rest\n")
        with pytest.raises(SchemaParseError):
            schema.parse_schema("schema s\nnode a emit subject=\"x\"\n")

    @pytest.mark.parametrize("verb", ["Has", '""', '"Go"', "go.to",
                                      '"go home"', '"9"'])
    def test_bad_verb_lemma_names_position(self, verb):
        src = f"schema s\nnode a emit subject=\"x\" verb={verb}\n"
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema(src)
        # Column 30 is where the value after "verb=" starts.
        assert str(info.value).startswith("line 2, column 30: ")
        assert "verb lemma" in str(info.value)

    def test_unknown_tense_and_modal(self):
        with pytest.raises(SchemaParseError):
            schema.parse_schema(
                "schema s\nnode a emit subject=\"x\" verb=go tense=soon\n")
        with pytest.raises(SchemaParseError):
            schema.parse_schema(
                "schema s\nnode a emit subject=\"x\" verb=go modal=might\n")

    def test_entry_is_first_declared_node(self):
        parsed = schema.parse_schema(
            "schema s\nnode z end\nnode a end\n")
        assert parsed.entry == "z"

    def test_indexes_keep_declaration_order(self):
        parsed = schema.parse_schema(
            "schema s\n"
            "node a emit subject=\"sam\" verb=rest\n"
            "node b emit subject=\"sam\" verb=rest\n"
            "node c end\n"
            "arc a -> c when exists(r.x)\n"
            "arc b -> c\n"
            "arc a -> b rel contrast\n")
        assert list(parsed.nodes) == ["a", "b", "c"]
        # Each node's outgoing arcs, in declaration order; an end node
        # has none.
        assert [(arc.src, arc.dst, arc.rel)
                for arcs in parsed.arcs.values() for arc in arcs] == [
            ("a", "c", "sequence"), ("a", "b", "contrast"),
            ("b", "c", "sequence")]
        assert "c" not in parsed.arcs
        # Equality ignores the order of the dicts' keys, but not the
        # order of a node's arcs, nor which node is the entry.
        rebuilt = schema.SchemaDef(
            name="s", entry="a",
            nodes=dict(reversed(parsed.nodes.items())),
            arcs=dict(reversed(parsed.arcs.items())))
        assert rebuilt == parsed
        assert dataclasses.replace(parsed, entry="b") != parsed
        assert dataclasses.replace(
            parsed, arcs={**parsed.arcs, "a": parsed.arcs["a"][::-1]}) \
            != parsed

    def test_node_is_what_its_statement_says(self):
        parsed = schema.parse_schema(
            "schema s\n"
            "node a emit subject=\"sam\" verb=rest\n"
            "node b call t\n"
            "node c end\n"
            "arc b -> c\n"
            "arc a -> b when exists(r.x)\n"
            "arc a -> c rel contrast\n"
            "schema t\n"
            "node d end\n")
        # An emit node is its template, a call node its callee's name and
        # an end node None.
        assert parsed.nodes == {
            "a": schema.MessageTemplate(subject="sam", verb="rest"),
            "b": "t", "c": None}
        # Arcs are grouped by source as they are parsed, each group in
        # declaration order.
        assert parsed.arcs == {
            "b": [schema.Arc("b", "c")],
            "a": [schema.Arc("a", "b", schema.Condition("exists", "r.x")),
                  schema.Arc("a", "c", rel="contrast")]}
        assert list(parsed.arcs) == ["b", "a"]
        assert parsed.schema_set["t"].nodes == {"d": None}
        assert parsed.schema_set["t"].arcs == {}

    def test_guard_nesting_bound(self):
        def source(operators):
            guard = ("not(" * (operators - 1) + "exists(r.x)"
                     + ")" * (operators - 1))
            return ("schema s\nnode a emit subject=\"sam\" verb=rest\n"
                    f"node b end\narc a -> b when {guard}\n")

        parsed = schema.parse_schema(source(ir.MAX_NESTING))
        assert oracle.print_schema(parsed) == source(ir.MAX_NESTING)
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema(source(ir.MAX_NESTING + 1))
        assert (info.value.line, info.value.column) == \
            (4, len("arc a -> b when ") + 4 * ir.MAX_NESTING + 1)
        assert f"guard nests deeper than {ir.MAX_NESTING} levels" in \
            str(info.value)

    def test_string_escapes(self):
        parsed = schema.parse_schema(
            'schema s\nnode a emit subject="sam" verb=say '
            'complement="a \\"quoted\\" word"\n')
        template = parsed.nodes["a"]
        assert template.complements == ('a "quoted" word',)


class TestRoundTrip:
    def test_corpus_schemas(self, corpus):
        for doc in corpus:
            printed = oracle.print_schema(doc.schema)
            reparsed = schema.parse_schema(printed)
            assert dict(reparsed.schema_set) == dict(doc.schema.schema_set)
            assert oracle.print_schema(reparsed) == printed

    def test_guard_and_labels_survive(self):
        src = ("schema s\n"
               "node a emit subject=path(r.id) verb=go modal=must "
               "tense=present adverb=\"just\" complement=\"to the store\", "
               "\"a box\"\n"
               "node b end\n"
               "arc a -> b when or(not(exists(r.x)), gt(r.n, 1.5), "
               "eq(r.s, \"hi\"), eq(r.b, false), lt(r.n, 10), "
               "gt(r.n, 0.0000001), lt(r.n, 100000000000000000000.0), "
               "eq(r.n, 12345678901234567890123.0), eq(r.n, -0.0)) "
               "rel contrast\n")
        once = schema.parse_schema(src)
        printed = oracle.print_schema(once)
        again = schema.parse_schema(printed)
        assert dict(again.schema_set) == dict(once.schema_set)
        # Numbers are written positionally, and a float keeps its point.
        assert "gt(r.n, 0.0000001)" in printed
        assert "lt(r.n, 100000000000000000000.0)" in printed
        guards = again.arcs["a"][0].guard.args
        assert [type(g.value) for g in guards[5:]] == [float] * 4


class TestPolarity:
    _DATA = ('{"entities": {"sam": {"name": "Sam"}, "ann": {"name": "Ann"}},'
             ' "records": {}}')

    @pytest.mark.parametrize("fields, text", [
        ('verb=see polarity=negative complement="@ann"',
         "Sam does not see Ann."),
        ('verb=be polarity=negative complement="ill"', "Sam is not ill."),
        ("verb=go tense=future polarity=negative", "Sam will not go."),
        ('verb=see polarity=positive complement="@ann"', "Sam sees Ann."),
    ])
    def test_negation_from_a_schema(self, fields, text):
        source = f'schema s\nnode a emit subject="sam" {fields}\n'
        parsed = schema.parse_schema(source)
        data = schema.load_data(self._DATA)
        assert nlgen.generate_text(parsed, data) == text
        printed = oracle.print_schema(parsed)
        assert schema.parse_schema(printed) == parsed
        # Only a negative polarity is written out.
        assert ("polarity=" in printed) == ("negative" in fields)

    def test_unknown_polarity(self):
        with pytest.raises(SchemaParseError) as info:
            schema.parse_schema('schema s\nnode a emit subject="sam" '
                                'verb=go polarity=maybe\n')
        assert str(info.value) == \
            "line 2, column 35: unknown polarity 'maybe'"


# Mostly the characters the lexer treats specially and quoted strings
# with escapes, then any printable ASCII, letters and numerals outside
# ASCII (é ß 中, the decimal digit ٣, the non-decimal numerals ² and Ⅳ),
# and blanks that are not " " or tab.
_LEX_CHARS = st.one_of(
    st.sampled_from(list('ab_Z09.-"\\#=(),> \t') + ["->", '\\"', "1.5"]),
    st.lists(st.sampled_from(["a", " ", "\\", '\\"', "\\\\", "#"]),
             max_size=4).map(lambda parts: '"' + "".join(parts) + '"'),
    st.characters(min_codepoint=32, max_codepoint=126),
    st.sampled_from(["é", "ß", "中", "٣", "²", "Ⅳ", " ", " "]))
_LEX_LINES = st.lists(_LEX_CHARS, max_size=24).map("".join)


class TestTokenizer:
    @staticmethod
    def _tokens(tokenize, text):
        """Tokens as (kind, value type, value, column), a symbol's kind
        being its text; or the error message."""
        try:
            toks = tokenize(text, 7)
        except SchemaParseError as exc:
            return str(exc)
        return [(tok.value if tok.kind == "symbol" else tok.kind,
                 type(tok.value), tok.value, tok.col) for tok in toks]

    @settings(max_examples=1000, deadline=None, derandomize=True,
              database=None)
    @given(text=_LEX_LINES)
    def test_matches_the_character_loop(self, text):
        got = self._tokens(schema._tokenize_line, text)
        want = self._tokens(oracle.reference_tokenize_line, text)
        assert type(got) is type(want)  # both accept, or both reject
        # A numeral that is not a decimal digit starts a number in the
        # loop ("bad number '²'") and no token at all in the regex.
        if isinstance(got, list) or "²" not in text:
            assert got == want

    @pytest.mark.parametrize("text, message", [
        ("x = ²", "line 7, column 5: lexical error: unexpected character "
         "'²'"),
        ("x = Ⅳ", "line 7, column 5: lexical error: unexpected character "
         "'Ⅳ'"),
        ('x = "a\\"', "line 7, column 5: lexical error: unterminated string"),
        ("x y", "line 7, column 2: lexical error: unexpected character "
         "'\\xa0'"),
    ])
    def test_lexical_errors(self, text, message):
        with pytest.raises(SchemaParseError) as info:
            schema._tokenize_line(text, 7)
        assert str(info.value) == message

    def test_tokens(self):
        assert schema._tokenize_line(
            'a.b_2 -> é(-1.5, "q\\"\\\\") = 3 # (not "read"', 1) == [
                ("ident", "a.b_2", 1), ("->", "->", 7), ("ident", "é", 10),
                ("(", "(", 11), ("number", -1.5, 12), (",", ",", 16),
                ("string", 'q"\\', 18), (")", ")", 25), ("=", "=", 27),
                ("number", 3, 29)]


class TestEvalCondition:
    def test_exists(self, corpus):
        data = get(corpus, "patient_report").data
        assert schema.eval_condition(
            schema.Condition(op="exists", path="patient.bp"), data)
        assert not schema.eval_condition(
            schema.Condition(op="exists", path="patient.missing"), data)

    def test_gt_on_demo_systolic(self, corpus):
        data = get(corpus, "patient_report").data
        cond = schema.Condition(op="gt", path="patient.bp.systolic",
                                value=140)
        assert schema.eval_condition(cond, data)
        cond = schema.Condition(op="lt", path="patient.bp.systolic",
                                value=140)
        assert not schema.eval_condition(cond, data)

    def test_eq_type_mismatch(self, corpus):
        data = get(corpus, "patient_report").data
        cond = schema.Condition(op="eq", path="patient.id", value=3)
        with pytest.raises(TraversalError, match=re.escape(
                "eq(patient.id, ...): cannot compare a string with a number")):
            schema.eval_condition(cond, data)

    def test_eq_bool_vs_number_mismatch(self, corpus):
        data = get(corpus, "patient_report").data
        cond = schema.Condition(op="eq", path="patient.needs_advice",
                                value=1)
        with pytest.raises(TraversalError, match=re.escape(
                "eq(patient.needs_advice, ...): cannot compare a boolean "
                "with a number")):
            schema.eval_condition(cond, data)

    def test_missing_path_is_error_not_false(self, corpus):
        data = get(corpus, "patient_report").data
        cond = schema.Condition(op="eq", path="patient.missing", value=1)
        with pytest.raises(TraversalError,
                           match="^missing data path: patient.missing$"):
            schema.eval_condition(cond, data)

    def test_gt_on_string_is_type_error(self, corpus):
        data = get(corpus, "patient_report").data
        cond = schema.Condition(op="gt", path="patient.id", value=1)
        with pytest.raises(TraversalError, match=re.escape(
                "gt(patient.id, ...): path value is a string, not a "
                "number")):
            schema.eval_condition(cond, data)

    @pytest.mark.parametrize("wrap", [dict, MappingProxyType])
    def test_any_mapping_reads_as_records(self, wrap):
        # Records are read through the Mapping interface, so a read-only
        # view behaves as the dicts a data file decodes to.
        data = schema.DataRecordSet(
            entities={"sam": ir.Entity(id="sam", name="Sam")},
            records=wrap({"r": wrap({"n": 5, "s": "ill"})}))

        def holds(op, path, value=None):
            return schema.eval_condition(
                schema.Condition(op=op, path=path, value=value), data)

        assert holds("exists", "r.n")
        assert not holds("exists", "r.y")
        assert not holds("exists", "r.n.z")
        assert holds("eq", "r.s", "ill")
        assert not holds("eq", "r.s", "well")
        assert holds("gt", "r.n", 4)
        assert not holds("gt", "r.n", 5)
        template = schema.MessageTemplate(subject="sam", verb="be",
                                          complements=(("r", "s"),))
        assert schema.instantiate_template(template, data).complements == \
            (ir.ComplementPhrase(head="ill"),)
        with pytest.raises(TraversalError, match=r"^missing data path: r\.y$"):
            holds("eq", "r.y", 1)
        with pytest.raises(TraversalError, match=r"^missing data path: r\.y$"):
            schema.instantiate_template(
                dataclasses.replace(template, complements=(("r", "y"),)),
                data)

    def test_boolean_connectives(self, corpus):
        data = get(corpus, "patient_report").data
        t = schema.Condition(op="exists", path="patient.bp")
        f = schema.Condition(op="exists", path="patient.missing")
        AND = schema.Condition(op="and", args=(t, f))
        OR = schema.Condition(op="or", args=(t, f))
        NOT = schema.Condition(op="not", args=(f,))
        assert not schema.eval_condition(AND, data)
        assert schema.eval_condition(OR, data)
        assert schema.eval_condition(NOT, data)


# Two keys and short paths, so that most paths resolve, to a scalar more
# often than not.  Record values and literals share numbers across int,
# float and bool, so that eq(a, 1) meets True and 1.0, and gt meets
# booleans, strings, lists and objects.
_GUARD_KEYS = st.sampled_from(["a", "b"])
_GUARD_PATHS = st.lists(_GUARD_KEYS, min_size=1, max_size=2).map(".".join)
_GUARD_LITERALS = st.one_of(
    st.booleans(), st.integers(0, 2),
    st.sampled_from([0.0, 1.0, 1.5, float("nan")]),
    st.sampled_from(["on", "off", ""]))
_GUARD_VALUES = st.one_of(_GUARD_LITERALS, st.none(),
                          st.lists(_GUARD_LITERALS, max_size=1))
_GUARD_RECORD = st.one_of(
    _GUARD_LITERALS, _GUARD_VALUES,
    st.dictionaries(_GUARD_KEYS, _GUARD_VALUES, min_size=1))
_GUARD_RECORDS = st.fixed_dictionaries({"a": _GUARD_RECORD,
                                        "b": _GUARD_RECORD})
_DIRECT_GUARDS = st.recursive(
    st.one_of(
        st.builds(lambda path: schema.Condition(op="exists", path=path),
                  _GUARD_PATHS),
        st.builds(lambda op, path, value: schema.Condition(
            op=op, path=path, value=value),
            st.sampled_from(["eq", "gt", "lt"]), _GUARD_PATHS,
            _GUARD_LITERALS)),
    lambda inner: st.one_of(
        st.builds(lambda arg: schema.Condition(op="not", args=(arg,)),
                  inner),
        st.builds(lambda op, args: schema.Condition(op=op, args=tuple(args)),
                  st.sampled_from(["and", "or"]),
                  st.lists(inner, min_size=2, max_size=3))),
    max_leaves=6)


def _comparison(op, literal):
    return schema.Condition(op=op, path="r", value=literal)


def _between(literal):
    """gt(r, literal) and lt(r, literal), which no number satisfies."""
    return schema.Condition(op="and", args=(_comparison("gt", literal),
                                            _comparison("lt", literal)))


class TestCompiledGuards:
    """Guards built directly, as TestEvalCondition builds them, are
    compiled on first use; each must behave as the interpreter in
    oracle.reference_eval_condition on every record set, whether it
    returns or raises."""

    @staticmethod
    def _outcome(evaluate, cond, data):
        try:
            result = evaluate(cond, data)
        except Exception as exc:  # compared by class and message
            return type(exc), str(exc)
        return type(result), result

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(cond=_DIRECT_GUARDS,
           tables=st.lists(_GUARD_RECORDS, min_size=1, max_size=4))
    def test_matches_the_interpreter(self, cond, tables):
        # One Condition over several record sets: what the first use
        # compiles must serve every later one.
        for records in tables:
            data = schema.DataRecordSet(entities={}, records=records)
            assert self._outcome(schema.eval_condition, cond, data) == \
                self._outcome(oracle.reference_eval_condition, cond, data)

    def test_every_comparison_type_pair(self):
        # The shortcut for same-typed operands sits on these pairs, which
        # random guards meet only now and then.  Subclass values and
        # literals miss the exact-type test and must still compare as
        # their base types do.
        class Text(str):
            pass

        class Real(float):
            pass

        literals = [True, False, 0, 1, 2, 0.0, 1.0, 1.5, float("nan"),
                    "on", "off", "", None, Text("on"), Text("no"),
                    Real(1.0), Real(2.5)]
        for value in literals + [[], [1], {}, {"b": 1}]:
            data = schema.DataRecordSet(entities={}, records={"a": value})
            for op in ("eq", "gt", "lt"):
                for literal in literals:
                    cond = schema.Condition(op=op, path="a", value=literal)
                    assert self._outcome(schema.eval_condition, cond,
                                         data) == \
                        self._outcome(oracle.reference_eval_condition, cond,
                                      data), (op, value, literal)

    @pytest.mark.parametrize("value, guard, expected", [
        (_LIARS[str]("well"), _comparison("eq", "ill"), False),
        ("well", _comparison("eq", _LIARS[str]("ill")), False),
        (_LIARS[str]("ill"), _comparison("eq", _LIARS[str]("ill")), True),
        (_LIARS[float](5.0), _between(5), False),
        (5, _between(_LIARS[float](5.0)), False),
        (5.0, _comparison("lt", _LIARS[float](5.0)), False),
        (_LIARS[float](6.0), _comparison("gt", _LIARS[float](5.0)), True),
    ], ids=["str-value", "str-literal", "str-both", "float-value",
            "float-literal", "float-literal-reflected", "float-both"])
    def test_subclass_methods_never_decide_a_guard(self, value, guard,
                                                  expected):
        # A subclass value, in the records or as a literal built by hand,
        # is compared as its base value: an __eq__ that always holds, or a
        # float that is both greater and less than 5, changes nothing.
        data = schema.DataRecordSet(records={"r": value})
        assert schema.eval_condition(guard, data) is expected

    @pytest.mark.parametrize("guard, message", [
        (schema.Condition("foo", "r", 5), "unknown condition operator 'foo'"),
        (schema.Condition("not"), "not(...) takes exactly one guard"),
        (schema.Condition("exists"), "exists(...) needs a path"),
        (schema.Condition("gt", "r", "x"),
         "gt(r, ...): literal is a string, not a number"),
        (schema.Condition("eq", "r", [1]),
         "eq(r, ...): literal is an array, not a boolean, string or number"),
        (schema.Condition("not", args=("x",)), "not(...) takes only guards"),
        (schema.Condition("or", args=(_comparison("gt", 0), None)),
         "or(...) takes only guards"),
        (schema.Condition("and"), "and(...) needs at least two arguments"),
        (schema.Condition("or"), "or(...) needs at least two arguments"),
        (schema.Condition("not", args=(schema.Condition("and"),)),
         "and(...) needs at least two arguments"),
        (schema.Condition("and", args=(_comparison("gt", 0),)),
         "and(...) needs at least two arguments"),
        (schema.Condition("or", args=(_comparison("gt", 0),)),
         "or(...) needs at least two arguments"),
    ], ids=["unknown-op", "not-without-argument", "exists-without-path",
            "gt-string", "eq-array", "not-of-a-string", "or-of-none",
            "and-without-arguments", "or-without-arguments",
            "nested-and-without-arguments", "and-of-one-guard",
            "or-of-one-guard"])
    def test_a_guard_the_parser_could_not_build_is_refused(self, guard,
                                                           message):
        # Compiling checks what the parser guarantees before any path is
        # read, so no such guard is true, or fails, by accident.
        data = schema.DataRecordSet(records={"r": 1})
        for evaluate in (schema.eval_condition,
                         oracle.reference_eval_condition):
            with pytest.raises(TraversalError,
                               match=f"^{re.escape(message)}$"):
                evaluate(guard, data)

    def test_a_subclass_mismatch_names_its_base_kind(self):
        data = schema.DataRecordSet(records={"r": _LIARS[str]("ill")})
        cond = schema.Condition(op="eq", path="r", value=1)
        with pytest.raises(TraversalError, match=r"^eq\(r, \.\.\.\): "
                           r"cannot compare a string with a number$"):
            schema.eval_condition(cond, data)
        # A subclass path is named by its base value: the message never
        # calls the subclass's own __format__ or __str__.
        data = schema.DataRecordSet(records={"r": {"x": "s"}})
        for op, path, message in (
                ("eq", "r.y", "missing data path: r.y"),
                ("gt", "r.x", "gt(r.x, ...): path value is a string, not a "
                              "number"),
                ("lt", "r.y", "missing data path: r.y")):
            guard = schema.Condition(op, _LIARS[str](path), 1)
            with pytest.raises(TraversalError,
                               match=f"^{re.escape(message)}$"):
                schema.eval_condition(guard, data)

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(value=st.one_of(st.text(max_size=6), st.integers(),
                           st.floats()),
           op=st.sampled_from(["eq", "gt", "lt", "exists"]),
           literal=st.one_of(_GUARD_LITERALS, st.text(max_size=2),
                             st.integers(-3, 3), st.floats()),
           wrap_literal=st.booleans())
    def test_a_subclass_reads_as_its_base_value(self, value, op, literal,
                                                wrap_literal):
        # Guards and templates give the same result, or the same failure,
        # on a subclass of a JSON scalar as on the scalar itself.
        hostile_literal = _LIARS[type(literal)](literal) \
            if wrap_literal and type(literal) in _LIARS else literal
        sam = {"sam": ir.Entity(id="sam", name="Sam")}
        plain = schema.DataRecordSet(entities=sam, records={"r": value})
        hostile = schema.DataRecordSet(
            entities=sam, records={"r": _LIARS[type(value)](value)})
        assert self._outcome(
            schema.eval_condition,
            schema.Condition(op=op, path="r", value=hostile_literal),
            hostile) == self._outcome(
            schema.eval_condition,
            schema.Condition(op=op, path="r", value=literal), plain)
        template = schema.MessageTemplate(
            subject="sam", verb="see", complements=(("r",),),
            adverb=("r",))
        assert self._outcome(schema.instantiate_template, template,
                             hostile) == \
            self._outcome(schema.instantiate_template, template, plain)

    @staticmethod
    def _nested(levels):
        """A guard ``levels`` operators deep: not, and and or in turn
        around exists(r), each with an argument of its own beside it."""
        guard = schema.Condition("exists", "r")
        for level in range(levels - 1):
            op = ("not", "and", "or")[level % 3]
            side = schema.Condition("exists", "r" if op == "and" else "q")
            guard = schema.Condition(op, args=(guard,) if op == "not"
                                     else (side, guard))
        return guard

    def test_a_hand_built_guard_nests_at_most_the_bound(self):
        # As deep as the parser allows, and no deeper: compiling counts
        # the levels and refuses the guard before it walks past the bound.
        data = schema.DataRecordSet(records={"r": 1})
        message = f"^guard nests deeper than {ir.MAX_NESTING} levels$"
        for levels in (1, 2, 3, ir.MAX_NESTING - 1, ir.MAX_NESTING):
            guard = self._nested(levels)
            assert schema.eval_condition(guard, data) is \
                oracle.reference_eval_condition(guard, data), levels
        for levels in (ir.MAX_NESTING + 1, 2_000):
            for evaluate in (schema.eval_condition,
                             oracle.reference_eval_condition):
                with pytest.raises(TraversalError, match=message):
                    evaluate(self._nested(levels), data)

    def test_a_shared_argument_compiles_once_per_level(self):
        # Built by hand, a guard may use one argument twice at each of 60
        # levels: 2**60 uses, compiled in 61 calls.
        guard = schema.Condition("exists", "r")
        for _ in range(60):
            guard = schema.Condition("or", args=(guard, guard))
        calls = []
        compile_one = schema._compile_condition

        def counted(*args):
            calls.append(args)
            return compile_one(*args)

        with mock.patch.object(schema, "_compile_condition", counted):
            assert schema.eval_condition(
                guard, schema.DataRecordSet(records={"r": 1}))
        assert len(calls) == 61

    @pytest.mark.parametrize("levels", [ir.MAX_NESTING - 3, ir.MAX_NESTING,
                                        ir.MAX_NESTING + 1, 2_000])
    def test_a_deep_hand_built_guard_is_a_traverse_error(self, levels):
        guard = self._nested(levels)
        definition = _hand_built({"a": _SAM, "b": _SAM},
                                 [schema.Arc("a", "b", guard)])
        data = schema.DataRecordSet(
            entities={"sam": ir.Entity(id="sam", name="Sam")},
            records={"r": 1})
        if levels <= ir.MAX_NESTING:
            holds = oracle.reference_eval_condition(guard, data)
            assert nlgen.generate_text(definition, data) == \
                ("Sam rests. It rests." if holds else "Sam rests.")
            return
        for run in (schema.traverse, nlgen.generate_text):
            with pytest.raises(TraversalError, match=(
                    f"^arc 'a' -> 'b' in schema 's': guard failed: guard "
                    f"nests deeper than {ir.MAX_NESTING} levels$")):
                run(definition, data)

    def test_parsing_compiles_nothing(self, corpus):
        # Compiling is left to the first traversal, so that a schema that
        # is parsed and not run costs no more than before.
        for doc in corpus:
            schema._parse_complement_text.cache_clear()
            parsed = schema.parse_schema(doc.schema_source)
            for definition in parsed.schema_set.values():
                for arc in oracle.all_arcs(definition):
                    if arc.guard is not None:
                        assert "test" not in vars(arc.guard)
            assert schema._parse_complement_text.cache_info().currsize == 0
            schema.traverse(parsed, doc.data)
            assert schema._parse_complement_text.cache_info().currsize > 0

    def test_one_parse_serves_many_documents(self, corpus):
        doc = get(corpus, "patient_report")
        text = doc.schema_path.read_text(encoding="utf-8")
        busy = json.loads(doc.data_path.read_text(encoding="utf-8"))
        calm = json.loads(doc.data_path.read_text(encoding="utf-8"))
        # Guards and a path complement read differently; a result kept
        # from one document would show in the next.
        calm["records"]["patient"].update(
            needs_advice=False, bp={"systolic": 120, "diastolic": 80},
            findings={"bp": "normal blood pressure"})
        datas = [schema.load_data(json.dumps(records))
                 for records in (busy, calm, busy)]
        fresh = [schema.traverse(schema.parse_schema(text), data)
                 for data in datas]
        shared = schema.parse_schema(text)
        assert [schema.traverse(shared, data) for data in datas] == fresh
        assert fresh[0] != fresh[1]


class TestTraverse:
    def test_demo_propositions_match_hand_enumeration(self, corpus):
        doc = get(corpus, "patient_report")
        plan = schema.traverse(doc.schema, doc.data)
        assert oracle.expand_document_plan(plan) == {
            BP, SUGAR, ADVICE, FOLLOWUP}
        assert ir.validate(plan) == []

    def test_corpus_plans_validate_clean(self, corpus):
        for doc in corpus:
            plan = schema.traverse(doc.schema, doc.data)
            assert ir.validate(plan) == [], doc.name

    def test_deterministic(self, corpus):
        for doc in corpus:
            a = schema.traverse(doc.schema, doc.data)
            b = schema.traverse(doc.schema, doc.data)
            assert a == b

    def test_end_entry_yields_empty_plan(self):
        parsed = schema.parse_schema("schema s\nnode done end\n")
        data = schema.load_data('{"entities": {}, "records": {}}')
        plan = schema.traverse(parsed, data)
        assert plan.root is None
        assert ir.validate(plan) == []
        assert oracle.expand_document_plan(plan) == set()

    def test_self_loop_hits_visit_limit(self):
        src = ("schema s\n"
               "node a emit subject=\"sam\" verb=rest\n"
               "arc a -> a\n")
        parsed = schema.parse_schema(src)
        data = schema.load_data(
            '{"entities": {"sam": {"name": "Sam"}}, "records": {}}')
        with pytest.raises(TraversalError) as info:
            schema.traverse(parsed, data)
        assert "32" in str(info.value)
        with mock.patch.object(schema, "MAX_VISITS", 5), \
                pytest.raises(TraversalError) as info:
            schema.traverse(parsed, data)
        assert "5" in str(info.value)

    def test_false_arc_removal_is_invisible(self, corpus):
        doc = get(corpus, "sam_pair")
        with_false_arc = doc.schema_source + (
            "node extra emit subject=path(patient.id) verb=rest\n"
            "arc sugar -> extra when exists(patient.missing)\n")
        a = schema.traverse(schema.parse_schema(with_false_arc), doc.data)
        b = schema.traverse(doc.schema, doc.data)
        # The extra node exists but its arc never fires.
        assert oracle.expand_document_plan(a) == oracle.expand_document_plan(b)
        assert a.root == b.root

    def test_instantiation_failure_names_node_and_path(self):
        src = ("schema s\n"
               "node a emit subject=path(patient.missing) verb=rest\n")
        parsed = schema.parse_schema(src)
        data = schema.load_data(
            '{"entities": {}, "records": {"patient": {}}}')
        with pytest.raises(TraversalError) as info:
            schema.traverse(parsed, data)
        assert "patient.missing" in str(info.value)

    def test_nesting_bound_counts_only_non_sequence_arcs(self):
        # Every elaboration link is followed by a sequence link, which
        # splices into the flow and so nests nothing.
        def traverse_chain(links):
            lines = ["schema s"]
            for i in range(links + 1):
                lines += [f"node e{i} emit subject=\"sam\" verb=rest",
                          f"node q{i} emit subject=\"sam\" verb=go"]
            for i in range(links + 1):
                lines.append(f"arc e{i} -> q{i}")
                if i < links:
                    lines.append(f"arc q{i} -> e{i + 1} rel elaboration")
            data = schema.load_data(
                '{"entities": {"sam": {"name": "Sam"}}, "records": {}}')
            return schema.traverse(
                schema.parse_schema("\n".join(lines) + "\n"), data)

        plan = traverse_chain(ir.MAX_NESTING)
        assert ir.validate(plan) == []
        node, levels = plan.root, 0
        while type(node.children[-1]) is ir.PlanNode:
            node, levels = node.children[-1], levels + 1
        assert levels == ir.MAX_NESTING
        assert len(ir.plan_leaves(plan)) == 2 * (ir.MAX_NESTING + 1)
        with pytest.raises(TraversalError, match=(
                f"nesting deeper than {ir.MAX_NESTING} levels at node "
                f"'e{ir.MAX_NESTING + 1}' in schema 's'")):
            traverse_chain(ir.MAX_NESTING + 1)

    def test_a_long_chain_traverses_in_linear_time(self):
        # Each node of a sequence chain appends its message in place and
        # keeps no frame once it follows its last arc.  Copying each
        # finished frame's pieces into its parent's, as traversal did
        # before, took about 25 times as long at this length.
        n = 100_000
        guard = schema.Condition(op="gt", path="r.x", value=1)
        templates = [schema.MessageTemplate(subject="sam", verb="rest"),
                     schema.MessageTemplate(subject=("r", "who"), verb="go")]
        definition = schema.SchemaDef(
            name="s", entry="n0",
            nodes={f"n{i}": templates[i % 2] for i in range(n)},
            arcs={f"n{i}": [schema.Arc(f"n{i}", f"n{i + 1}", guard)]
                  for i in range(n - 1)})
        data = schema.DataRecordSet(
            entities={"sam": ir.Entity(id="sam", name="Sam")},
            records={"r": {"x": 2, "who": "sam"}})
        start = time.perf_counter()
        plan = schema.traverse(definition, data)
        assert time.perf_counter() - start < 20
        assert len(plan.root.children) == n
        assert all(leaf.verb == ("rest", "go")[i % 2]
                   for i, leaf in enumerate(plan.root.children))

    @staticmethod
    def _tree_nodes(plan):
        """The relation nodes and the messages of ``plan``'s tree."""
        nodes, messages, stack = [], [], [plan.root]
        while stack:
            node = stack.pop()
            if type(node) is ir.PlanNode:
                nodes.append(node)
                stack += node.children
            else:
                messages.append(node)
        return nodes, messages

    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_a_chain_is_one_relation_node_over_its_messages(self, n):
        # A leaf is its message: no node wraps it.
        lines = ["schema s"]
        lines += [f'node n{i} emit subject="sam" verb=v{chr(97 + i % 26)} '
                  f'complement="item {i}"' for i in range(n)]
        lines += [f"arc n{i} -> n{i + 1}" for i in range(n - 1)]
        plan = schema.traverse(
            schema.parse_schema("\n".join(lines) + "\n"),
            schema.load_data('{"entities": {"sam": {"name": "Sam"}}}'))
        nodes, messages = self._tree_nodes(plan)
        assert nodes == [plan.root] and plan.root.label == "sequence"
        assert len(messages) == n
        assert ir.plan_leaves(plan) == list(plan.root.children)
        assert [m.complements[0].head for m in ir.plan_leaves(plan)] == \
            [str(i) for i in range(n)]  # "item <i>": the number is the head

    def test_each_relation_run_is_one_relation_node(self):
        # Arcs from one node in runs of labels: elaboration, sequence,
        # contrast.  Each non-sequence run is one node over its messages;
        # sequence splices them into the root.
        rels = ["elaboration"] * 2 + ["sequence"] * 2 + ["contrast"] * 3
        lines = ["schema s", 'node a emit subject="sam" verb=rest']
        lines += [f'node m{i} emit subject="sam" verb=go '
                  f'complement="to place {i}"' for i in range(len(rels))]
        lines += [f"arc a -> m{i} when exists(r.x) rel {rel}"
                  for i, rel in enumerate(rels)]
        plan = schema.traverse(
            schema.parse_schema("\n".join(lines) + "\n"),
            schema.load_data('{"entities": {"sam": {"name": "Sam"}}, '
                             '"records": {"r": {"x": 1}}}'))
        nodes, messages = self._tree_nodes(plan)
        assert len(nodes) == 3 and len(messages) == len(rels) + 1
        shape = [child.label if type(child) is ir.PlanNode else child.verb
                 for child in plan.root.children]
        assert shape == ["rest", "elaboration", "go", "go", "contrast"]
        assert [len(plan.root.children[i].children) for i in (1, 4)] == \
            [2, 3]
        assert [m.complements[0].head for m in ir.plan_leaves(plan)[1:]] \
            == [str(i) for i in range(len(rels))]

    def test_elaboration_arcs_group_into_one_relation(self):
        src = ("schema s\n"
               "node a emit subject=\"sam\" verb=rest\n"
               "node b emit subject=\"sam\" verb=rest\n"
               "node c emit subject=\"sam\" verb=rest\n"
               "arc a -> b rel elaboration\n"
               "arc a -> c when exists(r.x) rel elaboration\n")
        parsed = schema.parse_schema(src)
        data = schema.load_data(
            '{"entities": {"sam": {"name": "Sam"}},'
            ' "records": {"r": {"x": 1}}}')
        plan = schema.traverse(parsed, data)
        shapes = [type(c).__name__ for c in plan.root.children]
        assert shapes == ["Message", "PlanNode"]
        assert plan.root.children[1].label == "elaboration"
        assert len(plan.root.children[1].children) == 2


# g0 holds text, g1 a number, and g2 is read only under exists().
_GUARDS = ["exists(r.g0)", "exists(r.g2)", 'eq(r.g0, "yes")', "eq(r.g1, 1)",
           "gt(r.g1, 2)", "lt(r.g1, 2)", "not(exists(r.g2))",
           'and(exists(r.g2), eq(r.g2, "yes"))',
           'or(eq(r.g0, "no"), gt(r.g1, 0))']
_COMPLEMENTS = ['"to the store"', '"@ghost"', "path(r.c0)", "path(r.c1)"]
# Mostly values that render or compare; the rest (a wrong type, a missing
# key written as ..., a non-scalar, blank text) must fail alike in both
# traversals.
_RENDERABLE = ["high blood pressure", "with @sam", "@sam", 7, False]
_RECORD_VALUES = {
    "g0": ["yes", "no"] * 8 + [3, ...],
    "g1": [0, 1, 3] * 6 + ["x", ...],
    "g2": ["yes", "no", ...] * 3 + [1],
    "c0": _RENDERABLE * 8 + [None, [1], {"k": 1}, " ", ...],
    "c1": _RENDERABLE * 8 + [None, [1], {"k": 1}, " ", ...],
}


@st.composite
def _random_schema_case(draw):
    """Schema text (several schemas, call nodes, condition nodes, guarded
    and unguarded arcs of every label, sources interleaved), data-file
    text, and a visit budget.  Every schema drawn parses."""
    names = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    lines = []
    for name in names:
        ids = [f"n{i}" for i in range(draw(st.integers(1, 6)))]
        # The entry emits, so that most documents are not empty.
        kinds = ["emit"] + [draw(st.sampled_from(["emit", "emit", "call",
                                                  "end"]))
                            for _ in ids[1:]]
        plain = [i for i, k in zip(ids, kinds)
                 if k == "emit" and draw(st.booleans())]
        lines.append(f"schema {name}")
        for node_id, kind in zip(ids, kinds):
            if kind == "end":
                lines.append(f"node {node_id} end")
                continue
            if kind == "call":
                # Mostly calls forward, so that few calls recurse.
                later = names[names.index(name) + 1:]
                target = draw(st.sampled_from(
                    later * 8 + names if later else names))
                lines.append(f"node {node_id} call {target}")
                continue
            subject = draw(st.sampled_from(['"sam"', "path(r.who)"]))
            line = f"node {node_id} emit subject={subject} verb=rest"
            targets = [t for t in plain if t != node_id]
            if node_id not in plain and targets and draw(st.booleans()):
                line += f" condition={draw(st.sampled_from(targets))}"
            complements = draw(st.lists(st.sampled_from(_COMPLEMENTS),
                                        max_size=2))
            if complements:
                line += " complement=" + ", ".join(complements)
            lines.append(line)
        sources = [i for i, k in zip(ids, kinds) if k != "end"]
        # Mostly forward arcs, so that few traversals hit a cycle.
        forward = [(src, dst) for src in sources
                   for dst in ids[ids.index(src) + 1:]]
        backward = [(src, dst) for src in sources
                    for dst in ids[:ids.index(src) + 1]]
        unguarded = set()
        for _ in range(draw(st.integers(0, 10))):
            src, dst = draw(st.sampled_from(forward * 8 + backward))
            line = f"arc {src} -> {dst}"
            if src in unguarded or draw(st.booleans()):
                line += f" when {draw(st.sampled_from(_GUARDS))}"
            else:
                unguarded.add(src)
            line += f" rel {draw(st.sampled_from(ir.RELATION_LABELS))}"
            lines.append(line)
    record = {"who": "sam"}
    for key, values in _RECORD_VALUES.items():
        value = draw(st.sampled_from(values))
        if value is not ...:
            record[key] = value
    data = json.dumps({"entities": {"sam": {"name": "Sam"}},
                       "records": {"r": record}})
    return "\n".join(lines) + "\n", data, draw(st.integers(2, 8))


class TestTraversalOracle:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(case=_random_schema_case())
    def test_indexed_traverse_matches_scan_all_arcs(self, case):
        source, data_text, max_visits = case
        parsed = schema.parse_schema(source)
        data = schema.load_data(data_text)

        def outcome(traverse, *args):
            try:
                return traverse(parsed, data, *args)
            except NlgenError as exc:
                return type(exc)

        with mock.patch.object(schema, "MAX_VISITS", max_visits):
            indexed = outcome(schema.traverse)
        assert indexed == outcome(oracle.reference_traverse, max_visits)


def _outcome(call, *args):
    """What a call returns, or the class and text of the error it raises."""
    try:
        return call(*args)
    except NlgenError as exc:
        return type(exc), str(exc)


def _random_chain(rng):
    """A schema file whose entry schema is one chain of 500 to 3,000 nodes
    (emit nodes, now and then an end node, and up to 20 call nodes into
    three short schemas), with labeled side arcs and chain arcs, guards
    that hold, and one guard in ten chains that is false, or fails, part
    of the way along."""
    length = rng.randint(500, 3000)
    labeled = rng.choice([0.0, 0.01, 0.08])
    calls = set(rng.sample(range(1, length), rng.randint(0, 20)))
    stop, fail = (rng.randrange(length) if rng.random() < 0.1 else None
                  for _ in range(2))
    nodes, arcs = [], []
    for i in range(length):
        if i in calls:
            nodes.append(f"node c{i} call sub{rng.randrange(3)}")
        elif i > 0 and rng.random() < 0.0005:
            nodes.append(f"node c{i} end")
            continue
        else:
            subject = rng.choice(['"sam"', "path(r.who)"])
            nodes.append(f"node c{i} emit subject={subject} verb=rest"
                         + rng.choice(["", ' complement="a fever"',
                                       " complement=path(r.what)"]))
        out = []
        if i + 1 < length:
            guard = ("exists(r.gone)" if i == stop else "gt(r.what, 1)"
                     if i == fail else rng.choice(["gt(r.x, 1)", ""]))
            rel = rng.choice(ir.RELATION_LABELS[1:]) \
                if rng.random() < labeled else "sequence"
            out.append(f"arc c{i} -> c{i + 1}"
                       + (f" when {guard}" if guard else "") + f" rel {rel}")
        if rng.random() < 0.05:
            nodes.append(f'node s{i} emit subject="sam" verb=go')
            out.append(f"arc c{i} -> s{i} when exists(r.x) "
                       f"rel {rng.choice(ir.RELATION_LABELS)}")
        rng.shuffle(out)
        arcs += out
    lines = ["schema main", *nodes, *arcs]
    for k in range(3):
        size = rng.randint(1, 3)
        lines.append(f"schema sub{k}")
        lines += [f'node e{j} emit subject="sam" verb=see' for j in
                  range(size)]
        lines += [f"arc e{j} -> e{j + 1} rel {rng.choice(ir.RELATION_LABELS)}"
                  for j in range(size - 1)]
    return "\n".join(lines) + "\n"


class TestTraversalMatchesPrevious:
    """traverse() and instantiate_template() give what the versions kept
    in tests/oracle.py give, which copied each finished frame's pieces
    into its parent and built every message anew: equal plans (==), and
    errors of the same class and text, on a first traversal, which builds
    each constant message, and on a second, which reuses it."""

    _DATA = schema.load_data(json.dumps({
        "entities": {"sam": {"name": "Sam"}},
        "records": {"r": {"who": "sam", "what": "a rash", "x": 2}}}))

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(case=_random_schema_case())
    def test_random_schemas(self, case):
        source, data_text, max_visits = case
        parsed = schema.parse_schema(source)
        data = schema.load_data(data_text)
        with mock.patch.object(schema, "MAX_VISITS", max_visits):
            first = _outcome(schema.traverse, parsed, data)
            assert first == _outcome(oracle.previous_traverse, parsed, data)
            assert _outcome(schema.traverse, parsed, data) == first

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_long_chains(self, seed):
        parsed = schema.parse_schema(_random_chain(random.Random(seed)))
        first = _outcome(schema.traverse, parsed, self._DATA)
        assert first == _outcome(oracle.previous_traverse, parsed,
                                 self._DATA)
        assert _outcome(schema.traverse, parsed, self._DATA) == first

    # Literals (some that fail: blank text, an @ head after a determiner,
    # an entity some data lacks), paths, and literals built by hand.
    _SUBJECTS = ["sam", "@sam", "x", "", _Text("sam"), 5, ("r", "who"),
                 ("r", "n"), ("r", "gone")]
    _COMPLEMENTS = ["to the store", "", "the @x", "@sam", "@x", " with @x",
                    _Text("a rash"), 3, ("r", "what"), ("r", "n"),
                    ("r", "gone")]
    _ADVERBS = [None, "just", " ", _Text("now"), 2.5, ("r", "who"),
                ("r", "gone")]
    _TABLES = [
        schema.DataRecordSet(
            entities={"sam": ir.Entity(id="sam", name="Sam")},
            records={"r": {"who": "sam", "what": "a rash", "n": 7}}),
        schema.DataRecordSet(
            entities={e: ir.Entity(id=e, name=e.title())
                      for e in ("sam", "x")},
            records={"r": {"who": "x", "what": "with @x", "n": 7.5}}),
        schema.DataRecordSet(entities={}, records={})]

    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(subject=st.sampled_from(_SUBJECTS),
           complements=st.lists(st.sampled_from(_COMPLEMENTS), max_size=3),
           adverb=st.sampled_from(_ADVERBS),
           condition=st.sampled_from([None, ir.Message("sam", "rest")]),
           tables=st.lists(st.sampled_from(range(3)), min_size=1,
                           max_size=4))
    def test_random_templates(self, subject, complements, adverb, condition,
                              tables):
        template = schema.MessageTemplate(
            subject=subject, verb="see", complements=tuple(complements),
            adverb=adverb)
        for i in tables:
            assert _outcome(schema.instantiate_template, template,
                            self._TABLES[i], condition) == \
                _outcome(oracle.previous_instantiate_template, template,
                         self._TABLES[i], condition)

    @pytest.mark.parametrize("seed, end", [
        (0, None), (7, "guard failed"), (9, "nesting deeper")])
    def test_chains_reach_every_end(self, seed, end):
        # The chain generator gives plans, guards that fail part of the
        # way along and chains that nest too deep.
        parsed = schema.parse_schema(_random_chain(random.Random(seed)))
        outcome = _outcome(schema.traverse, parsed, self._DATA)
        if end is None:
            assert len(ir.plan_leaves(outcome)) > 500
        else:
            assert end in outcome[1]
        assert outcome == _outcome(oracle.previous_traverse, parsed,
                                   self._DATA)


_SAM = schema.MessageTemplate(subject="sam", verb="rest")


def _hand_built(nodes, arcs=(), entry="a", **schema_set):
    """A schema "s" built by hand: its nodes, its arcs grouped under their
    sources as given, and the schemas it may call."""
    grouped = {}
    for arc in arcs:
        grouped.setdefault(arc.src, []).append(arc)
    return schema.SchemaDef(name="s", entry=entry, nodes=nodes, arcs=grouped,
                            schema_set=schema_set)


def _rebuilt(schemas):
    """New SchemaDefs for ``schemas``, sharing one new schema set."""
    shared = {}
    shared.update({name: dataclasses.replace(definition, schema_set=shared)
                   for name, definition in schemas.items()})
    return shared


# How a schema is broken by hand; each break but the first two always
# breaks a rule.
_BREAKS = ["drop-node", "retarget-arc", "int-node", "str-guard",
           "unknown-rel", "bare-arcs", "undeclared-entry"]


def _break(definition, how, draw):
    """A copy of ``definition`` broken one way, or None if it has no arc
    to break."""
    nodes = dict(definition.nodes)
    arcs = {key: list(group) for key, group in definition.arcs.items()}
    entry, ids = definition.entry, list(nodes)
    placed = [(key, i) for key, group in arcs.items()
              for i in range(len(group))]
    if how == "drop-node":
        del nodes[draw(st.sampled_from(ids))]
    elif how == "int-node":
        nodes[draw(st.sampled_from(ids))] = 3
    elif how == "undeclared-entry":
        entry = "ghost"
    elif not placed:
        return None
    elif how == "bare-arcs":
        key = draw(st.sampled_from(sorted(arcs)))
        arcs[key] = arcs[key][0]
    else:
        key, i = draw(st.sampled_from(placed))
        change = {"retarget-arc": {"dst": draw(st.sampled_from(
                      ids + ["ghost"]))},
                  "str-guard": {"guard": "exists(r.x)"},
                  "unknown-rel": {"rel": "foo"}}[how]
        arcs[key][i] = dataclasses.replace(arcs[key][i], **change)
    return dataclasses.replace(definition, entry=entry, nodes=nodes,
                               arcs=arcs)


class TestSchemaCheck:
    """One check holds every schema rule for a schema built by hand, as
    parse_schema() holds them for schema text."""

    @pytest.mark.parametrize("definition, message", [
        (_hand_built({"a": _SAM}, [schema.Arc("a", "x")]),
         "arc 'a' -> 'x': arc endpoint 'x' is not a declared node"),
        (_hand_built({"a": _SAM}, entry="x"),
         "entry 'x' is not a declared node"),
        (_hand_built({}), "no nodes are declared"),
        (dataclasses.replace(_hand_built({"a": _SAM, "b": None}),
                             arcs={"a": schema.Arc("a", "b")}),
         "node 'a': arcs must be a list of Arc"),
        (_hand_built({"a": _SAM, "b": None},
                     [schema.Arc("a", "b", "exists(r.x)")]),
         "arc 'a' -> 'b': guard is a string, not a Condition"),
        (_hand_built({"a": _SAM, "b": None},
                     [schema.Arc("a", "b", rel="foo")]),
         "arc 'a' -> 'b': unknown relation label 'foo'"),
        (_hand_built({"a": _SAM, "n": 3}),
         "node 'n': a node is a MessageTemplate, a schema name or None, not "
         "a number"),
        (_hand_built({"a": _SAM, "z": None}, [schema.Arc("z", "a")]),
         "arc 'z' -> 'a': end node 'z' has an outgoing arc"),
        (_hand_built({"a": _SAM, "b": _SAM, "c": None},
                     [schema.Arc("a", "b"), schema.Arc("a", "c")]),
         "arc 'a' -> 'c': node 'a' has more than one unguarded arc"),
        (dataclasses.replace(_hand_built({"a": _SAM, "b": _SAM}),
                             arcs={"a": [schema.Arc("b", "a")]}),
         "arc 'b' -> 'a': arc source 'b' is not its key 'a'"),
        (_hand_built({"a": "ghost"}),
         "node 'a': call target 'ghost' is not a declared schema"),
        (schema.SchemaDef("s", "a", [_SAM], {}),
         "nodes: expected a dict, got an array"),
        (schema.SchemaDef("s", "a", {"a": _SAM}, None),
         "arcs: expected a dict, got null"),
        (schema.SchemaDef("s", "a", {"a": "t"}, {}, None),
         "node 'a': schema_set: expected a dict, got null"),
    ], ids=["arc-target", "entry", "no-nodes", "bare-arc", "str-guard",
            "unknown-rel", "int-node", "end-node-arc", "two-unguarded",
            "src-not-key", "call-target", "nodes-not-dict", "arcs-not-dict",
            "schema-set-not-dict"])
    def test_a_hand_built_schema_is_checked(self, definition, message):
        data = schema.DataRecordSet(
            entities={"sam": ir.Entity(id="sam", name="Sam")},
            records={"r": {"x": 1}})
        for _ in range(2):  # the second use reads the cached check
            with pytest.raises(TraversalError) as info:
                nlgen.generate_text(definition, data)
            assert str(info.value) == f"schema 's': {message}"

    def test_a_called_schema_is_checked_when_entered(self):
        callee = schema.SchemaDef(name="t", entry="d", nodes={"d": 3},
                                  arcs={})
        caller = _hand_built({"a": "t"}, t=callee)
        data = schema.DataRecordSet()
        with pytest.raises(TraversalError, match=re.escape(
                "schema 't': node 'd': a node is a MessageTemplate, a "
                "schema name or None, not a number")):
            schema.traverse(caller, data)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(case=st.one_of(st.integers(0, 4), _random_schema_case()),
           how=st.sampled_from([None, *_BREAKS]), draw=st.data())
    def test_a_broken_schema_is_refused_and_a_plan_reads_back(
            self, corpus, case, how, draw):
        if type(case) is int:  # a demo document
            parsed, data = corpus[case].schema, corpus[case].data
        else:
            parsed = schema.parse_schema(case[0])
            data = schema.load_data(case[1])
        name = draw.draw(st.sampled_from(sorted(parsed.schema_set)))
        broken = parsed.schema_set[name]
        if how is not None:
            broken = _break(broken, how, draw.draw)
            if broken is None:
                return
        root = _rebuilt({**parsed.schema_set, name: broken})[parsed.name]
        # The check reads the root before anything else.
        refused = how in _BREAKS[2:] and name == parsed.name
        try:
            nlgen.generate_text(root, data)
        except NlgenError as exc:
            assert not refused or type(exc) is TraversalError \
                and str(exc).startswith(f"schema {name!r}: ")
        else:
            assert not refused
        try:
            plan = schema.traverse(root, data)
        except NlgenError:
            return
        assert ir.document_plan_from_json(ir.document_plan_to_json(plan)) \
            == plan


class TestInstantiate:
    def test_paths_resolve_to_message(self, corpus):
        doc = get(corpus, "sam_pair")
        template = doc.schema.nodes["bp"]
        msg = schema.instantiate_template(template, doc.data)
        assert msg == ir.Message(
            subject="sam", verb="have",
            complements=(ir.ComplementPhrase(
                head="pressure", premodifiers=("high", "blood")),))

    def test_literal_only_template_ignores_data(self):
        template = schema.MessageTemplate(
            subject="sam", verb="rest")

        def data(records):
            return schema.load_data(json.dumps(
                {"entities": {"sam": {"name": "Sam"}}, "records": records}))

        a = schema.instantiate_template(template, data({}))
        b = schema.instantiate_template(template, data({"r": {"x": 1}}))
        assert a == b

    def test_a_constant_template_keeps_one_message(self):
        # A template of literals builds its message once and gives that
        # object to every document that names its entities; the entity
        # checks still read each document's data, the subject's first.
        template = schema.MessageTemplate(
            subject="sam", verb="see", complements=("@x", "a fever"),
            adverb="just")
        both = {e: ir.Entity(id=e, name=e.title()) for e in ("sam", "x")}
        tables = [schema.DataRecordSet(entities=both),
                  schema.DataRecordSet(entities=dict(both),
                                       records={"r": {"x": 1}})]
        messages = [schema.instantiate_template(template, data)
                    for data in tables * 2]
        assert all(message is template.constant for message in messages)
        # An equal template, or one with the @ subject, shares it.
        for twin in (dataclasses.replace(template),
                     dataclasses.replace(template, subject="@sam")):
            assert schema.instantiate_template(twin, tables[1]) is \
                template.constant
        assert messages[0] == oracle.previous_instantiate_template(
            template, tables[0])
        condition = ir.Message("x", "rest")
        assert schema.instantiate_template(template, tables[0], condition) \
            == dataclasses.replace(template.constant, condition=condition)
        for entities, missing in (({"sam": both["sam"]}, "x"),
                                  ({"x": both["x"]}, "sam"), ({}, "sam")):
            for _ in range(3):
                with pytest.raises(TraversalError,
                                   match=f"^unknown entity '{missing}'$"):
                    schema.instantiate_template(
                        template, schema.DataRecordSet(entities=entities))
        assert schema.instantiate_template(template, tables[1]) is \
            template.constant
        # A literal that fails builds no message, and the subject check
        # still fails first.
        blank = dataclasses.replace(template, complements=("",))
        for entities, error in ((both, "empty complement text"),
                                ({}, "unknown entity 'sam'")):
            with pytest.raises(TraversalError, match=f"^{error}$"):
                schema.instantiate_template(
                    blank, schema.DataRecordSet(entities=entities))
        assert blank.constant is False
        # A template with a path builds none either, and a template made
        # from another by dataclasses.replace has not built its own yet.
        path = dataclasses.replace(template, subject=("r", "x"))
        assert path.constant is None
        assert schema.instantiate_template(path, schema.DataRecordSet(
            entities=both, records={"r": {"x": "sam"}})) == template.constant
        assert path.constant is False

    def test_missing_path_names_it(self):
        template = schema.MessageTemplate(
            subject=("patient", "missing"), verb="rest")
        data = schema.load_data(
            '{"entities": {}, "records": {"patient": {}}}')
        with pytest.raises(TraversalError,
                           match="^missing data path: patient.missing$"):
            schema.instantiate_template(template, data)

    @pytest.mark.parametrize("fields, problem", [
        ({"verb": "Rest"},
         "verb lemma 'Rest' must be one lowercase alphabetic word"),
        ({"verb": "go home"},
         "verb lemma 'go home' must be one lowercase alphabetic word"),
        ({"verb": 5}, "verb lemma 5 must be one lowercase alphabetic word"),
        ({"modal": "maybe"}, "unknown modal 'maybe'"),
        ({"modal": "can", "tense": "past"}, ir.MODAL_TENSE_RULE),
        ({"polarity": "sideways"}, "unknown polarity 'sideways'"),
        ({"tense": "later"}, "unknown tense 'later'"),
        ({"subject": ("q", 1)}, "a path segment must be a non-empty string"),
        ({"complements": (("r", ""),)},
         "a path segment must be a non-empty string"),
        ({"complements": "ab"}, "complements must be a tuple"),
        ({"complements": 5}, "complements must be a tuple"),
    ], ids=["capital-verb", "two-word-verb", "int-verb", "unknown-modal",
            "modal-past", "unknown-polarity", "unknown-tense", "int-segment",
            "empty-segment", "str-complements", "int-complements"])
    def test_a_template_built_by_hand_is_checked(self, fields, problem):
        # The parser refuses each of these; in a schema built by hand a
        # template is checked by the same rules, once per schema object.
        template = schema.MessageTemplate(**{"subject": "sam", "verb": "rest",
                                             **fields})
        one_node = schema.SchemaDef(name="s", entry="a",
                                    nodes={"a": template}, arcs={})
        data = schema.DataRecordSet(
            entities={"sam": ir.Entity(id="sam", name="Sam")},
            records={"r": 1})
        for _ in range(2):  # the second use reads the cached check
            with pytest.raises(TraversalError, match=re.escape(
                    f"schema 's': node 'a': {problem}")):
                nlgen.generate_text(one_node, data)
        # instantiate_template() takes a bare template, and checks it.
        with pytest.raises(TraversalError, match=f"^{re.escape(problem)}$"):
            schema.instantiate_template(template, data)
        assert schema.MessageTemplate(subject="sam", verb="rest",
                                      modal="can").problems == ()

    @pytest.mark.parametrize("nodes, rule", [
        ({}, "is not a declared node"), ({"zz": None}, "must be an emit node"),
        ({"zz": "s"}, "must be an emit node"),
        ({"zz": schema.MessageTemplate(subject="sam", verb="rest",
                                       condition_node="a")},
         "has a condition of its own; conditions nest one level only"),
    ], ids=["missing", "end-node", "call-node", "conditional-node"])
    def test_a_hand_built_condition_node_is_checked(self, nodes, rule):
        # The parser refuses each of these schemas, by the same rule.
        template = schema.MessageTemplate(subject="sam", verb="see",
                                          condition_node="zz")
        one_node = schema.SchemaDef(name="s", entry="a", arcs={},
                                    nodes={"a": template, **nodes})
        data = schema.DataRecordSet(
            entities={"sam": ir.Entity(id="sam", name="Sam")})
        with pytest.raises(TraversalError) as info:
            nlgen.generate_text(one_node, data)
        assert str(info.value) == \
            f"schema 's': node 'a': condition node 'zz' {rule}"

    def test_complement_text_parsing(self):
        parse = schema._parse_complement_text
        assert parse("high blood pressure") == ir.ComplementPhrase(
            head="pressure", premodifiers=("high", "blood"))
        assert parse("to the store") == ir.ComplementPhrase(
            head="store", determiner="the", preposition="to")
        assert parse("a high temperature") == ir.ComplementPhrase(
            head="temperature", determiner="a", premodifiers=("high",))
        assert parse("an egg") == ir.ComplementPhrase(
            head="egg", determiner="a")
        assert parse("@sam") == ir.ComplementPhrase(head="@sam")
        assert parse("with @sam") == ir.ComplementPhrase(
            head="@sam", preposition="with")
        assert parse("here") == ir.ComplementPhrase(head="here")

    @pytest.mark.parametrize("value, base_value", [
        (_Text("ill"), "ill"), (_Real(2.5), 2.5), (_Color.RED, 1),
        (_Mood.ILL, "ill")], ids=["str", "float", "int-enum", "str-enum"])
    def test_subclass_value_reads_as_its_base_type(self, value, base_value):
        parsed = schema.parse_schema(
            'schema s\nnode a emit subject="sam" verb=see '
            'complement=path(r.x)\n')
        data = schema.DataRecordSet(
            entities={"sam": ir.Entity(id="sam", name="Sam")},
            records={"r": {"x": value}})
        assert nlgen.generate_text(parsed, data) == \
            f"Sam sees {base_value}."
        # A guard reads the same value as the same base type.
        assert schema.eval_condition(
            schema.Condition(op="eq", path="r.x", value=base_value), data)

    def test_a_hand_built_literal_reads_as_its_base_value(self):
        # A str subclass is a literal, never a path of its characters.
        class Text(str):
            pass

        data = schema.DataRecordSet(
            entities={"sam": ir.Entity(id="sam", name="Sam")},
            records={"s": {"a": {"m": "x"}}})
        template = schema.MessageTemplate(subject=Text("sam"), verb="rest",
                                          complements=(Text("s"),))
        message = schema.instantiate_template(template, data)
        assert type(message.subject) is str and message.subject == "sam"
        assert message.complements == (ir.ComplementPhrase(head="s"),)
        with pytest.raises(TraversalError,
                           match="^literal is a number, not text$"):
            schema.instantiate_template(
                schema.MessageTemplate(subject=5, verb="rest"), data)

    @pytest.mark.parametrize("value, kind", [
        ({1, 2}, "set"), ((1, 2), "tuple"), (b"hi", "bytes"),
        (object(), "object")])
    def test_no_python_value_reaches_the_text(self, value, kind):
        # Only records built by hand hold these; no data file can.
        parsed = schema.parse_schema(
            'schema s\nnode a emit subject="sam" verb=see '
            'complement=path(r.x)\n')
        data = schema.DataRecordSet(
            entities={"sam": ir.Entity(id="sam", name="Sam")},
            records={"r": {"x": value}})
        with pytest.raises(TraversalError, match=re.escape(
                f"node 'a': template instantiation failed: data path r.x "
                f"holds {kind}, not a string or number")):
            nlgen.generate_text(parsed, data)

    @pytest.mark.parametrize("value", [ir.INT_BOUND, -ir.INT_BOUND,
                                       10 ** 5000],
                             ids=["bound", "minus-bound", "5001-digits"])
    def test_integer_past_the_size_rule_is_refused(self, value):
        # Only records built by hand hold one; the JSON reader refuses it.
        parsed = schema.parse_schema(
            'schema s\nnode a emit subject="sam" verb=see '
            'complement=path(r.x)\n')
        data = schema.DataRecordSet(
            entities={"sam": ir.Entity(id="sam", name="Sam")},
            records={"r": {"x": value}})
        with pytest.raises(TraversalError, match=re.escape(
                f"node 'a': template instantiation failed: data path r.x: "
                f"{ir.DIGITS_RULE}")):
            nlgen.generate_text(parsed, data)
        data.records["r"]["x"] = 1 - ir.INT_BOUND  # MAX_DIGITS nines
        assert nlgen.generate_text(parsed, data) == \
            f"Sam sees -{'9' * ir.MAX_DIGITS}."


class TestKindNames:
    """The codec, templates and guards name a value's kind alike."""

    @pytest.mark.parametrize("value, kind", [
        ({"k": 1}, "an object"), ([1], "an array"), ("s", "a string"),
        (1, "a number"), (1.5, "a number"), (True, "a boolean"),
        (None, "null")])
    def test_one_name_at_every_site(self, value, kind):
        assert ir.json_kind(value) == kind
        # Where the codec wants an array, or an object for an array.
        where, wanted, file = ("sentences[0]", "an object", [value]) \
            if type(value) is list else ("sentences", "an array", value)
        with pytest.raises(DataError, match=re.escape(
                f"{where}: expected {wanted}, got {kind}")):
            ir.sentence_plans_from_json(json.dumps(file))
        data = schema.DataRecordSet(
            entities={"sam": ir.Entity(id="sam", name="Sam")},
            records={"x": value})
        literal, named = (1, "a number") if type(value) is str \
            else ("s", "a string")
        with pytest.raises(TraversalError, match=re.escape(
                f"eq(x, ...): cannot compare {kind} with {named}")):
            schema.eval_condition(
                schema.Condition(op="eq", path="x", value=literal), data)
        template = schema.MessageTemplate(
            subject="sam", verb="see", complements=(("x",),))
        if kind in ("a string", "a number", "a boolean"):  # written as text
            schema.instantiate_template(template, data)
            return
        with pytest.raises(TraversalError, match=re.escape(
                f"data path x holds {kind}, not a string or number")):
            schema.instantiate_template(template, data)


class TestComplementCache:
    """Complement text is parsed through one process-wide cache; what
    depends on the data is still checked for every document."""

    @staticmethod
    def _data(entities, records=None):
        return schema.load_data(json.dumps({
            "entities": {e: {"name": e.title()} for e in entities},
            "records": records or {}}))

    def test_each_distinct_text_is_parsed_once(self):
        parsed = schema.parse_schema(
            "schema s\n"
            'node a emit subject="sam" verb=have complement="a fever", '
            "path(r.same)\n"
            'node b emit subject="sam" verb=have complement="a fever"\n'
            'node c emit subject="sam" verb=go complement=path(r.place), '
            '"to the store"\n'
            "arc a -> b\narc b -> c\n")
        data = self._data(["sam"], {"r": {"same": "a fever",
                                          "place": "to the store"}})
        cache = schema._parse_complement_text
        cache.cache_clear()
        plan = schema.traverse(parsed, data)
        # Five complements, two distinct texts, literal or read from data.
        assert len(ir.plan_leaves(plan)) == 3
        info = cache.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 3, 2)
        schema.traverse(parsed, data)
        assert cache.cache_info().misses == 2

    def test_cached_entity_phrase_is_checked_for_each_document(self):
        parsed = schema.parse_schema(
            'schema s\nnode a emit subject="sam" verb=see '
            'complement="@ghost", path(r.who)\n')
        records = {"r": {"who": "with @ghost"}}
        plan = schema.traverse(parsed, self._data(["sam", "ghost"], records))
        assert len(ir.plan_leaves(plan)) == 1
        # load_data refuses an @ghost record without ghost, so only the
        # literal, parsed and cached above, can name it here.
        with pytest.raises(TraversalError) as info:
            schema.traverse(parsed, self._data(["sam"],
                                               {"r": {"who": "with @sam"}}))
        assert str(info.value) == ("node 'a': template instantiation "
                                   "failed: unknown entity 'ghost'")

    def test_empty_complement_fails_on_every_traversal(self):
        parsed = schema.parse_schema(
            'schema s\nnode a emit subject="sam" verb=see complement=""\n')
        data = self._data(["sam"])
        for _ in range(3):
            with pytest.raises(TraversalError) as info:
                schema.traverse(parsed, data)
            assert str(info.value) == ("node 'a': template instantiation "
                                       "failed: empty complement text")


class TestLoadData:
    def test_not_json(self):
        with pytest.raises(DataError):
            schema.load_data("not json")

    def test_unknown_top_level_key(self):
        with pytest.raises(DataError):
            schema.load_data('{"entities": {}, "extra": {}}')

    def test_record_reference_to_unknown_entity(self):
        with pytest.raises(DataError) as info:
            schema.load_data(
                '{"entities": {}, "records": {"r": {"who": "@ghost"}}}')
        assert "ghost" in str(info.value)

    def test_first_unknown_reference_in_document_order(self):
        with pytest.raises(DataError, match="unknown entity 'one'$"):
            schema.load_data(
                '{"entities": {}, "records": {"a": [[{"b": "@one"}], '
                '"@two"], "c": {"d": "@three"}}}')

    def test_entity_defaults(self):
        data = schema.load_data(
            '{"entities": {"sam": {"name": "Sam"}}, "records": {}}')
        ent = data.entities["sam"]
        assert (ent.person, ent.number, ent.gender) == \
            ("third", "singular", "neuter")
        assert ent.id == "sam"

    def test_many_bad_entities_name_three_and_a_count(self):
        table = {eid: {"name": "X", "head": "x"} for eid in "abcde"}
        with pytest.raises(DataError) as info:
            schema.load_data(json.dumps({"entities": table}))
        rule = "exactly one of name/head must be given, not blank"
        assert str(info.value) == (f"entities[a]: {rule}; entities[b]: "
                                   f"{rule}; entities[c]: {rule}; and 2 "
                                   f"more")

    @pytest.mark.parametrize("entities, detail", [
        ('{"sam": {"name": "Sam", "person": "fourth"}}',
         "entities[sam].person: unknown value 'fourth'"),
        ('{"sam": {"name": "Sam", "age": 40}}',
         "entities[sam]: unknown field 'age'"),
        ('{"sam": {"name": ["Sam"]}}',
         "entities[sam].name: expected a string, got an array"),
        ('{"sam": "Sam"}',
         "entities[sam]: expected an object, got a string"),
        ('["sam"]', "entities: expected an object, got an array"),
        ('{"sam": {"id": "samuel", "name": "Sam"}}',
         "entities[sam]: table key does not match entity id 'samuel'"),
        ('{"sam": {"name": "Sam", "head": "man"}}',
         "entities[sam]: exactly one of name/head"),
        ('{"sam": {"head": " "}}', "entities[sam]: exactly one of name/head"),
    ])
    def test_bad_entities(self, entities, detail):
        with pytest.raises(DataError) as info:
            schema.load_data(f'{{"entities": {entities}, "records": {{}}}}')
        assert str(info.value).startswith(detail)


# Entity tables built by hand, as no data file can give them: blank,
# missing and non-str text, words outside a domain, and keys that do not
# match their entity's id.
_HAND_TEXTS = st.one_of(
    st.none(), st.sampled_from(["", " ", "\t", "Sam", "Black", "nurse",
                                "Dr."]),
    st.integers(), st.floats(allow_nan=False), st.lists(st.just("x"),
                                                        max_size=1))


def _hand_words(domain):
    return st.one_of(st.sampled_from(domain), st.none(), st.integers(),
                     st.sampled_from(["male", "fourth", "dual", "",
                                      domain[0].title()]))


_GOOD_ENTITIES = st.sampled_from([
    dict(name="Sam", gender="masculine"), dict(head="nurse", number="plural"),
    dict(name="Black", honorific="Mrs.", gender="feminine"),
    dict(head="speaker", person="first")])


def _hand_entity(key):
    """Two times in three an entity that follows every rule, else one
    drawn field by field."""
    good = _GOOD_ENTITIES.map(lambda fields: ir.Entity(id=key, **fields))
    drawn = st.builds(
        ir.Entity, id=st.sampled_from([key, "z"]), name=_HAND_TEXTS,
        head=_HAND_TEXTS, honorific=_HAND_TEXTS,
        gender=_hand_words(ir.GENDERS), number=_hand_words(ir.NUMBERS),
        person=_hand_words(ir.PERSONS))
    return st.sampled_from([good, good, drawn]).flatmap(lambda kind: kind)


_HAND_TABLES = st.fixed_dictionaries({"x": _hand_entity("x"),
                                      "y": _hand_entity("y")})
# A sentence that opens with its verb has lost its subject.
_VERB_OPENING = re.compile(r"(?:^|\. )(?:Rest|See)")


class TestHandBuiltEntities:
    """traverse() holds the entity-table rules for a DataRecordSet built
    by hand, as load_data() holds them for a data file."""

    TWO_NODES = ('schema s\nnode a emit subject="x" verb=rest\n'
                 'node b emit subject="y" verb=see complement="@x"\n'
                 'arc a -> b\n')

    @pytest.mark.parametrize("fields, problem", [
        (dict(name=" "), "exactly one of name/head must be given"),
        ({}, "exactly one of name/head must be given"),
        (dict(head="nurse", honorific="Dr."), ir.HONORIFIC_RULE),
        (dict(name="Sam", gender="male"),
         ".gender: unknown value 'male'; expected one of masculine, "
         "feminine, neuter"),
        (dict(name="Sam", person="fourth"),
         ".person: unknown value 'fourth'; expected one of first, second, "
         "third"),
        (dict(name="Sam", number=None),
         ".number: unknown value None; expected one of singular, plural"),
        (dict(name=3), ".name: expected a string, got a number"),
        (dict(name="Sam", honorific=5),
         ".honorific: expected a string, got a number"),
    ])
    def test_bad_entity_is_a_data_error(self, fields, problem):
        parsed = schema.parse_schema('schema s\nnode a emit subject="x" '
                                     'verb=rest\n')
        entities = {"x": ir.Entity(id="x", **fields)}
        with pytest.raises(DataError, match=r"^entities\[x\]") as info:
            nlgen.generate_text(parsed, schema.DataRecordSet(
                entities=entities))
        assert problem in str(info.value)
        assert [problem in p for p in ir.validate(ir.DocumentPlan(
            root=None, entities=entities))] == [True]

    @pytest.mark.parametrize("entities, message", [
        ({"sam": {"name": "Sam"}},
         "entities[sam]: expected an Entity, got an object"),
        (None, "entities: expected a dict, got null"),
    ], ids=["dict-entity", "no-table"])
    def test_a_table_not_of_entities_is_a_data_error(self, entities,
                                                      message):
        parsed = schema.parse_schema('schema s\nnode a emit subject="x" '
                                     'verb=rest\n')
        with pytest.raises(DataError) as info:
            nlgen.generate_text(parsed, schema.DataRecordSet(
                entities=entities))
        assert str(info.value) == message

    @pytest.mark.parametrize("entities", [None, []], ids=["null", "list"])
    def test_validate_stops_at_a_table_not_a_dict(self, entities):
        plan = ir.DocumentPlan(root=ir.Message(subject="sam", verb="rest"),
                               entities=entities)
        assert nlgen.validate(plan) == [
            f"entities: expected a dict, got {ir.json_kind(entities)}"]

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(table=_HAND_TABLES, profile=st.sampled_from(["fluent", "plain"]))
    def test_text_or_a_refusal(self, table, profile):
        parsed = schema.parse_schema(self.TWO_NODES)
        try:
            text = nlgen.generate_text(
                parsed, schema.DataRecordSet(entities=table), profile)
        except NlgenError:
            pass
        else:
            assert not _VERB_OPENING.search(text), text
        leaf = ir.Message(subject="x", verb="rest")
        assert isinstance(ir.validate(ir.DocumentPlan(root=leaf,
                                                      entities=table)),
                          list)


class TestErrorClasses:
    def test_four_classes(self):
        # Schema text, every other malformed input, and a schema and data
        # that disagree, under one base class.
        classes = {name for name, value in vars(nlgen.errors).items()
                   if isinstance(value, type)}
        assert classes == {"NlgenError", "SchemaParseError", "DataError",
                           "TraversalError"}
