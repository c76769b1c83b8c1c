"""nlgen: rule-based natural language generation.

Turns structured data records into fluent English documents in three
stages: schema-driven content determination and text planning, sentence
planning (aggregation, pronominalization, discourse markers), and
syntactic realization (morphology, agreement, reflexives, punctuation).
"""

from . import errors
from .ir import (
    ClauseSpec,
    ComplementPhrase,
    DocumentPlan,
    Entity,
    Message,
    PlanNode,
    ReferenceSpec,
    ResolvedComplement,
    SentencePlan,
    document_plan_from_json,
    document_plan_to_json,
    sentence_plans_from_json,
    sentence_plans_to_json,
    validate,
    validate_sentences,
)
from .lexicon import (
    Lexicon,
    default_lexicon,
    load_lexicon,
    pluralize,
    pronoun,
    verb_form,
)
from .realize import orthography, realize_document, realize_sentence
from .schema import (
    DataRecordSet,
    SchemaDef,
    eval_condition,
    instantiate_template,
    load_data,
    parse_schema,
    traverse,
)
from .sentplan import (
    aggregate,
    insert_discourse_markers,
    plan_sentences,
    pronominalize,
)

__version__ = "0.1.0"


def generate_text(schema_def: SchemaDef, data: DataRecordSet,
                  profile: str = "fluent",
                  lex: Lexicon | None = None) -> str:
    """Run the full pipeline: plan, sentence-plan, realize."""
    plan = traverse(schema_def, data)
    plans = plan_sentences(plan, profile)
    return realize_document(plans, lex)
