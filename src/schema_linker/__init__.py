"""Graph-guided schema linking for text-to-SQL.

The pipeline reduces a relational schema to the minimal connected
sub-schema needed to answer a natural-language question: one model call
nominates source and destination tables, classical shortest-path search
over the foreign-key graph supplies candidate join paths, and a configured
selection rule picks the final table set. A batch harness reproduces
schema-level and execution-level evaluation over record/replay transcripts.
"""

from .errors import (
    BackendError,
    CacheMissError,
    DanglingForeignKeyError,
    DuplicateTableError,
    EmptyAfterFilteringError,
    EmptyEndpointsError,
    EmptyGoldError,
    EmptyInputError,
    GoldExecutionError,
    LinkerError,
    NoSchemasFoundError,
    NotADatabaseError,
    OutOfRangeError,
    ParseError,
    ReplyParseError,
    UnknownTableError,
)
from .harness import (
    EvaluationReport,
    Question,
    RunConfig,
    RunOutcome,
    SchemaRepository,
    extract_sql_reply,
    ingest_dataset,
    run_evaluation,
    run_generation,
    run_linking,
    run_sweep,
)
from .llm import (
    CacheMode,
    CachingClient,
    CompletionRequest,
    EndpointExtraction,
    HttpCompletionClient,
    LlmEndpointOracle,
    LlmPathOracle,
    PromptId,
    TranscriptCache,
    degraded_extraction,
    parse_path_select_reply,
    parse_src_dst_reply,
    render_path_select_prompt,
    render_sql_gen_prompt,
    render_src_dst_prompt,
    request_digest,
)
from .metrics import (
    EvalRecord,
    SchemaMetrics,
    aggregate,
    execution_match,
    fbeta_from_counts,
    fbeta_from_rates,
    make_eval_record,
    schema_metrics,
)
from .pathfinder import (
    CandidateSet,
    EndpointKeep,
    JoinPath,
    LinkResult,
    LinkerConfig,
    MODE_LABELS,
    MODE_PRESETS,
    PathSelection,
    UnionMode,
    all_shortest_paths,
    build_candidates,
    canonical_mode_name,
    link,
    preset,
    render_candidate_lines,
    render_path,
    select_path,
)
from .schema_model import (
    ColumnDef,
    FkProvenance,
    ForeignKeyEdge,
    GraphEdge,
    Schema,
    SchemaGraph,
    TableDef,
    augment_sparse_graph,
    build_graph,
    ingest_schema_document,
    ingest_sqlite,
    is_id_like_column,
    schema_from_document,
    schema_to_document,
    write_schema_document,
)
from .sql_analysis import (
    TableReferenceSet,
    extract_tables,
    render_filtered_schema,
    render_join_path,
    render_schema,
)

__version__ = "0.1.0"
