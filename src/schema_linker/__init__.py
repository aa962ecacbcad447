"""Graph-guided schema linking for text-to-SQL.

The pipeline reduces a relational schema to the minimal connected
sub-schema needed to answer a natural-language question: one model call
nominates source and destination tables, classical shortest-path search
over the foreign-key graph supplies candidate join paths, and a configured
selection rule picks the final table set. A batch harness reproduces
schema-level and execution-level evaluation over record/replay transcripts.

The package root exports the API that README documents; everything else
is imported from its submodule, for example ``schema_linker.pathfinder``.
"""

from .errors import LinkerError
from .harness import (
    RunConfig,
    SchemaRepository,
    ingest_dataset,
    run_evaluation,
    run_generation,
    run_linking,
    run_sweep,
)
from .llm import CachingClient, HttpCompletionClient, TranscriptCache
from .pathfinder import all_shortest_paths, build_candidates, preset
from .schema_model import write_schema_document

__version__ = "0.1.0"

__all__ = [
    "CachingClient",
    "HttpCompletionClient",
    "LinkerError",
    "RunConfig",
    "SchemaRepository",
    "TranscriptCache",
    "__version__",
    "all_shortest_paths",
    "build_candidates",
    "ingest_dataset",
    "preset",
    "run_evaluation",
    "run_generation",
    "run_linking",
    "run_sweep",
    "write_schema_document",
]
