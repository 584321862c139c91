"""Task-aware subgraph extraction from RDF knowledge graphs.

Load an N-Triples dump into an indexed store, describe a node
classification or link prediction task, and extract the slice of the
graph that matters for it: by biased random walks from the targets, by
approximate-PPR influence ranking, or by direction/hop graph patterns
evaluated locally or against a SPARQL endpoint. Quality indicators and a
deterministic message-passing validator measure what an extraction kept.
"""

from .endpoint import (
    EndpointConfig,
    HttpBackend,
    QueryBatchPlan,
    drop_duplicates,
    execute_plan,
    execution_planner,
    get_graph_size,
    local_sparql_extract,
    sparql_extract,
)
from .export import ExportBundle, export_bundle, rebuild_bundle
from .graph import (
    BOTH,
    OUTGOING,
    RDF_TYPE,
    KnowledgeGraph,
    Subgraph,
    ingest_ntriples,
    load_ntriples,
    subgraph_from_triples,
)
from .influence import (
    InfluenceScores,
    PprParams,
    approximate_ppr,
    build_partition,
    extract_influence,
    influence_scores,
    select_topk,
)
from .metrics import (
    QualityReport,
    avg_distance_to_target,
    disconnected_ratio,
    neighbor_type_entropy,
    quality_report,
)
from .patterns import (
    BgpQuery,
    Branch,
    LocalBackend,
    PatternTask,
    get_bgp,
    pattern_task_for,
)
from .rgcn import (
    RgcnReferenceModel,
    message_reach,
    prune_outside_reach,
    random_features,
    rgcn_forward,
)
from .tasks import (
    LabelMap,
    SplitSpec,
    TaskSpec,
    build_labels,
    make_splits,
    resolve_targets,
)
from .walks import WalkParams, extract_random_walk, get_initial_vertices, random_walk_sample

__version__ = "0.1.0"

__all__ = [
    "BOTH",
    "BgpQuery",
    "Branch",
    "EndpointConfig",
    "ExportBundle",
    "HttpBackend",
    "InfluenceScores",
    "KnowledgeGraph",
    "LabelMap",
    "LocalBackend",
    "OUTGOING",
    "PatternTask",
    "PprParams",
    "QualityReport",
    "QueryBatchPlan",
    "RDF_TYPE",
    "RgcnReferenceModel",
    "SplitSpec",
    "Subgraph",
    "TaskSpec",
    "WalkParams",
    "approximate_ppr",
    "avg_distance_to_target",
    "build_labels",
    "build_partition",
    "disconnected_ratio",
    "drop_duplicates",
    "execute_plan",
    "execution_planner",
    "export_bundle",
    "extract_influence",
    "extract_random_walk",
    "get_bgp",
    "get_graph_size",
    "get_initial_vertices",
    "influence_scores",
    "ingest_ntriples",
    "load_ntriples",
    "local_sparql_extract",
    "make_splits",
    "message_reach",
    "neighbor_type_entropy",
    "pattern_task_for",
    "prune_outside_reach",
    "quality_report",
    "random_features",
    "random_walk_sample",
    "rebuild_bundle",
    "resolve_targets",
    "rgcn_forward",
    "select_topk",
    "sparql_extract",
    "subgraph_from_triples",
    "__version__",
]
