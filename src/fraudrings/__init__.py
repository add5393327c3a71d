"""Fraud-ring discovery on heterogeneous account graphs.

Accounts connected by hard identity links (shared phone, email, card, ID,
bank account) are merged into super-nodes; weighted soft links (shared
device, cookie, IP address) are aggregated between super-nodes.  The reduced
graph is embedded with LINE-style first- and second-order objectives and
clustered with HDBSCAN under cosine distance, with explicit noise labeling,
incremental update support, and planted-ring evaluation tooling.
"""

from .clustering import (
    ClusterAssignment,
    ClusterParams,
    cluster,
    core_distances,
    build_mst,
    extract_clusters,
)
from .embedding import (
    AliasTable,
    CombinedEmbedding,
    EdgelessGraphError,
    EmbeddingConfig,
    EmbeddingMatrix,
    combine_and_normalize,
    embed_graph,
    first_order_loss,
    second_order_negative_objective,
    sigmoid,
    train_line,
)
from .evaluation import (
    GroundTruth,
    SynthConfig,
    coverage,
    generate,
    precision,
    purity,
    transform_stats,
)
from .graph import (
    HARD_KINDS,
    SOFT_KINDS,
    GraphParseError,
    HardLink,
    HeterogeneousGraph,
    SoftLink,
    SuperNode,
    TransformedGraph,
    UnionFind,
    build_supernodes,
    find_components,
    ingest_edges,
    transform,
)
from .incremental import (
    PipelineState,
    UpdateEvent,
    apply_decay,
    apply_hard_link,
    apply_new_account,
    apply_soft_link,
    assign_new_to_clusters,
    full_refresh,
)
from .pipeline import (
    ConfigError,
    PipelineConfig,
    RankedCluster,
    StageError,
    risk_score,
    run_pipeline,
)

__version__ = "0.1.0"
