"""End-to-end batch pipeline: ingest, transform, embed, cluster, score, rank.

Every stage writes its artifact and the next stage reads that artifact back,
so a single ``run_pipeline`` call produces byte-identical results to running
the CLI stages one at a time on the intermediate files.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .clustering import (
    ClusterAssignment,
    ClusterParams,
    cluster,
    pairwise_cosine_distances,
    write_cluster_assignment,
)
from .embedding import CombinedEmbedding, EmbeddingConfig, embed_graph, read_embedding, write_embedding
from .graph import (
    GraphParseError,
    HeterogeneousGraph,
    TransformedGraph,
    ingest_edges,
    read_transformed_graph,
    transform,
    write_transformed_graph,
)

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Bad or unknown pipeline configuration entry."""


class StageError(RuntimeError):
    """A pipeline stage failed; remembers which one."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    clustering: ClusterParams = field(default_factory=ClusterParams)
    decay_lambda: float = 0.01
    nn_threshold: float = 0.3
    alpha_size: float = 0.2
    alpha_density: float = 0.3
    alpha_indicator: float = 0.5
    size_cap: int = 100
    hard_links: str = "hard_links.tsv"
    soft_links: str = "soft_links.tsv"
    risk_indicators: str | None = None
    out_dir: str = "out"

    def __post_init__(self) -> None:
        weights = (self.alpha_size, self.alpha_density, self.alpha_indicator)
        # every check is written so that NaN fails it
        if not all(w >= 0 for w in weights):
            raise ConfigError("risk weights must be non-negative")
        if not abs(sum(weights) - 1.0) <= 1e-9:
            raise ConfigError(f"risk weights must sum to 1, got {sum(weights)}")
        if not 0 <= self.decay_lambda < math.inf:
            raise ConfigError("decay_lambda must be non-negative and finite")
        if not math.isfinite(self.nn_threshold):
            raise ConfigError("nn_threshold must be finite")
        if self.size_cap < 1:
            raise ConfigError("size_cap must be >= 1")


_CONFIG_KEYS = {
    "dim_total": int,
    "negative_samples": int,
    "epochs": int,
    "initial_learning_rate": float,
    "samples_per_epoch": int,
    "seed": int,
    "min_cluster_size": int,
    "min_samples": int,
    "decay_lambda": float,
    "nn_threshold": float,
    "alpha_size": float,
    "alpha_density": float,
    "alpha_indicator": float,
    "size_cap": int,
    "hard_links": str,
    "soft_links": str,
    "risk_indicators": str,
    "out_dir": str,
}

_EMBEDDING_KEYS = {
    "dim_total", "negative_samples", "epochs", "initial_learning_rate",
    "samples_per_epoch", "seed",
}
_CLUSTERING_KEYS = {"min_cluster_size", "min_samples"}


def parse_config(source: Iterable[str]) -> PipelineConfig:
    """Parse flat ``key = value`` lines (``#`` comments allowed)."""
    embed_kwargs: dict = {}
    cluster_kwargs: dict = {}
    top_kwargs: dict = {}
    for lineno, line in enumerate(source, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        caster = _CONFIG_KEYS[key]
        try:
            value = caster(raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {raw!r} for {key}") from None
        if caster is float and not math.isfinite(value):
            raise ConfigError(f"line {lineno}: {key} must be finite, got {raw!r}")
        if key in _EMBEDDING_KEYS:
            embed_kwargs[key] = value
        elif key in _CLUSTERING_KEYS:
            cluster_kwargs[key] = value
        else:
            top_kwargs[key] = value
    try:
        return PipelineConfig(
            embedding=EmbeddingConfig(**embed_kwargs),
            clustering=ClusterParams(**cluster_kwargs),
            **top_kwargs,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


def load_config(path: str | Path) -> PipelineConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh)


def read_risk_file(
    source: Iterable[str], token_index: Mapping[str, int]
) -> np.ndarray:
    """Per-account risk indicators: ``token <TAB> value`` lines.

    Accounts without an entry default to 0; entries for accounts outside the
    ingested graph (for example outside the link observation window) are
    ignored.
    """
    risk = np.zeros(len(token_index), dtype=np.float64)
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphParseError("risk line needs 2 fields", lineno)
        token, raw = parts
        try:
            value = float(raw)
        except ValueError:
            raise GraphParseError(f"bad risk value {raw!r}", lineno) from None
        if not math.isfinite(value):
            raise GraphParseError(f"risk value must be finite, got {raw!r}", lineno)
        idx = token_index.get(token)
        if idx is not None:
            risk[idx] += value
    return risk


def supernode_risks(
    membership: np.ndarray, account_risk: np.ndarray | None, num_supernodes: int
) -> np.ndarray:
    """Sum per-account indicators into their super-nodes (zeros when absent)."""
    risks = np.zeros(num_supernodes, dtype=np.float64)
    if account_risk is not None:
        np.add.at(risks, np.asarray(membership, dtype=np.int64), account_risk)
    return risks


# -- risk scoring --------------------------------------------------------------


@dataclass
class RankedCluster:
    cluster_id: int
    super_nodes: list[int]
    account_tokens: list[str]
    score: float
    components: dict[str, float]

    @property
    def n_accounts(self) -> int:
        return len(self.account_tokens)


def risk_score(
    n_accounts: int,
    member_vectors: np.ndarray,
    member_risks: np.ndarray,
    *,
    alpha_size: float,
    alpha_density: float,
    alpha_indicator: float,
    size_cap: int = 100,
    global_max_risk: float = 0.0,
) -> tuple[float, dict[str, float]]:
    """Convex combination of normalized size, embedding density, and indicators.

    Size saturates at ``size_cap`` accounts; density is one minus the mean
    pairwise cosine distance among member embeddings; the indicator term is
    the cluster's mean super-node risk rescaled by the global maximum (zero
    when no indicators exist).  All components are clamped to [0, 1].
    """
    if n_accounts < 1:
        raise ValueError("cluster must be non-empty")
    norm_size = min(n_accounts / size_cap, 1.0)
    m = member_vectors.shape[0]
    if m >= 2:
        dists = pairwise_cosine_distances(member_vectors)
        mean_dist = float(dists[np.triu_indices(m, k=1)].mean())
    else:
        mean_dist = 0.0
    norm_density = min(1.0, max(0.0, 1.0 - mean_dist))
    norm_indicator = (
        min(1.0, max(0.0, float(member_risks.mean()) / global_max_risk))
        if global_max_risk > 0.0
        else 0.0
    )
    score = (
        alpha_size * norm_size
        + alpha_density * norm_density
        + alpha_indicator * norm_indicator
    )
    components = {
        "size": norm_size,
        "density": norm_density,
        "indicator": norm_indicator,
    }
    return score, components


def rank_clusters(
    transformed: TransformedGraph,
    embedding: CombinedEmbedding,
    assignment: ClusterAssignment,
    config: PipelineConfig,
    account_risk: np.ndarray | None = None,
) -> list[RankedCluster]:
    """Expand clusters to accounts, score them, and sort by score descending."""
    risks = supernode_risks(
        transformed.membership, account_risk, transformed.num_supernodes
    )
    global_max = float(risks.max()) if risks.size else 0.0
    by_label: dict[int, list[int]] = {}
    for sid, label in enumerate(assignment.labels.tolist()):
        if label >= 0:
            by_label.setdefault(label, []).append(sid)
    ranked = []
    for label, sids in sorted(by_label.items()):
        accounts = [
            transformed.tokens[a]
            for sid in sids
            for a in transformed.super_nodes[sid].members
        ]
        score, components = risk_score(
            len(accounts),
            embedding.vectors[sids],
            risks[sids],
            alpha_size=config.alpha_size,
            alpha_density=config.alpha_density,
            alpha_indicator=config.alpha_indicator,
            size_cap=config.size_cap,
            global_max_risk=global_max,
        )
        ranked.append(
            RankedCluster(
                cluster_id=label,
                super_nodes=sids,
                account_tokens=accounts,
                score=score,
                components=components,
            )
        )
    ranked.sort(key=lambda rc: (-rc.score, rc.cluster_id))
    return ranked


def write_report(ranked: Sequence[RankedCluster], out: TextIO) -> None:
    """Header ``#ranked_clusters <m>`` then rank, id, score, size, member tokens."""
    out.write(f"#ranked_clusters {len(ranked)}\n")
    for rank, rc in enumerate(ranked, start=1):
        tokens = ",".join(rc.account_tokens)
        out.write(f"{rank}\t{rc.cluster_id}\t{rc.score:.4f}\t{rc.n_accounts}\t{tokens}\n")


# -- pipeline ------------------------------------------------------------------


@dataclass
class PipelineResult:
    graph: HeterogeneousGraph
    transformed: TransformedGraph
    embedding: CombinedEmbedding
    assignment: ClusterAssignment
    ranked: list[RankedCluster]
    paths: dict[str, Path]


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Run every stage, writing artifacts into ``config.out_dir``.

    Any stage failure removes the partially written outputs and raises a
    :class:`StageError` naming the stage.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "transformed": out_dir / "transformed.tsv",
        "embedding": out_dir / "embedding.tsv",
        "clusters": out_dir / "clusters.tsv",
        "report": out_dir / "report.tsv",
    }
    written: list[Path] = []

    def stage(name: str, fn):
        logger.info("pipeline stage: %s", name)
        try:
            return fn()
        except Exception as exc:
            for p in written:
                try:
                    os.remove(p)
                except OSError:
                    pass
            raise StageError(name, exc) from exc

    def emit(key: str, writer) -> None:
        with open(paths[key], "w", encoding="utf-8") as fh:
            written.append(paths[key])
            writer(fh)

    def ingest() -> HeterogeneousGraph:
        with open(config.hard_links, encoding="utf-8") as hard_fh, open(
            config.soft_links, encoding="utf-8"
        ) as soft_fh:
            return ingest_edges(hard_fh, soft_fh)

    graph = stage("ingest", ingest)

    def do_transform() -> TransformedGraph:
        transformed = transform(graph)
        emit("transformed", lambda fh: write_transformed_graph(transformed, fh))
        with open(paths["transformed"], encoding="utf-8") as fh:
            return read_transformed_graph(fh)

    transformed = stage("transform", do_transform)

    def do_embed() -> CombinedEmbedding:
        emb = embed_graph(transformed, config.embedding)
        emit("embedding", lambda fh: write_embedding(emb, fh))
        with open(paths["embedding"], encoding="utf-8") as fh:
            return read_embedding(fh)

    embedding = stage("embed", do_embed)

    def do_cluster() -> ClusterAssignment:
        assignment = cluster(embedding, config.clustering)
        emit("clusters", lambda fh: write_cluster_assignment(assignment, fh))
        return assignment

    assignment = stage("cluster", do_cluster)

    def do_rank() -> list[RankedCluster]:
        account_risk = None
        if config.risk_indicators:
            with open(config.risk_indicators, encoding="utf-8") as fh:
                account_risk = read_risk_file(fh, graph.token_index)
        ranked = rank_clusters(transformed, embedding, assignment, config, account_risk)
        emit("report", lambda fh: write_report(ranked, fh))
        return ranked

    ranked = stage("rank", do_rank)
    return PipelineResult(
        graph=graph,
        transformed=transformed,
        embedding=embedding,
        assignment=assignment,
        ranked=ranked,
        paths=paths,
    )
