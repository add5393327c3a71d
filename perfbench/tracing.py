"""Spans around calls into fraudrings' public functions, for traced runs only.

``install`` rebinds each listed function, in every fraudrings module that
holds it as a global, to a wrapper that records a span (name, layer, start,
end, parent) plus a few counts taken at the boundary.  Rebinding module
globals is enough because the library calls across modules by global name
(``cluster`` looks up ``core_distances``, ``embed_graph`` looks up
``train_line``, ``run_pipeline`` looks up ``ingest_edges``).  ``uninstall``
puts the originals back, so untraced repetitions run the unmodified program.
Spans stay in memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("graph", "embedding", "clustering", "pipeline", "incremental", "evaluation")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# -- counts taken at the layer boundary ----------------------------------------


def _ingest_counts(args, kwargs, result, before):
    stats = result.ingest_stats
    return {"records": stats.hard_records + stats.soft_records}


def _transform_counts(args, kwargs, result, before):
    return {"supernodes": result.num_supernodes, "edges": len(result.edges)}


def _train_line_label(args, kwargs):
    order = args[1] if len(args) > 1 else kwargs["order"]
    return f"embedding.train_line.{order}"


def _train_line_counts(args, kwargs, result, before):
    graph = args[0]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {"sgd_samples": cfg.epochs * (cfg.samples_per_epoch or len(graph.edges))}


def _core_counts(args, kwargs, result, before):
    n = len(args[0])
    # pairwise_cosine_distances holds two dense n x n float64 buffers at peak;
    # computed from n, not measured
    return {"points": n, "dense_bytes": 2 * 8 * n * n}


def _cluster_counts(args, kwargs, result, before):
    return {"clusters": result.n_clusters, "noise": result.n_noise}


def _supernodes_before(args, kwargs):
    return args[0].num_supernodes


def _merge_counts(args, kwargs, result, before):
    return {"merges": before - result.num_supernodes}


def _soft_counts(args, kwargs, result, before):
    # a soft link leaves slots unchanged, so comparing them afterwards tells
    # whether it landed on an inter-super-node edge
    link = args[1]
    return {"applied": int(result.slot_of_account(link.u) != result.slot_of_account(link.v))}


# (module, function, label, pre-call hook, post-call counts)
TRACED = (
    ("graph", "ingest_edges", None, None, _ingest_counts),
    ("graph", "transform", None, None, _transform_counts),
    ("graph", "write_transformed_graph", None, None, None),
    ("graph", "read_transformed_graph", None, None, None),
    ("embedding", "embed_graph", None, None, None),
    ("embedding", "train_line", _train_line_label, None, _train_line_counts),
    ("embedding", "combine_and_normalize", None, None, None),
    ("embedding", "write_embedding", None, None, None),
    ("embedding", "read_embedding", None, None, None),
    ("clustering", "cluster", None, None, _cluster_counts),
    ("clustering", "core_distances", None, None, _core_counts),
    ("clustering", "build_mst", None, None, None),
    ("clustering", "extract_clusters", None, None, None),
    ("clustering", "write_cluster_assignment", None, None, None),
    ("clustering", "read_cluster_assignment", None, None, None),
    ("pipeline", "run_pipeline", None, None, None),
    ("pipeline", "rank_clusters", None, None, None),
    ("pipeline", "write_report", None, None, None),
    ("incremental", "apply_new_account", None, None, None),
    ("incremental", "apply_hard_link", None, _supernodes_before, _merge_counts),
    ("incremental", "apply_soft_link", None, None, _soft_counts),
    ("incremental", "apply_decay", None, None, None),
    ("incremental", "assign_new_to_clusters", None, None, None),
    ("evaluation", "generate", None, None, None),
)

WRITERS = (
    "graph.write_transformed_graph",
    "embedding.write_embedding",
    "clustering.write_cluster_assignment",
    "pipeline.write_report",
)
READERS = (
    "graph.read_transformed_graph",
    "embedding.read_embedding",
    "clustering.read_cluster_assignment",
)


def _wrap(tracer: Tracer, layer: str, fn_name: str, fn, label, pre, post):
    name = f"{layer}.{fn_name}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = pre(args, kwargs) if pre else None
        span = tracer.open(label(args, kwargs) if label else name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if post:
            span.counts.update(post(args, kwargs, result, before))
        return result

    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every function in :data:`TRACED`; returns what :func:`uninstall` needs."""
    modules = [importlib.import_module("fraudrings")]
    modules += [importlib.import_module(f"fraudrings.{m}") for m in LAYERS + ("cli",)]
    saved = []
    for layer, fn_name, label, pre, post in TRACED:
        original = getattr(importlib.import_module(f"fraudrings.{layer}"), fn_name)
        wrapped = _wrap(tracer, layer, fn_name, original, label, pre, post)
        for module in modules:
            if module.__dict__.get(fn_name) is original:
                saved.append((module, fn_name, original))
                setattr(module, fn_name, wrapped)
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for module, fn_name, original in reversed(saved):
        setattr(module, fn_name, original)


# -- per-layer numbers from spans ---------------------------------------------


def _subtree(spans: list[Span], root: Span) -> list[Span]:
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children.get(s.id, ()))
    return out


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer not covered by that span's child spans."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time.get(s.id, 0.0)
    return out


def rep_layer_metrics(
    spans: list[Span], root: Span
) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-layer metrics of one traced repetition rooted at ``root``, and the
    span durations of each incremental event kind."""
    tree = _subtree(spans, root)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for s in tree:
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        durations.setdefault(s.name, []).append(s.duration)
        for key, value in s.counts.items():
            if key == "dense_bytes":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value

    def b(name: str) -> float:
        return busy.get(name, 0.0)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    m: dict[str, float] = {}
    m["graph.ingest_s"] = b("graph.ingest_edges")
    m["graph.transform_s"] = b("graph.transform")
    m["graph.write_s"] = b("graph.write_transformed_graph")
    m["graph.records"] = counts.get("records", 0)
    m["graph.supernodes"] = counts.get("supernodes", 0)
    m["graph.edges"] = counts.get("edges", 0)
    m["graph.ns_per_record"] = per(m["graph.ingest_s"], m["graph.records"], 1e9)
    m["embedding.first_s"] = b("embedding.train_line.first")
    m["embedding.second_s"] = b("embedding.train_line.second")
    m["embedding.combine_s"] = b("embedding.combine_and_normalize")
    m["embedding.sgd_samples"] = counts.get("sgd_samples", 0)
    m["embedding.us_per_sample"] = per(
        m["embedding.first_s"] + m["embedding.second_s"], m["embedding.sgd_samples"], 1e6
    )
    m["clustering.core_s"] = b("clustering.core_distances")
    m["clustering.mst_s"] = b("clustering.build_mst")
    m["clustering.extract_s"] = b("clustering.extract_clusters")
    m["clustering.points"] = counts.get("points", 0)
    m["clustering.clusters"] = counts.get("clusters", 0)
    m["clustering.noise"] = counts.get("noise", 0)
    m["clustering.dense_bytes"] = counts.get("dense_bytes", 0)
    m["pipeline.artifact_write_s"] = sum(b(n) for n in WRITERS)
    m["pipeline.artifact_read_s"] = sum(b(n) for n in READERS)
    m["pipeline.rank_s"] = b("pipeline.rank_clusters")
    for kind, fn in (
        ("new_account", "apply_new_account"),
        ("hard_link", "apply_hard_link"),
        ("soft_link", "apply_soft_link"),
        ("decay", "apply_decay"),
    ):
        m[f"incremental.{kind}.count"] = calls.get(f"incremental.{fn}", 0)
        m[f"incremental.{kind}.busy_s"] = b(f"incremental.{fn}")
    m["incremental.assign_s"] = b("incremental.assign_new_to_clusters")
    m["incremental.hard_link.merge_ratio"] = per(
        counts.get("merges", 0), m["incremental.hard_link.count"]
    )
    m["incremental.soft_link.applied_ratio"] = per(
        counts.get("applied", 0), m["incremental.soft_link.count"]
    )
    own = self_times(tree)
    for layer in LAYERS[:-1] + ("bench",):
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    m["trace.spans"] = len(tree) - 1
    events = {
        kind: durations.get(f"incremental.{fn}", [])
        for kind, fn in (
            ("new_account", "apply_new_account"),
            ("hard_link", "apply_hard_link"),
            ("soft_link", "apply_soft_link"),
        )
    }
    return m, events


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-repetition metric."""
    return {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
