"""LINE-style embeddings of the transformed super-node graph.

Two proximity objectives are trained independently by edge-sampled SGD with
negative sampling: the first-order objective pulls directly connected
super-nodes together using shared vertex vectors, the second-order objective
matches neighborhoods through separate context vectors.  The two halves are
concatenated and row-normalized for downstream clustering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TextIO

import numpy as np

from .graph import GraphParseError, TransformedGraph

_SEED_MASK = (1 << 64) - 1
_ORDER_CODE = {"first": 1, "second": 2}


class EdgelessGraphError(RuntimeError):
    """The transformed graph has no edges to sample.

    Callers should emit singleton embeddings (all-zero rows) instead of
    training; such rows are routed straight to noise by the clustering stage.
    """


@dataclass
class EmbeddingConfig:
    """Training hyperparameters.

    ``dim_total`` is split evenly between the two proximity orders.
    ``samples_per_epoch`` defaults to the number of transformed edges, so the
    default epoch count corresponds to ``epochs * |edges|`` SGD samples per
    order.
    """

    dim_total: int = 128
    negative_samples: int = 5
    epochs: int = 10
    initial_learning_rate: float = 0.025
    samples_per_epoch: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim_total <= 0 or self.dim_total % 2 != 0:
            raise ValueError("dim_total must be a positive even integer")
        if self.negative_samples < 1:
            raise ValueError("negative_samples must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.initial_learning_rate < math.inf:
            raise ValueError("initial_learning_rate must be positive and finite")
        if self.samples_per_epoch is not None and self.samples_per_epoch < 1:
            raise ValueError("samples_per_epoch must be >= 1 when given")

    @property
    def dim_per_order(self) -> int:
        return self.dim_total // 2


class AliasTable:
    """Vose alias table: O(1) draws from a discrete distribution ∝ weights.

    Zero weights are allowed (those items are never drawn) but the total must
    be positive.
    """

    def __init__(self, weights: Sequence[float] | np.ndarray):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("alias table needs a non-empty 1-d weight vector")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative")
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("total weight must be positive")
        n = w.size
        scaled = w * (n / total)
        prob = np.ones(n, dtype=np.float64)
        alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] -= 1.0 - scaled[s]
            if scaled[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        # leftovers are exactly 1 up to rounding
        self.probabilities = prob
        self.aliases = alias

    def sample_array(self, rng: np.random.Generator, size) -> np.ndarray:
        idx = rng.integers(0, len(self.probabilities), size=size)
        accept = rng.random(size) < self.probabilities[idx]
        return np.where(accept, idx, self.aliases[idx])


def sigmoid(x):
    """Numerically stable logistic function for scalars and arrays.

    ``exp(-logaddexp(0, -x))`` never overflows, and tiny values keep their
    relative precision.
    """
    out = np.exp(-np.logaddexp(0.0, -np.asarray(x, dtype=np.float64)))
    return float(out) if np.ndim(x) == 0 else out


@dataclass
class EmbeddingMatrix:
    """Per-super-node vectors for one proximity order.

    For first-order training ``context`` is the same array as ``vertex``; for
    second-order it is the separate context parameterization.
    """

    vertex: np.ndarray
    context: np.ndarray
    epoch_losses: list[float] | None = None


@dataclass
class CombinedEmbedding:
    """Concatenated first+second order vectors, row-normalized to unit length.

    Rows that were all-zero before normalization stay zero and are flagged in
    ``zero_rows``.
    """

    vectors: np.ndarray
    normalized: bool
    zero_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def num_rows(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def first_order_loss(graph: TransformedGraph, emb: EmbeddingMatrix) -> float:
    """Weighted negative log-likelihood of edges under the direct-proximity model."""
    if emb.vertex.shape[0] != graph.num_supernodes:
        raise ValueError(
            f"embedding has {emb.vertex.shape[0]} rows for {graph.num_supernodes} super-nodes"
        )
    if not graph.edges:
        return 0.0
    ei, ej, ew = graph.edge_arrays()
    dots = np.einsum("ij,ij->i", emb.vertex[ei], emb.vertex[ej])
    # -log sigmoid(x) == logaddexp(0, -x), stable for large |x|
    return float(np.sum(ew * np.logaddexp(0.0, -dots)))


def _objective(v_i: np.ndarray, c_j: np.ndarray, c_neg: np.ndarray) -> float:
    val = -float(np.logaddexp(0.0, -(c_j @ v_i)))
    if len(c_neg):
        val -= float(np.logaddexp(0.0, c_neg @ v_i).sum())
    return val


def _objective_gradients(
    v_i: np.ndarray, c_j: np.ndarray, c_neg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g_pos = 1.0 - sigmoid(float(c_j @ v_i))
    grad_vi = g_pos * c_j
    grad_cj = g_pos * v_i
    if len(c_neg):
        g_neg = -sigmoid(c_neg @ v_i)
        grad_vi = grad_vi + g_neg @ c_neg
        grad_cneg = g_neg[:, None] * v_i[None, :]
    else:
        grad_cneg = np.zeros((0, v_i.shape[0]))
    return grad_vi, grad_cj, grad_cneg


def second_order_negative_objective(
    i: int, j: int, negatives: Sequence[int], emb: EmbeddingMatrix
) -> float:
    """Sampled objective for one (vertex i, context j) pair plus noise nodes.

    Returns ``log σ(c_j·v_i) + Σ_n log σ(−c_n·v_i)``; SGD ascends its gradient.
    """
    negs = np.asarray(list(negatives), dtype=np.int64)
    return _objective(emb.vertex[i], emb.context[j], emb.context[negs])


def second_order_negative_gradients(
    i: int, j: int, negatives: Sequence[int], emb: EmbeddingMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of :func:`second_order_negative_objective`.

    Returned as (d/dv_i, d/dc_j, d/dc_negatives) at the current parameters.
    """
    negs = np.asarray(list(negatives), dtype=np.int64)
    return _objective_gradients(emb.vertex[i], emb.context[j], emb.context[negs])


def _noise_weights(graph: TransformedGraph) -> np.ndarray:
    return graph.weighted_degrees() ** 0.75


_DRAW = 4096  # pairs drawn per call into the random stream
_MAX_BLOCK = 1024  # pairs per SGD block on large graphs
_MAX_NEG_RETRIES = 16


def _draw_targets(
    src: np.ndarray, dst: np.ndarray, n_negative: int, noise_alias: AliasTable, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Target rows ``[dst, negatives...]`` per pair, and which ones are live.

    Negatives that hit either endpoint of their pair are redrawn, up to
    ``_MAX_NEG_RETRIES`` times; any still colliding are marked dead, so
    degenerate tiny graphs train with fewer negatives.
    """
    negs = noise_alias.sample_array(rng, (len(src), n_negative))
    bad = (negs == src[:, None]) | (negs == dst[:, None])
    for _ in range(_MAX_NEG_RETRIES):
        if not bad.any():
            break
        negs[bad] = noise_alias.sample_array(rng, int(bad.sum()))
        bad = (negs == src[:, None]) | (negs == dst[:, None])
    live = np.ones((len(src), n_negative + 1), dtype=bool)
    live[:, 1:] = ~bad
    return np.column_stack([dst, negs]), live


def _sgd_block(
    vertex: np.ndarray, context: np.ndarray, src: np.ndarray, targets: np.ndarray, rate: np.ndarray
) -> None:
    """Negative-sampling ascent steps for a block of pairs, with stale reads.

    Pair ``s`` has source row ``src[s]`` and target rows ``targets[s]``, its
    positive first and then its negatives; ``rate[s, k]`` is the learning
    rate of that term, and 0 switches the term off.  All gradients are taken
    at the values the block starts from, and updates to a shared row add up.
    First-order training passes the same array as vertex and context.
    """
    v = vertex[src]  # fancy indexing copies: updates use old values
    c = context[targets]
    g = -rate * sigmoid(np.einsum("bd,bkd->bk", v, c))
    g[:, 0] += rate[:, 0]
    vertex_steps = np.einsum("bk,bkd->bd", g, c)
    # the context steps overwrite the gathered rows: one buffer less at peak
    _scatter_add(context, targets, np.multiply(g[:, :, None], v[:, None, :], out=c))
    _scatter_add(vertex, src, vertex_steps)


def _scatter_add(out: np.ndarray, rows: np.ndarray, steps: np.ndarray) -> None:
    """``out[rows[s]] += steps[s]`` for every s, summing over repeated rows.

    One 1-d ``np.add.at`` over the (row, column) cells of the flat view of
    ``out``, several times faster than ``np.add.at`` over rows.
    """
    if not out.flags.c_contiguous:
        raise ValueError("scatter target must be C-contiguous")
    d = out.shape[1]
    cells = (rows.reshape(-1, 1) * d + np.arange(d)).ravel()
    np.add.at(out.reshape(-1), cells, steps.ravel())


def _epoch_loss(
    graph: TransformedGraph,
    order: str,
    vertex: np.ndarray,
    context: np.ndarray,
    n_negative: int,
) -> float:
    """Evaluation loss after an epoch; negatives come from a fixed stream."""
    if order == "first":
        return first_order_loss(graph, EmbeddingMatrix(vertex, vertex))
    eval_rng = np.random.default_rng(0xE7A1)
    noise_alias = AliasTable(_noise_weights(graph))
    total = 0.0
    for i, j, w in graph.edges:
        negs = noise_alias.sample_array(eval_rng, n_negative)
        total -= w * _objective(vertex[i], context[j], context[negs])
    return total


def train_line(
    graph: TransformedGraph,
    order: str,
    cfg: EmbeddingConfig,
    track_loss: bool = False,
) -> EmbeddingMatrix:
    """Train one proximity order by weighted edge sampling.

    Each sample draws an edge ∝ weight, picks a direction uniformly, and takes
    one negative-sampling gradient step treating the edge as binary; samples
    are applied in blocks whose reads are stale (:func:`_sgd_block`).  The
    learning rate decays linearly from the initial value to 1/100 of it over
    all samples.  Runs are bit-deterministic for a fixed seed.
    """
    if order not in _ORDER_CODE:
        raise ValueError(f"order must be 'first' or 'second', got {order!r}")
    n = graph.num_supernodes
    if not graph.edges:
        raise EdgelessGraphError(
            "transformed graph has no edges; emit singleton (zero) embeddings instead"
        )
    d, k = cfg.dim_per_order, cfg.negative_samples
    rng = np.random.default_rng([cfg.seed & _SEED_MASK, _ORDER_CODE[order]])
    vertex = (rng.random((n, d)) - 0.5) / d
    context = vertex if order == "first" else np.zeros((n, d))

    ei, ej, ew = graph.edge_arrays()
    edge_alias = AliasTable(ew)
    noise_alias = AliasTable(_noise_weights(graph))
    samples_per_epoch = cfg.samples_per_epoch or len(graph.edges)
    t_total = cfg.epochs * samples_per_epoch
    lr0 = cfg.initial_learning_rate
    # a pair touches 2 + k rows and first-order blocks hold both directions,
    # so a row is touched about once per block; tiny graphs train one pair
    # at a time
    rows = max(1, min(_MAX_BLOCK, n // (2 * (k + 1)))) * (2 if order == "first" else 1)

    losses: list[float] | None = [] if track_loss else None
    for epoch in range(cfg.epochs):
        end = (epoch + 1) * samples_per_epoch
        for t in range(epoch * samples_per_epoch, end, _DRAW):
            b = min(_DRAW, end - t)
            edge_ids = edge_alias.sample_array(rng, b)
            flips = rng.random(b) < 0.5
            src = np.where(flips, ej[edge_ids], ei[edge_ids])
            dst = np.where(flips, ei[edge_ids], ej[edge_ids])
            targets, live = _draw_targets(src, dst, k, noise_alias, rng)
            lr = np.maximum(lr0 * (1.0 - (t + np.arange(b)) / t_total), lr0 / 100.0)
            rate = lr[:, None] * live
            if order == "first":
                # the direct-proximity objective is symmetric in the pair:
                # one draw updates both endpoints as source, in one block
                src = np.column_stack([src, dst]).ravel()
                targets = np.repeat(targets, 2, axis=0)
                targets[1::2, 0] = src[::2]
                rate = np.repeat(rate, 2, axis=0)
            for s in range(0, len(src), rows):
                block = slice(s, s + rows)
                _sgd_block(vertex, context, src[block], targets[block], rate[block])
        if losses is not None:
            losses.append(_epoch_loss(graph, order, vertex, context, k))

    # super-nodes without any soft edge stay out of clustering: zero them out
    isolated = graph.weighted_degrees() == 0.0
    vertex[isolated] = 0.0
    context[isolated] = 0.0
    return EmbeddingMatrix(vertex=vertex, context=context, epoch_losses=losses)


def combine_and_normalize(
    first: EmbeddingMatrix, second: EmbeddingMatrix
) -> CombinedEmbedding:
    """Concatenate the two halves row-wise and rescale rows to unit L2 norm."""
    if first.vertex.shape[0] != second.vertex.shape[0]:
        raise ValueError("halves must cover the same super-nodes")
    merged = np.hstack([first.vertex, second.vertex])
    norms = np.linalg.norm(merged, axis=1)
    zero = norms == 0.0
    merged = merged / np.where(zero, 1.0, norms)[:, None]
    merged[zero] = 0.0
    return CombinedEmbedding(vectors=merged, normalized=True, zero_rows=zero)


def embed_graph(graph: TransformedGraph, cfg: EmbeddingConfig) -> CombinedEmbedding:
    """Train both orders and combine; edgeless graphs yield all-zero rows."""
    try:
        first = train_line(graph, "first", cfg)
        second = train_line(graph, "second", cfg)
    except EdgelessGraphError:
        n = graph.num_supernodes
        return CombinedEmbedding(
            vectors=np.zeros((n, cfg.dim_total)),
            normalized=True,
            zero_rows=np.ones(n, dtype=bool),
        )
    return combine_and_normalize(first, second)


def write_embedding(emb: CombinedEmbedding, out: TextIO) -> None:
    """Serialize: header ``#embedding <n> <dim>``, then ``id <TAB> v1 v2 ...``."""
    n, dim = emb.vectors.shape
    out.write(f"#embedding {n} {dim}\n")
    row = "%d\t" + " ".join(["%.8g"] * dim) + "\n"
    for sid in range(n):
        out.write(row % (sid, *emb.vectors[sid].tolist()))


def read_embedding(source: Iterable[str]) -> CombinedEmbedding:
    """Parse the format produced by :func:`write_embedding`."""
    n = dim = None
    rows: dict[int, np.ndarray] = {}
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#embedding"):
            if n is not None:
                raise GraphParseError("repeated #embedding header", lineno)
            parts = line.split()
            try:
                n, dim = int(parts[1]), int(parts[2])
            except (IndexError, ValueError):
                raise GraphParseError("bad #embedding header", lineno) from None
            if n < 0 or dim < 0:
                raise GraphParseError(f"negative #embedding size {n} x {dim}", lineno)
            continue
        if line.startswith("#"):
            continue
        if n is None:
            raise GraphParseError("missing #embedding header", lineno)
        sid_str, _, values = line.partition("\t")
        try:
            sid = int(sid_str)
            vec = np.array(values.split(), dtype=np.float64)
        except ValueError:
            raise GraphParseError("bad embedding row", lineno) from None
        if vec.size != dim:
            raise GraphParseError(f"expected {dim} values, got {vec.size}", lineno)
        if not np.isfinite(vec).all():
            raise GraphParseError("embedding values must be finite", lineno)
        if sid in rows:
            raise GraphParseError(f"repeated embedding row {sid}", lineno)
        rows[sid] = vec
    if n is None:
        raise GraphParseError("missing #embedding header")
    if sorted(rows) != list(range(n)):
        raise GraphParseError("embedding rows must cover ids 0..n-1 exactly")
    vectors = np.vstack([rows[i] for i in range(n)]) if n else np.zeros((0, dim or 0))
    norms = np.linalg.norm(vectors, axis=1)
    zero = norms == 0.0
    normalized = bool(np.allclose(norms[~zero], 1.0, atol=1e-6)) if (~zero).any() else True
    return CombinedEmbedding(vectors=vectors, normalized=normalized, zero_rows=zero)
