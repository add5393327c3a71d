"""Micro-batch maintenance of the live super-node graph, embeddings, and labels.

Supported update events: new accounts (singleton super-nodes), hard links
(super-node merges with size-weighted embedding averaging), soft links
(edge weight increments plus a bounded number of online SGD touch-ups), and
exponential temporal decay of edge weights.  A full refresh retrains the
embedding from the current graph and re-clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, TextIO

import numpy as np

from .clustering import ClusterAssignment, ClusterParams, cluster
from .embedding import (
    AliasTable,
    CombinedEmbedding,
    EmbeddingConfig,
    _SEED_MASK,
    _draw_targets,
    _sgd_block,
    embed_graph,
)
from .graph import (
    HARD_KINDS,
    SOFT_KINDS,
    GraphParseError,
    HardLink,
    SoftLink,
    SuperNode,
    TransformedGraph,
)

PRUNE_THRESHOLD = 1e-9
# the touch-up steps at the default batch schedule's learning-rate floor
ONLINE_LEARNING_RATE = 0.025 / 100.0
ONLINE_NEGATIVES = 5


class UnknownAccountError(KeyError):
    """A link event references a token or index that was never registered."""


class DuplicateAccountError(ValueError):
    """An account token was registered twice."""


@dataclass(frozen=True)
class UpdateEvent:
    """One streamed update; ``day`` timestamps are non-decreasing per log."""

    kind: str  # "hard_link" | "soft_link" | "new_account"
    day: float
    token: str = ""
    token_u: str = ""
    token_v: str = ""
    link_kind: str = ""
    weight: float = 1.0

    @classmethod
    def new_account(cls, token: str, day: float) -> "UpdateEvent":
        return cls(kind="new_account", day=day, token=token)

    @classmethod
    def hard_link(cls, u: str, link_kind: str, v: str, day: float) -> "UpdateEvent":
        return cls(kind="hard_link", day=day, token_u=u, token_v=v, link_kind=link_kind)

    @classmethod
    def soft_link(
        cls, u: str, link_kind: str, v: str, weight: float, day: float
    ) -> "UpdateEvent":
        return cls(
            kind="soft_link", day=day, token_u=u, token_v=v,
            link_kind=link_kind, weight=weight,
        )


@dataclass
class EdgeState:
    """Stored (undecayed) weight and the day of the latest contributing event."""

    base_weight: float
    last_day: float


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class PipelineState:
    """Single-writer live state.

    Super-nodes live in dense "slots": ``members[s]`` lists slot s's accounts
    in ascending order and ``slot_of[a]`` is account a's slot.  Merges compact
    slots in place, so slot ids are stable only between structural updates.
    Snapshots re-index canonically (ascending smallest member) for comparison
    and refresh.
    """

    def __init__(
        self,
        dim: int = 128,
        decay_lambda: float = 0.01,
        nn_threshold: float = 0.3,
        online_samples_per_edge: int = 100,
        seed: int = 0,
        now: float = 0.0,
    ):
        if not 0 <= decay_lambda < math.inf:
            raise ValueError("decay_lambda must be non-negative and finite")
        self.dim = dim
        self.decay_lambda = decay_lambda
        self.nn_threshold = nn_threshold
        self.online_samples_per_edge = online_samples_per_edge
        self.now = now
        self.refresh_count = 0
        self.rng = np.random.default_rng(seed & _SEED_MASK)

        self.tokens: list[str] = []
        self.token_index: dict[str, int] = {}
        self.slot_of: list[int] = []
        self.members: list[list[int]] = []
        self.embedding = np.zeros((0, dim), dtype=np.float64)
        self.labels = np.zeros(0, dtype=np.int64)
        self.pending: set[int] = set()
        self.edges: dict[tuple[int, int], EdgeState] = {}
        self.adj: dict[int, set[int]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_batch(
        cls,
        graph: TransformedGraph,
        embedding: CombinedEmbedding,
        assignment: ClusterAssignment,
        *,
        now: float = 0.0,
        decay_lambda: float = 0.01,
        nn_threshold: float = 0.3,
        seed: int = 0,
        online_samples_per_edge: int = 100,
    ) -> "PipelineState":
        """Adopt the outputs of a batch run as the initial live state."""
        if embedding.num_rows != graph.num_supernodes:
            raise ValueError("embedding rows must match super-node count")
        if len(assignment.labels) != graph.num_supernodes:
            raise ValueError("labels must match super-node count")
        state = cls(
            dim=embedding.dim,
            decay_lambda=decay_lambda,
            nn_threshold=nn_threshold,
            seed=seed,
            now=now,
            online_samples_per_edge=online_samples_per_edge,
        )
        state.tokens = list(graph.tokens)
        state.token_index = {t: i for i, t in enumerate(state.tokens)}
        edges = {_edge_key(i, j): EdgeState(base_weight=w, last_day=now) for i, j, w in graph.edges}
        state._adopt(graph, embedding.vectors, assignment.labels, edges)
        return state

    def _adopt(
        self,
        graph: TransformedGraph,
        vectors: np.ndarray,
        labels: np.ndarray,
        edges: dict[tuple[int, int], EdgeState],
    ) -> None:
        """Take the graph's super-nodes as the slots, with their rows, labels and edges."""
        self.members = [sorted(sn.members) for sn in graph.super_nodes]
        self.slot_of = graph.membership.tolist()
        self.embedding = np.array(vectors, dtype=np.float64, copy=True, order="C")
        self.labels = np.array(labels, dtype=np.int64, copy=True)
        self.edges = edges
        self.adj = {s: set() for s in range(len(self.members))}
        for i, j in edges:
            self.adj[i].add(j)
            self.adj[j].add(i)
        self.pending.clear()

    # -- bookkeeping helpers -------------------------------------------------

    @property
    def num_accounts(self) -> int:
        return len(self.tokens)

    @property
    def num_supernodes(self) -> int:
        return len(self.members)

    def slot_of_account(self, account: int) -> int:
        return self.slot_of[account]

    def resolve(self, token: str) -> int:
        idx = self.token_index.get(token)
        if idx is None:
            raise UnknownAccountError(f"unknown account token {token!r}")
        return idx

    def effective_weight(self, key: tuple[int, int], now: float | None = None) -> float:
        es = self.edges[key]
        t = self.now if now is None else now
        return es.base_weight * math.exp(-self.decay_lambda * (t - es.last_day))

    def _advance(self, day: float | None) -> None:
        if day is not None and day > self.now:
            self.now = day

    def _move_edges(self, src: int, dst: int) -> None:
        """Re-attach slot ``src``'s edges to ``dst`` and drop ``src``'s adjacency.

        A weight already on (dst, nb) is summed and the later day kept; an edge
        between src and dst becomes internal and is dropped.  A ``dst`` with no
        adjacency entry takes over ``src``'s set object itself, so its iteration
        order, and with it the edge order of later merges, does not change.
        """
        neighbors = self.adj.pop(src)
        dst_adj = self.adj.setdefault(dst, neighbors)
        for nb in list(neighbors):
            es = self.edges.pop(_edge_key(src, nb))
            self.adj[nb].discard(src)
            if nb == dst:
                continue
            key = _edge_key(dst, nb)
            existing = self.edges.get(key)
            if existing is None:
                self.edges[key] = es
            else:
                existing.base_weight += es.base_weight
                existing.last_day = max(existing.last_day, es.last_day)
            dst_adj.add(nb)
            self.adj[nb].add(dst)

    def _remove_slot(self, dead: int) -> None:
        """Fill slot ``dead``, whose edges have been moved off, with the last slot."""
        last = len(self.members) - 1
        if dead != last:
            self._move_edges(last, dead)
            self.members[dead] = self.members[last]
            for a in self.members[dead]:
                self.slot_of[a] = dead
            self.embedding[dead] = self.embedding[last]
            self.labels[dead] = self.labels[last]
            if last in self.pending:
                self.pending.discard(last)
                self.pending.add(dead)
        self.members.pop()
        self.embedding = self.embedding[:-1]
        self.labels = self.labels[:-1]

    def _weighted_degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_supernodes, dtype=np.float64)
        for (i, j), es in self.edges.items():
            deg[i] += es.base_weight
            deg[j] += es.base_weight
        return deg

    def _online_update(self, i: int, j: int) -> None:
        """Bounded first-order SGD touch-up on a new or modified edge."""
        samples = self.online_samples_per_edge
        if samples <= 0:
            return
        deg = self._weighted_degrees()
        noise = deg**0.75
        if float(noise.sum()) <= 0.0:
            return
        alias = AliasTable(noise)
        src = np.where(self.rng.random(samples) < 0.5, i, j)
        dst = i + j - src
        targets, live = _draw_targets(src, dst, ONLINE_NEGATIVES, alias, self.rng)
        # first-order touch-up: the rows serve as vertex and context alike.
        # All samples take one block: at this rate no row moves by more than
        # about samples * rate, so the stale reads matter at second order only
        emb = self.embedding
        _sgd_block(emb, emb, src, targets, ONLINE_LEARNING_RATE * live)
        touched = np.unique(np.append(targets, [i, j]))
        norms = np.linalg.norm(emb[touched], axis=1, keepdims=True)
        emb[touched] /= np.where(norms > 0.0, norms, 1.0)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self, *, decayed: bool = True) -> tuple[TransformedGraph, list[int]]:
        """Canonical transformed graph plus the old-slot order used to build it."""
        order = sorted(range(self.num_supernodes), key=lambda s: self.members[s][0])
        supers = [
            SuperNode(id=new, members=tuple(self.members[old]))
            for new, old in enumerate(order)
        ]
        rank = np.empty(self.num_supernodes, dtype=np.int64)
        rank[order] = np.arange(self.num_supernodes, dtype=np.int64)
        membership = rank[np.asarray(self.slot_of, dtype=np.int64)]
        new_of = rank.tolist()
        edges = []
        for (i, j), es in self.edges.items():
            w = self.effective_weight((i, j)) if decayed else es.base_weight
            if w <= 0.0:
                continue
            a, b = new_of[i], new_of[j]
            edges.append((min(a, b), max(a, b), w))
        edges.sort(key=lambda e: (e[0], e[1]))
        graph = TransformedGraph(
            super_nodes=supers,
            edges=edges,
            membership=membership,
            tokens=list(self.tokens),
        )
        return graph, order


# -- update operations -------------------------------------------------------


def apply_new_account(state: PipelineState, token: str, day: float | None = None) -> PipelineState:
    """Register a fresh account as a singleton super-node (zero embedding, noise)."""
    if token in state.token_index:
        raise DuplicateAccountError(f"account token {token!r} already registered")
    state._advance(day)
    account = len(state.tokens)
    state.tokens.append(token)
    state.token_index[token] = account
    slot = state.num_supernodes
    state.members.append([account])
    state.slot_of.append(slot)
    state.embedding = np.vstack([state.embedding, np.zeros((1, state.dim))])
    state.labels = np.append(state.labels, -1)
    state.adj[slot] = set()
    state.pending.add(slot)
    return state


def apply_hard_link(
    state: PipelineState, link: HardLink, day: float | None = None
) -> PipelineState:
    """Merge the two endpoint super-nodes if they differ.

    The merged embedding is the size-weighted average of the two rows,
    renormalized to unit length; neighbor edge weights are summed and any edge
    between the merged pair is dropped as internal.  The merged cluster label
    is deferred to the next refresh.
    """
    n = state.num_accounts
    if not (0 <= link.u < n and 0 <= link.v < n):
        raise UnknownAccountError(f"hard link endpoint out of range: {link}")
    state._advance(day)
    a, b = state.slot_of[link.u], state.slot_of[link.v]
    if a == b:
        return state
    keep, dead = (a, b) if a < b else (b, a)

    size_keep = len(state.members[keep])
    size_dead = len(state.members[dead])
    merged_vec = (
        size_keep * state.embedding[keep] + size_dead * state.embedding[dead]
    ) / (size_keep + size_dead)
    norm = float(np.linalg.norm(merged_vec))
    state.embedding[keep] = merged_vec / norm if norm > 0.0 else merged_vec

    for acc in state.members[dead]:
        state.slot_of[acc] = keep
    state.members[keep] = sorted(state.members[keep] + state.members[dead])
    state.labels[keep] = -1
    state.pending.discard(keep)
    state.pending.discard(dead)

    state._move_edges(dead, keep)
    state._remove_slot(dead)
    return state


def apply_soft_link(state: PipelineState, link: SoftLink) -> PipelineState:
    """Add the soft link's weight to the corresponding super-node edge.

    Intra-super-node links are discarded.  The edge's establishment day resets
    to the event day, and a bounded online SGD pass nudges the embedding.
    """
    n = state.num_accounts
    if not (0 <= link.u < n and 0 <= link.v < n):
        raise UnknownAccountError(f"soft link endpoint out of range: {link}")
    if link.weight <= 0:
        raise ValueError("soft link weight must be positive")
    state._advance(link.day)
    i = state.slot_of_account(link.u)
    j = state.slot_of_account(link.v)
    if i == j:
        return state
    day = link.day if link.day is not None else state.now
    key = _edge_key(i, j)
    es = state.edges.get(key)
    if es is None:
        state.edges[key] = EdgeState(base_weight=link.weight, last_day=day)
        state.adj[i].add(j)
        state.adj[j].add(i)
    else:
        es.base_weight += link.weight
        es.last_day = max(es.last_day, day)
    state._online_update(i, j)
    return state


def apply_decay(state: PipelineState, now: float) -> PipelineState:
    """Advance the clock and prune edges whose effective weight has decayed away.

    Effective weights are computed lazily from (base weight, last event day),
    so decaying in two steps equals decaying once by the total interval.
    """
    if now < state.now:
        raise ValueError(f"time cannot run backwards ({now} < {state.now})")
    state.now = now
    for key in [k for k in state.edges if state.effective_weight(k, now) < PRUNE_THRESHOLD]:
        i, j = key
        del state.edges[key]
        state.adj[i].discard(j)
        state.adj[j].discard(i)
    return state


def assign_new_to_clusters(state: PipelineState) -> PipelineState:
    """Give pending super-nodes the label of their cosine-nearest clustered
    neighbor when that distance is within the threshold; otherwise noise."""
    if not state.pending:
        return state
    labeled = np.flatnonzero(state.labels >= 0)
    candidates = sorted(
        s for s in state.pending if float(np.linalg.norm(state.embedding[s])) > 0.0
    )
    if labeled.size == 0:
        for s in candidates:
            state.labels[s] = -1
            state.pending.discard(s)
        return state
    anchor = state.embedding[labeled]
    for s in candidates:
        dists = 1.0 - anchor @ state.embedding[s]
        best = int(np.argmin(dists))
        if float(dists[best]) <= state.nn_threshold:
            state.labels[s] = state.labels[labeled[best]]
        else:
            state.labels[s] = -1
        state.pending.discard(s)
    return state


def full_refresh(
    state: PipelineState, cfg: EmbeddingConfig, params: ClusterParams
) -> PipelineState:
    """Retrain embeddings from the current (decayed) graph and re-cluster.

    The training seed is derived from (config seed, refresh counter) so repeated
    refreshes explore fresh sample streams; state arrays are re-indexed into
    canonical slot order.
    """
    apply_decay(state, state.now)
    graph, order = state.snapshot(decayed=True)
    seed = int(
        np.random.SeedSequence([cfg.seed & _SEED_MASK, state.refresh_count]).generate_state(1)[0]
    )
    emb = embed_graph(graph, replace(cfg, seed=seed))
    assignment = cluster(emb, params)

    new_of = {old: new for new, old in enumerate(order)}
    edges = {_edge_key(new_of[i], new_of[j]): es for (i, j), es in state.edges.items()}
    state._adopt(graph, emb.vectors, assignment.labels, edges)
    state.refresh_count += 1
    return state


# -- event log ---------------------------------------------------------------


def apply_event(state: PipelineState, event: UpdateEvent) -> PipelineState:
    if event.kind == "new_account":
        return apply_new_account(state, event.token, day=event.day)
    if event.kind == "hard_link":
        link = HardLink(state.resolve(event.token_u), state.resolve(event.token_v), event.link_kind)
        return apply_hard_link(state, link, day=event.day)
    if event.kind == "soft_link":
        link = SoftLink(
            state.resolve(event.token_u),
            state.resolve(event.token_v),
            event.link_kind,
            event.weight,
            event.day,
        )
        return apply_soft_link(state, link)
    raise ValueError(f"unknown event kind {event.kind!r}")


def replay_events(state: PipelineState, events: Iterable[UpdateEvent]) -> PipelineState:
    for event in events:
        apply_event(state, event)
    return state


def format_event(event: UpdateEvent) -> str:
    if event.kind == "new_account":
        return f"A\t{event.token}\t{event.day:g}"
    if event.kind == "hard_link":
        return f"H\t{event.token_u}\t{event.link_kind}\t{event.token_v}\t{event.day:g}"
    if event.kind == "soft_link":
        return (
            f"S\t{event.token_u}\t{event.link_kind}\t{event.token_v}"
            f"\t{event.weight:g}\t{event.day:g}"
        )
    raise ValueError(f"unknown event kind {event.kind!r}")


def write_update_log(events: Iterable[UpdateEvent], out: TextIO) -> None:
    for event in events:
        out.write(format_event(event) + "\n")


def parse_update_log(source: Iterable[str]) -> list[UpdateEvent]:
    """Parse ``A``/``H``/``S`` records; timestamps must be non-decreasing."""
    events: list[UpdateEvent] = []
    last_day = -math.inf
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        tag = parts[0]
        try:
            if tag == "A" and len(parts) == 3:
                event = UpdateEvent.new_account(parts[1], float(parts[2]))
            elif tag == "H" and len(parts) == 5:
                if parts[2] not in HARD_KINDS:
                    raise GraphParseError(f"unknown hard-link kind {parts[2]!r}", lineno)
                event = UpdateEvent.hard_link(parts[1], parts[2], parts[3], float(parts[4]))
            elif tag == "S" and len(parts) == 6:
                if parts[2] not in SOFT_KINDS:
                    raise GraphParseError(f"unknown soft-link kind {parts[2]!r}", lineno)
                weight = float(parts[4])
                if not (weight > 0 and math.isfinite(weight)):
                    raise GraphParseError("weight must be positive and finite", lineno)
                event = UpdateEvent.soft_link(parts[1], parts[2], parts[3], weight, float(parts[5]))
            else:
                raise GraphParseError(f"unrecognized update record {tag!r}", lineno)
        except ValueError as exc:
            if isinstance(exc, GraphParseError):
                raise
            raise GraphParseError(f"bad update record: {exc}", lineno) from None
        if not math.isfinite(event.day):
            raise GraphParseError("timestamp must be finite", lineno)
        if event.day < last_day:
            raise GraphParseError("timestamps must be non-decreasing", lineno)
        last_day = event.day
        events.append(event)
    return events
