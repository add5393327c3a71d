"""Heterogeneous account graphs: hard/soft links, components, super-node transformation.

Hard links are high-confidence identity edges (shared phone, email, card, ID,
bank account) and are used only to merge accounts into super-nodes.  Soft links
are weighted behavioral edges (shared device, cookie, IP address); their
weights are aggregated between super-nodes to build the transformed graph.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

logger = logging.getLogger(__name__)

HARD_KINDS = ("phone", "email", "credit_card", "national_id", "bank_account")
SOFT_KINDS = ("device_fingerprint", "cookie", "ip_address")


class GraphParseError(ValueError):
    """Malformed link record; remembers the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class HardLink(NamedTuple):
    """Undirected identity edge between two account indices."""

    u: int
    v: int
    kind: str


class SoftLink(NamedTuple):
    """Undirected weighted behavioral edge; ``day`` enables temporal decay."""

    u: int
    v: int
    kind: str
    weight: float = 1.0
    day: float | None = None


@dataclass
class IngestStats:
    hard_records: int = 0
    soft_records: int = 0
    self_loops_skipped: int = 0
    duplicate_hard_links: int = 0
    collapsed_soft_links: int = 0


@dataclass
class HeterogeneousGraph:
    """Account graph with typed edge sets.

    Account identifiers are dense 0-based indices; ``tokens`` maps an index
    back to the external token and ``token_index`` is the inverse.  A completed
    graph is treated as immutable and may be shared across threads.
    """

    tokens: list[str]
    hard_links: list[HardLink]
    soft_links: list[SoftLink]
    ingest_stats: IngestStats | None = None
    token_index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.token_index:
            self.token_index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_index) != len(self.tokens):
            raise ValueError("account tokens must be unique")

    @property
    def num_accounts(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_links(
        cls,
        tokens: Sequence[str],
        hard_links: Iterable[HardLink],
        soft_links: Iterable[SoftLink],
    ) -> "HeterogeneousGraph":
        """Build a graph from already-indexed links, validating invariants."""
        n = len(tokens)
        hard = [HardLink(*h) for h in hard_links]
        soft = [SoftLink(*s) for s in soft_links]
        for e in hard:
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise ValueError(f"hard link endpoint out of range: {e}")
            if e.u == e.v:
                raise ValueError(f"hard link self-loop: {e}")
        for e in soft:
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise ValueError(f"soft link endpoint out of range: {e}")
            if e.u == e.v:
                raise ValueError(f"soft link self-loop: {e}")
            if e.weight <= 0:
                raise ValueError(f"soft link weight must be positive: {e}")
        return cls(list(tokens), hard, soft)


class UnionFind:
    """Disjoint sets over dense indices with path halving and union by rank.

    ``find(u) == find(v)`` exactly when u and v are connected by the edges
    passed to :meth:`union`; the merge order never changes the final partition.
    """

    __slots__ = ("parent", "rank")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self.rank[ru] < self.rank[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        if self.rank[ru] == self.rank[rv]:
            self.rank[ru] += 1
        return True


@dataclass(frozen=True)
class SuperNode:
    """Maximal hard-link connected component treated as one vertex."""

    id: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class TransformedGraph:
    """Super-node graph with aggregated soft-link weights.

    Edges are stored once per unordered pair with i < j and positive weight;
    within-component soft links are discarded during construction.
    """

    super_nodes: list[SuperNode]
    edges: list[tuple[int, int, float]]
    membership: np.ndarray
    tokens: list[str]

    @property
    def num_supernodes(self) -> int:
        return len(self.super_nodes)

    @property
    def num_accounts(self) -> int:
        return len(self.tokens)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge endpoints and weights as parallel arrays (empty-safe)."""
        if not self.edges:
            z = np.zeros(0, dtype=np.int64)
            return z, z.copy(), np.zeros(0, dtype=np.float64)
        ei = np.fromiter((e[0] for e in self.edges), dtype=np.int64, count=len(self.edges))
        ej = np.fromiter((e[1] for e in self.edges), dtype=np.int64, count=len(self.edges))
        ew = np.fromiter((e[2] for e in self.edges), dtype=np.float64, count=len(self.edges))
        return ei, ej, ew

    def weighted_degrees(self) -> np.ndarray:
        """Per-super-node sum of incident edge weights."""
        deg = np.zeros(self.num_supernodes, dtype=np.float64)
        ei, ej, ew = self.edge_arrays()
        np.add.at(deg, ei, ew)
        np.add.at(deg, ej, ew)
        return deg


def ingest_edges(
    hard_source: Iterable[str], soft_source: Iterable[str]
) -> HeterogeneousGraph:
    """Parse hard- and soft-link record streams into a graph.

    Record formats (tab-separated, ``#`` lines are comments):
      hard: ``token_u <TAB> kind <TAB> token_v``
      soft: ``token_u <TAB> kind <TAB> token_v [<TAB> weight [<TAB> day]]``

    Duplicate hard links are dropped silently.  Repeated soft observations of
    the same (pair, kind) collapse into a single link: the first weight is
    kept (weight defaults to 1, the binary per-kind convention) and the
    timestamp is advanced to the most recent observation.  Self-loops are
    skipped and counted, not fatal; their endpoints still register as
    accounts.
    """
    tokens: list[str] = []
    index: dict[str, int] = {}
    stats = IngestStats()

    def intern(token: str, lineno: int) -> int:
        if not token:
            raise GraphParseError("empty account token", lineno)
        i = index.get(token)
        if i is None:
            i = len(tokens)
            index[token] = i
            tokens.append(token)
        return i

    hard_links: list[HardLink] = []
    hard_seen: set[tuple[int, int, str]] = set()
    for lineno, line in enumerate(hard_source, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise GraphParseError(
                f"expected 3 tab-separated fields in hard-link record, got {len(parts)}",
                lineno,
            )
        tu, kind, tv = parts
        if kind not in HARD_KINDS:
            raise GraphParseError(f"unknown hard-link kind {kind!r}", lineno)
        u, v = intern(tu, lineno), intern(tv, lineno)
        stats.hard_records += 1
        if u == v:
            stats.self_loops_skipped += 1
            continue
        key = (min(u, v), max(u, v), kind)
        if key in hard_seen:
            stats.duplicate_hard_links += 1
            continue
        hard_seen.add(key)
        hard_links.append(HardLink(key[0], key[1], kind))

    soft_links: list[SoftLink] = []
    soft_at: dict[tuple[int, int, str], int] = {}
    for lineno, line in enumerate(soft_source, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 3 or len(parts) > 5:
            raise GraphParseError(
                f"expected 3-5 tab-separated fields in soft-link record, got {len(parts)}",
                lineno,
            )
        tu, kind, tv = parts[0], parts[1], parts[2]
        if kind not in SOFT_KINDS:
            raise GraphParseError(f"unknown soft-link kind {kind!r}", lineno)
        weight = 1.0
        day: float | None = None
        if len(parts) >= 4:
            try:
                weight = float(parts[3])
            except ValueError:
                raise GraphParseError(f"bad weight {parts[3]!r}", lineno) from None
            if not (weight > 0 and math.isfinite(weight)):
                raise GraphParseError(f"weight must be positive and finite, got {weight}", lineno)
        if len(parts) == 5:
            try:
                day = float(parts[4])
            except ValueError:
                raise GraphParseError(f"bad timestamp {parts[4]!r}", lineno) from None
            if not math.isfinite(day):
                raise GraphParseError(f"timestamp must be finite, got {day}", lineno)
        u, v = intern(tu, lineno), intern(tv, lineno)
        stats.soft_records += 1
        if u == v:
            stats.self_loops_skipped += 1
            continue
        key = (min(u, v), max(u, v), kind)
        at = soft_at.get(key)
        if at is not None:
            stats.collapsed_soft_links += 1
            prev = soft_links[at]
            if day is not None and (prev.day is None or day > prev.day):
                soft_links[at] = prev._replace(day=day)
            continue
        soft_at[key] = len(soft_links)
        soft_links.append(SoftLink(key[0], key[1], kind, weight, day))

    if stats.self_loops_skipped:
        logger.warning("skipped %d self-loop link records", stats.self_loops_skipped)
    graph = HeterogeneousGraph(tokens, hard_links, soft_links)
    graph.ingest_stats = stats
    return graph


def find_components(graph: HeterogeneousGraph) -> UnionFind:
    """Union all hard links; the result partitions accounts by hard-link reachability."""
    uf = UnionFind(graph.num_accounts)
    union = uf.union
    for link in graph.hard_links:
        union(link.u, link.v)
    return uf


def build_supernodes(
    graph: HeterogeneousGraph, uf: UnionFind
) -> tuple[list[SuperNode], np.ndarray]:
    """Group accounts into super-nodes, indexed by ascending smallest member.

    Returns the super-node list and a per-account membership array.
    """
    n = graph.num_accounts
    find = uf.find
    # ascending account order means insertion order already sorts by smallest member
    members_by_root: dict[int, list[int]] = {}
    for a in range(n):
        members_by_root.setdefault(find(a), []).append(a)
    membership = np.empty(n, dtype=np.int64)
    super_nodes: list[SuperNode] = []
    for sid, members in enumerate(members_by_root.values()):
        for a in members:
            membership[a] = sid
        super_nodes.append(SuperNode(id=sid, members=tuple(members)))
    return super_nodes, membership


def _aggregate(
    graph: HeterogeneousGraph,
    super_nodes: list[SuperNode],
    membership: np.ndarray,
) -> TransformedGraph:
    member_of = membership.tolist()
    k = len(super_nodes)
    # single packed-int keys keep the hot accumulation loop allocation-free
    weights: dict[int, float] = {}
    get = weights.get
    for link in graph.soft_links:
        si = member_of[link.u]
        sj = member_of[link.v]
        if si == sj:
            continue  # internal to one super-node: redundant
        key = si * k + sj if si < sj else sj * k + si
        weights[key] = get(key, 0.0) + link.weight
    edges = [(key // k, key % k, w) for key, w in weights.items()]
    edges.sort(key=lambda e: (e[0], e[1]))
    return TransformedGraph(
        super_nodes=super_nodes,
        edges=edges,
        membership=membership,
        tokens=list(graph.tokens),
    )


def transform(graph: HeterogeneousGraph) -> TransformedGraph:
    """Full transformation: components -> super-nodes -> aggregated soft edges."""
    uf = find_components(graph)
    super_nodes, membership = build_supernodes(graph, uf)
    return _aggregate(graph, super_nodes, membership)


def write_transformed_graph(graph: TransformedGraph, out: TextIO) -> None:
    """Serialize a transformed graph.

    Header ``#supernodes <k>``, then one membership line per account
    (``token <TAB> supernode_id``), then edges ``E <TAB> i <TAB> j <TAB> weight``
    with weights printed to 6 decimal places.
    """
    out.write(f"#supernodes {graph.num_supernodes}\n")
    member_of = graph.membership.tolist()
    for a, token in enumerate(graph.tokens):
        out.write(f"{token}\t{member_of[a]}\n")
    for i, j, w in graph.edges:
        out.write(f"E\t{i}\t{j}\t{w:.6f}\n")


def read_transformed_graph(source: Iterable[str]) -> TransformedGraph:
    """Parse the format produced by :func:`write_transformed_graph`."""
    tokens: list[str] = []
    member_of: list[int] = []
    edges: list[tuple[int, int, float]] = []
    pairs: set[tuple[int, int]] = set()
    seen_tokens: set[str] = set()
    declared: int | None = None
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#supernodes"):
            try:
                declared = int(line.split()[1])
            except (IndexError, ValueError):
                raise GraphParseError("bad #supernodes header", lineno) from None
            continue
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts[0] == "E":
            if len(parts) != 4:
                raise GraphParseError("edge line needs 4 fields", lineno)
            try:
                i, j, w = int(parts[1]), int(parts[2]), float(parts[3])
            except ValueError:
                raise GraphParseError("bad edge fields", lineno) from None
            if i < 0 or j < 0:
                raise GraphParseError("negative edge endpoint", lineno)
            if i == j:
                raise GraphParseError("self-edge in transformed graph", lineno)
            if not (w > 0 and math.isfinite(w)):
                raise GraphParseError("edge weight must be positive and finite", lineno)
            pair = (min(i, j), max(i, j))
            if pair in pairs:
                raise GraphParseError(f"duplicate edge {pair[0]}-{pair[1]}", lineno)
            pairs.add(pair)
            edges.append((*pair, w))
            continue
        if len(parts) != 2:
            raise GraphParseError("membership line needs 2 fields", lineno)
        try:
            sid = int(parts[1])
        except ValueError:
            raise GraphParseError("bad super-node id", lineno) from None
        if parts[0] in seen_tokens:
            raise GraphParseError(f"repeated account token {parts[0]!r}", lineno)
        seen_tokens.add(parts[0])
        tokens.append(parts[0])
        member_of.append(sid)

    k = max(member_of) + 1 if member_of else 0
    if declared is not None and declared != k:
        raise GraphParseError(f"header declares {declared} super-nodes, found {k}")
    members: list[list[int]] = [[] for _ in range(k)]
    for a, sid in enumerate(member_of):
        if not 0 <= sid < k:
            raise GraphParseError(f"super-node id {sid} out of range")
        members[sid].append(a)
    supers = [SuperNode(id=s, members=tuple(m)) for s, m in enumerate(members)]
    for s in supers:
        if not s.members:
            raise GraphParseError(f"super-node {s.id} has no members")
    for i, j, _ in edges:
        if j >= k:
            raise GraphParseError(f"edge endpoint {j} out of range")
    edges.sort(key=lambda e: (e[0], e[1]))
    return TransformedGraph(
        super_nodes=supers,
        edges=edges,
        membership=np.asarray(member_of, dtype=np.int64),
        tokens=tokens,
    )
