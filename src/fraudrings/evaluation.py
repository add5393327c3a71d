"""Synthetic planted-ring benchmark graphs and detection metrics.

There is no public analogue of a production linkage dataset, so evaluation
runs against generated graphs: a legitimate population with sparse family
hard links and background soft noise, plus planted fraud rings that are
densely soft-connected internally.  A configurable share of rings also shares
hard credentials; the rest are "synthetic identity" rings reachable only
through behavioral links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .clustering import ClusterAssignment
from .graph import (
    HARD_KINDS,
    SOFT_KINDS,
    GraphParseError,
    HardLink,
    HeterogeneousGraph,
    SoftLink,
    TransformedGraph,
)


class SynthConfigError(ValueError):
    """Infeasible generator configuration."""


@dataclass
class SynthConfig:
    n_legit: int = 1000
    n_rings: int = 20
    ring_size_range: tuple[int, int] = (5, 15)
    hard_link_density_in_ring: float = 0.5
    soft_link_density_in_ring: float = 0.5
    background_soft_noise: float = 0.001
    family_hard_link_rate: float = 0.05
    hard_ring_fraction: float = 0.75
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.ring_size_range
        if lo < 2:
            raise SynthConfigError("ring sizes must be >= 2")
        if lo > hi:
            raise SynthConfigError("ring_size_range must be (min, max) with min <= max")
        if self.n_legit < 0 or self.n_rings < 0:
            raise SynthConfigError("population counts must be non-negative")
        for name in (
            "hard_link_density_in_ring",
            "soft_link_density_in_ring",
            "background_soft_noise",
            "family_hard_link_rate",
            "hard_ring_fraction",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise SynthConfigError(f"{name} must be a probability in [0, 1]")


@dataclass
class GroundTruth:
    """Planted fraud accounts and their ring memberships."""

    fraud_accounts: set[int]
    ring_of: dict[int, int]

    def __post_init__(self) -> None:
        if set(self.ring_of) != self.fraud_accounts:
            raise ValueError("every fraud account must carry a ring id")


# ring-internal structure constants: fraudsters operate small account groups
# ("operators") tied by hard credentials, and rings stay above the smallest
# reportable entity count after consolidation so the planted truth remains
# recoverable in principle
_OPERATOR_CAP = 6
_OPERATOR_FLOOR = 6
_COOCCURRENCE_RATE = 2.0


def _ring_operators(
    rng: np.random.Generator, members: list[int], join_probability: float
) -> list[list[int]]:
    """Partition ring accounts into operator groups via chained joins."""
    groups = [[members[0]]]
    for account in members[1:]:
        if len(groups[-1]) < _OPERATOR_CAP and rng.random() < join_probability:
            groups[-1].append(account)
        else:
            groups.append([account])
    # keep enough distinct entities per ring; split the largest groups back up
    while len(groups) < min(_OPERATOR_FLOOR, len(members)):
        big = max(range(len(groups)), key=lambda gi: len(groups[gi]))
        grp = groups[big]
        groups[big] = grp[: len(grp) // 2]
        groups.insert(big + 1, grp[len(grp) // 2 :])
    return groups


def generate(cfg: SynthConfig) -> tuple[HeterogeneousGraph, GroundTruth]:
    """Deterministically generate a benchmark graph and its ground truth.

    Ring internals follow the patterns seen in coordinated fraud: a few hub
    accounts share their infrastructure (device, cookie, and IP) with every
    member, remaining member pairs link per-kind at the configured density,
    and in-ring links carry co-occurrence frequency weights.  The largest
    ``hard_ring_fraction`` of rings also consolidates into multi-account
    operators joined by hard credentials; the rest are synthetic-identity
    rings reachable through soft links only.
    """
    rng = np.random.default_rng(cfg.seed)
    lo, hi = cfg.ring_size_range
    sizes = [int(s) for s in rng.integers(lo, hi + 1, size=cfg.n_rings)]

    tokens = [f"L{i:06d}" for i in range(cfg.n_legit)]
    ring_members: list[list[int]] = []
    ring_of: dict[int, int] = {}
    for r, size in enumerate(sizes):
        members = []
        for k in range(size):
            account = len(tokens)
            tokens.append(f"R{r:03d}_{k:02d}")
            ring_of[account] = r
            members.append(account)
        ring_members.append(members)
    n_total = len(tokens)

    hard: list[HardLink] = []
    # insertion-ordered dict rather than a set: output order must not depend
    # on string hashing, or repeated runs would not be byte-identical
    soft: dict[tuple[int, int, str], SoftLink] = {}

    def add_soft(u: int, v: int, kind: str, weight: float = 1.0) -> None:
        key = (min(u, v), max(u, v), kind)
        if key not in soft:
            soft[key] = SoftLink(key[0], key[1], kind, weight)

    def random_kind(kinds: tuple[str, ...]) -> str:
        return kinds[int(rng.integers(0, len(kinds)))]

    # sparse family hard links among the legitimate population
    for i in range(1, cfg.n_legit):
        if rng.random() < cfg.family_hard_link_rate:
            j = int(rng.integers(0, i))
            hard.append(HardLink(j, i, random_kind(HARD_KINDS)))

    n_hard_rings = round(cfg.hard_ring_fraction * cfg.n_rings)
    by_size_desc = sorted(range(cfg.n_rings), key=lambda r: (-sizes[r], r))
    hard_equipped = set(by_size_desc[:n_hard_rings])

    for r, members in enumerate(ring_members):
        size = len(members)
        groups = [[m] for m in members]
        if r in hard_equipped:
            groups = _ring_operators(rng, members, cfg.hard_link_density_in_ring)
            for grp in groups:
                for x, y in zip(grp, grp[1:]):
                    hard.append(HardLink(x, y, random_kind(HARD_KINDS)))
        # hubs anchored in the largest operators; small cells share almost
        # everything, larger operations compartmentalize around fewer hubs
        n_hubs = min(4 if size <= 9 else 2, size)
        by_group_size = sorted(range(len(groups)), key=lambda gi: (-len(groups[gi]), gi))
        hubs = [groups[gi][0] for gi in by_group_size[:n_hubs]]
        for hub in hubs:
            for m in members:
                if m != hub:
                    for kind in SOFT_KINDS:
                        add_soft(hub, m, kind, 1.0 + rng.poisson(_COOCCURRENCE_RATE))
        for a in range(size):
            for b in range(a + 1, size):
                for kind in SOFT_KINDS:
                    if rng.random() < cfg.soft_link_density_in_ring:
                        w = 1.0 + rng.poisson(_COOCCURRENCE_RATE)
                        add_soft(members[a], members[b], kind, w)

    # background behavioral noise: one-off co-occurrences across the population
    if n_total >= 2 and cfg.background_soft_noise > 0.0:
        n_pairs = n_total * (n_total - 1) // 2
        count = int(rng.binomial(n_pairs, cfg.background_soft_noise))
        made = 0
        while made < count:
            u = int(rng.integers(0, n_total))
            v = int(rng.integers(0, n_total))
            if u == v:
                continue
            add_soft(u, v, random_kind(SOFT_KINDS))
            made += 1

    graph = HeterogeneousGraph.from_links(tokens, hard, list(soft.values()))
    truth = GroundTruth(fraud_accounts=set(ring_of), ring_of=ring_of)
    return graph, truth


# -- metrics ------------------------------------------------------------------


def _labels_array(assignment: ClusterAssignment | np.ndarray) -> np.ndarray:
    if isinstance(assignment, ClusterAssignment):
        return assignment.labels
    return np.asarray(assignment, dtype=np.int64)


def account_labels(
    assignment: ClusterAssignment | np.ndarray, membership: np.ndarray
) -> np.ndarray:
    """Expand super-node labels to accounts: members inherit their super-node's label."""
    labels = _labels_array(assignment)
    return labels[np.asarray(membership, dtype=np.int64)]


def coverage(
    assignment: ClusterAssignment | np.ndarray,
    truth: GroundTruth,
    membership: np.ndarray,
) -> float | None:
    """Fraction of fraud accounts that land in any non-noise cluster.

    Returns None when there are no known fraud accounts.
    """
    if not truth.fraud_accounts:
        return None
    per_account = account_labels(assignment, membership)
    fraud = np.fromiter(truth.fraud_accounts, dtype=np.int64)
    return float(np.mean(per_account[fraud] >= 0))


def precision(
    assignment: ClusterAssignment | np.ndarray,
    truth: GroundTruth,
    membership: np.ndarray,
) -> float | None:
    """Fraction of clustered accounts that are known fraud.

    Returns None when no account is clustered.
    """
    per_account = account_labels(assignment, membership)
    clustered = np.flatnonzero(per_account >= 0)
    if clustered.size == 0:
        return None
    fraud = truth.fraud_accounts
    hits = sum(1 for a in clustered.tolist() if a in fraud)
    return hits / clustered.size


def purity(
    assignment: ClusterAssignment | np.ndarray,
    truth: GroundTruth,
    membership: np.ndarray,
) -> float | None:
    """Mean over clusters of the dominant ground-truth label share.

    Fraud accounts carry their ring id; every legitimate account counts as its
    own label, so legitimate contamination strictly lowers purity.  Returns
    None when there are no clusters.
    """
    per_account = account_labels(assignment, membership)
    clusters: dict[int, list[int]] = {}
    for account, label in enumerate(per_account.tolist()):
        if label >= 0:
            clusters.setdefault(label, []).append(account)
    if not clusters:
        return None
    scores = []
    for members in clusters.values():
        counts: dict[object, int] = {}
        for a in members:
            key: object = truth.ring_of.get(a, ("legit", a))
            counts[key] = counts.get(key, 0) + 1
        scores.append(max(counts.values()) / len(members))
    return float(np.mean(scores))


def hard_only_labels(graph: TransformedGraph, min_accounts: int) -> np.ndarray:
    """Baseline labeling that uses no soft links: each super-node with at
    least ``min_accounts`` members is its own cluster, the rest is noise."""
    labels = np.full(graph.num_supernodes, -1, dtype=np.int64)
    next_label = 0
    for sn in graph.super_nodes:
        if sn.size >= min_accounts:
            labels[sn.id] = next_label
            next_label += 1
    return labels


# -- transformation statistics -------------------------------------------------


@dataclass
class TransformStats:
    nodes_before: int
    nodes_after: int
    hard_edges_before: int
    soft_edges_before: int
    edges_after: int
    avg_degree_before: float
    avg_degree_after: float
    density_before: float
    density_after: float
    node_reduction_ratio: float
    singleton_fraction: float
    small_fraction: float  # sizes 2-5
    large_fraction: float  # sizes > 5
    max_supernode_size: int

    def lines(self) -> list[str]:
        return [f"{k}={_fmt(v)}" for k, v in vars(self).items()]

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _density(nodes: int, edges: int) -> float:
    pairs = nodes * (nodes - 1) / 2
    return edges / pairs if pairs else 0.0


def transform_stats(graph: HeterogeneousGraph, transformed: TransformedGraph) -> TransformStats:
    """Size, degree, and super-node histogram report for a transformation."""
    nb = graph.num_accounts
    na = transformed.num_supernodes
    eb = len(graph.hard_links) + len(graph.soft_links)
    ea = len(transformed.edges)
    sizes = np.array([sn.size for sn in transformed.super_nodes], dtype=np.int64)
    total = sizes.size if sizes.size else 1
    return TransformStats(
        nodes_before=nb,
        nodes_after=na,
        hard_edges_before=len(graph.hard_links),
        soft_edges_before=len(graph.soft_links),
        edges_after=ea,
        avg_degree_before=2.0 * eb / nb if nb else 0.0,
        avg_degree_after=2.0 * ea / na if na else 0.0,
        density_before=_density(nb, eb),
        density_after=_density(na, ea),
        node_reduction_ratio=na / nb if nb else 1.0,
        singleton_fraction=float(np.sum(sizes == 1)) / total,
        small_fraction=float(np.sum((sizes >= 2) & (sizes <= 5))) / total,
        large_fraction=float(np.sum(sizes > 5)) / total,
        max_supernode_size=int(sizes.max()) if sizes.size else 0,
    )


# -- report and file formats ---------------------------------------------------


def format_metrics(
    cov: float | None, prec: float | None, pur: float | None
) -> list[str]:
    """Flat key=value metric lines; unavailable metrics print as n/a."""

    def fmt(v: float | None) -> str:
        return "n/a" if v is None else f"{v:.4f}"

    return [f"coverage={fmt(cov)}", f"precision={fmt(prec)}", f"purity={fmt(pur)}"]


def write_ground_truth(truth: GroundTruth, tokens: Sequence[str], out: TextIO) -> None:
    """One ``token <TAB> ring_id`` line per fraud account."""
    for account in sorted(truth.ring_of):
        out.write(f"{tokens[account]}\t{truth.ring_of[account]}\n")


def read_ground_truth(
    source: Iterable[str], token_index: Mapping[str, int]
) -> GroundTruth:
    ring_of: dict[int, int] = {}
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise GraphParseError("ground-truth line needs 2 fields", lineno)
        token, ring = parts
        if token not in token_index:
            raise GraphParseError(f"unknown account token {token!r}", lineno)
        if token_index[token] in ring_of:
            raise GraphParseError(f"repeated account token {token!r}", lineno)
        try:
            ring_of[token_index[token]] = int(ring)
        except ValueError:
            raise GraphParseError(f"bad ring id {ring!r}", lineno) from None
    return GroundTruth(fraud_accounts=set(ring_of), ring_of=ring_of)
