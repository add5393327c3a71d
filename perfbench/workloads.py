"""The benchmark workloads: inputs from a seed, the timed operation, output checks.

Each workload is chosen so that one layer of fraudrings does most of its work:

* ``batch``     - the whole pipeline on a planted-ring graph; LINE SGD dominates.
* ``recluster`` - the cluster stage over a ``min_cluster_size`` sweep on an
  embedding made here, not by the embedding layer; core distances and MST dominate.
* ``replay``    - streamed account and link events applied to a live state.

A workload object has ``setup`` (runs in a child process, writes the inputs),
``prepare`` (untimed, once per repetition), ``run`` (the timed operation),
``checks`` (output checks, each failure counts in the error rate),
``score`` (detection quality and workload-specific numbers) and ``artifacts``
(the files a repetition writes, which must be byte-identical across repetitions).
"""

from __future__ import annotations

import hashlib
import math
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fraudrings import clustering, embedding, evaluation, graph, incremental, pipeline
from fraudrings.clustering import ClusterParams
from fraudrings.embedding import CombinedEmbedding
from fraudrings.evaluation import GroundTruth, SynthConfig
from fraudrings.graph import HardLink, HeterogeneousGraph, SoftLink, SuperNode, TransformedGraph

SIZES = {
    "full": {
        # precision is known to fall at this scale (ROADMAP item 5), so the
        # size is kept rather than shrunk to make runs shorter
        "batch": {"n_legit": 3000, "n_rings": 60},
        "recluster": {"rows": 5000, "dim": 128, "group_share": 0.4, "zero_share": 0.05,
                      "noise": 0.15, "sweep": (5, 8, 12)},
        # half the profiling base; about 9% of accounts are held out, so some
        # twenty fraud accounts stream in and stream_coverage is not read off
        # a handful of them
        "replay": {"n_legit": 1500, "n_rings": 30, "soft_events": 700, "days": 20},
    },
    "tiny": {
        "batch": {"n_legit": 200, "n_rings": 5},
        "recluster": {"rows": 300, "dim": 16, "group_share": 0.4, "zero_share": 0.05,
                      "noise": 0.15, "sweep": (5, 8)},
        "replay": {"n_legit": 200, "n_rings": 5, "soft_events": 60, "days": 5},
    },
}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one timed repetition produced, beyond its artifacts on disk."""

    value: object
    operations: int = 1
    failed: int = 0
    latencies: dict = field(default_factory=dict)


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def tail(samples) -> tuple[float, float, int] | None:
    """Highest of the listed percentiles with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(samples, p)), n
    return None


def _write_links(g: HeterogeneousGraph, hard_path: Path, soft_path: Path) -> None:
    with open(hard_path, "w", encoding="utf-8") as fh:
        for link in g.hard_links:
            fh.write(f"{g.tokens[link.u]}\t{link.kind}\t{g.tokens[link.v]}\n")
    with open(soft_path, "w", encoding="utf-8") as fh:
        for link in g.soft_links:
            fh.write(f"{g.tokens[link.u]}\t{link.kind}\t{g.tokens[link.v]}\t{link.weight:g}\n")


def _write_truth(truth: GroundTruth, tokens, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        evaluation.write_ground_truth(truth, tokens, fh)


def _read_truth(path: Path, tokens) -> GroundTruth:
    with open(path, encoding="utf-8") as fh:
        return evaluation.read_ground_truth(fh, {t: i for i, t in enumerate(tokens)})


def _quality(labels, truth: GroundTruth, membership) -> dict[str, float]:
    out = {}
    for name, fn in (("coverage", evaluation.coverage), ("precision", evaluation.precision),
                     ("purity", evaluation.purity)):
        value = fn(labels, truth, membership)
        out[name] = 0.0 if value is None else value
    return out


def _parse_report(path: Path) -> list[tuple[int, float, int, list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    head = lines[0].split()
    if head[0] != "#ranked_clusters" or int(head[1]) != len(lines) - 1:
        raise ValueError("report header does not match its row count")
    rows = []
    for expected_rank, line in enumerate(lines[1:], start=1):
        rank, cid, score, n_acc, tokens = line.split("\t")
        members = tokens.split(",")
        if int(rank) != expected_rank or int(n_acc) != len(members):
            raise ValueError(f"bad report row {line[:60]!r}")
        rows.append((int(cid), float(score), int(n_acc), members))
    scores = [r[1] for r in rows]
    if any(a < b for a, b in zip(scores, scores[1:])):
        raise ValueError("report is not sorted by score")
    return rows


def _try(name: str, fn) -> Check:
    try:
        detail = fn()
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return Check(name, False, f"{type(exc).__name__}: {exc}")
    if detail is True or detail is None:
        return Check(name, True)
    return Check(name, False, str(detail))


def _matches_components(inp: Path, out: Path):
    """The written super-nodes are the hard-link components of the input link
    files (by ``scipy``), and the edge weight is the soft weight between them."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    index: dict[str, int] = {}
    hard = (inp / "hard_links.tsv").read_text(encoding="utf-8").splitlines()
    soft = (inp / "soft_links.tsv").read_text(encoding="utf-8").splitlines()
    hard = [line.split("\t") for line in hard]
    soft = [line.split("\t") for line in soft]
    for rec in hard + soft:
        index.setdefault(rec[0], len(index))
        index.setdefault(rec[2], len(index))
    n = len(index)
    hu = np.array([index[r[0]] for r in hard], dtype=np.int64)
    hv = np.array([index[r[2]] for r in hard], dtype=np.int64)
    adj = coo_matrix((np.ones(len(hu)), (hu, hv)), shape=(n, n))
    n_comp, comp = connected_components(adj, directed=False)
    # repeated (pair, kind) observations collapse to the first weight
    first: dict[tuple, float] = {}
    for r in soft:
        u, v = index[r[0]], index[r[2]]
        key = (min(u, v), max(u, v), r[1])
        first.setdefault(key, float(r[3]) if len(r) > 3 else 1.0)
    expected = sum(w for (u, v, _), w in first.items() if comp[u] != comp[v])

    lines = (out / "transformed.tsv").read_text(encoding="utf-8").splitlines()
    declared = int(lines[0].split()[1])
    sid = np.empty(n, dtype=np.int64)
    seen = 0
    written = 0.0
    n_edges = 0
    for line in lines[1:]:
        parts = line.split("\t")
        if parts[0] == "E":
            written += float(parts[3])
            n_edges += 1
        else:
            sid[index[parts[0]]] = int(parts[1])
            seen += 1
    if seen != n:
        return f"{seen} accounts written, {n} in the input"
    if declared != n_comp:
        return f"{declared} super-nodes, {n_comp} hard-link components"
    if len(set(zip(sid.tolist(), comp.tolist()))) != n_comp:
        return "super-nodes differ from hard-link components"
    if abs(written - expected) > 1e-6 * (1 + n_edges):
        return f"edge weight {written} != inter-component soft weight {expected}"
    return True


class Workload:
    # per-layer metrics expected to take most of a traced repetition
    DOMINANT: tuple[str, ...] = ()

    def finish(self, result: Outcome, out: Path) -> None:
        """Untimed work after a repetition; most workloads need none."""


# -- batch -------------------------------------------------------------------


class Batch(Workload):
    """Planted-ring link files through ``run_pipeline`` with the default config."""

    name = "batch"
    DOMINANT = ("embedding.first_s", "embedding.second_s")
    ARTIFACTS = ("transformed.tsv", "embedding.tsv", "clusters.tsv", "report.tsv")

    def setup(self, seed: int, size: dict, d: Path) -> dict:
        g, truth = evaluation.generate(
            SynthConfig(n_legit=size["n_legit"], n_rings=size["n_rings"], seed=seed)
        )
        _write_links(g, d / "hard_links.tsv", d / "soft_links.tsv")
        _write_truth(truth, g.tokens, d / "ground_truth.tsv")
        return {"accounts": g.num_accounts, "hard_links": len(g.hard_links),
                "soft_links": len(g.soft_links), "fraud_accounts": len(truth.fraud_accounts)}

    def prepare(self, inp: Path, size: dict):
        return pipeline.PipelineConfig(
            hard_links=str(inp / "hard_links.tsv"), soft_links=str(inp / "soft_links.tsv")
        )

    def run(self, cfg, out: Path) -> Outcome:
        cfg.out_dir = str(out)
        return Outcome(pipeline.run_pipeline(cfg))

    def artifacts(self, out: Path) -> list[Path]:
        return [out / n for n in self.ARTIFACTS]

    def checks(self, inp: Path, size: dict, outs: list[Path]) -> list[Check]:
        out = outs[0]

        def parses_back():
            with open(out / "transformed.tsv", encoding="utf-8") as fh:
                t = graph.read_transformed_graph(fh)
            with open(out / "embedding.tsv", encoding="utf-8") as fh:
                e = embedding.read_embedding(fh)
            with open(out / "clusters.tsv", encoding="utf-8") as fh:
                a = clustering.read_cluster_assignment(fh)
            report = _parse_report(out / "report.tsv")
            k = t.num_supernodes
            if e.num_rows != k or len(a.labels) != k:
                return f"rows: {k} super-nodes, {e.num_rows} embedding, {len(a.labels)} labels"
            if len(report) != a.n_clusters:
                return f"{len(report)} report rows for {a.n_clusters} clusters"
            return True

        return [_try("artifacts parse back", parses_back),
                _try("super-nodes and weights match scipy components",
                     lambda: _matches_components(inp, out))]

    def score(self, inp: Path, size: dict, result) -> dict:
        res = result.value
        truth = _read_truth(inp / "ground_truth.tsv", res.transformed.tokens)
        q = _quality(res.assignment, truth, res.transformed.membership)
        q["sizes"] = {"supernodes": res.transformed.num_supernodes,
                      "edges": len(res.transformed.edges),
                      "clusters": res.assignment.n_clusters}
        return q


# -- recluster ---------------------------------------------------------------


class Recluster(Workload):
    """The cluster stage (cluster, rank, write) over a ``min_cluster_size`` sweep."""

    name = "recluster"
    DOMINANT = ("clustering.core_s", "clustering.mst_s")

    def setup(self, seed: int, size: dict, d: Path) -> dict:
        rng = np.random.default_rng([seed, 0xC1])
        n, dim = size["rows"], size["dim"]
        rows, group_of = [], []
        n_groups = 0
        while len(rows) < size["group_share"] * n:
            center = rng.standard_normal(dim)
            center /= np.linalg.norm(center)
            for _ in range(int(rng.integers(5, 16))):
                rows.append(center + size["noise"] * rng.standard_normal(dim) / math.sqrt(dim))
                group_of.append(n_groups)
            n_groups += 1
        n_zero = round(size["zero_share"] * n)
        while len(rows) < n - n_zero:
            rows.append(rng.standard_normal(dim))
            group_of.append(-1)
        while len(rows) < n:
            rows.append(np.zeros(dim))
            group_of.append(-2)
        perm = rng.permutation(len(rows))
        X = np.array(rows)[perm]
        groups = np.array(group_of)[perm]
        norms = np.linalg.norm(X, axis=1)
        zero = norms == 0.0
        X[~zero] /= norms[~zero, None]
        emb = CombinedEmbedding(vectors=X, normalized=True, zero_rows=zero)
        tokens = [f"V{i:06d}" for i in range(len(X))]
        singletons = TransformedGraph(
            super_nodes=[SuperNode(id=i, members=(i,)) for i in range(len(X))],
            edges=[],
            membership=np.arange(len(X), dtype=np.int64),
            tokens=tokens,
        )
        with open(d / "embedding.tsv", "w", encoding="utf-8") as fh:
            embedding.write_embedding(emb, fh)
        with open(d / "transformed.tsv", "w", encoding="utf-8") as fh:
            graph.write_transformed_graph(singletons, fh)
        ring_of = {i: int(g) for i, g in enumerate(groups) if g >= 0}
        _write_truth(GroundTruth(set(ring_of), ring_of), tokens, d / "ground_truth.tsv")
        np.save(d / "zero_rows.npy", zero)
        return {"rows": len(X), "dim": dim, "groups": n_groups, "group_rows": len(ring_of),
                "zero_rows": int(zero.sum()), "sweep": list(size["sweep"])}

    def prepare(self, inp: Path, size: dict):
        return inp, size["sweep"]

    def run(self, ctx, out: Path) -> Outcome:
        inp, sweep = ctx
        with open(inp / "transformed.tsv", encoding="utf-8") as fh:
            transformed = graph.read_transformed_graph(fh)
        with open(inp / "embedding.tsv", encoding="utf-8") as fh:
            emb = embedding.read_embedding(fh)
        assignments = {}
        for mcs in sweep:
            cfg = pipeline.PipelineConfig(clustering=ClusterParams(min_cluster_size=mcs))
            assignment = clustering.cluster(emb, cfg.clustering)
            with open(out / f"labels_{mcs}.tsv", "w", encoding="utf-8") as fh:
                clustering.write_cluster_assignment(assignment, fh)
            ranked = pipeline.rank_clusters(transformed, emb, assignment, cfg)
            with open(out / f"report_{mcs}.tsv", "w", encoding="utf-8") as fh:
                pipeline.write_report(ranked, fh)
            assignments[mcs] = assignment
        return Outcome((transformed, assignments), operations=len(sweep))

    def artifacts(self, out: Path) -> list[Path]:
        return sorted(out.glob("labels_*.tsv")) + sorted(out.glob("report_*.tsv"))

    def checks(self, inp: Path, size: dict, outs: list[Path]) -> list[Check]:
        zero = np.load(inp / "zero_rows.npy")
        checks = []
        for mcs in size["sweep"]:
            def valid(mcs=mcs):
                with open(outs[0] / f"labels_{mcs}.tsv", encoding="utf-8") as fh:
                    labels = clustering.read_cluster_assignment(fh).labels
                if len(labels) != len(zero):
                    return f"{len(labels)} labels for {len(zero)} rows"
                if labels.min(initial=0) < -1:
                    return "label below -1"
                sizes = np.bincount(labels[labels >= 0])
                if sizes.size and sizes.min() == 0:
                    return "cluster ids are not dense"
                if (labels[zero] != -1).any():
                    return f"{int((labels[zero] != -1).sum())} all-zero rows not noise"
                if sizes.size and sizes.min() < mcs:
                    return f"a cluster has {sizes.min()} rows < min_cluster_size {mcs}"
                if len(_parse_report(outs[0] / f"report_{mcs}.tsv")) != sizes.size:
                    return "report rows differ from cluster count"
                return True

            checks.append(_try(f"min_cluster_size={mcs}: labels are a valid partition", valid))
        return checks

    def score(self, inp: Path, size: dict, result) -> dict:
        transformed, assignments = result.value
        first = size["sweep"][0]
        truth = _read_truth(inp / "ground_truth.tsv", transformed.tokens)
        q = _quality(assignments[first], truth, transformed.membership)
        q["sizes"] = {f"clusters_at_{m}": a.n_clusters for m, a in assignments.items()}
        return q


# -- replay ------------------------------------------------------------------


class Replay(Workload):
    """Held-out accounts and their links streamed into a ``PipelineState``.

    A closed loop: one writer applies the log back to back, as ``replay`` does.
    """

    name = "replay"
    DOMINANT = ("incremental.soft_link.busy_s",)
    KINDS = ("new_account", "hard_link", "soft_link")

    def setup(self, seed: int, size: dict, d: Path) -> dict:
        g, truth = evaluation.generate(
            SynthConfig(n_legit=size["n_legit"], n_rings=size["n_rings"], seed=seed)
        )
        rng = np.random.default_rng([seed, 0x57])
        # accounts are held out in random order until their links make a fixed
        # number of soft-link events: soft links carry nearly all the work, so
        # sizing the stream by them keeps the work per seed the same
        incident: dict[int, list[int]] = {}
        for i, s in enumerate(g.soft_links):
            incident.setdefault(s.u, []).append(i)
            incident.setdefault(s.v, []).append(i)
        held, streamed_soft = [], set()
        for a in rng.permutation(g.num_accounts).tolist():
            if len(streamed_soft) >= size["soft_events"]:
                break
            held.append(a)
            streamed_soft.update(incident.get(a, ()))
        days = np.sort(rng.integers(1, size["days"] + 1, size=len(held)))
        pos = {a: i for i, a in enumerate(held)}

        def arrival(a: int) -> int:
            return pos.get(a, -1)

        base = HeterogeneousGraph.from_links(
            g.tokens,
            [h for h in g.hard_links if arrival(h.u) < 0 and arrival(h.v) < 0],
            [s for s in g.soft_links if arrival(s.u) < 0 and arrival(s.v) < 0],
        )
        _write_links(base, d / "hard_links.tsv", d / "soft_links.tsv")
        hard_at: dict[int, list[HardLink]] = {}
        soft_at: dict[int, list[SoftLink]] = {}
        for h in g.hard_links:
            if max(arrival(h.u), arrival(h.v)) >= 0:
                hard_at.setdefault(max(arrival(h.u), arrival(h.v)), []).append(h)
        for s in g.soft_links:
            if max(arrival(s.u), arrival(s.v)) >= 0:
                soft_at.setdefault(max(arrival(s.u), arrival(s.v)), []).append(s)
        tok = g.tokens
        # an account whose every link involves a held-out account is absent
        # from the base files; it is registered when its first link streams in
        present = {a for link in base.hard_links + base.soft_links for a in (link.u, link.v)}
        events = []

        def register(account: int, day: float) -> None:
            if account not in present:
                present.add(account)
                events.append(incremental.UpdateEvent.new_account(tok[account], day))

        for i, account in enumerate(held):
            day = float(days[i])
            register(account, day)
            for h in hard_at.get(i, ()):
                register(h.u, day)
                register(h.v, day)
                events.append(incremental.UpdateEvent.hard_link(tok[h.u], h.kind, tok[h.v], day))
            for s in soft_at.get(i, ()):
                register(s.u, day)
                register(s.v, day)
                events.append(
                    incremental.UpdateEvent.soft_link(tok[s.u], s.kind, tok[s.v], s.weight, day)
                )
        with open(d / "updates.tsv", "w", encoding="utf-8") as fh:
            incremental.write_update_log(events, fh)
        _write_truth(truth, tok, d / "ground_truth.tsv")

        # the base batch run and hand-over, as the replay command does them
        cfg = pipeline.PipelineConfig()
        with open(d / "hard_links.tsv", encoding="utf-8") as hard_fh, open(
            d / "soft_links.tsv", encoding="utf-8"
        ) as soft_fh:
            ingested = graph.ingest_edges(hard_fh, soft_fh)
        transformed = graph.transform(ingested)
        emb = embedding.embed_graph(transformed, cfg.embedding)
        assignment = clustering.cluster(emb, cfg.clustering)
        state = incremental.PipelineState.from_batch(
            transformed, emb, assignment,
            decay_lambda=cfg.decay_lambda, nn_threshold=cfg.nn_threshold,
            seed=cfg.embedding.seed,
        )
        with open(d / "state.pkl", "wb") as fh:
            pickle.dump(state, fh)
        per_kind = {k: sum(e.kind == k for e in events) for k in self.KINDS}
        return {"base_accounts": transformed.num_accounts,
                "base_supernodes": transformed.num_supernodes,
                "base_edges": len(transformed.edges), "held_out": len(held),
                "events": per_kind, "days": int(len(set(days.tolist())))}

    def prepare(self, inp: Path, size: dict):
        with open(inp / "state.pkl", "rb") as fh:
            return pickle.load(fh), inp / "updates.tsv"

    def run(self, ctx, out: Path) -> Outcome:
        state, log = ctx
        with open(log, encoding="utf-8") as fh:
            events = incremental.parse_update_log(fh)
        lat = {k: [] for k in self.KINDS}
        rejected = decays = 0
        clock = time.perf_counter
        day = state.now
        for ev in events:
            if ev.day > day:
                incremental.apply_decay(state, ev.day)
                decays += 1
                day = ev.day
            try:
                if ev.kind == "new_account":
                    t0 = clock()
                    incremental.apply_new_account(state, ev.token, day=ev.day)
                elif ev.kind == "hard_link":
                    link = HardLink(state.resolve(ev.token_u), state.resolve(ev.token_v), ev.link_kind)
                    t0 = clock()
                    incremental.apply_hard_link(state, link, day=ev.day)
                else:
                    link = SoftLink(state.resolve(ev.token_u), state.resolve(ev.token_v),
                                    ev.link_kind, ev.weight, ev.day)
                    t0 = clock()
                    incremental.apply_soft_link(state, link)
            except (KeyError, ValueError):
                rejected += 1
                continue
            lat[ev.kind].append(clock() - t0)
        incremental.assign_new_to_clusters(state)
        ops = len(events) + decays + 1
        return Outcome((state, events), operations=ops, failed=rejected, latencies=lat)

    def finish(self, result: Outcome, out: Path) -> None:
        """Write the undecayed snapshot and its labels, as ``replay`` does."""
        state, events = result.value
        snapshot, order = state.snapshot(decayed=False)
        labels = state.labels[order]
        with open(out / "snapshot_graph.tsv", "w", encoding="utf-8") as fh:
            graph.write_transformed_graph(snapshot, fh)
        with open(out / "snapshot_labels.tsv", "w", encoding="utf-8") as fh:
            fh.writelines(f"{i}\t{label}\n" for i, label in enumerate(labels.tolist()))
        result.value = (state, snapshot, labels, events)

    def artifacts(self, out: Path) -> list[Path]:
        return [out / "snapshot_graph.tsv", out / "snapshot_labels.tsv"]

    def checks(self, inp: Path, size: dict, outs: list[Path]) -> list[Check]:
        def equals_batch():
            with open(inp / "updates.tsv", encoding="utf-8") as fh:
                events = incremental.parse_update_log(fh)
            with open(outs[0] / "snapshot_graph.tsv", encoding="utf-8") as fh:
                snapshot = graph.read_transformed_graph(fh)
            with open(inp / "hard_links.tsv", encoding="utf-8") as hard_fh, open(
                inp / "soft_links.tsv", encoding="utf-8"
            ) as soft_fh:
                base = graph.ingest_edges(hard_fh, soft_fh)
            tokens = list(base.tokens)
            index = dict(base.token_index)
            hard, soft = list(base.hard_links), list(base.soft_links)
            for ev in events:
                if ev.kind == "new_account":
                    index[ev.token] = len(tokens)
                    tokens.append(ev.token)
                elif ev.kind == "hard_link":
                    hard.append(HardLink(index[ev.token_u], index[ev.token_v], ev.link_kind))
                else:
                    soft.append(SoftLink(index[ev.token_u], index[ev.token_v], ev.link_kind,
                                         ev.weight, ev.day))
            batch = graph.transform(HeterogeneousGraph.from_links(tokens, hard, soft))
            if snapshot.tokens != batch.tokens:
                return "account order differs"
            if not np.array_equal(snapshot.membership, batch.membership):
                return "super-node partition differs from batch transform"
            if [e[:2] for e in snapshot.edges] != [e[:2] for e in batch.edges]:
                return f"{len(snapshot.edges)} edges vs {len(batch.edges)} in batch transform"
            worst = max((abs(a[2] - b[2]) / max(1.0, abs(b[2]))
                         for a, b in zip(snapshot.edges, batch.edges)), default=0.0)
            if worst > 1e-9:
                return f"edge weights differ by up to {worst:.3g}"
            return True

        return [_try("undecayed snapshot equals batch transform of all links", equals_batch)]

    def score(self, inp: Path, size: dict, result) -> dict:
        state, snapshot, labels, events = result.value
        truth = _read_truth(inp / "ground_truth.tsv", state.tokens)
        q = _quality(labels, truth, snapshot.membership)
        streamed = [state.token_index[e.token] for e in events if e.kind == "new_account"]
        clustered = {a for a in streamed if state.labels[state.slot_of_account(a)] >= 0}
        fraud = [a for a in streamed if a in truth.fraud_accounts]
        q["stream_coverage"] = sum(a in clustered for a in fraud) / len(fraud) if fraud else 0.0
        q["stream_precision"] = (
            sum(a in truth.fraud_accounts for a in clustered) / len(clustered) if clustered else 0.0
        )
        q["sizes"] = {"supernodes_end": state.num_supernodes, "edges_end": len(state.edges),
                      "streamed_fraud_clustered": sum(a in clustered for a in fraud),
                      "streamed_fraud": len(fraud), "streamed_clustered": len(clustered),
                      "streamed": len(streamed)}
        return q


WORKLOADS = {w.name: w for w in (Batch(), Recluster(), Replay())}


def setup_burst(workload: str, seed: int, size_name: str, work: str, trace: bool,
                first: int, budget_s: float) -> list[dict]:
    """Runs in the set-up process: sets up back to back for ``budget_s`` seconds, at least once.

    Set-up ``k`` writes its inputs to ``work/setup<k>``, numbered from
    ``first``; only ``setup0`` is kept, later ones are digested and deleted.
    Each set-up reports its time, the time of ``evaluation.generate`` in it
    (traced runs only), the digest of its inputs, its sizes and its spans.
    """
    import shutil

    import tracing

    made: list[dict] = []
    start = time.perf_counter()
    while not made or time.perf_counter() - start < budget_s:
        k = first + len(made)
        d = Path(work) / f"setup{k}"
        d.mkdir(parents=True)
        tracer = tracing.Tracer()
        saved = tracing.install(tracer) if trace else []
        try:
            t0 = time.perf_counter()
            sizes = WORKLOADS[workload].setup(seed, SIZES[size_name][workload], d)
            setup_s = time.perf_counter() - t0
        finally:
            tracing.uninstall(saved)
        made.append({
            "setup_s": setup_s,
            "generate_s": sum(s.duration for s in tracer.spans if s.name == "evaluation.generate"),
            "digest": digest(sorted(d.iterdir())),
            "sizes": sizes,
            "spans": tracer.dump(),
        })
        if k > 0:
            shutil.rmtree(d)
    return made
