"""Live-state updates: merges, increments, decay, assignment, refresh, replay."""

import copy
import io
import math

import numpy as np
import pytest

from fraudrings import incremental
from fraudrings.clustering import ClusterParams, cluster
from fraudrings.embedding import EmbeddingConfig, _sgd_block, embed_graph
from fraudrings.graph import (
    GraphParseError,
    HardLink,
    HeterogeneousGraph,
    SoftLink,
    transform,
)
from fraudrings.incremental import (
    ONLINE_LEARNING_RATE,
    DuplicateAccountError,
    PipelineState,
    UnknownAccountError,
    UpdateEvent,
    apply_decay,
    apply_event,
    apply_hard_link,
    apply_new_account,
    apply_soft_link,
    assign_new_to_clusters,
    full_refresh,
    parse_update_log,
    replay_events,
    write_update_log,
)

from helpers import (
    accumulated_graph,
    canonical_partition,
    random_event_log,
    random_hetero_graph,
)
from oracles import sequential_sgd_step


def empty_state(**kwargs) -> PipelineState:
    kwargs.setdefault("dim", 4)
    kwargs.setdefault("online_samples_per_edge", 0)  # geometry-free tests
    return PipelineState(**kwargs)


def seeded_state(tokens, hard=(), soft=(), dim=4, **kwargs) -> PipelineState:
    state = empty_state(dim=dim, **kwargs)
    for token in tokens:
        apply_new_account(state, token)
    for u, kind, v in hard:
        apply_hard_link(state, HardLink(state.resolve(u), state.resolve(v), kind))
    for u, kind, v, w in soft:
        apply_soft_link(state, SoftLink(state.resolve(u), state.resolve(v), kind, w))
    return state


def state_partition(state):
    return canonical_partition(state.snapshot(decayed=False)[0].membership)


def undecayed_weights(state):
    graph = state.snapshot(decayed=False)[0]
    out = {}
    for i, j, w in graph.edges:
        a = graph.super_nodes[i].members[0]
        b = graph.super_nodes[j].members[0]
        out[(min(a, b), max(a, b))] = w
    return out


class TestNewAccount:
    def test_single_account(self):
        state = empty_state()
        apply_new_account(state, "x")
        assert state.num_supernodes == 1
        assert state.num_accounts == 1
        assert not state.edges
        assert state.labels.tolist() == [-1]
        assert np.all(state.embedding == 0.0)

    def test_growth_is_exact(self):
        state = empty_state()
        for i in range(25):
            apply_new_account(state, f"t{i}")
        assert state.num_supernodes == 25

    def test_duplicate_token_rejected(self):
        state = empty_state()
        apply_new_account(state, "x")
        with pytest.raises(DuplicateAccountError):
            apply_new_account(state, "x")


class TestHardLink:
    def test_size_weighted_merge_direction(self):
        state = seeded_state(["a", "b", "c", "d"])
        # build a 3-account super-node {a,b,c} then merge with {d}
        apply_hard_link(state, HardLink(0, 1, "phone"))
        apply_hard_link(state, HardLink(1, 2, "phone"))
        big = state.slot_of_account(0)
        small = state.slot_of_account(3)
        state.embedding[big] = np.array([1.0, 0.0, 0.0, 0.0])
        state.embedding[small] = np.array([0.0, 1.0, 0.0, 0.0])
        apply_hard_link(state, HardLink(0, 3, "email"))
        merged = state.slot_of_account(0)
        expected = np.array([0.75, 0.25, 0.0, 0.0])
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(state.embedding[merged], expected, atol=1e-12)

    def test_same_supernode_is_noop(self):
        state = seeded_state(["a", "b"], hard=[("a", "phone", "b")])
        before = copy.deepcopy(undecayed_weights(state))
        partition = state_partition(state)
        apply_hard_link(state, HardLink(0, 1, "email"))
        assert state_partition(state) == partition
        assert undecayed_weights(state) == before

    def test_neighbor_weights_sum_on_merge(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 12))
            state = seeded_state([f"t{i}" for i in range(n)])
            for _ in range(int(rng.integers(1, 3 * n))):
                u, v = rng.integers(0, n, 2)
                if u == v:
                    continue
                apply_soft_link(
                    state,
                    SoftLink(int(u), int(v), "cookie", float(rng.integers(1, 5)) * 0.5),
                )
            u, v = rng.integers(0, n, 2)
            if u == v or state.slot_of_account(int(u)) == state.slot_of_account(int(v)):
                continue
            si = state.slot_of_account(int(u))
            sj = state.slot_of_account(int(v))
            expected = {}
            for (a, b), es in state.edges.items():
                if {a, b} == {si, sj}:
                    continue  # becomes internal
                key_nodes = []
                for slot in (a, b):
                    key_nodes.append("M" if slot in (si, sj) else state.members[slot][0])
                key = frozenset(key_nodes)
                expected[key] = expected.get(key, 0.0) + es.base_weight
            apply_hard_link(state, HardLink(int(u), int(v), "phone"))
            merged_slot = state.slot_of_account(int(u))
            got = {}
            for (a, b), es in state.edges.items():
                key_nodes = [
                    "M" if slot == merged_slot else state.members[slot][0]
                    for slot in (a, b)
                ]
                got[frozenset(key_nodes)] = got.get(frozenset(key_nodes), 0.0) + es.base_weight
            assert got == expected

    def test_internal_edge_dropped(self):
        state = seeded_state(
            ["a", "b"], soft=[("a", "device_fingerprint", "b", 2.0)]
        )
        assert len(state.edges) == 1
        apply_hard_link(state, HardLink(0, 1, "phone"))
        assert not state.edges
        assert state.num_supernodes == 1

    def test_unknown_endpoint_rejected(self):
        state = seeded_state(["a"])
        with pytest.raises(UnknownAccountError):
            apply_hard_link(state, HardLink(0, 5, "phone"))

    def test_merge_convexity(self, rng):
        for _ in range(20):
            state = seeded_state(["a", "b", "c"])
            # grow {a,b} so the merge weights are 2:1
            apply_hard_link(state, HardLink(0, 1, "phone"))
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            state.embedding[state.slot_of_account(0)] = u
            state.embedding[state.slot_of_account(2)] = v
            apply_hard_link(state, HardLink(0, 2, "email"))
            merged = state.embedding[state.slot_of_account(0)]
            expected = (2.0 * u + 1.0 * v) / 3.0
            expected /= np.linalg.norm(expected)
            np.testing.assert_allclose(merged, expected, atol=1e-12)


class TestSoftLink:
    def test_new_edge_created(self):
        state = seeded_state(["a", "b"])
        apply_soft_link(state, SoftLink(0, 1, "cookie", 1.5))
        assert undecayed_weights(state) == {(0, 1): 1.5}

    def test_intra_supernode_discarded(self):
        state = seeded_state(["a", "b"], hard=[("a", "phone", "b")])
        apply_soft_link(state, SoftLink(0, 1, "cookie", 1.0))
        assert not state.edges

    def test_repeated_increments_sum(self):
        state = seeded_state(["a", "b"])
        for _ in range(3):
            apply_soft_link(state, SoftLink(0, 1, "ip_address", 1.0))
        assert undecayed_weights(state) == {(0, 1): 3.0}

    def test_unknown_endpoint_rejected(self):
        state = seeded_state(["a"])
        with pytest.raises(UnknownAccountError):
            apply_soft_link(state, SoftLink(0, 7, "cookie", 1.0))

    def test_online_update_moves_new_node_toward_neighbor(self):
        state = PipelineState(dim=4, seed=3, online_samples_per_edge=50)
        for token in ("a", "b", "c"):
            apply_new_account(state, token)
        state.embedding[state.slot_of_account(1)] = np.array([1.0, 0.0, 0.0, 0.0])
        apply_soft_link(state, SoftLink(0, 1, "cookie", 1.0))
        moved = state.embedding[state.slot_of_account(0)]
        assert np.linalg.norm(moved) == pytest.approx(1.0, abs=1e-9)
        assert float(moved @ np.array([1.0, 0.0, 0.0, 0.0])) > 0.0


def spy_on_kernel(monkeypatch) -> list[tuple]:
    """Record (rows before, rows after, src, targets, rate) per kernel call."""
    calls = []

    def spy(vertex, context, src, targets, rate):
        before = vertex.copy()
        _sgd_block(vertex, context, src, targets, rate)
        calls.append((before, vertex.copy(), src, targets, rate))

    monkeypatch.setattr(incremental, "_sgd_block", spy)
    return calls


class TestOnlineTouchUp:
    def test_one_block_within_second_order_of_sequential_steps(self, monkeypatch):
        rng = np.random.default_rng(31)
        state = PipelineState(dim=16, seed=6, online_samples_per_edge=0)
        for t in range(30):
            apply_new_account(state, f"a{t}")
        for _ in range(60):
            u, v = rng.choice(30, 2, replace=False)
            apply_soft_link(state, SoftLink(int(u), int(v), "cookie", 1.0))
        rows = rng.normal(size=(30, 16))
        state.embedding[:] = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        state.online_samples_per_edge = 100
        calls = spy_on_kernel(monkeypatch)
        apply_soft_link(state, SoftLink(0, 1, "cookie", 1.0))
        assert len(calls) == 1
        before, after, src, targets, rate = calls[0]
        samples, lr = len(src), ONLINE_LEARNING_RATE
        # rows start at unit norm and a sample moves a row by about lr, so no
        # row moves by more than about samples * lr in the call; reading the
        # block's start values instead of the latest ones costs the square
        tol = (samples * lr) ** 2
        seq = before.copy()
        for s in range(samples):
            live = rate[s, 1:] > 0
            negatives = [int(x) for x in targets[s, 1:][live]]
            sequential_sgd_step(seq, seq, int(src[s]), int(targets[s, 0]), negatives, lr)
        assert np.linalg.norm(after - seq, axis=1).max() <= tol
        # the touch-up moves rows by far more than the tolerance
        assert np.linalg.norm(after - before, axis=1).max() > 10 * tol


class TestDecay:
    def test_zero_elapsed_keeps_weight(self):
        state = seeded_state(["a", "b"], soft=[("a", "cookie", "b", 1.0)])
        apply_decay(state, state.now)
        assert state.effective_weight((0, 1)) == pytest.approx(1.0)

    def test_hundred_days_at_default_lambda(self):
        state = seeded_state(["a", "b"], soft=[("a", "cookie", "b", 1.0)])
        apply_decay(state, 100.0)
        assert state.effective_weight((0, 1)) == pytest.approx(
            math.exp(-1.0), abs=1e-6
        )

    def test_composition_of_decays(self):
        state = seeded_state(["a", "b"], soft=[("a", "cookie", "b", 2.0)])
        apply_decay(state, 40.0)
        apply_decay(state, 100.0)
        assert state.effective_weight((0, 1)) == pytest.approx(
            2.0 * math.exp(-0.01 * 100.0), abs=1e-12
        )

    def test_zero_lambda_is_identity(self):
        state = seeded_state(["a", "b"], soft=[("a", "cookie", "b", 1.5)], decay_lambda=0.0)
        apply_decay(state, 10_000.0)
        assert state.effective_weight((0, 1)) == 1.5
        assert (0, 1) in state.edges

    def test_tiny_weights_pruned(self):
        state = seeded_state(["a", "b"], soft=[("a", "cookie", "b", 1.0)])
        apply_decay(state, 3000.0)  # e^-30 is far below the prune threshold
        assert not state.edges
        assert not state.adj[0] and not state.adj[1]

    def test_decay_never_increases(self):
        state = seeded_state(["a", "b"], soft=[("a", "cookie", "b", 1.0)])
        previous = state.effective_weight((0, 1))
        for day in (5.0, 12.0, 40.0):
            apply_decay(state, day)
            current = state.effective_weight((0, 1))
            assert current <= previous
            previous = current

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, rate):
        with pytest.raises(ValueError):
            PipelineState(decay_lambda=rate)

    def test_time_reversal_rejected(self):
        state = seeded_state(["a"])
        apply_decay(state, 5.0)
        with pytest.raises(ValueError):
            apply_decay(state, 4.0)

    def test_increment_resets_establishment_day(self):
        state = seeded_state(["a", "b"])
        apply_soft_link(state, SoftLink(0, 1, "cookie", 1.0, 0.0))
        apply_soft_link(state, SoftLink(0, 1, "cookie", 1.0, 50.0))
        # both units decay from day 50, the latest observation
        assert state.effective_weight((0, 1), now=50.0) == pytest.approx(2.0)


class TestAssignNewToClusters:
    def base_state(self):
        state = seeded_state(["a", "b", "c", "d"])
        state.labels = np.array([0, 0, -1, -1], dtype=np.int64)
        state.embedding = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        state.pending = {2, 3}
        return state

    def test_exact_match_inherits_label(self):
        state = self.base_state()
        state.embedding[2] = np.array([1.0, 0.0, 0.0, 0.0])
        assign_new_to_clusters(state)
        assert state.labels[2] == 0

    def test_orthogonal_stays_noise(self):
        state = self.base_state()
        state.embedding[2] = np.array([0.0, 0.0, 1.0, 0.0])
        assign_new_to_clusters(state)
        assert state.labels[2] == -1
        assert 2 not in state.pending

    def test_zero_embedding_left_pending(self):
        state = self.base_state()
        assign_new_to_clusters(state)
        assert state.labels[3] == -1
        assert 3 in state.pending

    def test_no_clusters_all_noise(self):
        state = self.base_state()
        state.labels = np.full(4, -1, dtype=np.int64)
        state.embedding[2] = np.array([1.0, 0.0, 0.0, 0.0])
        assign_new_to_clusters(state)
        assert np.all(state.labels == -1)

    def test_matches_linear_scan_oracle(self, rng):
        n = 200
        state = seeded_state([f"t{i}" for i in range(n)], dim=8)
        vectors = rng.normal(size=(n, 8))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        state.embedding = vectors
        labels = np.array([i % 4 if i < 100 else -1 for i in range(n)], dtype=np.int64)
        state.labels = labels.copy()
        state.pending = set(range(100, n))
        assign_new_to_clusters(state)
        anchors = np.flatnonzero(labels >= 0)
        for s in range(100, n):
            dists = [1.0 - float(vectors[a] @ vectors[s]) for a in anchors]
            best = int(np.argmin(dists))
            expected = labels[anchors[best]] if dists[best] <= 0.3 else -1
            assert state.labels[s] == expected


def bootstrap_state(seed=0):
    rng = np.random.default_rng(seed)
    tokens = [f"t{i}" for i in range(30)]
    hard = [HardLink(int(2 * i), int(2 * i + 1), "phone") for i in range(5)]
    soft = []
    for _ in range(60):
        u, v = rng.integers(0, 30, 2)
        if u != v:
            soft.append(SoftLink(int(u), int(v), "cookie", 1.0))
    g = HeterogeneousGraph.from_links(tokens, hard, soft)
    t = transform(g)
    cfg = EmbeddingConfig(dim_total=16, epochs=2, seed=seed)
    emb = embed_graph(t, cfg)
    asn = cluster(emb, ClusterParams(min_cluster_size=3))
    return PipelineState.from_batch(t, emb, asn, seed=seed), cfg


class TestFullRefresh:
    def test_refresh_deterministic_from_same_state(self):
        state, cfg = bootstrap_state()
        a = copy.deepcopy(state)
        b = copy.deepcopy(state)
        full_refresh(a, cfg, ClusterParams(min_cluster_size=3))
        full_refresh(b, cfg, ClusterParams(min_cluster_size=3))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.embedding, b.embedding)

    def test_refresh_counter_changes_seed_stream(self):
        state, cfg = bootstrap_state()
        a = copy.deepcopy(state)
        full_refresh(a, cfg, ClusterParams(min_cluster_size=3))
        assert a.refresh_count == 1

    def test_degenerate_single_supernode_goes_noise(self):
        state = seeded_state(["a", "b", "c"])
        apply_hard_link(state, HardLink(0, 1, "phone"))
        apply_hard_link(state, HardLink(1, 2, "phone"))
        full_refresh(state, EmbeddingConfig(dim_total=4), ClusterParams())
        assert state.num_supernodes == 1
        assert state.labels.tolist() == [-1]

    def test_refresh_preserves_partition_and_weights(self):
        state, cfg = bootstrap_state(3)
        partition = state_partition(state)
        weights = undecayed_weights(state)
        full_refresh(state, cfg, ClusterParams(min_cluster_size=3))
        assert state_partition(state) == partition
        assert undecayed_weights(state) == pytest.approx(weights)


def check_state_invariants(state):
    """Structural consistency: slots, account->slot map, edges, and adjacency agree."""
    seen_accounts = []
    for slot, members in enumerate(state.members):
        assert members and members == sorted(members)
        assert all(state.slot_of[a] == slot for a in members)
        seen_accounts.extend(members)
    assert sorted(seen_accounts) == list(range(state.num_accounts))
    assert len(state.slot_of) == state.num_accounts
    assert state.embedding.shape == (state.num_supernodes, state.dim)
    assert len(state.labels) == state.num_supernodes
    for (i, j), es in state.edges.items():
        assert 0 <= i < j < state.num_supernodes
        assert es.base_weight > 0
        assert j in state.adj[i] and i in state.adj[j]
    assert sorted(state.adj) == list(range(state.num_supernodes))
    for slot, neighbors in state.adj.items():
        for nb in neighbors:
            assert (min(slot, nb), max(slot, nb)) in state.edges
    assert all(0 <= s < state.num_supernodes for s in state.pending)


class TestStateConsistency:
    def test_invariants_hold_through_event_storms(self):
        for trial in range(10):
            rng = np.random.default_rng(7000 + trial)
            state = PipelineState(dim=4, seed=trial, online_samples_per_edge=5)
            replay_events(state, random_event_log(rng))
            check_state_invariants(state)
            apply_decay(state, state.now + float(rng.integers(0, 200)))
            check_state_invariants(state)
            full_refresh(
                state,
                EmbeddingConfig(dim_total=4, epochs=1),
                ClusterParams(min_cluster_size=3),
            )
            check_state_invariants(state)
            # the state must stay usable after a refresh re-indexes the slots
            replay_events(state, [
                UpdateEvent.new_account("post0", state.now),
                UpdateEvent.new_account("post1", state.now),
                UpdateEvent.soft_link("post0", "cookie", "post1", 1.0, state.now),
            ])
            check_state_invariants(state)

    def test_same_seed_replay_bit_identical(self, monkeypatch):
        calls = spy_on_kernel(monkeypatch)
        base = transform(random_hetero_graph(np.random.default_rng(44), max_accounts=60))
        emb = embed_graph(base, EmbeddingConfig(dim_total=8, epochs=2, seed=3))
        asn = cluster(emb, ClusterParams(min_cluster_size=3))
        events = random_event_log(np.random.default_rng(45))
        runs = []
        for _ in range(2):
            state = PipelineState.from_batch(base, emb, asn, seed=12)
            replay_events(state, events)
            runs.append(state)
        assert max(len(src) for _, _, src, _, _ in calls) > 1
        assert np.array_equal(runs[0].embedding, runs[1].embedding)
        assert np.array_equal(runs[0].labels, runs[1].labels)

    def test_bootstrap_plus_events_matches_batch(self, rng):
        base_tokens = [f"b{i}" for i in range(12)]
        base_hard = [HardLink(0, 1, "phone"), HardLink(4, 5, "email")]
        base_soft = [
            SoftLink(0, 2, "cookie", 1.0),
            SoftLink(2, 6, "ip_address", 0.5),
            SoftLink(7, 8, "device_fingerprint", 2.0),
        ]
        base = HeterogeneousGraph.from_links(base_tokens, base_hard, base_soft)
        t = transform(base)
        emb = embed_graph(t, EmbeddingConfig(dim_total=8, epochs=1, seed=0))
        asn = cluster(emb, ClusterParams(min_cluster_size=3))
        state = PipelineState.from_batch(t, emb, asn)
        state.online_samples_per_edge = 0
        events = [
            UpdateEvent.new_account("x", 1.0),
            UpdateEvent.hard_link("b2", "phone", "b3", 2.0),
            UpdateEvent.soft_link("x", "cookie", "b0", 1.5, 3.0),
            UpdateEvent.hard_link("b0", "national_id", "b4", 4.0),
            UpdateEvent.soft_link("b7", "device_fingerprint", "b8", 1.0, 5.0),
        ]
        replay_events(state, events)
        check_state_invariants(state)
        all_tokens = base_tokens + ["x"]
        idx = {t: i for i, t in enumerate(all_tokens)}
        hard = list(base_hard) + [
            HardLink(idx["b2"], idx["b3"], "phone"),
            HardLink(idx["b0"], idx["b4"], "national_id"),
        ]
        soft = list(base_soft) + [
            SoftLink(idx["x"], idx["b0"], "cookie", 1.5),
            SoftLink(idx["b7"], idx["b8"], "device_fingerprint", 1.0),
        ]
        batch = transform(HeterogeneousGraph.from_links(all_tokens, hard, soft))
        assert state_partition(state) == canonical_partition(batch.membership)
        assert undecayed_weights(state) == {
            (min(batch.super_nodes[i].members[0], batch.super_nodes[j].members[0]),
             max(batch.super_nodes[i].members[0], batch.super_nodes[j].members[0])): w
            for i, j, w in batch.edges
        }


class TestBatchEquivalence:
    def test_incremental_matches_batch_transform(self, rng):
        for trial in range(30):
            events = random_event_log(np.random.default_rng(500 + trial))
            state = empty_state()
            replay_events(state, events)
            batch = transform(accumulated_graph(events))
            assert state_partition(state) == canonical_partition(batch.membership)
            batch_weights = {}
            for i, j, w in batch.edges:
                a = batch.super_nodes[i].members[0]
                b = batch.super_nodes[j].members[0]
                batch_weights[(min(a, b), max(a, b))] = w
            assert undecayed_weights(state) == batch_weights

    def test_merge_order_does_not_matter(self, rng):
        state1 = seeded_state([f"t{i}" for i in range(8)])
        state2 = seeded_state([f"t{i}" for i in range(8)])
        links = [HardLink(0, 1, "phone"), HardLink(1, 2, "phone"), HardLink(5, 6, "email")]
        for link in links:
            apply_hard_link(state1, link)
        for link in reversed(links):
            apply_hard_link(state2, link)
        assert state_partition(state1) == state_partition(state2)


class TestUpdateLog:
    def test_round_trip(self):
        events = [
            UpdateEvent.new_account("a", 0.0),
            UpdateEvent.new_account("b", 1.0),
            UpdateEvent.hard_link("a", "phone", "b", 2.0),
            UpdateEvent.soft_link("a", "cookie", "b", 1.5, 3.0),
        ]
        buf = io.StringIO()
        write_update_log(events, buf)
        back = parse_update_log(buf.getvalue().splitlines())
        assert back == events

    def test_non_monotonic_timestamps_rejected(self):
        lines = ["A\tx\t5", "A\ty\t4"]
        with pytest.raises(GraphParseError):
            parse_update_log(lines)

    @pytest.mark.parametrize(
        "line",
        [
            "Z\tx\t1",
            "H\ta\tphone\tb",
            "S\ta\tcookie\tb\t-1\t2",
            "H\ta\tbad\tb\t1",
            "S\ta\tcookie\tb\tnan\t2",
            "S\ta\tcookie\tb\tinf\t2",
            "S\ta\tcookie\tb\t1\tnan",
            "A\tx\tnan",
            "A\tx\tinf",
            "H\ta\tphone\tb\t-inf",
        ],
    )
    def test_malformed_records_rejected(self, line):
        with pytest.raises(GraphParseError) as err:
            parse_update_log([line])
        assert err.value.line_number == 1

    def test_nan_day_cannot_hide_time_reversal(self):
        # NaN compares false both ways, so 5 -> nan -> 1 used to pass
        with pytest.raises(GraphParseError) as err:
            parse_update_log(["A\tx\t5", "A\ty\tnan", "A\tz\t1"])
        assert err.value.line_number == 2

    def test_apply_event_resolves_tokens(self):
        state = empty_state()
        apply_event(state, UpdateEvent.new_account("a", 0.0))
        apply_event(state, UpdateEvent.new_account("b", 0.0))
        apply_event(state, UpdateEvent.soft_link("a", "cookie", "b", 2.0, 1.0))
        assert undecayed_weights(state) == {(0, 1): 2.0}
        with pytest.raises(UnknownAccountError):
            apply_event(state, UpdateEvent.hard_link("a", "phone", "zz", 2.0))
