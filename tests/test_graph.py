"""Graph construction, component discovery, and transformation tests."""

import io

import numpy as np
import pytest

from fraudrings.graph import (
    GraphParseError,
    HardLink,
    HeterogeneousGraph,
    SoftLink,
    UnionFind,
    build_supernodes,
    find_components,
    ingest_edges,
    read_transformed_graph,
    transform,
    write_transformed_graph,
)
from fraudrings.pipeline import supernode_risks

from helpers import canonical_partition, random_hetero_graph
from oracles import bfs_partition, direct_soft_aggregation, partition_sets

# hard-link components {A1,A2,A4,A5} and {A6,A7,A9,A10,A11}; A3 and A8 have
# soft links only
FIXTURE_HARD = [
    "A1\tphone\tA2",
    "A1\temail\tA4",
    "A4\tcredit_card\tA5",
    "A6\tphone\tA7",
    "A7\tnational_id\tA9",
    "A9\tbank_account\tA10",
    "A10\temail\tA11",
]
FIXTURE_SOFT = [
    "A2\tdevice_fingerprint\tA3",
    "A3\tip_address\tA7",
    "A5\tdevice_fingerprint\tA6",
    "A4\tcookie\tA9",
    "A8\tip_address\tA10",
    "A1\tcookie\tA5",  # internal to the first component: dropped on transform
]


def fixture_graph() -> HeterogeneousGraph:
    return ingest_edges(FIXTURE_HARD, FIXTURE_SOFT)


class TestIngest:
    def test_basic_construction(self):
        g = ingest_edges(["A1\tphone\tA2", "A2\temail\tA4"], [])
        assert g.num_accounts == 3
        assert len(g.hard_links) == 2
        assert g.tokens == ["A1", "A2", "A4"]

    def test_repeated_soft_record_collapses_to_single_unit_link(self):
        g = ingest_edges([], ["u\tdevice_fingerprint\tv"] * 3)
        assert len(g.soft_links) == 1
        assert g.soft_links[0].weight == 1.0
        assert g.ingest_stats.collapsed_soft_links == 2

    def test_self_loop_skipped_with_warning_count(self):
        g = ingest_edges(["A1\tphone\tA1"], [])
        assert len(g.hard_links) == 0
        assert g.ingest_stats.self_loops_skipped == 1

    def test_duplicate_hard_links_are_idempotent(self):
        g = ingest_edges(["a\tphone\tb", "b\tphone\ta", "a\tphone\tb"], [])
        assert len(g.hard_links) == 1
        assert g.ingest_stats.duplicate_hard_links == 2

    def test_parallel_kinds_are_distinct_links(self):
        g = ingest_edges([], ["u\tdevice_fingerprint\tv", "u\tip_address\tv"])
        assert len(g.soft_links) == 2

    def test_collapse_keeps_latest_timestamp(self):
        g = ingest_edges(
            [], ["u\tcookie\tv\t1.0\t10", "u\tcookie\tv\t1.0\t25"]
        )
        assert g.soft_links[0].day == 25.0

    def test_weight_and_day_parsing(self):
        g = ingest_edges([], ["u\tip_address\tv\t2.5\t42"])
        link = g.soft_links[0]
        assert link.weight == 2.5
        assert link.day == 42.0

    @pytest.mark.parametrize(
        "line",
        [
            "A1\tphone",  # too few fields
            "A1\tnot_a_kind\tA2",
            "A1\tphone\tA2\textra",
        ],
    )
    def test_malformed_hard_record_raises_with_line_number(self, line):
        with pytest.raises(GraphParseError) as err:
            ingest_edges(["A1\tphone\tA2", line], [])
        assert err.value.line_number == 2

    @pytest.mark.parametrize(
        "line",
        [
            "u\tcookie\tv\t-1.0",  # non-positive weight
            "u\tcookie\tv\t0",
            "u\tbad_kind\tv",
            "u\tcookie\tv\tNaNish\t3",
            "u\tcookie\tv\tnan",
            "u\tcookie\tv\tinf",
            "u\tcookie\tv\t1.0\tnan",
            "u\tcookie\tv\t1.0\t-inf",
        ],
    )
    def test_malformed_soft_record_rejected(self, line):
        with pytest.raises(GraphParseError) as err:
            ingest_edges([], [line])
        assert err.value.line_number == 1

    def test_comment_and_blank_lines_ignored(self):
        g = ingest_edges(["# header", "", "a\tphone\tb"], ["# c", ""])
        assert g.num_accounts == 2


class TestUnionFind:
    def test_basic_merging(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert uf.union(1, 2)
        assert not uf.union(0, 2)
        assert uf.find(0) == uf.find(2)
        assert uf.find(0) != uf.find(3)
        assert len({uf.find(a) for a in range(5)}) == 3


class TestFindComponents:
    def test_fixture_partition(self):
        g = fixture_graph()
        uf = find_components(g)
        supers, membership = build_supernodes(g, uf)
        token_sets = {
            frozenset(g.tokens[a] for a in sn.members) for sn in supers
        }
        assert token_sets == {
            frozenset({"A1", "A2", "A4", "A5"}),
            frozenset({"A6", "A7", "A9", "A10", "A11"}),
            frozenset({"A3"}),
            frozenset({"A8"}),
        }

    def test_no_hard_links_gives_singletons(self):
        g = HeterogeneousGraph.from_links([f"t{i}" for i in range(7)], [], [])
        uf = find_components(g)
        assert len({uf.find(a) for a in range(7)}) == 7

    def test_matches_bfs_oracle_on_random_graphs(self, rng):
        for _ in range(50):
            g = random_hetero_graph(rng, max_accounts=20)
            uf = find_components(g)
            _, membership = build_supernodes(g, uf)
            oracle = bfs_partition(
                g.num_accounts, [(h.u, h.v) for h in g.hard_links]
            )
            assert canonical_partition(membership) == partition_sets(oracle)


class TestBuildSupernodes:
    def test_fixture_sizes(self):
        g = fixture_graph()
        supers, _ = build_supernodes(g, find_components(g))
        assert sorted(sn.size for sn in supers) == [1, 1, 4, 5]

    def test_singleton_graph(self):
        g = HeterogeneousGraph.from_links(["only"], [], [])
        supers, membership = build_supernodes(g, find_components(g))
        assert len(supers) == 1
        assert supers[0].size == 1
        assert membership.tolist() == [0]

    def test_members_sorted_and_ids_ordered_by_smallest_member(self, rng):
        for _ in range(20):
            g = random_hetero_graph(rng, max_accounts=30)
            supers, membership = build_supernodes(g, find_components(g))
            firsts = [sn.members[0] for sn in supers]
            assert firsts == sorted(firsts)
            for sn in supers:
                assert list(sn.members) == sorted(sn.members)
                for a in sn.members:
                    assert membership[a] == sn.id

    def test_risk_indicators_summed(self):
        g = HeterogeneousGraph.from_links(["a", "b", "c"], [HardLink(0, 1, "phone")], [])
        supers, membership = build_supernodes(g, find_components(g))
        risks = supernode_risks(membership, np.array([1.0, 2.5, 4.0]), len(supers))
        assert risks[0] == pytest.approx(3.5)
        assert risks[1] == pytest.approx(4.0)


class TestAggregateSoftLinks:
    def test_parallel_kinds_and_pairs_sum(self):
        # two super-nodes {u1,u2} and {v1,v2}; three unit links between them
        g = HeterogeneousGraph.from_links(
            ["u1", "u2", "v1", "v2"],
            [HardLink(0, 1, "phone"), HardLink(2, 3, "email")],
            [
                SoftLink(0, 2, "device_fingerprint", 1.0),
                SoftLink(0, 2, "ip_address", 1.0),
                SoftLink(1, 3, "cookie", 1.0),
            ],
        )
        t = transform(g)
        assert t.edges == [(0, 1, 3.0)]

    def test_internal_links_dropped(self):
        g = HeterogeneousGraph.from_links(
            ["a", "b"],
            [HardLink(0, 1, "phone")],
            [SoftLink(0, 1, "cookie", 5.0)],
        )
        t = transform(g)
        assert t.edges == []

    def test_matches_direct_evaluation_oracle(self, rng):
        for _ in range(50):
            g = random_hetero_graph(rng, max_accounts=30)
            t = transform(g)
            oracle_labels = bfs_partition(
                g.num_accounts, [(h.u, h.v) for h in g.hard_links]
            )
            expected = direct_soft_aggregation(oracle_labels, g.soft_links)
            got = {}
            for i, j, w in t.edges:
                a = t.super_nodes[i].members[0]
                b = t.super_nodes[j].members[0]
                got[(min(a, b), max(a, b))] = w
            assert got == expected


class TestTransform:
    def test_fixture_end_to_end(self):
        t = transform(fixture_graph())
        assert t.num_supernodes == 4
        assert t.edges == [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0), (1, 3, 1.0)]

    def test_no_soft_links_means_no_edges(self):
        g = ingest_edges(["a\tphone\tb"], [])
        t = transform(g)
        assert t.num_supernodes == 1
        assert t.edges == []

    def test_counts_never_grow(self, rng):
        for _ in range(30):
            g = random_hetero_graph(rng)
            t = transform(g)
            assert t.num_supernodes <= g.num_accounts
            assert len(t.edges) <= len(g.soft_links)

    def test_order_independence(self, rng):
        g = random_hetero_graph(rng, max_accounts=40)
        base = canonical_partition(transform(g).membership)
        links = list(g.hard_links)
        for _ in range(10):
            perm = rng.permutation(len(links))
            shuffled = HeterogeneousGraph.from_links(
                g.tokens, [links[i] for i in perm], g.soft_links
            )
            assert canonical_partition(transform(shuffled).membership) == base

    def test_weight_conservation(self, rng):
        for _ in range(20):
            g = random_hetero_graph(rng)
            t = transform(g)
            kept = sum(w for _, _, w in t.edges)
            membership = t.membership
            dropped = sum(
                s.weight
                for s in g.soft_links
                if membership[s.u] == membership[s.v]
            )
            total = sum(s.weight for s in g.soft_links)
            assert kept + dropped == pytest.approx(total, rel=0, abs=1e-12)

    def test_no_self_edges(self, rng):
        for _ in range(20):
            g = random_hetero_graph(rng)
            for i, j, _ in transform(g).edges:
                assert i != j

    def test_idempotence_on_pre_transformed_graph(self):
        t = transform(fixture_graph())
        # re-ingesting the transformed graph as singleton accounts with the
        # same weighted edges must reproduce it
        tokens = [f"s{sn.id}" for sn in t.super_nodes]
        soft = [SoftLink(i, j, "device_fingerprint", w) for i, j, w in t.edges]
        g2 = HeterogeneousGraph.from_links(tokens, [], soft)
        t2 = transform(g2)
        assert [(i, j, w) for i, j, w in t2.edges] == t.edges
        assert t2.num_supernodes == t.num_supernodes


class TestTransformedGraphIO:
    def test_round_trip(self):
        t = transform(fixture_graph())
        buf = io.StringIO()
        write_transformed_graph(t, buf)
        back = read_transformed_graph(buf.getvalue().splitlines())
        assert back.tokens == t.tokens
        assert back.membership.tolist() == t.membership.tolist()
        assert [(i, j) for i, j, _ in back.edges] == [(i, j) for i, j, _ in t.edges]
        for (_, _, w1), (_, _, w2) in zip(back.edges, t.edges):
            assert w1 == pytest.approx(w2, abs=1e-6)

    def test_header_mismatch_rejected(self):
        with pytest.raises(GraphParseError):
            read_transformed_graph(["#supernodes 3", "a\t0", "b\t1"])

    @pytest.mark.parametrize(
        "edge_lines",
        [
            ["E\t-1\t1\t1.0"],  # numpy would read -1 as the last row
            ["E\t0\t1\t1.0", "E\t1\t0\t2.0"],  # parallel edge
            ["E\t0\t1\tnan"],
            ["E\t0\t1\tinf"],
        ],
    )
    def test_bad_edge_rejected_with_line_number(self, edge_lines):
        lines = ["a\t0", "b\t1", *edge_lines]
        with pytest.raises(GraphParseError) as err:
            read_transformed_graph(lines)
        assert err.value.line_number == len(lines)

    def test_repeated_token_rejected_with_line_number(self):
        with pytest.raises(GraphParseError) as err:
            read_transformed_graph(["#supernodes 2", "a\t0", "a\t1"])
        assert err.value.line_number == 3

    def test_weight_printed_six_decimals(self):
        t = transform(fixture_graph())
        buf = io.StringIO()
        write_transformed_graph(t, buf)
        edge_lines = [l for l in buf.getvalue().splitlines() if l.startswith("E\t")]
        assert edge_lines[0].split("\t")[3] == "2.000000"
