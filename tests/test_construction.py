"""Tests for tree construction (TAG baseline and the bushy builder)."""

from __future__ import annotations

import hashlib

import networkx as nx
import numpy as np
import pytest

from repro.datasets.labdata import LabDataScenario
from repro.datasets.synthetic import make_synthetic_scenario
from repro.errors import TopologyError
from repro.network.packed import PackedRings, build_packed_topology, pack_topology
from repro.network.placement import BASE_STATION
from repro.network.rings import RingsTopology
from repro.tree.construction import build_bushy_tree, build_tag_tree
from repro.tree.domination import domination_factor
from repro.tree.structure import Tree


class TestBushyTree:
    def test_spans_all_nodes(self, small_scenario, small_tree):
        assert set(small_tree.nodes) == set(small_scenario.rings.levels)

    def test_links_subset_of_rings(self, small_scenario, small_tree):
        # The synchronisation constraint of Section 4.1: every tree parent
        # is a radio neighbour exactly one ring closer to the base station.
        rings = small_scenario.rings
        for child, parent in small_tree.parents.items():
            assert rings.level(child) == rings.level(parent) + 1
            assert parent in rings.upstream_neighbors(child)

    def test_deterministic(self, small_scenario):
        a = build_bushy_tree(small_scenario.rings, seed=4)
        b = build_bushy_tree(small_scenario.rings, seed=4)
        assert a.parents == b.parents

    def test_rooted_at_base_station(self, small_tree):
        assert small_tree.root == BASE_STATION

    def test_improves_over_tag(self, medium_scenario):
        # Figure 7's claim, statistically: the bushy construction reaches a
        # domination factor at least as high as the standard construction.
        rings = medium_scenario.rings
        ours = [
            domination_factor(build_bushy_tree(rings, seed=s)) for s in range(3)
        ]
        tag = [
            domination_factor(build_tag_tree(rings, seed=s)) for s in range(3)
        ]
        assert sum(ours) / 3 > sum(tag) / 3


class TestTagTree:
    def test_spans_all_nodes(self, small_scenario):
        tree = build_tag_tree(small_scenario.rings, seed=0)
        assert set(tree.nodes) == set(small_scenario.rings.levels)

    def test_acyclic_with_same_level_parents(self, medium_scenario):
        # Construction must stay a valid tree even with same-level links
        # (Tree.__post_init__ would raise on a cycle).
        for seed in range(5):
            tree = build_tag_tree(medium_scenario.rings, seed=seed)
            assert tree.size == len(medium_scenario.rings.levels)

    def test_contains_same_level_links(self, medium_scenario):
        rings = medium_scenario.rings
        tree = build_tag_tree(rings, seed=1, same_level_fraction=0.4)
        same_level = sum(
            1
            for child, parent in tree.parents.items()
            if rings.level(child) == rings.level(parent)
        )
        assert same_level > 0

    def test_zero_fraction_is_strict_upstream(self, small_scenario):
        rings = small_scenario.rings
        tree = build_tag_tree(rings, seed=1, same_level_fraction=0.0)
        for child, parent in tree.parents.items():
            assert rings.level(child) == rings.level(parent) + 1


# -- frozen bushy-tree goldens ------------------------------------------------
#
# sha256 of ``repr(sorted(tree.parents.items()))`` for fixed topologies and
# seeds, recorded from the per-round dict builder this array-native one
# replaced. Any change to the builder's RNG consumption, pinning rules or
# tie-breaking shows up here as a digest mismatch.


def _parents_digest(tree: Tree) -> str:
    return hashlib.sha256(repr(sorted(tree.parents.items())).encode()).hexdigest()


def _synthetic_rings(num_sensors: int, seed: int):
    return make_synthetic_scenario(num_sensors=num_sensors, seed=seed).rings


def _restricted_rings():
    # Every fifth sensor gone: sparse ids, re-ringed over the survivors.
    scenario = make_synthetic_scenario(num_sensors=200, seed=4)
    alive = [n for n in scenario.rings.levels if n == BASE_STATION or n % 5]
    rings, _stranded = RingsTopology.build_restricted(scenario.connectivity, alive)
    return rings


GOLDEN_CASES = {
    **{
        f"synthetic-{n}-seed{s}": (lambda n=n, s=s: _synthetic_rings(n, s), s, 30)
        for n in (200, 600)
        for s in (0, 4, 7, 11)
    },
    "labdata-seed3": (lambda: LabDataScenario.build().rings, 3, 30),
    "restricted-sparse-seed4": (_restricted_rings, 4, 30),
    "packed-scale-10k-seed0": (
        lambda: build_packed_topology("synthetic-scale", 10_000, 0).rings,
        0,
        30,
    ),
    "synthetic-600-seed0-rounds0": (lambda: _synthetic_rings(600, 0), 0, 0),
    "synthetic-600-seed0-rounds1": (lambda: _synthetic_rings(600, 0), 0, 1),
}

GOLDEN_DIGESTS = {
    "labdata-seed3": "c46fc17883dfbe1a76214d8c0a52b597d0d94988538f5401878613956e60a49b",
    "packed-scale-10k-seed0": "312afe187e94ef867b01e0d9cbb1f04618889fb2bbc4482c305a807b4b701918",
    "restricted-sparse-seed4": "d3864224c75c97e3cf4c8343dcbcaded45e8becd3ef869abea51d1d2cbc43c2a",
    "synthetic-200-seed0": "62293a7107c00dc9abe6af9a283e15d5bf682637e5d1725550a680ddb7bf33ac",
    "synthetic-200-seed11": "222958aa4f39d5bbcd2b0eb08ab1da3ff7a2fe177b61659fa0847b9186570094",
    "synthetic-200-seed4": "1fddd5102903d525a0590554c177640b6b69c914e01dd10bf866e08074efec0e",
    "synthetic-200-seed7": "ba9a969fe119996c84a9fce648d1199919dd05b8316eac76b54f2a911c6030a0",
    "synthetic-600-seed0": "31569d4d35c118193999642b917038ce0e09cfd4a1d5924f079e089fc97e8498",
    "synthetic-600-seed0-rounds0": "9c7aacab19e4d9ed7f820b6fcff2c2eedb5469040659e2ac27f52a9f332c937c",
    "synthetic-600-seed0-rounds1": "5ec0c76cc4af7de6e1c9b7cd1c9c045a86e2539e4431fdc32d8b133a41abcece",
    "synthetic-600-seed11": "a4f4debbccc0d793e58f47843f4f185932205825ec70ecce64173e60c8a59ed2",
    "synthetic-600-seed4": "00011b4503c304cccf37c43dd8b5a6d4daf3c9cd7145adc218f77ce0dce9c3ea",
    "synthetic-600-seed7": "25b274b6e85f9b26cf792dcebfee52e195bf28172eb67634d317ecfc560bb45a",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_bushy_tree_golden(case):
    make_rings, seed, max_rounds = GOLDEN_CASES[case]
    tree = build_bushy_tree(make_rings(), seed=seed, max_rounds=max_rounds)
    assert all(type(n) is int and type(p) is int for n, p in tree.parents.items())
    assert _parents_digest(tree) == GOLDEN_DIGESTS[case]


# -- loud failure on rings a tree cannot hang from ---------------------------


def _orphan_edges():
    # Ring 2 holds nodes 4, 5 and 6; only 6 hears ring 1. Nodes 4 and 5
    # talk to each other and to 6 — same ring, never upstream.
    levels = {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2}
    edges = [(0, 1), (0, 2), (0, 3), (3, 6), (4, 5), (4, 6), (5, 6)]
    return levels, edges


def test_dict_rings_without_upstream_raise():
    levels, edges = _orphan_edges()
    graph = nx.Graph()
    graph.add_nodes_from(levels)
    graph.add_edges_from(edges)
    rings = RingsTopology(levels=levels, connectivity=graph)
    with pytest.raises(TopologyError, match=r"^node 4 has no upstream neighbour$"):
        build_bushy_tree(rings, seed=0)


def test_packed_rings_without_upstream_raise():
    levels, edges = _orphan_edges()
    count = len(levels)
    adjacency = {node: [] for node in range(count)}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    indptr = np.cumsum([0] + [len(adjacency[n]) for n in range(count)])
    neighbors = np.array(
        [m for n in range(count) for m in sorted(adjacency[n])], dtype=np.int32
    )
    level_of = np.array([levels[n] for n in range(count)], dtype=np.int32)
    rings = PackedRings(level_of, indptr, neighbors)
    with pytest.raises(TopologyError, match=r"^node 4 has no upstream neighbour$"):
        build_bushy_tree(rings, seed=0)


def test_upstream_csr_agrees_across_tiers():
    # Both tiers feed the builder the same CSR; the packed one is derived
    # from the adjacency by a level mask, the dict one node by node.
    scenario = make_synthetic_scenario(num_sensors=200, seed=7)
    packed = pack_topology(scenario)
    for got, want in zip(packed.rings.upstream_csr(), scenario.rings.upstream_csr()):
        np.testing.assert_array_equal(got, want)
    ids, _level, indptr, upstream = scenario.rings.upstream_csr()
    for row, node in enumerate(ids.tolist()):
        run = ids[upstream[indptr[row]:indptr[row + 1]]].tolist()
        assert run == scenario.rings.upstream_neighbors(node)
