"""Tests for the Tree value type."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.tree.structure import Tree


@pytest.fixture()
def sample_tree():
    #        0
    #      /   \
    #     1     2
    #    / \     \
    #   3   4     5
    #  /
    # 6
    return Tree(parents={1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 3})


@st.composite
def random_trees(draw):
    """Random parent maps: node i attaches to a previous node."""
    size = draw(st.integers(min_value=1, max_value=40))
    parents = {}
    for node in range(1, size + 1):
        parents[node] = draw(st.integers(min_value=0, max_value=node - 1))
    return Tree(parents=parents)


class TestValidation:
    def test_rejects_cycle(self):
        with pytest.raises(TopologyError):
            Tree(parents={1: 2, 2: 1})

    def test_rejects_root_with_parent(self):
        with pytest.raises(TopologyError):
            Tree(parents={0: 1, 1: 0}, root=0)

    def test_rejects_disconnected(self):
        with pytest.raises(TopologyError):
            Tree(parents={1: 0, 3: 9})


class TestAccessors:
    def test_nodes_and_size(self, sample_tree):
        assert sample_tree.nodes == [0, 1, 2, 3, 4, 5, 6]
        assert sample_tree.size == 7

    def test_parent(self, sample_tree):
        assert sample_tree.parent(3) == 1
        assert sample_tree.parent(0) is None

    def test_children(self, sample_tree):
        children = sample_tree.children_map()
        assert children[1] == [3, 4]
        assert children[6] == []

    def test_is_leaf(self, sample_tree):
        children = sample_tree.children_map()
        leaves = [node for node in sample_tree.nodes if not children[node]]
        assert leaves == [4, 5, 6]
        assert children[1]


class TestDerived:
    def test_levels(self, sample_tree):
        levels = sample_tree.levels()
        assert levels[0] == 0
        assert levels[1] == levels[2] == 1
        assert levels[6] == 3

    def test_heights_match_paper_definition(self, sample_tree):
        heights = sample_tree.heights()
        assert heights[6] == 1  # leaf
        assert heights[3] == 2
        assert heights[1] == 3
        assert heights[2] == 2
        assert heights[0] == 4

    def test_height_property(self, sample_tree):
        assert sample_tree.height == 4

    def test_subtree_sizes(self, sample_tree):
        sizes = sample_tree.subtree_sizes()
        assert sizes[0] == 7
        assert sizes[1] == 4
        assert sizes[6] == 1

    def test_postorder_children_first(self, sample_tree):
        order = sample_tree.postorder()
        position = {node: i for i, node in enumerate(order)}
        for child, parent in sample_tree.parents.items():
            assert position[child] < position[parent]


class TestProperties:
    @given(random_trees())
    def test_heights_consistent(self, tree):
        heights = tree.heights()
        children = tree.children_map()
        for node in tree.nodes:
            kids = children[node]
            if not kids:
                assert heights[node] == 1
            else:
                assert heights[node] == 1 + max(heights[k] for k in kids)

    @given(random_trees())
    def test_subtree_sizes_sum(self, tree):
        sizes = tree.subtree_sizes()
        assert sizes[tree.root] == tree.size

    @given(random_trees())
    def test_postorder_is_permutation(self, tree):
        assert sorted(tree.postorder()) == tree.nodes

    @given(random_trees())
    def test_h_profile_non_increasing(self, tree):
        from repro.tree.domination import height_profile

        profile = height_profile(tree)
        for lower, higher in zip(profile, profile[1:]):
            assert lower >= higher
