"""Tree construction: TAG baseline and the paper's bushy builder (§6.1.3).

Two algorithms:

* :func:`build_tag_tree` — the standard construction [10]: each node picks a
  parent among neighbours at its own level or one level up. Same-level
  parents lengthen paths and flatten the height profile, which is why these
  trees have *low* domination factors (Figure 7's "TAG Tree" series).

* :func:`build_bushy_tree` — the paper's construction. Two changes: (1)
  parents come strictly from ring level i-1 (this also enforces the
  Tributary-Delta synchronisation constraint "tree links are a subset of
  rings links"); (2) *opportunistic parent switching*: a node of height j+1
  with two or more height-j children pins two of them and flags itself;
  non-pinned nodes then switch parents randomly to reachable non-flagged
  level-(i-1) nodes, and any non-flagged node that accumulates two flagged
  children of the same height pins them and flags itself. Lemma 2 then makes
  the tree (locally) 2-dominating wherever possible.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np

from repro._hashing import stream_rng
from repro.errors import TopologyError
from repro.network.placement import BASE_STATION, NodeId
from repro.network.rings import RingsTopology
from repro.tree.structure import Tree


def build_tag_tree(
    rings: RingsTopology,
    seed: int = 0,
    same_level_fraction: float = 0.3,
) -> Tree:
    """Standard (TAG-style) tree construction over the rings' radio graph.

    Every node first adopts a random upstream (level i-1) neighbour; then a
    ``same_level_fraction`` of nodes re-parent to a random same-level
    neighbour, as the standard algorithm permits [10]. Same-level parents are
    only adopted when they keep the tree acyclic (the chosen parent must not
    be a descendant and must itself still have an upstream parent).
    """
    rng = stream_rng("tag-tree", seed)
    parents: Dict[NodeId, NodeId] = {}
    for node in sorted(rings.levels):
        if node == BASE_STATION:
            continue
        upstream = rings.upstream_neighbors(node)
        if not upstream:
            raise TopologyError(f"node {node} has no upstream neighbour")
        parents[node] = rng.choice(upstream)

    # Second pass: some nodes adopt a same-level parent, which is what makes
    # TAG trees stringy (chains within a ring) and lowers their domination
    # factor relative to the paper's construction.
    candidates = [node for node in sorted(parents) if rings.level(node) >= 1]
    rng.shuffle(candidates)
    switch_count = int(len(candidates) * same_level_fraction)
    switched = 0
    upstream_parented: Set[NodeId] = set(parents)
    for node in candidates:
        if switched >= switch_count:
            break
        peers = [
            peer
            for peer in rings.same_level_neighbors(node)
            if peer in upstream_parented and peer != node
        ]
        if not peers:
            continue
        chosen = rng.choice(peers)
        # The chosen parent keeps its upstream parent, so the only cycle risk
        # is `chosen` being below `node`; since `chosen` currently hangs off
        # an upstream parent (never off `node`), paths stay acyclic as long
        # as we do not let an already-switched node become a parent target.
        parents[node] = chosen
        upstream_parented.discard(node)
        switched += 1
    return Tree(parents=parents, root=BASE_STATION)


def build_bushy_tree(
    rings: RingsTopology,
    seed: int = 0,
    max_rounds: int = 30,
) -> Tree:
    """The paper's tree construction with opportunistic parent switching.

    Returns a tree whose links are all (child at level i, parent at level
    i-1) rings links, after ``max_rounds`` of the pin-and-flag local search
    (or earlier if a round changes nothing).

    One builder serves both state tiers. It reads every node's upstream
    neighbours once, as the CSR of ``rings.upstream_csr()``, and keeps
    parents, heights, pins and flags as arrays indexed by row (rows are
    node ids in ascending order). Every parent sits exactly one ring up, so
    ring level is tree depth: heights and the pinning rules run ring by
    ring, deepest first, and the ``Tree`` is built and validated once.
    """
    ids, level, indptr, upstream = rings.upstream_csr()
    count = len(ids)
    degree = np.diff(indptr)
    is_root = ids == BASE_STATION
    orphans = np.flatnonzero((degree == 0) & ~is_root)
    if orphans.size:
        raise TopologyError(f"node {int(ids[orphans[0]])} has no upstream neighbour")

    # A node's draw is rng.randrange(n) over its n options in ascending id
    # order (the draw rng.choice makes over that list), node by node in
    # ascending id order; the golden trees pin this exact stream.
    rng = stream_rng("bushy-tree", seed)
    randrange = rng.randrange
    rows = np.flatnonzero(~is_root)
    parent = np.full(count, -1, dtype=np.int64)
    parent[rows] = upstream[
        indptr[rows] + [randrange(n) for n in degree[rows].tolist()]
    ]

    by_level = np.argsort(level, kind="stable")
    cuts = np.searchsorted(level[by_level], np.arange(int(level.max()) + 2))
    ring_rows = [by_level[cuts[l]:cuts[l + 1]] for l in range(len(cuts) - 1)]
    entry_row = np.repeat(np.arange(count), degree)
    height = np.empty(count, dtype=np.int64)
    # The root never switches parent, so it starts out pinned.
    pinned = is_root.copy()
    flagged = np.zeros(count, dtype=bool)
    flagged_before = np.empty(count, dtype=bool)
    entry_parent = np.empty(len(upstream), dtype=np.int64)
    eligible = np.empty(len(upstream), dtype=bool)
    not_parent = np.empty(len(upstream), dtype=bool)
    eligible_before = np.zeros(len(upstream) + 1, dtype=np.int64)

    for _ in range(max_rounds):
        height.fill(1)
        for kids in reversed(ring_rows[1:]):
            np.maximum.at(height, parent[kids], height[kids] + 1)
        np.copyto(flagged_before, flagged)
        grew = False
        for kids in reversed(ring_rows[1:]):
            grew |= _pin_and_flag_ring(
                kids, parent, height, pinned, flagged, flagged_before
            )

        # Non-pinned nodes explore: switch to a random reachable non-flagged
        # node one ring closer to the base station, other than the current
        # parent. Flags are fixed during the sweep, so every node's option
        # count is known before the first draw.
        np.take(flagged, upstream, out=eligible)
        np.logical_not(eligible, out=eligible)
        np.take(parent, entry_row, out=entry_parent)
        np.not_equal(upstream, entry_parent, out=not_parent)
        eligible &= not_parent
        np.cumsum(eligible, out=eligible_before[1:])
        options = eligible_before[indptr[1:]] - eligible_before[indptr[:-1]]
        movers = np.flatnonzero(~pinned & (options > 0))
        if movers.size:
            picks = [randrange(n) for n in options[movers].tolist()]
            slots = np.flatnonzero(eligible)
            parent[movers] = upstream[slots[eligible_before[indptr[movers]] + picks]]
        elif not grew:
            break

    return Tree(
        parents=dict(zip(ids[rows].tolist(), ids[parent[rows]].tolist())),
        root=BASE_STATION,
    )


def _pin_and_flag_ring(
    kids: np.ndarray,
    parent: np.ndarray,
    height: np.ndarray,
    pinned: np.ndarray,
    flagged: np.ndarray,
    flagged_before: np.ndarray,
) -> bool:
    """Apply the paper's pinning rules to the parents of one ring's nodes.

    Rule 1: a node of height j+1 with >= 2 children of height j pins the two
    lowest-id ones and flags itself. Rule 2: a non-flagged node with >= 2
    flagged children of the same height pins the two lowest-id ones of the
    lowest such height and flags itself. Rule 2 is what propagates
    bushiness up the tree. Returns whether any node was flagged.

    The rules were first stated as one sweep in ascending node id, so a
    child flagged earlier in the same sweep counts only when its id is
    below its parent's. Run deepest ring first, ``flagged`` already holds
    every child's flag for this sweep and ``flagged_before`` the flags the
    sweep started from, which is enough to apply that order exactly.
    """
    dads = parent[kids]
    live = ~flagged_before[dads]
    kids, dads = kids[live], dads[live]
    if not kids.size:
        return False
    kid_height = height[kids]

    top = kid_height == height[dads] - 1
    top_order = np.argsort(dads[top], kind="stable")
    top_kids, top_dads = kids[top][top_order], dads[top][top_order]
    seconds = _second_of_run(top_dads)
    pinned[top_kids[seconds]] = True
    pinned[top_kids[seconds - 1]] = True
    flagged[top_dads[seconds]] = True

    # Rule 2 only for parents rule 1 did not just flag (live parents were
    # unflagged when the sweep started, so ``flagged`` marks exactly those).
    seen = flagged_before[kids] | (flagged[kids] & (kids < dads))
    seen &= ~flagged[dads]
    if np.count_nonzero(seen) < 2:
        return bool(seconds.size)
    # Sort seen children by (parent, height, id); pairs are runs' first two.
    order = np.lexsort((kid_height[seen], dads[seen]))
    seen_kids, seen_dads = kids[seen][order], dads[seen][order]
    pairs = _second_of_run(seen_dads, kid_height[seen][order])
    # Each parent takes its lowest-height pair only.
    pair_dads = seen_dads[pairs]
    lowest = np.ones(len(pairs), dtype=bool)
    lowest[1:] = pair_dads[1:] != pair_dads[:-1]
    pairs = pairs[lowest]
    pinned[seen_kids[pairs]] = True
    pinned[seen_kids[pairs - 1]] = True
    flagged[seen_dads[pairs]] = True
    return bool(seconds.size or pairs.size)


def _second_of_run(*columns: np.ndarray) -> np.ndarray:
    """Positions of the second entry of every run of equal rows.

    ``columns`` are equal-length, sorted together; a row is one position
    across all of them. Runs of length one have no second entry.
    """
    size = len(columns[0])
    if size < 2:
        return np.zeros(0, dtype=np.intp)
    same = np.ones(size - 1, dtype=bool)
    for column in columns:
        same &= column[1:] == column[:-1]
    starts_run = np.ones(size - 1, dtype=bool)
    starts_run[1:] = ~same[:-1]
    return np.flatnonzero(same & starts_run) + 1
