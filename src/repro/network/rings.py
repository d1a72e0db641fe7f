"""Rings topology: BFS levels around the base station (Section 2).

Construction follows the paper: the base station transmits; everything that
hears it is ring 1; nodes in ring i transmit and anything new that hears them
is ring i+1. Over a connectivity graph this is exactly breadth-first levels
(hop counts) from the base station. Aggregation proceeds level-by-level, ring
``i+1`` transmitting while ring ``i`` listens.

The rings object is the shared coordinate system for every scheme in this
library: tree parents are restricted to level i-1 ring neighbours (the
paper's synchronization design choice, Section 4.1), and the Tributary-Delta
graph's M edges are rings edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, List, Mapping, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.errors import TopologyError
from repro.network.placement import BASE_STATION, Deployment, NodeId


@dataclass(frozen=True)
class RingsTopology:
    """Levels (ring numbers) and level-respecting adjacency.

    Attributes:
        levels: node -> ring number; the base station is level 0.
        connectivity: the undirected radio connectivity graph.
    """

    levels: Mapping[NodeId, int]
    connectivity: nx.Graph

    @classmethod
    def build(cls, deployment: Deployment, connectivity: nx.Graph) -> "RingsTopology":
        """Compute ring numbers as BFS hop counts from the base station."""
        levels = nx.single_source_shortest_path_length(connectivity, BASE_STATION)
        missing = set(deployment.node_ids) - set(levels)
        if missing:
            raise TopologyError(f"nodes unreachable from base station: {sorted(missing)[:5]}")
        return cls(levels=dict(levels), connectivity=connectivity)

    @classmethod
    def build_restricted(
        cls, connectivity: nx.Graph, alive: Collection[NodeId]
    ) -> Tuple["RingsTopology", List[NodeId]]:
        """Re-ring after membership changed: BFS levels over the live nodes.

        ``connectivity`` is the *full* radio graph; ``alive`` the node ids
        currently up (the base station must be among them). Ring numbers are
        recomputed over the subgraph induced by the live nodes — exactly the
        construction broadcast re-run over whoever can still hear it.

        Unlike :meth:`build`, nodes cut off from the base station are not an
        error here (killing a cut vertex strands its far side); they are
        returned as the second element, sorted, and excluded from the
        topology — stranded nodes keep sensing but nothing they transmit
        can ever reach the base station.
        """
        if BASE_STATION not in alive:
            raise TopologyError("the base station cannot leave the network")
        induced = connectivity.subgraph(alive)
        levels = nx.single_source_shortest_path_length(induced, BASE_STATION)
        stranded = sorted(set(alive) - set(levels))
        reachable = connectivity.subgraph(levels).copy()
        return cls(levels=dict(levels), connectivity=reachable), stranded

    @property
    def depth(self) -> int:
        """The maximum ring number (drives latency: epochs per result)."""
        return max(self.levels.values())

    def level(self, node: NodeId) -> int:
        """Ring number of ``node``."""
        return self.levels[node]

    def nodes_at_level(self, level: int) -> List[NodeId]:
        """All nodes in ring ``level``, sorted."""
        return sorted(n for n, l in self.levels.items() if l == level)

    def levels_descending(self) -> List[int]:
        """Ring numbers from the deepest ring down to 1 (transmission order)."""
        return list(range(self.depth, 0, -1))

    def upstream_neighbors(self, node: NodeId) -> List[NodeId]:
        """Ring neighbours of ``node`` one level closer to the base station.

        These are the nodes that are listening when ``node`` transmits; a
        multi-path node's broadcast targets exactly this set, and a tree
        node's parent must be drawn from it (synchronization constraint).
        """
        own = self.levels[node]
        return sorted(
            other
            for other in self.connectivity.neighbors(node)
            if self.levels[other] == own - 1
        )

    def upstream_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every node's upstream neighbours at once, as a CSR over rows.

        Returns ``(ids, level, indptr, upstream)``: row ``i`` is node
        ``ids[i]`` (ids ascending) at ring ``level[i]``, and
        ``upstream[indptr[i]:indptr[i + 1]]`` holds the rows of
        ``upstream_neighbors(ids[i])`` in the same ascending order.
        """
        ids = sorted(self.levels)
        row = {node: index for index, node in enumerate(ids)}
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        upstream: List[int] = []
        for index, node in enumerate(ids):
            upstream.extend(row[other] for other in self.upstream_neighbors(node))
            indptr[index + 1] = len(upstream)
        level = np.array([self.levels[node] for node in ids], dtype=np.int64)
        return (
            np.array(ids, dtype=np.int64),
            level,
            indptr,
            np.array(upstream, dtype=np.int64),
        )

    def downstream_neighbors(self, node: NodeId) -> List[NodeId]:
        """Ring neighbours one level farther from the base station."""
        own = self.levels[node]
        return sorted(
            other
            for other in self.connectivity.neighbors(node)
            if self.levels[other] == own + 1
        )

    def same_level_neighbors(self, node: NodeId) -> List[NodeId]:
        """Ring neighbours in the same ring (TAG allows these as parents)."""
        own = self.levels[node]
        return sorted(
            other
            for other in self.connectivity.neighbors(node)
            if self.levels[other] == own and other != node
        )

    def ring_edges(self) -> List[Tuple[NodeId, NodeId]]:
        """All (child, parent-candidate) pairs across adjacent rings.

        Directed from the higher ring toward the lower ring; this is the edge
        universe for both multi-path broadcasts and tree links.
        """
        edges = []
        for node in self.levels:
            for upstream in self.upstream_neighbors(node):
                edges.append((node, upstream))
        return sorted(edges)

    def validate(self) -> None:
        """Check the defining ring invariant: levels differ by <= 1 across edges.

        BFS levels guarantee |level(u) - level(v)| <= 1 for every radio edge
        and that every non-base node has at least one upstream neighbour.
        """
        for a, b in self.connectivity.edges:
            if abs(self.levels[a] - self.levels[b]) > 1:
                raise TopologyError(f"edge ({a},{b}) spans more than one ring")
        for node in self.levels:
            if node != BASE_STATION and not self.upstream_neighbors(node):
                raise TopologyError(f"node {node} has no upstream ring neighbour")
