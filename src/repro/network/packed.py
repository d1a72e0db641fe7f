"""Packed (array-native) node state: the memory-lean scale tier.

The dict-shaped :class:`~repro.network.placement.Deployment` and
:class:`~repro.network.rings.RingsTopology` spend hundreds of bytes per node
on boxed floats, tuple cells and hash tables — fine at the paper's 600
nodes, prohibitive at 100k+. This module stores the same state id-indexed in
ndarrays (coordinates as float64 columns, ring levels as one int32 column,
adjacency as a CSR int32 pair) behind the *exact same API surface*, so every
scheme, tree builder and failure model runs unchanged on either tier.

Parity is the whole point: the packed builders replay the dict path's RNG
draws, distance predicate and BFS, so a run on the packed tier is
byte-identical to the dict run — the dict path stays the oracle, and
``tests/test_scale.py`` pins the equivalence. Two entry points:

* :func:`build_packed_synthetic` — the array-native generator for the
  synthetic families (never materializes a dict or an ``nx.Graph``; an
  ``nx`` view of the adjacency is built lazily only if a consumer such as
  churn or TD tree validation asks for ``rings.connectivity``);
* :func:`pack_topology` — converts any resolved dict-shaped topology
  (e.g. LabData) into the packed representation.

Every id that crosses the API boundary is converted back to a Python
``int``: numpy integers hash differently in the keyed-draw streams and must
never leak into ``hash_key`` tokens.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro._hashing import stream_rng
from repro.errors import ConfigurationError, TopologyError
from repro.network.placement import BASE_STATION, NodeId, Point

#: Largest packed topology whose ``connectivity`` may inflate an
#: ``nx.Graph``. Above this, the dict-of-dicts graph (hundreds of bytes
#: per edge) would dwarf the CSR columns it shadows, so the property
#: raises instead of silently exploding memory at the 1M-node tier.
CONNECTIVITY_NODE_LIMIT = 200_000


class _PositionsView(Mapping):
    """Read-only mapping facade over the packed coordinate columns."""

    __slots__ = ("_xs", "_ys")

    def __init__(self, xs: np.ndarray, ys: np.ndarray) -> None:
        self._xs = xs
        self._ys = ys

    def __getitem__(self, node: NodeId) -> Point:
        index = int(node)
        if not 0 <= index < len(self._xs):
            raise KeyError(node)
        return (float(self._xs[index]), float(self._ys[index]))

    def __iter__(self) -> Iterator[NodeId]:
        return iter(range(len(self._xs)))

    def __len__(self) -> int:
        return len(self._xs)

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < len(self._xs)


class PackedDeployment:
    """A :class:`~repro.network.placement.Deployment` stored as ndarrays.

    Node ids are dense ``0..n`` (0 the base station); the coordinate of node
    ``i`` lives at row ``i`` of the float64 ``xs``/``ys`` columns. All
    accessors return plain Python numbers so downstream keyed hashing sees
    the same tokens as the dict tier.
    """

    __slots__ = ("xs", "ys", "width", "height", "name", "_positions")

    def __init__(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        width: float,
        height: float,
        name: str = "deployment",
    ) -> None:
        if len(xs) != len(ys) or len(xs) < 1:
            raise ConfigurationError(
                "packed deployment needs matching non-empty coordinate columns"
            )
        if width <= 0 or height <= 0:
            raise ConfigurationError("deployment area must have positive size")
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        self.width = width
        self.height = height
        self.name = name
        self._positions = _PositionsView(self.xs, self.ys)

    @property
    def positions(self) -> Mapping:
        return self._positions

    @property
    def base_station(self) -> NodeId:
        return BASE_STATION

    @property
    def sensor_ids(self) -> List[NodeId]:
        return list(range(1, len(self.xs)))

    @property
    def node_ids(self) -> List[NodeId]:
        return list(range(len(self.xs)))

    @property
    def num_sensors(self) -> int:
        return len(self.xs) - 1

    def position(self, node: NodeId) -> Point:
        return self._positions[node]

    def distance(self, a: NodeId, b: NodeId) -> float:
        # Same scalar arithmetic as Deployment.distance, for bit parity.
        ax, ay = self._positions[a]
        bx, by = self._positions[b]
        return ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5

    def nodes_in_rect(
        self, lower: Point, upper: Point, include_base: bool = False
    ) -> List[NodeId]:
        (lx, ly), (ux, uy) = lower, upper
        inside = (
            (self.xs >= lx) & (self.xs <= ux)
            & (self.ys >= ly) & (self.ys <= uy)
        )
        if not include_base:
            inside[BASE_STATION] = False
        return np.nonzero(inside)[0].tolist()

    def __iter__(self) -> Iterator[NodeId]:
        return iter(range(len(self.xs)))

    def __len__(self) -> int:
        return len(self.xs)


class _LevelsView(Mapping):
    """Read-only mapping facade over the packed ring-level column."""

    __slots__ = ("_levels",)

    def __init__(self, levels: np.ndarray) -> None:
        self._levels = levels

    def __getitem__(self, node: NodeId) -> int:
        index = int(node)
        if not 0 <= index < len(self._levels):
            raise KeyError(node)
        return int(self._levels[index])

    def __iter__(self) -> Iterator[NodeId]:
        return iter(range(len(self._levels)))

    def __len__(self) -> int:
        return len(self._levels)

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < len(self._levels)


class PackedRings:
    """A :class:`~repro.network.rings.RingsTopology` stored as ndarrays.

    Ring levels are one int32 column; the radio adjacency is CSR
    (``indptr``/``neighbors``) with each node's neighbor run ascending, so
    every accessor returns the same sorted lists as the dict tier. The
    ``connectivity`` graph object — needed only by churn re-ringing and the
    TD tree validator — is materialized lazily on first access.
    """

    __slots__ = ("level_of", "indptr", "neighbors", "_levels", "_graph")

    def __init__(
        self, level_of: np.ndarray, indptr: np.ndarray, neighbors: np.ndarray
    ) -> None:
        self.level_of = np.asarray(level_of, dtype=np.int32)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.neighbors = np.asarray(neighbors, dtype=np.int32)
        if len(self.indptr) != len(self.level_of) + 1:
            raise ConfigurationError("CSR indptr length must be nodes + 1")
        self._levels = _LevelsView(self.level_of)
        self._graph = None

    @property
    def levels(self) -> Mapping:
        return self._levels

    @property
    def connectivity(self):
        """The adjacency as an ``nx.Graph``, built lazily on first use.

        Refuses to materialize above :data:`CONNECTIVITY_NODE_LIMIT`
        nodes: the dict-of-dicts graph costs orders of magnitude more RAM
        than the CSR columns, so inflating it at the million-node tier
        (churn re-ringing and the TD tree validator are the only callers)
        would silently undo everything the packed representation saved.
        """
        if self._graph is None:
            if len(self.level_of) > CONNECTIVITY_NODE_LIMIT:
                raise ConfigurationError(
                    f"refusing to inflate a networkx connectivity graph "
                    f"for {len(self.level_of)} packed nodes (limit "
                    f"{CONNECTIVITY_NODE_LIMIT}): the dict-shaped graph "
                    "would dwarf the packed columns' memory. Packed "
                    "scenarios at this scale cannot serve churn "
                    "re-ringing or tree validation; run them without "
                    "churn, or use the dict tier for smaller deployments"
                )
            import networkx as nx

            graph = nx.Graph()
            graph.add_nodes_from(range(len(self.level_of)))
            src = np.repeat(
                np.arange(len(self.level_of)), np.diff(self.indptr)
            )
            mask = src < self.neighbors
            graph.add_edges_from(
                zip(src[mask].tolist(), self.neighbors[mask].tolist())
            )
            self._graph = graph
        return self._graph

    @property
    def depth(self) -> int:
        return int(self.level_of.max())

    def level(self, node: NodeId) -> int:
        return self._levels[node]

    def nodes_at_level(self, level: int) -> List[NodeId]:
        return np.nonzero(self.level_of == level)[0].tolist()

    def levels_descending(self) -> List[int]:
        return list(range(self.depth, 0, -1))

    def _ring_slice(self, node: NodeId) -> np.ndarray:
        index = int(node)
        return self.neighbors[self.indptr[index]:self.indptr[index + 1]]

    def upstream_neighbors(self, node: NodeId) -> List[NodeId]:
        ring = self._ring_slice(node)
        own = self.level_of[int(node)]
        return ring[self.level_of[ring] == own - 1].tolist()

    def downstream_neighbors(self, node: NodeId) -> List[NodeId]:
        ring = self._ring_slice(node)
        own = self.level_of[int(node)]
        return ring[self.level_of[ring] == own + 1].tolist()

    def same_level_neighbors(self, node: NodeId) -> List[NodeId]:
        ring = self._ring_slice(node)
        own = self.level_of[int(node)]
        return ring[self.level_of[ring] == own].tolist()

    def upstream_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``RingsTopology.upstream_csr`` off the adjacency with one mask.

        Ids are dense, so rows are node ids and the upstream runs are the
        adjacency runs' level-(i-1) entries, still ascending.
        """
        degree = np.diff(self.indptr)
        upward = self.level_of[self.neighbors] == np.repeat(self.level_of - 1, degree)
        kept = np.zeros(len(upward) + 1, dtype=np.int64)
        np.cumsum(upward, out=kept[1:])
        return (
            np.arange(len(self.level_of)),
            self.level_of,
            kept[self.indptr],
            self.neighbors[upward],
        )

    def ring_edges(self) -> List[Tuple[NodeId, NodeId]]:
        ids, _level, indptr, upstream = self.upstream_csr()
        src = np.repeat(ids, np.diff(indptr))
        # CSR runs ascend by source then neighbor, so this is already the
        # lexicographic order the dict tier's sorted() produces.
        return list(zip(src.tolist(), upstream.tolist()))

    def validate(self) -> None:
        src = np.repeat(np.arange(len(self.level_of)), np.diff(self.indptr))
        span = self.level_of[src] - self.level_of[self.neighbors]
        bad = np.nonzero(np.abs(span) > 1)[0]
        if bad.size:
            a, b = int(src[bad[0]]), int(self.neighbors[bad[0]])
            raise TopologyError(f"edge ({a},{b}) spans more than one ring")
        upstream_counts = np.bincount(
            src[span == 1], minlength=len(self.level_of)
        )
        orphans = np.nonzero(upstream_counts == 0)[0]
        orphans = orphans[orphans != BASE_STATION]
        if orphans.size:
            raise TopologyError(
                f"node {int(orphans[0])} has no upstream ring neighbour"
            )


@dataclass
class PackedTopology:
    """What the packed builders hand the session: placement + routing.

    Duck-compatible with :class:`repro.registry.ResolvedTopology` (same
    attribute triple), so ``build_scenario`` treats both tiers uniformly.
    """

    deployment: PackedDeployment
    rings: PackedRings
    base_loss: Optional[Dict] = field(default=None)


# -- array-native synthetic builder -----------------------------------------


def _draw_positions(
    num_sensors: int, width: float, height: float, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay grid_random_placement's exact draw sequence into columns."""
    rng = stream_rng("placement", seed, num_sensors, width, height)
    xs = np.empty(num_sensors + 1, dtype=np.float64)
    ys = np.empty(num_sensors + 1, dtype=np.float64)
    xs[BASE_STATION] = width / 2.0
    ys[BASE_STATION] = height / 2.0
    uniform = rng.uniform
    for node in range(1, num_sensors + 1):
        xs[node] = uniform(0.0, width)
        ys[node] = uniform(0.0, height)
    return xs, ys


def _disc_csr(
    xs: np.ndarray, ys: np.ndarray, radio_range: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Unit-disc adjacency as CSR, via the same spatial grid as DiscRadio.

    Vectorized: nodes are bucketed into radio-range cells, candidate pairs
    come from the 3x3 cell neighborhood, and the kept edges satisfy the
    dict tier's predicate ``distance(a, b) <= radio_range`` (np.sqrt and
    CPython's ``** 0.5`` are both correctly rounded, so the edge sets
    agree bit-for-bit).
    """
    count = len(xs)
    cell = radio_range
    cx = np.floor_divide(xs, cell).astype(np.int64) + 1
    cy = np.floor_divide(ys, cell).astype(np.int64) + 1
    # The +1 shift keeps all bucket coordinates >= 1 so the 3x3 offsets
    # below can never collide across the row seam of the key space.
    stride = int(cy.max()) + 2
    key = cx * stride + cy
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    sources: List[np.ndarray] = []
    targets: List[np.ndarray] = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            probe = key + dx * stride + dy
            left = np.searchsorted(sorted_key, probe, side="left")
            right = np.searchsorted(sorted_key, probe, side="right")
            counts = right - left
            total = int(counts.sum())
            if total == 0:
                continue
            rep = np.repeat(np.arange(count), counts)
            offsets = np.arange(total) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            cand = order[np.repeat(left, counts) + offsets]
            keep = cand > rep
            rep, cand = rep[keep], cand[keep]
            dxs = xs[rep] - xs[cand]
            dys = ys[rep] - ys[cand]
            keep = np.sqrt(dxs * dxs + dys * dys) <= radio_range
            sources.append(rep[keep])
            targets.append(cand[keep])
    if sources:
        edge_a = np.concatenate(sources)
        edge_b = np.concatenate(targets)
    else:
        edge_a = np.zeros(0, dtype=np.int64)
        edge_b = np.zeros(0, dtype=np.int64)
    src = np.concatenate([edge_a, edge_b])
    dst = np.concatenate([edge_b, edge_a])
    csr_order = np.lexsort((dst, src))
    neighbors = dst[csr_order].astype(np.int32)
    degrees = np.bincount(src, minlength=count)
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return indptr, neighbors


def _bfs_levels(indptr: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Hop counts from the base station over the CSR; -1 marks unreachable."""
    count = len(indptr) - 1
    levels = np.full(count, -1, dtype=np.int32)
    levels[BASE_STATION] = 0
    frontier = np.array([BASE_STATION], dtype=np.int64)
    depth = 0
    while frontier.size:
        counts = indptr[frontier + 1] - indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        offsets = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        reached = neighbors[np.repeat(indptr[frontier], counts) + offsets]
        reached = np.unique(reached[levels[reached] < 0])
        if reached.size == 0:
            break
        depth += 1
        levels[reached] = depth
        frontier = reached.astype(np.int64)
    return levels


def build_packed_synthetic(
    num_sensors: int,
    width: float = 20.0,
    height: float = 20.0,
    radio_range: Optional[float] = None,
    seed: int = 0,
    max_seed_retries: int = 20,
) -> PackedTopology:
    """Array-native twin of ``make_synthetic_scenario``.

    Same auto-sized radio range, same deterministic seed-retry ladder, same
    placement draws — but the deployment, adjacency and ring levels are
    built directly as ndarrays, never materializing per-node dicts.
    """
    from repro.datasets.synthetic import (
        SYNTHETIC_RADIO_RANGE,
        radio_range_for_density,
    )

    if num_sensors <= 0:
        raise ConfigurationError("num_sensors must be positive")
    if radio_range is None:
        density = num_sensors / (width * height)
        radio_range = max(
            radio_range_for_density(density), SYNTHETIC_RADIO_RANGE
        )
    for attempt in range(max_seed_retries):
        xs, ys = _draw_positions(
            num_sensors, width, height, seed + 1000 * attempt
        )
        indptr, neighbors = _disc_csr(xs, ys, radio_range)
        levels = _bfs_levels(indptr, neighbors)
        if (levels >= 0).all():
            deployment = PackedDeployment(
                xs, ys, width, height, name=f"synthetic-{num_sensors}"
            )
            return PackedTopology(
                deployment=deployment,
                rings=PackedRings(levels, indptr, neighbors),
            )
    raise ConfigurationError(
        f"could not find a connected placement after {max_seed_retries} seeds"
    )


def build_packed_topology(
    name: str, num_sensors: int, seed: int
) -> Optional[PackedTopology]:
    """Array-native builder for ``name``, or None when only the generic
    dict-to-packed conversion applies."""
    if name == "synthetic":
        return build_packed_synthetic(num_sensors, seed=seed)
    if name == "synthetic-scale":
        from repro.datasets.synthetic import scale_area_side

        side = scale_area_side(num_sensors)
        return build_packed_synthetic(
            num_sensors, width=side, height=side, seed=seed
        )
    return None


def pack_topology(topology) -> PackedTopology:
    """Convert a resolved dict-shaped topology into the packed tier.

    Requires dense node ids ``0..n`` (true of every built-in topology);
    sparse id spaces have no row to live in and fail loudly.
    """
    deployment = topology.deployment
    rings = topology.rings
    ids = list(deployment.node_ids)
    if ids != list(range(len(ids))):
        raise ConfigurationError(
            "the packed state tier requires dense node ids 0..n; "
            f"got {len(ids)} ids starting {ids[:3]}"
        )
    count = len(ids)
    xs = np.empty(count, dtype=np.float64)
    ys = np.empty(count, dtype=np.float64)
    for node in ids:
        xs[node], ys[node] = deployment.position(node)
    level_of = np.full(count, -1, dtype=np.int32)
    for node, level in rings.levels.items():
        level_of[node] = level
    if (level_of < 0).any():
        raise ConfigurationError(
            "topology has nodes without ring levels; cannot pack"
        )
    edges = np.array(
        [(a, b) for a, b in rings.connectivity.edges], dtype=np.int64
    ).reshape(-1, 2)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    csr_order = np.lexsort((dst, src))
    neighbors = dst[csr_order].astype(np.int32)
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=count), out=indptr[1:])
    packed = PackedDeployment(
        xs, ys, deployment.width, deployment.height, name=deployment.name
    )
    return PackedTopology(
        deployment=packed,
        rings=PackedRings(level_of, indptr, neighbors),
        base_loss=getattr(topology, "base_loss", None),
    )


__all__ = [
    "PackedDeployment",
    "PackedRings",
    "PackedTopology",
    "build_packed_synthetic",
    "build_packed_topology",
    "pack_topology",
]
