"""CAN (Ratnasamy et al., SIGCOMM 2001) -- the d-dimensional baseline.

Nodes own hyperrectangular zones of a d-dimensional unit torus.  A
joining node picks a random point; the node owning that point splits its
zone in half (cycling through dimensions) and hands one half over.
Routing is greedy: forward to the neighbour (zone sharing a face) whose
zone is closest to the target point, until the target falls in the
current node's zone.

The contrast with Pastry (benchmark E13): per-node state is O(d)
(independent of N), but route length grows as O(d N^(1/d)) -- faster
than log N.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

Point = Tuple[float, ...]


@dataclass
class Zone:
    """A half-open hyperrectangle [low_i, high_i) per dimension."""

    lows: Tuple[float, ...]
    highs: Tuple[float, ...]

    def contains(self, point: Point) -> bool:
        return all(
            low <= coordinate < high
            for coordinate, low, high in zip(point, self.lows, self.highs)
        )

    def center(self) -> Point:
        return tuple((low + high) / 2.0 for low, high in zip(self.lows, self.highs))

    def split(self, dimension: int) -> Tuple["Zone", "Zone"]:
        """Halve the zone along *dimension*; returns (kept, given-away)."""
        mid = (self.lows[dimension] + self.highs[dimension]) / 2.0
        lows_hi = list(self.lows)
        lows_hi[dimension] = mid
        highs_lo = list(self.highs)
        highs_lo[dimension] = mid
        kept = Zone(self.lows, tuple(highs_lo))
        given = Zone(tuple(lows_hi), self.highs)
        return kept, given

    def widest_dimension(self) -> int:
        extents = [high - low for low, high in zip(self.lows, self.highs)]
        return max(range(len(extents)), key=lambda i: extents[i])


def _interval_overlap(a_low: float, a_high: float, b_low: float, b_high: float) -> bool:
    """Open-interval overlap (shared extent, not just a touching edge)."""
    return a_low < b_high and b_low < a_high


def _interval_touch(a_low: float, a_high: float, b_low: float, b_high: float, wrap: bool) -> bool:
    """Closed abutment: the intervals share an endpoint (torus-aware)."""
    if a_high == b_low or b_high == a_low:
        return True
    if wrap and ((a_low == 0.0 and b_high == 1.0) or (b_low == 0.0 and a_high == 1.0)):
        return True
    return False


def zones_adjacent(a: Zone, b: Zone) -> bool:
    """Face adjacency on the torus: abut in exactly one dimension and
    overlap in all others."""
    touching = 0
    for dim in range(len(a.lows)):
        if _interval_overlap(a.lows[dim], a.highs[dim], b.lows[dim], b.highs[dim]):
            continue
        if _interval_touch(a.lows[dim], a.highs[dim], b.lows[dim], b.highs[dim], wrap=True):
            touching += 1
            continue
        return False
    return touching == 1


def _coordinate_gap(value: float, low: float, high: float) -> float:
    """Torus distance from *value* to the interval [low, high)."""
    if low <= value < high:
        return 0.0
    gap_low = abs(value - low)
    gap_high = abs(value - high)
    return min(gap_low, 1.0 - gap_low, gap_high, 1.0 - gap_high)


def zone_distance(zone: Zone, point: Point) -> float:
    """Squared torus distance from *point* to the nearest point of *zone*.

    Greedy routing on zone distance (rather than zone-center distance)
    cannot loop: the next zone always strictly reduces the distance to
    the target, because zones tile the space."""
    total = 0.0
    for value, low, high in zip(point, zone.lows, zone.highs):
        gap = _coordinate_gap(value, low, high)
        total += gap * gap
    return total


@dataclass
class CanNode:
    node_id: int
    zone: Zone
    neighbours: List[int] = field(default_factory=list)

    def state_size(self) -> int:
        return len(self.neighbours)


@dataclass
class CanRouteResult:
    target: Point
    path: List[int]
    delivered: bool

    @property
    def hops(self) -> int:
        return max(len(self.path) - 1, 0)

    @property
    def destination(self) -> Optional[int]:
        return self.path[-1] if self.delivered else None


class CanNetwork:
    """A CAN overlay on the d-dimensional unit torus."""

    def __init__(self, dimensions: int = 2) -> None:
        if dimensions < 1:
            raise ValueError("need at least one dimension")
        self.dimensions = dimensions
        self.nodes: Dict[int, CanNode] = {}
        self._next_id = 0

    def build(self, n: int, rng: random.Random) -> None:
        """Grow the overlay one join at a time (real zone splits)."""
        if n < 1:
            raise ValueError("need at least one node")
        first = CanNode(
            node_id=self._take_id(),
            zone=Zone(lows=(0.0,) * self.dimensions, highs=(1.0,) * self.dimensions),
        )
        self.nodes[first.node_id] = first
        for _ in range(n - 1):
            self._join(rng)

    def _take_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def owner_of(self, point: Point) -> int:
        """Ground truth: the node whose zone contains *point*."""
        for node in self.nodes.values():
            if node.zone.contains(point):
                return node.node_id
        raise ValueError(f"no zone contains {point}")

    def _join(self, rng: random.Random) -> CanNode:
        point = tuple(rng.random() for _ in range(self.dimensions))
        owner = self.nodes[self.owner_of(point)]
        kept, given = owner.zone.split(owner.zone.widest_dimension())
        owner.zone = kept
        newcomer = CanNode(node_id=self._take_id(), zone=given)
        self.nodes[newcomer.node_id] = newcomer
        # Recompute adjacency for the two affected nodes and everyone who
        # bordered the old zone.  O(n) per join: fine at baseline scale.
        self._refresh_neighbours(owner)
        self._refresh_neighbours(newcomer)
        return newcomer

    def _refresh_neighbours(self, node: CanNode) -> None:
        node.neighbours = [
            other.node_id
            for other in self.nodes.values()
            if other.node_id != node.node_id and zones_adjacent(node.zone, other.zone)
        ]
        for other_id in list(self.nodes):
            other = self.nodes[other_id]
            if other.node_id == node.node_id:
                continue
            adjacent = zones_adjacent(node.zone, other.zone)
            has = node.node_id in other.neighbours
            if adjacent and not has:
                other.neighbours.append(node.node_id)
            elif not adjacent and has:
                other.neighbours.remove(node.node_id)

    def route(self, target: Point, origin: int, max_hops: Optional[int] = None) -> CanRouteResult:
        """Greedy torus routing towards the zone containing *target*."""
        if origin not in self.nodes:
            raise ValueError("unknown origin")
        if len(target) != self.dimensions:
            raise ValueError("target dimensionality mismatch")
        if max_hops is None:
            side = int(round(len(self.nodes) ** (1.0 / self.dimensions) + 1))
            max_hops = 8 * side * self.dimensions + 32
        current = self.nodes[origin]
        path = [origin]
        while not current.zone.contains(target):
            best = None
            best_distance = None
            for neighbour_id in current.neighbours:
                neighbour = self.nodes[neighbour_id]
                distance = zone_distance(neighbour.zone, target)
                if best_distance is None or distance < best_distance:
                    best_distance = distance
                    best = neighbour
            if best is None:
                return CanRouteResult(target=target, path=path, delivered=False)
            path.append(best.node_id)
            if len(path) - 1 > max_hops:
                return CanRouteResult(target=target, path=path, delivered=False)
            current = best
        return CanRouteResult(target=target, path=path, delivered=True)

    def average_state_size(self) -> float:
        if not self.nodes:
            return 0.0
        return sum(n.state_size() for n in self.nodes.values()) / len(self.nodes)
