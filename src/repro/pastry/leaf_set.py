"""The leaf set: the l nodes numerically closest to a node.

Each Pastry node maintains the l/2 nodes with numerically closest larger
nodeIds and the l/2 with numerically closest smaller nodeIds (circular,
so "larger" means clockwise).  The leaf set serves three roles:

* routing termination -- if a key falls within the leaf set's range the
  message is forwarded directly to the numerically closest member;
* failure tolerance -- delivery is guaranteed unless floor(l/2) nodes
  with adjacent nodeIds fail simultaneously (claim C6);
* replica placement -- PAST stores a file on the k members closest to
  the fileId, which the root reads off its leaf set.

In a network smaller than l the two sides overlap (the same node can be
among the closest on both sides); this is normal and handled throughout.

Performance notes: the routing queries (``covers``, ``closest_to``,
``replica_candidates``) run on every hop of every message, so they work
off caches -- a sorted ring of members (owner included) binary-searched
per query, and an overlap flag -- instead of materialising fresh sets.
Each side also keeps its members' circular offsets in a parallel sorted
list, making admission a binary search rather than a scan of recomputed
offsets.  All caches invalidate on mutation (``add`` / ``remove``); the
``version`` stamp lets dependants (``NodeState.known_nodes``) do the
same.  Every query returns bit-identical results to the original
set-based implementation, which the equivalence tests assert.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Set

from repro.pastry.nodeid import IdSpace
from repro.pastry.versioning import next_version


class LeafSet:
    """Leaf set of one node (the *owner*)."""

    __slots__ = (
        "space",
        "owner",
        "capacity",
        "half",
        "_larger",
        "_larger_offsets",
        "_smaller",
        "_smaller_offsets",
        "version",
        "_members_cache",
        "_ring_cache",
        "_members_sorted_cache",
        "_overlap_cache",
    )

    def __init__(self, space: IdSpace, owner: int, capacity: int = 32) -> None:
        if capacity < 2 or capacity % 2 != 0:
            raise ValueError("leaf set capacity l must be an even number >= 2")
        self.space = space
        self.owner = space.validate(owner)
        self.capacity = capacity
        self.half = capacity // 2
        # Sorted by clockwise offset from the owner, nearest first, with
        # the offsets themselves kept in a parallel list.
        self._larger: List[int] = []
        self._larger_offsets: List[int] = []
        # Sorted by counter-clockwise offset from the owner, nearest first.
        self._smaller: List[int] = []
        self._smaller_offsets: List[int] = []
        self.version = next_version()
        self._members_cache: Optional[frozenset] = None
        self._ring_cache: Optional[List[int]] = None  # sorted, owner included
        self._members_sorted_cache: Optional[List[int]] = None
        self._overlap_cache: Optional[bool] = None

    def _invalidate(self) -> None:
        self.version = next_version()
        self._members_cache = None
        self._ring_cache = None
        self._members_sorted_cache = None
        self._overlap_cache = None

    # ------------------------------------------------------------------ #
    # membership maintenance
    # ------------------------------------------------------------------ #

    def add(self, node_id: int) -> bool:
        """Consider *node_id* for membership; returns True if it was
        admitted to (or already on) either side."""
        if node_id == self.owner:
            return False
        self.space.validate(node_id)
        # One modular offset computation covers both sides: for distinct
        # ids the counter-clockwise offset is the ring complement of the
        # clockwise one.
        size = self.space.size
        clockwise = (node_id - self.owner) % size
        counter_clockwise = size - clockwise
        admitted, mutated = self._admit(
            self._larger, self._larger_offsets, node_id, clockwise
        )
        admitted_s, mutated_s = self._admit(
            self._smaller, self._smaller_offsets, node_id, counter_clockwise
        )
        if mutated or mutated_s:
            self._invalidate()
        return admitted or admitted_s

    def _admit(
        self, side: List[int], offsets: List[int], node_id: int, offset: int
    ) -> tuple:
        """Returns (admitted, mutated).  The offset uniquely identifies
        the id on a side, so the membership test rides the same binary
        search as the insertion."""
        position = bisect.bisect_left(offsets, offset)
        if position < len(offsets) and offsets[position] == offset:
            return True, False
        if len(side) >= self.half:
            if position >= self.half:
                # Would be inserted past the capacity boundary and
                # immediately evicted: reject without touching the side.
                return False, False
            side.insert(position, node_id)
            offsets.insert(position, offset)
            side.pop()
            offsets.pop()
            return True, True
        side.insert(position, node_id)
        offsets.insert(position, offset)
        return True, True

    def seed_from_ring(self, ids, index: int) -> None:
        """Load both sides straight off a sorted live ring.

        *ids* is the ascending ring of live ids with the owner at
        *index*.  Each side becomes the ``min(l/2, count-1)`` ring
        neighbours in that direction, nearest first -- byte-identical to
        offering the whole +-l/2 window through :meth:`add` (which is
        what the equivalence tests assert), at a fraction of the cost:
        the ring order *is* the offset order, so no binary searches run.
        """
        count = len(ids)
        owner = self.owner
        size = self.space.size
        reach = min(self.half, count - 1) if count > 0 else 0
        larger = [ids[(index + k) % count] for k in range(1, reach + 1)]
        smaller = [ids[(index - k) % count] for k in range(1, reach + 1)]
        self._larger = larger
        self._larger_offsets = [(n - owner) % size for n in larger]
        self._smaller = smaller
        self._smaller_offsets = [(owner - n) % size for n in smaller]
        self._invalidate()

    def remove(self, node_id: int) -> bool:
        """Drop a (failed) node from both sides; True if it was present."""
        present = False
        for side, offsets in (
            (self._larger, self._larger_offsets),
            (self._smaller, self._smaller_offsets),
        ):
            if node_id in side:
                index = side.index(node_id)
                side.pop(index)
                offsets.pop(index)
                present = True
        if present:
            self._invalidate()
        return present

    def members(self) -> Set[int]:
        """All distinct leaf set members (owner excluded)."""
        if self._members_cache is None:
            self._members_cache = frozenset(self._larger) | frozenset(self._smaller)
        return self._members_cache

    def _members_sorted(self) -> List[int]:
        """Distinct members in ascending id order (cached)."""
        if self._members_sorted_cache is None:
            self._members_sorted_cache = sorted(self.members())
        return self._members_sorted_cache

    def _ring(self) -> List[int]:
        """Distinct members plus the owner, ascending (cached).  This is
        the list the routing queries binary-search."""
        if self._ring_cache is None:
            ring = list(self._members_sorted())
            bisect.insort(ring, self.owner)
            self._ring_cache = ring
        return self._ring_cache

    def larger_side(self) -> List[int]:
        """Clockwise neighbours, nearest first (copy)."""
        return list(self._larger)

    def smaller_side(self) -> List[int]:
        """Counter-clockwise neighbours, nearest first (copy)."""
        return list(self._smaller)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._larger or node_id in self._smaller

    def __len__(self) -> int:
        return len(self.members())

    # ------------------------------------------------------------------ #
    # routing queries
    # ------------------------------------------------------------------ #

    def covers(self, key: int) -> bool:
        """True iff *key* falls within the leaf set's id range.

        The range runs clockwise from the furthest smaller-side member to
        the furthest larger-side member.  A side that is not full implies
        the network holds fewer nodes than the side can, i.e. the leaf
        set sees the whole ring, so coverage is total.
        """
        if not self._larger or not self._smaller:
            return True
        if len(self._larger) < self.half or len(self._smaller) < self.half:
            return True
        if self._overlap_cache is None:
            # A node on both sides means the two arcs overlap: the leaf
            # set contains every other node in the network, so it covers
            # the whole ring (possible only when N - 1 < l).
            self._overlap_cache = not set(self._larger).isdisjoint(self._smaller)
        if self._overlap_cache:
            return True
        low = self._smaller[-1]
        high = self._larger[-1]
        return self.space.is_between_clockwise(low, key, high)

    def closest_to(self, key: int, include_owner: bool = True) -> int:
        """The member (optionally including the owner) numerically
        closest to *key*.

        Binary search over the cached sorted ring: the circularly
        closest id is always one of the two ring neighbours of *key*,
        with ties broken towards the larger id (as ``IdSpace.closest``).
        """
        ids = self._ring() if include_owner else self._members_sorted()
        count = len(ids)
        if count == 0:
            raise ValueError("closest() of empty candidate set")
        index = bisect.bisect_left(ids, key)
        after = ids[index % count]
        before = ids[(index - 1) % count]
        if after == before:
            return after
        distance = self.space.distance
        key_after = (distance(after, key), -after)
        key_before = (distance(before, key), -before)
        return after if key_after < key_before else before

    def replica_candidates(self, key: int, k: int) -> List[int]:
        """The k nodes numerically closest to *key* among owner + members.

        This is how a PAST root node selects the k storage nodes for a
        file: itself plus its leaf set neighbours, ranked by circular
        distance to the fileId.  Requires k <= l/2 + 1 for correctness
        in a large network (otherwise the leaf set may not see enough of
        the ring); we enforce the safe bound.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > self.half + 1:
            raise ValueError(
                f"replication factor {k} exceeds what a leaf set of "
                f"l={self.capacity} can place (max {self.half + 1})"
            )
        ids = self._ring()
        count = len(ids)
        if 2 * k + 1 >= count:
            pool: List[int] = ids
        else:
            # The k circularly closest ids all sit within k ring
            # positions of the key's insertion point.
            index = bisect.bisect_left(ids, key)
            pool = sorted(
                {ids[(index + offset) % count] for offset in range(-k, k + 1)}
            )
        distance = self.space.distance
        pool = sorted(pool, key=lambda n: (distance(n, key), -n))
        return pool[:k]

    def neighbours_adjacent_to_owner(self, count: int) -> List[int]:
        """The *count* members nearest the owner on each side, interleaved
        (used by keep-alive scheduling)."""
        out: List[int] = []
        for i in range(max(len(self._larger), len(self._smaller))):
            if i < len(self._larger):
                out.append(self._larger[i])
            if i < len(self._smaller):
                out.append(self._smaller[i])
            if len(out) >= count:
                break
        return out[:count]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fmt = self.space.format_id
        return (
            f"LeafSet(owner={fmt(self.owner)}, "
            f"smaller={[fmt(n) for n in self._smaller]}, "
            f"larger={[fmt(n) for n in self._larger]})"
        )
