"""The cost ledger: attribute every overlay message to the activity
that caused it.

Latency and correctness were observable since PR 2/5; this is the *cost*
axis.  Each charge names a message **kind** (priced by the
:class:`~repro.obs.cost_model.CostModel`) and optionally the node that
sent it; the ledger aggregates messages and estimated wire bytes

* per activity **category** (the fixed seven-way taxonomy),
* per **kind** (so an unpriced kind is visible, not silently averaged),
* per **node** (who is spending), and
* per sim-time **window** (bytes/node/sim-second rates, when a clock is
  installed -- simulation drivers set ``ledger.clock`` exactly like
  ``observer.clock``).

Determinism: the ledger performs pure integer accounting keyed by
strings and node ids; :meth:`snapshot` sorts every axis, so two seeded
runs produce byte-identical JSON.  The ledger is reached only through
an installed :class:`~repro.obs.recorder.Observer`; with the null
observer the network caches ``_ledger = None`` and hot paths pay a
single ``is not None`` test (the PR 2 fast-path contract).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.obs.cost_model import CostModel


class CostLedger:
    """Message/byte accounting per category, kind, node and time window.

    *clock* supplies sim-time for windowed rates (None disables
    windowing); *window* is the bucket width in sim-seconds.
    """

    __slots__ = ("model", "clock", "window", "_by_category", "_by_kind",
                 "_node_bytes", "_windows", "_unpriced", "on_unpriced")

    def __init__(
        self,
        model: Optional[CostModel] = None,
        clock: Optional[Callable[[], float]] = None,
        window: float = 10.0,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.model = model if model is not None else CostModel()
        self.clock = clock
        self.window = float(window)
        # category -> [messages, bytes]; kind -> [messages, bytes]
        self._by_category: Dict[str, List[int]] = {}
        self._by_kind: Dict[str, List[int]] = {}
        self._node_bytes: Dict[int, int] = {}
        # window index -> {category: bytes}
        self._windows: Dict[int, Dict[str, int]] = {}
        # kind -> charges seen for kinds absent from the cost model; the
        # runtime twin of lint rule CONF001 (an unpriced kind still gets
        # the DEFAULT_COST fallback, but loudly instead of silently).
        self._unpriced: Dict[str, int] = {}
        #: Called as ``hook(kind, category, fallback_bytes, first)`` on
        #: every unpriced charge; ``first`` is True only the first time a
        #: kind is seen.  The Observer wires this to a metrics counter
        #: plus a one-shot warning event.
        self.on_unpriced: Optional[Callable[[str, str, int, bool], None]] = None

    # ------------------------------------------------------------------ #
    # charging
    # ------------------------------------------------------------------ #

    def charge(
        self,
        kind: str,
        node: Optional[int] = None,
        count: int = 1,
        size: Optional[int] = None,
    ) -> int:
        """Record *count* messages of *kind*; returns the bytes charged.

        *size* overrides the model's per-message estimate (layers that
        know the real payload -- e.g. live storage moving actual file
        contents -- pass it; everything else takes the modelled cost).
        """
        category, per_message = self.model.cost(kind)
        if not self.model.priced(kind):
            # Fallback bytes are reported as modelled (pre-override), so
            # the warning names the estimate actually filling the gap.
            first = kind not in self._unpriced
            self._unpriced[kind] = self._unpriced.get(kind, 0) + count
            hook = self.on_unpriced
            if hook is not None:
                hook(kind, category, per_message, first)
        if size is not None:
            per_message = size
        total = per_message * count

        cell = self._by_category.get(category)
        if cell is None:
            self._by_category[category] = [count, total]
        else:
            cell[0] += count
            cell[1] += total

        cell = self._by_kind.get(kind)
        if cell is None:
            self._by_kind[kind] = [count, total]
        else:
            cell[0] += count
            cell[1] += total

        if node is not None:
            self._node_bytes[node] = self._node_bytes.get(node, 0) + total

        clock = self.clock
        if clock is not None:
            index = int(clock() / self.window)
            bucket = self._windows.get(index)
            if bucket is None:
                bucket = self._windows[index] = {}
            bucket[category] = bucket.get(category, 0) + total
        return total

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    @property
    def unpriced(self) -> Dict[str, int]:
        """kind -> messages charged without an explicit cost-model entry."""
        return dict(sorted(self._unpriced.items()))

    def unpriced_total(self) -> int:
        """Messages charged against the DEFAULT_COST fallback overall."""
        return sum(self._unpriced.values())

    def total_messages(self) -> int:
        return sum(cell[0] for cell in self._by_category.values())

    def total_bytes(self) -> int:
        return sum(cell[1] for cell in self._by_category.values())

    def category_bytes(self, category: str) -> int:
        cell = self._by_category.get(category)
        return cell[1] if cell is not None else 0

    def category_messages(self, category: str) -> int:
        cell = self._by_category.get(category)
        return cell[0] if cell is not None else 0

    def top_nodes(self, limit: int = 5) -> List[dict]:
        """The *limit* most expensive senders (ties break on node id)."""
        ranked = sorted(self._node_bytes.items(), key=lambda kv: (-kv[1], kv[0]))
        return [{"node": node, "bytes": spent} for node, spent in ranked[:limit]]

    def rates(self, node_count: int, duration: float) -> Dict[str, float]:
        """Mean bytes/node/sim-second per category over a whole run."""
        if node_count <= 0 or duration <= 0:
            raise ValueError("node_count and duration must be positive")
        scale = node_count * duration
        return {
            category: round(cell[1] / scale, 6)
            for category, cell in sorted(self._by_category.items())
        }

    def snapshot(self) -> dict:
        """Deterministic full dump: every axis sorted, plain types only."""
        return {
            "total_messages": self.total_messages(),
            "total_bytes": self.total_bytes(),
            "by_category": {
                category: {"messages": cell[0], "bytes": cell[1]}
                for category, cell in sorted(self._by_category.items())
            },
            "by_kind": {
                kind: {"messages": cell[0], "bytes": cell[1]}
                for kind, cell in sorted(self._by_kind.items())
            },
            "unpriced": self.unpriced,
            "nodes_charged": len(self._node_bytes),
            "top_nodes": self.top_nodes(5),
            "window_seconds": self.window,
            "windows": [
                {
                    "start": round(index * self.window, 6),
                    "by_category": {
                        category: spent
                        for category, spent in sorted(bucket.items())
                    },
                }
                for index, bucket in sorted(self._windows.items())
            ],
        }

    def summary(self, top: int = 5) -> dict:
        """Compact block for CLI ``--json`` output."""
        return {
            "total_messages": self.total_messages(),
            "total_bytes": self.total_bytes(),
            "by_category_bytes": {
                category: cell[1]
                for category, cell in sorted(self._by_category.items())
            },
            "unpriced_messages": self.unpriced_total(),
            "top_nodes": self.top_nodes(top),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CostLedger(messages={self.total_messages()}, "
            f"bytes={self.total_bytes()}, "
            f"categories={len(self._by_category)})"
        )
