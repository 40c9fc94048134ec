"""W3C-style trace context and the distributed span collector.

One client operation on the live cluster -- an ``insert``, ``lookup``
or raw ``route`` -- is executed by many nodes: the origin, every
routing hop, the root, and the replica holders the root fans out to.
Each participant sees only its own slice of the work, so the layer
records *flat* span records (trace_id, span_id, parent_id) the way a
real distributed tracer does, and :class:`TraceCollector.assemble`
rebuilds the per-operation span tree afterwards from the parent links
alone.

Context propagates inside live messages as a ``traceparent`` header in
the W3C Trace Context format (``00-<trace_id>-<span_id>-<flags>``).
All identifiers are deterministic: trace ids come from an injected
seeded rng stream, and child span ids are derived with
:func:`repro.sim.rng.stable_seed` from the parent's ids plus a child
index -- never from wall-clock time or process randomness -- so a
seeded run serialises its traces byte-identically (the property the
live-trace determinism tests pin).

Timestamps are *logical*: the collector's monotonic tick, or sim-time
when the caller supplies it (the churn simulation stamps its lookup
traces with engine time).  Durations therefore order operations by how
much traced work happened during them, which is what the ``repro
trace`` slow-op log ranks by.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.spans import Span
from repro.sim.rng import stable_seed

TRACEPARENT_VERSION = "00"
FLAG_SAMPLED = 0x01

_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})"
    r"-(?P<span_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


def derive_span_id(*parts: object) -> str:
    """A 16-hex-digit span id derived deterministically from *parts*."""
    return f"{stable_seed(*parts):016x}"


def new_trace_id(rng: random.Random) -> str:
    """A 32-hex-digit trace id drawn from an injected seeded stream."""
    return f"{rng.getrandbits(128):032x}"


@dataclass(frozen=True)
class TraceContext:
    """One position in a trace: which trace, which span, whose child."""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    sampled: bool = True

    @classmethod
    def root(cls, rng: random.Random, sampled: bool = True) -> "TraceContext":
        """Start a new trace; the root span id is derived from the
        trace id so the pair stays a pure function of the rng stream."""
        trace_id = new_trace_id(rng)
        return cls(
            trace_id=trace_id,
            span_id=derive_span_id(trace_id, "root"),
            parent_id=None,
            sampled=sampled,
        )

    def child(self, *qualifiers: object) -> "TraceContext":
        """The context a sub-operation runs under.  *qualifiers*
        (attempt number, hop index, replica id, ...) make sibling span
        ids distinct and deterministic -- two runs of the same seeded
        scenario derive identical ids."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=derive_span_id(self.trace_id, self.span_id, *qualifiers),
            parent_id=self.span_id,
            sampled=self.sampled,
        )

    # ------------------------------------------------------------------ #
    # wire format
    # ------------------------------------------------------------------ #

    def to_traceparent(self) -> str:
        flags = FLAG_SAMPLED if self.sampled else 0
        return (
            f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-{flags:02x}"
        )

    @classmethod
    def from_traceparent(cls, header: str) -> "TraceContext":
        """Parse a ``traceparent`` header; raises ValueError on any
        malformation (wrong field widths, non-hex, all-zero ids)."""
        match = _TRACEPARENT_RE.match(header)
        if match is None:
            raise ValueError(f"malformed traceparent: {header!r}")
        trace_id = match.group("trace_id")
        span_id = match.group("span_id")
        if set(trace_id) == {"0"} or set(span_id) == {"0"}:
            raise ValueError(f"all-zero id in traceparent: {header!r}")
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=None,  # the wire carries position, not ancestry
            sampled=bool(int(match.group("flags"), 16) & FLAG_SAMPLED),
        )


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, flat: ancestry is carried by ids alone."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float
    attributes: tuple  # sorted (key, value) pairs; hashable and ordered

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class TraceCollector:
    """Collects flat span records and rebuilds per-trace span trees.

    The collector owns a logical clock: :meth:`tick` returns a strictly
    increasing float, so span start/end pairs order deterministically
    under seeded asyncio interleavings without ever reading the wall
    clock (lint rule DET002's concern).  Callers with real timestamps
    (sim-time) pass them explicitly instead.
    """

    def __init__(self) -> None:
        self._records: List[SpanRecord] = []
        self._by_trace: Dict[str, List[SpanRecord]] = {}
        self._clock = 0.0

    def tick(self) -> float:
        self._clock += 1.0
        return self._clock

    def record(
        self,
        ctx: TraceContext,
        name: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
        **attributes: object,
    ) -> SpanRecord:
        """Record one finished span under *ctx*.  Omitted timestamps are
        stamped from the logical clock (start == end: a point event)."""
        if start is None:
            start = self.tick()
        if end is None:
            end = start
        record = SpanRecord(
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_id=ctx.parent_id,
            name=name,
            start=start,
            end=end,
            attributes=tuple(sorted(attributes.items())),
        )
        self._records.append(record)
        self._by_trace.setdefault(ctx.trace_id, []).append(record)
        return record

    # ------------------------------------------------------------------ #
    # read-out
    # ------------------------------------------------------------------ #

    def records(self) -> List[SpanRecord]:
        return list(self._records)

    def trace_ids(self) -> List[str]:
        """Trace ids in first-seen order (deterministic per seed)."""
        return list(self._by_trace)

    def trace_records(self, trace_id: str) -> List[SpanRecord]:
        return list(self._by_trace.get(trace_id, []))

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------ #
    # tree assembly
    # ------------------------------------------------------------------ #

    def assemble(self, trace_id: str) -> Span:
        """Rebuild the span tree for *trace_id* from parent links.

        Well-formedness is enforced, not assumed: exactly one root,
        every parent_id resolving inside the trace, and no duplicate
        span ids -- a violated link means context propagation broke,
        which is precisely what the concurrent-insert tests check.
        """
        records = self._by_trace.get(trace_id)
        if not records:
            raise KeyError(f"unknown trace: {trace_id}")
        by_id: Dict[str, SpanRecord] = {}
        for record in records:
            if record.span_id in by_id:
                raise ValueError(
                    f"trace {trace_id}: duplicate span id {record.span_id}"
                )
            by_id[record.span_id] = record
        roots = [r for r in records if r.parent_id is None]
        if len(roots) != 1:
            raise ValueError(
                f"trace {trace_id}: expected exactly one root span, "
                f"found {len(roots)}"
            )
        children: Dict[str, List[SpanRecord]] = {}
        for record in records:
            if record.parent_id is None:
                continue
            if record.parent_id not in by_id:
                raise ValueError(
                    f"trace {trace_id}: span {record.span_id} has unknown "
                    f"parent {record.parent_id}"
                )
            children.setdefault(record.parent_id, []).append(record)

        def build(record: SpanRecord) -> Span:
            span = Span(record.name, **dict(record.attributes))
            span.attributes["span_id"] = record.span_id
            span.start = record.start
            span.duration = record.end - record.start
            for child in sorted(
                children.get(record.span_id, []),
                key=lambda r: (r.start, r.span_id),
            ):
                span.adopt(build(child))
            return span

        return build(roots[0])

    # ------------------------------------------------------------------ #
    # slow-op log
    # ------------------------------------------------------------------ #

    def top_spans(self, n: int = 10) -> List[SpanRecord]:
        """The *n* longest spans (the slow-op log), ordered by duration
        descending with (trace_id, span_id) as a deterministic
        tie-break."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return sorted(
            self._records,
            key=lambda r: (-r.duration, r.trace_id, r.span_id),
        )[:n]

    # ------------------------------------------------------------------ #
    # JSONL export
    # ------------------------------------------------------------------ #

    def to_jsonl(self) -> str:
        """One record per line in collection order: byte-identical
        across identical seeded runs."""
        return "".join(record.to_json() + "\n" for record in self._records)

    def write_jsonl(self, path: Union[str, Path]) -> int:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")
        return len(self._records)


def load_trace_jsonl(path: Union[str, Path]) -> TraceCollector:
    """Rebuild a collector from an exported trace JSONL artifact (the
    ``repro.cli trace --out`` / chaos ``--traces`` files)."""
    collector = TraceCollector()
    clock = 0.0
    for line_number, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {line_number}: invalid JSON ({exc.msg})") from exc
        try:
            record = SpanRecord(
                trace_id=obj["trace_id"],
                span_id=obj["span_id"],
                parent_id=obj["parent_id"],
                name=obj["name"],
                start=float(obj["start"]),
                end=float(obj["end"]),
                attributes=tuple(sorted(obj["attributes"].items())),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"line {line_number}: not a span record") from exc
        collector._records.append(record)
        collector._by_trace.setdefault(record.trace_id, []).append(record)
        clock = max(clock, record.end)
    collector._clock = clock
    return collector
