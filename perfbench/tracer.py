"""Timing shims installed from outside the program.

The traced run wraps the public entry points of each layer -- and, where
a layer has no public entry point on the hot path, the one method that
is its boundary -- by replacing attributes on the program's classes and
modules for the duration of the run.  Nothing under ``src/`` is edited;
:meth:`Tracer.uninstall` puts every original back.

Each wrapped call is a span: name, start, end, parent, and the id of the
client operation it serves.  Spans nest through one stack.  The program
is single-threaded, so the stack always holds exactly the frames of the
code running now:

* a synchronous shim is one segment, from call to return;
* an asynchronous shim is timed per *segment* -- each resumption of its
  coroutine, up to the next suspension -- so time spent while it waits
  (and other tasks run) is not charged to it.

Self time is accumulated per segment: the segment's duration minus the
segments of the shims that ran inside it.  Summing self time over all
shims therefore never counts a moment twice, and what is left of an
operation's time is code no shim covers (the asyncio scheduler, socket
syscalls, the benchmark's own loop).

Span records are kept in memory for a sample of operations and written
out when the run ends; the per-layer sums cover every operation.  A
workload calls :meth:`Tracer.reset` when its measured phase starts and
:meth:`Tracer.snapshot` when it ends, so warm-up, verification and
shutdown stay out of the sums and out of the written spans.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Keep the span records of one operation in this many.
SPAN_SAMPLE_EVERY = 16
#: Upper bound on retained span records, whatever the run length.
MAX_SPAN_RECORDS = 200_000


class _Frame:
    __slots__ = ("name", "op", "span_id", "parent_id", "start", "run", "child")

    def __init__(self, name: str, op: Optional[int], span_id: int,
                 parent_id: Optional[int]) -> None:
        self.name = name
        self.op = op
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = perf_counter()
        self.run = 0.0    # running time of this span, children included
        self.child = 0.0  # children's running time in the current segment


@dataclass(frozen=True)
class Sums:
    """What the shims recorded over one measured phase."""

    self_s: Dict[str, float]
    calls: Dict[str, int]
    run_s: Dict[str, float]
    counts: Dict[str, float]
    peaks: Dict[str, float]
    spans: int


class Tracer:
    """Installs shims, keeps the span stack, sums self time per layer."""

    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: running time per name, children included (whole spans)
        self.run_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.peaks: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self.span_limit = MAX_SPAN_RECORDS
        self._next_span = 0
        self._next_op = 0
        #: protocol request id -> benchmark op id, learnt when a span that
        #: carries a request id opens under an operation's span.
        self._op_of_request: Dict[int, int] = {}
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Forget the sums and spans (the measured phase starts now)."""
        self.self_s.clear()
        self.calls.clear()
        self.run_s.clear()
        self.counts.clear()
        self.peaks.clear()
        self.spans.clear()
        self.span_limit = MAX_SPAN_RECORDS

    def snapshot(self) -> Sums:
        """The sums so far (the measured phase ends now).  Spans that
        close later are not kept, so the written spans match the sums."""
        self.span_limit = len(self.spans)
        return Sums(dict(self.self_s), dict(self.calls), dict(self.run_s),
                    dict(self.counts), dict(self.peaks), len(self.spans))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    def _open(self, name: str, op: Optional[int], request_id) -> _Frame:
        parent = self.stack[-1] if self.stack else None
        if op is None and parent is not None:
            op = parent.op
        if request_id is not None:
            if op is None:
                op = self._op_of_request.get(request_id)
            else:
                self._op_of_request.setdefault(request_id, op)
        self._next_span += 1
        self.calls[name] += 1
        return _Frame(name, op, self._next_span,
                      parent.span_id if parent is not None else None)

    def _segment(self, frame: _Frame, began: float) -> None:
        """Close one running segment of *frame* (already popped)."""
        elapsed = perf_counter() - began
        frame.run += elapsed
        self.self_s[frame.name] += elapsed - frame.child
        frame.child = 0.0
        if self.stack:
            self.stack[-1].child += elapsed

    def _close(self, frame: _Frame) -> None:
        self.run_s[frame.name] += frame.run
        op = frame.op
        if op is not None and op % SPAN_SAMPLE_EVERY == 0 \
                and len(self.spans) < self.span_limit:
            self.spans.append((frame.name, frame.start, perf_counter(),
                               frame.run, frame.span_id, frame.parent_id, op))

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    # ------------------------------------------------------------------ #
    # shims
    # ------------------------------------------------------------------ #

    def _sync_shim(self, fn, name, new_op, request_of, after):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            frame = tracer._open(name, tracer.new_op() if new_op else None,
                                 request_of(args) if request_of else None)
            tracer.stack.append(frame)
            began = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                tracer._segment(frame, began)
                tracer._close(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        return shim

    def _async_shim(self, fn, name, new_op, request_of, after):
        tracer = self

        @functools.wraps(fn)
        async def shim(*args, **kwargs):
            frame = tracer._open(name, tracer.new_op() if new_op else None,
                                 request_of(args) if request_of else None)
            result = await _TimedAwait(tracer, frame, fn(*args, **kwargs))
            if after is not None:
                after(tracer, args, result)
            return result

        return shim

    def wrap(self, owner: Any, attr: str, name: str, *,
             new_op: bool = False,
             request_of: Optional[Callable[[tuple], Any]] = None,
             after: Optional[Callable[["Tracer", tuple, Any], None]] = None) -> None:
        """Replace ``owner.attr`` with a timed shim recorded as *name*.

        *new_op* marks a client operation (a fresh op id); *request_of*
        pulls the protocol request id out of the call's arguments so work
        done in other tasks is attributed to the operation that caused
        it; *after* sees each result (for counts).
        """
        raw = inspect.getattr_static(owner, attr)
        if getattr(getattr(raw, "__func__", raw), "perfbench_shim", False):
            return  # inherited from a class already wrapped
        wrapper_type = None
        fn = raw
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper_type = type(raw)
            fn = raw.__func__
        make = self._async_shim if inspect.iscoroutinefunction(fn) else self._sync_shim
        shim = make(fn, name, new_op, request_of, after)
        shim.perfbench_shim = True
        setattr(owner, attr, wrapper_type(shim) if wrapper_type else shim)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #

    def write_spans(self, path) -> int:
        """Write the retained span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, run, span_id, parent_id, op in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end, "run": run,
                    "span": span_id, "parent": parent_id, "op": op,
                }, separators=(",", ":")) + "\n")
        return len(self.spans)


class _TimedAwait:
    """Drive a coroutine, timing each segment it runs for."""

    __slots__ = ("tracer", "frame", "coro")

    def __init__(self, tracer: Tracer, frame: _Frame, coro) -> None:
        self.tracer = tracer
        self.frame = frame
        self.coro = coro

    def __await__(self):
        tracer, frame, coro = self.tracer, self.frame, self.coro
        stack = tracer.stack
        value: Any = None
        error: Optional[BaseException] = None
        try:
            while True:
                stack.append(frame)
                began = perf_counter()
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    stack.pop()
                    tracer._segment(frame, began)
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # lint: disable=ERR001 -- rethrown inside
                    value, error = None, exc
        finally:
            tracer._close(frame)


def request_id_of_message(args: tuple) -> Any:
    """``(self, message)`` or ``(self, destination, message)`` -> the
    protocol request id the message carries, if any."""
    message = args[-1]
    payload = getattr(message, "payload", None)
    return payload.get("request_id") if isinstance(payload, dict) else None


def request_id_of_payload(args: tuple) -> Any:
    payload = args[-1]
    return payload.get("request_id") if isinstance(payload, dict) else None
