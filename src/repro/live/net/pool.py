"""Socket endpoints and per-peer connection pooling.

Three small pieces compose into the socket transport's data plane:

* :class:`NodeEndpoint` -- one ``asyncio.start_server`` listener per
  node, bound to an ephemeral localhost port.  Each inbound connection
  gets its own :class:`~repro.live.net.framing.FrameDecoder`; completed
  frame payloads are handed to the endpoint's async ``deliver``
  callback.  A framing violation (oversized frame, undecodable stream)
  poisons only that connection -- it is torn down, the listener and its
  other connections live on.
* :class:`PeerLink` -- the sender side: one long-lived outbound
  connection per (transport, destination) pair, fed by a **bounded**
  frame queue drained by a writer task.  The bound is the backpressure
  point: when a peer reads slower than we send, the queue fills and
  ``send()`` times out with a typed ``SEND_TIMEOUT`` instead of
  buffering without limit.  A broken connection is retried once with a
  fresh socket; if that also fails the frame is discarded and reported
  through ``on_discard`` (to the transport's in-flight accounting).
* :class:`NodePool` -- the registry hosting N endpoints + links in one
  process, with graceful ``aclose()`` (stop listeners, flush-and-stop
  writers, cancel readers).

The pool knows nothing about messages -- it moves opaque frames.  All
protocol semantics (fault injection, ledger charging, dead-peer checks)
stay in :class:`~repro.live.net.transport.SocketTransport`.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple

from repro.live.net.framing import DEFAULT_MAX_FRAME, FrameDecoder, FrameError

#: Queue sentinel telling a writer task to flush and exit.
_CLOSE = object()

#: Per-peer send-queue bound (frames).  Deep enough that bursts within
#: one protocol round never block; shallow enough that a stalled peer
#: surfaces as SEND_TIMEOUT quickly.
DEFAULT_SEND_QUEUE = 64
#: How long ``PeerLink.aclose`` lets the writer flush queued frames
#: before cancelling it -- a peer that stopped reading must not be able
#: to wedge shutdown.
CLOSE_GRACE = 1.0
#: Socket read chunk; torn-frame handling makes the value uncritical.
READ_CHUNK = 64 * 1024

Deliver = Callable[[bytes], Awaitable[None]]
Resolve = Callable[[], Awaitable[Tuple[str, int]]]


class NodeEndpoint:
    """One node's listening socket and its inbound connections."""

    def __init__(self, address: int, deliver: Deliver,
                 max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.address = address
        self.ready = asyncio.Event()
        self.host = "127.0.0.1"
        self.port: Optional[int] = None
        self._deliver = deliver
        self._max_frame = max_frame
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self.closed = False
        #: Framing violations that killed an inbound connection.
        self.poisoned_connections = 0
        # Live per-connection decoders plus bytes resynced on ones that
        # already closed, so `resynced_bytes` never loses history.
        self._decoders: Set[FrameDecoder] = set()
        self._resynced_closed = 0

    @property
    def resynced_bytes(self) -> int:
        """Garbage bytes skipped while hunting for frame magic, summed
        over every inbound connection this endpoint ever served."""
        return self._resynced_closed + sum(
            decoder.resynced_bytes for decoder in self._decoders
        )

    async def start(self) -> None:
        if self.closed:
            return
        server = await asyncio.start_server(
            self._serve_connection, self.host, 0
        )
        if self.closed:
            # Retired while the listener was coming up.
            server.close()
            await server.wait_closed()
            return
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        self.ready.set()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        decoder = FrameDecoder(self._max_frame)
        self._connections.add(writer)
        self._decoders.add(decoder)
        try:
            while True:
                chunk = await reader.read(READ_CHUNK)
                if not chunk:
                    return
                for payload in decoder.feed(chunk):
                    await self._deliver(payload)
        except FrameError:
            self.poisoned_connections += 1
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # close() without awaiting wait_closed(): the inbound side
            # has nothing to flush, and awaiting here raises noisily if
            # the loop is tearing the handler task down.
            self._connections.discard(writer)
            self._decoders.discard(decoder)
            self._resynced_closed += decoder.resynced_bytes
            writer.close()

    async def aclose(self) -> None:
        if self.closed:
            return
        self.closed = True
        # Wake (not strand) anyone awaiting ready; resolve() re-checks
        # `closed` after the wait and raises LookupError.
        self.ready.set()
        if self._server is not None:
            self._server.close()
        # Close live inbound connections so their handlers finish (on
        # 3.12+ wait_closed would otherwise wait for them forever).
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()


class PeerLink:
    """Outbound frames to one destination through one pooled connection."""

    def __init__(self, resolve: Resolve,
                 on_discard: Callable[[bytes], None],
                 queue_size: int = DEFAULT_SEND_QUEUE) -> None:
        self._resolve = resolve
        self._on_discard = on_discard
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self._writer: Optional[asyncio.StreamWriter] = None
        self._task = asyncio.get_running_loop().create_task(self._drain())
        self._closed = False
        self.frames_sent = 0
        self.frames_discarded = 0

    async def _connect(self) -> asyncio.StreamWriter:
        host, port = await self._resolve()
        _, writer = await asyncio.open_connection(host, port)
        return writer

    async def _write(self, frame: bytes) -> None:
        if self._writer is None:
            # Lazy connect: only the single _drain task ever calls _write,
            # so nothing can interleave on _writer across this await.
            self._writer = await self._connect()  # lint: disable=ASYNC101 -- only the single _drain task calls _write
        self._writer.write(frame)
        await self._writer.drain()

    async def _drain(self) -> None:
        while True:
            frame = await self.queue.get()
            if frame is _CLOSE:
                break
            try:
                try:
                    await self._write(frame)
                except (ConnectionError, OSError):
                    # Stale pooled connection (peer restarted / socket
                    # half-closed): retry once on a fresh one.
                    await self._reset_writer()
                    await self._write(frame)
                self.frames_sent += 1
            except (ConnectionError, OSError, LookupError):
                await self._reset_writer()
                self.frames_discarded += 1
                self._on_discard(frame)
            except asyncio.CancelledError:
                # Cancelled mid-write by aclose(): account for the frame
                # in hand so in-flight bookkeeping still balances.
                self.frames_discarded += 1
                self._on_discard(frame)
                raise
        await self._reset_writer()

    async def _reset_writer(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Graceful path: ask the writer to flush and exit.  Both steps
        # are bounded -- with the queue full, or the peer no longer
        # reading (writer wedged in drain()), close must not block.
        try:
            self.queue.put_nowait(_CLOSE)
        except asyncio.QueueFull:
            pass
        else:
            done, _ = await asyncio.wait({self._task}, timeout=CLOSE_GRACE)
            if done:
                return
        # Forceful path: cancel the writer, abort the connection (drops
        # kernel-buffered bytes -- close() could block on the flush),
        # and discard what never left the queue.
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.transport.abort()
        while True:
            try:
                frame = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if frame is not _CLOSE:
                self.frames_discarded += 1
                self._on_discard(frame)


class NodePool:
    """Registry of the endpoints and links living in this process."""

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME,
                 send_queue_size: int = DEFAULT_SEND_QUEUE) -> None:
        self._max_frame = max_frame
        self._send_queue_size = send_queue_size
        self._endpoints: Dict[int, NodeEndpoint] = {}
        self._links: Dict[int, PeerLink] = {}
        self._starters: Set[asyncio.Task] = set()
        # Wire-state history of retired endpoints, so pool totals are
        # monotone across node departures.
        self._resynced_retired = 0
        self._poisoned_retired = 0

    def spawn(self, address: int, deliver: Deliver) -> NodeEndpoint:
        """Create and asynchronously start the endpoint for *address*.

        Synchronous by design -- ``transport.register`` is synchronous --
        so the listener comes up in the background; senders await the
        endpoint's ``ready`` event through :meth:`resolve`.
        """
        if address in self._endpoints:
            raise ValueError(f"endpoint {address} already exists")
        endpoint = NodeEndpoint(address, deliver, self._max_frame)
        self._endpoints[address] = endpoint
        task = asyncio.get_running_loop().create_task(endpoint.start())
        self._starters.add(task)
        task.add_done_callback(self._starters.discard)
        return endpoint

    async def resolve(self, address: int) -> Tuple[str, int]:
        """(host, port) of a registered endpoint, awaiting its startup."""
        endpoint = self._endpoints.get(address)
        if endpoint is None:
            raise LookupError(f"no endpoint for address {address}")
        await endpoint.ready.wait()
        if endpoint.closed or endpoint.port is None:
            raise LookupError(f"endpoint {address} retired during connect")
        return endpoint.host, endpoint.port

    def link_to(self, destination: int,
                on_discard: Callable[[bytes], None]) -> PeerLink:
        """The pooled outbound link to *destination* (created on first use)."""
        link = self._links.get(destination)
        if link is None:
            link = PeerLink(
                lambda: self.resolve(destination),
                on_discard,
                queue_size=self._send_queue_size,
            )
            self._links[destination] = link
        return link

    async def retire(self, address: int) -> None:
        """Stop one endpoint (a node leaving / marked dead): its listener
        closes, so senders see connection failures, like a real crash."""
        endpoint = self._endpoints.pop(address, None)
        if endpoint is not None:
            await endpoint.aclose()
            self._resynced_retired += endpoint.resynced_bytes
            self._poisoned_retired += endpoint.poisoned_connections

    # ------------------------------------------------------------------ #
    # wire observability (read by SocketTransport.wire_stats)
    # ------------------------------------------------------------------ #

    def link_count(self) -> int:
        return len(self._links)

    def send_queue_depth(self) -> int:
        """Frames queued on outbound links, waiting for writer tasks."""
        return sum(link.queue.qsize() for link in self._links.values())

    def poisoned_total(self) -> int:
        return self._poisoned_retired + sum(
            endpoint.poisoned_connections
            for endpoint in self._endpoints.values()
        )

    def resynced_total(self) -> int:
        return self._resynced_retired + sum(
            endpoint.resynced_bytes for endpoint in self._endpoints.values()
        )

    async def aclose(self) -> None:
        """Graceful shutdown: writers flush, listeners stop."""
        links, self._links = list(self._links.values()), {}
        for link in links:
            await link.aclose()
        for task in list(self._starters):
            if not task.done():
                task.cancel()
            try:
                await task
            except (asyncio.CancelledError, OSError):
                pass
        endpoints, self._endpoints = list(self._endpoints.values()), {}
        for endpoint in endpoints:
            await endpoint.aclose()
