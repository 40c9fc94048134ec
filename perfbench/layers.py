"""Which program entry points the traced run wraps, and the per-layer
metrics computed from what the shims recorded.

Layer names follow the program's modules: ``live.net`` (codec, framing,
transport, pool), ``live.cluster`` and ``live.storage`` (the live node
runtime), ``core`` (simulated PAST: client, node, cache, storage,
maintenance), ``pastry`` (routing, oracle), ``crypto`` and ``obs``.
"""

from __future__ import annotations

from perfbench.tracer import Sums, Tracer, request_id_of_message, request_id_of_payload


def _count_len(counter: str):
    def after(tracer: Tracer, args: tuple, result) -> None:
        tracer.count(counter, len(result))
    return after


def _adopt_decoded(tracer: Tracer, args: tuple, message) -> None:
    # The receiving task learns which operation a frame belongs to only
    # once it is decoded: attribute the enclosing deliver span to it.
    request_id = request_id_of_message((message,))
    if request_id is not None and tracer.stack and tracer.stack[-1].op is None:
        tracer.stack[-1].op = tracer._op_of_request.get(request_id)


def _count_kind(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("msg." + args[-1].kind)


def _count_root_refusal(tracer: Tracer, args: tuple, stored: bool) -> None:
    if not stored and tracer.stack and tracer.stack[-1].name == "live.storage.root":
        tracer.count("root_refusals")


def _count_store_bytes(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("store.bytes", args[1].size)


def _peak_send_queue(tracer: Tracer, args: tuple, queued: bool) -> None:
    # (transport, link, frame): the link's queue right after this frame.
    tracer.peak("send_queue_depth", args[1].queue.qsize())


def _peak_mailbox(tracer: Tracer, args: tuple, result) -> None:
    # (transport, address, payload): the mailbox right after this delivery.
    tracer.peak("mailbox_backlog", args[0].mailbox_depth(args[1]))


def install_common(tracer: Tracer) -> None:
    """Layers both the live runtime and the simulator run through."""
    import repro.crypto.signatures as signatures
    from repro.core.certificates import FileCertificate, StoreReceipt
    from repro.core.files import RealData, SyntheticData
    from repro.core.storage import FileStore
    from repro.obs.ledger import CostLedger
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace_context import TraceCollector, TraceContext
    from repro.pastry.routing import (
        DeterministicRouting,
        RandomizedRouting,
        ReplicaAwareRouting,
    )

    tracer.wrap(RealData, "content_hash", "crypto.content_hash")
    tracer.wrap(SyntheticData, "content_hash", "crypto.content_hash")
    tracer.wrap(signatures, "verify_fields", "crypto.verify")
    tracer.wrap(FileCertificate, "verify", "crypto.verify")
    tracer.wrap(StoreReceipt, "verify", "crypto.verify")
    tracer.wrap(signatures, "sign_fields", "crypto.sign")
    tracer.wrap(FileStore, "store", "core.storage.store", after=_count_store_bytes)
    tracer.wrap(TraceCollector, "record", "obs.trace_record")
    for method in ("root", "child", "to_traceparent", "from_traceparent"):
        tracer.wrap(TraceContext, method, "obs.trace_context")
    tracer.wrap(CostLedger, "charge", "obs.ledger_charge")
    tracer.wrap(MetricsRegistry, "counter", "obs.metrics")
    for policy in (DeterministicRouting, ReplicaAwareRouting, RandomizedRouting):
        for method in ("next_hop", "next_hop_explained"):
            tracer.wrap(policy, method, "pastry.route_decision")


def install_live(tracer: Tracer) -> None:
    """The live runtime over sockets.  Install before the cluster boots:
    node loops and connection tasks start then."""
    import repro.live.net.transport as transport
    from repro.live.cluster import LiveCluster, LiveNode
    from repro.live.net.framing import FrameDecoder
    from repro.live.net.pool import NodeEndpoint, PeerLink
    from repro.live.storage import LiveStorageCluster, LiveStorageNode

    install_common(tracer)
    tracer.wrap(transport, "encode_message", "live.net.codec.encode",
                after=_count_len("codec.bytes"))
    tracer.wrap(transport, "decode_message", "live.net.codec.decode",
                after=_adopt_decoded)
    tracer.wrap(transport, "encode_frame", "live.net.framing.encode")
    tracer.wrap(FrameDecoder, "feed", "live.net.framing.decode",
                after=_count_len("frames"))
    tracer.wrap(transport.SocketTransport, "send", "live.net.transport.send",
                request_of=request_id_of_message, after=_count_kind)
    tracer.wrap(transport.SocketTransport, "_enqueue", "live.net.transport.enqueue",
                after=_peak_send_queue)
    tracer.wrap(transport.SocketTransport, "_deliver", "live.net.transport.deliver",
                after=_peak_mailbox)
    tracer.wrap(PeerLink, "_drain", "live.net.pool.drain")
    tracer.wrap(NodeEndpoint, "_serve_connection", "live.net.pool.serve")
    tracer.wrap(LiveStorageCluster, "insert", "live.cluster.request", new_op=True)
    tracer.wrap(LiveStorageCluster, "lookup", "live.cluster.request", new_op=True)
    tracer.wrap(LiveCluster, "_emit_retry", "live.cluster.retry")
    tracer.wrap(LiveNode, "_run", "live.cluster.node_loop")
    tracer.wrap(LiveNode, "_on_route", "live.cluster.handle",
                request_of=request_id_of_message)
    tracer.wrap(LiveStorageNode, "_forward_route", "live.cluster.forward",
                request_of=request_id_of_payload)
    tracer.wrap(LiveStorageNode, "_deliver_route", "live.storage.handle",
                request_of=request_id_of_payload)
    tracer.wrap(LiveStorageNode, "_insert_as_root", "live.storage.root")
    tracer.wrap(LiveStorageNode, "_store_locally", "live.storage.store_check",
                after=_count_root_refusal)
    for handler in ("_on_store_request", "_on_store_ack", "_on_insert_result",
                    "_on_lookup_result"):
        tracer.wrap(LiveStorageNode, handler, "live.storage.handle",
                    request_of=request_id_of_message)


def install_sim(tracer: Tracer) -> None:
    """The discrete-event PAST simulator.  The benchmark calls
    ``restore_replication`` and ``notify_leafset_of_failure`` through
    their modules, so wrapping the module attributes reaches it."""
    import repro.core.maintenance as maintenance
    import repro.pastry.failure as failure
    from repro.core.cache import GreedyDualSizeCache
    from repro.core.client import PastClient
    from repro.core.node import PastNode
    from repro.pastry.network import PastryNetwork
    from repro.pastry.oracle import IncrementalOracle

    def count_hops(tracer: Tracer, args: tuple, result) -> None:
        tracer.count("route.hops", result.hops)

    def count_diversion(tracer: Tracer, args: tuple, result) -> None:
        if result[1]:
            tracer.count("replica_diversions")

    def count_eviction(tracer: Tracer, args: tuple, evicted: bool) -> None:
        if evicted:
            tracer.count("cache.evictions")

    install_common(tracer)
    tracer.wrap(PastClient, "insert", "core.client.insert", new_op=True)
    tracer.wrap(PastClient, "lookup_verbose", "core.client.lookup", new_op=True)
    tracer.wrap(PastryNetwork, "route", "pastry.route", after=count_hops)
    tracer.wrap(PastNode, "on_forward", "core.node.handle")
    tracer.wrap(PastNode, "on_deliver", "core.node.handle")
    tracer.wrap(PastNode, "handle_store", "core.node.handle", after=count_diversion)
    tracer.wrap(PastNode, "offer_to_cache", "core.cache.offer")
    tracer.wrap(GreedyDualSizeCache, "_evict_one", "core.cache.offer",
                after=count_eviction)
    tracer.wrap(PastryNetwork, "rebuild_state_oracle", "pastry.oracle_build")
    tracer.wrap(IncrementalOracle, "on_join", "pastry.oracle_event")
    tracer.wrap(IncrementalOracle, "on_leave", "pastry.oracle_event")
    tracer.wrap(failure, "notify_leafset_of_failure", "pastry.failure_notify")
    tracer.wrap(maintenance, "restore_replication", "core.maintenance.restore")


def per_layer(sums: Sums, ops: int, figures: dict) -> dict:
    """Per-layer metrics from the shims' sums over the measured phase.

    *figures* carries what the workload measured itself (counts from
    its own checks, the program's counters, the untraced/traced
    throughputs).  A layer the workload does not run reports 0.
    """
    ops = max(ops, 1)
    s = sums.self_s
    c = sums.counts
    calls = sums.calls

    def per_op(*names: str) -> float:
        return sum(s.get(name, 0.0) for name in names) / ops

    timed = sum(s.values())
    route_msgs = c.get("msg.route", 0.0)
    attempts = figures.get("attempts", ops)
    route_calls = calls.get("pastry.route", 0)
    user_bytes = figures.get("user_bytes_inserted", 0)
    out = {
        "live.net.codec.encode_s_per_op": per_op("live.net.codec.encode"),
        "live.net.codec.decode_s_per_op": per_op("live.net.codec.decode"),
        "live.net.codec.bytes_per_op": c.get("codec.bytes", 0.0) / ops,
        "live.net.framing.s_per_op": per_op("live.net.framing.encode",
                                            "live.net.framing.decode"),
        "live.net.framing.frames_per_op": c.get("frames", 0.0) / ops,
        "live.net.framing.resynced_bytes": figures.get("resynced_bytes", 0),
        "live.net.transport.send_s_per_op": per_op("live.net.transport.send",
                                                    "live.net.transport.enqueue"),
        "live.net.transport.deliver_s_per_op": per_op("live.net.transport.deliver"),
        "live.net.transport.messages_per_op": calls.get(
            "live.net.transport.send", 0) / ops,
        "live.net.transport.mailbox_backlog_max": sums.peaks.get("mailbox_backlog", 0),
        "live.net.transport.sends_timed_out": figures.get("sends_timed_out", 0),
        "live.net.pool.s_per_op": per_op("live.net.pool.drain", "live.net.pool.serve"),
        "live.net.pool.send_queue_depth_max": sums.peaks.get("send_queue_depth", 0),
        "live.cluster.request_s_per_op": per_op("live.cluster.request",
                                                "live.cluster.retry"),
        "live.cluster.node_s_per_op": per_op("live.cluster.node_loop",
                                             "live.cluster.handle",
                                             "live.cluster.forward"),
        "live.cluster.hops_per_op": max(route_msgs - attempts, 0.0) / ops
        if route_msgs else 0.0,
        "live.cluster.attempts_per_op": attempts / ops if route_msgs else 0.0,
        "live.cluster.retries": calls.get("live.cluster.retry", 0),
        "live.cluster.degraded": figures.get("degraded", 0),
        "live.loop.cpu_busy_ratio": figures.get("cpu_busy_ratio", 0.0),
        "live.loop.wall_s_per_op": figures.get("wall_s_per_op", 0.0)
        if route_msgs else 0.0,
        "live.loop.remainder_s_per_op": figures.get("wall_s_per_op", 0.0) - timed / ops
        if route_msgs else 0.0,
        "live.storage.s_per_op": per_op("live.storage.handle", "live.storage.root",
                                        "live.storage.store_check"),
        "live.storage.root_refusals": c.get("root_refusals", 0.0),
        "live.storage.short_acks": figures.get("short_acks", 0),
        "live.storage.enroute_serve_ratio": figures.get("enroute_serve_ratio", 0.0),
        "core.storage.store_s_per_op": per_op("core.storage.store"),
        "core.storage.bytes_per_user_byte": c.get("store.bytes", 0.0) / user_bytes
        if user_bytes else 0.0,
        "crypto.content_hash_s_per_op": per_op("crypto.content_hash"),
        "crypto.verify_s_per_op": per_op("crypto.verify"),
        "crypto.sign_s_per_op": per_op("crypto.sign"),
        "obs.spans_per_op": calls.get("obs.trace_record", 0) / ops,
        "obs.trace_record_s_per_op": per_op("obs.trace_record"),
        "obs.trace_context_s_per_op": per_op("obs.trace_context"),
        "obs.ledger_charge_s_per_op": per_op("obs.ledger_charge"),
        "obs.metrics_s_per_op": per_op("obs.metrics"),
        "obs.retained_spans": figures.get("retained_spans", 0),
        "obs.retained_events": figures.get("retained_events", 0),
        "pastry.route_s_per_call": s.get("pastry.route", 0.0) / route_calls
        if route_calls else 0.0,
        "pastry.route_decision_s_per_op": per_op("pastry.route_decision"),
        "pastry.hops_mean": c.get("route.hops", 0.0) / route_calls
        if route_calls else 0.0,
        "pastry.oracle_build_s": figures.get("oracle_build_s", 0.0),
        "pastry.oracle_event_s": figures.get("oracle_event_s", 0.0),
        "core.client.s_per_op": per_op("core.client.insert", "core.client.lookup"),
        "core.client.insert_attempts_mean": figures.get("insert_attempts_mean", 0.0),
        "core.node.s_per_op": per_op("core.node.handle"),
        "core.node.replica_diversions": c.get("replica_diversions", 0.0),
        "core.cache.s_per_op": per_op("core.cache.offer"),
        "core.cache.hit_ratio": figures.get("cache_hit_ratio", 0.0),
        "core.cache.evictions": c.get("cache.evictions", 0.0),
        "core.maintenance.restore_s": figures.get("restore_s", 0.0),
        "core.maintenance.replicas_restored": figures.get("replicas_restored", 0),
        "core.maintenance.transfer_bytes": figures.get("transfer_bytes", 0),
        "core.maintenance.files_lost": figures.get("files_lost", 0),
        "trace.ops_per_s_untraced": figures.get("ops_per_s_untraced", 0.0),
        "trace.ops_per_s_traced": figures.get("ops_per_s_traced", 0.0),
        "trace.overhead_pct": figures.get("trace_overhead_pct", 0.0),
        "trace.spans_written": sums.spans,
    }
    for name in ("insert_p99_ms", "lookup_p99_ms", "failed_pct",
                 "insert_reject_pct", "wire_bytes_per_user_byte", "churn_repair_s"):
        out[name] = figures.get(name, 0.0)
    return out
