"""Live workloads: a 32-node ``LiveStorageCluster`` over real localhost
TCP (``SocketTransport``), with its default ``Observer``, driven by
closed-loop clients that call ``insert``/``lookup`` directly.

Each run measures a fixed number of operations, set by ``--seconds``
and the workload's nominal rate, so everything but the timings -- what
is stored, how much memory the cluster retains -- is a function of the
seed and not of how fast the program is.

``live-mixed`` -- 2 clients, 1:3 insert:lookup of small lognormal files
(median ~2 KB), lookups Zipf(1.0) over acknowledged files, storage far
below capacity; 1000 operations per second of ``--seconds`` (24k at
24 s, which a 2-core machine completes in 30-35 s).  Cost per *message*
dominates: asyncio hops, routing decisions, trace and ledger work,
mailbox and pool hops.  This is where a cheaper message path (virtual
time, one retry primitive, bounded telemetry) must show; codec byte
cost and the full-storage path do almost nothing here.

``live-fill`` -- 1 client (so refusals repeat exactly), 3:1
insert:lookup of heavy-tailed trace-like files up to 1 MB into small
(4 MB) nodes, far enough that nodes refuse.  Payload *bytes* dominate:
codec, content hashing, framing copies, socket writes, ``FileStore``
capacity checks and the refusal path.  It is not in ``BENCHMARK.json``:
today a root that refuses its own replica never completes the insert,
so every such insert waits out the full 10 s route timeout, and a run of
any length the benchmark can afford holds only a handful of them -- its
throughput and tail spread far beyond any bound (see README.md).

A run that has not finished its operations after ``DEADLINE_FACTOR``
times ``--seconds`` stops there and says so (``budget_done`` false).
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench import checks, gen
from perfbench.tracer import Tracer

K = 3
NODES = 32
SETUP_BOOTS = 5
WARMUP_FILES = 16
VERIFY_LOOKUPS = 64
DEADLINE_FACTOR = 4
#: The deployment under test -- node ids and topology -- is fixed; the
#: workload seed chooses the inputs.  With 32 nodes, a seeded topology
#: alone moves ``lookup_distance_mean`` by a fifth from seed to seed.
CLUSTER_SEED = 1


@dataclass(frozen=True)
class LiveWorkload:
    name: str
    node_capacity: int
    clients: int
    insert_share: float
    sizes: object
    #: operations measured per second of ``--seconds``
    ops_per_second: float

    def budget(self, seconds: float) -> int:
        return max(self.clients, round(self.ops_per_second * seconds))


def workloads() -> Dict[str, LiveWorkload]:
    clients = max(1, min(2, os.cpu_count() or 1))
    return {
        "live-mixed": LiveWorkload(
            "live-mixed", node_capacity=1 << 24, clients=clients,
            insert_share=0.25, sizes=gen.LognormalSizes(2048, 0.6, 1 << 14),
            ops_per_second=1000),
        "live-fill": LiveWorkload(
            "live-fill", node_capacity=4 << 20, clients=1, insert_share=0.75,
            sizes=gen.TraceSizes(8192, 1.1, 0.05, 1 << 18, 1.3, 1 << 20),
            ops_per_second=15),
    }


@dataclass
class Phase:
    """What one measured phase saw."""

    tally: checks.Tally = field(default_factory=checks.Tally)
    insert_s: List[float] = field(default_factory=list)
    lookup_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    user_bytes_in: int = 0
    user_bytes_out: int = 0
    wire_bytes: int = 0
    util_pct: float = 0.0
    distances: List[float] = field(default_factory=list)
    served: List[tuple] = field(default_factory=list)
    degraded_inserts: list = field(default_factory=list)
    short_acks: int = 0
    budget_done: bool = True

    @property
    def ops(self) -> int:
        return len(self.insert_s) + len(self.lookup_s)


async def _boot(workload: LiveWorkload):
    from repro.live.net import SocketTransport
    from repro.live.storage import LiveStorageCluster

    began = time.perf_counter()
    cluster = LiveStorageCluster(seed=CLUSTER_SEED,
                                 transport=SocketTransport(),
                                 node_capacity=workload.node_capacity)
    await cluster.start(NODES)
    return cluster, time.perf_counter() - began


class _Client:
    """Issues one workload's operations and checks every answer."""

    def __init__(self, workload: LiveWorkload, seed: int, cluster,
                 phase: Phase) -> None:
        from repro.core.smartcard import make_uncertified_card

        self.workload = workload
        self.seed = seed
        self.cluster = cluster
        self.phase = phase
        self.card = make_uncertified_card(gen.stream(seed, "card"), usage_quota=1 << 60,
                                          backend="insecure_fast")
        self.ids = cluster.live_ids()
        self.acked: List[tuple] = []  # (index, size, file_id, content_hash)
        self.zipf = gen.Zipf(1.0)
        self._index = 0

    def _new_file(self, rng):
        from repro.core.files import RealData

        self._index += 1
        index = self._index
        size = self.workload.sizes.sample(rng)
        data = RealData(gen.content(self.seed, index, size))
        certificate = self.card.issue_file_certificate(
            f"pb-{self.seed}-{index}", data, K, salt=index, insertion_date=0)
        return index, size, data, certificate

    async def insert(self, rng, origin: int, record: bool = True) -> None:
        from repro.core.errors import DegradedError

        phase, tally = self.phase, self.phase.tally
        index, size, data, certificate = self._new_file(rng)
        began = time.perf_counter()
        try:
            result = await self.cluster.insert(certificate, data, origin)
        except DegradedError:
            result = None
        elapsed = time.perf_counter() - began
        if not record:
            if result is not None and result.get("success"):
                self.acked.append((index, size, certificate.file_id,
                                   certificate.content_hash))
            return
        phase.insert_s.append(elapsed)
        phase.user_bytes_in += size
        tally.inserts += 1
        if result is None:
            tally.op(checks.DEGRADED)
            phase.degraded_inserts.append(certificate)
        elif result.get("success"):
            cause = checks.check_holders(result.get("holders", ()), K)
            tally.op(cause)
            phase.short_acks += cause is not None
            self.acked.append((index, size, certificate.file_id,
                               certificate.content_hash))
        elif result.get("reason") == "refused":
            tally.refused += 1
            tally.op()
        else:
            tally.op(checks.INSERT_ERROR)

    async def lookup(self, rng, origin: int, entry: tuple, record: bool = True) -> None:
        from repro.core.errors import DegradedError

        phase = self.phase
        index, size, file_id, content_hash = entry
        began = time.perf_counter()
        try:
            result = await self.cluster.lookup(file_id, origin)
        except DegradedError:
            result = None
        elapsed = time.perf_counter() - began
        if result is None:
            cause = checks.DEGRADED
        else:
            data = result.get("data")
            certificate = result.get("certificate")
            cause = checks.check_lookup(
                data.to_bytes() if data is not None else None,
                certificate.content_hash if certificate is not None else None,
                content_hash, gen.content(self.seed, index, size))
            if cause is None and record:
                phase.user_bytes_out += size
                phase.served.append((file_id, result.get("serving_node")))
        phase.tally.op(cause)
        if record:
            phase.lookup_s.append(elapsed)

    async def run(self, client: int, count: int, deadline: float) -> None:
        rng = gen.stream(self.seed, self.workload.name, "client", client)
        for _ in range(count):
            if time.perf_counter() >= deadline:
                self.phase.budget_done = False
                return
            origin = self.ids[rng.randrange(len(self.ids))]
            if not self.acked or rng.random() < self.workload.insert_share:
                await self.insert(rng, origin)
            else:
                entry = self.acked[self.zipf.rank(rng, len(self.acked))]
                await self.lookup(rng, origin, entry)


async def _measure(cluster, workload: LiveWorkload, seed: int, seconds: float,
                   tracer: Optional[Tracer]):
    """Warm up, measure the workload's operations, then verify.  With a
    *tracer*, its sums cover the measured operations alone."""
    phase = Phase()
    client = _Client(workload, seed, cluster, phase)
    warm = gen.stream(seed, workload.name, "warmup")
    for _ in range(WARMUP_FILES):
        await client.insert(warm, client.ids[warm.randrange(len(client.ids))],
                            record=False)
    transport = cluster.transport
    first_record = len(cluster.obs.traces)
    bytes_before = transport.bytes_sent
    budget = workload.budget(seconds)
    if tracer is not None:
        tracer.reset()
    began, cpu_began = time.perf_counter(), time.process_time()
    deadline = began + DEADLINE_FACTOR * seconds
    await asyncio.gather(*(
        client.run(index, budget // workload.clients
                   + (index < budget % workload.clients), deadline)
        for index in range(workload.clients)))
    phase.wall_s = time.perf_counter() - began
    phase.cpu_s = time.process_time() - cpu_began
    sums = tracer.snapshot() if tracer is not None else None
    phase.wire_bytes = transport.bytes_sent - bytes_before
    nodes = list(cluster.nodes.values())
    phase.util_pct = 100.0 * sum(node.store.used for node in nodes) \
        / sum(node.store.capacity for node in nodes)
    phase.distances = _lookup_distances(cluster, first_record)
    _classify_degraded(cluster, phase)
    # Final verification: a seeded sample of acknowledged files, content
    # regenerated from the seed.  Counted, not timed.
    verify = gen.stream(seed, workload.name, "verify")
    for _ in range(min(VERIFY_LOOKUPS, len(client.acked))):
        entry = client.acked[verify.randrange(len(client.acked))]
        await client.lookup(verify, client.ids[verify.randrange(len(client.ids))],
                            entry, record=False)
    return phase, sums


def _classify_degraded(cluster, phase: Phase) -> None:
    """A degraded insert whose root does not hold the file while another
    node does is the root-stall defect: the root refused its own replica
    and never left ``needed``, so the fan-out could not finish."""
    for certificate in phase.degraded_inserts:
        file_id = certificate.file_id
        root = cluster.nodes[cluster.global_root(certificate.storage_key())]
        if file_id not in root.store and any(
                file_id in node.store for node in cluster.nodes.values()):
            phase.tally.recause(checks.DEGRADED, checks.ROOT_STALL)


def _lookup_distances(cluster, first_record: int) -> List[float]:
    """Topology distance along each single-attempt lookup's route, read
    from the spans the cluster's own Observer retained: the hop spans'
    nodes in order, then the node that served the file."""
    by_trace: Dict[str, list] = defaultdict(list)
    lookups = []
    for record in cluster.obs.traces.records()[first_record:]:
        by_trace[record.trace_id].append(record)
        if record.name == "live.past-lookup":
            attributes = dict(record.attributes)
            if attributes.get("attempts") == 1 and attributes.get("outcome") == "ok":
                lookups.append(record.trace_id)
    distance = cluster.topology.distance
    out = []
    for trace_id in lookups:
        hops = []
        server = None
        for record in by_trace[trace_id]:
            attributes = dict(record.attributes)
            if record.name == "hop":
                hops.append((attributes["hop_index"], int(attributes["node_id"], 16)))
            elif record.name == "serve" and attributes.get("found", True):
                server = int(attributes["node_id"], 16)
        if server is None:
            continue
        path = [node for _, node in sorted(hops)]
        if not path or path[-1] != server:
            path.append(server)
        out.append(sum(distance(a, b) for a, b in zip(path, path[1:])))
    return out


def _end_to_end(phase: Phase, setup_s: float) -> dict:
    import resource

    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ops / phase.wall_s,
        "insert_p50_ms": 1000 * checks.percentile(phase.insert_s, 50),
        "lookup_p50_ms": 1000 * checks.percentile(phase.lookup_s, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "storage_util_pct": phase.util_pct,
        "lookup_distance_mean": statistics.fmean(phase.distances)
        if phase.distances else 0.0,
    }


def _workload_figures(phase: Phase, cluster) -> dict:
    user = phase.user_bytes_in + phase.user_bytes_out
    enroute = sum(1 for file_id, server in phase.served if server != _root_of(
        cluster, file_id))
    return {
        "insert_p99_ms": 1000 * checks.percentile(phase.insert_s, 99),
        "lookup_p99_ms": 1000 * checks.percentile(phase.lookup_s, 99),
        "failed_pct": phase.tally.failed_pct(),
        "insert_reject_pct": phase.tally.reject_pct(),
        "wire_bytes_per_user_byte": phase.wire_bytes / user if user else 0.0,
        "short_acks": phase.short_acks,
        "degraded": phase.tally.causes[checks.DEGRADED]
        + phase.tally.causes[checks.ROOT_STALL],
        "enroute_serve_ratio": enroute / len(phase.served) if phase.served else 0.0,
        "cpu_busy_ratio": phase.cpu_s / phase.wall_s,
        "wall_s_per_op": phase.wall_s / phase.ops,
        "user_bytes_inserted": phase.user_bytes_in,
        "resynced_bytes": cluster.transport.wire_stats()["resynced_bytes"],
        "sends_timed_out": cluster.transport.sends_timed_out,
        "retained_spans": len(cluster.obs.traces),
        "retained_events": len(cluster.obs.bus),
    }


def _root_of(cluster, file_id: int) -> int:
    from repro.core.ids import storage_key

    return cluster.global_root(storage_key(file_id))


async def _run(workload: LiveWorkload, seed: int, seconds: float,
               tracer: Optional[Tracer]) -> dict:
    from perfbench.layers import install_live, per_layer

    boots = []
    cluster = None
    for _ in range(SETUP_BOOTS):
        if cluster is not None:
            await cluster.shutdown()
        cluster, took = await _boot(workload)
        boots.append(took)
    setup_s = statistics.median(boots)
    try:
        phase, _ = await _measure(cluster, workload, seed, seconds, None)
        figures = _workload_figures(phase, cluster)
    finally:
        await cluster.shutdown()
    result = {
        "end_to_end": _end_to_end(phase, setup_s),
        "figures": figures,
        "tally": phase.tally,
        "wall_s": phase.wall_s,
        "cpu_s": phase.cpu_s,
        "samples": {"insert": len(phase.insert_s), "lookup": len(phase.lookup_s),
                    "budget": workload.budget(seconds),
                    "budget_done": phase.budget_done},
    }
    if tracer is None:
        return result
    install_live(tracer)
    try:
        cluster, _ = await _boot(workload)
        try:
            traced, sums = await _measure(cluster, workload, seed, seconds, tracer)
            traced_figures = _workload_figures(traced, cluster)
        finally:
            await cluster.shutdown()
    finally:
        tracer.uninstall()
    untraced_rate = phase.ops / phase.wall_s
    traced_rate = traced.ops / traced.wall_s
    traced_figures.update(
        attempts=traced.ops + sums.calls.get("live.cluster.retry", 0),
        ops_per_s_untraced=untraced_rate,
        ops_per_s_traced=traced_rate,
        trace_overhead_pct=100.0 * (1 - traced_rate / untraced_rate),
    )
    for name in ("insert_p99_ms", "lookup_p99_ms", "failed_pct",
                 "insert_reject_pct", "wire_bytes_per_user_byte"):
        traced_figures[name] = figures[name]
    result["per_layer"] = per_layer(sums, traced.ops, traced_figures)
    return result


def run(name: str, seed: int, seconds: float, tracer: Optional[Tracer]) -> dict:
    return asyncio.run(_run(workloads()[name], seed, seconds, tracer))
