"""``sim-storage-churn``: the discrete-event PAST simulator, one process,
no sockets -- the workload that bypasses every ``live.*`` layer.

A run builds a ``PastNetwork`` with the state oracle (bounded-normal
capacities, GDS cache, k=3, incremental oracle attached) -- that build,
repeated ``SETUP_BUILDS`` times, is ``setup_s`` -- then runs one cycle:

1. **fill**: trace-like inserts, each followed by one Zipf(1.0) lookup
   over the acknowledged files, until utilisation reaches 95%;
2. **churn**: 3 rounds, each failing 1% of the nodes (with leaf-set
   notification), adding 1% through the incremental oracle and running
   ``restore_replication``;
3. **verify**: lookups of a seeded sample of acknowledged files.

It covers what PAST storage management runs through: ``pastry`` routing
and oracle; ``core`` insert, diversion, cache and maintenance; and
``crypto``.  The ``pastry`` join protocol is deliberately not on this
path; live joins are timed by the live workloads' ``setup_s``.

File sizes and capacities are those of the repository's own claim-C8
storage benchmarks (``benchmarks/bench_storage_utilization.py``,
``benchmarks/bench_reject_size_bias.py``): ``TraceLikeSizes`` with a
lognormal body of median 8 KB (sigma 1.1), a 5% Pareto tail from 256 KB
(alpha 1.3) capped at 2 MB, over bounded-normal capacities of mean
8 MB.  Those ratios -- body to capacity, largest file to capacity --
drive file and replica diversion and rejection, so they are kept as
they are; only the node count is scaled to the time a run may take.
``--seconds`` sets it, ``NODES_PER_SECOND`` nodes per second: 384 nodes
at 24 s.  Filling 384 nodes to 95% takes about 51k inserts, and 512
nodes about 68k; on a 2-core machine the 512-node cycle took 45 s.  The
work is fixed by the seed and the node count, not by how fast the
program runs.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional

from perfbench import checks, gen
from perfbench.tracer import Tracer

K = 3
NODES_PER_SECOND = 16
MIN_NODES = 32
SETUP_BUILDS = 9
CAPACITY_MEAN = 8_000_000
CLIENTS = 16
TARGET_UTILIZATION = 0.95
UTILIZATION_CHECK_EVERY = 200
#: A cap on the fill, three times what 95% takes with these sizes.
MAX_INSERTS_PER_NODE = 400
CHURN_ROUNDS = 3
CHURN_FRACTION = 0.01
VERIFY_LOOKUPS = 500
SIZES = gen.TraceSizes(8192, 1.1, 0.05, 262_144, 1.3, 1 << 21)
#: The overlay under test -- node ids, capacities, topology -- is fixed;
#: the workload seed chooses the inputs (files, origins, popularity,
#: churn victims).
OVERLAY_SEED = 1


def nodes_for(seconds: float) -> int:
    return max(MIN_NODES, round(NODES_PER_SECOND * seconds))


@dataclass
class Pool:
    """What one cycle measured."""

    tally: checks.Tally = field(default_factory=checks.Tally)
    insert_s: List[float] = field(default_factory=list)
    lookup_s: List[float] = field(default_factory=list)
    op_time_s: float = 0.0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    util_pct: float = 0.0
    churn_s: float = 0.0
    distances: List[float] = field(default_factory=list)
    attempts: List[int] = field(default_factory=list)
    user_bytes: int = 0
    found: int = 0
    cache_hits: int = 0
    replicas_restored: int = 0
    transfer_bytes: int = 0
    files_lost: int = 0

    @property
    def ops(self) -> int:
        return len(self.insert_s) + len(self.lookup_s)


def _lookup(pool: Pool, client, entry: tuple, topology) -> None:
    from repro.core.errors import CertificateError, LookupFailedError

    file_id, data_seed, size = entry
    began = time.perf_counter()
    try:
        result = client.lookup_verbose(file_id)
    except LookupFailedError:
        result, cause = None, checks.LOOKUP_MISSING
    except CertificateError:
        result, cause = None, checks.LOOKUP_CORRUPT
    except Exception as exc:  # lint: disable=ERR001 -- counted as a failure
        result, cause = None, checks.error(exc)
    pool.lookup_s.append(time.perf_counter() - began)
    if result is not None:
        data = result.data
        # SyntheticData content is (seed, size): regenerate and compare.
        same = getattr(data, "seed", None) == data_seed and data.size == size
        cause = None if same else checks.LOOKUP_CORRUPT
        if same:
            pool.found += 1
            pool.cache_hits += result.response.source == "cache"
            path = result.path
            pool.distances.append(sum(topology.distance(a, b)
                                      for a, b in zip(path, path[1:])))
    pool.tally.op(cause)


def _build(nodes: int):
    from repro.core.network import PastNetwork
    from repro.sim.rng import RngRegistry

    network = PastNetwork(rngs=RngRegistry(gen.derive(OVERLAY_SEED, "overlay")),
                          cache_policy="gds")
    network.build(nodes, capacity_fn=gen.bounded_normal(CAPACITY_MEAN),
                  method="oracle")
    network.pastry.attach_incremental_oracle()
    return network


def _cycle(seed: int, nodes: int) -> Pool:
    import repro.core.maintenance as maintenance
    import repro.pastry.failure as failure
    from repro.core.errors import CertificateError, InsertRejectedError
    from repro.core.files import SyntheticData

    pool = Pool()
    cycle_began, cpu_began = time.perf_counter(), time.process_time()
    for _ in range(SETUP_BUILDS):
        network = clients = None
        gc.collect()  # free the previous build before timing the next
        build_began = time.perf_counter()
        network = _build(nodes)
        clients = [network.create_client(usage_quota=1 << 62) for _ in range(CLIENTS)]
        pool.setup_s.append(time.perf_counter() - build_began)
    topology = network.pastry.topology
    capacity = gen.bounded_normal(CAPACITY_MEAN)

    rng = gen.stream(seed, "sim")
    zipf = gen.Zipf(1.0)
    acked: List[tuple] = []
    tally = pool.tally
    fill_began = time.perf_counter()
    for index in range(1, MAX_INSERTS_PER_NODE * nodes + 1):
        size = SIZES.sample(rng)
        data_seed = gen.derive(seed, "data", index)
        client = clients[rng.randrange(CLIENTS)]
        began = time.perf_counter()
        try:
            handle = client.insert(f"pb-{seed}-{index}", SyntheticData(data_seed, size), K)
            cause = checks.check_holders((r.node_id for r in handle.receipts), K)
        except InsertRejectedError:
            handle, cause = None, None
            tally.refused += 1
        except CertificateError:
            handle, cause = None, checks.BAD_RECEIPTS
        except Exception as exc:  # lint: disable=ERR001 -- counted as a failure
            handle, cause = None, checks.error(exc)
        pool.insert_s.append(time.perf_counter() - began)
        tally.inserts += 1
        tally.op(cause)
        if handle is not None:
            acked.append((handle.file_id, data_seed, size))
            pool.attempts.append(handle.attempts)
            pool.user_bytes += size
        if acked:
            entry = acked[zipf.rank(rng, len(acked))]
            _lookup(pool, clients[rng.randrange(CLIENTS)], entry, topology)
        if index % UTILIZATION_CHECK_EVERY == 0 and \
                network.utilization()["global_utilization"] >= TARGET_UTILIZATION:
            break
    pool.op_time_s += time.perf_counter() - fill_began
    pool.util_pct = 100.0 * network.utilization()["global_utilization"]

    churn_began = time.perf_counter()
    churn_rng = gen.stream(seed, "churn")
    for _ in range(CHURN_ROUNDS):
        live = network.pastry.live_ids()
        count = max(1, int(len(live) * CHURN_FRACTION))
        for victim in churn_rng.sample(live, count):
            network.pastry.mark_failed(victim)
            failure.notify_leafset_of_failure(network.pastry, victim)
        for _ in range(count):
            network.add_storage_node(capacity(churn_rng), join=False)
        report = maintenance.restore_replication(network)
        pool.replicas_restored += report.replicas_restored
        pool.transfer_bytes += report.transfer_bytes
        pool.files_lost += report.files_lost
    pool.churn_s = time.perf_counter() - churn_began

    # Churn may have failed access nodes: readers attach to live ones.
    readers = [network.create_client(usage_quota=0) for _ in range(CLIENTS)]
    verify_began = time.perf_counter()
    verify = gen.stream(seed, "verify")
    for _ in range(min(VERIFY_LOOKUPS, len(acked))):
        entry = acked[verify.randrange(len(acked))]
        _lookup(pool, readers[verify.randrange(CLIENTS)], entry, topology)
    pool.op_time_s += time.perf_counter() - verify_began
    pool.wall_s = time.perf_counter() - cycle_began
    pool.cpu_s = time.process_time() - cpu_began
    return pool


def _end_to_end(pool: Pool) -> dict:
    return {
        "setup_s": statistics.median(pool.setup_s),
        "ops_per_s": pool.ops / pool.op_time_s,
        "insert_p50_ms": 1000 * checks.percentile(pool.insert_s, 50),
        "lookup_p50_ms": 1000 * checks.percentile(pool.lookup_s, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "storage_util_pct": pool.util_pct,
        "lookup_distance_mean": statistics.fmean(pool.distances),
    }


def _figures(pool: Pool) -> dict:
    return {
        "insert_p99_ms": 1000 * checks.percentile(pool.insert_s, 99),
        "lookup_p99_ms": 1000 * checks.percentile(pool.lookup_s, 99),
        "failed_pct": pool.tally.failed_pct(),
        "insert_reject_pct": pool.tally.reject_pct(),
        "churn_repair_s": pool.churn_s,
        "insert_attempts_mean": statistics.fmean(pool.attempts) if pool.attempts else 0.0,
        "cache_hit_ratio": pool.cache_hits / pool.found if pool.found else 0.0,
        "replicas_restored": pool.replicas_restored,
        "transfer_bytes": pool.transfer_bytes,
        "files_lost": pool.files_lost,
        "user_bytes_inserted": pool.user_bytes,
    }


def run(name: str, seed: int, seconds: float, tracer: Optional[Tracer]) -> dict:
    from perfbench.layers import install_sim, per_layer

    nodes = nodes_for(seconds)
    pool = _cycle(seed, nodes)
    result = {
        "end_to_end": _end_to_end(pool),
        "figures": _figures(pool),
        "tally": pool.tally,
        "wall_s": pool.wall_s,
        "cpu_s": pool.cpu_s,
        "samples": {"insert": len(pool.insert_s), "lookup": len(pool.lookup_s),
                    "nodes": nodes},
    }
    if tracer is None:
        return result
    gc.collect()  # free the untraced overlay
    install_sim(tracer)
    try:
        tracer.reset()
        traced = _cycle(seed, nodes)
        sums = tracer.snapshot()
    finally:
        tracer.uninstall()
    figures = _figures(traced)
    untraced_rate = pool.ops / pool.op_time_s
    traced_rate = traced.ops / traced.op_time_s
    figures.update(
        oracle_build_s=sums.run_s.get("pastry.oracle_build", 0.0) / SETUP_BUILDS,
        oracle_event_s=sums.run_s.get("pastry.oracle_event", 0.0),
        restore_s=sums.run_s.get("core.maintenance.restore", 0.0),
        ops_per_s_untraced=untraced_rate,
        ops_per_s_traced=traced_rate,
        trace_overhead_pct=100.0 * (1 - traced_rate / untraced_rate),
    )
    for name in ("insert_p99_ms", "lookup_p99_ms", "failed_pct",
                 "insert_reject_pct", "churn_repair_s"):
        figures[name] = result["figures"][name]
    result["per_layer"] = per_layer(sums, traced.ops, figures)
    return result
