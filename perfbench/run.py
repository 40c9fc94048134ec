#!/usr/bin/env python3
"""Benchmark of record: run one workload, check its answers, print its
metrics.

    python3 perfbench/run.py --workload live-mixed --seed 1 --seconds 16 --trace 0

Run from the repository root.  ``--seconds`` sizes the work a run
measures (see README.md).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload untraced, then the same work
traced, and reports the per-layer metrics together with the tracing
overhead.  Every metric is printed as ``name value
unit``; the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units come from ``BENCHMARK.json``.  A full record of
the run (all figures, the failure breakdown, provenance) is written to
``perfbench/out/``, and a traced run also writes its sampled spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
#: Runnable, but not in BENCHMARK.json (see live.py and README.md).
EXTRA_WORKLOADS = ("live-fill",)


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
        "commit": _git_commit(),
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; one of {known}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import live, sim
    from perfbench.tracer import Tracer

    provenance = {"start": _provenance()}
    module = sim if args.workload.startswith("sim-") else live
    tracer = Tracer() if args.trace else None
    began = time.perf_counter()
    result = module.run(args.workload, args.seed, args.seconds, tracer)
    provenance["end"] = _provenance()
    provenance["process"] = {
        "wall_s": time.perf_counter() - began,
        "cpu_s": time.process_time(),
        "measured_wall_s": result["wall_s"],
        "measured_cpu_s": result["cpu_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["per_layer"] if args.trace else result["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    tally = result["tally"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        for name, value in result["figures"].items():
            if name in units:
                print(f"  {name} {value:.6g} {units[name]}")
    print(f"  samples {json.dumps(result['samples'])}")
    print(f"  attempted {tally.attempted} failed {tally.failed} "
          f"by cause {json.dumps(tally.breakdown())}")
    print(f"  provenance {json.dumps(provenance)}")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "figures": result["figures"],
        "samples": result["samples"], "attempted": tally.attempted,
        "failed": tally.failed, "failures": tally.breakdown(),
        "correct": tally.correct, "provenance": provenance,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        written = tracer.write_spans(OUT / f"{stem}-spans.jsonl")
        print(f"  spans {written} written to {OUT / (stem + '-spans.jsonl')}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
