"""Self-tests of the benchmark, at a tiny size of each workload.

    python3 -m pytest perfbench -q

They check that every metric ``BENCHMARK.json`` names is emitted with
its unit, that the correctness checks trip on a corrupted lookup result
and on a short holder list (fixtures built here, not by the program),
that the tracer's self-time accounting adds up, and that the command
refuses to run where there is no program to measure.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, gen, live, sim  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_corrupted_lookup_result_is_caught():
    expected = gen.content(7, 1, 4096)
    corrupted = bytearray(expected)
    corrupted[100] ^= 0x01
    assert checks.check_lookup(expected, 5, 5, expected) is None
    assert checks.check_lookup(bytes(corrupted), 5, 5, expected) == checks.LOOKUP_CORRUPT
    assert checks.check_lookup(expected, 6, 5, expected) == checks.LOOKUP_CORRUPT
    assert checks.check_lookup(None, None, 5, expected) == checks.LOOKUP_MISSING
    tally = checks.Tally()
    tally.op(checks.check_lookup(bytes(corrupted), 5, 5, expected))
    assert not tally.correct and tally.failed == 1


def test_short_holder_list_is_caught():
    assert checks.check_holders([11, 12, 13], 3) is None
    assert checks.check_holders([11, 12], 3) == checks.SHORT_ACK
    assert checks.check_holders([11, 11, 12], 3) == checks.SHORT_ACK
    tally = checks.Tally()
    tally.op(checks.check_holders([11, 12], 3))
    tally.op()
    assert tally.correct and tally.failed == 1 and tally.failed_pct() == 50.0
    assert tally.breakdown() == {checks.SHORT_ACK: 1}


def test_generator_is_a_function_of_the_seed():
    a, b = gen.stream(3, "x"), gen.stream(3, "x")
    sizes = gen.TraceSizes(2048, 1.1, 0.05, 16 << 10, 1.3, 64 << 10)
    assert [sizes.sample(a) for _ in range(50)] == [sizes.sample(b) for _ in range(50)]
    assert gen.content(3, 9, 64) == gen.content(3, 9, 64) != gen.content(4, 9, 64)
    zipf = gen.Zipf(1.0)
    ranks = [zipf.rank(gen.stream(1, i), 10) for i in range(2000)]
    assert all(0 <= rank < 10 for rank in ranks)
    assert ranks.count(0) > ranks.count(9)


class _Toy:
    def leaf(self):
        return sum(range(2000))

    def inner(self):
        return self.leaf() + self.leaf()

    async def task(self):
        self.inner()
        await asyncio.sleep(0.01)
        return self.inner()


def test_self_times_add_up_and_exclude_waiting():
    tracer = Tracer()
    tracer.wrap(_Toy, "leaf", "leaf")
    tracer.wrap(_Toy, "inner", "inner")
    tracer.wrap(_Toy, "task", "task", new_op=True)
    try:
        asyncio.run(_Toy().task())
    finally:
        tracer.uninstall()
    assert tracer.calls == {"task": 1, "inner": 2, "leaf": 4}
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(tracer.run_s["task"])
    assert tracer.run_s["task"] < 0.01  # the sleep is waiting, not running
    assert {span[0] for span in tracer.spans} == set()  # op 1 is not sampled
    assert _Toy.leaf.__name__ == "leaf" and not hasattr(_Toy.leaf, "perfbench_shim")


def test_snapshot_bounds_the_measured_phase():
    tracer = Tracer()
    tracer.wrap(_Toy, "inner", "inner", new_op=True)
    try:
        toy = _Toy()
        for _ in range(20):
            toy.inner()  # warm-up: forgotten by reset
        tracer.reset()
        for _ in range(40):
            toy.inner()
        tracer.peak("depth", 3)
        tracer.peak("depth", 2)
        sums = tracer.snapshot()
        for _ in range(40):
            toy.inner()  # after the phase: neither summed nor kept
    finally:
        tracer.uninstall()
    assert sums.calls == {"inner": 40} and sums.peaks == {"depth": 3}
    assert sums.spans == len(tracer.spans) == 2  # ops 32 and 48 are sampled
    assert tracer.calls["inner"] == 80


def _assert_emits(result: dict) -> None:
    for key, wanted in (("end_to_end", SPEC["end_to_end"]),
                        ("per_layer", SPEC["per_layer"])):
        missing = [m["name"] for m in wanted if m["name"] not in result[key]]
        assert not missing, f"{key} lacks {missing}"
        assert all(isinstance(result[key][m["name"]], (int, float)) for m in wanted)
    assert result["tally"].attempted >= 1


def test_tiny_live_mixed_emits_every_metric():
    result = live.run("live-mixed", 5, 0.5, Tracer())
    _assert_emits(result)
    assert result["tally"].correct
    samples = result["samples"]
    assert samples["budget_done"]
    assert samples["insert"] + samples["lookup"] == samples["budget"] == 500
    per_layer = result["per_layer"]
    assert per_layer["live.net.transport.messages_per_op"] > 0
    assert per_layer["live.net.pool.send_queue_depth_max"] >= 1
    assert per_layer["live.net.transport.mailbox_backlog_max"] >= 1


def test_tiny_sim_emits_every_metric(monkeypatch):
    monkeypatch.setattr(sim, "MIN_NODES", 16)
    monkeypatch.setattr(sim, "VERIFY_LOOKUPS", 20)
    result = sim.run("sim-storage-churn", 5, 0.1, Tracer())
    _assert_emits(result)
    assert result["samples"]["nodes"] == 16
    assert result["end_to_end"]["storage_util_pct"] >= 95.0
    assert result["per_layer"]["pastry.hops_mean"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
