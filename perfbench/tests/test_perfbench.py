"""Unit tests for the benchmark's own logic, on synthetic inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from stats import mean_of_medians, quartiles, spread, tail_percentile  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _traced(clock):
    tracer = spans.Tracer(clock=clock)
    tracer.request = 1
    return tracer


def test_self_time_three_levels_no_double_counting():
    clock = FakeClock()
    tracer = _traced(clock)
    outer = tracer.open("a")          # a: 0..10
    clock.now = 2.0
    middle = tracer.open("b")         # b: 2..8
    clock.now = 3.0
    inner = tracer.open("c")          # c: 3..5
    clock.now = 5.0
    tracer.close(inner)
    clock.now = 8.0
    tracer.close(middle)
    clock.now = 10.0
    tracer.close(outer)
    assert tracer.self_s("a") == pytest.approx(4.0)
    assert tracer.self_s("b") == pytest.approx(4.0)
    assert tracer.self_s("c") == pytest.approx(2.0)
    # self times partition the root: nothing counted twice
    assert sum(tracer.self_s(n) for n in "abc") == pytest.approx(10.0)
    parents = {name: parent for _, name, _, _, parent, _ in tracer.records}
    ids = {name: span_id for span_id, name, _, _, _, _ in tracer.records}
    assert parents == {"c": ids["b"], "b": ids["a"], "a": None}


def test_self_time_siblings_and_recursion():
    clock = FakeClock()
    tracer = _traced(clock)
    root = tracer.open("x")
    for start in (1.0, 4.0):          # two children of 2s each
        clock.now = start
        child = tracer.open("x")      # same name nested: recursion
        clock.now = start + 2.0
        tracer.close(child, keep=False)
    clock.now = 9.0
    tracer.close(root)
    calls, total, self_s = tracer.totals["x"]
    assert calls == 3
    assert total == pytest.approx(13.0)
    assert self_s == pytest.approx(9.0)   # 5 for the root + 2 + 2
    assert len(tracer.records) == 1       # unkept spans only add to totals


def test_spans_outside_a_request_are_not_recorded():
    tracer = spans.Tracer(clock=FakeClock())
    frame = tracer.open("a")
    tracer.close(frame)
    tracer.count("b")
    assert tracer.totals == {} and tracer.records == []


def test_close_out_of_order_raises():
    tracer = _traced(FakeClock())
    first = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(first)


def test_probes_wrap_and_restore():
    from repro.difftree.tree import Difftree

    original = Difftree.__dict__["choice_nodes"]
    tracer = spans.Tracer()
    probes = spans.install(tracer)
    try:
        assert Difftree.__dict__["choice_nodes"] is not original
    finally:
        probes.uninstall()
    assert Difftree.__dict__["choice_nodes"] is original


def test_tail_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 100)]       # 99 samples: 9 beyond p90
    assert tail_percentile(values, 90) is None
    values.append(100.0)                              # 100 samples: 10 beyond
    assert tail_percentile(values, 90) == 90.0
    assert tail_percentile([1.0] * 20, 50) == 1.0
    assert tail_percentile([1.0] * 19, 50) is None


def test_serve_mixed_minimum_rounds_allow_p90():
    per_round = len(inputs.PAPER_LOGS) * (1 + run.SERVE_REPEATS)
    latencies = [float(i) for i in range(per_round * run.SERVE_MIN_ROUNDS)]
    assert tail_percentile(latencies, 90) is not None
    fewer = len(inputs.PAPER_LOGS) * run.SERVE_REPEATS * run.SERVE_MIN_ROUNDS
    assert tail_percentile(latencies[:fewer], 90) is None


def test_view_check_pins_known_shortfall():
    assert checks.view_problem("filter", 3, 2, False) is None
    assert checks.view_problem("filter", 1, 2, True) is not None
    pinned = checks.KNOWN_VIEW_SHORTFALL["abstract"]
    for variant in (False, True):
        assert checks.view_problem("abstract", pinned, 2, variant) is None
        assert checks.view_problem("abstract", pinned - 1, 2, variant) is not None
    # the paper's own log: exactly the pinned count; a variant may reach more
    assert checks.view_problem("abstract", 2, 2, False) is not None
    assert checks.view_problem("abstract", 2, 2, True) is None


def test_spread_and_mean_of_medians():
    assert spread([5.0] * 10) == 0.0
    q1, q2, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q2 == 3.0 and q1 < q2 < q3
    # a 40x gap between logs does not move the aggregate around
    groups = {"fast": [0.05, 0.04, 0.06], "slow": [2.0, 1.9, 2.1]}
    assert mean_of_medians(groups) == pytest.approx((0.05 + 2.0) / 2)


def test_request_stream_is_seeded():
    logs = inputs.PAPER_LOGS
    assert inputs.request_round(3, 0, logs, 3) == inputs.request_round(3, 0, logs, 3)
    assert inputs.request_round(3, 0, logs, 3) != inputs.request_round(4, 0, logs, 3)
    stream = inputs.request_round(3, 2, logs, 3)
    assert len(stream) == len(logs) * 4
    for log in logs:
        mine = [r for r in stream if r.log == log]
        assert [r.fresh for r in mine] == [True, False, False, False]
    assert inputs.log_order(5, 0) == inputs.log_order(5, 0)
    assert sorted(inputs.log_order(5, 1)) == sorted(logs)


def test_variants_are_seeded_distinct_and_prefix_stable():
    from repro.workloads import WORKLOADS

    queries = WORKLOADS["sales"].queries
    five = inputs.log_variants(8, "sales", queries, 5)
    assert five == inputs.log_variants(8, "sales", queries, 5)
    assert five != inputs.log_variants(9, "sales", queries, 5)
    assert inputs.log_variants(8, "sales", queries, 12)[:5] == five
    assert len(set(five)) == 5 and queries not in five


def test_perturbation_keeps_ranges_ordered_and_repeats_consistent():
    rng = random.Random(0)
    q = ("SELECT a FROM t AS ss WHERE ss.d BTWN '2019-01-25' & '2019-02-15' AND x IN "
         "(SELECT b FROM t AS s WHERE s.d BTWN '2019-01-25' & '2019-02-15')")
    out = inputs.perturb_query(q, rng)
    pairs = inputs._BTWN.findall(out)
    assert len(pairs) == 2 and pairs[0] == pairs[1] and pairs[0][0] < pairs[0][1]
    assert out != q


@pytest.mark.parametrize("seed", [1, 2, 42])
def test_every_serve_mixed_variant_parses(seed):
    from repro.difftree.builder import parse_queries
    from repro.workloads import WORKLOADS

    for log in inputs.PAPER_LOGS:
        for variant in inputs.log_variants(seed, log, WORKLOADS[log].queries, run.SERVE_MAX_ROUNDS):
            assert len(parse_queries(list(variant))) == len(variant)


def test_benchmark_json_matches_the_command():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_stop_children_leaves_no_process_behind(tmp_path):
    # in a process of its own: stopping children inside the test runner
    # would stop the runner's own helpers
    script = tmp_path / "children.py"
    script.write_text(
        "import multiprocessing, subprocess, sys, time\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import run\n"
        "from multiprocessing import shared_memory\n"
        "segment = shared_memory.SharedMemory(create=True, size=16)\n"
        "segment.close(); segment.unlink()\n"
        "sleeper = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "worker = multiprocessing.get_context('fork').Process(target=time.sleep, args=(60,))\n"
        "worker.start()\n"
        "assert len(run._child_pids()) >= 3, run._child_pids()\n"
        "run._stop_children()\n"
        "print(run._child_pids())\n"
    )
    out = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"
