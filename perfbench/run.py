"""End-to-end benchmark of PI2's ``generate``: SQL log in, laid-out interface out.

Run from the repository root::

    python3 perfbench/run.py --workload filter-cold --seed 42 --seconds 40 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``filter-cold`` -- the paper's Filter log (Listing 4) with the CLI
  defaults, generated once in a fresh process and once more as a repeat;
* ``paper-logs-scale16`` -- the other six paper logs at catalogue scale 16,
  each generated fresh and then repeated, in passes that start from cold
  process-wide caches;
* ``serve-mixed`` -- a 2-worker pooled :class:`GenerationService` at scale 4,
  driven closed-loop by one client with rounds of new log variants and
  repeats.

Every output is checked (``checks.py``).  The last stdout line is one JSON
object: the end-to-end metrics with ``--trace 0``, or with ``--trace 1`` the
per-layer metrics of a traced run (``spans.py``), whose spans are written to
``perfbench/out/``.  The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from stats import mean_of_medians, tail_percentile  # noqa: E402

WORKLOADS = ("filter-cold", "paper-logs-scale16", "serve-mixed")

#: end-to-end metric -> unit (``--trace 0``)
E2E_UNITS = {
    "setup_s": "s",
    "generate_s": "s",
    "fresh_request_s": "s",
    "repeat_request_s": "s",
    "interface_cost": "cost",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

#: per-layer metric -> unit (``--trace 1``).  Times are self times per
#: pass (filter-cold, paper-logs) or per round (serve-mixed).
LAYER_UNITS = {
    "sqlparser.parse_s": "s",
    "difftree.build_s": "s",
    "difftree.choice_nodes_calls": "count",
    "database.catalog_build_s": "s",
    "database.execute_calls": "count",
    "database.execute_s": "s",
    "database.plan_cache_hit_ratio": "ratio",
    "database.result_cache_hit_ratio": "ratio",
    "database.row_plan_executions": "count",
    "transform.applications_calls": "count",
    "transform.s": "s",
    "search.s": "s",
    "search.reward_calls": "count",
    "search.reward_s": "s",
    "search.states_evaluated": "count",
    "search.reward_hit_ratio": "ratio",
    "search.sync_rounds": "count",
    "mapping.generate_s": "s",
    "mapping.searchm_calls": "count",
    "mapping.pruned_ratio": "ratio",
    "mapping.interfaces_evaluated": "count",
    "mapping.widget_cover_states": "count",
    "mapping.vis_s": "s",
    "mapping.widgets_s": "s",
    "mapping.safety_calls": "count",
    "mapping.safety_s": "s",
    "mapping.layout_s": "s",
    "mapping.memo_hit_ratio": "ratio",
    "cost.manipulation_calls": "count",
    "cost.manipulation_s": "s",
    "cost.query_plan_calls": "count",
    "cost.navigation_s": "s",
    "interface.is_complete_calls": "count",
    "interface.is_complete_s": "s",
    "interface.export_s": "s",
    "service.pool_ready_s": "s",
    "service.run_task_s": "s",
    "service.coordinator_s": "s",
    "service.warmup_s": "s",
    "service.retries": "count",
    "service.workers_replaced": "count",
    "service.degraded_requests": "count",
    "service.worker_peak_rss_mb": "MB",
    "trace.wall_s": "s",
    "trace.attributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: layer self times inside requests: disjoint, so their sum is at most the
#: traced wall-clock (``trace.attributed_ratio`` <= 1)
SELF_TIMES = {
    "sqlparser.parse_s": ("sqlparser.parse",),
    "difftree.build_s": ("difftree.build",),
    "database.execute_s": ("database.execute",),
    "transform.s": ("transform.applications", "transform.apply", "transform.refactor", "transform.covers"),
    "search.s": ("search.parallel",),
    "search.reward_s": ("search.reward",),
    "mapping.generate_s": ("mapping.generate",),
    "mapping.vis_s": ("mapping.vis",),
    "mapping.widgets_s": ("mapping.widgets",),
    "mapping.safety_s": ("mapping.safety",),
    "mapping.layout_s": ("mapping.layout",),
    "cost.manipulation_s": ("cost.manipulation",),
    "cost.navigation_s": ("cost.navigation",),
    "interface.is_complete_s": ("interface.is_complete",),
    "service.run_task_s": ("service.run_task",),
}

#: span name -> call-count metric
CALL_COUNTS = {
    "difftree.choice_nodes": "difftree.choice_nodes_calls",
    "database.execute": "database.execute_calls",
    "transform.applications": "transform.applications_calls",
    "search.reward": "search.reward_calls",
    "mapping.safety": "mapping.safety_calls",
    "cost.manipulation": "cost.manipulation_calls",
    "cost.query_plan": "cost.query_plan_calls",
    "interface.is_complete": "interface.is_complete_calls",
}

#: stats-object counters summed over a traced run's requests
STAT_FIELDS = {
    "executor_stats": (
        "plans_compiled", "plan_cache_hits", "result_cache_hits",
        "result_cache_misses", "columnar_plan_gated",
    ),
    "search_stats": (
        "states_evaluated", "reward_cache_hits", "reward_table_hits", "sync_rounds",
    ),
    "mapper_stats": (
        "searchm_calls", "pruned", "interfaces_evaluated", "widget_cover_states",
        "memo_hits", "memo_misses",
    ),
}

SETUP_REPEATS = {"filter-cold": 101, "paper-logs-scale16": 9, "serve-mixed": 9}
#: serve-mixed's synthetic traffic mix (no recorded request stream exists to
#: take it from).  Every run makes at least SERVE_MIN_ROUNDS rounds, so each
#: log has at least 5 fresh samples for its median, and interface_cost is
#: taken over those rounds, so it is the same for every run of a seed.
#: SERVE_REPEATS is the smallest repeat count with which the minimum rounds
#: leave at least MIN_TAIL_SAMPLES requests beyond request_p90_s:
#: 6 logs x (1 + 3) x 5 rounds = 120 requests, 12 beyond the 90th percentile
#: (with 2 repeats: 90 requests, 9 beyond).  SERVE_MAX_ROUNDS only caps the
#: variants made in advance; a 40 s run makes 11 to 14 rounds.
SERVE_REPEATS = 3
SERVE_MIN_ROUNDS = 5
SERVE_MAX_ROUNDS = 40
PAPER_MIN_PASSES = 3


def _load_program() -> None:
    """Put the program's sources on the path, or stop: without them there
    is nothing to measure, and no result may be printed."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Session:
    """Serves one run's requests: times each, checks its output, and keeps
    what the end-to-end and per-layer metrics are computed from."""

    def __init__(self, workload: str, seed: int, tracer: spans.Tracer) -> None:
        self.pinned = checks.load_digests(workload) if seed == inputs.DEFAULT_SEED else {}
        self.tracer = tracer
        self.traced = False
        self.fresh: dict[str, list[float]] = defaultdict(list)
        self.repeat: dict[str, list[float]] = defaultdict(list)
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_export: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.costs: dict[str, float] = {}
        #: traced requests only
        self.stat_totals: dict[str, float] = defaultdict(float)
        self.export_s = 0.0

    def request(self, key: str, log: str, fresh: bool, call, variant: bool = False):
        """Serve one request; returns ``(latency, result)``.  ``key`` names
        the request's exact input: every request with one key must export
        the same interface.  ``variant`` marks a literal-perturbed variant
        of ``log``."""
        from repro.interface.export import interface_to_json
        from repro.workloads import WORKLOADS as LOGS

        self.attempted += 1
        result = error = None
        if self.traced:
            self.tracer.request = self.attempted
        start = time.perf_counter()
        frame = self.tracer.open("request")
        try:
            result = call()
        except Exception as exc:  # a failed request is counted, not fatal
            error = exc
        finally:
            self.tracer.close(frame)
        latency = time.perf_counter() - start
        self.tracer.request = None
        if error is not None:
            found = [f"{type(error).__name__}: {error}"]
        else:
            check_start = time.perf_counter()
            exported = interface_to_json(result.interface)
            if self.traced:
                self.export_s += time.perf_counter() - check_start
            found = checks.problems(
                result.interface,
                exported,
                log,
                LOGS[log].expected_min_views,
                variant,
                self.pinned.get(key),
                self.first_export.get(key),
            )
        if found:
            self.failed += 1
            self.problems.append(f"{key}: " + "; ".join(found))
            return latency, None
        self.first_export.setdefault(key, exported)
        self.digests[key] = checks.digest(exported)
        self.costs[key] = result.interface.cost.total
        (self.fresh if fresh else self.repeat)[log].append(latency)
        self.latencies.append(latency)
        if self.traced:
            for attr, names in STAT_FIELDS.items():
                stats = getattr(result, attr)
                for name in names:
                    self.stat_totals[name] += getattr(stats, name)
        return latency, result


def _run_units(unit, seconds: float, min_units: int, max_units: int, first: int = 0) -> list[float]:
    """Call ``unit(i)`` until ``seconds`` have passed (at least ``min_units``
    and at most ``max_units`` times); returns each unit's wall-clock."""
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < max_units and (
        len(walls) < min_units or time.perf_counter() - start < seconds
    ):
        walls.append(unit(first + len(walls)))
    return walls


def _clear_process_caches() -> None:
    from repro.database.plancache import SHARED_PLAN_CACHE
    from repro.mapping.memo import SHARED_MAPPING_MEMO

    SHARED_PLAN_CACHE.clear()
    SHARED_MAPPING_MEMO.clear()
    gc.collect()


# ---------------------------------------------------------------------------
# workloads: each sets up, then returns (unit, min_units, max_units, extras)
# ---------------------------------------------------------------------------


def _build_catalogs(seed: int, scale: float, repeats: int, setup: dict):
    from repro.database import standard_catalog

    catalog = None
    for _ in range(repeats):
        catalog = None
        gc.collect()
        start = time.perf_counter()
        catalog = standard_catalog(seed=seed, scale=scale)
        setup["setup"].append(time.perf_counter() - start)
        setup["catalog"].append(setup["setup"][-1])
    return catalog


def _generate_passes(session: Session, catalog, logs_for_pass, config):
    """A unit that generates each log fresh, then once more as a repeat,
    from cold process-wide caches."""
    from repro.core.pipeline import generate_interface
    from repro.workloads import WORKLOADS as LOGS

    def unit(index: int) -> float:
        _clear_process_caches()
        wall = 0.0
        for log in logs_for_pass(index):
            queries = list(LOGS[log].queries)
            for fresh in (True, False):
                latency, _ = session.request(
                    log, log, fresh,
                    lambda: generate_interface(queries, catalog=catalog, config=config),
                )
                wall += latency
        return wall

    return unit


def setup_filter_cold(seed, session, setup):
    from repro.core.config import PipelineConfig

    # the CLI defaults: `repro generate --workload filter --seed <seed>`
    catalog = _build_catalogs(seed, 0.3, SETUP_REPEATS["filter-cold"], setup)
    unit = _generate_passes(session, catalog, lambda i: ["filter"], PipelineConfig.fast())
    return unit, 1, 1, None


def setup_paper_logs(seed, session, setup):
    from repro.core.config import PipelineConfig

    catalog = _build_catalogs(seed, 16, SETUP_REPEATS["paper-logs-scale16"], setup)
    unit = _generate_passes(
        session, catalog, lambda i: inputs.log_order(seed, i), PipelineConfig.fast()
    )
    return unit, PAPER_MIN_PASSES, 10**6, None


def setup_serve_mixed(seed, session, setup):
    from repro.core.config import PipelineConfig
    from repro.database import standard_catalog
    from repro.service import GenerationService
    from repro.workloads import WORKLOADS as LOGS

    config = PipelineConfig.fast()
    config.search.backend = "process"
    config.search.workers = 2
    service = None
    try:
        for _ in range(SETUP_REPEATS["serve-mixed"]):
            if service is not None:
                service.close()
            service = None
            gc.collect()
            start = time.perf_counter()
            catalog = standard_catalog(seed=seed, scale=4)
            setup["catalog"].append(time.perf_counter() - start)
            service = GenerationService(catalog, config=config)
            # the service spawns its pool on the first process-backend
            # request; spawning it here keeps pool start-up in set-up
            service._pooled_backend_for(config)
            setup["setup"].append(time.perf_counter() - start)
            setup["pool_ready"].append(service._pool.spawn_seconds)
    except BaseException:
        if service is not None:
            service.close()
        raise

    variants = {
        log: inputs.log_variants(seed, log, LOGS[log].queries, SERVE_MAX_ROUNDS)
        for log in inputs.PAPER_LOGS
    }
    service_totals: dict[str, float] = defaultdict(float)

    def unit(index: int) -> float:
        wall = 0.0
        for req in inputs.request_round(seed, index, inputs.PAPER_LOGS, SERVE_REPEATS):
            queries = variants[req.log][index]
            served = len(service.requests)
            latency, _ = session.request(
                f"{index}/{req.log}", req.log, req.fresh,
                lambda: service.generate(queries),
                variant=True,
            )
            wall += latency
            if len(service.requests) > served:
                stats = service.requests[-1]
                service_totals["retries"] += stats.retries
                service_totals["workers_replaced"] += stats.workers_replaced
                service_totals["degraded"] += stats.degraded is not None
                if session.traced:
                    service_totals["warmup_s"] += stats.warmup_seconds
                    service_totals["request_s"] += latency
        return wall

    return unit, SERVE_MIN_ROUNDS, SERVE_MAX_ROUNDS, (service, service_totals)


SETUPS = {
    "filter-cold": setup_filter_cold,
    "paper-logs-scale16": setup_paper_logs,
    "serve-mixed": setup_serve_mixed,
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def interface_cost(workload: str, costs: dict[str, float]) -> tuple[float, int]:
    """Sum over the workload's logs of the chosen interfaces' cost, and the
    number of interfaces it covers; on serve-mixed each log's mean over its
    variants of the rounds every run makes."""
    if workload != "serve-mixed":
        return sum(costs.values()), len(costs)
    by_log: dict[str, list[float]] = defaultdict(list)
    for key, cost in costs.items():
        round_index, log = key.split("/")
        if int(round_index) < SERVE_MIN_ROUNDS:
            by_log[log].append(cost)
    return sum(statistics.fmean(v) for v in by_log.values()), sum(map(len, by_log.values()))


def end_to_end(workload, session, setup, walls) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count)."""
    fresh_n = sum(map(len, session.fresh.values()))
    repeat_n = sum(map(len, session.repeat.values()))
    return {
        "setup_s": (statistics.median(setup["setup"]), len(setup["setup"])),
        "generate_s": (statistics.median(walls), len(walls)),
        "fresh_request_s": (mean_of_medians(session.fresh), fresh_n),
        "repeat_request_s": (mean_of_medians(session.repeat), repeat_n),
        "interface_cost": interface_cost(workload, session.costs),
        "peak_rss_mb": (_peak_rss_mb(), 1),
        "ok_share": ((session.attempted - session.failed) / session.attempted, session.attempted),
    }


def per_layer(session, setup, tracer, untraced, traced, service_totals) -> dict[str, float]:
    units = len(traced)
    totals = session.stat_totals
    m = {name: 0.0 for name in LAYER_UNITS}
    for metric, names in SELF_TIMES.items():
        m[metric] = sum(tracer.self_s(n) for n in names) / units
    for name, metric in CALL_COUNTS.items():
        m[metric] = tracer.calls(name) / units
    m["database.catalog_build_s"] = statistics.median(setup["catalog"])
    m["database.plan_cache_hit_ratio"] = _ratio(
        totals["plan_cache_hits"], totals["plan_cache_hits"] + totals["plans_compiled"]
    )
    m["database.result_cache_hit_ratio"] = _ratio(
        totals["result_cache_hits"], totals["result_cache_hits"] + totals["result_cache_misses"]
    )
    m["database.row_plan_executions"] = totals["columnar_plan_gated"] / units
    hits = totals["reward_cache_hits"] + totals["reward_table_hits"]
    m["search.states_evaluated"] = totals["states_evaluated"] / units
    m["search.reward_hit_ratio"] = _ratio(hits, hits + totals["states_evaluated"])
    m["search.sync_rounds"] = totals["sync_rounds"] / units
    m["mapping.searchm_calls"] = totals["searchm_calls"] / units
    m["mapping.pruned_ratio"] = _ratio(totals["pruned"], totals["searchm_calls"])
    m["mapping.interfaces_evaluated"] = totals["interfaces_evaluated"] / units
    m["mapping.widget_cover_states"] = totals["widget_cover_states"] / units
    m["mapping.memo_hit_ratio"] = _ratio(
        totals["memo_hits"], totals["memo_hits"] + totals["memo_misses"]
    )
    m["interface.export_s"] = session.export_s / units
    if setup["pool_ready"]:
        run_task_total = tracer.totals.get("service.run_task", (0, 0.0, 0.0))[1]
        m["service.pool_ready_s"] = statistics.median(setup["pool_ready"])
        m["service.coordinator_s"] = (service_totals["request_s"] - run_task_total) / units
        m["service.warmup_s"] = service_totals["warmup_s"] / units
        m["service.retries"] = service_totals["retries"]
        m["service.workers_replaced"] = service_totals["workers_replaced"]
        m["service.degraded_requests"] = service_totals["degraded"]
        m["service.worker_peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    m["trace.wall_s"] = statistics.fmean(traced)
    m["trace.attributed_ratio"] = sum(m[k] for k in SELF_TIMES) / m["trace.wall_s"]
    m["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return m


def _print_breakdown(m: dict[str, float]) -> None:
    wall = m["trace.wall_s"]
    print(f"traced wall-clock per unit: {wall:.4f} s; layer self times:")
    for name in sorted(SELF_TIMES, key=lambda k: -m[k]):
        print(f"  {name:<26} {m[name]:10.4f} s  {100 * m[name] / wall:6.2f}%")
    for prefix in ("sqlparser", "difftree", "database", "transform", "search", "mapping", "cost", "interface", "service"):
        share = sum(m[k] for k in SELF_TIMES if k.startswith(prefix + ".")) / wall
        print(f"  share {prefix + '.*':<20} {100 * share:6.2f}%")


def _child_pids() -> list[int]:
    """This process's live children, read from ``/proc``."""
    me = str(os.getpid())
    found = []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            # the command name in parentheses may hold spaces: split after it
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me:
            found.append(int(entry.parent.name))
    return found


def _stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The pool's workers are joined by ``GenerationService.close``; what is
    left is multiprocessing's resource tracker, which the shared-memory
    catalogue starts and which would otherwise end only some time after
    this process exits.  It ends once every process holding its pipe has,
    so any stray child is stopped first.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    for pid in _child_pids():
        if pid == getattr(tracker, "_pid", None):
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests", action="store_true",
        help="pin this run's interface digests in digests.json (default seed only)",
    )
    args = parser.parse_args(argv)
    if args.write_digests and args.seed != inputs.DEFAULT_SEED:
        parser.error("--write-digests pins the default seed's outputs only")
    _load_program()

    tracer = spans.Tracer()
    session = Session(args.workload, args.seed, tracer)
    if args.write_digests:
        session.pinned = {}
    setup: dict[str, list[float]] = defaultdict(list)
    unit, min_units, max_units, extras = SETUPS[args.workload](args.seed, session, setup)
    service, service_totals = extras if extras else (None, {})

    try:
        if not args.trace:
            walls = _run_units(unit, args.seconds, min_units, max_units)
            untraced = traced = None
        else:
            # half the run untraced, half traced: the difference is the
            # tracing overhead, the traced half gives the layer breakdown
            half = args.seconds / 2
            untraced = _run_units(unit, half, 1, max_units)
            probes = spans.install(tracer)
            session.traced = True
            try:
                traced = _run_units(unit, half, 1, max_units, first=len(untraced))
            finally:
                probes.uninstall()
                session.traced = False
    finally:
        if service is not None:
            service.close()

    for log in sorted(checks.KNOWN_VIEW_SHORTFALL):
        if log in session.fresh:
            print(f"note: {log} maps to {checks.KNOWN_VIEW_SHORTFALL[log]} view(s); the paper's figure shows more")
    for problem in session.problems:
        print(f"check failed: {problem}")
    if args.write_digests:
        checks.write_digests(args.workload, session.digests)
        print(f"pinned {len(session.digests)} digest(s) for {args.workload}")

    correct = session.failed == 0
    if not args.trace:
        values = end_to_end(args.workload, session, setup, walls)
        for name, (value, n) in values.items():
            print(f"{name:<18} {value:14.6f} {E2E_UNITS[name]:<6} n={n}")
        p90 = tail_percentile(session.latencies, 90)
        if p90 is not None:
            print(f"{'request_p90_s':<18} {p90:14.6f} {'s':<6} n={len(session.latencies)}")
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in values.items()}
    else:
        values = per_layer(session, setup, tracer, untraced, traced, service_totals)
        _print_breakdown(values)
        if values["trace.attributed_ratio"] > 1.0 + 1e-9:
            print("check failed: layer self times exceed the traced wall-clock")
            correct = False
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(str(out / f"{args.workload}-seed{args.seed}.spans.jsonl"))
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):
            correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
