"""Layered benchmark of maximal clique enumeration (MCE).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hybrid-dense --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --seed 0       # every workload, each in its own process

A run generates its workload's graphs from ``--seed`` and has networkx list
their maximal cliques in a child process (the oracle). It then sets up
(input generation, LocalGraph build or Spark session + cached edge
DataFrame, and a first enumeration) twice, and enumerates again and again
until the timed enumerations add up to ``--seconds``. Every enumeration, the
set-up ones included, is checked: its clique count and order-independent
digest must match the oracle and its ``BranchStats`` must repeat the first
run's. An enumeration that raises or fails a check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics: ``mce_s``, the median wall time
of one enumeration of all the workload's graphs; ``setup_s``, the median
set-up time; ``peak_rss_mb``, the peak RSS of this process (for Spark, the
Python driver). ``--trace 1`` alternates untraced and traced enumerations
and prints the per-layer metrics (see README.md), medians over the traced
ones. Layers a workload does not run read 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the provenance (versions, Spark conf, commit, seed, every sample).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-ups per run; setup_s is their median. Two, because a Spark set-up (the
# first one also launches the JVM) takes 10-25 s and a run must stay short.
SETUP_REPS = 2
# Seconds an in-process enumeration stays on one CPU; see rotate_cpus.
ROTATE_S = 0.1

END_TO_END = {"mce_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "graphs.generate_s": "s",
    "graphs.local_build_s": "s",
    "graphs.edges_df_s": "s",
    "reduction.s": "s",
    "reduction.removed": "count",
    "reduction.cliques": "count",
    "ordering.truss_s": "s",
    "ordering.tau": "count",
    "hbbmc.roots": "count",
    "hbbmc.ebb_calls": "count",
    "hbbmc.self_s": "s",
    "kernels.s": "s",
    "kernels.handovers": "count",
    "kernels.calls": "count",
    "kernels.cliques_per_call": "ratio",
    "early_term.s": "s",
    "early_term.calls": "count",
    "early_term.plex": "count",
    "early_term.applied": "count",
    "early_term.ratio": "ratio",
    "early_term.cliques": "count",
    "emit.count": "count",
    "emit.s": "s",
    "dist.session_s": "s",
    "dist.self_s": "s",
    "dist.collect_s": "s",
    "dist.driver_prep_s": "s",
    "dist.broadcast_s": "s",
    "dist.broadcast_bytes": "bytes",
    "dist.tasks_s": "s",
    "dist.kernel_tasks": "count",
    "dist.task_max_s": "s",
    "dist.task_median_s": "s",
    "dist.task_skew": "ratio",
    "dist.task_sum_s": "s",
    "dist.kernel_stage_s": "s",
    "dist.parallelism": "ratio",
    "dist.result_s": "s",
    "dist.stats_mismatch": "count",
    "trace.mce_s": "s",
    "trace.overhead_s": "s",
    "host.probe_s": "s",
}

_now = time.perf_counter


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@contextmanager
def rotate_cpus(period: float = ROTATE_S):
    """Move the calling thread round the CPUs it may use, to the next one
    every ``period`` seconds, until the block exits.

    On a shared host the speed of each CPU shifts with other tenants' load,
    over seconds to minutes and differently per CPU. A single-threaded
    enumeration left on one CPU takes that CPU's speed; moved round all of
    them, it takes their average. On a 4-CPU VM this halved the spread of
    hybrid-dense sample times (sd/median 0.127 -> 0.069) and made them 5%
    slower.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield
        return
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate() -> None:
        i = 0
        while not stop.wait(period):
            i += 1
            os.sched_setaffinity(tid, {cpus[i % len(cpus)]})

    mover = threading.Thread(target=rotate, name="perfbench-rotate", daemon=True)
    mover.start()
    try:
        yield
    finally:
        stop.set()
        mover.join()
        os.sched_setaffinity(tid, cpus)


class Checker:
    """Counts enumerations and the ones that failed: raised, disagreed with
    the oracle, or produced other ``BranchStats`` than the first run."""

    def __init__(self, oracle: dict[str, tuple[int, int]]):
        self.oracle = oracle
        self.ref_stats: dict[str, dict[str, int]] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, results: dict[str, tuple[tuple[int, int], dict]],
              problems: list[str] | None = None) -> None:
        """``results``: graph -> (clique digest, BranchStats dict);
        ``problems``: failures the caller found itself."""
        self.attempted += 1
        problems = list(problems or [])
        for graph, (dig, stats) in results.items():
            if dig != self.oracle[graph]:
                problems.append(f"{graph}: cliques {dig} != oracle {self.oracle[graph]}")
            ref = self.ref_stats.setdefault(graph, stats)
            if stats != ref:
                problems.append(f"{graph}: stats {stats} != first run {ref}")
        if problems:
            self.fail(label, "; ".join(problems))

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"perfbench: {label} FAILED: {why}", file=sys.stderr, flush=True)

    def error(self, label: str) -> None:
        self.attempted += 1
        self.fail(label, traceback.format_exc())


def _median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    keys = {k for s in samples for k in s}
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in keys}


def _layer_metrics(tr, stats: list[dict[str, int]]) -> dict[str, float]:
    """Per-layer metrics of one traced enumeration from its tracer and the
    BranchStats of each graph."""
    plex = sum(s["et_plex"] for s in stats)
    applied = sum(s["et_applied"] for s in stats)
    kcalls = tr.counts["kernels.calls"]
    # Calls outside kernel hand-overs are edge-oriented (_ebb) calls. Spark
    # runs both in its workers, out of the tracer's sight: there they read 0.
    ebb_calls = sum(s["calls"] for s in stats) - kcalls if tr.calls["hbbmc"] else 0
    return {
        "reduction.s": tr.self_s["reduction"],
        "reduction.removed": tr.counts["reduction.removed"],
        "reduction.cliques": tr.counts["reduction.cliques"],
        "ordering.truss_s": tr.self_s["ordering.truss"],
        "ordering.tau": tr.counts["ordering.tau"],
        "hbbmc.roots": sum(s["root_branches"] for s in stats) if ebb_calls else 0,
        "hbbmc.ebb_calls": ebb_calls,
        "hbbmc.self_s": tr.self_s["hbbmc"],
        "kernels.s": tr.self_s["kernels"],
        "kernels.handovers": tr.calls["kernels"],
        "kernels.calls": kcalls,
        "kernels.cliques_per_call": tr.counts["kernels.cliques"] / kcalls if kcalls else 0.0,
        "early_term.s": tr.self_s["early_term"],
        "early_term.calls": tr.calls["early_term"],
        "early_term.plex": plex,
        "early_term.applied": applied,
        "early_term.ratio": applied / plex if plex else 0.0,
        "early_term.cliques": tr.counts["early_term.cliques"],
        "emit.count": tr.emitted,
        "emit.s": tr.self_s["emit"],
    }


# -- workload runners -------------------------------------------------------
#
# A runner sets the workload up (``setup``, timed as a whole), enumerates
# once per sample (``enumerate``), checks a result and returns its
# BranchStats (``check``), installs the tracer's wrappers (``install``) and
# turns one traced sample into per-layer metrics (``layers``). ``measure``
# drives both kinds the same way.


class LocalRun:
    """In-process workload: ``run_named`` on each LocalGraph in turn."""

    def __init__(self, wl, seed: int, checker: Checker):
        from repro.core import hbbmc

        self.hbbmc = hbbmc
        self.wl, self.seed, self.checker = wl, seed, checker
        self.graphs = None
        self.setup_parts: dict[str, list[float]] = {
            "graphs.generate_s": [], "graphs.local_build_s": []}
        self.prov: dict = {}

    def setup(self) -> float:
        from repro.graphs.generators import to_local

        self.graphs = None
        gc.collect()
        t0 = _now()
        edges = self.wl.generate(self.seed)
        t1 = _now()
        self.graphs = {k: to_local(e) for k, e in edges.items()}
        t2 = _now()
        runs = self.enumerate("setup")
        t3 = _now()
        self.setup_parts["graphs.generate_s"].append(t1 - t0)
        self.setup_parts["graphs.local_build_s"].append(t2 - t1)
        self.check("setup", runs)
        return t3 - t0

    def enumerate(self, label):
        with rotate_cpus():
            return {k: self.hbbmc.run_named(g, self.wl.algorithm) for k, g in self.graphs.items()}

    def check(self, label, runs) -> list[dict]:
        from perfbench.oracle import digest

        results = {k: (digest(r.cliques), r.stats.as_dict()) for k, r in runs.items()}
        self.checker.check(label, results)
        return [stats for _, stats in results.values()]

    def install(self, tr) -> None:
        from perfbench.tracer import install_core

        install_core(tr)
        tr.patch(self.hbbmc, "run_mce", tr.span("hbbmc", self.hbbmc.run_mce))

    def layers(self, label, tr, stats) -> dict[str, float]:
        if tr.emitted != sum(s["cliques"] for s in stats):
            self.checker.fail(label, "traced emit.count != BranchStats.cliques")
        return _layer_metrics(tr, stats)

    def close(self) -> None:
        pass


class SparkRun:
    """Spark workload: ``mce_distributed`` on the cached edge DataFrame,
    ``num_partitions = nproc`` on a ``local[nproc]`` master."""

    def __init__(self, wl, seed: int, checker: Checker, run_dir: Path, local_stats: dict):
        os.environ.update(_spark_env(run_dir))
        from repro.dist import mce as dist_mce

        self.dist_mce = dist_mce
        self.wl, self.seed, self.checker, self.run_dir = wl, seed, checker, run_dir
        (self.graph,) = wl.graphs
        self.local_stats = local_stats[self.graph]
        self.spark = self.edf = None
        self.setup_parts: dict[str, list[float]] = {
            "graphs.generate_s": [], "dist.session_s": [], "graphs.edges_df_s": []}
        self.prov: dict = {}
        self.traced: list[tuple[str, dict]] = []

    def setup(self) -> float:
        from repro.graphs.edgelist import edges_df

        if self.spark is not None:
            self.spark.stop()
        self.edf = None
        gc.collect()
        t0 = _now()
        edges = self.wl.generate(self.seed)[self.graph]
        t1 = _now()
        self.spark = _spark_session(self.run_dir)
        t2 = _now()
        self.edf = edges_df(self.spark, edges).cache()
        self.edf.count()
        t3 = _now()
        res = self.enumerate("setup")
        t4 = _now()
        self.setup_parts["graphs.generate_s"].append(t1 - t0)
        self.setup_parts["dist.session_s"].append(t2 - t1)
        self.setup_parts["graphs.edges_df_s"].append(t3 - t2)
        (stats,) = self.check("setup", res)
        self._parity(stats)
        return t4 - t0

    def _parity(self, stats: dict) -> None:
        # Counter parity with the in-process runner on the same generated
        # edge list (the hybrid-dense input). Known not to hold: the counters
        # depend on the order edges arrive in, and the Spark job makes no root
        # _ebb call. So it is reported, not counted as a failure.
        diff = {k: [v, stats[k]] for k, v in self.local_stats.items() if stats[k] != v}
        self.prov["stats_parity"] = {"in_process": self.local_stats, "spark": stats, "differs": diff}
        if diff:
            print(f"perfbench: BranchStats differ, [in-process, spark]: {diff}",
                  file=sys.stderr, flush=True)

    def enumerate(self, label):
        self.spark.sparkContext.setJobGroup(f"perfbench-{label}", str(label))
        return self.dist_mce.mce_distributed(
            self.spark, self.edf, self.wl.algorithm, num_partitions=nproc())

    def check(self, label, res) -> list[dict]:
        from perfbench.oracle import digest

        pdf = res.cliques_df.select("clique").toPandas()
        dig = digest(map(int, c.split(",")) for c in pdf["clique"].tolist())
        del pdf
        bad = [] if res.n_cliques == dig[0] else [f"n_cliques {res.n_cliques} != {dig[0]} rows"]
        stats = res.stats.as_dict()
        self.checker.check(label, {self.graph: (dig, stats)}, bad)
        return [stats]

    def install(self, tr) -> None:
        from perfbench.tracer import install_dist

        install_dist(tr, self.spark)
        tr.patch(self.dist_mce, "mce_distributed", tr.span("dist", self.dist_mce.mce_distributed))

    def layers(self, label, tr, stats) -> dict[str, float]:
        lay = _layer_metrics(tr, stats)
        lay.update({
            "dist.self_s": tr.self_s["dist"],
            "dist.collect_s": tr.total["dist.collect"],
            "dist.driver_prep_s": tr.total["reduction"] + tr.total["ordering.truss"],
            "dist.broadcast_s": tr.total["dist.broadcast"],
            "dist.broadcast_bytes": tr.counts["dist.broadcast_bytes"],
            "dist.tasks_s": tr.total["dist.tasks"],
            "dist.result_s": tr.total["dist.result"],
            "dist.stats_mismatch": len(self.prov["stats_parity"]["differs"]),
        })
        self.traced.append((f"perfbench-{label}", lay))
        return lay

    def close(self) -> None:
        """Stop Spark, then add each traced sample's kernel-stage task
        metrics from the now complete event log."""
        from perfbench.sparklog import kernel_metrics

        if self.spark is None:
            return
        try:
            conf = dict(self.spark.sparkContext.getConf().getAll())
            self.prov["spark_conf"] = {k: conf.get(k) or self.spark.conf.get(k)
                                       for k in _SPARK_CONF_KEYS}
            self.prov["spark_conf"]["SPARK_LOCAL_DIRS"] = os.environ["SPARK_LOCAL_DIRS"]
        finally:
            _stop_spark(self.spark)
            self.spark = None
        tasks = kernel_metrics(self.run_dir / "events")
        for group, lay in self.traced:
            lay.update(tasks.get(group, {}))


def measure(runner, seconds: float, trace: bool, checker: Checker) -> dict:
    """Set up ``SETUP_REPS`` times, then take samples for ``seconds``
    (alternately untraced and traced with ``trace``)."""
    from perfbench.tracer import Tracer

    try:
        setup_s = [runner.setup() for _ in range(SETUP_REPS)]
        mce_s, traced_s, layers, probe_s, timed = [], [], [], [], []
        for k, traced in _schedule(seconds, trace, timed):
            gc.collect()
            tr = Tracer()
            t0 = _now()
            try:
                with tr.active(runner.install if traced else None):
                    t0 = _now()
                    res = runner.enumerate(k)
                    dt = _now() - t0
            except Exception:
                timed.append(_now() - t0)
                checker.error(f"sample {k}")
                continue
            timed.append(dt)
            stats = runner.check(f"sample {k}", res)
            del res
            probe_s.append(host_probe())
            if traced:
                traced_s.append(dt)
                layers.append(runner.layers(k, tr, stats))
            else:
                mce_s.append(dt)
    finally:
        runner.close()
    out = {
        "mce_s": statistics.median(mce_s),
        "setup_s": statistics.median(setup_s),
        "samples_s": mce_s,
        "traced_samples_s": traced_s,
        "setup_reps_s": setup_s,
        "host_probe_s": probe_s,
    }
    if trace:
        lay = _median_metrics(layers)
        lay["host.probe_s"] = statistics.median(probe_s)
        lay.update({k: statistics.median(v) for k, v in runner.setup_parts.items()})
        lay["trace.mce_s"] = statistics.median(traced_s)
        lay["trace.overhead_s"] = lay["trace.mce_s"] - out["mce_s"]
        out["layers"] = lay
    return out


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop that shares no code with the
    program: a record of how fast the host ran beside each sample."""
    t0 = _now()
    acc = 0
    for i in range(500_000):
        acc += i * i
    return _now() - t0


def _schedule(seconds: float, trace: bool, timed: list[float]):
    """Sample indices and whether each is traced: keep starting samples until
    the enumerations timed so far (``timed``) add up to ``seconds``, at least
    one of each kind."""
    k = 0
    while k < (2 if trace else 1) or sum(timed) < seconds:
        yield k, trace and k % 2 == 1
        k += 1


# -- Spark session ------------------------------------------------------------


def _spark_env(run_dir: Path) -> dict[str, str]:
    """Launcher environment for the driver JVM and its Python workers. The
    workers import ``repro`` from ``src``, so it goes on their PYTHONPATH;
    every scratch write goes under ``run_dir``."""
    tmp = run_dir / "tmp"
    local = run_dir / "local"
    for d in (tmp, local, run_dir / "events"):
        d.mkdir(parents=True, exist_ok=True)
    mem = os.environ.get("SPARK_DRIVER_MEM", "2g")
    path = os.environ.get("PYTHONPATH")
    # For the spark-submit launcher JVM and the driver JVM: no perf-data
    # file in /tmp, temp files under run_dir.
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    return {
        "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
        "PYSPARK_PYTHON": sys.executable,
        "SPARK_LOCAL_DIRS": str(local),
        "SPARK_LAUNCHER_OPTS": java_opts,
        "PYSPARK_SUBMIT_ARGS": (
            f"--master local[{nproc()}] --driver-memory {mem} "
            f"--driver-java-options '{java_opts}' "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "pyspark-shell"
        ),
    }


def _spark_session(run_dir: Path):
    from pyspark.sql import SparkSession

    # The test suite's session settings (conftest.py), plus the event log.
    s = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.eventLog.enabled", "true")
        .config("spark.eventLog.dir", (run_dir / "events").as_uri())
        # The default codec is zstd; its Python module is not installed.
        .config("spark.eventLog.compress", "false")
        .config("spark.sql.warehouse.dir", (run_dir / "warehouse").as_uri())
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


_SPARK_CONF_KEYS = [
    "spark.master",
    "spark.driver.memory",
    "spark.sql.shuffle.partitions",
    "spark.sql.execution.arrow.pyspark.enabled",
    "spark.sql.autoBroadcastJoinThreshold",
    "spark.sql.adaptive.enabled",
    "spark.sql.adaptive.coalescePartitions.enabled",
    "spark.eventLog.enabled",
    "spark.eventLog.compress",
]


def _stop_spark(spark) -> None:
    """Stop the session, then the driver JVM, and wait for it to exit."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    gw.shutdown()
    proc = getattr(gw, "proc", None)
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=120)
    SparkContext._gateway = None
    SparkContext._jvm = None


# -- command line -------------------------------------------------------------


def _git_commit() -> str | None:
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def run_workload(args) -> int:
    from importlib.metadata import version

    from perfbench.oracle import run_reference
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    run_dir = WORK / f"run-{os.getpid()}"
    prov = {
        "workload": wl.name,
        "algorithm": wl.algorithm,
        "graphs": list(wl.graphs),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "spark": version("pyspark"),
        "networkx": version("networkx"),
        "git_commit": _git_commit(),
    }
    ref = run_reference(wl.name, args.seed)
    checker = Checker(ref["digests"])
    try:
        if wl.spark:
            runner = SparkRun(wl, args.seed, checker, run_dir, ref["local_stats"])
        else:
            runner = LocalRun(wl, args.seed, checker)
        out = measure(runner, args.seconds, bool(args.trace), checker)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    prov.update(runner.prov)
    prov.update({k: out[k] for k in ("samples_s", "traced_samples_s", "setup_reps_s",
                                     "host_probe_s")})
    prov["oracle"] = {g: list(d) for g, d in ref["digests"].items()}
    print(json.dumps({"provenance": prov}))

    if args.trace:
        values = {k: out["layers"].get(k, 0.0) for k in PER_LAYER}
        units = PER_LAYER
    else:
        values = {"mce_s": out["mce_s"], "setup_s": out["setup_s"], "peak_rss_mb": peak_mb}
        units = END_TO_END
    for k, v in values.items():
        print(f"{wl.name}  {k} = {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, so peak RSS is per workload
    and one workload's heap does not slow the next."""
    from perfbench.workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(p.stdout)
        if p.returncode != 0:
            print(f"perfbench: workload {name} exited with {p.returncode}", file=sys.stderr)
            return p.returncode
        res = json.loads(p.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload; omit to run them all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: {SRC / 'repro'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    # Scratch files (tempfile, the JVM, Spark) stay inside the checkout.
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    if args.workload is None:
        return run_all(args)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
