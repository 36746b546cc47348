"""Kernel-stage task metrics from a Spark event log (uncompressed JSON lines).

Each traced ``mce_distributed`` call runs under its own job group. The
kernel stage of a call is the stage of that group's jobs that ran Python
workers (it carries the "time to run Python workers" metric), i.e. the
``applyInPandas`` stage that runs the root branches.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

_PYTHON_METRIC = "time to run Python workers"


def _events(app_dir: Path):
    # Rolling logs are split into events_<n>_<app> files; order by n.
    files = [app_dir] if app_dir.is_file() else sorted(
        app_dir.glob("events_*"), key=lambda p: int(p.name.split("_")[1])
    )
    for f in files:
        with open(f) as fh:
            for line in fh:
                yield json.loads(line)


def _app_kernel_metrics(app_dir: Path) -> dict[str, dict[str, float]]:
    stage_group: dict[int, str] = {}
    python_stages: dict[int, float] = {}  # stage id -> stage wall seconds
    task_s: dict[int, list[float]] = {}
    for ev in _events(app_dir):
        kind = ev["Event"]
        if kind == "SparkListenerJobStart":
            group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
            if group:
                for sid in ev["Stage IDs"]:
                    stage_group[sid] = group
        elif kind == "SparkListenerTaskEnd":
            info = ev["Task Info"]
            if not info.get("Failed") and not info.get("Killed"):
                dt = (info["Finish Time"] - info["Launch Time"]) / 1000.0
                task_s.setdefault(ev["Stage ID"], []).append(dt)
        elif kind == "SparkListenerStageCompleted":
            si = ev["Stage Info"]
            if any(a.get("Name") == _PYTHON_METRIC for a in si.get("Accumulables", [])):
                wall = (si["Completion Time"] - si["Submission Time"]) / 1000.0
                python_stages[si["Stage ID"]] = wall
    by_group: dict[str, tuple[list[float], float]] = {}
    for sid, wall in python_stages.items():
        group = stage_group.get(sid)
        if group is None:
            continue
        tasks, total_wall = by_group.get(group, ([], 0.0))
        by_group[group] = (tasks + task_s.get(sid, []), total_wall + wall)
    out = {}
    for group, (tasks, wall) in by_group.items():
        med = statistics.median(tasks)
        out[group] = {
            "dist.kernel_tasks": len(tasks),
            "dist.task_max_s": max(tasks),
            "dist.task_median_s": med,
            "dist.task_skew": max(tasks) / med if med else 0.0,
            "dist.task_sum_s": sum(tasks),
            "dist.kernel_stage_s": wall,
            "dist.parallelism": sum(tasks) / wall if wall else 0.0,
        }
    return out


def kernel_metrics(log_dir: Path) -> dict[str, dict[str, float]]:
    """Job group -> kernel-stage task metrics, over every application that
    logged into ``log_dir``."""
    out: dict[str, dict[str, float]] = {}
    for app in sorted(log_dir.iterdir()):
        out.update(_app_kernel_metrics(app))
    return out
