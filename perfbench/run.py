"""nsim benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload predict-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run warms up, builds the workload's inputs from the seed several
times (the median is ``setup_s``), runs timed passes of its body for
``--seconds`` (the median is ``wall_s``), checks the outputs, and prints as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Both times are scaled by the workload's speed probe (see
``workloads``); the raw medians are printed beside them.  With ``--trace 0``
the metrics are the end-to-end ones listed in BENCHMARK.json; with
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones, each the value for one set-up plus one timed pass.
``--workload all`` runs every workload in its own process, untraced once
and traced twice, and prints a table of every metric.

The benchmark changes no machine setting: the page cache is not dropped,
the process is not pinned to a CPU, and other tenants may share the
machine.  These are recorded with every result as not controlled.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 25, 1.0
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 3
WARM_UP_S = 0.5
NOT_CONTROLLED = (
    "page cache (never dropped), CPU placement (no pinning), other tenants "
    "sharing the machine; no machine setting is changed"
)


def _import_nsim(root: Path) -> None:
    """Import nsim from the checkout's own source tree, never another copy."""
    src = root / "src"
    if not (src / "nsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nsim source under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import nsim

    if Path(nsim.__file__).resolve().parent != (src / "nsim").resolve():
        raise SystemExit(f"perfbench: imported nsim from {nsim.__file__}, not from {src}")


def _blas_record() -> dict:
    import ctypes

    import numpy as np

    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads64_"):
                if hasattr(handle, symbol):
                    getter = getattr(handle, symbol)
                    getter.restype = ctypes.c_int
                    record["threads"] = getter()
    except OSError:
        pass  # the thread count stays unrecorded
    return record


def environment(workload, seed: int) -> dict:
    import platform

    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_record(),
        "seed": seed,
        "derived_seeds": workload.seeds,
        "workload": workload.name,
        "params": workload.params(),
        "not_controlled": NOT_CONTROLLED,
    }


def _median_totals(totals_list: list[dict]) -> dict:
    names = {name for totals in totals_list for name in totals}
    out = {}
    for name in names:
        stats = {stat for totals in totals_list for stat in totals.get(name, {})}
        out[name] = {
            stat: statistics.median(t.get(name, {}).get(stat, 0) for t in totals_list)
            for stat in stats
        }
    return out


def _count_mismatches(totals_list: list[dict], what: str) -> list[str]:
    import layers

    first = totals_list[0]
    problems = []
    for totals in totals_list[1:]:
        for name in set(first) | set(totals):
            a, b = first.get(name, {}), totals.get(name, {})
            for stat in set(a) | set(b):
                if layers.is_count(stat) and a.get(stat, 0) != b.get(stat, 0):
                    problems.append(f"{name}.{stat} differs between {what}")
    return problems


def _traced(targets, call):
    import spans

    recorder = spans.Recorder()
    with spans.installed(recorder, targets):
        result = call()
    recorder.finish()
    return result, spans.aggregate(recorder.spans)


def measure(workload, seconds: float, trace: bool):
    """Set up, run timed passes, verify; return the run's raw results."""
    import layers

    targets = layers.targets() if trace else None
    warm_until = time.perf_counter() + WARM_UP_S
    while time.perf_counter() < warm_until:
        workload.timed_probe()

    setup_times, setup_scaled, setup_totals = [], [], []
    while len(setup_times) < MIN_SETUPS or (
        sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS
    ):
        start = time.perf_counter()
        if trace:
            _, totals = _traced(targets, workload.setup)
            setup_totals.append(totals)
        else:
            workload.setup()
        setup_times.append(time.perf_counter() - start)
        probes = [workload.timed_probe() for _ in range(SETUP_PROBES)]
        setup_scaled.append(workload.scaled(setup_times[-1], probes))

    plain, traced, pass_totals = [], [], []
    start = time.perf_counter()
    while True:
        if trace and len(plain) > len(traced):
            result, totals = _traced(targets, workload.run_pass)
            traced.append(result)
            pass_totals.append(totals)
        else:
            plain.append(workload.run_pass())
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.seconds + sum(p.probe_seconds) for p in plain + traced)
        done = (len(traced) >= MIN_TRACED_PASSES) if trace else (len(plain) >= MIN_PASSES)
        if done and elapsed + typical > seconds:
            break

    # before the checks, whose own arrays are no part of the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle_failures = workload.verify()
    runs = plain + traced
    attempted = sum(len(p.errors) for p in runs)
    failed = sum(
        1 for p in runs for i, err in enumerate(p.errors) if err is not None or i in oracle_failures
    )
    problems = [err for p in runs for err in p.errors if err is not None]
    problems += list(oracle_failures.values())
    if trace:
        problems += _count_mismatches(setup_totals, "set-ups")
        problems += _count_mismatches(pass_totals, "traced passes")
    for p in plain + traced:
        p.scaled = workload.scaled(p.seconds, p.probe_seconds)
    return {
        "setup_times": setup_times,
        "setup_scaled": setup_scaled,
        "peak_rss_mb": peak_rss_mb,
        "plain": plain,
        "traced": traced,
        "setup_totals": setup_totals,
        "pass_totals": pass_totals,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def end_to_end(workload, raw) -> dict:
    raw_wall_s = statistics.median(p.seconds for p in raw["plain"])
    values = {
        "wall_s": (statistics.median(p.scaled for p in raw["plain"]), "s"),
        "setup_s": (statistics.median(raw["setup_scaled"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "rmse_f": (workload.rmse_f(), "fraction"),
        "error_rate": (raw["failed"] / raw["attempted"], "fraction"),
        "raw_wall_s": (raw_wall_s, "s"),
        "raw_setup_s": (statistics.median(raw["setup_times"]), "s"),
        "passes": (len(raw["plain"]), "count"),
    }
    values.update(workload.extra_metrics(raw["plain"], raw_wall_s))
    return values


def per_layer(raw, names) -> dict:
    import layers

    totals = {}
    setup = _median_totals(raw["setup_totals"])
    passes = _median_totals(raw["pass_totals"])
    for name in set(setup) | set(passes):
        stats = set(setup.get(name, {})) | set(passes.get(name, {}))
        totals[name] = {
            stat: setup.get(name, {}).get(stat, 0) + passes.get(name, {}).get(stat, 0)
            for stat in stats
        }
    values = {name: layers.metric_value(totals, name) for name in names}
    traced = statistics.median(p.scaled for p in raw["traced"])
    untraced = statistics.median(p.scaled for p in raw["plain"])
    values["perfbench.tracing.overhead_s"] = traced - untraced
    return values


def run_one(args, spec: dict, root: Path) -> int:
    _import_nsim(root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    workdir = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        raw = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layer_values = per_layer(raw, list(units))
        shown = {name: (value, units[name]) for name, value in layer_values.items()}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layer_values.items()}
    else:
        shown = end_to_end(workload, raw)
        metrics = {
            m["name"]: {"value": shown[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]
        }
    for name, (value, unit) in shown.items():
        print(f"{args.workload:15s} {name:45s} {value:>14.6g} {unit}")
    for problem in raw["problems"][:20]:
        print(f"{args.workload:15s} FAILED: {problem}")
    print(json.dumps({"env": environment(workload, args.seed),
                      "report": {k: v[0] for k, v in shown.items()},
                      "units": {k: v[1] for k, v in shown.items()},
                      "pass_seconds": [p.seconds for p in raw["plain"]],
                      "scaled_pass_seconds": [p.scaled for p in raw["plain"]],
                      "probe_medians": [statistics.median(p.probe_seconds) for p in raw["plain"]],
                      "traced_pass_seconds": [p.seconds for p in raw["traced"]],
                      "setup_seconds": raw["setup_times"]}))
    print(json.dumps({
        "correct": not raw["problems"] and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


def _child(args, workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench: {' '.join(argv[1:])} failed:\n{proc.stderr}")
    record = json.loads(lines[-2])
    return {"result": json.loads(lines[-1]), "report": record["report"], "units": record["units"]}


def run_all(args, spec: dict) -> int:
    """Every workload in a process of its own, so ``peak_rss_mb`` is its own."""
    import layers

    correct = True
    for workload in [w["name"] for w in spec["workloads"]]:
        plain = _child(args, workload, 0)
        traced = [_child(args, workload, 1) for _ in range(2)]
        rows = {**plain["report"], **traced[0]["report"]}
        units = {**plain["units"], **traced[0]["units"]}
        repeats = all(
            traced[0]["report"][name] == traced[1]["report"][name]
            for name in traced[0]["report"]
            if layers.is_count(name.rsplit(".", 1)[1])
        )
        for name, value in rows.items():
            print(f"{workload:15s} {name:45s} {value:>14.6g} {units[name]}")
        print(f"{workload:15s} {'counts repeat between traced runs':45s} {str(repeats):>14s}")
        correct &= repeats and all(r["result"]["correct"] for r in [plain] + traced)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit("perfbench: BENCHMARK.json not found; run from the root of a checkout")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        _import_nsim(root)  # fail before starting any child
        return run_all(args, spec)
    return run_one(args, spec, root)


if __name__ == "__main__":
    sys.exit(main())
