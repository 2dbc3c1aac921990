"""Alternating parent/change runs of the perfbench workloads, summarised
with the rule a performance claim must meet.

    python3 bench/pairs.py --parent ../p7 --change ../c7 --workload fit-sweep \\
        --seeds 401-410 --trace 0 --out pairs.json

Both checkouts must hold ``perfbench/`` and ``BENCHMARK.json``, and their
resolved paths must have the same length (sibling directories whose names
have the same length), since the length of the checkout path shows in
fit-sweep's ``peak_rss_mb``; the script exits before any run otherwise.
For every workload, seed and trace mode (in that nesting) the script runs
``python3 perfbench/run.py --workload W --seed S --trace T`` once in each
checkout, one process at a time, the parent first when seed + trace is
even.  It keeps the last two stdout lines of each run
(the report and the result line) and writes, per workload and trace mode,
the median, q1 and q3 (``statistics.quantiles``, n = 4, inclusive) of every
metric of the result line, with ``raw_wall_s`` and ``raw_setup_s`` from the
report beside them, and the claim verdict of every metric.  Each run's
median probe time (the median of the report's ``probe_medians``) goes in as
``probe_median_s`` with its quartiles and no verdict: a timing scaled by the
probe can move with the probe's speed alone.  A run that exits non-zero is
recorded with its exit code and the tail of its stderr, its pair is left
out of the summary, the remaining runs go on, and the script still writes
``--out`` and then exits 1.

A claim holds when the change is better in at least nine tenths of the
pairs (ties count for neither side) and the medians differ, in the change's
favour, by more than the parent's interquartile range.

Each end-to-end metric also gets a no-regression verdict against its
``bound`` in BENCHMARK.json, a fraction of the parent's median (the raw
timings take the bound of their scaled metric): ``regressed`` when the
change's median is worse than the parent's by more than the bound,
``unresolved`` when the parent's interquartile range is wider than the
bound, unless every change run beats every parent run, and ``none``
otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RAW = ("raw_wall_s", "raw_setup_s")  # scaled only in the report; lower is better
SCALED = {"raw_wall_s": "wall_s", "raw_setup_s": "setup_s"}
PROBE = "probe_median_s"  # no nsim code runs in the probe, so it gets no verdict
SIDES = ("parent", "change")
STDERR_LINES = 20  # kept of a failed run's stderr


def parse_run(stdout: str) -> dict:
    """The report and result lines (the last two) of one perfbench run."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError("a perfbench run prints its report and result as its last two lines")
    return {"report": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def run_metrics(run: dict) -> dict:
    """Every metric of the result line plus the raw timings and the median
    probe time of the report."""
    values = {name: m["value"] for name, m in run["result"]["metrics"].items()}
    report = run["report"]["report"]
    values.update({name: report[name] for name in RAW if name in report})
    if run["report"].get("probe_medians"):
        values[PROBE] = statistics.median(run["report"]["probe_medians"])
    return values


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def regression(parent, change, better: str, bound: float) -> str:
    """'regressed', 'unresolved' or 'none' for one end-to-end metric whose
    ``bound`` is a fraction of the parent's median."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent), quartiles(change)
    allowed = bound * abs(p["median"])
    if sign * (c["median"] - p["median"]) > allowed:
        return "regressed"
    beats_all = max(sign * value for value in change) < min(sign * value for value in parent)
    if p["q3"] - p["q1"] > allowed and not beats_all:
        return "unresolved"
    return "none"


def verdict(parent, change, better: str, bound: float | None = None) -> dict:
    """Pairs won, lost and tied by the change, whether that makes a claim,
    and, given a ``bound``, the no-regression verdict."""
    sign = 1.0 if better == "lower" else -1.0
    gaps = [sign * (p - c) for p, c in zip(parent, change)]
    wins, losses = sum(g > 0 for g in gaps), sum(g < 0 for g in gaps)
    p, c = quartiles(parent), quartiles(change)
    iqr = p["q3"] - p["q1"]
    gain = sign * (p["median"] - c["median"])
    out = {
        "parent": p,
        "change": c,
        "change_better": wins,
        "change_worse": losses,
        "ties": len(gaps) - wins - losses,
        "median_ratio": c["median"] / p["median"] if p["median"] else None,
        "median_gain_over_parent_iqr": gain / iqr if iqr else None,
        "claim_holds": wins >= 0.9 * len(gaps) and gain > iqr,
    }
    if bound is not None:
        out["regression"] = regression(parent, change, better, bound)
    return out


def summarize(pairs: list, directions: dict, bounds: dict) -> dict:
    """Per metric, the verdict over ``pairs`` of {side: metrics}, with the
    no-regression verdict where ``bounds`` has the metric, and the quartiles
    of each side's probe times; metrics that some run lacks or whose
    direction is unknown are left out."""
    names = set.intersection(*(set(pair[side]) for pair in pairs for side in SIDES))
    out = {
        name: verdict([pair["parent"][name] for pair in pairs],
                      [pair["change"][name] for pair in pairs], directions[name],
                      bounds.get(name))
        for name in sorted(names)
        if name in directions
    }
    if PROBE in names:
        out[PROBE] = {side: quartiles([pair[side][PROBE] for pair in pairs]) for side in SIDES}
    return out


def directions(spec: dict) -> dict:
    """'lower' or 'higher' for every metric BENCHMARK.json declares."""
    out = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    out.update({name: "lower" for name in RAW})
    return out


def bounds(spec: dict) -> dict:
    """The bound of every end-to-end metric that declares one, and of each
    raw timing the bound of its scaled metric."""
    out = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    out.update({raw: out[name] for raw, name in SCALED.items() if name in out})
    return out


def parse_seeds(text: str) -> list:
    """'401-410' or '1,2,5'."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def perfbench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The parsed run, or for a run that exits non-zero its ``exit_code``
    and the last ``STDERR_LINES`` lines of its stderr."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=600,
                          check=False)
    if proc.returncode != 0:
        return {"exit_code": proc.returncode,
                "stderr_tail": "\n".join(proc.stderr.splitlines()[-STDERR_LINES:])}
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="'401-410' or '1,2,5'")
    parser.add_argument("--trace", default="0", help="'0', '1' or '0,1'")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        raise SystemExit(f"pairs: the checkout paths {checkouts['parent']} and "
                         f"{checkouts['change']} differ in length; fit-sweep's peak_rss_mb "
                         "would show it")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better, bound = directions(spec), bounds(spec)

    runs, workloads = [], {}
    for workload in args.workload.split(","):
        for seed in parse_seeds(args.seeds):
            for trace in map(int, args.trace.split(",")):
                order = SIDES if (seed + trace) % 2 == 0 else SIDES[::-1]
                pair = {}
                for side in order:
                    run = perfbench(checkouts[side], workload, seed, trace)
                    record = {"workload": workload, "seed": seed, "trace": trace, "side": side,
                              "went_first": side == order[0]}
                    if "exit_code" in run:
                        runs.append({**record, **run})
                        continue
                    pair[side] = run_metrics(run)
                    runs.append({**record, "exit_code": 0, "correct": run["result"]["correct"],
                                 "failed": run["result"]["failed"], "stdout_tail": run})
                if len(pair) == len(SIDES):
                    workloads.setdefault(workload, {}).setdefault(f"trace{trace}", []).append(pair)

    summary = {w: {t: summarize(pairs, better, bound) for t, pairs in modes.items()}
               for w, modes in workloads.items()}
    args.out.write_text(json.dumps({
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --trace <trace>",
        "checkouts": {side: path.name for side, path in checkouts.items()},
        "seeds": parse_seeds(args.seeds),
        "order": "per workload, seed, then trace mode; the parent first when seed + trace is even",
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n", encoding="utf-8")
    for workload, modes in summary.items():
        for mode, metrics in modes.items():
            for name in [m["name"] for m in spec["end_to_end"]] + list(RAW):
                if name in metrics:
                    v = metrics[name]
                    print(f"{workload:15s} {mode} {name:12s} parent {v['parent']['median']:.6g} "
                          f"change {v['change']['median']:.6g} better {v['change_better']}/"
                          f"{v['parent']['n']} claim {v['claim_holds']} "
                          f"regression {v.get('regression')}")
            if PROBE in metrics:
                print(f"{workload:15s} {mode} {PROBE} parent {metrics[PROBE]['parent']['median']:.6g}"
                      f" change {metrics[PROBE]['change']['median']:.6g}")
    crashed = sum(r["exit_code"] != 0 for r in runs)
    wrong = sum(not r["correct"] for r in runs if r["exit_code"] == 0)
    print(f"runs {len(runs)}, exited non-zero {crashed}, not correct {wrong}")
    return 1 if crashed or wrong else 0


if __name__ == "__main__":
    sys.exit(main())
