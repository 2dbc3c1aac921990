"""bench/pairs.py on canned perfbench output; no perfbench run happens here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def canned_stdout(wall_s, raw_wall_s, rss=150.0, probes=None):
    report = {"env": {"seed": 1}, "report": {"wall_s": wall_s, "raw_wall_s": raw_wall_s,
                                             "raw_setup_s": 0.3, "passes": 48}}
    if probes is not None:
        report["probe_medians"] = probes
    result = {"correct": True, "attempted": 576, "failed": 0,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    table = f"fit-sweep       wall_s {wall_s:>14.6g} s"
    return "\n".join([table, json.dumps(report), json.dumps(result)]) + "\n"


def test_a_run_keeps_its_result_metrics_and_the_raw_timings():
    run = pairs.parse_run(canned_stdout(0.21, 0.30))
    assert pairs.run_metrics(run) == {"wall_s": 0.21, "peak_rss_mb": 150.0,
                                      "raw_wall_s": 0.30, "raw_setup_s": 0.3}


def test_a_truncated_run_is_refused():
    with pytest.raises(ValueError):
        pairs.parse_run('{"correct": true}\n')


def test_quartiles_are_inclusive():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                                          "n": 5}
    assert pairs.quartiles([2.0, 1.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75, "n": 2}
    assert pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


PARENT = [0.28, 0.27, 0.29, 0.28, 0.30, 0.28, 0.27, 0.29, 0.28, 0.28]


def test_nine_wins_of_ten_beyond_the_parent_iqr_make_a_claim():
    change = [0.21] * 9 + [0.31]
    v = pairs.verdict(PARENT, change, "lower")
    assert (v["change_better"], v["change_worse"], v["ties"]) == (9, 1, 0)
    assert (v["parent"]["q1"], v["parent"]["q3"]) == pytest.approx((0.28, 0.2875))
    assert v["median_ratio"] == pytest.approx(0.21 / 0.28)
    assert v["claim_holds"]


def test_eight_wins_or_a_gap_inside_the_parent_iqr_make_none():
    assert not pairs.verdict(PARENT, [0.21] * 8 + [0.31] * 2, "lower")["claim_holds"]
    # ten wins, but the medians differ by less than the parent's IQR of 0.0075
    assert not pairs.verdict(PARENT, [p - 0.005 for p in PARENT], "lower")["claim_holds"]
    # ties count for neither side
    v = pairs.verdict(PARENT, PARENT, "lower")
    assert (v["change_better"], v["ties"], v["claim_holds"]) == (0, 10, False)


def test_higher_is_better_turns_the_rule_around():
    up = [2.0 * p for p in PARENT]
    assert pairs.verdict(PARENT, up, "higher")["claim_holds"]
    assert not pairs.verdict(PARENT, up, "lower")["claim_holds"]


def test_summary_over_pairs_of_canned_runs():
    runs = [{"parent": pairs.run_metrics(pairs.parse_run(canned_stdout(p, p + 0.1))),
             "change": pairs.run_metrics(pairs.parse_run(canned_stdout(0.21, 0.31)))}
            for p in PARENT]
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower"},
                           {"name": "peak_rss_mb", "better": "lower"}], "per_layer": []}
    summary = pairs.summarize(runs, pairs.directions(spec), pairs.bounds(spec))
    assert sorted(summary) == ["peak_rss_mb", "raw_setup_s", "raw_wall_s", "wall_s"]
    assert summary["wall_s"]["claim_holds"] and summary["raw_wall_s"]["claim_holds"]
    assert summary["peak_rss_mb"]["ties"] == 10 and not summary["peak_rss_mb"]["claim_holds"]
    assert summary["wall_s"]["change"] == {"median": 0.21, "q1": 0.21, "q3": 0.21, "n": 10}


def test_probe_medians_reach_the_pair_record_and_the_summary_without_a_verdict():
    run = pairs.parse_run(canned_stdout(0.21, 0.30, probes=[0.0064, 0.0031, 0.0035]))
    assert pairs.run_metrics(run)["probe_median_s"] == 0.0035
    # the probe at two speeds: the scaled wall_s halves while raw_wall_s holds
    runs = [{"parent": pairs.run_metrics(pairs.parse_run(canned_stdout(p, 0.3, probes=[0.0033]))),
             "change": pairs.run_metrics(pairs.parse_run(canned_stdout(p / 2, 0.3,
                                                                       probes=[0.0066])))}
            for p in PARENT]
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower"}], "per_layer": []}
    summary = pairs.summarize(runs, pairs.directions(spec), pairs.bounds(spec))
    assert summary["probe_median_s"] == {
        "parent": {"median": 0.0033, "q1": 0.0033, "q3": 0.0033, "n": 10},
        "change": {"median": 0.0066, "q1": 0.0066, "q3": 0.0066, "n": 10},
    }
    assert summary["wall_s"]["claim_holds"] and not summary["raw_wall_s"]["claim_holds"]


def test_seed_ranges():
    assert pairs.parse_seeds("401-405") == [401, 402, 403, 404, 405]
    assert pairs.parse_seeds("1,2,5") == [1, 2, 5]


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    # the parent's median is 0.28 and its IQR 0.0075, inside a bound of 0.25 * 0.28
    assert pairs.verdict(PARENT, [0.36] * 10, "lower", 0.25)["regression"] == "regressed"
    assert pairs.verdict(PARENT, [0.34] * 10, "lower", 0.25)["regression"] == "none"
    assert pairs.verdict(PARENT, [0.20] * 10, "higher", 0.25)["regression"] == "regressed"
    assert "regression" not in pairs.verdict(PARENT, [0.36] * 10, "lower")


def test_a_parent_iqr_wider_than_the_bound_leaves_the_verdict_unresolved():
    # IQR 0.0075 against a bound of 0.01 * 0.28 = 0.0028
    assert pairs.verdict(PARENT, PARENT, "lower", 0.01)["regression"] == "unresolved"
    # unless every change run beats every parent run
    assert pairs.verdict(PARENT, [0.26] * 10, "lower", 0.01)["regression"] == "none"
    assert pairs.verdict(PARENT, [0.31] * 10, "higher", 0.01)["regression"] == "none"
    # a median past the bound is a regression however wide the parent's runs
    assert pairs.verdict(PARENT, [0.40] * 10, "lower", 0.01)["regression"] == "regressed"


def test_end_to_end_metrics_and_raw_timings_carry_the_regression_verdict():
    runs = [{"parent": pairs.run_metrics(pairs.parse_run(canned_stdout(p, p + 0.1))),
             "change": pairs.run_metrics(pairs.parse_run(canned_stdout(0.36, 0.50, rss=150.1)))}
            for p in PARENT]
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "estimator.fit.s", "better": "lower"}]}
    assert pairs.bounds(spec) == {"wall_s": 0.25, "peak_rss_mb": 0.1, "raw_wall_s": 0.25}
    summary = pairs.summarize(runs, pairs.directions(spec), pairs.bounds(spec))
    assert summary["wall_s"]["regression"] == "regressed"
    assert summary["raw_wall_s"]["regression"] == "regressed"  # 0.50 against 0.38
    assert summary["peak_rss_mb"]["regression"] == "none"
    assert "regression" not in summary["raw_setup_s"]


def test_main_prints_the_regression_verdict(capsys, tmp_path, monkeypatch):
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
            "per_layer": []}
    for side in pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    walls = {"parent": 0.28, "change": 0.40}
    monkeypatch.setattr(pairs, "perfbench", lambda checkout, workload, seed, trace: pairs.parse_run(
        canned_stdout(walls[checkout.name], walls[checkout.name] + 0.1,
                      probes=[walls[checkout.name] / 100])))
    code = pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                       "--workload", "fit-sweep", "--seeds", "1-3", "--out",
                       str(tmp_path / "pairs.json")])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    wall = [line for line in lines if " wall_s " in line]
    assert len(wall) == 1 and wall[0].endswith("claim False regression regressed")
    assert [line.split()[2:] for line in lines if "probe_median_s" in line] == [
        ["probe_median_s", "parent", "0.0028", "change", "0.004"]]
    out = json.loads((tmp_path / "pairs.json").read_text())
    assert out["summary"]["fit-sweep"]["trace0"]["raw_wall_s"]["regression"] == "regressed"


def test_checkouts_whose_paths_differ_in_length_are_refused_before_any_run(tmp_path,
                                                                           monkeypatch):
    for side in ("parent", "changed"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text('{"end_to_end": [], "per_layer": []}')

    def no_run(*args):
        raise AssertionError("a perfbench run started")

    monkeypatch.setattr(pairs, "perfbench", no_run)
    with pytest.raises(SystemExit, match="differ in length"):
        pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "changed"),
                    "--workload", "fit-sweep", "--seeds", "1", "--out", str(tmp_path / "p.json")])
    assert not (tmp_path / "p.json").exists()


def test_a_run_that_exits_non_zero_is_recorded_and_its_pair_left_out(tmp_path, monkeypatch,
                                                                     capsys):
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
            "per_layer": []}
    for side in pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec))
    stderr = "\n".join(f"line {i}" for i in range(30)) + "\n"

    def run(argv, cwd, **kwargs):
        seed = int(argv[argv.index("--seed") + 1])
        if cwd.name == "change" and seed == 2:
            return subprocess.CompletedProcess(argv, 3, stdout="", stderr=stderr)
        return subprocess.CompletedProcess(argv, 0, stdout=canned_stdout(0.2 + seed, 0.3),
                                           stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", run)
    out = tmp_path / "pairs.json"
    code = pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                       "--workload", "fit-sweep", "--seeds", "1-3", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out.splitlines()[-1] == "runs 6, exited non-zero 1, not correct 0"
    doc = json.loads(out.read_text())
    assert [(r["seed"], r["side"], r["exit_code"]) for r in doc["runs"]] == [
        (1, "change", 0), (1, "parent", 0), (2, "parent", 0), (2, "change", 3),
        (3, "change", 0), (3, "parent", 0)]
    failed = doc["runs"][3]
    assert failed["stderr_tail"] == "\n".join(f"line {i}" for i in range(10, 30))
    assert "correct" not in failed and "stdout_tail" not in failed
    wall = doc["summary"]["fit-sweep"]["trace0"]["wall_s"]
    assert wall["parent"]["n"] == 2 and wall["parent"]["median"] == pytest.approx(2.2)
