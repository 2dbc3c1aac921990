import csv
import functools
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nsim
from nsim import cli
from nsim import io as nsim_io
from nsim.cli import main
from nsim.data import Dataset
from nsim.errors import DataError
from nsim.io import (
    format_float,
    read_dataset_csv,
    read_feature_csv,
    write_dataset_csv,
    write_json,
    write_matrix_csv,
    write_predictions_csv,
)


def run_cli(*args, env=None, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.delenv("NSIM_SEED", raising=False)
        for key, value in (env or {}).items():
            monkeypatch.setenv(key, value)
    return main([str(a) for a in args])


def run_module(*args):
    """``python -m nsim.cli`` in a fresh interpreter that imports this nsim."""
    src = Path(nsim.__file__).resolve().parent.parent
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "nsim.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["fit", "predict", "cv", "synth", "benchmark", "gram"])
def test_help_exits_cleanly(command):
    proc = run_module(command, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: nsim " + command in proc.stdout
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "command",
    [
        ["synth", "--curve", "line", "--ambient-dim", 4, "--n", 50, "--noise-factor"],
        ["synth", "--curve", "line", "--ambient-dim", 4, "--n", 50, "--tube-radius"],
        ["benchmark", "--curve", "line", "--d-values", 4, "--n-grid", 64, "--noise-factors"],
    ],
    ids=["synth-noise-factor", "synth-tube-radius", "benchmark-noise-factors"],
)
def test_bad_numeric_flag_is_a_usage_error(tmp_path, command, value):
    out = ["--out", tmp_path / "d.csv", "--truth-out", tmp_path / "t.json"]
    if command[0] == "benchmark":
        out = ["--out-json", tmp_path / "b.json"]
    assert_one_usage_error(run_module(*command, value, "--seed", 1, *out))


def test_tube_radius_past_the_row_norm_bound_is_a_usage_error(tmp_path):
    assert_one_usage_error(
        run_module(
            "synth", "--curve", "line", "--ambient-dim", 4, "--n", 50, "--tube-radius", "1e300",
            "--seed", 1, "--out", tmp_path / "d.csv", "--truth-out", tmp_path / "t.json",
        )
    )


def assert_one_usage_error(proc):
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [proc.stderr.strip()], proc.stderr
    assert proc.stderr.startswith("nsim: error [usage]")
    assert "Traceback" not in proc.stderr


class TestIngest:
    def test_two_column_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "x,y\n1,2\n3,4\n")
        dataset, names, dropped = read_dataset_csv(path)
        assert (dataset.n, dataset.d) == (2, 1)
        assert names == ["x"] and dropped == []
        assert np.array_equal(dataset.features, [[1.0], [3.0]])
        assert np.array_equal(dataset.responses, [2.0, 4.0])

    def test_standardize_zero_mean_unit_std(self, tmp_path):
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(5, 3, size=(40, 3)), rng.normal(size=40))
        write_dataset_csv(tmp_path / "d.csv", data)
        standardized, _, dropped = read_dataset_csv(tmp_path / "d.csv", standardize=True)
        assert dropped == []
        assert np.allclose(standardized.features.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(standardized.features.std(axis=0), 1.0, atol=1e-9)

    def test_standardize_drops_constant_columns(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,y\n1,7,0\n2,7,1\n3,7,2\n")
        dataset, names, dropped = read_dataset_csv(path, standardize=True)
        assert names == ["a"] and dropped == ["b"]
        assert dataset.d == 1

    @pytest.mark.parametrize(
        "column, want",
        [("0,1.8961503816218355e+154", [-1.0, 1.0]),
         ("0,5e-324,1e-323", [-(1.5**0.5), 0.0, 1.5**0.5])],
        ids=["std-overflows", "std-underflows"],
    )
    def test_standardize_scales_a_column_whose_std_leaves_the_float_range(
        self, tmp_path, column, want
    ):
        cells = column.split(",")
        rows = "".join(f"{cell},{i}\n" for i, cell in enumerate(cells))
        path = write_csv(tmp_path / "d.csv", "a,y\n" + rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dataset, _, dropped = read_dataset_csv(path, standardize=True)
        assert dropped == []
        assert np.allclose(dataset.features[:, 0], want, rtol=1e-15, atol=0)

    def test_cli_warns_about_dropped_columns(self, tmp_path, monkeypatch, capsys):
        path = write_csv(tmp_path / "d.csv", "a,b,y\n1,7,0\n2,7,1\n3,7,2\n4,7,3\n")
        code = run_cli(
            "fit", "--data", path, "--J", 1, "--k", 1, "--standardize",
            "--out", tmp_path / "m.json", monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "dropped constant feature column 'b'" in capsys.readouterr().err

    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(size=(30, 4)) * 1e3, rng.normal(size=30) / 7.0)
        write_dataset_csv(tmp_path / "d.csv", data)
        back, _, _ = read_dataset_csv(tmp_path / "d.csv")
        assert np.array_equal(back.features, data.features)  # 17 digits: exact
        assert np.array_equal(back.responses, data.responses)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_dataset_csv(tmp_path / "absent.csv")

    def test_ragged_row_reports_line(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,y\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            read_dataset_csv(path)

    def test_non_numeric_cell_reports_line_and_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,y\n1,2\nfoo,4\n")
        with pytest.raises(DataError, match="line 3.*'a'"):
            read_dataset_csv(path)

    @pytest.mark.parametrize(
        "text, line",
        [("a,y\n1,2\n" + "x" * 140_000 + ",3\n", 3), ("a" * 140_000 + ",y\n1,2\n", 1)],
        ids=["body", "header"],
    )
    def test_cell_past_the_csv_field_limit_is_one_data_error(self, tmp_path, text, line):
        data = write_csv(tmp_path / "long.csv", text)
        proc = run_module("fit", "--data", data, "--J", 1, "--k", 1, "--out", tmp_path / "m.json")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [proc.stderr.strip()], proc.stderr
        assert proc.stderr.startswith(f"nsim: error [data] {data}: line {line}: field larger")
        assert "Traceback" not in proc.stderr

    def test_nan_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,y\n1,2\nnan,4\n")
        with pytest.raises(DataError, match="non-finite"):
            read_dataset_csv(path)

    def test_single_column_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "y\n1\n2\n")
        with pytest.raises(DataError, match="feature column"):
            read_dataset_csv(path)

    def test_log_response(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,y\n1,1\n2,10\n")
        dataset, _, _ = read_dataset_csv(path, log_response=True)
        assert np.allclose(dataset.responses, [0.0, math.log(10.0)])

    def test_header_only_file_is_a_data_error_without_a_warning(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,y\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows"):
                read_dataset_csv(path)

    def test_plain_file_is_parsed_without_the_row_reader(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", "a,b,y\n1,2.5,-3\n\n4e-3,5,6\r\n")
        with mock.patch.object(nsim_io, "_read_rows_csv", side_effect=AssertionError):
            header, values = read_feature_csv(path)
        assert header == ["a", "b", "y"]
        assert np.array_equal(values, [[1.0, 2.5, -3.0], [4e-3, 5.0, 6.0]])


_CLEAN_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda v: st.sampled_from([repr(v), format_float(v), f"{v:.3e}", f"{v:.2f}"])
) | st.integers(-(10**20), 10**20).map(str)
# spellings that the row reader accepts (some only it), then ones it rejects
_ODD_NUMBERS = ["-0", "+1", ".5", "5.", "1E5", " 2 ", "\t3", "\xa01", "1e-400", "1_0", '"1.5"',
                '" -2e3"']
_BAD_NUMBERS = ["", "abc", "0x10", "1.5e", "nan", "-nan", "inf", "-Infinity", "1e500", "-1e500",
                "\x1c5", "6\x1f"]
_BAD_LINES = [" ", "\t", "#", "# 1,2", ","]


def _one_in_ten(rare, common):
    return st.sampled_from(range(10)).flatmap(lambda i: rare if i == 5 else common)


@st.composite
def _csv_grids(draw):
    """A header and rows, each with a one-in-ten chance of an odd number
    spelling or a blank line; unless ``valid``, also of a bad spelling, a
    bad line or a ragged row, and the body may be one column narrower or
    wider than the header."""
    valid = draw(st.booleans())
    width = draw(st.integers(1, 4))
    names = draw(st.lists(st.sampled_from(["a", "b", "y", '"q,1"', '" s "']), min_size=width,
                          max_size=width))
    odd = st.sampled_from(_ODD_NUMBERS if valid else _ODD_NUMBERS + _BAD_NUMBERS)
    cells = _one_in_ten(odd, _CLEAN_NUMBERS)
    if valid:
        widths = st.just(width)
    else:
        body = draw(st.sampled_from([width - 1, width, width, width + 1]))
        widths = _one_in_ten(st.sampled_from([max(body - 1, 0), body + 1]), st.just(body))
    rows = widths.flatmap(lambda n: st.lists(cells, min_size=n, max_size=n).map(",".join))
    odd_lines = st.just("") if valid else st.sampled_from([""] + _BAD_LINES)
    lines = draw(st.lists(_one_in_ten(odd_lines, rows), max_size=8))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([",".join(names), *lines]) + draw(st.sampled_from(["", newline]))


# mostly numeric grids, some header-only, and the empty file
csv_texts = _one_in_ten(st.just(""), _csv_grids())


def _bits(part):
    if isinstance(part, Dataset):
        return _bits(part.features), _bits(part.responses)
    if isinstance(part, np.ndarray):
        return part.dtype, part.shape, part.tobytes()
    return part


def _outcome(read, path):
    """What ``read`` makes of ``path``: its error's type and text, or its
    result with every array as dtype, shape and bytes."""
    try:
        return [_bits(part) for part in read(path)]
    except Exception as exc:  # the reference may raise any error; both must agree
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(text=csv_texts)
@example(text="a,y\n")
@example(text="a\n")
@example(text="a,b,y\n1,2\n3,4\n")
@example(text="a,y\n1,2\n \n")
@example(text="a,y\n1,2\n#\n")
@example(text="a,y\n1,nan\n")
@example(text="a,y\n\x1c5,1\n")
@example(text='a,y\n"1",1_0\n')
def test_csv_fast_path_matches_the_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fast_path.csv"
    path.write_text(text, encoding="utf-8", newline="")
    readers = (read_feature_csv, read_dataset_csv)
    fast = [_outcome(read, path) for read in readers]
    with mock.patch.object(nsim_io, "_read_numeric_csv", nsim_io._read_rows_csv):
        reference = [_outcome(read, path) for read in readers]
    assert fast == reference


def test_csv_writers_text_is_unchanged(tmp_path):
    data = Dataset(np.array([[1.0, 0.1], [-0.0, 1e-300]]), np.array([-0.5, 2.0]))
    write_dataset_csv(tmp_path / "d.csv", data, ["a", "b,c"])
    write_predictions_csv(tmp_path / "p.csv", [0.1, -2.0, 1e20])
    write_matrix_csv(tmp_path / "m.csv", np.array([[1 / 3, 0.0], [2.0, -1e-5]]))
    write_matrix_csv(tmp_path / "v.csv", np.array([0.5, 1.5]))
    texts = {name: (tmp_path / f"{name}.csv").read_bytes() for name in "dpmv"}
    assert texts == {
        "d": b'a,"b,c",y\n1,0.10000000000000001,-0.5\n-0,1e-300,2\n',
        "p": b"prediction\n0.10000000000000001\n-2\n1e+20\n",
        "m": b"0.33333333333333331,0\n2,-1.0000000000000001e-05\n",
        "v": b"0.5,1.5\n",
    }


def test_json_is_one_compact_key_sorted_line(tmp_path):
    write_json(tmp_path / "o.json", {"b": [1.5, {"d": None, "c": 2}], "a": "inf", "e": 0.1})
    assert (tmp_path / "o.json").read_text() == '{"a":"inf","b":[1.5,{"c":2,"d":null}],"e":0.1}\n'
    with pytest.raises(ValueError):
        write_json(tmp_path / "nan.json", {"a": math.nan})


@pytest.fixture
def synth_files(tmp_path, monkeypatch):
    data = tmp_path / "train.csv"
    truth = tmp_path / "truth.json"
    code = run_cli(
        "synth", "--curve", "line", "--ambient-dim", 4, "--n", 160,
        "--seed", 9, "--out", data, "--truth-out", truth,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    return data, truth


class TestSynthCommand:
    def test_outputs_and_determinism(self, tmp_path, monkeypatch, synth_files):
        data, truth = synth_files
        again_data = tmp_path / "again.csv"
        again_truth = tmp_path / "again.json"
        run_cli(
            "synth", "--curve", "line", "--ambient-dim", 4, "--n", 160,
            "--seed", 9, "--out", again_data, "--truth-out", again_truth,
            monkeypatch=monkeypatch,
        )
        assert data.read_bytes() == again_data.read_bytes()
        assert truth.read_bytes() == again_truth.read_bytes()
        sidecar = json.loads(truth.read_text())
        assert len(sidecar["t_true"]) == 160
        assert len(sidecar["a_true"][0]) == 4

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "env.csv"
        code = run_cli(
            "synth", "--curve", "helix", "--ambient-dim", 5, "--n", 50,
            "--out", out, "--truth-out", tmp_path / "env.json",
            env={"NSIM_SEED": "9"}, monkeypatch=monkeypatch,
        )
        assert code == 0

    def test_missing_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        code = run_cli(
            "synth", "--curve", "helix", "--ambient-dim", 5, "--n", 50,
            "--out", tmp_path / "x.csv", "--truth-out", tmp_path / "x.json",
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "[usage]" in capsys.readouterr().err


def _set_first_assignment(doc, value):
    doc["tangent_assignment"][0] = value


def _scale_first_tangent(doc, factor):
    doc["tangents"][0] = [factor * v for v in doc["tangents"][0]]


def _reverse_first_interval(doc):
    lower, upper, closed = doc["intervals"][0]
    doc["intervals"][0] = [upper, lower, closed]


def _open_gap_before_second_interval(doc):
    doc["intervals"][1][0] += 0.01


MODEL_CORRUPTIONS = {
    "missing-k": lambda doc: doc.pop("k"),
    "k-zero": lambda doc: doc.update(k=0),
    "k-negative": lambda doc: doc.update(k=-2),
    "eta-negative": lambda doc: doc.update(eta=-1),
    "assignment-truncated": lambda doc: doc.update(
        tangent_assignment=doc["tangent_assignment"][:-1]
    ),
    "assignment-entry-at-j": lambda doc: _set_first_assignment(doc, len(doc["tangents"])),
    "assignment-entry-negative": lambda doc: _set_first_assignment(doc, -1),
    "assignment-entry-fraction": lambda doc: _set_first_assignment(doc, 1.5),
    "k-fraction": lambda doc: doc.update(k=2.7),
    "tangent-row-scaled": lambda doc: _scale_first_tangent(doc, 10.0),
    "interval-reversed": _reverse_first_interval,
    "interval-gap": _open_gap_before_second_interval,
    "level-means-x-short": lambda doc: doc.update(level_means_x=doc["level_means_x"][:-1]),
    "level-means-y-short": lambda doc: doc.update(level_means_y=doc["level_means_y"][:-1]),
    "counts-short": lambda doc: doc.update(counts=[1]),
    "partition-kind-unknown": lambda doc: doc.update(partition_kind="bogus"),
    "algorithm-unknown": lambda doc: doc.update(algorithm="weird"),
    # whole numbers past int64 used to wrap in the cast, with a RuntimeWarning
    "k-past-int64": lambda doc: doc.update(k=2**70),
    "counts-entry-past-int64": lambda doc: doc["counts"].__setitem__(0, 2**70),
    "assignment-entry-past-int64": lambda doc: _set_first_assignment(doc, 2**64),
    "tangent-row-overflowing-norm": lambda doc: _scale_first_tangent(doc, 1e308),
    "closed-upper-string": lambda doc: doc["intervals"][0].__setitem__(2, "false"),
    "eta-boolean": lambda doc: doc.update(eta=True),
    "k-boolean": lambda doc: doc.update(k=True),
    # JSON booleans used to load as 0 or 1 where numbers belong
    "version-boolean": lambda doc: doc.update(version=True),
    "responses-entry-boolean": lambda doc: doc["train_responses"].__setitem__(0, True),
    "features-entry-boolean": lambda doc: doc["train_features"][0].__setitem__(0, False),
    "assignment-entry-boolean": lambda doc: _set_first_assignment(doc, True),
    "interval-bound-boolean": lambda doc: doc["intervals"][0].__setitem__(0, False),
    # strings of numbers used to load by their digits
    "k-string": lambda doc: doc.update(k=str(doc["k"])),
    "features-row-strings": lambda doc: doc["train_features"].__setitem__(
        0, [repr(v) for v in doc["train_features"][0]]
    ),
    "responses-entry-string": lambda doc: doc["train_responses"].__setitem__(
        0, repr(doc["train_responses"][0])
    ),
    "assignment-entry-string": lambda doc: _set_first_assignment(
        doc, str(doc["tangent_assignment"][0])
    ),
    "tangents-entry-string": lambda doc: doc["tangents"][0].__setitem__(
        0, repr(doc["tangents"][0][0])
    ),
    # counts that are not the level-set sizes of the assignment
    "counts-not-level-set-sizes": lambda doc: doc.update(counts=[1] * len(doc["counts"])),
}


class TestFitPredictCommands:
    def test_interpolation_end_to_end(self, tmp_path, monkeypatch, synth_files):
        data, _ = synth_files
        model = tmp_path / "model.json"
        assert run_cli(
            "fit", "--data", data, "--J", 2, "--k", 1, "--eta", 0.5,
            "--out", model, monkeypatch=monkeypatch,
        ) == 0

        # predict on the training features: k=1 noise-free interpolates
        features_only = tmp_path / "queries.csv"
        dataset, names, _ = read_dataset_csv(data)
        with open(features_only, "w", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            writer.writerows([[format_float(v) for v in row] for row in dataset.features])
        preds_path = tmp_path / "preds.csv"
        assert run_cli(
            "predict", "--model", model, "--data", features_only, "--out", preds_path,
            monkeypatch=monkeypatch,
        ) == 0
        _, preds = read_feature_csv(preds_path)
        assert np.array_equal(preds[:, 0], dataset.responses)

    def test_model_json_schema(self, tmp_path, monkeypatch, synth_files):
        data, _ = synth_files
        model = tmp_path / "model.json"
        run_cli(
            "fit", "--data", data, "--J", 2, "--k", 3, "--eta", "inf",
            "--partition", "equiblock", "--out", model, monkeypatch=monkeypatch,
        )
        doc = json.loads(model.read_text())
        assert doc["version"] == 1
        assert doc["partition_kind"] == "equiblock"
        assert doc["eta"] == "inf"
        assert len(doc["intervals"]) == 2
        assert len(doc["tangents"]) == 2
        assert len(doc["train_responses"]) == 160

    def test_split_fit_labeled(self, tmp_path, monkeypatch, synth_files):
        data, _ = synth_files
        model = tmp_path / "split.json"
        run_cli(
            "fit", "--data", data, "--J", 1, "--k", 1, "--split", "half",
            "--out", model, monkeypatch=monkeypatch,
        )
        doc = json.loads(model.read_text())
        assert doc["algorithm"] == "split"
        assert len(doc["train_responses"]) == 80

    def test_infeasible_fit_exit_code(self, tmp_path, monkeypatch, synth_files, capsys):
        data, _ = synth_files
        code = run_cli(
            "fit", "--data", data, "--J", 64, "--k", 1, "--out", tmp_path / "m.json",
            monkeypatch=monkeypatch,
        )
        assert code == 3
        assert "[infeasible-fit]" in capsys.readouterr().err

    def test_responses_near_float_max_are_a_data_error(self, tmp_path):
        # level-set means overflow; the fit used to write NaN index vectors
        rng = np.random.default_rng(0)
        data = tmp_path / "huge.csv"
        write_dataset_csv(data, Dataset(rng.normal(size=(200, 3)), rng.uniform(-1, 1, 200) * 1.7e308))
        proc = run_module(
            "fit", "--data", data, "--J", 2, "--k", 3, "--partition", "equiblock",
            "--out", tmp_path / "m.json",
        )
        assert proc.returncode == 2, proc.stderr
        assert "nsim: error [data]" in proc.stderr
        assert "non-finite regression direction in level set 0" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("corruption", sorted(MODEL_CORRUPTIONS))
    def test_corrupted_model_is_a_data_error(
        self, tmp_path, monkeypatch, synth_files, corruption
    ):
        data, _ = synth_files
        model = tmp_path / "model.json"
        assert run_cli(
            "fit", "--data", data, "--J", 2, "--k", 3, "--eta", 0.5,
            "--out", model, monkeypatch=monkeypatch,
        ) == 0
        doc = json.loads(model.read_text())
        MODEL_CORRUPTIONS[corruption](doc)
        model.write_text(json.dumps(doc))
        queries = write_csv(tmp_path / "q.csv", "a,b,c,d\n0.1,0.2,0.3,0.4\n")
        proc = run_module(
            "predict", "--model", model, "--data", queries, "--out", tmp_path / "p.csv"
        )
        assert proc.returncode == 2, proc.stderr
        assert "nsim: error [data]" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    @pytest.mark.parametrize("field, value", [("k", 1.5), ("counts", [1.5, 2.0])])
    def test_model_check_reports_its_own_message_once(
        self, tmp_path, monkeypatch, synth_files, field, value
    ):
        data, _ = synth_files
        model = tmp_path / "model.json"
        assert run_cli(
            "fit", "--data", data, "--J", 2, "--k", 3, "--eta", 0.5,
            "--out", model, monkeypatch=monkeypatch,
        ) == 0
        doc = json.loads(model.read_text())
        doc[field] = value
        model.write_text(json.dumps(doc))
        queries = write_csv(tmp_path / "q.csv", "a,b,c,d\n0.1,0.2,0.3,0.4\n")
        proc = run_module(
            "predict", "--model", model, "--data", queries, "--out", tmp_path / "p.csv"
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"nsim: error [data] model {field} must hold whole numbers")
        assert "malformed" not in proc.stderr

    def test_query_too_large_for_distances_is_a_data_error(
        self, tmp_path, monkeypatch, synth_files, capsys
    ):
        data, _ = synth_files
        model = tmp_path / "model.json"
        assert run_cli(
            "fit", "--data", data, "--J", 2, "--k", 3, "--eta", 0.5,
            "--out", model, monkeypatch=monkeypatch,
        ) == 0
        queries = write_csv(tmp_path / "q.csv", "a,b,c,d\n0.1,1e160,0.3,0.4\n")
        code = run_cli(
            "predict", "--model", model, "--data", queries, "--out", tmp_path / "p.csv",
            monkeypatch=monkeypatch,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "nsim: error [data]" in err
        assert "Traceback" not in err

    def test_missing_data_file_exit_code(self, tmp_path, monkeypatch, capsys):
        code = run_cli(
            "fit", "--data", tmp_path / "nope.csv", "--J", 1, "--k", 1,
            "--out", tmp_path / "m.json", monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "[data]" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path, monkeypatch, capsys):
        code = run_cli("fit", "--bogus", 1, monkeypatch=monkeypatch)
        assert code == 1
        assert "[usage]" in capsys.readouterr().err


class TestCvCommand:
    def test_report_written_and_deterministic(self, tmp_path, monkeypatch, synth_files):
        data, _ = synth_files
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            assert run_cli(
                "cv", "--data", data, "--j-grid", "1,2", "--k", 1, "--eta", 0.5,
                "--folds", 3, "--seed", 4, "--out", out, monkeypatch=monkeypatch,
            ) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        doc = json.loads(out_a.read_text())
        assert doc["selected"][0] in (1, 2)
        assert len(doc["grid"]) == 2

    def test_requires_k_or_rule(self, tmp_path, monkeypatch, synth_files, capsys):
        data, _ = synth_files
        code = run_cli(
            "cv", "--data", data, "--seed", 1, "--out", tmp_path / "r.json",
            monkeypatch=monkeypatch,
        )
        assert code == 1

    def test_k_and_k_rule_together_is_usage_error(
        self, tmp_path, monkeypatch, synth_files, capsys
    ):
        data, _ = synth_files
        code = run_cli(
            "cv", "--data", data, "--k", 3, "--k-rule", "two-thirds", "--seed", 1,
            "--out", tmp_path / "r.json", monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "nsim: error [usage]" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


def strict_json(path):
    """``path`` parsed as JSON proper: a bare NaN or Infinity raises."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_json_reports_write_null_for_missing_numbers(tmp_path, monkeypatch, synth_files):
    data, _ = synth_files
    cv, curve, split = tmp_path / "cv.json", tmp_path / "curve.json", tmp_path / "split.json"
    for args in (
        ["cv", "--data", data, "--j-grid", "1,64", "--k", 2, "--folds", 3, "--seed", 4,
         "--out", cv],
        ["benchmark", "--curve", "line", "--d-values", 4, "--noise-factors", 0,
         "--n-grid", "64,128,256", "--repetitions", 1, "--test-count", 50, "--method", "knn",
         "--seed", 1, "--out-json", curve],
        ["benchmark", "--data", data, "--repetitions", 1, "--folds", 3, "--j-grid", 64,
         "--k-grid", "1,4", "--seed", 6, "--out-json", split],
    ):
        assert run_cli(*args, monkeypatch=monkeypatch) == 0
    assert None in strict_json(cv)["fold_scores"]  # J = 64 is infeasible on every fold
    assert strict_json(curve)["results"][0]["rmse_a_mean"] == [None] * 3
    failed = [row for row in strict_json(split)["splits"] if "reason" in row]
    assert failed and all(row["rmse"] is None for row in failed)


class TestGramCommand:
    def test_single_cell_for_j1(self, tmp_path, monkeypatch, synth_files):
        data, _ = synth_files
        out_dir = tmp_path / "grams"
        assert run_cli(
            "gram", "--data", data, "--j-list", "1,2", "--out-dir", out_dir,
            monkeypatch=monkeypatch,
        ) == 0
        single = (out_dir / "gram_J1.csv").read_text().strip()
        assert float(single) == 1.0
        rows = list(csv.reader((out_dir / "gram_J2.csv").open()))
        gram = np.array(rows, dtype=float)
        assert gram.shape == (2, 2)
        assert np.allclose(gram, gram.T)
        assert np.allclose(np.diag(gram), 1.0, atol=1e-9)


class TestBenchmarkCommand:
    def test_synthetic_profile_csv_passes_slope_gate(self, tmp_path, monkeypatch):
        from nsim.evaluation import decay_slope

        out_json, out_csv = tmp_path / "s.json", tmp_path / "s.csv"
        n_grid = [128, 256, 512, 1024]
        code = run_cli(
            "benchmark", "--curve", "line", "--d-values", "4", "--noise-factors", "0",
            "--n-grid", ",".join(map(str, n_grid)), "--repetitions", 3,
            "--test-count", 200, "--seed", 3, "--out-json", out_json, "--out-csv", out_csv,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        rows = list(csv.reader(out_csv.open()))
        assert rows[0] == ["curve", "D", "c", "N", "rep", "rmse_f", "rmse_a", "J_used", "k_used"]
        assert len(rows) == 1 + len(n_grid) * 3
        # recompute the rate from the emitted CSV: it passes the noise-free gate
        by_n = {n: [] for n in n_grid}
        for row in rows[1:]:
            by_n[int(row[3])].append(float(row[5]))
        means = [float(np.mean(by_n[n])) for n in n_grid]
        assert decay_slope(n_grid, means) <= -0.8
        summary = json.loads(out_json.read_text())
        assert summary["results"][0]["n_values"] == n_grid
        assert summary["results"][0]["slope_rmse_f"] <= -0.8

    def test_real_csv_mode(self, tmp_path, monkeypatch, synth_files):
        data, _ = synth_files
        out_json = tmp_path / "bench.json"
        code = run_cli(
            "benchmark", "--data", data, "--repetitions", 2, "--folds", 3,
            "--j-grid", "1,2", "--k-grid", "1,4", "--seed", 6,
            "--out-json", out_json, monkeypatch=monkeypatch,
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert set(report["methods"]) == {"nsim-dyadic", "nsim-equiblock", "linreg", "knn"}

    @staticmethod
    def record_calls(monkeypatch, name, result):
        """Replace ``cli.<name>`` by a stub that records its arguments,
        defaults filled in from the real harness's signature."""
        signature = inspect.signature(getattr(cli, name))
        calls = []

        def stub(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return result

        monkeypatch.setattr(cli, name, stub)
        return calls

    def test_data_mode_defaults(self, tmp_path, monkeypatch, synth_files):
        calls = self.record_calls(monkeypatch, "real_benchmark", {"splits": []})
        data, _ = synth_files
        code = run_cli(
            "benchmark", "--data", data, "--seed", 6, "--out-json", tmp_path / "b.json",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        (args,) = calls
        assert args["repetitions"] == 30
        assert list(args["j_grid"]) == [1, 2, 4, 8, 16]
        assert list(args["k_grid"]) == [1, 2, 4, 8, 16, 32, 64]
        assert args["eta"] == math.inf
        assert args["folds"] == 5
        assert args["test_fraction"] == 0.15

    def test_curve_mode_defaults(self, tmp_path, monkeypatch):
        calls = self.record_calls(monkeypatch, "run_schedule", [])
        code = run_cli(
            "benchmark", "--curve", "line", "--seed", 6, "--out-json", tmp_path / "s.json",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        (args,) = calls
        assert args["repetitions"] == 10
        assert list(args["j_grid_noisy"]) == [1, 2, 4, 8]
        assert args["eta"] == 0.5
        assert args["cv_folds"] == 5
        assert args["test_count"] == 1000
        assert args["partition_kind"] == "dyadic"
        assert args["method"] == "nsim"

    def test_modes_are_mutually_exclusive(self, tmp_path, monkeypatch, synth_files, capsys):
        data, _ = synth_files
        code = run_cli(
            "benchmark", "--data", data, "--curve", "line", "--seed", 1,
            "--out-json", tmp_path / "x.json", monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "exactly one" in capsys.readouterr().err


_HUGE_FEATURES = np.random.default_rng(0).normal(size=(300, 3))


@st.composite
def near_float_max_problems(draw):
    """Features and responses each scaled by up to 1e306, the responses a
    linear link of the first feature plus an offset."""
    n = draw(st.integers(12, 300))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.normal(size=(n, d)) * draw(st.sampled_from([1.0, 1e150, 1e306]))
    slope = draw(st.sampled_from([0.0, 1.0, 1e150, 1e306]))
    offset = draw(st.sampled_from([0.0, 5e306]))
    y = slope * (x[:, 0] / np.abs(x[:, 0]).max()) + offset + rng.normal(size=n)
    return x, y


def write_csv_with_header(path, names, columns):
    write_matrix_csv(path, np.column_stack(columns))
    path.write_text(",".join(names) + "\n" + path.read_text())


@settings(max_examples=25, deadline=None)
@given(problem=near_float_max_problems(), eta=st.sampled_from([0.5, math.inf]))
# cross-validation squared errors of responses near 1e306 overflow
@example(problem=(_HUGE_FEATURES, 1e306 * _HUGE_FEATURES[:, 0] + 5e306), eta=math.inf)
def test_commands_near_float_max_exit_with_a_code(tmp_path_factory, problem, eta):
    x, y = problem
    tmp = tmp_path_factory.mktemp("huge")
    data, queries = tmp / "d.csv", tmp / "q.csv"
    names = [f"x{i}" for i in range(x.shape[1])]
    write_csv_with_header(data, names + ["y"], [x, y])
    write_csv_with_header(queries, names, [x[:20]])
    commands = [
        ["fit", "--data", data, "--J", 2, "--k", 4, "--eta", eta, "--out", tmp / "m.json"],
        ["predict", "--model", tmp / "m.json", "--data", queries, "--out", tmp / "p.csv"],
        ["cv", "--data", data, "--j-grid", "1,2", "--k", 4, "--eta", eta, "--seed", 1,
         "--out", tmp / "cv.json"],
        ["benchmark", "--data", data, "--repetitions", 1, "--j-grid", "1,2", "--k-grid", "1,4",
         "--eta", eta, "--seed", 1, "--out-json", tmp / "b.json"],
    ]
    for command in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([str(part) for part in command])  # an uncaught error fails the test
        assert code in (0, 1, 2, 3), command
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], command


def _fitted_document() -> dict:
    rng = np.random.default_rng(1)
    x = rng.normal(size=(60, 3))
    return nsim.model_to_dict(nsim.fit(Dataset(x, x[:, 0] + 0.1 * x[:, 1]), 2, 3, 0.5))


def _model_paths(doc) -> list:
    """Every field of ``doc``, and the first and last entry of each list in
    it, one and two levels down."""
    paths = set()
    for key, value in doc.items():
        paths.add((key,))
        for i in (0, -1) if isinstance(value, list) else ():
            paths.add((key, i))
            if isinstance(value[i], list):
                paths.update((key, i, j) for j in (0, -1))
    return sorted(paths, key=str)


_VALID_MODEL = _fitted_document()
_MODEL_PATHS = _model_paths(_VALID_MODEL)
_FUZZ_VALUES = [None, True, False, 0, -1, 1.5, 1e308, -1e308, 2**70, "x", "inf", "false",
                [], [[]], {}]


def _replace(doc, path, value):
    """Set the entry of ``doc`` at ``path`` to ``value``; a path that an
    earlier replacement removed is left as it is."""
    *parents, last = path
    try:
        for part in parents:
            doc = doc[part]
        doc[last] = value
    except (IndexError, KeyError, TypeError):
        pass


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(
    st.tuples(st.sampled_from(_MODEL_PATHS), st.sampled_from(_FUZZ_VALUES)), min_size=1, max_size=2
))
# a k past int64 used to wrap to a negative number, with a RuntimeWarning
@example(edits=[(("k",), 2**70)])
def test_corrupted_model_fields_exit_with_a_code(tmp_path_factory, edits):
    doc = json.loads(json.dumps(_VALID_MODEL))
    for path, value in edits:
        _replace(doc, path, json.loads(json.dumps(value)))  # a fresh copy of a pooled list
    tmp = tmp_path_factory.mktemp("fuzzed")
    model = tmp / "m.json"
    model.write_text(json.dumps(doc))
    queries = write_csv(tmp / "q.csv", "a,b,c\n0.1,0.2,0.3\n2,-1,0.5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # an uncaught error fails the test
        code = main(["predict", "--model", str(model), "--data", str(queries),
                     "--out", str(tmp / "p.csv")])
    assert code in (0, 2), edits
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], edits


@functools.cache
def _model_text(d: int) -> str:
    """A fitted model document in dimension ``d``, as JSON text."""
    x = np.random.default_rng(d).normal(size=(8 * d, d))
    return json.dumps(nsim.model_to_dict(nsim.fit(Dataset(x, x[:, 0]), 1, 2, 0.5)))


@settings(max_examples=150, deadline=None)
@given(text=csv_texts)
# squared errors of a 3e-182 truth overflowed in the relative RMSE, and the
# report's inf did not fit in JSON
@example(text="a,a,a\n0.0,0.0,2.6745302977060815e-182\n0.0,0,1\n0,0.0,0")
# the std of a column holding 0 and 1.9e154 overflowed, and --standardize zeroed it
@example(text="a,a,a\n0.0,0.0,-0\n0.0,1.8961503816218355e+154,0.0")
# the least-squares baseline's prediction for a row near 1.5e50 overflowed
@example(text="a,a\n0.0,0\n0,0.0\n0,4.692104440359966e+258\n1,0.0\n1.53252610440564e+50,0.0\n"
              "0.0,0.0")
def test_fuzzed_csv_through_every_command_exits_with_a_code(tmp_path_factory, text):
    tmp = tmp_path_factory.getbasetemp()
    data = tmp / "fuzzed.csv"
    data.write_text(text, encoding="utf-8", newline="")
    width = len(next(csv.reader(text.splitlines()), []))
    model = tmp / "fuzzed_model.json"
    model.write_text(_model_text(max(width, 1)))
    commands = [
        ["fit", "--data", data, "--J", 1, "--k", 1, "--out", tmp / "fuzzed_m.json"],
        ["fit", "--data", data, "--J", 1, "--k", 1, "--split", "half", "--eta", 0.5,
         "--out", tmp / "fuzzed_m.json"],
        ["fit", "--data", data, "--J", 1, "--k", 1, "--standardize",
         "--out", tmp / "fuzzed_m.json"],
        ["predict", "--model", model, "--data", data, "--out", tmp / "fuzzed_p.csv"],
        ["cv", "--data", data, "--j-grid", "1,2", "--k", 1, "--folds", 2, "--seed", 1,
         "--out", tmp / "fuzzed_cv.json"],
        ["gram", "--data", data, "--j-list", "1,2", "--out-dir", tmp / "fuzzed_gram"],
        ["benchmark", "--data", data, "--repetitions", 1, "--folds", 2, "--j-grid", 1,
         "--k-grid", 1, "--seed", 1, "--out-json", tmp / "fuzzed_b.json"],
    ]
    for command in commands:
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(io.StringIO()):
            warnings.simplefilter("always")
            code = main([str(part) for part in command])  # an uncaught error fails the test
        assert code in (0, 1, 2, 3), command
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], command
