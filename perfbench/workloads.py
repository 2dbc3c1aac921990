"""The four workloads, each driven through nsim's public API.

Every workload builds its inputs from the seed in ``setup`` and runs one
pass of its timed body in ``run_pass``; a pass returns its wall time and one
error slot per operation (a predict batch, a fit, a CLI command or a
benchmark split).  A pass's outputs must equal the first pass's bit for bit;
``verify`` then checks the first pass's outputs against independent
references (the oracle of the prediction rule, a plain least-squares fit)
and returns the indices of the operations that failed.

The host's speed drifts by 20-40% over minutes, which no run length here
averages out.  Each workload therefore also times a probe: a fixed piece of
plain-numpy work shaped like its own dominant operation, run between its
operations on inputs that do not depend on the seed.  ``scaled`` turns a
time into seconds at the speed where the probe takes ``PROBE_S``; since
the probe runs no nsim code, a change to nsim moves the scaled time by
the same factor as the raw one.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from nsim import cli, estimator, evaluation, geometry, tangents


@dataclass
class Pass:
    seconds: float
    errors: list  # one entry per operation: None, or what went wrong
    op_seconds: list = field(default_factory=list)
    probe_seconds: list = field(default_factory=list)
    scaled: float = math.nan  # seconds at the probe's reference speed, set by the runner


def _timed(call):
    """Run one operation; an exception fails the operation, not the run."""
    start = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as exc:  # noqa: BLE001 - counted in error_rate
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, error


def _relative_rmse(predictions, truth) -> float:
    truth = np.asarray(truth, dtype=np.float64)
    err = np.asarray(predictions, dtype=np.float64) - truth
    return math.sqrt(float(err @ err) / float(truth @ truth))


def _draw(curve_kind, ambient_dim, n, seed, tube_radius, noise_factor):
    """Dataset plus noise-free link values at each sample's curve parameter."""
    curve = geometry.make_curve(curve_kind)
    config = geometry.SynthConfig(
        curve=curve,
        ambient_dim=ambient_dim,
        n_samples=n,
        seed=int(seed),
        tube_radius=tube_radius,
        noise_factor=noise_factor,
    )
    dataset, samples = geometry.generate(config)
    truth = geometry.true_link_values(curve, np.array([s.t_true for s in samples]))
    return dataset, truth


class Workload:
    name = ""
    PROBE_S = 0.0  # probe time at the reference speed

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.seeds = [
            int(s) for s in np.random.SeedSequence([seed, zlib.crc32(self.name.encode())]).generate_state(4)
        ]
        self.reference = None
        self._make_probe(np.random.default_rng(0))  # the same probe inputs for every seed

    def _make_probe(self, rng) -> None:
        raise NotImplementedError

    def probe(self) -> None:
        """Plain-numpy work shaped like this workload's main operation."""
        raise NotImplementedError

    def timed_probe(self) -> float:
        start = time.perf_counter()
        self.probe()
        return time.perf_counter() - start

    def scaled(self, seconds: float, probe_seconds) -> float:
        """``seconds`` at the speed where the probe takes ``PROBE_S``."""
        return seconds * self.PROBE_S / float(np.median(probe_seconds))

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def verify(self) -> dict[int, str]:
        return {}

    def rmse_f(self) -> float:
        raise NotImplementedError

    def extra_metrics(self, passes: list[Pass], wall_s: float) -> dict:
        return {}

    def _against_reference(self, outputs, errors, same) -> list:
        """Keep the first pass's outputs; fail later ones that differ."""
        if self.reference is None:
            self.reference = outputs
            return errors
        return [
            err if err is not None or same(out, ref) else "output differs from the first pass"
            for out, ref, err in zip(outputs, self.reference, errors)
        ]


class PredictStream(Workload):
    """Closed loop, one client: a fixed query pool goes to ``predict_many``
    in batches of 50.  Most queries sit on the tube; the rest are far enough
    out to have fewer than k candidates in radius, or none."""

    name = "predict-stream"
    N, D, J, ETA, NOISE = 16384, 12, 8, 0.5, 0.1
    K = estimator.two_thirds_k(N)
    BATCH = 50
    POOL = ((4500, 0.25), (250, 0.6), (250, 1.0))  # (queries, tube radius)
    ORACLE_SAMPLE = 500
    PROBE_S, PROBE_EVERY = 0.008, 2  # one probe per 2 batches

    def params(self):
        return {"N": self.N, "D": self.D, "J": self.J, "k": self.K, "eta": self.ETA,
                "noise_factor": self.NOISE, "batch": self.BATCH,
                "queries": sum(n for n, _ in self.POOL)}

    def _make_probe(self, rng):
        self._probe_x = rng.standard_normal((self.D, self.N))
        self._probe_q = rng.standard_normal((self.BATCH, self.D))
        self._probe_proj = rng.standard_normal((self.BATCH, self.J))
        self._probe_group = rng.integers(0, self.J, self.N)

    def probe(self):
        block = np.abs(self._probe_proj[:, self._probe_group] - 0.5)
        eucl = self._probe_q @ self._probe_x
        eucl *= -2.0
        eucl += 12.0
        np.maximum(eucl, 0.0, out=eucl)
        block[eucl > 20.0] = np.inf
        for row in block[:5]:
            np.partition(row, self.K - 1)

    def setup(self):
        self.train, _ = _draw("helix", self.D, self.N, self.seeds[0], 0.25, self.NOISE)
        parts = [
            _draw("helix", self.D, count, self.seeds[1] + i, radius, 0.0)
            for i, (count, radius) in enumerate(self.POOL)
        ]
        queries = np.vstack([ds.features for ds, _ in parts])
        on_tube = np.arange(len(queries)) < self.POOL[0][0]
        order = np.random.default_rng(self.seeds[2]).permutation(len(queries))
        self.queries, self.on_tube = queries[order], on_tube[order]
        self.truth = parts[0][1][order[self.on_tube]]
        self.model = estimator.fit(self.train, self.J, self.K, self.ETA)
        self.low, self.high = self.train.responses.min(), self.train.responses.max()

    def run_pass(self):
        outputs, errors, op_seconds, probes = [], [], [], []
        for i, lo in enumerate(range(0, len(self.queries), self.BATCH)):
            batch = self.queries[lo:lo + self.BATCH]
            out, seconds, error = _timed(lambda: estimator.predict_many(self.model, batch))
            outputs.append(out)
            errors.append(error)
            op_seconds.append(seconds)
            if i % self.PROBE_EVERY == 0:
                probes.append(self.timed_probe())
        for i, out in enumerate(outputs):
            if errors[i] is None and not (
                out.shape == (self.BATCH,) and np.all((out >= self.low) & (out <= self.high))
            ):
                errors[i] = "prediction outside the training response range"
        errors = self._against_reference(outputs, errors, np.array_equal)
        return Pass(sum(op_seconds), errors, op_seconds, probes)

    def verify(self):
        rule = oracle.from_fitted(self.model)
        rng = np.random.default_rng(self.seeds[3])
        failed = {}
        for q in rng.choice(len(self.queries), self.ORACLE_SAMPLE, replace=False):
            op = int(q) // self.BATCH
            out = self.reference[op]
            if out is not None and not oracle.admits(rule, self.queries[q], out[q % self.BATCH]):
                failed[op] = f"query {q}: prediction disagrees with the oracle"
        return failed

    def rmse_f(self):
        return _relative_rmse(np.concatenate(self.reference)[self.on_tube], self.truth)

    def extra_metrics(self, passes, wall_s):
        batch_ms = np.array([s for p in passes for s in p.op_seconds]) * 1e3
        return {
            "predict_qps": (len(self.queries) / wall_s, "1/s"),
            "batch_p50_ms": (float(np.percentile(batch_ms, 50)), "ms"),
            "batch_p90_ms": (float(np.percentile(batch_ms, 90)), "ms"),
            "batches": (len(batch_ms), "count"),
        }


class ModelSelect(Workload):
    """One repetition of ``real_benchmark`` with its default grids: about
    350 small fits and ``predict_many`` calls plus the kNN baseline's CV."""

    name = "model-select"
    N, D, NOISE = 2000, 8, 0.1
    PROBE_S, PROBES = 0.0022, 10  # probes before and after the call

    def _make_probe(self, rng):
        self._probe_proj = rng.standard_normal((340, 16))
        self._probe_group = rng.integers(0, 16, 1360)
        self._probe_cov = np.cov(rng.standard_normal((self.D, 100)))

    def probe(self):
        block = np.abs(self._probe_proj[:, self._probe_group] - 0.5)
        for row in block[:100]:
            kth = np.partition(row, 15)[15]
            pool = np.flatnonzero(row <= kth)
            pool[np.argsort(row[pool], kind="stable")]
        for _ in range(10):
            np.linalg.eigh(self._probe_cov)

    def params(self):
        return {"N": self.N, "D": self.D, "J": "1,2,4,8,16", "k": "1,2,4,8,16,32,64",
                "eta": "inf", "noise_factor": self.NOISE, "folds": 5, "repetitions": 1}

    def setup(self):
        self.data, _ = _draw("s_curve", self.D, self.N, self.seeds[0], 0.25, self.NOISE)

    def run_pass(self):
        methods = evaluation.BENCHMARK_METHODS
        probes = [self.timed_probe() for _ in range(self.PROBES)]
        report, seconds, error = _timed(
            lambda: evaluation.real_benchmark(self.data, self.seeds[1], repetitions=1)
        )
        probes += [self.timed_probe() for _ in range(self.PROBES)]
        outputs, errors = [], []
        for method in methods:
            if error is not None:
                outputs.append(None)
                errors.append(error)
                continue
            rows = [r for r in report["splits"] if r["method"] == method]
            used = report["methods"][method]["splits_used"]
            ok = used == 1 and len(rows) == 1 and math.isfinite(rows[0]["rmse"])
            outputs.append(json.dumps(rows, sort_keys=True))
            errors.append(None if ok else f"{method}: splits_used={used}, rows={rows}")
        if error is None:
            self.report = report
        errors = self._against_reference(outputs, errors, lambda a, b: a == b)
        return Pass(seconds, errors, probe_seconds=probes)

    def rmse_f(self):
        return float(self.report["methods"]["nsim-dyadic"]["rmse_mean"])


def _write_csv(path: Path, header, columns) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",")


class CliRoundtrip(Workload):
    """``nsim fit`` (plain and ``--split half``) on a 16384-row CSV, then
    ``nsim predict`` with each model, all through ``nsim.cli.main``."""

    name = "cli-roundtrip"
    N, D, J, K, ETA, NOISE, QUERIES = 16384, 12, 16, 32, 0.5, 0.1, 200
    ORACLE_SAMPLE, HELD_OUT = 100, 2000
    PROBE_S, PROBES = 0.015, 3  # probes after each command

    def params(self):
        return {"N": self.N, "D": self.D, "J": self.J, "k": self.K, "eta": self.ETA,
                "noise_factor": self.NOISE, "queries": self.QUERIES}

    def _make_probe(self, rng):
        self._probe_x = rng.standard_normal((self.D, self.N // 2))
        self._probe_q = rng.standard_normal((128, self.D))
        self._probe_group = rng.integers(0, self.J, self.N // 2)
        self._probe_proj = rng.standard_normal((128, self.J))
        self._probe_rows = rng.standard_normal((100, self.D + 1)).tolist()
        self._probe_lines = [",".join(f"{v:.17g}" for v in row) for row in self._probe_rows]

    def probe(self):
        block = np.abs(self._probe_proj[:, self._probe_group] - 0.5)
        eucl = self._probe_q @ self._probe_x
        eucl *= -2.0
        eucl += 12.0
        np.maximum(eucl, 0.0, out=eucl)
        block[eucl > 20.0] = np.inf
        np.argmin(block, axis=1)
        [[float(v) for v in line.split(",")] for line in self._probe_lines]
        json.loads(json.dumps(self._probe_rows, indent=2))

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        w = self.workdir
        self.paths = {name: w / name for name in (
            "data.csv", "queries.csv", "model.json", "split.json", "pred.csv", "pred_split.csv")}
        train, _ = _draw("helix", self.D, self.N, self.seeds[0], 0.25, self.NOISE)
        queries, _ = _draw("helix", self.D, self.QUERIES, self.seeds[1], 0.25, 0.0)
        self.held_out, self.truth = _draw("helix", self.D, self.HELD_OUT, self.seeds[3], 0.25, 0.0)
        names = [f"x{i}" for i in range(self.D)]
        _write_csv(self.paths["data.csv"], names + ["y"], [train.features, train.responses])
        _write_csv(self.paths["queries.csv"], names, [queries.features])
        self.query_x = queries.features

    def _commands(self):
        p = {name: str(path) for name, path in self.paths.items()}
        fit = ["fit", "--data", p["data.csv"], "--J", str(self.J), "--k", str(self.K),
               "--eta", str(self.ETA)]
        return [
            (fit + ["--out", p["model.json"]], "model.json"),
            (fit + ["--split", "half", "--out", p["split.json"]], "split.json"),
            (["predict", "--model", p["model.json"], "--data", p["queries.csv"],
              "--out", p["pred.csv"]], "pred.csv"),
            (["predict", "--model", p["split.json"], "--data", p["queries.csv"],
              "--out", p["pred_split.csv"]], "pred_split.csv"),
        ]

    def run_pass(self):
        commands = self._commands()
        codes, errors, op_seconds, probes = [], [], [], []
        for argv, _ in commands:
            code, seconds, error = _timed(lambda: cli.main(argv))
            codes.append(code)
            errors.append(error)
            op_seconds.append(seconds)
            probes += [self.timed_probe() for _ in range(self.PROBES)]
        outputs = []
        for i, ((argv, out_name), code) in enumerate(zip(commands, codes)):
            if errors[i] is None and code != 0:
                errors[i] = f"nsim {argv[0]} exited {code}"
            path = self.paths[out_name]
            outputs.append(hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None)
        errors = self._against_reference(outputs, errors, lambda a, b: a == b)
        return Pass(sum(op_seconds), errors, op_seconds, probes)

    def verify(self):
        failed = {}
        rng = np.random.default_rng(self.seeds[2])
        sample = rng.choice(self.QUERIES, self.ORACLE_SAMPLE, replace=False)
        for op, (model_name, rows, pred_name) in enumerate(
            (("model.json", self.N, "pred.csv"), ("split.json", self.N - self.N // 2, "pred_split.csv"))
        ):
            doc = json.loads(self.paths[model_name].read_text(encoding="utf-8"))
            if (doc["k"], doc["eta"], len(doc["train_features"])) != (self.K, self.ETA, rows):
                failed[op] = f"{model_name}: k, eta or row count differ from the command line"
                continue
            rule = oracle.from_document(doc)
            preds = np.loadtxt(self.paths[pred_name], delimiter=",", skiprows=1, ndmin=1)
            if preds.shape != (self.QUERIES,):
                failed[op + 2] = f"{pred_name}: {preds.shape[0]} rows for {self.QUERIES} queries"
                continue
            for q in sample:
                if not oracle.admits(rule, self.query_x[q], preds[q]):
                    failed[op + 2] = f"{pred_name}: query {q} disagrees with the oracle"
                    break
        model = estimator.load_model(self.paths["model.json"])
        self.held_out_predictions = np.concatenate([
            estimator.predict_many(model, self.held_out.features[lo:lo + 100])
            for lo in range(0, self.HELD_OUT, 100)
        ])
        return failed

    def rmse_f(self):
        return _relative_rmse(self.held_out_predictions, self.truth)


class FitSweep(Workload):
    """``fit`` then ``grammian`` for every J up to the noise-free rule
    J = N / (15 D) = 364, with both partitions, k = 1 and eta = inf, as
    ``nsim gram`` does.  No neighbour search runs in the timed body."""

    name = "fit-sweep"
    N, D = 65536, 12
    J_VALUES = (16, 32, 64, 128, 256, 364)
    KINDS = ("dyadic", "equiblock")
    HELD_OUT, ORACLE_SAMPLE = 1000, 200
    PROBE_S = 0.008  # one probe after each fit

    def _make_probe(self, rng):
        self._probe_x = rng.standard_normal((self.N, self.D))
        self._probe_y = rng.standard_normal(self.N)
        self._probe_groups = [rng.integers(0, self.N, 180) for _ in range(20)]

    def probe(self):
        np.argsort(self._probe_y, kind="stable")
        for idx in self._probe_groups:
            x = self._probe_x[idx]
            x = x - x.mean(axis=0)
            values, vectors = np.linalg.eigh(x.T @ x / len(idx))
            (vectors / values) @ vectors.T

    def params(self):
        return {"N": self.N, "D": self.D, "J": ",".join(map(str, self.J_VALUES)), "k": 1,
                "eta": "inf", "noise_factor": 0.0, "partitions": ",".join(self.KINDS)}

    def setup(self):
        self.train, _ = _draw("helix", self.D, self.N, self.seeds[0], 0.25, 0.0)
        self.held_out, self.truth = _draw("helix", self.D, self.HELD_OUT, self.seeds[1], 0.25, 0.0)

    def _configs(self):
        return [(j, kind) for j in self.J_VALUES for kind in self.KINDS]

    def run_pass(self):
        outputs, errors, op_seconds, probes = [], [], [], []
        for j_count, kind in self._configs():
            def call():
                model = estimator.fit(self.train, j_count, 1, math.inf, kind)
                return model, tangents.grammian(model.tangents)
            out, seconds, error = _timed(call)
            outputs.append(out)
            errors.append(error)
            op_seconds.append(seconds)
            probes.append(self.timed_probe())

        def same(a, b):
            return np.array_equal(a[0].tangents.vectors, b[0].tangents.vectors) and np.array_equal(
                a[1], b[1])

        errors = self._against_reference(outputs, errors, same)
        return Pass(sum(op_seconds), errors, op_seconds, probes)

    def verify(self):
        failed = {}
        for op, (j_count, kind) in enumerate(self._configs()):
            if self.reference[op] is None:
                continue
            model, gram = self.reference[op]
            problem = _check_fit(self.train, model, gram, j_count, kind)
            if problem:
                failed[op] = f"J={j_count} {kind}: {problem}"
        op = self._configs().index((self.J_VALUES[-1], "dyadic"))
        model = self.reference[op][0] if self.reference[op] else None
        if model is not None:
            preds = estimator.predict_many(model, self.held_out.features)
            rule = oracle.from_fitted(model)
            sample = np.random.default_rng(self.seeds[2]).choice(
                self.HELD_OUT, self.ORACLE_SAMPLE, replace=False)
            if not all(oracle.admits(rule, self.held_out.features[q], preds[q]) for q in sample):
                failed[op] = "held-out prediction disagrees with the oracle"
            self.held_out_predictions = preds
        return failed

    def rmse_f(self):
        return _relative_rmse(self.held_out_predictions, self.truth)


def _check_fit(train, model, gram, j_count, kind) -> str | None:
    """Partition and index vectors against a plain least-squares refit."""
    groups = model.partition.groups
    y = train.responses
    if len(groups) != j_count or not np.array_equal(np.sort(np.concatenate(groups)), np.arange(len(y))):
        return "groups do not partition the samples into J level sets"
    edges = [iv.lower for iv in model.partition.intervals] + [model.partition.intervals[-1].upper]
    sizes = np.array([len(g) for g in groups])
    if kind == "dyadic" and not np.allclose(np.diff(edges), (y.max() - y.min()) / j_count):
        return "dyadic intervals are not of equal width"
    if kind == "equiblock" and (sizes.max() - sizes.min() > 1 or np.any(np.diff(sizes) > 0)):
        return "equiblock sizes are not within 1, larger first"
    for j, idx in enumerate(groups):
        if np.any(y[idx] < edges[j]) or np.any(y[idx] > edges[j + 1]):
            return f"level set {j} holds responses outside its interval"
        x = train.features[idx] - train.features[idx].mean(axis=0)
        r = y[idx] - y[idx].mean()
        b = np.linalg.lstsq(x.T @ x / len(idx), x.T @ r / len(idx), rcond=None)[0]
        if not np.allclose(model.tangents.vectors[j], b / np.linalg.norm(b), rtol=0, atol=1e-7):
            return f"index vector {j} differs from the least-squares direction"
    vectors = model.tangents.vectors
    if not (np.array_equal(gram, gram.T) and np.all(np.diag(gram) == 1.0)
            and np.allclose(gram, vectors @ vectors.T, rtol=0, atol=1e-12)):
        return "grammian is not the symmetric unit-diagonal Gram matrix"
    return None


WORKLOADS = {w.name: w for w in (PredictStream, ModelSelect, CliRoundtrip, FitSweep)}
