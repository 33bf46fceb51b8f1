"""One benchmark run of one workload: timed cycles, output checks, metrics.

A run sets up once, then repeats a cycle (train; the single-row predicts
with set-ups, bulk predicts and save/load pairs spread among them; a
loaded-model check) until the next cycle would overrun ``seconds``.  Each
timing metric is a median or percentile of the samples of all cycles
pooled.  Every cycle starts from the same inputs and seeds, so its state
and prediction digests must repeat exactly.  Each call into the program is
one attempted operation; it fails on a ``SpecGPError`` or on an output that
breaks a check.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import math
import os
import resource
import statistics
import time

import numpy as np

import specgp as sg
from tracing import SpanStats, Tracer
from workloads import DEFAULT_SEED, NOISE_SD, PREDICT_SEED, TRAIN_SEED, make_inputs

MIN_CYCLES = 2
# Calls per cycle spread among the single-row predicts (save/load pairs:
# Workload.io_reps).
SETUP_REPS = 6
BULK_REPS = 3


class BadOutput(Exception):
    """An output of the program failed one of the benchmark's checks."""


def _no_span(name):
    return contextlib.nullcontext()


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def partition_digest(part) -> str:
    return digest(part.centroids, *(np.asarray(i, dtype=float) for i in part.block_indices))


def check_moments(means, variances, rows):
    if means.shape != (rows,) or variances.shape != (rows,):
        raise BadOutput(f"moment shapes {means.shape}/{variances.shape}, expected ({rows},)")
    if not np.all(np.isfinite(means)):
        raise BadOutput("non-finite predictive mean")
    if not np.all(np.isfinite(variances)):
        raise BadOutput("non-finite predictive variance")
    if np.any(variances < 0):
        raise BadOutput("negative predictive variance")


class Ledger:
    """Attempted and failed operations, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, what, fn):
        self.attempted += 1
        try:
            return fn()
        except (sg.SpecGPError, BadOutput) as err:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"{what}: {type(err).__name__}: {err}")
            return None


class Run:
    """State shared by the operations of one run."""

    def __init__(self, workload, seed, workdir, predict=None):
        self.w = workload
        self.seed = seed
        self.inp = make_inputs(workload, seed)
        self.predict = predict or sg.predict_batch
        self.ledger = Ledger()
        self.ref = {}  # first digest seen per output, for the repeat checks
        self.ref_problem = None  # (partition, prior, initial state) of the first set-up
        self.report = {}
        self.model_path = os.path.join(workdir, "model.json")
        self.checkpoint_path = os.path.join(workdir, "checkpoint.json")

    def _same_as_first(self, key, value):
        first = self.ref.setdefault(key, value)
        if value != first:
            raise BadOutput(f"{key} digest {value} differs from the first one, {first}")

    # -- operations ----------------------------------------------------------

    def setup(self, span=_no_span):
        w, inp = self.w, self.inp

        def go():
            started = time.perf_counter()
            with span("setup"):
                with span("partition.kmeans_partition"):
                    part = sg.kmeans_partition(inp.x_train, inp.y_train, p=w.p, seed=self.seed)
                prior = sg.PriorSpec.for_inputs(inp.x_train, inp.cfg)
                init = sg.initial_state(prior, inp.cfg, seed=TRAIN_SEED)
            elapsed = time.perf_counter() - started
            self._same_as_first("partition", partition_digest(part))
            self._same_as_first("init", digest(init.M, init.b))
            return elapsed, (part, prior, init)

        return self.ledger.op("setup", go)

    def train(self, problem, span=_no_span):
        w, inp = self.w, self.inp
        part, prior, init = problem
        tcfg = sg.TrainConfig(
            iterations=w.iterations,
            plan=sg.GradientSamplePlan(4, 8, TRAIN_SEED),
            schedule=sg.StepSchedule(base_step=0.1, decay_power=0.51, adaptive=True),
            learn_variances=w.learn_variances,
            checkpoint_every=w.checkpoint_every,
            checkpoint_path=self.checkpoint_path if w.checkpoint_every else None,
            seed=TRAIN_SEED,
            elbo_every=w.elbo_every,
        )

        def go():
            started = time.perf_counter()
            with span("optimizer.train"):
                result = sg.train(part, init, prior, inp.cfg, tcfg)
            elapsed = time.perf_counter() - started
            state = result.state
            if not (np.all(np.isfinite(state.M)) and np.all(np.isfinite(state.b))):
                raise BadOutput("non-finite posterior state")
            self._same_as_first("state", digest(state.M, state.b))
            halvings = sum(
                round(math.log2(tcfg.schedule.step_size(rec.iteration) / rec.step_size))
                for rec in result.trace
            )
            model = result.model(part, standardization=inp.std)
            return elapsed, result, model, halvings

        return self.ledger.op("train", go)

    def _pcfg(self, bulk):
        w = self.w
        draws = w.predict_draws if bulk else w.one_draws
        return sg.PredictConfig(n_samples=draws, gamma_mix=w.gamma_mix, seed=PREDICT_SEED)

    def predict_bulk(self, model, span=_no_span):
        x = self.inp.x_test

        def go():
            started = time.perf_counter()
            with span("predict_bulk"), span("predict.predict_batch"):
                means, variances = self.predict(x, model, self._pcfg(bulk=True))
            elapsed = time.perf_counter() - started
            check_moments(means, variances, x.shape[0])
            self._same_as_first("bulk_means", digest(means, variances))
            return elapsed, means, variances

        return self.ledger.op("predict_bulk", go)

    def predict_one(self, model, row, span=_no_span):
        pcfg = self._pcfg(bulk=False)

        def go():
            started = time.perf_counter()
            with span("predict_one"), span("predict.predict_batch"):
                means, variances = self.predict(row[None, :], model, pcfg)
            elapsed = time.perf_counter() - started
            check_moments(means, variances, 1)
            return elapsed

        return self.ledger.op("predict_one", go)

    def save_load(self, model, span=_no_span):
        """One save and one load; returns (save_s, load_s, loaded model) or None."""
        def save():
            started = time.perf_counter()
            with span("model_io.save_model"):
                sg.save_model(self.model_path, model)
            return time.perf_counter() - started

        def load():
            started = time.perf_counter()
            with span("model_io.load_model"):
                out = sg.load_model(self.model_path)
            return time.perf_counter() - started, out

        save_s = self.ledger.op("save_model", save)
        if save_s is None:
            return None
        got = self.ledger.op("load_model", load)
        if got is None:
            return None
        return save_s, got[0], got[1]

    def check_loaded(self, model, loaded):
        """Predictions of the reloaded model must equal the in-memory ones bit for bit."""
        x = self.inp.x_test[: self.w.check_rows]
        pcfg = self._pcfg(bulk=False)

        def go():
            mem = self.predict(x, model, pcfg)
            disk = self.predict(x, loaded, pcfg)
            for got in (mem, disk):
                check_moments(*got, x.shape[0])
            if not (np.array_equal(mem[0], disk[0]) and np.array_equal(mem[1], disk[1])):
                raise BadOutput("saved-then-loaded model predicts differently")
            return True

        return self.ledger.op("check_loaded", go)

    # -- quality -------------------------------------------------------------

    def score(self, means, variances):
        inp = self.inp
        mu = inp.std.invert_mean(means)
        var = inp.std.invert_variance(variances)
        floored = sg.mnlp_variance_floor(var, inp.y_test_raw)
        return {
            "test_rmse": sg.rmse(mu, inp.y_test_raw),
            "test_mnlp": sg.mnlp(mu, floored, inp.y_test_raw),
            "variance_floor_substitutions": int(np.sum(var <= 0)),
        }

    def ac5_gate(self, problem, rmse_trained):
        """ac5 on the conftest problem: RMSE <= 1.5 x noise and <= 0.5 x untrained."""
        part, prior, init = problem
        model = sg.TrainedModel(
            state=init, prior=prior, spectral=self.inp.cfg, partition=part,
            standardization=self.inp.std,
        )
        means, _ = sg.predict_batch(self.inp.x_test, model, self._pcfg(bulk=True))
        untrained = sg.rmse(self.inp.std.invert_mean(means), self.inp.y_test_raw)
        passed = rmse_trained <= 1.5 * NOISE_SD and rmse_trained <= 0.5 * untrained
        self.report["ac5"] = {
            "rmse": rmse_trained, "untrained_rmse": untrained,
            "noise": NOISE_SD, "passed": passed,
        }
        return passed


def _gates(run, quality):
    if quality is None:
        return False
    ok = run.ledger.failed == 0
    if run.w.name == "small-blocks" and run.seed == DEFAULT_SEED:
        ok = run.ac5_gate(run.ref_problem, quality["test_rmse"]) and ok
    return ok


def measure(run: Run, seconds: float):
    """The untraced run: returns (correct, end-to-end metrics)."""
    w = run.w
    t0 = time.perf_counter()
    got = run.setup()
    if got is None:
        return False, {}
    run.ref_problem = got[1]

    samples = collections.defaultdict(list, setup_s=[got[0]])
    cycle_s, halvings, quality = [], [], None
    while True:
        started = time.perf_counter()
        got = _cycle(run)
        cycle_s.append(time.perf_counter() - started)
        if got is None:
            break
        cycle, bulk, cycle_halvings = got
        if quality is None:
            quality = run.score(*bulk)
        halvings.append(cycle_halvings)
        for name, values in cycle.items():
            samples[name].extend(values)
        elapsed = time.perf_counter() - t0
        if len(halvings) >= MIN_CYCLES and elapsed + statistics.median(cycle_s) > seconds:
            break

    correct = _gates(run, quality)
    if not halvings:
        return False, {}
    run.report.update(
        quality,
        step_halvings=halvings, cycle_s=cycle_s,
        measured_s=time.perf_counter() - t0,
        samples={name: len(values) for name, values in samples.items()},
    )
    # Each figure pools the samples of all cycles.  Load from other tenants
    # of the machine switches between a fast and a slow state every few
    # seconds; a minimum reads whichever state some sample happened to catch,
    # while a median over samples spread through the run reads the same
    # state from run to run.
    iter_ms, one_ms = np.array(samples["iter_ms"]), np.array(samples["one_ms"])
    metrics = {
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "train_s": (statistics.median(samples["train_s"]), "s"),
        "train_iter_ms_p50": (float(np.median(iter_ms)), "ms"),
        "train_iter_ms_p99": (float(np.percentile(iter_ms, 99)), "ms"),
        "predict_draw_points_per_s": (
            run.inp.x_test.shape[0] * w.predict_draws / statistics.median(samples["bulk_s"]),
            "1/s",
        ),
        "predict_one_ms_p50": (float(np.median(one_ms)), "ms"),
        "predict_one_ms_p95": (float(np.percentile(one_ms, 95)), "ms"),
        "model_save_s": (statistics.median(samples["save_s"]), "s"),
        "model_load_s": (statistics.median(samples["load_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return correct, metrics


def _spread(calls, slots):
    """Positions of ``calls`` calls spread evenly over ``slots`` slots."""
    return {k * slots // calls for k in range(calls)}


def _cycle(run: Run):
    """Train, then the single-row calls with set-ups, bulk predicts and
    save/load pairs spread evenly among them, then the loaded-model check.
    Returns (this cycle's timing samples, moments of one bulk predict, step
    halvings), or None if an operation failed."""
    w = run.w
    failed_before = run.ledger.failed
    trained = run.train(run.ref_problem)
    if trained is None:
        return None
    train_s, result, model, halvings = trained
    # Spreading the short calls over the phase samples the machine's load at
    # many moments instead of in one burst.
    rows = run.inp.x_one
    setup_at = _spread(SETUP_REPS, len(rows))
    bulk_at = _spread(BULK_REPS, len(rows))
    io_at = _spread(w.io_reps, len(rows))
    setups, bulks, one_ms, saves, loads, loaded = [], [], [], [], [], None
    for i, row in enumerate(rows):
        if i in setup_at:
            got = run.setup()
            if got is not None:
                setups.append(got[0])
        if i in bulk_at:
            bulks.append(run.predict_bulk(model))
        if i in io_at:
            got = run.save_load(model)
            if got is not None:
                saves.append(got[0])
                loads.append(got[1])
                loaded = got[2]
        elapsed = run.predict_one(model, row)
        if elapsed is not None:
            one_ms.append(elapsed * 1e3)
    if loaded is not None:
        run.check_loaded(model, loaded)
    if run.ledger.failed > failed_before:
        return None
    cycle = {
        "setup_s": setups,
        "train_s": [train_s],
        "iter_ms": [rec.wall_clock_ms for rec in result.trace],
        "bulk_s": [got[0] for got in bulks],
        "one_ms": one_ms,
        "save_s": saves,
        "load_s": loads,
    }
    return cycle, bulks[0][1:], halvings


def measure_traced(run: Run):
    """The traced run: one untraced train for reference, then one traced
    cycle.  Returns (correct, per-layer metrics, tracer)."""
    w = run.w
    got = run.setup()
    if got is None:
        return False, {}, None
    run.ref_problem = got[1]
    plain = run.train(run.ref_problem)
    if plain is None:
        return False, {}, None

    tracer = Tracer()
    span = tracer.span
    with tracer.installed():
        problem = run.setup(span)
        traced = run.train(problem[1], span) if problem else None
        if traced is None:
            return False, {}, tracer
        model = traced[2]
        bulk = run.predict_bulk(model, span)
        for row in run.inp.x_one:
            run.predict_one(model, row, span)
        io = run.save_load(model, span)
        if io is not None:
            with span("check_loaded"):
                run.check_loaded(model, io[2])
    # run.train compared the traced state digest with the untraced one.
    if bulk is None or io is None:
        return False, {}, tracer
    quality = run.score(bulk[1], bulk[2])
    correct = _gates(run, quality)

    stats = SpanStats(tracer.spans)
    part = problem[1][0]
    sizes = part.block_sizes()
    sg_calls = stats.calls["gradient.stochastic_gradient"]
    bulk_grams = stats.count_under("localmodel.build_local_gram", "predict_bulk")
    blocks_hit = len(np.unique(sg.assign_blocks(run.inp.x_test, part)))
    metrics = {
        "features.feature_matrix.calls": (stats.calls["features.feature_matrix"], "count"),
        "features.feature_matrix.columns": (stats.amount["features.feature_matrix"], "count"),
        "features.feature_matrix.self_s": (stats.self_time["features.feature_matrix"], "s"),
        "gradient.stochastic_gradient.calls": (sg_calls, "count"),
        "gradient.stochastic_gradient.self_s": (stats.self_time["gradient.stochastic_gradient"], "s"),
        "gradient.rows_featurized_per_call": (
            stats.amount_of_children("features.feature_matrix", "gradient.stochastic_gradient")
            / max(sg_calls, 1),
            "rows",
        ),
        "gradient.elbo_estimate.s": (stats.total["gradient.elbo_estimate"], "s"),
        "variational.state_build.calls": (stats.calls["variational.state_build"], "count"),
        "variational.state_build.self_s": (stats.self_time["variational.state_build"], "s"),
        "variational.kl_term_gradient.self_s": (stats.self_time["variational.kl_term_gradient"], "s"),
        "variational.transform.self_s": (stats.self_time["variational.transform"], "s"),
        "optimizer.train.self_s": (stats.self_time["optimizer.train"], "s"),
        "optimizer.step_halvings": (traced[3], "count"),
        "optimizer.checkpoint.calls": (stats.calls["optimizer.checkpoint"], "count"),
        "optimizer.checkpoint.s": (stats.total["optimizer.checkpoint"], "s"),
        "optimizer.checkpoint.bytes": (stats.amount["optimizer.checkpoint"], "B"),
        "localmodel.build_local_gram.calls": (stats.calls["localmodel.build_local_gram"], "count"),
        "localmodel.build_local_gram.self_s": (stats.self_time["localmodel.build_local_gram"], "s"),
        "predict.predict_batch.self_s": (stats.self_time["predict.predict_batch"], "s"),
        "predict.assign_blocks.s": (stats.total["predict.assign_blocks"], "s"),
        "predict.blocks_hit": (blocks_hit, "count"),
        "predict.point_draws_per_factorization": (
            run.inp.x_test.shape[0] * w.predict_draws / max(bulk_grams, 1), "ratio"
        ),
        "partition.kmeans_partition.s": (stats.total["partition.kmeans_partition"], "s"),
        "partition.block_rows_max": (int(sizes.max()), "rows"),
        "partition.block_rows_cv": (float(sizes.std() / sizes.mean()), "ratio"),
        "model_io.save_model.s": (stats.total["model_io.save_model"], "s"),
        "model_io.load_model.s": (stats.total["model_io.load_model"], "s"),
        "model_io.model_bytes": (os.path.getsize(run.model_path), "B"),
        "trace.overhead_pct": (100.0 * (traced[0] / plain[0] - 1.0), "%"),
        "test_rmse": (quality["test_rmse"], "target"),
        "test_mnlp": (quality["test_mnlp"], "nats"),
    }
    run.report.update(quality, spans=len(tracer.spans), untraced_train_s=plain[0],
                      traced_train_s=traced[0])
    return correct, metrics, tracer
