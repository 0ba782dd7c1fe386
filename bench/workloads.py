"""One measured run of one benchmark workload, in a fresh interpreter.

run.py starts this file as a child process, so the peak memory it
reports belongs to the workload and its pool workers alone.  The child
prints one JSON object as the last line of its standard output.

Workloads (closed loop, one client: each pass starts when the previous
one has finished and been checked):

  grid_n1000      the paper's grid through ``cli.main(["simulate", ...])``:
                  four model-correctness scenarios plus reversed
                  both-wrong, n=1000, all 10 estimators, one worker
  grid_n200_w2    the same grid at n=200 with two pool workers
  sensitivity_2x2 ``run_sensitivity`` with DR_WLS on a 2x2 grid of Z- and
                  X-column models over one n=1000 sample

Every pass gets its own seed drawn from ``--seed``, so the program never
sees the same input twice in a run, and a pass whose outputs fail a
check stops the run before its time is counted.
"""

import argparse
import contextlib
import csv
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from drmean import cli, sensitivity
from drmean.dgp import generate_sample

import machine
from layers import Tracer

MU_TRUE = 210.0
ESTIMATORS = ("OLS", "HT", "IPW_POP", "DR_REG", "DR_WLS", "DR_IPW_NR",
              "DR_EXT_REG", "B_DR_REG", "B_DR_EXT", "FULL")
SCENARIOS = tuple((p, m) for p in (True, False) for m in (True, False))
# Rows checked against a band around 210, besides FULL: with a correct
# outcome model, OLS and the doubly robust forms that one extreme inverse
# weight cannot drag away (plug-in and bounded).  Left out: the unbounded
# DR_REG and DR_EXT_REG (one weight moved DR_REG's 50-rep mean at n=200 by
# 3.25, DR_EXT_REG's by far more), and the pi-right-m-wrong scenario, which
# rests on the weights alone and is heavy-tailed at n=200.
WELL_BEHAVED = ("OLS", "DR_WLS", "DR_IPW_NR", "B_DR_REG", "B_DR_EXT")
BANDED_SCENARIOS = ("pi_right_m_right", "pi_wrong_m_right")
# |mean - 210| <= BAND * sqrt(1000 / n) / sqrt(reps).  Over 300 passes at
# n=1000 (10 reps) and 250 at n=200 (50 reps), the largest
# |mean - 210| * sqrt(reps) * sqrt(n / 1000) among these rows was 3.4, so
# the band holds for any seed, while a wrongly wired estimator misses it.
BAND = 10.0

GRIDS = {
    "grid_n1000": {"n": 1000, "reps": 10, "workers": 1},
    "grid_n200_w2": {"n": 200, "reps": 50, "workers": 2},
}
SENS_N = 1000
SENS_BOOT = 25
SENS_LINES = 4  # two rows and two columns of the 2x2 grid
# |cell - mean of the sample's complete outcomes| for the three cells with
# a correct model was at most 2.85 over 600 seeds (median 0.47)
SENS_BAND = 4.5


class CheckFailed(Exception):
    """An output check failed; the run reports correct=false."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------------ grids


class Grid:
    """The paper grid as two ``drmean simulate`` configs per pass."""

    def __init__(self, n, reps, workers, workdir: Path):
        self.n, self.reps, self.workers = n, reps, workers
        self.workdir = workdir
        self.units_per_pass = reps * (len(SCENARIOS) + 1)  # and reversed both-wrong

    def configs(self, tag: str, base_seed: int) -> list[tuple[Path, Path]]:
        """Write this pass's configs; returns (config, output dir) pairs."""
        scenarios = [{"pi_correct": p, "m_correct": m} for p, m in SCENARIOS]
        common = {"base_seed": base_seed, "reps": self.reps,
                  "sample_sizes": [self.n], "estimators": list(ESTIMATORS)}
        jobs = []
        for part, extra in (("grid", {"scenarios": scenarios}),
                            ("reversed", {"scenarios": [scenarios[3]],
                                          "reverse_roles": True})):
            path = self.workdir / f"{tag}-{part}.json"
            path.write_text(json.dumps({**common, **extra}))
            jobs.append((path, self.workdir / f"{tag}-{part}"))
        return jobs

    def run(self, jobs, workers: int) -> None:
        for config, out in jobs:
            rc = cli.main(["simulate", "--config", str(config), "--out", str(out),
                           "--workers", str(workers)])
            _require(rc == 0, f"simulate exited {rc} on {config.name}")

    def check(self, jobs) -> tuple[int, int]:
        """Check one pass's results.csv files; returns (attempted, failed)."""
        rows = {}
        for _, out in jobs:
            with open(out / "results.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    rows[(row["scenario"], row["estimator"])] = row
        labels = [f"pi_{'right' if p else 'wrong'}_m_{'right' if m else 'wrong'}"
                  for p, m in SCENARIOS] + ["pi_wrong_m_wrong_reversed"]
        half_width = BAND * math.sqrt(1000 / self.n) / math.sqrt(self.reps)
        failed = 0
        for label in labels:
            for name in ESTIMATORS:
                row = rows.get((label, name))
                _require(row is not None, f"row {label}/{name} missing")
                _require(int(row["n"]) == self.n and int(row["reps"]) == self.reps,
                         f"row {label}/{name} has the wrong n or reps")
                failed += int(row["failures"])
                bias = float(row["bias"])  # NaN when every replication failed
                if math.isnan(bias):
                    continue
                if name == "FULL" or (label in BANDED_SCENARIOS and name in WELL_BEHAVED):
                    _require(abs(bias) <= half_width,
                             f"{label}/{name} mean is {MU_TRUE + bias!r}, outside "
                             f"210 +- {half_width:.3f}")
        _require(len(rows) == len(labels) * len(ESTIMATORS), "unexpected extra rows")
        return len(labels) * len(ESTIMATORS) * self.reps, failed


def _outputs(jobs) -> list[bytes]:
    return [(out / f).read_bytes() for _, out in jobs
            for f in ("results.csv", "metadata.json")]


# ------------------------------------------------------------ sensitivity


class Sensitivity:
    """The criterion-8 set-up: DR_WLS over Z and X models on one sample."""

    def __init__(self, seed: int):
        sample = generate_sample(SENS_N, seed)
        self.full_mean = float(np.mean(sample.Y))
        self.cov = np.hstack([sample.Z, sample.X])
        self.T = sample.T
        self.y = np.where(sample.T == 1, sample.Y, np.nan)
        z, x = (0, 1, 2, 3), (4, 5, 6, 7)
        self.p_specs = [sensitivity.ModelSpec("propensity", z),
                        sensitivity.ModelSpec("propensity", x)]
        self.o_specs = [sensitivity.ModelSpec("outcome", z),
                        sensitivity.ModelSpec("outcome", x)]
        self.units_per_pass = SENS_BOOT * SENS_LINES

    def run(self, boot_seed: int):
        return sensitivity.run_sensitivity(
            self.cov, self.T, self.y, self.p_specs, self.o_specs, "DR_WLS",
            boot_reps=SENS_BOOT, seed=boot_seed)

    def check(self, out) -> tuple[int, int]:
        e = out.estimates
        _require(bool(np.all(np.isfinite(e))), f"matrix has failed cells: {e.tolist()}")
        near = [float(e[0, 0]), float(e[0, 1]), float(e[1, 0])]
        _require(max(abs(v - self.full_mean) for v in near) <= SENS_BAND,
                 f"cells with a correct model {near} are not within {SENS_BAND} of "
                 f"the complete-data mean {self.full_mean!r}")
        # both-wrong DR_WLS is biased low by about 3, far beyond the
        # noise between cells of one sample, so it is always the minimum
        _require(e[1, 1] == e.min(),
                 f"doubly misspecified cell is not the worst: {e.tolist()}")
        tests = out.row_tests + out.col_tests
        _require(all(0.0 <= t.p_value <= 1.0 for t in tests),
                 f"p-values outside [0, 1]: {[t.p_value for t in tests]}")
        failed = len(out.cell_messages) + sum(t.boot_failures for t in tests)
        attempted = e.size + sum(t.n_boot_used + t.boot_failures for t in tests)
        return attempted, failed


# ----------------------------------------------------------- closed loop


class Workload:
    """Binds one workload to the closed loop: run, check, repeat."""

    def __init__(self, name: str, seed: int, workdir: Path):
        rng = random.Random(seed)
        # pass i always gets the same input for a given --seed
        self.seeds = [rng.getrandbits(62) for _ in range(10_000)]
        self.warmup_seed = rng.getrandbits(62)
        if name in GRIDS:
            self.grid = Grid(workdir=workdir, **GRIDS[name])
            self.workers = self.grid.workers
            self.units_per_pass = self.grid.units_per_pass
            self.slice_seed = rng.getrandbits(62)
        else:
            self.grid = None
            self.sens = Sensitivity(seed)
            self.workers = 1
            self.units_per_pass = self.sens.units_per_pass
        self.attempted = 0
        self.failed = 0
        self.first_outputs = None

    def one_pass(self, i: int | None, workers: int, tag: str) -> tuple[float, object, int, int]:
        """Run and check pass i (None: the warm-up pass).

        Returns the seconds it took, its outputs to compare by, and the
        estimates (grids) or cells and draws (sensitivity) it attempted
        and saw fail.
        """
        seed = self.warmup_seed if i is None else self.seeds[i]
        if self.grid is not None:
            jobs = self.grid.configs(f"{tag}{i}", seed)
            start = time.perf_counter()
            self.grid.run(jobs, workers)
            elapsed = time.perf_counter() - start
            attempted, failed = self.grid.check(jobs)
            outputs = _outputs(jobs)
        else:
            start = time.perf_counter()
            out = self.sens.run(seed)
            elapsed = time.perf_counter() - start
            attempted, failed = self.sens.check(out)
            outputs = json.dumps(out.to_dict(), sort_keys=True)
        return elapsed, outputs, attempted, failed

    def loop(self, seconds: float, modes) -> tuple[list[list[float]], list[list[float]]]:
        """Closed loop for ``seconds``.

        ``modes`` holds (workers, tracer or None) pairs.  Round i runs pass
        i once in every mode, in turn, and the modes must agree byte for
        byte.  Returns each mode's units per second by pass, scaled to the
        nominal machine speed (see machine.py), and each mode's raw pass
        times.  What the passes attempted and saw fail adds to the run's
        totals.
        """
        rates: list[list[float]] = [[] for _ in modes]
        times: list[list[float]] = [[] for _ in modes]
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            for k, (workers, tracer) in enumerate(modes):
                before = machine.reference_seconds()
                with tracer or contextlib.nullcontext():
                    elapsed, outputs, attempted, failed = self.one_pass(i, workers, f"m{k}-")
                scale = machine.speed_scale(before, machine.reference_seconds())
                self.attempted += attempted
                self.failed += failed
                if k == 0:
                    first = outputs
                _require(outputs == first, f"pass {i} differs between modes 0 and {k}")
                rates[k].append(self.units_per_pass / (elapsed * scale))
                times[k].append(elapsed)
            if i == 0:
                self._same_as_first(first, "pass 0")
            i += 1
        return rates, times

    def _same_as_first(self, outputs, what: str) -> None:
        if self.first_outputs is None:
            self.first_outputs = outputs
        _require(outputs == self.first_outputs, f"{what} differs from the first pass 0")

    def repeat_checks(self) -> None:
        """Same seed, same bytes; and one worker agrees with two."""
        again = self.one_pass(0, self.workers, "repeat")[1]
        self._same_as_first(again, "pass 0 repeated")
        if self.grid is not None:
            small = Grid(150, 8, 2, self.grid.workdir)
            outs = []
            for workers in (1, 2):
                jobs = small.configs(f"slice-w{workers}-", self.slice_seed)
                jobs = jobs[1:]  # the reversed both-wrong scenario
                small.run(jobs, workers)
                outs.append(_outputs(jobs))
            _require(outs[0] == outs[1], "workers=1 and workers=2 outputs differ")


def _peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus ``workers`` times the largest pool child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def measure(w: Workload, seconds: float, trace: bool, spans_path: Path) -> dict:
    w.one_pass(None, w.workers, "warmup")
    if not trace:
        (rates,), (times,) = w.loop(seconds, [(w.workers, None)])
        peak = _peak_rss_mb(w.workers)
        # one unit of work per workload: a replication on the grids and a
        # bootstrap draw along one line on sensitivity_2x2 each draw one
        # sample and estimate on it, so both names carry the same rate
        rate = statistics.median(rates)
        metrics = {"reps_per_s": (rate, "1/s"), "boot_draws_per_s": (rate, "1/s"),
                   "peak_rss_mb": (peak, "MB")}
        raw = [w.units_per_pass / t for t in times]
        detail = {"rates": rates, "raw_rates": raw, "raw_rate_p50": statistics.median(raw)}
    else:
        tracer = Tracer()
        if w.grid is not None:
            (untraced, traced, pooled), times = w.loop(
                seconds, [(1, None), (1, tracer), (2, None)])
            # busy time with one worker over twice the two-worker wall time
            efficiency = statistics.median(pooled) / (2 * statistics.median(untraced))
        else:
            (untraced, traced), times = w.loop(seconds, [(1, None), (1, tracer)])
            efficiency = 0.0
        # traced passes only: the checks between passes are not spans
        metrics = tracer.time_metrics(sum(times[1]))
        _require(metrics["trace.self_share_sum"] <= 1.0 + 1e-9,
                 "self-time shares add up to more than the wall time")
        metrics["mc.parallel_efficiency"] = efficiency
        metrics["trace.rate_ratio"] = statistics.median(traced) / statistics.median(untraced)
        metrics = {k: (v, _unit(k)) for k, v in metrics.items()}
        detail = {"untraced_rates": untraced, "traced_rates": traced,
                  "spans": len(tracer.spans)}
        tracer.write_spans(spans_path)
    w.repeat_checks()
    # counts come from one fixed pass, so they repeat exactly for a seed
    with Tracer() as counting:
        counted = w.one_pass(0, 1, "count")[1]
    w._same_as_first(counted, "pass 0 with counters")
    if trace:
        metrics.update((k, (v, _unit(k))) for k, v in counting.count_metrics().items())
    metrics["failed_share"] = (w.failed / w.attempted, "ratio")
    return {"correct": True, "attempted": w.attempted, "failed": w.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "counters": counting.counters(), "detail": detail, "machine": machine.facts()}


def _unit(name: str) -> str:
    if name.endswith((".ms_p50", ".ms_p99", ".self_ms")) or name == "mc.summarize.ms":
        return "ms"
    if name.endswith(("_mean", ".calls_per_fit", ".pi_fits_per_draw")) or ".failed." in name:
        return "count"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GRIDS) + ["sensitivity_2x2"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)
    w = Workload(args.workload, args.seed, args.workdir)
    try:
        result = measure(w, args.seconds, bool(args.trace), args.spans)
    except CheckFailed as exc:
        print(json.dumps({"correct": False, "error": str(exc),
                          "attempted": max(1, w.attempted), "failed": w.failed,
                          "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
