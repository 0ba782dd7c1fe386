"""Layer spans and counters recorded from outside the package.

drmean's layers call each other through module attributes
(``mc.generate_sample``, ``linmod.fit_outcome_wls``,
``linmod.fsum_col_means``, ...).  While a Tracer is active those
attributes are replaced by wrappers, so a span is recorded at every layer
boundary without editing the package.  Each span keeps its name, start,
end, parent span and the replication or bootstrap draw it belongs to.
Spans stay in memory and are written out when the run ends.

Counters are read at the same boundaries: iteration counts from the fit
objects the wrapped functions return, call counts from the wrappers,
and failures by exception class from what ``estimate_all`` and
``build_matrix`` report or what escapes a bootstrap cell.  They repeat
exactly for a given seed.

Spans recorded in pool worker processes are lost, so traced passes run
with one worker.
"""

import csv
import math
import time
from collections import Counter, defaultdict

import numpy as np

from drmean import cli, linmod, mc, sensitivity

OUTCOME_KINDS = ("reg", "wls", "ext_reg", "ipw_nr")
IRLS_FITS = ("linmod.fit_logistic_propensity",) + tuple(
    f"linmod.fit_outcome_{k}" for k in OUTCOME_KINDS
)
FAILURE_CLASSES = (
    "InvalidArgumentError",
    "SingularDesignError",
    "NonconvergenceError",
    "InvalidWeightError",
    "InfeasibleConstraintError",
    "NoRootError",
    "UndefinedEstimatorError",
    "DegenerateInputError",
)


def _failure_class(name: str) -> str:
    return name if name in FAILURE_CLASSES else "other"


def _class_of(message: str) -> str:
    """Failure class from a ``"Class: text"`` failure message."""
    return _failure_class(message.split(":", 1)[0])


class Tracer:
    """Context manager that wraps the layer boundaries and records spans."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, unit id)
        self._stack: list[int] = []
        self._patches: list = []
        self.unit = -1  # current replication (grids) or bootstrap draw
        self.iterations: dict[str, list[int]] = defaultdict(list)
        self.failures: Counter = Counter()
        self.pi_fits = 0
        self.pi_distinct = 0
        self.pi_fits_in_draws = 0
        self.boot_draws = 0
        self._pi_seen: set = set()
        self._line_len = 1
        self._cells_in_line = 0
        self._in_line_test = False

    def _wrap(self, module, attr, name, before=None, after=None, on_error=None):
        fn = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.unit)
            if after is not None:
                after(args, out)
            return out

        self._patches.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def __enter__(self):
        w = self._wrap
        w(cli, "cmd_simulate", "cli.simulate")
        w(cli, "run_scenario", "mc.run_scenario")
        w(mc, "generate_sample", "dgp.generate_sample", before=self._next_unit)
        w(mc, "make_view", "dgp.make_view")
        w(mc, "estimate_all", "estimators.estimate_all",
          before=self._new_scope, after=self._after_estimate_all)
        w(mc, "summarize", "mc.summarize")
        w(sensitivity, "build_matrix", "sensitivity.build_matrix",
          before=self._new_scope, after=self._after_build_matrix)
        w(sensitivity, "homogeneity_test", "sensitivity.homogeneity_test",
          before=self._before_line_test, after=self._after_line_test)
        # private, but it is the one boundary that sees a single bootstrap
        # cell, so draw ids and the classes of failed draws come from it
        w(sensitivity, "_estimate_cell", "sensitivity.cell",
          before=self._before_cell, on_error=self._cell_failed)
        w(linmod, "fit_logistic_propensity", "linmod.fit_logistic_propensity",
          before=self._before_pi_fit, after=self._iterations("newton_steps"))
        for kind in OUTCOME_KINDS:
            w(linmod, f"fit_outcome_{kind}", f"linmod.fit_outcome_{kind}",
              after=self._iterations(f"refine_passes.{kind}"))
        w(linmod, "fit_extended_propensity", "linmod.fit_extended_propensity",
          after=self._iterations("g_evals"))
        w(linmod, "fsum_col_means", "util.fsum_col_means")
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()
        return False

    # ---------------------------------------------------------- hooks

    def _next_unit(self, args):
        self.unit += 1

    def _new_scope(self, args):
        self._pi_seen = set()

    def _before_pi_fit(self, args):
        design, T = args[0], args[1]
        key = hash((np.asarray(design).tobytes(), np.asarray(T).tobytes()))
        self.pi_fits += 1
        if key not in self._pi_seen:
            self._pi_seen.add(key)
            self.pi_distinct += 1
        if self._in_line_test:
            self.pi_fits_in_draws += 1

    def _iterations(self, counter: str):
        def after(args, fit):
            self.iterations[counter].append(fit.iterations)

        return after

    def _after_estimate_all(self, args, result):
        for message in result.messages.values():
            self.failures[_class_of(message)] += 1

    def _after_build_matrix(self, args, out):
        for message in out[1].values():
            self.failures[_class_of(message)] += 1

    def _before_line_test(self, args):
        self._new_scope(args)
        self._line_len = max(1, len(args[5]))  # varying_specs
        self._cells_in_line = 0
        self._in_line_test = True

    def _after_line_test(self, args, result):
        self._in_line_test = False
        self.boot_draws += result.n_boot_used + result.boot_failures

    def _before_cell(self, args):
        if self._in_line_test:
            if self._cells_in_line % self._line_len == 0:
                self.unit += 1
            self._cells_in_line += 1

    def _cell_failed(self, exc):
        # a failing cell ends its draw, so this counts failed draws
        if self._in_line_test:
            self.failures[_failure_class(type(exc).__name__)] += 1

    # -------------------------------------------------------- results

    def counters(self) -> dict:
        """Deterministic counts: they repeat exactly for a given seed."""
        out = {
            f"{name}.calls": n
            for name, n in sorted(Counter(s[0] for s in self.spans).items())
        }
        for name, values in sorted(self.iterations.items()):
            out[f"{name}.total"] = int(sum(values))
        out["pi_fits"] = self.pi_fits
        out["pi_fits_distinct"] = self.pi_distinct
        out["pi_fits_in_draws"] = self.pi_fits_in_draws
        out["boot_draws"] = self.boot_draws
        for cls, n in sorted(self.failures.items()):
            out[f"failed.{cls}"] = n
        return out

    def count_metrics(self) -> dict:
        """Per-layer metrics made of counts; they repeat exactly."""
        calls = Counter(s[0] for s in self.spans)
        irls_fits = sum(calls[name] for name in IRLS_FITS)

        def mean(counter):
            v = self.iterations.get(counter)
            return float(np.mean(v)) if v else 0.0

        m = {"linmod.fit_logistic_propensity.newton_steps_mean": mean("newton_steps")}
        for kind in OUTCOME_KINDS:
            m[f"linmod.fit_outcome_{kind}.refine_passes_mean"] = mean(
                f"refine_passes.{kind}")
        m.update({
            "linmod.fit_extended_propensity.g_evals_mean": mean("g_evals"),
            "linmod.pi_fit_useful_ratio": (
                self.pi_distinct / self.pi_fits if self.pi_fits else 0.0),
            "util.fsum_col_means.calls_per_fit": (
                calls["util.fsum_col_means"] / irls_fits if irls_fits else 0.0),
            "sensitivity.pi_fits_per_draw": (
                self.pi_fits_in_draws / self.boot_draws if self.boot_draws else 0.0),
        })
        for cls in FAILURE_CLASSES + ("other",):
            m[f"estimators.failed.{cls}"] = float(self.failures.get(cls, 0))
        return m

    def time_metrics(self, wall_s: float) -> dict:
        """Per-layer times over ``wall_s`` seconds of traced work.

        A span's self time is its duration minus the time its child
        spans cover; a share is self time over ``wall_s``.
        """
        durations: dict[str, list[float]] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_s[name] += end - start - child[i]

        def ms(name, q=50):
            d = durations.get(name)
            return 1e3 * float(np.percentile(d, q)) if d else 0.0

        def share(name):
            return self_s.get(name, 0.0) / wall_s

        m = {
            "dgp.generate_sample.ms_p50": ms("dgp.generate_sample"),
            "dgp.make_view.ms_p50": ms("dgp.make_view"),
            "linmod.fit_logistic_propensity.ms_p50": ms("linmod.fit_logistic_propensity"),
            "linmod.fit_logistic_propensity.self_share": share(
                "linmod.fit_logistic_propensity"),
        }
        for kind in OUTCOME_KINDS:
            m[f"linmod.fit_outcome_{kind}.ms_p50"] = ms(f"linmod.fit_outcome_{kind}")
        cmd = durations.get("cli.simulate", ())
        m.update({
            "linmod.fit_outcome.self_share": sum(
                share(f"linmod.fit_outcome_{k}") for k in OUTCOME_KINDS),
            "linmod.fit_extended_propensity.ms_p50": ms("linmod.fit_extended_propensity"),
            "linmod.fit_extended_propensity.self_share": share(
                "linmod.fit_extended_propensity"),
            "util.fsum_col_means.self_share": share("util.fsum_col_means"),
            "estimators.estimate_all.ms_p50": ms("estimators.estimate_all"),
            "estimators.estimate_all.ms_p99": ms("estimators.estimate_all", 99),
            "estimators.estimate_all.self_share": share("estimators.estimate_all"),
            "mc.summarize.ms": ms("mc.summarize"),
            "mc.run_scenario.self_share": share("mc.run_scenario"),
            "sensitivity.homogeneity_test.ms_p50": ms("sensitivity.homogeneity_test"),
            "sensitivity.homogeneity_test.self_share": share(
                "sensitivity.homogeneity_test"),
            "sensitivity.cell.self_share": share("sensitivity.cell"),
            "cli.simulate.self_ms": (
                1e3 * self_s["cli.simulate"] / len(cmd) if cmd else 0.0),
            "trace.self_share_sum": math.fsum(self_s.values()) / wall_s,
        })
        return m

    def write_spans(self, path) -> None:
        """Write spans as CSV, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["index", "name", "start_s", "end_s", "parent", "unit"])
            for i, (name, start, end, parent, unit) in enumerate(self.spans):
                out.writerow([i, name, f"{start - t0:.9f}", f"{end - t0:.9f}",
                              parent, unit])
