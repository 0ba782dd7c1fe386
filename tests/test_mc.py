import dataclasses
import math
import multiprocessing
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drmean import _util, cli, linmod, mc
from drmean import estimators as est
from drmean._util import derive_seed
from drmean.dgp import generate_sample, make_view, reverse_roles
from drmean.errors import DegenerateInputError, InvalidArgumentError


class TestSummarize:
    def test_three_point_example(self):
        s = mc.summarize(np.array([1.0, 2.0, 3.0]), mu_true=2.0)
        assert s.n_used == 3
        assert s.mean == 2.0
        assert s.bias == 0.0
        assert s.variance == 1.0
        assert np.isclose(s.mse, 2.0 / 3.0, rtol=1e-15)
        assert s.skewness == 0.0
        assert s.quantiles[50] == 2.0
        assert np.isclose(s.quantiles[25], 1.5, rtol=1e-15)
        assert np.isclose(s.quantiles[75], 2.5, rtol=1e-15)
        assert np.isclose(s.quantiles[1], 1.02, rtol=1e-12)
        assert np.isclose(s.quantiles[99], 2.98, rtol=1e-12)
        assert s.minimum == 1.0
        assert s.maximum == 3.0

    def test_constant_values(self):
        s = mc.summarize(np.full(5, 7.0), mu_true=7.0)
        assert s.bias == 0.0
        assert s.variance == 0.0
        assert s.mse == 0.0
        assert s.skewness == 0.0

    def test_single_value(self):
        s = mc.summarize(np.array([7.0]), mu_true=6.0)
        assert s.bias == 1.0
        assert math.isnan(s.variance)
        assert s.mse == 1.0

    def test_asymmetry_sign(self):
        s = mc.summarize(np.array([0.0, 0.0, 0.0, 10.0]), mu_true=0.0)
        assert s.skewness > 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=50),
        mu=st.floats(-1e6, 1e6, allow_nan=False),
    )
    # a bias of 76 next to a mean near 1e6
    @example(values=[997670.0, 997581.9999999999], mu=997550.0)
    def test_mse_decomposition(self, values, mu):
        s = mc.summarize(np.array(values), mu)
        r = len(values)
        lhs = s.mse
        rhs = s.bias**2 + s.variance * (r - 1) / r
        assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("values", [[1e200, -1e200], [1e308, 1e308]])
    def test_overflowing_moments_are_degenerate(self, values):
        with pytest.raises(DegenerateInputError, match="overflow"):
            mc.summarize(np.array(values), 0.0)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            mc.summarize(np.array([]), 0.0)
        with pytest.raises(InvalidArgumentError):
            mc.summarize(np.array([1.0, math.nan]), 0.0)

    def test_quantile_levels_fixed(self):
        assert mc.QUANTILE_LEVELS == (1, 5, 25, 50, 75, 95, 99)


class TestScenarioSpec:
    def test_labels(self):
        spec = mc.ScenarioSpec(n=10, reps=1, pi_model_correct=True, m_model_correct=False)
        assert spec.label() == "pi_right_m_wrong"
        spec = mc.ScenarioSpec(
            n=10, reps=1, pi_model_correct=False, m_model_correct=True, reverse=True
        )
        assert spec.label() == "pi_wrong_m_right_reversed"

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            mc.ScenarioSpec(n=1, reps=1, pi_model_correct=True, m_model_correct=True)
        with pytest.raises(InvalidArgumentError):
            mc.ScenarioSpec(n=10, reps=0, pi_model_correct=True, m_model_correct=True)
        with pytest.raises(InvalidArgumentError):
            mc.ScenarioSpec(
                n=10, reps=1, pi_model_correct=True, m_model_correct=True,
                estimators=("OLS", "NOPE"),
            )
        with pytest.raises(InvalidArgumentError):
            mc.ScenarioSpec(
                n=10, reps=1, pi_model_correct=True, m_model_correct=True,
                base_seed=-1,
            )

    def test_base_seed_beyond_64_bits_rejected(self):
        with pytest.raises(InvalidArgumentError, match=r"base_seed must be in \[0, 2\*\*64\)"):
            mc.ScenarioSpec(n=10, reps=1, pi_model_correct=True, m_model_correct=True,
                            base_seed=2**64)
        spec = mc.ScenarioSpec(n=10, reps=1, pi_model_correct=True, m_model_correct=True,
                               base_seed=2**64 - 1)
        assert spec.base_seed == 2**64 - 1

    @pytest.mark.parametrize(
        "field, value",
        [("n", 200.5), ("reps", 2.5), ("base_seed", 1.5), ("n", "200"), ("base_seed", None)],
    )
    def test_non_integer_fields_rejected(self, field, value):
        kwargs = {"n": 200, "reps": 2, "pi_model_correct": True, "m_model_correct": True}
        with pytest.raises(InvalidArgumentError, match=f"{field} must be an integer"):
            mc.ScenarioSpec(**{**kwargs, field: value})

    def test_integer_fields_stored_as_ints(self):
        spec = mc.ScenarioSpec(n=np.int64(200), reps=np.int32(2), pi_model_correct=True,
                               m_model_correct=True, base_seed=np.uint64(7))
        assert (spec.n, spec.reps, spec.base_seed) == (200, 2, 7)
        assert all(type(v) is int for v in (spec.n, spec.reps, spec.base_seed))

    def test_duplicate_estimators_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mc.ScenarioSpec(
                n=10, reps=1, pi_model_correct=True, m_model_correct=True,
                estimators=("OLS", "OLS"),
            )

    @pytest.mark.parametrize("field, value, message",
                             [("reps", True, "reps must be an integer >= 1"),
                              ("n", True, "n must be an integer >= 2"),
                              ("n", 1, "n must be an integer >= 2"),
                              ("base_seed", False, "base_seed must be an integer")])
    def test_bool_and_small_counts_rejected(self, field, value, message):
        # reps=True ran one replication
        kwargs = {"n": 200, "reps": 2, "pi_model_correct": True, "m_model_correct": True}
        with pytest.raises(InvalidArgumentError, match=message):
            mc.ScenarioSpec(**{**kwargs, field: value})

    @pytest.mark.parametrize("field", ["pi_model_correct", "m_model_correct", "reverse"])
    @pytest.mark.parametrize("value", ["no", 0, 1, None, [True]])
    def test_flags_must_be_booleans(self, field, value):
        # pi_model_correct="no" ran, and was labelled as, the correct model
        kwargs = {"n": 100, "reps": 3, "pi_model_correct": True, "m_model_correct": False,
                  "base_seed": 1}
        with pytest.raises(InvalidArgumentError, match=f"{field} must be a boolean"):
            mc.ScenarioSpec(**{**kwargs, field: value})

    def test_numpy_bool_flags_accepted(self):
        spec = mc.ScenarioSpec(n=10, reps=1, pi_model_correct=np.True_,
                               m_model_correct=np.False_, reverse=np.bool_(True))
        assert spec.label() == "pi_right_m_wrong_reversed"

    @pytest.mark.parametrize("estimators", [(["OLS"],), (1,), 5, None],
                             ids=["list-name", "int-name", "scalar", "none"])
    def test_estimator_names_must_be_strings(self, estimators):
        # a list name raised TypeError: unhashable type: 'list'
        with pytest.raises(InvalidArgumentError, match="estimator"):
            mc.ScenarioSpec(n=10, reps=1, pi_model_correct=True, m_model_correct=True,
                            estimators=estimators)

    def test_estimator_names_stored_as_a_tuple(self):
        spec = mc.ScenarioSpec(n=10, reps=1, pi_model_correct=True, m_model_correct=True,
                               estimators=["OLS", "HT"])
        assert spec.estimators == ("OLS", "HT")


SMALL = mc.ScenarioSpec(
    n=60, reps=12, pi_model_correct=False, m_model_correct=False, base_seed=911
)


def rows_equal(a, b):
    for name in a:
        ra, rb = a[name], b[name]
        for f in ("n_used", "failures", "mean", "bias", "variance", "mse",
                  "skewness", "minimum", "maximum"):
            va, vb = getattr(ra, f), getattr(rb, f)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb), (name, f)
            else:
                assert va == vb, (name, f)
        assert ra.quantiles == rb.quantiles, name
    return True


class TestRunScenario:
    def test_rerun_is_bitwise_identical(self):
        a = mc.run_scenario(SMALL)
        b = mc.run_scenario(SMALL)
        assert rows_equal(a.rows, b.rows)

    def test_worker_count_does_not_change_results(self):
        a = mc.run_scenario(SMALL, workers=1)
        b = mc.run_scenario(SMALL, workers=3)
        assert rows_equal(a.rows, b.rows)

    def test_replication_recomputable_in_isolation(self):
        # a task is one replication of a group of specs on one sample
        group = (SMALL, dataclasses.replace(SMALL, pi_model_correct=True))
        batch = [mc._replicate((r, group)) for r in range(SMALL.reps)]
        alone = mc._replicate((7, group))
        assert alone == batch[7]

    def test_metadata_recorded(self):
        out = mc.run_scenario(SMALL)
        assert out.scenario is SMALL

    def test_failures_counted_per_estimator(self):
        # n close to the column count: many replications cannot fit the
        # five-coefficient models, but FULL never fails
        spec = mc.ScenarioSpec(
            n=6, reps=40, pi_model_correct=False, m_model_correct=False, base_seed=5
        )
        out = mc.run_scenario(spec)
        assert out.rows["FULL"].failures == 0
        assert out.rows["FULL"].n_used == 40
        assert sum(row.failures for row in out.rows.values()) > 0
        for name, row in out.rows.items():
            assert row.n_used + row.failures == 40, name

    def test_skewness_signs_under_double_misspecification(self):
        spec = mc.ScenarioSpec(
            n=200, reps=150, pi_model_correct=False, m_model_correct=False,
            base_seed=3, estimators=("HT", "DR_REG"),
        )
        out = mc.run_scenario(spec)
        assert out.rows["HT"].skewness > 0.0
        assert out.rows["DR_REG"].skewness < 0.0

    def test_worker_validation(self):
        with pytest.raises(InvalidArgumentError):
            mc.run_scenario(SMALL, workers=0)

    @pytest.mark.parametrize("workers", [1.5, "2", None])
    def test_non_integer_workers_rejected(self, workers):
        with pytest.raises(InvalidArgumentError, match="workers must be an integer"):
            mc.run_scenario(SMALL, workers=workers)

    @pytest.mark.parametrize("workers", [True, 0, -1])
    def test_bool_and_small_worker_counts_rejected(self, workers):
        with pytest.raises(InvalidArgumentError, match="workers must be an integer >= 1"):
            mc.run_scenario(SMALL, workers=workers)


MIXED = (
    SMALL,
    mc.ScenarioSpec(n=40, reps=5, pi_model_correct=True, m_model_correct=False,
                    reverse=True, base_seed=911, estimators=("DR_WLS", "OLS")),
    mc.ScenarioSpec(n=80, reps=1, pi_model_correct=True, m_model_correct=True,
                    base_seed=4, estimators=("FULL",)),
    mc.ScenarioSpec(n=6, reps=7, pi_model_correct=False, m_model_correct=True,
                    base_seed=5),
    # each shares n, base_seed and reverse with a spec above, so they run
    # on the same samples, with unequal reps
    mc.ScenarioSpec(n=60, reps=9, pi_model_correct=True, m_model_correct=False,
                    base_seed=911, estimators=("B_DR_REG", "OLS", "DR_REG")),
    mc.ScenarioSpec(n=40, reps=8, pi_model_correct=False, m_model_correct=False,
                    reverse=True, base_seed=911),
    mc.ScenarioSpec(n=6, reps=4, pi_model_correct=False, m_model_correct=False,
                    base_seed=5),
    mc.ScenarioSpec(n=60, reps=12, pi_model_correct=True, m_model_correct=True,
                    base_seed=911, estimators=("HT", "FULL")),
    # a second base seed at n=60
    mc.ScenarioSpec(n=60, reps=5, pi_model_correct=True, m_model_correct=True,
                    base_seed=3),
)


class TestRunScenarios:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_one_run_per_scenario(self, workers):
        alone = [mc.run_scenario(spec) for spec in MIXED]
        together = mc.run_scenarios(MIXED, workers=workers)
        assert len(together) == len(MIXED)
        for a, b in zip(alone, together):
            assert b.scenario is a.scenario
            assert list(b.rows) == list(a.rows)
            assert rows_equal(a.rows, b.rows)

    def test_no_specs(self):
        assert mc.run_scenarios([], workers=2) == []

    def test_each_process_takes_every_kth_task_of_each_group(self, monkeypatch):
        # interleaved shares: within every group, the task of replication r
        # and that of r + k run in one process, and k successive ones in k
        # processes, so mixed sizes balance whatever the group order
        seen = []

        def spy(fn, tasks, workers):
            seen.extend(_util.ordered_map(_pid_and_group, tasks, workers))
            return _util.ordered_map(fn, tasks, workers)

        monkeypatch.setattr(mc, "ordered_map", spy)
        k = 3
        together = mc.run_scenarios(MIXED, workers=k)
        groups: dict = {}
        for pid, key, r in seen:
            groups.setdefault(key, []).append((r, pid))
        assert len(groups) == 5
        for key, runs in groups.items():
            pids = [pid for _, pid in sorted(runs)]
            assert pids[k:] == pids[:-k], key
            assert len(set(pids[:k])) == min(k, len(pids)), key
        assert len({pid for pid, _, _ in seen}) == k
        assert os.getpid() in {pid for pid, _, _ in seen}
        for spec, summary in zip(MIXED, together):
            assert rows_equal(mc.run_scenario(spec).rows, summary.rows)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_simulate_starts_one_child_per_extra_worker(self, tmp_path, monkeypatch,
                                                        workers):
        started = count_children(monkeypatch)
        config = tmp_path / "config.json"
        config.write_text(
            '{"base_seed": 1, "reps": 3, "sample_sizes": [30, 40], "estimators": ["OLS"]}'
        )
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out),
                       "--workers", str(workers)])
        assert rc == 0
        assert len(started) == workers - 1
        assert multiprocessing.active_children() == []
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 4 * 2

    def test_no_child_outlives_a_failed_run(self, monkeypatch):
        monkeypatch.setattr(mc, "_replicate", _fail_in_child)
        with pytest.raises(ZeroDivisionError, match="replication 1"):
            mc.run_scenarios([SMALL], workers=2)
        assert multiprocessing.active_children() == []

    def test_simulate_exits_1_when_a_child_dies(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(mc, "_replicate", _exit_in_child)
        config = tmp_path / "config.json"
        config.write_text('{"base_seed": 1, "reps": 4, "sample_sizes": [30]}')
        rc = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o"),
                       "--workers", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: worker process exited with code 3 before sending its results\n"
        assert multiprocessing.active_children() == []

    def test_spawned_children_give_the_same_summaries(self, monkeypatch):
        # spawn and forkserver children import drmean afresh and receive
        # _replicate and the tasks pickled
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: get_context("spawn"))
        specs = MIXED[:2]
        together = mc.run_scenarios(specs, workers=2)
        for spec, summary in zip(specs, together):
            assert rows_equal(mc.run_scenario(spec).rows, summary.rows)
        assert multiprocessing.active_children() == []


def _pid_and_group(task):
    """The process that ran a task, the task's group and its replication."""
    r, specs = task
    return os.getpid(), (specs[0].n, specs[0].base_seed, specs[0].reverse), r


_REPLICATE = mc._replicate


def _fail_in_child(task):
    if multiprocessing.parent_process() is not None:
        raise ZeroDivisionError(f"replication {task[0]}")
    return _REPLICATE(task)


def _exit_in_child(task):
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return _REPLICATE(task)


def count_children(monkeypatch) -> list:
    """Patch the default multiprocessing context so that each child process
    it makes is recorded; returns the list of their shares."""
    started = []
    get_context = multiprocessing.get_context

    def counting_get_context(*args, **kwargs):
        ctx = get_context(*args, **kwargs)

        class Counting:
            def __getattr__(self, name):
                return getattr(ctx, name)

            def Process(self, *proc_args, **proc_kwargs):
                started.append(proc_kwargs["args"][1])
                return ctx.Process(*proc_args, **proc_kwargs)

        return Counting()

    monkeypatch.setattr(multiprocessing, "get_context", counting_get_context)
    return started


def four_scenarios(n, reps, base_seed, reverse=False):
    """The four model-correctness scenarios of one size: one group."""
    return tuple(
        mc.ScenarioSpec(n=n, reps=reps, pi_model_correct=p, m_model_correct=m,
                        reverse=reverse, base_seed=base_seed)
        for p in (True, False) for m in (True, False)
    )


def as_compared(result):
    """An EstimateSet's values, flags, messages and diagnostics; repr keeps
    NaN values comparable and every float exact."""
    return repr(result.values), result.flags, result.messages, repr(result.diagnostics)


class TestSharedReplication:
    """Scenarios of one size, base seed and reversal share each
    replication's sample and its single-design fits."""

    def test_work_per_replication(self, monkeypatch):
        # one sample per replication; one fit per distinct propensity and
        # unweighted outcome design (Z and X); the fits that need both
        # designs once per scenario
        reps = 3
        calls = Counter()

        def spy(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(mc, "generate_sample")
        for name in ("fit_logistic_propensity", "fit_outcome_reg", "weight_diagnostics",
                     "fit_outcome_wls", "fit_outcome_ipw_nr", "fit_outcome_ext_reg",
                     "fit_extended_propensity"):
            spy(linmod, name)
        out = mc.run_scenarios(four_scenarios(200, reps, base_seed=7))
        assert all(row.failures == 0 for summary in out for row in summary.rows.values())
        assert calls == {
            "generate_sample": reps,
            "fit_logistic_propensity": 2 * reps,
            "fit_outcome_reg": 2 * reps,
            "weight_diagnostics": 2 * reps,
            "fit_outcome_wls": 4 * reps,
            "fit_outcome_ipw_nr": 4 * reps,
            "fit_outcome_ext_reg": 4 * reps,
            "fit_extended_propensity": 4 * reps,
        }

    @pytest.mark.parametrize("n, base_seed, reps, reverse", [
        (200, 1, 3, False),
        (200, 2, 3, True),
        (1000, 3, 2, False),
        (10, 5, 10, False),  # most fits fail
    ])
    def test_equals_standalone_estimate_all(self, monkeypatch, n, base_seed, reps, reverse):
        # each scenario's EstimateSet in a shared replication equals
        # estimate_all on its own view with no shared caches
        group = four_scenarios(n, reps, base_seed, reverse)
        shared = []
        estimate_all = mc.estimate_all

        def recording(*args, **kwargs):
            shared.append(estimate_all(*args, **kwargs))
            return shared[-1]

        monkeypatch.setattr(mc, "estimate_all", recording)
        pi_fits = []
        fit_logistic = linmod.fit_logistic_propensity
        monkeypatch.setattr(linmod, "fit_logistic_propensity",
                            lambda *a, **k: pi_fits.append(a) or fit_logistic(*a, **k))
        shared_failures = 0
        for r in range(reps):
            shared.clear()
            pi_fits.clear()
            mc._replicate((r, group))
            assert len(pi_fits) == 2  # a failed fit is not retried either
            sample = generate_sample(n, derive_seed(base_seed, r))
            if reverse:
                sample = reverse_roles(sample)
            assert len(shared) == len(group)
            for spec, got in zip(group, shared):
                view = make_view(sample, spec.pi_model_correct, spec.m_model_correct)
                want = est.estimate_all(view, sample, spec.estimators)
                assert as_compared(got) == as_compared(want), (r, spec.label())
            # specs 0 and 1 share the Z propensity fit, 2 and 3 the X one
            ht = [got.messages.get("HT") for got in shared]
            shared_failures += sum(ht[k] is not None and ht[k] == ht[k + 1] for k in (0, 2))
        # with n = 10 a failed propensity fit reaches both of its sharers
        assert shared_failures > 0 if n == 10 else shared_failures == 0


class TestValueVectors:
    # each raised numpy's TypeError or ValueError
    def test_summarize_needs_1d_values(self):
        with pytest.raises(InvalidArgumentError, match="values must be 1-d"):
            mc.summarize(np.ones((3, 2)), 0.0)
