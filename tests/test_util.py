import functools
import math
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drmean import _util, estimators, mc
from drmean.errors import (
    DegenerateInputError,
    DrmeanError,
    InvalidArgumentError,
    SingularDesignError,
    UndefinedEstimatorError,
)


class TestDeriveSeed:
    def test_splitmix64_known_answers(self):
        # Reference outputs of the splitmix64 stream started at 0.
        assert _util.derive_seed(0, 0) == 0xE220A8397B1DCDAF
        assert _util.derive_seed(0, 1) == 0x6E789E6AA1B965F4
        assert _util.derive_seed(0, 2) == 0x06C45D188009454F

    def test_output_in_uint64_range(self):
        for base in (0, 1, 2**63, 2**64 - 1):
            for idx in (0, 1, 10**12):
                s = _util.derive_seed(base, idx)
                assert 0 <= s < 2**64

    def test_distinct_over_indices(self):
        seen = {_util.derive_seed(12345, i) for i in range(10_000)}
        assert len(seen) == 10_000

    def test_distinct_over_bases(self):
        assert _util.derive_seed(1, 0) != _util.derive_seed(2, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidArgumentError):
            _util.derive_seed(0, -1)

    def test_negative_base_rejected(self):
        with pytest.raises(InvalidArgumentError):
            _util.derive_seed(-1, 0)

    @pytest.mark.parametrize("base", [2**64, 2**64 + 3, 2**70])
    def test_base_beyond_64_bits_rejected(self, base):
        # masked to 64 bits, base 2**64 + k replayed the runs of base k
        with pytest.raises(InvalidArgumentError, match=r"base_seed must be in \[0, 2\*\*64\)"):
            _util.derive_seed(base, 3)

    @pytest.mark.parametrize("args", [(1.5, 0), (1, 2.0), ("1", 0)],
                             ids=["float-base", "float-index", "str-base"])
    def test_non_integer_arguments_rejected(self, args):
        with pytest.raises(InvalidArgumentError, match="must be an integer"):
            _util.derive_seed(*args)

    def test_numpy_integers_accepted(self):
        assert _util.derive_seed(np.uint64(7), np.int32(3)) == _util.derive_seed(7, 3)


class TestCheckInt:
    @pytest.mark.parametrize("value", [True, False, np.True_, 1.0, "1", None, -1],
                             ids=["true", "false", "numpy-bool", "float", "str", "none",
                                  "below"])
    def test_rejected_with_the_bound(self, value):
        with pytest.raises(InvalidArgumentError, match=r"^k must be an integer >= 0$"):
            _util.check_int(value, "k", 0)

    def test_no_bound(self):
        assert _util.check_int(-5, "k") == -5
        with pytest.raises(InvalidArgumentError, match=r"^k must be an integer$"):
            _util.check_int(True, "k")

    def test_numpy_integer_at_the_bound_passes(self):
        value = _util.check_int(np.int32(3), "k", 3)
        assert value == 3 and type(value) is int

    def test_bool_index_rejected(self):
        # derive_seed(0, True) was derive_seed(0, 1)
        with pytest.raises(InvalidArgumentError, match="index must be an integer >= 0"):
            _util.derive_seed(0, True)


class TestCheckResponse:
    @pytest.mark.parametrize("T", [[0, 1, 1], [0.0, 1.0], [True, False], []],
                             ids=["int", "float", "bool", "empty"])
    def test_zero_one_vectors_pass(self, T):
        assert np.array_equal(_util.check_response(T), np.asarray(T))

    @pytest.mark.parametrize("T", [[0, 2], [0.5, 1.0], [math.nan, 1.0], [[0, 1]], 1,
                                   ["0", "1"]],
                             ids=["two", "half", "nan", "2-d", "scalar", "strings"])
    def test_others_rejected(self, T):
        with pytest.raises(InvalidArgumentError, match="T must be a 1-d array of 0/1"):
            _util.check_response(T)


def fsum_outcome(fsum, a):
    """fsum(a) to the bit (float.hex tells signed zeros and NaN apart), or
    the class of the exception it raised."""
    try:
        return fsum(a).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


@st.composite
def long_arrays(draw):
    """Float arrays of EXTRACT_MIN_TERMS - 64 to 3000 terms: normal terms
    scaled by 10**k for |k| <= 300, terms of independent magnitudes, or
    terms and their negatives (a zero total) with a drawn remainder; a few
    drawn floats (inf and NaN among them) may overwrite the first terms."""
    n = draw(st.integers(_util.EXTRACT_MIN_TERMS - 64, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["scaled", "mixed", "cancelling"]))
    if kind == "scaled":
        a = rng.normal(size=n) * 10.0 ** draw(st.integers(-300, 300))
    elif kind == "mixed":
        a = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, size=n)
    else:
        half = rng.normal(size=n // 2) * 10.0 ** draw(st.integers(-300, 300))
        a = np.concatenate([half, -half[::-1], [draw(st.floats(-1e6, 1e6))]])
    head = draw(st.lists(st.floats(), max_size=3))
    a[: len(head)] = head
    return a


class TestFsumReductions:
    def test_fsum_col_means_matches_per_column(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(37, 5)) * 10.0**rng.integers(-8, 8, size=(37, 5))
        got = _util.fsum_col_means(a)
        want = np.array([math.fsum(a[:, j]) / 37 for j in range(5)])
        assert got.shape == (5,)
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), max_size=24))
    @example([])
    @example([-0.0])
    @example([-0.0, -0.0, 0.0])
    @example([5e-324, -5e-324, 5e-324, 2.2250738585072014e-308])
    @example([1e308, 1e-300, -1e308, 3.0, 1e308, -1e308])
    @example([1e308, 1e308, -1e308, -1e308])
    @example([math.inf, -math.inf])
    def test_exact_sum_is_fsum_of_the_list(self, values):
        # the same double as math.fsum of the Python floats, or the same
        # exception, for a contiguous array and for strided views of it
        a = np.array(values, dtype=float)
        matrix = a[: a.size // 2 * 2].reshape(-1, 2)
        views = [a, a[::2], a[::-1], *matrix.T, *matrix]  # strided columns, contiguous rows
        for view in views:
            want = fsum_outcome(math.fsum, view.tolist())
            assert fsum_outcome(_util.exact_sum, view) == want

    @settings(max_examples=200, deadline=None)
    @given(long_arrays())
    @example(np.array([1.5, -1.5] * 300))  # exact cancellation: 0.0 falls back
    @example(np.array([-0.0] * 500))
    @example(np.array([2.0**53, 1.0, 2.0**-60] + [0.0] * 500))  # just above a tie
    @example(np.array([2.0**53, 1.0, -(2.0**-60)] + [0.0] * 500))  # just below one
    @example(np.array([2.0**53, 1.0] + [0.0] * 500))  # a tie, to even
    @example(np.array([2.0**53, -0.5, -(2.0**-60)] + [0.0] * 500))  # below a power of two
    @example(np.array([1.0] * 1023 + [1.0 - 0.6 * 2.0**-43]))  # just below 1024
    @example(np.array([2.0**-900] * 600))
    @example(np.array([2.0**900, -(2.0**900)] * 300 + [1.0]))
    @example(np.array([1e308, 1e308, -1e308, -1e308] * 150))  # overflows on the way
    @example(np.array([math.inf, -math.inf] * 300))
    @example(np.array([1.0] * 600 + [math.nan]))
    def test_long_sums_are_fsum_of_the_list(self, a):
        # at lengths either side of EXTRACT_MIN_TERMS: the same double as
        # math.fsum of the Python floats, or the same exception, for the
        # array, its reverse and a strided view
        for view in (a, a[::-1], a[::2], a[1::3]):
            want = fsum_outcome(math.fsum, view.tolist())
            assert fsum_outcome(_util.exact_sum, view) == want

    @pytest.mark.parametrize("a, error", [
        (np.asarray(1.0), TypeError),
        (np.ones((2, 3)), NotImplementedError),
        (np.ones((_util.EXTRACT_MIN_TERMS, 2)), NotImplementedError),
        (np.ones((2, _util.EXTRACT_MIN_TERMS)).T, NotImplementedError),
    ], ids=["0-d", "2-d", "2-d long", "2-d transposed"])
    def test_other_shapes_raise_what_fsum_raises(self, a, error):
        with pytest.raises(error):
            _util.exact_sum(a)

    def test_a_group_replication_sums_by_extraction(self, exact_sums):
        # the sums of the paper's four scenarios at n=1000 (respondent and
        # fitted-value sums of about 500 and 1000 terms) are long enough to
        # extract, and at most 1 % of them fall back to math.fsum: near a
        # tie, or where the terms cancel
        specs = tuple(mc.ScenarioSpec(1000, 10, pi_ok, m_ok)
                      for pi_ok in (True, False) for m_ok in (True, False))
        for r in range(10):
            mc._replicate((r, specs))
        assert len(exact_sums) == 310
        assert min(terms for terms, _ in exact_sums) >= _util.EXTRACT_MIN_TERMS
        assert sum(extracted for _, extracted in exact_sums) >= 0.99 * len(exact_sums)

    def test_an_overflowing_sum_is_named_by_its_caller(self):
        huge = np.array([1e308, 1e308])
        with pytest.raises(OverflowError):
            _util.exact_sum(huge)
        with pytest.raises(UndefinedEstimatorError, match="an exact sum overflows"):
            estimators._fsum(huge)
        with pytest.raises(DegenerateInputError, match="overflow"):
            mc.summarize(huge, 0.0)


class TestUnitArrays:
    def test_check_units_returns_floats_shaped_as_t(self):
        out = _util.check_units([1, 2, 3], np.array([0, 1, 1]), "pi_hat")
        assert out.dtype == float and out.shape == (3,)

    @pytest.mark.parametrize("values", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0], [2.0], [3.0]],
                                        1.0], ids=["short", "long", "column", "0-d"])
    def test_check_units_rejects_other_shapes(self, values):
        with pytest.raises(InvalidArgumentError, match="pi_hat length must match T"):
            _util.check_units(values, np.array([0, 1, 1]), "pi_hat")

    def test_check_vector(self):
        assert _util.check_vector([1, 2], "values").dtype == float
        for values in (np.ones((3, 2)), 1.0):
            with pytest.raises(InvalidArgumentError, match="values must be 1-d"):
                _util.check_vector(values, "values")

    @pytest.mark.parametrize("values", [["a", "b", "c"], [[1.0], [1.0, 2.0], [3.0]],
                                        [{}, 1.0, 2.0], [1.0, 2.0, 1j]],
                             ids=["text", "ragged", "object", "complex"])
    def test_non_numeric_values_rejected(self, values):
        # numpy's ValueError or TypeError escaped, or its ComplexWarning
        T = np.array([0, 1, 1])
        with pytest.raises(InvalidArgumentError, match="pi_hat must be numeric"):
            _util.check_units(values, T, "pi_hat")
        with pytest.raises(InvalidArgumentError, match="values must be numeric"):
            _util.check_vector(values, "values")

    def test_ragged_response_rejected(self):
        with pytest.raises(InvalidArgumentError, match="T must be numeric"):
            _util.check_response([[0], [0, 1]])

    def test_nan_to_none(self):
        assert _util.nan_to_none(math.nan) is None
        assert [_util.nan_to_none(v) for v in (1.5, math.inf, 2, "x")] == [1.5, math.inf, 2, "x"]


def _square(t):
    return t * t


def _pid(t):
    return os.getpid(), t


def _raise_in_child(task):
    """task is (exception class, message): raised in a child process only."""
    cls, message = task
    if multiprocessing.parent_process() is not None:
        raise cls(message)
    return message


def _exit_in_child(task):
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return task


def _fail_here_sleep_in_child(task):
    if multiprocessing.parent_process() is None:
        raise ValueError("share 0 failed")
    time.sleep(60)
    return task


class TestOrderedMap:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("n_tasks", [0, 1, 2, 4, 7])
    def test_equals_the_serial_map(self, workers, n_tasks):
        # workers > len(tasks) included: one process per task at most
        tasks = list(range(n_tasks))
        assert _util.ordered_map(_square, tasks, workers) == [t * t for t in tasks]
        assert multiprocessing.active_children() == []

    def test_share_j_is_every_kth_task_from_task_j(self):
        out = _util.ordered_map(_pid, range(11), 3)
        assert [t for _, t in out] == list(range(11))
        pids = [pid for pid, _ in out]
        assert pids[0] == os.getpid()
        assert pids[3:] == pids[:-3]
        assert len(set(pids)) == 3

    def test_more_workers_than_tasks_use_one_process_per_task(self):
        out = _util.ordered_map(_pid, [2, 3], 8)
        assert [t for _, t in out] == [2, 3]
        assert out[0][0] == os.getpid() != out[1][0]

    @pytest.mark.parametrize("cls", [InvalidArgumentError, SingularDesignError,
                                     ZeroDivisionError, KeyError])
    def test_child_exception_raised_with_its_class_and_message(self, cls):
        tasks = [(cls, "first"), (cls, "second: 2 > 1"), (cls, "third")]
        with pytest.raises(cls) as info:
            _util.ordered_map(_raise_in_child, tasks, 2)
        assert type(info.value) is cls
        assert info.value.args == ("second: 2 > 1",)
        assert multiprocessing.active_children() == []

    def test_child_that_exits_without_sending(self):
        with pytest.raises(DrmeanError, match="exited with code 3 before sending"):
            _util.ordered_map(_exit_in_child, [0, 1, 2, 3], 2)
        assert multiprocessing.active_children() == []

    def test_failure_here_stops_the_children(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match="share 0 failed"):
            _util.ordered_map(_fail_here_sleep_in_child, range(6), 3)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_children_under_spawn(self, monkeypatch):
        # a spawned child imports drmean afresh and receives fn, its share
        # and the pipe pickled
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: get_context("spawn"))
        seeds = functools.partial(_util.derive_seed, 5)
        assert _util.ordered_map(seeds, range(5), 2) == [seeds(i) for i in range(5)]
        check = functools.partial(_util.check_int, name="x", minimum=0)
        with pytest.raises(InvalidArgumentError, match=r"^x must be an integer >= 0$"):
            _util.ordered_map(check, [0, -1], 2)
        assert multiprocessing.active_children() == []
