import csv
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from drmean import cli, sensitivity
from drmean.dgp import generate_sample
from drmean.errors import ConfigError, DataError, NonconvergenceError
from drmean.estimators import estimate_all
from drmean.dgp import AnalysisView


@pytest.fixture()
def small_sample():
    return generate_sample(150, 9)


def write_sample_csv(path, sample):
    """Write sample as a dataset CSV (t, y, x1...); y is blank where t == 0."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "y"] + [f"x{j + 1}" for j in range(sample.X.shape[1])])
        for t, y, xs in zip(sample.T, sample.Y, sample.X):
            y_cell = repr(float(y)) if t == 1 else ""
            writer.writerow([str(int(t)), y_cell] + [repr(float(v)) for v in xs])
    return str(path)


def run_config(tmp_path, **overrides):
    cfg = {
        "base_seed": 3,
        "reps": 4,
        "sample_sizes": [50],
        "scenarios": [{"pi_correct": False, "m_correct": False}],
        "estimators": ["OLS", "HT", "FULL"],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestDatasetRoundTrip:
    def test_write_then_read(self, tmp_path, small_sample):
        path = write_sample_csv(tmp_path / "d.csv", small_sample)
        T, Y, X, names = cli.read_dataset(path)
        assert np.array_equal(T, small_sample.T)
        assert np.array_equal(X, small_sample.X)
        assert names == ["x1", "x2", "x3", "x4"]
        resp = small_sample.T == 1
        assert np.array_equal(Y[resp], small_sample.Y[resp])
        assert np.all(np.isnan(Y[~resp]))

    def test_nonrespondent_outcome_ignored_with_warning(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("t,y,x1\n1,2.5,0.1\n0,99.0,0.2\n")
        T, Y, X, names = cli.read_dataset(str(path))
        assert math.isnan(Y[1])
        assert "ignored outcome values on 1 nonrespondent row(s)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ("t,y,x1\n2,1.0,0.1\n", "row 2: t must be 0 or 1"),
            ("t,y,x1\n1,apple,0.1\n", "row 2: respondent outcome 'apple'"),
            ("t,y,x1\n1,1.0\n", "row 2 has 2 fields, expected 3"),
            ("t,y,x1\n1,1.0,spam\n", "covariate 'x1' value 'spam'"),
            ("t,y,x1\n1,inf,0.1\n", "row 2: respondent outcome is not finite"),
            ("a,b\n1,2\n", "header must contain 't' and 'y'"),
            ("t,y,x1,x1\n1,1.0,0.1,0.2\n", "repeated column name(s) x1"),
            ("t,y,x1,t\n1,1.0,0.1,0\n", "repeated column name(s) t"),
            ("t,y,x1\n", "no data rows"),
            ("", "empty file"),
        ],
    )
    def test_malformed_input_raises_with_location(self, tmp_path, body, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(DataError) as err:
            cli.read_dataset(str(path))
        assert "bad.csv" in str(err.value)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ("t,y,x1\n1,1.0,nan\n", "row 2: covariate 'x1' value is not finite"),
            ("t,y,x1\n0,,-inf\n", "row 2: covariate 'x1' value is not finite"),
        ],
    )
    def test_non_finite_covariate_named(self, tmp_path, body, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(DataError, match=fragment):
            cli.read_dataset(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            cli.read_dataset(str(tmp_path / "absent.csv"))

    def test_blank_lines_skipped_and_file_lines_named(self, tmp_path):
        # a blank line failed with "row 3 has 0 fields, expected 3"
        path = tmp_path / "gaps.csv"
        path.write_text("\nt,y,x1\n1,2.5,0.1\n\n , ,\n0,,0.2\n1,3.5,spam\n")
        with pytest.raises(DataError, match="row 7: covariate 'x1' value 'spam'"):
            cli.read_dataset(str(path))
        path.write_text("\nt,y,x1\n1,2.5,0.1\n\n , ,\n0,,0.2\n")
        T, Y, X, names = cli.read_dataset(str(path))
        assert T.tolist() == [1, 0] and X.tolist() == [[0.1], [0.2]] and names == ["x1"]

    @pytest.mark.parametrize("body", ["\n\n", " , \n"])
    def test_blank_file_is_empty(self, tmp_path, body):
        path = tmp_path / "blank.csv"
        path.write_text(body)
        with pytest.raises(DataError, match="empty file"):
            cli.read_dataset(str(path))

    def test_undecodable_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"t,y,x1\n1,\xff\xfe,0.1\n")
        with pytest.raises(DataError):
            cli.read_dataset(str(path))
        assert cli.main(["estimate", "--data", str(path)]) == 3

    def test_byte_order_mark_is_skipped(self, tmp_path, small_sample):
        # Excel writes a UTF-8 BOM, which the header read as part of 't'
        data = write_sample_csv(tmp_path / "d.csv", small_sample)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(data).read_bytes())
        plain, marked = cli.read_dataset(data), cli.read_dataset(str(bom))
        for a, b in zip(plain[:3], marked[:3]):
            assert np.array_equal(a, b, equal_nan=True)
        assert plain[3] == marked[3]
        payloads = []
        for path in (data, bom):
            out = tmp_path / "est.json"
            assert cli.main(["estimate", "--data", str(path), "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            del payload["metadata"]["data_sha256"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = run_config(tmp_path)
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert cli.main(
            ["simulate", "--config", cfg, "--out", str(out3), "--workers", "2"]
        ) == 0
        text1 = (out1 / "results.csv").read_bytes()
        assert text1 == (out2 / "results.csv").read_bytes()
        assert text1 == (out3 / "results.csv").read_bytes()

        lines = text1.decode().splitlines()
        assert lines[0] == ",".join(cli.RESULT_COLUMNS)
        assert len(lines) == 1 + 3  # one scenario, one size, three estimators
        first = lines[1].split(",")
        assert first[0] == "pi_wrong_m_wrong"
        assert first[1] == "50"
        assert first[2] == "4"
        assert first[3] == "OLS"
        float(first[4])  # bias parses

    def test_metadata_contents(self, tmp_path):
        cfg = run_config(tmp_path)
        out = tmp_path / "runs"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["base_seed"] == 3
        assert meta["prng"] == "numpy.random.PCG64"
        assert "splitmix64" in meta["seed_derivation"]
        assert meta["mu_true"] == 210.0
        assert meta["reverse_roles"] is False
        assert meta["config"]["reps"] == 4
        assert len(meta["config_sha256"]) == 64
        assert isinstance(meta["failure_counts"], dict)

    def test_reverse_flag_changes_labels(self, tmp_path):
        cfg = run_config(tmp_path, reverse_roles=True)
        out = tmp_path / "rev"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "results.csv").read_text()
        assert "pi_wrong_m_wrong_reversed" in text
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["reverse_roles"] is True

    def test_reverse_roles_is_the_one_switch(self, tmp_path, capsys):
        # a reversed run records a config, and a hash, of its own
        cfg = run_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "r"),
                      "--reverse"])
        assert exc.value.code == 2
        hashes = []
        for reverse in (False, True):
            out = tmp_path / f"rev_{reverse}"
            cfg = run_config(tmp_path, reverse_roles=reverse)
            assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            hashes.append(json.loads((out / "metadata.json").read_text())["config_sha256"])
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"base_seed": None}, "config requires base_seed"),
            ({"reps": None}, "config requires reps"),
            ({"base_seed": -1}, "base_seed must be in [0, 2**64)"),
            ({"reps": 2.0}, "reps must be an integer >= 1"),
        ],
    )
    def test_integer_keys_name_their_bound(self, tmp_path, capsys, overrides, message):
        cfg = json.loads(Path(run_config(tmp_path)).read_text())
        cfg.update(overrides)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"reps": 0},
            {"reps": None},
            {"base_seed": True},
            {"base_seed": "7"},
            {"base_seed": -4},
            {"sample_sizes": []},
            {"sample_sizes": [1]},
            {"estimators": ["NOPE"]},
            {"estimators": []},
            {"scenarios": [{"pi_correct": True}]},
            {"scenarios": [{"pi_correct": True, "m_correct": True, "extra": 1}]},
            {"reverse_roles": "yes"},
            {"dgp": {"noise_sd": 0.0}},
            {"dgp": {"mystery": 1}},
            {"mystery": 1},
        ],
    )
    def test_bad_config_exits_2(self, tmp_path, overrides):
        cfg = {
            "base_seed": 3,
            "reps": 4,
            "sample_sizes": [50],
        }
        cfg.update(overrides)
        cfg = {k: v for k, v in cfg.items() if v is not None}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_dgp_settings_are_unknown_keys(self, tmp_path, capsys):
        # the generator runs Kang & Schafer's design only; no config sets it
        out = tmp_path / "o"
        path = run_config(tmp_path, dgp={"intercept": 10})
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert "unknown key(s) in config: dgp" in capsys.readouterr().err
        assert not out.exists()

    def test_base_seed_beyond_64_bits_exits_2(self, tmp_path, capsys):
        # derive_seed masked it: base_seed 2**64 + 3 replayed base_seed 3
        out = tmp_path / "o"
        cfg = run_config(tmp_path, base_seed=2**64 + 3)
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "base_seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_and_invalid_config_files(self, tmp_path):
        rc = cli.main(["simulate", "--config", str(tmp_path / "none.json"),
                       "--out", str(tmp_path)])
        assert rc == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
        lst = tmp_path / "list.json"
        lst.write_text("[1, 2]")
        assert cli.main(["simulate", "--config", str(lst), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2_before_output(self, tmp_path, capsys, workers):
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", run_config(tmp_path), "--out", str(out),
                       "--workers", workers])
        assert rc == 2
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_estimators_exit_2(self, tmp_path):
        path = run_config(tmp_path, estimators=["OLS", "OLS"])
        with pytest.raises(ConfigError):
            cli.load_run_config(path)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert not (out / "results.csv").exists()

    def test_repeated_sample_size_exits_2(self, tmp_path, capsys):
        # a repeat would rerun every replication and write its rows twice
        path = run_config(tmp_path, sample_sizes=[50, 60, 50], estimators=["OLS"])
        with pytest.raises(ConfigError):
            cli.load_run_config(path)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert "sample_sizes repeats 50" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_repeated_scenario_exits_2(self, tmp_path, capsys):
        both_right = {"pi_correct": True, "m_correct": True}
        path = run_config(
            tmp_path,
            scenarios=[both_right, {"pi_correct": False, "m_correct": True}, both_right],
            estimators=["OLS"],
        )
        with pytest.raises(ConfigError):
            cli.load_run_config(path)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert "scenarios[2] repeats" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_default_scenarios_cover_all_four(self, tmp_path):
        cfg = {
            "base_seed": 3,
            "reps": 2,
            "sample_sizes": [40],
            "estimators": ["OLS"],
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "four"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        text = (out / "results.csv").read_text()
        for label in ("pi_right_m_right", "pi_right_m_wrong",
                      "pi_wrong_m_right", "pi_wrong_m_wrong"):
            assert label in text


class TestEstimateCommand:
    def test_matches_library_bitwise(self, tmp_path, small_sample):
        data = write_sample_csv(tmp_path / "d.csv", small_sample)
        out = tmp_path / "est.json"
        assert cli.main(["estimate", "--data", data, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())

        ones = np.ones((small_sample.n, 1))
        view = AnalysisView(
            design_pi=np.hstack([ones, small_sample.X]),
            design_m=np.hstack([ones, small_sample.X]),
            T=small_sample.T,
            y_observed=np.where(small_sample.T == 1, small_sample.Y, np.nan),
        )
        names = tuple(nm for nm in payload["values"] if nm != "FULL")
        want = estimate_all(view, None, names)
        for name in names:
            assert payload["values"][name] == want.values[name], name
            assert payload["flags"][name] == want.flags[name], name
        assert "FULL" not in payload["values"]
        assert payload["metadata"]["respondents"] == int(small_sample.T.sum())
        assert payload["metadata"]["n"] == 150
        assert payload["weight_diagnostics"]["min_pi"] > 0.0

    def test_explicit_estimators_and_full_unavailable(self, tmp_path, small_sample):
        data = write_sample_csv(tmp_path / "d.csv", small_sample)
        out = tmp_path / "est.json"
        rc = cli.main(["estimate", "--data", data, "--estimators", "OLS,FULL",
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload["values"]) == {"OLS", "FULL"}
        assert payload["values"]["FULL"] is None
        assert payload["flags"]["FULL"] == "fit_failed"

    def test_unweighted_request_reports_no_weight_diagnostics(self, tmp_path,
                                                              small_sample):
        data = write_sample_csv(tmp_path / "d.csv", small_sample)
        out = tmp_path / "est.json"
        assert cli.main(["estimate", "--data", data, "--estimators", "OLS",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["weight_diagnostics"] is None

    def test_column_selection(self, tmp_path, small_sample):
        data = write_sample_csv(tmp_path / "d.csv", small_sample)
        out = tmp_path / "est.json"
        rc = cli.main(["estimate", "--data", data, "--pi-cols", "x1,x2",
                       "--m-cols", "x3", "--estimators", "DR_WLS",
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["pi_cols"] == ["x1", "x2"]
        assert payload["metadata"]["m_cols"] == ["x3"]

    def test_unknown_column_exits_2(self, tmp_path, small_sample):
        data = write_sample_csv(tmp_path / "d.csv", small_sample)
        assert cli.main(["estimate", "--data", data, "--pi-cols", "x9"]) == 2

    @pytest.mark.parametrize("option", ["--pi-cols", "--m-cols"])
    def test_repeated_column_exits_2(self, tmp_path, small_sample, capsys, option):
        # a repeat exited 0 with every estimator on the rank-deficient
        # design flagged fit_failed; sensitivity configs reject it too
        data = write_sample_csv(tmp_path / "d.csv", small_sample)
        out = tmp_path / "est.json"
        rc = cli.main(["estimate", "--data", data, option, "x1,x1,x2", "--out", str(out)])
        assert rc == 2
        assert f"error: {option} repeats column(s) x1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_estimator_exits_2(self, tmp_path, small_sample):
        data = write_sample_csv(tmp_path / "d.csv", small_sample)
        assert cli.main(["estimate", "--data", data, "--estimators", "NOPE"]) == 2

    @pytest.mark.parametrize("listed", [",", " , ,", ""])
    def test_no_estimator_named_exits_2(self, tmp_path, small_sample, capsys, listed):
        # "," ran no estimator, wrote "values": {} and exited 0
        data = write_sample_csv(tmp_path / "d.csv", small_sample)
        out = tmp_path / "est.json"
        rc = cli.main(["estimate", "--data", data, "--estimators", listed, "--out", str(out)])
        assert rc == 2
        assert "--estimators must name at least one estimator" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_estimator_exits_2(self, tmp_path, small_sample):
        data = write_sample_csv(tmp_path / "d.csv", small_sample)
        out = tmp_path / "est.json"
        rc = cli.main(["estimate", "--data", data, "--estimators", "OLS,HT,OLS",
                       "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_missing_data_exits_3(self, tmp_path):
        assert cli.main(["estimate", "--data", str(tmp_path / "no.csv")]) == 3

    def test_blank_lines_skipped(self, tmp_path, small_sample):
        # a blank line exited 3 with "row 3 has 0 fields, expected 3"
        data = write_sample_csv(tmp_path / "d.csv", small_sample)
        lines = Path(data).read_text().splitlines(keepends=True)
        gaps = tmp_path / "gaps.csv"
        gaps.write_text("".join(lines[:2] + ["\n"] + lines[2:] + ["\n"]))
        payloads = []
        for path in (data, gaps):
            out = tmp_path / "est.json"
            assert cli.main(["estimate", "--data", str(path), "--out", str(out)]) == 0
            payload = json.loads(out.read_text())
            del payload["metadata"]["data_sha256"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]


class TestSensitivityCommand:
    @pytest.fixture()
    def setup(self, tmp_path):
        sample = generate_sample(200, 11)
        data = write_sample_csv(tmp_path / "d.csv", sample)
        cfg = {
            "estimator": "DR_WLS",
            "boot_reps": 25,
            "seed": 3,
            "propensity_models": [{"covariates": ["x1", "x2", "x3", "x4"]}],
            "outcome_models": [
                {"covariates": ["x1", "x2", "x3", "x4"]},
                {"covariates": ["x1", "x2"]},
            ],
        }
        cfg_path = tmp_path / "sens.json"
        cfg_path.write_text(json.dumps(cfg))
        return data, str(cfg_path), tmp_path

    def test_end_to_end_and_determinism(self, setup):
        data, cfg, tmp_path = setup
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert cli.main(["sensitivity", "--data", data, "--config", cfg,
                         "--out", str(out1)]) == 0
        assert cli.main(["sensitivity", "--data", data, "--config", cfg,
                         "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert len(payload["estimates"]) == 1
        assert len(payload["estimates"][0]) == 2
        assert len(payload["row_tests"]) == 1
        assert len(payload["col_tests"]) == 2
        assert set(payload["selection"]) == {"propensity", "outcome"}
        assert payload["metadata"]["covariate_names"] == ["x1", "x2", "x3", "x4"]
        assert payload["boot_reps"] == 25
        # single-model columns are trivially homogeneous
        assert payload["col_tests"][0]["p_value"] == 1.0

    @pytest.mark.parametrize(
        "patch",
        [
            {"estimator": "OLS"},
            {"boot_reps": 1},
            {"seed": "x"},
            {"seed": -1},
            {"propensity_models": []},
            {"propensity_models": [{"covariates": ["x9"]}]},
            {"outcome_models": [{"covariates": ["x1"], "kind": "REG"}]},
            {"mystery": True},
        ],
    )
    def test_bad_config_exits_2(self, setup, patch):
        data, cfg_path, tmp_path = setup
        cfg = json.loads((tmp_path / "sens.json").read_text())
        cfg.update(patch)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert cli.main(["sensitivity", "--data", data, "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"boot_reps": 2.5}, "boot_reps must be an integer >= 2"),
            ({"seed": True}, "seed must be an integer"),
        ],
    )
    def test_integer_keys_name_their_bound(self, setup, capsys, patch, message):
        data, _, tmp_path = setup
        cfg = json.loads((tmp_path / "sens.json").read_text())
        cfg.update(patch)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert cli.main(["sensitivity", "--data", data, "--config", str(bad)]) == 2
        assert message in capsys.readouterr().err

    def test_seed_beyond_64_bits_exits_2(self, setup, capsys):
        data, _, tmp_path = setup
        cfg = json.loads((tmp_path / "sens.json").read_text())
        cfg["seed"] = 2**64
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert cli.main(["sensitivity", "--data", data, "--config", str(bad)]) == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err

    def test_repeated_covariate_exits_2(self, setup, capsys):
        # the repeated column made a design of rank 3 < 4 columns, and the
        # run exited 0 with every cell of the row null
        data, _, tmp_path = setup
        cfg = json.loads((tmp_path / "sens.json").read_text())
        cfg["propensity_models"] = [{"covariates": ["x1", "x1", "x2", "x2", "x3"]}]
        bad, out = tmp_path / "bad.json", tmp_path / "s.json"
        bad.write_text(json.dumps(cfg))
        assert cli.main(["sensitivity", "--data", data, "--config", str(bad),
                         "--out", str(out)]) == 2
        assert "propensity_models[0] repeats column(s) x1, x2" in capsys.readouterr().err
        assert not out.exists()

    def test_estimation_failure_exits_1(self, setup, monkeypatch, capsys):
        # a failed fit is no configuration problem: it exited 2
        def fail(*args, **kwargs):
            raise NonconvergenceError("contrast covariance: SVD did not converge")

        monkeypatch.setattr(sensitivity, "homogeneity_test", fail)
        data, cfg, tmp_path = setup
        out = tmp_path / "s.json"
        assert cli.main(["sensitivity", "--data", data, "--config", cfg,
                         "--out", str(out)]) == 1
        assert "contrast covariance" in capsys.readouterr().err
        assert not out.exists()

    def test_outcome_kind_conflict_exits_2(self, setup, capsys):
        data, _, tmp_path = setup
        cfg = json.loads((tmp_path / "sens.json").read_text())
        cfg["estimator"] = "DR_REG"
        cfg["outcome_models"] = [{"covariates": ["x1"], "kind": "WLS"}]
        bad = tmp_path / "conflict.json"
        bad.write_text(json.dumps(cfg))
        assert cli.main(["sensitivity", "--data", data, "--config", str(bad)]) == 2
        assert "unknown key(s) in outcome_models[0]: kind" in capsys.readouterr().err


class TestUnwritableOutput:
    @pytest.fixture()
    def command_args(self, tmp_path, small_sample, monkeypatch):
        """(data path, the arguments of each command but --out, the names of
        the engine calls that ran), with every engine call stubbed out."""
        ran = []
        for name in ("run_scenarios", "estimate_all", "run_sensitivity"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: ran.append(_name))
        data = write_sample_csv(tmp_path / "d.csv", small_sample)
        sens = tmp_path / "sens.json"
        sens.write_text(json.dumps({
            "estimator": "DR_WLS", "boot_reps": 2,
            "propensity_models": [{"covariates": ["x1", "x2"]}],
            "outcome_models": [{"covariates": ["x1"]}],
        }))
        return data, {
            "simulate": ["--config", run_config(tmp_path)],
            "estimate": ["--data", data],
            "sensitivity": ["--data", data, "--config", str(sens)],
        }, ran

    @pytest.mark.parametrize("command", ["simulate", "estimate", "sensitivity"])
    def test_out_inside_a_regular_file_exits_2(self, capsys, command, command_args):
        # these ended in a FileNotFoundError or NotADirectoryError traceback,
        # estimate and sensitivity after all their estimation was done; now
        # each exits before it estimates anything
        data, args, ran = command_args
        out = f"{data}/sub"
        assert cli.main([command, *args[command], "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}") and "Traceback" not in err
        assert Path(data).is_file()
        assert ran == []

    @pytest.mark.parametrize("command", ["estimate", "sensitivity"])
    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_out_exits_2_before_estimating(self, tmp_path, capsys, command, where,
                                                      command_args):
        _, args, ran = command_args
        out = str(tmp_path) if where == "directory" else str(tmp_path / "no" / "o.json")
        assert cli.main([command, *args[command], "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
        assert ran == [] and not (tmp_path / "no").exists()

    @pytest.mark.parametrize("name", ["results.csv", "metadata.json"])
    def test_simulate_checks_its_files_before_it_runs(self, tmp_path, capsys, name,
                                                      command_args):
        # a directory in place of results.csv failed only after every
        # replication had run, and one in place of metadata.json after
        # results.csv was written
        _, args, ran = command_args
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert cli.main(["simulate", *args["simulate"], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out / name}: it is a directory")
        assert ran == [] and [p.name for p in out.iterdir()] == [name]


class TestParser:
    def test_runs_leave_scipy_unloaded(self, small_sample, tmp_path):
        # only data generation needs scipy: importing the CLI, an estimate
        # and a sensitivity run whose line tests reach the chi^2 survival
        # leave every scipy module unloaded
        import subprocess
        import sys

        data_csv = write_sample_csv(tmp_path / "d.csv", small_sample)
        config = tmp_path / "sens.json"
        config.write_text(json.dumps({
            "estimator": "DR_WLS", "boot_reps": 25,
            "propensity_models": [{"covariates": ["x1", "x2"]}, {"covariates": ["x3"]}],
            "outcome_models": [{"covariates": ["x1"]}, {"covariates": ["x2", "x4"]}],
        }))
        runs = [["estimate", "--data", data_csv, "--out", str(tmp_path / "e.json")],
                ["sensitivity", "--data", data_csv, "--config", str(config),
                 "--out", str(tmp_path / "s.json")]]
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import json, sys, drmean.cli\n"
                "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                "loaded = [scipy()]\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    assert drmean.cli.main(argv) == 0, argv\n"
                "    loaded.append(scipy())\n"
                "print(loaded)")
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "[[], [], []]"
        tests = json.loads((tmp_path / "s.json").read_text())["row_tests"]
        assert [t["df"] for t in tests] == [1, 1]
        assert all(0.0 < t["p_value"] < 1.0 for t in tests)

    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_console_entry_point_installed(self):
        import shutil
        import subprocess
        import sys

        exe = shutil.which("drmean")
        if exe is None:
            out = subprocess.run(
                [sys.executable, "-m", "drmean.cli", "--help"],
                capture_output=True, text=True,
            )
        else:
            out = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert out.returncode == 0
        assert "simulate" in out.stdout
