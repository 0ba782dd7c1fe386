"""Byte gate: the sha256 of each command's output on fixed inputs.

A change meant to leave every result as it is must leave these hashes as
they are.  A change that alters output on purpose updates the hash here
and says why in CHANGES.md.  The hashes were recorded with RECORDED_WITH
on x86-64, at OpenBLAS's default thread count (one per core, two cores);
another BLAS may round differently and legitimately give other bytes.
Every fit is the package's own Newton-type solve on numpy's BLAS, and no
output here depends on how many threads that BLAS runs: test_one_blas_thread
pins it for each command at the default count and at one thread.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from drmean import cli
from drmean.dgp import generate_sample

RECORDED_WITH = "numpy 2.4.6, scipy 1.17.1, scipy-openblas 0.3.31.188.0"

Z_COLS = ["z1", "z2", "z3", "z4"]
X_COLS = ["x1", "x2", "x3", "x4"]

SIMULATE_CONFIGS = {
    "all": {"base_seed": 42, "reps": 20, "sample_sizes": [200, 1000]},
    "reversed": {"base_seed": 7, "reps": 30, "sample_sizes": [200], "reverse_roles": True},
}

# Z twice (the default kind, then LOGISTIC_MLE named), X, and Z under the
# inverse-linear fit
PROPENSITY_MODELS = [
    {"covariates": Z_COLS},
    {"covariates": Z_COLS, "kind": "LOGISTIC_MLE"},
    {"covariates": X_COLS},
    {"covariates": Z_COLS, "kind": "INV_LINEAR_UNCONSTRAINED"},
]

GOLDEN = {
    "simulate all results.csv":
        "4e43f9892729d82ba3cedfcf425c88881318080463900d4e02bc8a915a3d1d0f",
    "simulate all metadata.json":
        "ca4e0dc80d495198972e685987f2ee2ecb2f6df0781bf91f8313dafc87d081cc",
    "simulate reversed results.csv":
        "225ce650a8b5906bf1e8460d6f9ddf5c420a261755b71a1914570cfa63003790",
    "simulate reversed metadata.json":
        "686154574929b64a4a0f45e7601af593c4bc648c01448bf7d2bdd620ae7ecf20",
    "estimate pi Z, m X":
        "cb8880de31b7e6afd781477d55c3a0ea90447408c4a75219c944801d3f719c77",
    "estimate pi X, m Z":
        "e06c183ae815ee20e49a26f40b378641961e47347a614da525cfc29ccdbf5f53",
    "sensitivity DR_WLS":
        "33a71d2e958d27ff0d924d111bf1f3740250592742c812e5a7d200ce1f1e7335",
    "sensitivity B_DR_EXT":
        "dd39b79fa06baa4d737d1d490dfa8ff0891ffc26e8d9318067ba487629fc65d5",
}


def _versions() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"{blas.get('name')} {blas.get('version')}")


def _check(name: str, path) -> None:
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == GOLDEN[name], (
        f"{name}: sha256 {got}, recorded {GOLDEN[name]} with {RECORDED_WITH}; "
        f"this run has {_versions()}.  Another BLAS may legitimately round "
        "differently; on the recording versions the output changed."
    )


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """generate_sample(300, 5) as a dataset CSV with Z and X columns, floats
    written by repr and y blank where t is 0."""
    sample = generate_sample(300, 5)
    path = tmp_path_factory.mktemp("golden") / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "y", *Z_COLS, *X_COLS])
        for t, y, z, x in zip(sample.T, sample.Y, sample.Z, sample.X):
            writer.writerow([str(int(t)), repr(float(y)) if t == 1 else ""]
                            + [repr(float(v)) for v in (*z, *x)])
    return path


@pytest.mark.parametrize("config", SIMULATE_CONFIGS)
def test_simulate(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SIMULATE_CONFIGS[config]))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    for name in ("results.csv", "metadata.json"):
        _check(f"simulate {config} {name}", out / name)


@pytest.mark.parametrize("pi, m", [("Z", "X"), ("X", "Z")])
def test_estimate(tmp_path, data, pi, m):
    cols = {"Z": ",".join(Z_COLS), "X": ",".join(X_COLS)}
    out = tmp_path / "estimate.json"
    assert cli.main(["estimate", "--data", str(data), "--pi-cols", cols[pi],
                     "--m-cols", cols[m], "--out", str(out)]) == 0
    _check(f"estimate pi {pi}, m {m}", out)


@pytest.mark.parametrize("estimator", ["DR_WLS", "B_DR_EXT"])
def test_sensitivity(tmp_path, data, estimator):
    config = {
        "estimator": estimator,
        "boot_reps": 40,
        "seed": 7,
        "propensity_models": PROPENSITY_MODELS,
        "outcome_models": [{"covariates": Z_COLS}, {"covariates": X_COLS}],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "sensitivity.json"
    assert cli.main(["sensitivity", "--data", str(data), "--config", str(path),
                     "--out", str(out)]) == 0
    _check(f"sensitivity {estimator}", out)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS",
                    "MKL_NUM_THREADS")
# DR_WLS over Z and X outcome models, on the logistic rows of
# PROPENSITY_MODELS, and on a Z row with its inverse-linear twin
SENSITIVITY_CASES = {
    "sensitivity logistic": [m for m in PROPENSITY_MODELS
                             if m.get("kind", "LOGISTIC_MLE") == "LOGISTIC_MLE"],
    "sensitivity INV_LINEAR_UNCONSTRAINED": [
        {"covariates": Z_COLS}, {"covariates": Z_COLS, "kind": "INV_LINEAR_UNCONSTRAINED"}],
}
# runs (case, argv, output files) triples through cli.main and prints the
# sha256 of each case's outputs as JSON
RUN_CASES = """
import hashlib, json, sys
from pathlib import Path
from drmean import cli
out = {}
for case, argv, files in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"{case} failed")
    out[case] = [hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files]
print(json.dumps(out))
"""


def _run_cases(tmp: Path, data: Path, threads: str | None) -> dict:
    """The output hashes of every BLAS case, run in a fresh interpreter with
    OPENBLAS_NUM_THREADS set to threads, or with no BLAS thread variable."""
    out = tmp / f"threads-{threads}"
    out.mkdir()
    cols = {"Z": ",".join(Z_COLS), "X": ",".join(X_COLS)}
    sim = tmp / "simulate.json"
    sim.write_text(json.dumps(SIMULATE_CONFIGS["all"]))
    cases = [
        ("simulate", ["simulate", "--config", str(sim), "--out", str(out / "sim")],
         [str(out / "sim" / "results.csv"), str(out / "sim" / "metadata.json")]),
        ("estimate", ["estimate", "--data", str(data), "--pi-cols", cols["Z"],
                      "--m-cols", cols["X"], "--out", str(out / "estimate.json")],
         [str(out / "estimate.json")]),
    ]
    for case, models in SENSITIVITY_CASES.items():
        config = tmp / f"{case}.json"
        config.write_text(json.dumps({
            "estimator": "DR_WLS", "boot_reps": 40, "seed": 7,
            "propensity_models": models,
            "outcome_models": [{"covariates": Z_COLS}, {"covariates": X_COLS}],
        }))
        path = out / f"{case}.json"
        cases.append((case, ["sensitivity", "--data", str(data), "--config", str(config),
                             "--out", str(path)], [str(path)]))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", RUN_CASES, json.dumps(cases)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def blas_runs(tmp_path_factory, data):
    """Output hashes at the default thread count and at one thread."""
    tmp = tmp_path_factory.mktemp("blas")
    return _run_cases(tmp, data, None), _run_cases(tmp, data, "1")


@pytest.mark.parametrize("case", ["simulate", "estimate", *SENSITIVITY_CASES])
def test_one_blas_thread(blas_runs, case):
    default, one_thread = blas_runs
    assert one_thread[case] == default[case]
