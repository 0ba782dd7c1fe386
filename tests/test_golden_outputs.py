"""Byte gate: the sha256 of each command's output on fixed inputs.

A change meant to leave every result as it is must leave these hashes as
they are.  A change that alters output on purpose updates the hashes here
and says why in CHANGES.md.  The hashes were recorded with RECORDED_WITH
on x86-64, at OpenBLAS's default thread count (one per core, two cores).
Another BLAS, or another CPU class, may round differently and
legitimately give other bytes: numpy's SIMD exp and power in the data
generation, numpy's SIMD exp in the fits' logistic function (linmod's
1 / (1 + e^-x)), and the OpenBLAS kernel chosen for the CPU, each round
their own way.  So one set of hashes is pinned per kernel class, the SIMD
features numpy dispatches to and the kernel OpenBLAS picks
(KERNEL_CLASSES): GOLDEN for AVX-512 with the SkylakeX kernel, the
recording CPU's class, and GOLDEN_AVX2 for AVX2 with the Haswell kernel.
Each command runs in this process, whose output must match the set of
the class it detects, and once more in one fresh interpreter under
AVX2_ENV, which limits numpy to its AVX2 loops and OpenBLAS to its
Haswell kernel, whose output must match GOLDEN_AVX2.  So an AVX-512 host
checks both classes.  The variables are harmless on an AVX2 host, which
then checks its own class twice; no other host (non-x86, another BLAS)
is pinned, and a failure message names the versions, the SIMD features
and the OpenBLAS kernel of the run, so a host of another class reads as
that.
Every fit is the package's own Newton-type solve on numpy's BLAS, and no
output here depends on how many threads that BLAS runs: test_one_blas_thread
pins it for each command at the default count and at one thread, and
test_inverse_linear_fit_one_blas_thread for the inverse-linear fit, which
no command runs.
"""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from drmean import cli
from drmean.dgp import generate_sample

RECORDED_WITH = "numpy 2.4.6, scipy 1.17.1, scipy-openblas 0.3.31.188.0"
# the dispatched SIMD features numpy found on the recording CPU, as
# np.show_runtime() lists them under "found" (baseline X86_V2)
RECORDED_SIMD = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
# the kernel OpenBLAS picked on the recording CPU, as OPENBLAS_VERBOSE=2 names it
RECORDED_BLAS_CORE = "SkylakeX"
# the AVX2 class, and the variables under which an AVX-512 host computes as
# one; numpy ignores the names of features the CPU lacks
AVX2_SIMD = "X86_V3"
AVX2_BLAS_CORE = "Haswell"
AVX2_ENV = {"OPENBLAS_CORETYPE": "Haswell",
            "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

Z_COLS = ["z1", "z2", "z3", "z4"]
X_COLS = ["x1", "x2", "x3", "x4"]

SIMULATE_CONFIGS = {
    "all": {"base_seed": 42, "reps": 20, "sample_sizes": [200, 1000]},
    "reversed": {"base_seed": 7, "reps": 30, "sample_sizes": [200], "reverse_roles": True},
}
ESTIMATE_DESIGNS = [("Z", "X"), ("X", "Z")]  # (pi columns, m columns)
SENSITIVITY_ESTIMATORS = ["DR_WLS", "B_DR_EXT"]

# Z twice (two specs of one model, which share their fits), then X
PROPENSITY_MODELS = [{"covariates": Z_COLS}, {"covariates": Z_COLS}, {"covariates": X_COLS}]

GOLDEN = {
    "simulate all results.csv":
        "e74c682e00c7cc1d2245470c1289ec9069b93c6d333030cfba1971f7775ca2b1",
    "simulate all metadata.json":
        "ca4e0dc80d495198972e685987f2ee2ecb2f6df0781bf91f8313dafc87d081cc",
    "simulate reversed results.csv":
        "aa1c7d91075fc3e826b5dde9a577ca122d61caa99806a5b7471c622fccbe4d85",
    "simulate reversed metadata.json":
        "686154574929b64a4a0f45e7601af593c4bc648c01448bf7d2bdd620ae7ecf20",
    "estimate pi Z, m X":
        "21584c61cca20da19d48751711ddb63cb0c6e57a45581e40aee558f1da8b9085",
    "estimate pi X, m Z":
        "5779ad97cafb26fec859746c7f6efdc4b19e0bd1b89bd0e8aeaa221d8ff49f03",
    "sensitivity DR_WLS":
        "5856025588dd9d2172279a76fa9d62a1a7ec61e0c815f47fd0c9aba8e80620b3",
    "sensitivity B_DR_EXT":
        "7c1750e71fa8afa6204d56e5c23c16704d7c0eb859fa822f779e6abd2e562ccf",
}
# the counts in metadata.json are the same on both classes
GOLDEN_AVX2 = {
    "simulate all results.csv":
        "8ce6fc871b5ac1812d504bee32cbfa97daeded8b459bd1d9f82d8c78c288faba",
    "simulate all metadata.json": GOLDEN["simulate all metadata.json"],
    "simulate reversed results.csv":
        "2fdbfac4d3ef9ad169af09edcfc02f82ada1ad3b8d8a8f422e5faf43c06e8de5",
    "simulate reversed metadata.json": GOLDEN["simulate reversed metadata.json"],
    "estimate pi Z, m X":
        "8bdfbb93ad840152368ed8d11750776dcaa91a657376c0420994fbfb7b668ffb",
    "estimate pi X, m Z":
        "3f2f0962c51da5dda0537e57ab9fd63ccbb11a8aa0411cb942f4f1a131c929b9",
    "sensitivity DR_WLS":
        "64131de68d6a740ec889eeb066abd693b07f307f315178eea8687044a92548ab",
    "sensitivity B_DR_EXT":
        "9d4e343a5498cd44fcd77620b660c174c13bd0feb7fa23bbeadb2cbda76c2b75",
}
# (numpy's SIMD features, OpenBLAS kernel) -> the hashes that hold there
KERNEL_CLASSES = {
    (RECORDED_SIMD, RECORDED_BLAS_CORE): GOLDEN,
    (AVX2_SIMD, AVX2_BLAS_CORE): GOLDEN_AVX2,
}


def _versions() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"{blas.get('name')} {blas.get('version')}")


def _simd() -> str:
    """The dispatched SIMD features numpy found on this CPU, as
    np.show_runtime() lists them, without its printing."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f]) or "none"


def _core(stderr: str) -> str:
    """The kernel an interpreter run under OPENBLAS_VERBOSE=2 names on
    stderr as "Core: <name>" at import, or "unknown" when nothing names one
    (MKL, Accelerate, a non-x86 build)."""
    found = re.search(r"^Core: (\S+)", stderr, re.MULTILINE)
    return found.group(1) if found else "unknown"


def _blas_core(**env: str) -> str:
    """The kernel OpenBLAS picks in a fresh interpreter run with this
    process's environment updated by env (see _core)."""
    proc = subprocess.run([sys.executable, "-c", "import numpy"],
                          env={**os.environ, "OPENBLAS_VERBOSE": "2", **env},
                          capture_output=True, text=True, timeout=60)
    return _core(proc.stderr)


def _mismatch(name: str, got: str, simd: str, core: str) -> str:
    """The failure message of _check: what differs from the recording host."""
    versions = _versions()
    recorded = "; ".join(f"{hashes[name]} where numpy found SIMD {s} and OpenBLAS picked {c}"
                         for (s, c), hashes in KERNEL_CLASSES.items())
    if versions != RECORDED_WITH:
        why = "other versions may legitimately round differently"
    elif (simd, core) in KERNEL_CLASSES:
        why = "on the recording versions, SIMD features and kernel the output changed"
    elif simd not in {s for s, _ in KERNEL_CLASSES}:
        why = ("this CPU is of another class than the recorded ones, and numpy's "
               "SIMD loops may legitimately round differently on it")
    else:
        why = ("OpenBLAS picked another kernel than recorded with these SIMD features, "
               "and it may legitimately round differently")
    return (f"{name}: sha256 {got}, recorded with {RECORDED_WITH} as {recorded}; this run "
            f"has {versions}, numpy found SIMD {simd} and OpenBLAS picked {core}: {why}.")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check(name: str, path: Path) -> None:
    """path's hash must be GOLDEN's, or that of the kernel class this
    process detects; the class is read only after a mismatch, since the
    kernel probe starts an interpreter."""
    got = _sha256(path)
    if got != GOLDEN[name]:
        simd, core = _simd(), _blas_core()
        assert got == KERNEL_CLASSES.get((simd, core), GOLDEN)[name], \
            _mismatch(name, got, simd, core)


def test_blas_core_probe_names_the_kernel():
    # OPENBLAS_CORETYPE is set in the probe's interpreter only
    assert _blas_core(OPENBLAS_CORETYPE="Haswell") == "Haswell"


def write_data(path: Path) -> None:
    """generate_sample(300, 5) as a dataset CSV with Z and X columns, floats
    written by repr and y blank where t is 0."""
    sample = generate_sample(300, 5)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "y", *Z_COLS, *X_COLS])
        for t, y, z, x in zip(sample.T, sample.Y, sample.Z, sample.X):
            writer.writerow([str(int(t)), repr(float(y)) if t == 1 else ""]
                            + [repr(float(v)) for v in (*z, *x)])


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "data.csv"
    write_data(path)
    return path


# A command is (cli argv, {golden name: output path}); its config and
# outputs go under tmp.

def _simulate(tmp: Path, config: str):
    path = tmp / f"simulate-{config}.json"
    path.write_text(json.dumps(SIMULATE_CONFIGS[config]))
    out = tmp / f"simulate-{config}"
    return (["simulate", "--config", str(path), "--out", str(out)],
            {f"simulate {config} {f}": out / f for f in ("results.csv", "metadata.json")})


def _estimate(tmp: Path, data: Path, pi: str, m: str):
    cols = {"Z": ",".join(Z_COLS), "X": ",".join(X_COLS)}
    out = tmp / f"estimate-{pi}-{m}.json"
    return (["estimate", "--data", str(data), "--pi-cols", cols[pi], "--m-cols", cols[m],
             "--out", str(out)],
            {f"estimate pi {pi}, m {m}": out})


def _sensitivity(tmp: Path, data: Path, estimator: str, models=PROPENSITY_MODELS,
                 name: str | None = None):
    name = name or f"sensitivity {estimator}"
    config, out = tmp / f"{name}.json", tmp / f"{name} out.json"
    config.write_text(json.dumps({
        "estimator": estimator,
        "boot_reps": 40,
        "seed": 7,
        "propensity_models": models,
        "outcome_models": [{"covariates": Z_COLS}, {"covariates": X_COLS}],
    }))
    return (["sensitivity", "--data", str(data), "--config", str(config), "--out", str(out)],
            {name: out})


def _golden_commands(tmp: Path, data: Path) -> list:
    """Every command GOLDEN pins."""
    return [*(_simulate(tmp, config) for config in SIMULATE_CONFIGS),
            *(_estimate(tmp, data, pi, m) for pi, m in ESTIMATE_DESIGNS),
            *(_sensitivity(tmp, data, estimator) for estimator in SENSITIVITY_ESTIMATORS)]


def _run_and_check(argv: list[str], outputs: dict[str, Path]) -> None:
    assert cli.main(argv) == 0
    for name, path in outputs.items():
        _check(name, path)


@pytest.mark.parametrize("config", SIMULATE_CONFIGS)
def test_simulate(tmp_path, config):
    _run_and_check(*_simulate(tmp_path, config))


@pytest.mark.parametrize("pi, m", ESTIMATE_DESIGNS)
def test_estimate(tmp_path, data, pi, m):
    _run_and_check(*_estimate(tmp_path, data, pi, m))


@pytest.mark.parametrize("estimator", SENSITIVITY_ESTIMATORS)
def test_sensitivity(tmp_path, data, estimator):
    _run_and_check(*_sensitivity(tmp_path, data, estimator))


def _hash_commands(spec: str) -> None:
    """The interpreter side of _run_cases: given a JSON [data path or null,
    commands], write the dataset at that path first if one is given, run
    each command through cli.main and print {golden name: sha256} with the
    SIMD features found as JSON."""
    data, commands = json.loads(spec)
    if data is not None:
        write_data(Path(data))
    hashes = {}
    for argv, outputs in commands:
        if cli.main(argv) != 0:
            sys.exit(f"{' '.join(argv)} failed")
        hashes.update({name: _sha256(Path(path)) for name, path in outputs.items()})
    print(json.dumps({"simd": _simd(), "hashes": hashes}))


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _fresh_env(env: dict[str, str]) -> dict[str, str]:
    """This process's environment with no BLAS thread variable, the package
    on the path and env set."""
    full_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    full_env.update(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), **env)
    return full_env


def _run_cases(commands: list, env: dict[str, str], data: Path | None = None) -> dict:
    """The output hashes of commands run in a fresh interpreter with
    _fresh_env(env) and OpenBLAS naming its kernel: {"hashes": {golden
    name: sha256}, "simd": numpy's SIMD features, "core": the OpenBLAS
    kernel}.  Given data, that interpreter writes the dataset there
    itself, so it is generated on the interpreter's own kernel."""
    full_env = _fresh_env({"OPENBLAS_VERBOSE": "2", **env})
    spec = [None if data is None else str(data),
            [(argv, {name: str(path) for name, path in outputs.items()})
             for argv, outputs in commands]]
    proc = subprocess.run([sys.executable, __file__, json.dumps(spec)], env=full_env,
                          capture_output=True, text=True, timeout=300, check=True)
    return {**json.loads(proc.stdout), "core": _core(proc.stderr)}


def _blas_commands(tmp: Path, data: Path) -> list:
    tmp.mkdir()
    return [_simulate(tmp, "all"), _estimate(tmp, data, "Z", "X"),
            _sensitivity(tmp, data, "DR_WLS", name="sensitivity logistic")]


@pytest.fixture(scope="module")
def blas_runs(tmp_path_factory, data):
    """Output hashes at the default thread count and at one thread."""
    tmp = tmp_path_factory.mktemp("blas")
    return (_run_cases(_blas_commands(tmp / "default", data), {})["hashes"],
            _run_cases(_blas_commands(tmp / "one", data), {"OPENBLAS_NUM_THREADS": "1"})["hashes"])


@pytest.mark.parametrize("case", ["simulate", "estimate", "sensitivity logistic"])
def test_one_blas_thread(blas_runs, case):
    default, one_thread = ({name: h for name, h in run.items() if name.startswith(case)}
                           for run in blas_runs)
    assert default and one_thread == default


# prints the sha256 of fit_inverse_linear's alpha and pi_hat on the outcome
# design of a paper sample
INVERSE_LINEAR_FIT = """
import hashlib
from drmean import fit_inverse_linear, generate_sample, make_view
view = make_view(generate_sample(1000, 3), True, True)
fit = fit_inverse_linear(view.design_m, view.T)
print(hashlib.sha256(fit.alpha.tobytes() + fit.pi_hat.tobytes()).hexdigest())
"""


def test_inverse_linear_fit_one_blas_thread():
    hashes = [subprocess.run([sys.executable, "-c", INVERSE_LINEAR_FIT], env=_fresh_env(env),
                             capture_output=True, text=True, timeout=60, check=True).stdout
              for env in ({}, {"OPENBLAS_NUM_THREADS": "1"})]
    assert hashes[0] and hashes[1] == hashes[0]


@pytest.fixture(scope="module")
def avx2_run(tmp_path_factory):
    """Every golden command run in one interpreter under AVX2_ENV, on a
    dataset that interpreter writes."""
    tmp = tmp_path_factory.mktemp("avx2")
    data = tmp / "data.csv"
    return _run_cases(_golden_commands(tmp, data), AVX2_ENV, data)


@pytest.mark.parametrize("name", GOLDEN)
def test_avx2_kernel_class(avx2_run, name):
    got = avx2_run["hashes"][name]
    assert got == GOLDEN_AVX2[name], (
        f"{name} under {AVX2_ENV}: sha256 {got}, recorded {GOLDEN_AVX2[name]} where numpy "
        f"found SIMD {AVX2_SIMD} and OpenBLAS picked {AVX2_BLAS_CORE}; this run has "
        f"{_versions()}, numpy found SIMD {avx2_run['simd']} and OpenBLAS picked "
        f"{avx2_run['core']}.")


if __name__ == "__main__":
    _hash_commands(sys.argv[1])
