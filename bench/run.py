"""Benchmark of drmean: one workload, one seed, one run.

Run from the root of a checkout:

    python3 bench/run.py --workload grid_n1000 --seed 1 --seconds 10 --trace 0

Set-up starts a fresh interpreter that imports ``drmean.cli``, several
times, and reports the median wall time as ``setup_s``.  The measurement
then runs in one child process (``bench/workloads.py``) so that peak
memory belongs to the workload alone.  Both import the package from the
checkout's ``src`` directory; there is nothing to build.

The run prints every metric by name and unit, the deterministic counters
and the machine facts, then, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The full record, with counters and machine
facts, is written to ``.bench_run/`` (or ``--out``).  A failed output
check prints ``"correct": false`` and exits 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread per process: the fits are small, so more threads only
# add noise, and pool workers times BLAS threads must fit the cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import machine  # noqa: E402  (numpy must see the thread settings)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
WORKERS = {"grid_n1000": 1, "grid_n200_w2": 2, "sensitivity_2x2": 1}
SETUP_STARTS = 7
PROBE = (
    "import time; t = time.perf_counter(); import drmean.cli; "
    "print(time.perf_counter() - t); print(drmean.cli.__file__)"
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _start(code: str, env: dict) -> tuple[float, str]:
    """Wall time and output of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - start, proc.stdout


def cold_imports(env: dict) -> dict:
    """Fresh interpreters importing drmean.cli: wall time of each start and
    time spent in the import, raw and scaled to the nominal machine speed
    by reference starts run before and after each one.

    A first, unreported start compiles the bytecode cache, which a user
    of an installed package does not pay.
    """
    out = {"wall_s": [], "import_s": [], "reference_start_s": [],
           "scaled_wall_s": [], "scaled_import_s": []}
    ref_before, _ = _start(machine.REFERENCE_START, env)
    for k in range(SETUP_STARTS + 1):
        wall, stdout = _start(PROBE, env)
        ref_after, _ = _start(machine.REFERENCE_START, env)
        scale = machine.speed_scale(ref_before, ref_after, machine.REFERENCE_START_S)
        ref_before = ref_after
        import_s, module_file = stdout.split()
        if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"drmean imported from {module_file}, not from {SRC}")
        if k:
            out["wall_s"].append(wall)
            out["import_s"].append(float(import_s))
            out["reference_start_s"].append(ref_after)
            out["scaled_wall_s"].append(wall * scale)
            out["scaled_import_s"].append(float(import_s) * scale)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one drmean benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; hold out 20071107 for claims)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="full result record (default .bench_run/<run>.json)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be nonnegative")
    if not (SRC / "drmean" / "__init__.py").is_file():
        return fail(f"no drmean package under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    nproc = len(os.sched_getaffinity(0))
    workers = WORKERS[args.workload]
    if workers * BLAS_THREADS > nproc:
        return fail(f"{workers} workers x {BLAS_THREADS} BLAS threads exceed "
                    f"{nproc} available cores")

    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        setup = cold_imports(env)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        return fail(f"set-up failed: {exc}")

    RUN_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=name + "-", dir=RUN_DIR))
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("workloads.py")),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", str(workdir), "--spans", str(RUN_DIR / f"{name}.spans.csv")],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        return fail("measurement did not finish within 150 s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return fail(f"measurement exited {proc.returncode} without a result")
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if args.trace:
        metrics["cli.import_s"] = {"value": statistics.median(setup["scaled_import_s"]),
                                   "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(setup["scaled_wall_s"]),
                              "unit": "s"}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup=setup)
    out_path = args.out or RUN_DIR / f"{name}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for key, value in sorted(record.get("machine", {}).items()):
        print(f"machine   {key:<52} {value}")
    for key, value in sorted(record.get("counters", {}).items()):
        print(f"counter   {key:<52} {value}")
    for key, m in sorted(metrics.items()):
        print(f"metric    {key:<52} {m['value']:<24.10g} {m['unit']}")
    if result["correct"]:
        missing = [m for m in wanted if m not in metrics]
        if missing:
            return fail(f"metrics missing from the run: {missing}")
        print(f"record    {out_path}")
    else:
        print(f"bench: output check failed: {result.get('error')}", file=sys.stderr)
    # a failed check never counts as a timing
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: metrics[k] for k in wanted} if result["correct"] else {},
    }))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
