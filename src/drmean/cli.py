"""Command-line interface and the file formats shared with it.

Subcommands:
  simulate     run benchmark scenarios from a JSON config; writes
               results.csv and metadata.json into the output directory
  estimate     run the estimator suite once on a dataset CSV
  sensitivity  estimate under a grid of model specs with homogeneity tests

Dataset CSV format ("t", "y", then covariate columns, header required):
t is 0/1, y may be blank where t is 0, covariates must be numeric
everywhere.  Results CSV columns are fixed:

  scenario,n,reps,estimator,bias,var,mse,skewness,
  q01,q05,q25,q50,q75,q95,q99,min,max,failures

Floats are written with repr (shortest round-trip form) and files use
"\n" line endings, so identical inputs give byte-identical outputs on
any platform and with any worker count.

Exit codes: 0 success, 1 estimation failure, 2 configuration problem
(an --out that cannot be written included), 3 data problem.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from ._util import PRNG_NAME, SEED_DERIVATION, nan_to_none
from .dgp import MU_TRUE, AnalysisView, design_matrix
from .errors import ConfigError, DataError, DrmeanError, InvalidArgumentError
from .estimators import ESTIMATOR_NAMES, check_estimator_names, estimate_all
from .mc import QUANTILE_LEVELS, ScenarioSpec, run_scenarios
# unused here, but bench/layers.py wraps cli.run_scenario
from .mc import run_scenario  # noqa: F401
from .sensitivity import ModelSpec, run_sensitivity

RESULT_COLUMNS = (
    "scenario", "n", "reps", "estimator", "bias", "var", "mse", "skewness",
    *(f"q{q:02d}" for q in QUANTILE_LEVELS), "min", "max", "failures",
)

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _no_unknown_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    _require(not unknown, f"unknown key(s) in {where}: {', '.join(unknown)}")


def _load_json(path: str, what: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{what} {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from None
    _require(isinstance(obj, dict), f"{what} {path} must hold a JSON object")
    return obj


def load_run_config(path: str) -> tuple[list[ScenarioSpec], dict]:
    """Parse a simulate config into the ScenarioSpecs to run (each sample size
    within each scenario, in config order) and the parsed JSON; ConfigError
    if any part is invalid."""
    raw = _load_json(path, "config")
    allowed = {"base_seed", "reps", "sample_sizes", "scenarios", "reverse_roles", "estimators"}
    _no_unknown_keys(raw, allowed, "config")
    for key in ("base_seed", "reps", "sample_sizes"):
        _require(key in raw, f"config requires {key}")
    sizes = raw["sample_sizes"]
    _require(
        isinstance(sizes, list) and sizes
        and all(isinstance(n, int) and not isinstance(n, bool) and n >= 2 for n in sizes),
        "sample_sizes must be a nonempty list of integers >= 2",
    )
    repeated = sorted({n for n in sizes if sizes.count(n) > 1})
    _require(not repeated, f"sample_sizes repeats {', '.join(map(str, repeated))}")
    scenarios_raw = raw.get("scenarios", [
        {"pi_correct": p, "m_correct": m} for p in (True, False) for m in (True, False)
    ])
    _require(isinstance(scenarios_raw, list) and scenarios_raw,
             "scenarios must be a nonempty list")
    scenarios = []
    for k, sc in enumerate(scenarios_raw):
        _require(isinstance(sc, dict), f"scenarios[{k}] must be an object")
        _no_unknown_keys(sc, {"pi_correct", "m_correct"}, f"scenarios[{k}]")
        _require(
            isinstance(sc.get("pi_correct"), bool) and isinstance(sc.get("m_correct"), bool),
            f"scenarios[{k}] requires boolean pi_correct and m_correct",
        )
        pair = (sc["pi_correct"], sc["m_correct"])
        _require(pair not in scenarios, f"scenarios[{k}] repeats an earlier scenario")
        scenarios.append(pair)
    reverse = raw.get("reverse_roles", False)
    _require(isinstance(reverse, bool), "reverse_roles must be a boolean")
    estimators = raw.get("estimators", list(ESTIMATOR_NAMES))
    _require(
        isinstance(estimators, list) and estimators
        and all(isinstance(e, str) for e in estimators),
        "estimators must be a nonempty list of names",
    )
    try:
        specs = [
            ScenarioSpec(n=n, reps=raw["reps"], pi_model_correct=pi_correct,
                         m_model_correct=m_correct, reverse=reverse,
                         base_seed=raw["base_seed"], estimators=tuple(estimators))
            for pi_correct, m_correct in scenarios
            for n in sizes
        ]
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from None
    return specs, raw


def _fmt(x: float) -> str:
    return repr(float(x))


def _sha256_of(obj: dict) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@contextmanager
def _writing(path):
    """Turn an OSError in the block into ConfigError "cannot write <path>: <reason>"."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_out(path: str) -> None:
    """ConfigError "cannot write <path>: <reason>" if path, other than "-",
    is a directory or its parent is not one.  estimate and sensitivity
    check --out so before they estimate anything."""
    if path == "-":
        return
    if Path(path).is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not Path(path).parent.is_dir():
        raise ConfigError(f"cannot write {path}: its parent is not a directory")


def _write_text(path, text: str) -> None:
    """text into the file at path, or onto stdout if path is "-"."""
    if path == "-":
        sys.stdout.write(text)
        return
    with _writing(path):
        Path(path).write_text(text)


# ---------------------------------------------------------------- datasets


def _finite(cell: str, what: str) -> float:
    """cell as a finite float; DataError "<what> <cell> is not numeric" or
    "<what> is not finite" otherwise."""
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{what} {cell!r} is not numeric") from None
    if not math.isfinite(value):
        raise DataError(f"{what} is not finite")
    return value


def _csv_rows(path: str) -> list[tuple[int, list[str]]]:
    """The rows of the CSV file at path that hold a nonblank cell, each
    with its line number in the file.  DataError if the file cannot be
    read or has no such row."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if any(c.strip() for c in row)]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read data {path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    return rows


def read_dataset(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Read a dataset CSV.  Returns (T, Y with NaN where missing, X, names).

    Blank lines are skipped.  Outcome values supplied on nonrespondent
    rows are ignored with a single warning on stderr; every other
    malformedness is a DataError naming the file line of the offending row.
    """
    rows = _csv_rows(path)
    header = [h.strip() for h in rows[0][1]]
    if "t" not in header or "y" not in header:
        raise DataError(f"{path}: header must contain 't' and 'y' columns")
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise DataError(f"{path}: repeated column name(s) {', '.join(repeated)}")
    t_col, y_col = header.index("t"), header.index("y")
    x_cols = [k for k in range(len(header)) if k not in (t_col, y_col)]
    names = [header[k] for k in x_cols]
    t_vals, y_vals, x_vals = [], [], []
    ignored_y = 0
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}")
        cell = row[t_col].strip()
        if cell not in ("0", "1"):
            raise DataError(f"{path}: row {lineno}: t must be 0 or 1, got {cell!r}")
        t = int(cell)
        y_cell = row[y_col].strip()
        if t == 1:
            y = _finite(y_cell, f"{path}: row {lineno}: respondent outcome")
        else:
            ignored_y += bool(y_cell)
            y = math.nan
        t_vals.append(t)
        y_vals.append(y)
        x_vals.append([
            _finite(row[k], f"{path}: row {lineno}: covariate {header[k]!r} value")
            for k in x_cols
        ])
    if not t_vals:
        raise DataError(f"{path}: no data rows")
    if ignored_y:
        print(
            f"warning: ignored outcome values on {ignored_y} nonrespondent row(s)",
            file=sys.stderr,
        )
    return np.array(t_vals, dtype=np.int64), np.array(y_vals), np.array(x_vals), names


def _file_sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------- simulate


def results_csv_text(summaries: list) -> str:
    """Render MCSummary objects into the results CSV (fixed column order)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULT_COLUMNS)
    for summary in summaries:
        spec = summary.scenario
        for name in spec.estimators:
            row = summary.rows[name]
            writer.writerow(
                [
                    spec.label(),
                    str(spec.n),
                    str(spec.reps),
                    name,
                    _fmt(row.bias),
                    _fmt(row.variance),
                    _fmt(row.mse),
                    _fmt(row.skewness),
                ]
                + [_fmt(row.quantiles[q]) for q in QUANTILE_LEVELS]
                + [_fmt(row.minimum), _fmt(row.maximum), str(row.failures)]
            )
    return buf.getvalue()


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    specs, raw = load_run_config(args.config)
    out_dir = Path(args.out)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    summaries = run_scenarios(specs, workers=args.workers)
    failure_counts: dict[str, int] = {}
    for summary in summaries:
        spec = summary.scenario
        for name, row in summary.rows.items():
            if row.failures:
                failure_counts[f"{spec.label()}:n={spec.n}:{name}"] = row.failures
    _write_text(out_dir / "results.csv", results_csv_text(summaries))
    metadata = {
        "package_version": __version__,
        "prng": PRNG_NAME,
        "seed_derivation": SEED_DERIVATION,
        "base_seed": specs[0].base_seed,
        "reverse_roles": specs[0].reverse,
        "mu_true": MU_TRUE,
        "config": raw,
        "config_sha256": _sha256_of(raw),
        "failure_counts": failure_counts,
    }
    _write_text(out_dir / "metadata.json", json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------- estimate


def _listed(spec: str, what: str, noun: str) -> list[str]:
    """The nonblank comma-separated entries of spec; ConfigError if there is none."""
    wanted = [s.strip() for s in spec.split(",") if s.strip()]
    if not wanted:
        raise ConfigError(f"{what} must name at least one {noun}")
    return wanted


def _select_columns(names: list[str], spec: str | None, what: str) -> list[int]:
    if spec is None:
        return list(range(len(names)))
    wanted = _listed(spec, what, "column")
    missing = [w for w in wanted if w not in names]
    if missing:
        raise ConfigError(f"{what}: unknown column(s) {', '.join(missing)}")
    return [names.index(w) for w in wanted]


def cmd_estimate(args: argparse.Namespace) -> int:
    T, Y, X, names = read_dataset(args.data)
    pi_idx = _select_columns(names, args.pi_cols, "--pi-cols")
    m_idx = _select_columns(names, args.m_cols, "--m-cols")
    if args.estimators is None:
        which = tuple(nm for nm in ESTIMATOR_NAMES if nm != "FULL")
    else:
        try:
            which = check_estimator_names(_listed(args.estimators, "--estimators", "estimator"))
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from None
    _check_out(args.out)
    view = AnalysisView(
        design_pi=design_matrix(X, pi_idx),
        design_m=design_matrix(X, m_idx),
        T=T,
        y_observed=Y,
    )
    result = estimate_all(view, None, which)
    diag = result.diagnostics
    payload = {
        "values": {k: nan_to_none(v) for k, v in result.values.items()},
        "flags": result.flags,
        "messages": result.messages,
        "weight_diagnostics": None
        if diag is None
        else {k: nan_to_none(v) for k, v in asdict(diag).items()},
        "metadata": {
            "package_version": __version__,
            "n": int(len(T)),
            "respondents": int((T == 1).sum()),
            "pi_cols": [names[k] for k in pi_idx],
            "m_cols": [names[k] for k in m_idx],
            "data_sha256": _file_sha256(args.data),
        },
    }
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


# ------------------------------------------------------------- sensitivity


def load_sensitivity_config(path: str, names: list[str]) -> tuple[dict, dict]:
    """Parse a sensitivity config whose models name columns of names:
    run_sensitivity's keyword arguments and the parsed JSON.  estimator,
    boot_reps and seed pass as the config holds them, so run_sensitivity
    checks them and gives boot_reps and seed their defaults.  ConfigError
    if the JSON is malformed."""
    raw = _load_json(path, "config")
    allowed = {"estimator", "boot_reps", "seed", "propensity_models", "outcome_models"}
    _no_unknown_keys(raw, allowed, "config")
    _require("estimator" in raw, "config requires estimator")

    def parse_models(key: str, role: str) -> tuple[ModelSpec, ...]:
        _require(key in raw, f"config requires {key}")
        models = raw[key]
        _require(isinstance(models, list) and models, f"{key} must be a nonempty list")
        specs = []
        for k, spec in enumerate(models):
            _require(isinstance(spec, dict), f"{key}[{k}] must be an object")
            _no_unknown_keys(spec, {"covariates"}, f"{key}[{k}]")
            cols = spec.get("covariates")
            _require(
                isinstance(cols, list) and cols and all(isinstance(c, str) for c in cols),
                f"{key}[{k}] requires a nonempty list of covariate names",
            )
            missing = [c for c in cols if c not in names]
            _require(not missing, f"{key}[{k}]: unknown column(s) {', '.join(missing)}")
            repeated = dict.fromkeys(c for c in cols if cols.count(c) > 1)
            _require(not repeated, f"{key}[{k}] repeats column(s) {', '.join(repeated)}")
            specs.append(ModelSpec(role, tuple(names.index(c) for c in cols)))
        return tuple(specs)

    kwargs = {key: raw[key] for key in ("estimator", "boot_reps", "seed") if key in raw}
    kwargs["p_specs"] = parse_models("propensity_models", "propensity")
    kwargs["o_specs"] = parse_models("outcome_models", "outcome")
    return kwargs, raw


def cmd_sensitivity(args: argparse.Namespace) -> int:
    T, Y, X, names = read_dataset(args.data)
    kwargs, raw = load_sensitivity_config(args.config, names)
    _check_out(args.out)
    try:
        matrix = run_sensitivity(X, T, Y, **kwargs)
    except InvalidArgumentError as exc:  # the config's settings; fits fail with others
        raise ConfigError(str(exc)) from None
    payload = matrix.to_dict()
    payload["metadata"] = {
        "package_version": __version__,
        "prng": PRNG_NAME,
        "seed_derivation": SEED_DERIVATION,
        "config_sha256": _sha256_of(raw),
        "data_sha256": _file_sha256(args.data),
        "covariate_names": names,
    }
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drmean",
        description="Doubly robust estimation of an outcome mean under "
        "missing-at-random data, with a simulation benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run benchmark scenarios from a config")
    p_sim.add_argument("--config", required=True, help="JSON run configuration")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="processes that compute the replications, this one "
                       "included, in interleaved shares (under spawn or forkserver "
                       "each child imports drmean first)")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate the outcome mean on a dataset")
    p_est.add_argument("--data", required=True, help="dataset CSV (t, y, covariates)")
    p_est.add_argument("--pi-cols", default=None, help="comma-separated response-model columns")
    p_est.add_argument("--m-cols", default=None, help="comma-separated outcome-model columns")
    p_est.add_argument("--estimators", default=None, help="comma-separated estimator names")
    p_est.add_argument("--out", default="-", help="output JSON path (default stdout)")
    p_est.set_defaults(func=cmd_estimate)

    p_sens = sub.add_parser("sensitivity", help="model-grid sensitivity analysis")
    p_sens.add_argument("--data", required=True, help="dataset CSV (t, y, covariates)")
    p_sens.add_argument("--config", required=True, help="JSON model-grid configuration")
    p_sens.add_argument("--out", default="-", help="output JSON path (default stdout)")
    p_sens.set_defaults(func=cmd_sensitivity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DrmeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
