"""Compare two sets of benchmark records, workload by workload.

    python3 bench/compare.py --base OLD1.json OLD2.json ... --new NEW1.json ...

Records are the files ``bench/run.py`` writes (``.bench_run/*.json`` or
``--out``).  For every metric found on both sides it prints each side's
median and quartiles, the change of the medians as a share of the base
median, and a verdict against the bound in BENCHMARK.json:

  better      every new run beats every base run
  worse       the median got worse by more than the bound
  unresolved  the base runs spread wider than the bound
  same        otherwise

Counters must repeat exactly, so they are compared as counts: any that
differ between the two sides are listed with both values.
"""

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(paths):
    """Records grouped by (workload, trace), then metric -> values."""
    metrics = defaultdict(lambda: defaultdict(list))
    counters = defaultdict(dict)
    for path in paths:
        record = json.loads(Path(path).read_text())
        key = (record["workload"], record["trace"])
        for name, m in record["metrics"].items():
            metrics[key][name].append(m["value"])
        for name, value in record.get("counters", {}).items():
            counters[(key, record["seed"])][name] = value
    return metrics, counters


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better: str, bound: float | None) -> tuple[float, str]:
    higher = better == "higher"
    b1, bm, b3 = _quartiles(base)
    _, nm, _ = _quartiles(new)
    change = (nm - bm) / bm if bm else 0.0
    if (min(new) > max(base)) if higher else (max(new) < min(base)):
        return change, "better"
    if bound is None:
        return change, "-"
    if bm and (b3 - b1) / abs(bm) > bound:
        return change, "unresolved"
    loss = -change if higher else change
    return change, "worse" if loss > bound else "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, base_counts = _load(args.base)
    new, new_counts = _load(args.new)
    worse = 0
    for key in sorted(set(base) & set(new)):
        print(f"== {key[0]} (trace {key[1]}): {len(base[key][next(iter(base[key]))])} base "
              f"runs, {len(new[key][next(iter(new[key]))])} new runs")
        for name in sorted(set(base[key]) & set(new[key])):
            m = info.get(name, {"better": "lower", "unit": "?"})
            change, word = verdict(base[key][name], new[key][name], m["better"],
                                   m.get("bound"))
            worse += word == "worse"
            b1, bm, b3 = _quartiles(base[key][name])
            n1, nm, n3 = _quartiles(new[key][name])
            print(f"  {name:<50} base {bm:<11.5g} [{b1:.4g}, {b3:.4g}]  new {nm:<11.5g} "
                  f"[{n1:.4g}, {n3:.4g}] {m['unit']:<6} {change:+8.2%}  {word}")
    for key in sorted(set(base_counts) & set(new_counts)):
        b, n = base_counts[key], new_counts[key]
        for name in sorted(set(b) | set(n)):
            if b.get(name) != n.get(name):
                print(f"  counter {key[0][0]} seed {key[1]}: {name} "
                      f"{b.get(name)} -> {n.get(name)}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
