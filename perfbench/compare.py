"""Compare benchmark records of two commits.

Usage: python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the record files run.py saved under
perfbench/.work/records/ (copy that directory away after running each
commit). For every workload and metric found in both, this prints each
side's median and quartiles, the change's median as a share of the base's,
how many seeds the change won, and whether the change stays within the
metric's bound from BENCHMARK.json. It also reports, per workload, the
seeds whose output digests differ between the two sides: equal digests
mean the same picks and the same weights to 17 digits.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """(workload, trace) -> {seed: record}."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        if path.name.endswith("-spans.json"):
            continue
        rec = json.loads(path.read_text(encoding="utf-8"))
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(base_dir: str, change_dir: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(base_dir), load(change_dir)
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        b, c = base[key], change[key]
        seeds = sorted(set(b) & set(c))
        print(f"== {workload} (trace {trace}), {len(b)} base and {len(c)} change runs, {len(seeds)} shared seeds")
        for name in b[next(iter(b))]["metrics"]:
            bv = [r["metrics"][name] for r in b.values()]
            cv = [r["metrics"][name] for r in c.values()]
            bq, cq = quartiles(bv), quartiles(cv)
            m = info.get(name, {"better": "lower", "unit": ""})
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(sign * (c[s]["metrics"][name] - b[s]["metrics"][name]) < 0 for s in seeds)
            ratio = cq[1] / bq[1] if bq[1] else float("nan")
            verdict = ""
            if "bound" in m and bq[1]:
                worse = sign * (cq[1] - bq[1]) / abs(bq[1])
                verdict = "REGRESSION" if worse > m["bound"] else "ok"
            print(
                f"  {name:28s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {m['unit']}"
                f"  ratio {ratio:.4f}  wins {wins}/{len(seeds)} {verdict}"
            )
        differ = [s for s in seeds if b[s]["output_sha256"] != c[s]["output_sha256"]]
        print(f"  outputs differ on seeds: {differ or 'none'}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
