"""Compare two sets of benchmark reports against the bounds in
BENCHMARK.json.

    python3 perf/compare.py A B

``A`` and ``B`` are each a ``report.json`` written by ``perf/run.py`` or a
directory of them (several runs of one commit); ``A`` is the base.  One row
per workload x end-to-end metric: both medians, the ratio B/A, the bound,
and a verdict:

* ``ok``          B is not worse than A by more than the bound;
* ``REGRESSION``  it is;
* ``unresolved``  the spread recorded inside the runs (slice MAD, or the
                  range across a side's runs) is wider than the bound, so
                  neither verdict can be trusted — unless every run of B
                  reads better than every run of A.

Exits non-zero on a regression or when B failed more calls than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def load_side(path: Path) -> List[Dict[str, Any]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no reports under {path}")
    reports = []
    for file in files:
        with open(file) as fh:
            reports.append(json.load(fh))
    return reports


def values(side: List[Dict[str, Any]], workload: str, metric: str):
    return [r["workloads"][workload]["end_to_end"][metric] for r in side]


def spread(entries: List[Dict[str, Any]]) -> float:
    """The widest relative spread this side recorded for one metric: the
    slice MAD within a run, or the range across runs."""
    medians = [e["value"] for e in entries]
    centre = statistics.median(medians)
    within = max(e.get("mad", 0.0) / e["value"] for e in entries)
    across = (max(medians) - min(medians)) / centre
    return max(within, across)


def failed_share(side: List[Dict[str, Any]], workload: str) -> float:
    return statistics.median(
        r["workloads"][workload]["failed"]
        / r["workloads"][workload]["attempted"] for r in side)


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    base, change = load_side(Path(argv[1])), load_side(Path(argv[2]))
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    worse = 0
    print(f"{'workload':18s} {'metric':24s} {'A (base)':>14s} {'B':>14s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (values(side, workload, name) for side in (base, change))
            a_med, b_med = (statistics.median(e["value"] for e in side)
                            for side in (a, b))
            ratio = b_med / a_med
            lower = metric["better"] == "lower"
            regressed = ratio > 1 + bound if lower else ratio < 1 - bound
            a_all, b_all = ([e["value"] for e in side] for side in (a, b))
            all_better = (max(b_all) < min(a_all) if lower
                          else min(b_all) > max(a_all))
            if max(spread(a), spread(b)) > bound and not all_better:
                verdict = "unresolved"
            elif regressed:
                verdict = "REGRESSION"
                worse += 1
            else:
                verdict = "ok"
            print(f"{workload:18s} {name:24s} {a_med:14.3f} {b_med:14.3f} "
                  f"{ratio:7.3f} {bound:6.2f}  {verdict}")
        a_failed, b_failed = (failed_share(side, workload)
                              for side in (base, change))
        if b_failed > a_failed:
            worse += 1
        print(f"{workload:18s} {'failed_share':24s} {a_failed:14.6f} "
              f"{b_failed:14.6f} {'':7s} {'+0':>6s}  "
              f"{'HIGHER' if b_failed > a_failed else 'ok'}")
    print(f"\nbase: {len(base)} run(s) of {argv[1]}; "
          f"B: {len(change)} run(s) of {argv[2]}; ratios are B over A")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
