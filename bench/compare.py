"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python -m bench.compare A B [--same]

``A`` (the parent) and ``B`` (the change) are directories of run
records written by ``bench/run.py --out FILE``.  For every workload ×
metric pair this prints each side's median and quartiles, the pairs B
won when runs of the two sides share a seed, and a verdict:

* **improved** — B won at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ, in B's favour, by more than the
  parent's interquartile range;
* **regressed** — B's median is worse than A's by more than the
  metric's bound (per-layer metrics have no bound: they regress by the
  mirror image of the gain rule);
* **unresolved** — a side's spread (interquartile range over median) is
  wider than the bound, so neither claim can be made, unless every run
  of B reads better than every run of A;
* **unchanged** — none of the above.

With ``--same`` the two sets are runs of one commit, and the question
is whether they agree: on every end-to-end metric both spreads and the
gap between the medians must stay within the bound.  Exit status is 1
when an end-to-end metric regressed (or, with ``--same``, disagreed).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import common  # noqa: E402

#: Share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Summary:
    median: float
    q1: float
    q3: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        if len(values) == 1:
            return cls(values[0], values[0], values[0])
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return cls(statistics.median(values), q1, q3)

    @property
    def spread(self) -> float:
        """Interquartile range as a share of the median."""
        if self.median == 0:
            return 0.0 if self.q3 == self.q1 else float("inf")
        return (self.q3 - self.q1) / abs(self.median)


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (<0: better).

    Only end-to-end metrics, which are never 0, are compared this way.
    """
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _b_better(a: float, b: float, better: str) -> bool:
    return b < a if better == "lower" else b > a


def verdict(
    a: Sequence[float],
    b: Sequence[float],
    pairs: Sequence[Tuple[float, float]],
    better: str,
    bound: Optional[float],
) -> Tuple[str, int, int]:
    """(verdict, wins, losses) of B against A for one metric × workload."""
    sa, sb = Summary.of(a), Summary.of(b)
    wins = sum(1 for x, y in pairs if _b_better(x, y, better))
    losses = sum(1 for x, y in pairs if _b_better(y, x, better))
    gap = abs(sb.median - sa.median)
    parent_iqr = sa.q3 - sa.q1
    if bound is not None and max(sa.spread, sb.spread) > bound:
        every = all(_b_better(x, y, better) for x in a for y in b)
        return ("improved" if every else "unresolved"), wins, losses
    if pairs and wins >= WIN_SHARE * len(pairs) and gap > parent_iqr and _b_better(
        sa.median, sb.median, better
    ):
        return "improved", wins, losses
    if bound is not None:
        regressed = _worse_by(sa.median, sb.median, better) > bound
    else:
        regressed = bool(pairs) and losses >= WIN_SHARE * len(pairs) and gap > parent_iqr
    return ("regressed" if regressed else "unchanged"), wins, losses


def agree(a: Sequence[float], b: Sequence[float], bound: float) -> bool:
    """Two sets of one commit agree within ``bound`` (the ``--same`` check)."""
    sa, sb = Summary.of(a), Summary.of(b)
    gap = abs(sb.median - sa.median) / abs(sa.median) if sa.median else 0.0
    return sa.spread <= bound and sb.spread <= bound and gap <= bound


def load_runs(directory: Path) -> List[Dict]:
    """Every run record under ``directory`` (files of one run or ``{"runs": [...]}``)."""
    runs: List[Dict] = []
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        runs.extend(data["runs"] if "runs" in data else [data])
    return [run for run in runs if run.get("metrics")]


def _table(runs: Sequence[Dict]) -> Dict[Tuple[str, str], Dict[int, float]]:
    """(workload, metric) → {seed: value}; a repeated seed keeps its last run."""
    table: Dict[Tuple[str, str], Dict[int, float]] = {}
    for run in runs:
        for name, entry in run["metrics"].items():
            table.setdefault((run["workload"], name), {})[run["seed"]] = entry["value"]
    return table


def compare(a_runs: Sequence[Dict], b_runs: Sequence[Dict], same: bool) -> Tuple[List[str], bool]:
    """Report rows, and whether the comparison passed."""
    benchmark = common.load_benchmark()
    declared = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    ta, tb = _table(a_runs), _table(b_runs)
    rows = [
        f"{'workload':14s} {'metric':30s} {'A median [q1, q3]':>34s} "
        f"{'B median [q1, q3]':>34s} {'pairs':>7s}  verdict"
    ]
    passed = True
    for key in sorted(set(ta) & set(tb)):
        workload, name = key
        if name not in declared:
            continue
        a, b = ta[key], tb[key]
        seeds = sorted(set(a) & set(b))
        pairs = [(a[seed], b[seed]) for seed in seeds]
        bound = bounds.get(name)
        sa, sb = Summary.of(list(a.values())), Summary.of(list(b.values()))
        if same:
            if bound is None:
                continue
            ok = agree(list(a.values()), list(b.values()), bound)
            passed &= ok
            result, wins = ("agree" if ok else "DISAGREE"), None
        else:
            result, wins, _losses = verdict(
                list(a.values()), list(b.values()), pairs, declared[name]["better"], bound
            )
            if bound is not None and result == "regressed":
                passed = False
        pair_text = f"{wins}/{len(pairs)}" if wins is not None else f"{len(pairs)}"
        rows.append(
            f"{workload:14s} {name:30s} "
            f"{sa.median:12.5g} [{sa.q1:9.5g}, {sa.q3:9.5g}] "
            f"{sb.median:12.5g} [{sb.q1:9.5g}, {sb.q3:9.5g}] "
            f"{pair_text:>7s}  {result}"
            + (f" (spread {sa.spread:.3f}/{sb.spread:.3f}, bound {bound})" if bound else "")
        )
    return rows, passed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare", description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="parent runs (directory of run JSONs)")
    parser.add_argument("b", type=Path, help="change runs (directory of run JSONs)")
    parser.add_argument("--same", action="store_true",
                        help="both sets come from one commit: check that they agree")
    args = parser.parse_args(argv)
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    if not a_runs or not b_runs:
        print("error: both directories need run records (bench/run.py --out)", file=sys.stderr)
        return 2
    rows, passed = compare(a_runs, b_runs, args.same)
    print("\n".join(rows))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
