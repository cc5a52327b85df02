"""Median, quartiles and spread of benchmark results.

    python3 bench/spread.py FILE...

Each FILE holds result lines of ``run.py`` (one JSON object per line) for
one workload.  For each metric this prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median; and the
share of failed operations.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(results: list[dict]) -> dict[str, tuple]:
    """Metric name -> (median, first quartile, third quartile, spread)."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = (med, q1, q3, (q3 - q1) / abs(med) if med else 0.0)
    return out


def main() -> None:
    for path in sys.argv[1:]:
        with open(path) as fh:
            results = [json.loads(line) for line in fh if line.strip()]
        failed = {(r["failed"], r["attempted"]) for r in results}
        print(f"{path}: {len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}, "
              f"failed/attempted: {sorted(failed)}")
        for name, (med, q1, q3, spread) in summarize(results).items():
            print(f"  {name:14s} median {med:.6g}  quartiles {q1:.6g} .. "
                  f"{q3:.6g}  spread {spread:.3f}")


if __name__ == "__main__":
    main()
