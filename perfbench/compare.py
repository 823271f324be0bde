"""Compare two result sets of the benchmark.

    python3 perfbench/run.py compare RESULTS_A RESULTS_B

A result set is a directory the benchmark wrote result documents into
(--results; .bench_build/results by default): one document per untraced
run, under <workload>/seed-<n>-trace-false.json. For every workload and
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles over its runs, and flags

  WORSE       B's median is worse than A's by more than the metric's bound;
  UNRESOLVED  either side's spread (quartile distance over median) is wider
              than the bound, so "unchanged" cannot be claimed;
  MISSING     a workload or metric has fewer runs on one side than on the
              other (a run that crashed writes no document).

A metric a workload's documents list as not applicable is skipped.
Documents whose run failed (failed > 0) are listed and left out. The exit
status is 1 when anything is WORSE or MISSING or any document failed,
else 0.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(resdir):
    """workload -> metric -> list of values, from the untraced result
    documents of correct runs; plus the paths of failed runs and, per
    workload, the metrics its documents mark not applicable."""
    out, failed, na = {}, [], {}
    for path in sorted(glob.glob(os.path.join(resdir, "*", "seed-*-trace-false.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        if doc["failed"] > 0:
            failed.append(path)
            continue
        skip = set(doc.get("not_applicable") or [])
        na.setdefault(doc["workload"], set()).update(skip)
        for name, m in doc["metrics"].items():
            if name not in skip:
                out.setdefault(doc["workload"], {}).setdefault(name, []).append(m["value"])
    return out, failed, na


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    (a, failed_a, na_a), (b, failed_b, na_b) = load(argv[0]), load(argv[1])
    failed = failed_a + failed_b
    for path in failed:
        print("FAILED RUN %s" % path)
    worse = missing = 0
    rows = []
    print("%-15s %-19s %5s %12s %12s %12s %7s | %5s %12s %12s %12s %7s | %s" % (
        "workload", "metric", "n_a", "median_a", "q1_a", "q3_a", "spr_a",
        "n_b", "median_b", "q1_b", "q3_b", "spr_b", "flags"))
    for wl in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            if m["name"] in na_a.get(wl, set()) | na_b.get(wl, set()):
                continue
            va, vb = a.get(wl, {}).get(m["name"]), b.get(wl, {}).get(m["name"])
            if not va and not vb:
                # Neither side ran the workload: nothing to compare.
                continue
            if not va or not vb:
                missing += 1
                rows.append({"workload": wl, "metric": m["name"], "n_a": len(va or []), "n_b": len(vb or []),
                             "flags": ["MISSING"]})
                print("%-15s %-19s %5d %s | %5d %s | MISSING" % (
                    wl, m["name"], len(va or []), " " * 46, len(vb or []), " " * 46))
                continue
            ma, q1a, q3a, sa = summary(va)
            mb, q1b, q3b, sb = summary(vb)
            change = (mb - ma) / ma if ma else 0.0
            if m["better"] == "higher":
                change = -change
            flags = []
            if change > m["bound"]:
                flags.append("WORSE")
                worse += 1
            if sa > m["bound"] or sb > m["bound"]:
                flags.append("UNRESOLVED")
            if len(va) != len(vb):
                flags.append("MISSING")
                missing += 1
            rows.append({"workload": wl, "metric": m["name"], "a": [ma, q1a, q3a, sa], "b": [mb, q1b, q3b, sb],
                         "worse_by": change, "flags": flags})
            print("%-15s %-19s %5d %12.5g %12.5g %12.5g %7.3f | %5d %12.5g %12.5g %12.5g %7.3f | %s" % (
                wl, m["name"], len(va), ma, q1a, q3a, sa, len(vb), mb, q1b, q3b, sb, " ".join(flags) or "ok"))
    print(json.dumps({"worse": worse, "unresolved": sum("UNRESOLVED" in r["flags"] for r in rows),
                      "missing": missing, "failed_runs": failed, "rows": rows}))
    return 1 if worse or missing or failed else 0
