#!/usr/bin/env python3
"""Alternating A/B pairs of two dlz-benchmark binaries, judged by the
rules BENCHMARK.json and the perf protocol fix (docs/perf/PR-*.md).

    scripts/ab_pairs.py PARENT_BIN CHANGE_BIN -w clients-overload,mq-balanced \\
        --pairs 10 --seed-base 941 --claim throughput_mops@clients-overload

Each pair runs both binaries on one workload with one seed; odd pairs
run the parent first, even pairs the change. Arguments after `--` go to
both binaries unchanged (`-- --quick` for a smoke, `-- --trace 1` to
compare the per-layer metrics, which carry a direction but no bound).

stdout: one markdown table row per workload x metric — both medians
with their quartiles, the change's relative gap, the parent's own
quartile distance (the noise floor), the pairs the change won (ties
count for neither side) and a verdict:

  within      change median no worse than the parent's by more than the bound
  BREACH      worse by more than the bound
  unresolved  the parent's quartile distance is wider than the bound, and
              not every change run beats every parent run
  diagnostic  the metric has no bound (per-layer)
  CLAIM MET / CLAIM NOT MET   the --claim row: change ahead in at least
              nine tenths of all pairs and median gap, in the better
              direction, larger than the parent's quartile distance

stderr: first each binary's path, size and SHA-256, so a table can be
tied to the builds it compared; then one line per run with `correct`
and `failed` passed through.
Exit 0 when every verdict holds; 1 on a BREACH or a claim not met; 3 when
a run reported `failed > 0` or `correct: false`, exited non-zero or
printed no result; 2 on a usage error. Run it on an otherwise idle host.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def declared_metrics(path):
    """name -> (lower_is_better, bound or None), read-only from BENCHMARK.json."""
    spec = json.loads(Path(path).read_text())
    return {
        m["name"]: (m["better"] == "lower", m.get("bound"))
        for m in spec["end_to_end"] + spec["per_layer"]
    }


def run_once(binary, workload, seed, passthrough):
    """One benchmark process; returns (result object or None, exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), *passthrough]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        # The last stdout line is the result object.
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not (isinstance(result, dict) and isinstance(result.get("metrics"), dict)):
        result = None
    return result, proc.returncode


def describe(side, binary):
    """`side: path, size, sha256` of one binary, for the stderr log."""
    path = Path(binary).resolve()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return f"{side}: {path}, {path.stat().st_size} bytes, sha256 {digest}"


def quartiles(xs):
    """(q1, median, q3); a single run is its own quartiles."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    return f"{x:.4g}"


def judge(parent, change, lower, bound, claimed):
    """One row's statistics and verdict from the paired samples."""
    (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    gap = cmed - pmed
    rel = gap / pmed if pmed else (0.0 if gap == 0 else float("inf"))
    iqr = pq3 - pq1
    worse_by = rel if lower else -rel
    if claimed:
        ahead = 10 * wins >= 9 * len(parent)
        clear = better(cmed, pmed) and abs(gap) > iqr
        verdict = "CLAIM MET" if ahead and clear else "CLAIM NOT MET"
    elif bound is None:
        verdict = "diagnostic"
    elif worse_by > bound:
        verdict = "BREACH"
    elif pmed and iqr / abs(pmed) > bound and not all(
        better(c, p) for c in change for p in parent
    ):
        verdict = "unresolved"
    else:
        verdict = "within"
    return {
        "parent": f"{fmt(pmed)} [{fmt(pq1)}..{fmt(pq3)}]",
        "change": f"{fmt(cmed)} [{fmt(cq1)}..{fmt(cq3)}]",
        "delta": f"{rel:+.1%}",
        "iqr": f"{iqr / abs(pmed):.1%}" if pmed else fmt(iqr),
        "wins": f"{wins}/{len(parent)}",
        "bound": f"±{bound:.0%}" if bound is not None else "—",
        "verdict": verdict,
    }


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Arguments after `--` are passed to both binaries.",
    )
    ap.add_argument("parent", help="dlz-benchmark binary built from the parent commit")
    ap.add_argument("change", help="dlz-benchmark binary built from the change")
    ap.add_argument("-w", "--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1, help="pair i uses seed base + i")
    ap.add_argument("--claim", metavar="METRIC@WORKLOAD", help="the one row a gain is claimed on")
    ap.add_argument("--benchmark-json", default=Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args, passthrough = ap.parse_args(argv[:split]), argv[split + 1:]
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    declared = declared_metrics(args.benchmark_json)
    claim = tuple(args.claim.split("@")) if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in declared):
        ap.error(f"--claim {args.claim}: expected METRIC@WORKLOAD with a declared metric")
    workloads = [w for w in args.workloads.split(",") if w]
    if claim and claim[1] not in workloads:
        ap.error(f"--claim {args.claim}: workload not in --workloads")

    sides = {"parent": args.parent, "change": args.change}
    for side, binary in sides.items():
        print(describe(side, binary), file=sys.stderr)
    # samples[workload][metric][side] = one value per pair, in pair order
    samples = {w: {} for w in workloads}
    broken = []
    for w in workloads:
        for pair in range(args.pairs):
            seed = args.seed_base + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                result, code = run_once(sides[side], w, seed, passthrough)
                ok = result is not None and result.get("correct") and not result.get("failed")
                print(
                    f"{w} pair {pair + 1}/{args.pairs} seed {seed} {side}: exit {code}, "
                    + (f"correct {result.get('correct')}, failed {result.get('failed')}"
                       if result else "no result line"),
                    file=sys.stderr,
                )
                if not ok or code != 0:
                    broken.append(f"{w} seed {seed} {side}")
                got[side] = result
            if all(got.values()):
                for name in got["parent"]["metrics"]:
                    if name in got["change"]["metrics"] and name in declared:
                        row = samples[w].setdefault(name, {"parent": [], "change": []})
                        for side in sides:
                            row[side].append(got[side]["metrics"][name]["value"])

    print("| workload | metric | pairs | parent median [q1..q3] | change median [q1..q3] "
          "| Δ | parent IQR | change better in | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    failed_rows = []
    for w in workloads:
        for name, row in samples[w].items():
            lower, bound = declared[name]
            r = judge(row["parent"], row["change"], lower, bound, claim == (name, w))
            print(f"| {w} | {name} | {len(row['parent'])} | {r['parent']} | {r['change']} "
                  f"| {r['delta']} | {r['iqr']} | {r['wins']} | {r['bound']} | {r['verdict']} |")
            if r["verdict"] in ("BREACH", "CLAIM NOT MET"):
                failed_rows.append(f"{name}@{w}: {r['verdict']}")
    if claim and claim[0] not in samples[claim[1]]:
        failed_rows.append(f"{args.claim}: CLAIM NOT MET (no samples)")
    for line in broken:
        print(f"run failed: {line}", file=sys.stderr)
    for line in failed_rows:
        print(line, file=sys.stderr)
    sys.exit(3 if broken else 1 if failed_rows else 0)


if __name__ == "__main__":
    main()
