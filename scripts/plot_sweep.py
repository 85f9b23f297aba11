#!/usr/bin/env python3
"""Plot sweep artifacts produced by the `scenarios` binary.

Pure stdlib: reads the JSON array `scenarios` writes to stdout,
renders an ASCII chart to stdout and (with --out) a self-contained SVG.

Two modes:

  Throughput (default)
      One series per policy, throughput in mops on the y axis against
      a numeric grid axis (default `t`, the thread axis):

          scenarios --scenario queue-balanced \
              --threads 1,2,4,8 --policies two-choice,sticky=16 \
              > sweep.json
          python3 scripts/plot_sweep.py sweep.json --out sweep.svg

  Telemetry (plot_sweep.py --telemetry)
      Time-resolved series from reports run with --telemetry-interval-ms
      N: one row per report, per-interval throughput plus a contention
      counter (default backoff_spins: an operation waiting out a held
      lock snoozes, and only a deadline-bounded one fails a lock attempt):

          scenarios --scenario mq-hotpath-rank-audit \
              --telemetry-interval-ms 10 > run.json
          python3 scripts/plot_sweep.py run.json --telemetry
"""

import argparse
import json
import sys

ASCII_WIDTH = 64
ASCII_HEIGHT = 16
SPARK = " .:-=+*#%@"
SVG_COLORS = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


def load_reports(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise SystemExit(f"{path}: expected a JSON array of run reports")
    return data


def series_label(report, series_key):
    label = report.get("grid", {}).get(series_key)
    if label is not None:
        return str(label)
    # No such grid axis (e.g. a thread-only sweep over the whole roster):
    # one series per backend kind, its label up to the parameters (which
    # vary with the thread count), tagged with the report's own value.
    kind = report.get("backend", "?").split("(")[0]
    value = report.get(series_key)
    return kind if value is None else f"{value} [{kind}]"


def x_value(report, x_key):
    v = report.get("grid", {}).get(x_key)
    if v is None and x_key == "t":
        v = report.get("threads")
    if v is None:
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def collect_throughput(reports, x_key, series_key):
    """-> {series: [(x, mops)]}, duplicate x (e.g. seed axis) averaged."""
    acc = {}
    for r in reports:
        x = x_value(r, x_key)
        mops = r.get("throughput", {}).get("mops")
        if x is None or mops is None:
            continue
        acc.setdefault(series_label(r, series_key), {}).setdefault(x, []).append(mops)
    out = {}
    for label, by_x in acc.items():
        out[label] = sorted((x, sum(v) / len(v)) for x, v in by_x.items())
    return out


def ascii_chart(series, x_label, y_label):
    """Multi-series scatter on a WIDTH x HEIGHT character grid."""
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data points)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) or 1.0
    grid = [[" "] * ASCII_WIDTH for _ in range(ASCII_HEIGHT)]
    marks = "ox+*sdv^<>"
    legend = []
    for i, (label, pts) in enumerate(sorted(series.items())):
        mark = marks[i % len(marks)]
        legend.append(f"  {mark}  {label}")
        for x, y in pts:
            cx = 0 if x_hi == x_lo else int((x - x_lo) / (x_hi - x_lo) * (ASCII_WIDTH - 1))
            cy = int((y - y_lo) / (y_hi - y_lo) * (ASCII_HEIGHT - 1))
            grid[ASCII_HEIGHT - 1 - cy][cx] = mark
    lines = [f"{y_label} (max {y_hi:.3f})"]
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * ASCII_WIDTH)
    lines.append(f" {x_label}: {x_lo:g} .. {x_hi:g}")
    lines.extend(legend)
    return "\n".join(lines)


def sparkline(values, lo=None, hi=None):
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    if hi == lo:
        # A flat series still distinguishes zero from a held level.
        return SPARK[len(SPARK) // 2 if lo > 0 else 0] * len(values)
    span = hi - lo
    return "".join(SPARK[int((v - lo) / span * (len(SPARK) - 1))] for v in values)


def svg_chart(series, x_label, y_label, path):
    """Hand-rolled line chart: no dependencies, one polyline per series."""
    w, h, pad = 640, 400, 56
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        raise SystemExit("nothing to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, (max(ys) or 1.0) * 1.05

    def px(x):
        f = 0.5 if x_hi == x_lo else (x - x_lo) / (x_hi - x_lo)
        return pad + f * (w - 2 * pad)

    def py(y):
        return h - pad - (y - y_lo) / (y_hi - y_lo) * (h - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="monospace" font-size="11">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>',
        f'<text x="{w / 2:.0f}" y="{h - 12}" text-anchor="middle">{x_label}</text>',
        f'<text x="14" y="{h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {h / 2:.0f})">{y_label}</text>',
    ]
    for i in range(5):
        y = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<text x="{pad - 6}" y="{py(y) + 4:.1f}" text-anchor="end">{y:.2f}</text>'
        )
    for x in sorted({p[0] for p in points}):
        parts.append(
            f'<text x="{px(x):.1f}" y="{h - pad + 16}" text-anchor="middle">{x:g}</text>'
        )
    for i, (label, pts) in enumerate(sorted(series.items())):
        color = SVG_COLORS[i % len(SVG_COLORS)]
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{w - pad + 4}" y="{pad + 14 * i + 10}" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts))


def telemetry_rows(reports, counter):
    """-> [(label, interval_ms, ops/interval, counter/interval)]"""
    rows = []
    for r in reports:
        t = r.get("telemetry")
        if not t or not t.get("series"):
            continue
        label = r.get("cell") or r.get("scenario", "?")
        label = f"{label} :: {r.get('backend', '?')}"
        ops, events = [], []
        for iv in t["series"]:
            ops.append(
                iv.get("updates", 0)
                + iv.get("removes", 0)
                + iv.get("removes_empty", 0)
                + iv.get("reads", 0)
            )
            c = iv.get("contention", {})
            events.append(c.get(counter, 0))
        rows.append((label, t.get("interval_ms", 0), ops, events))
    return rows


def print_telemetry(rows, counter):
    if not rows:
        raise SystemExit(
            "no telemetry series found — rerun scenarios with "
            "--telemetry-interval-ms N"
        )
    for label, interval_ms, ops, events in rows:
        print(f"{label}  ({len(ops)} intervals x {interval_ms} ms)")
        print(f"  ops/interval      |{sparkline(ops)}|  max {max(ops)}")
        print(f"  {counter:<17} |{sparkline(events)}|  max {max(events)}")
        print()


def svg_telemetry(rows, counter, path):
    series = {}
    for label, interval_ms, ops, _events in rows:
        step = interval_ms or 1
        series[label] = [((i + 1) * step, v) for i, v in enumerate(ops)]
    svg_chart(series, "time (ms)", "ops per interval", path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("artifact", help="JSON array from `scenarios` stdout")
    ap.add_argument("--x", default="t", help="numeric grid axis for the x axis (default t)")
    ap.add_argument("--series", default="policy", help="grid axis naming the series (default policy)")
    ap.add_argument("--telemetry", action="store_true", help="render per-interval time series instead")
    ap.add_argument(
        "--counter",
        default="backoff_spins",
        help="contention counter for telemetry mode (default backoff_spins)",
    )
    ap.add_argument("--out", help="write an SVG chart here as well")
    args = ap.parse_args()

    reports = load_reports(args.artifact)
    if args.telemetry:
        rows = telemetry_rows(reports, args.counter)
        print_telemetry(rows, args.counter)
        if args.out:
            svg_telemetry(rows, args.counter, args.out)
            print(f"wrote {args.out}", file=sys.stderr)
        return

    series = collect_throughput(reports, args.x, args.series)
    if not series:
        raise SystemExit(
            f"no ({args.x}, mops) points found — is this a sweep artifact with a "
            f"'{args.x}' axis? (run scenarios with --threads 1,2,...)"
        )
    print(ascii_chart(series, args.x, "mops"))
    if args.out:
        svg_chart(series, args.x, "mops", args.out)
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
