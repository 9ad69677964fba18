#!/usr/bin/env python3
"""Perf-smoke gate for the committed bench baselines (bench_hot_path,
bench_serving, bench_net_serving, bench_dist_sync).

Compares a fresh `--json` run against the committed baseline and fails
(exit 1) when any compared config regressed by more than --max-regression
(default 25%) on any gated metric. --metrics selects the gated columns
(default: updates_per_sec; CI gates updates, predicts, and estimates so
read-path regressions fail the build like write-path ones). Each metric is
normalized independently (see --normalize); rows missing a metric are
skipped for that metric.

Only rows whose kernel matches --kernel (default "scalar") are compared:
the scalar path exists on every machine, so it is the portable regression
signal; AVX2 rows are reported when present but never gate.

With --normalize (what CI uses), each config's fresh/baseline ratio is
divided by the *second-highest* ratio across configs before gating, so a
runner that is uniformly slower or faster than the machine that recorded
the baseline does not trip (or vacuously pass) the per-config check — only
a regression relative to the fastest configs does. The second-highest (not
the median) is the reference so a regression hitting half the configs
cannot drag the normalizer down and mask itself, while a single noisy-high
outlier cannot inflate it either. A broad collapse (all but one config
slow) is caught by --min-median (default 0.4): the median raw ratio must
stay above that generous cross-machine floor. Without --normalize, raw
ratios gate directly (the right mode when fresh and baseline come from the
same machine).

Usage:
  tools/check_perf.py fresh.json BENCH_hot_path.json [--max-regression 0.25]
                      [--metrics updates_per_sec,predicts_per_sec]
                      [--normalize] [--min-median 0.4]

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import statistics
import sys


def load_rows(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for row in data.get("rows", []):
        out[(row["config"], row["kernel"])] = row
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="json from the bench run under test")
    parser.add_argument("baseline", help="committed BENCH_hot_path.json")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional drop in updates_per_sec")
    parser.add_argument("--kernel", default="scalar",
                        help="kernel rows to gate on (default: scalar)")
    parser.add_argument("--metrics", default="updates_per_sec",
                        help="comma-separated row fields to gate "
                             "(default: updates_per_sec)")
    parser.add_argument("--lower-better", default="",
                        help="comma-separated metrics where smaller is "
                             "better (publish_bytes, publish_us): their "
                             "ratios are inverted (baseline/fresh) so a "
                             "rise gates exactly like a throughput drop")
    parser.add_argument("--normalize", action="store_true",
                        help="gate on ratios normalized by the second-highest "
                             "ratio (for baselines recorded on another machine)")
    parser.add_argument("--min-median", type=float, default=0.4,
                        help="with --normalize: minimum allowed median raw "
                             "ratio (catches a uniform collapse)")
    args = parser.parse_args()

    fresh = load_rows(args.fresh)
    base = load_rows(args.baseline)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    lower_better = {m.strip() for m in args.lower_better.split(",") if m.strip()}

    failures = []
    gated_total = 0
    for metric in metrics:
        rows = []
        for (config, kernel), brow in sorted(base.items()):
            frow = fresh.get((config, kernel))
            if frow is None or metric not in brow or metric not in frow:
                continue
            b, f = float(brow[metric]), float(frow[metric])
            if b <= 0 or (metric in lower_better and f <= 0):
                continue
            ratio = b / f if metric in lower_better else f / b
            rows.append((config, kernel, b, f, ratio))

        gated = [r for r in rows if r[1] == args.kernel]
        if not gated:
            print(f"error: no comparable {metric} rows between fresh run "
                  "and baseline", file=sys.stderr)
            return 1
        gated_total += len(gated)

        ratios = sorted(r[4] for r in gated)
        median = statistics.median(ratios)
        reference = ratios[-2] if len(ratios) >= 3 else ratios[-1]
        norm = reference if args.normalize and reference > 0 else 1.0
        header = "norm" if args.normalize else "ratio"
        print(f"\n== {metric} ==")
        print(f"{'config':<20} {'kernel':<8} {'baseline':>12} {'fresh':>12} "
              f"{'ratio':>7} {header:>7}")
        for config, kernel, b, f, ratio in rows:
            scaled = ratio / norm
            mark = ""
            if kernel == args.kernel and scaled < 1.0 - args.max_regression:
                failures.append((metric, config, kernel, scaled))
                mark = "  << REGRESSION"
            print(f"{config:<20} {kernel:<8} {b:>12.0f} {f:>12.0f} "
                  f"{ratio:>7.2f} {scaled:>7.2f}{mark}")
        if args.normalize:
            print(f"reference ratio (2nd-highest): {reference:.2f}; "
                  f"median raw ratio: {median:.2f} (floor {args.min_median:.2f})")
            if median < args.min_median:
                failures.append((metric, "<median>", args.kernel, median))

    if failures:
        print(f"\n{len(failures)} check(s) regressed more than "
              f"{args.max_regression:.0%} on the {args.kernel} path:",
              file=sys.stderr)
        for metric, config, kernel, ratio in failures:
            print(f"  {metric}: {config} [{kernel}]: {ratio:.2f}x",
                  file=sys.stderr)
        return 1
    print(f"\nOK: {gated_total} {args.kernel} (config, metric) cell(s) within "
          f"{args.max_regression:.0%} of baseline"
          f"{' (normalized)' if args.normalize else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
