#!/usr/bin/env python3
"""Gate a fresh bench JSON against its checked-in baseline.

Usage:
    bench_diff.py CURRENT [BASELINE]          # serve mode (default)
    bench_diff.py --shard CURRENT [BASELINE]  # sharded-build mode

BASELINE defaults to bench/baselines/BENCH_serve_baseline.json (serve)
or bench/baselines/BENCH_shard_baseline.json (shard), relative to the
repository root (this script's parent directory's parent).

Two tiers, because CI runners are noisy but not arbitrarily noisy:

serve mode
  soft (``::warning``, exit 0)   p99 > 2x baseline, qps < 0.5x baseline,
                                 flight-recorder overhead >= 2%
  hard (``::error``, exit 1)     p99 > 4x baseline, qps < 0.2x baseline,
                                 hot_swap.dropped != 0, or the per-kind
                                 latency_hist quantiles missing/zero

shard mode
  soft (``::warning``, exit 0)   either wall_ms > 2x baseline
  hard (``::error``, exit 1)     any gate flag in the bench's own
                                 "gates" block false, either wall_ms
                                 > 4x baseline, gmin/shard-count/query
                                 sample mismatching the baseline, any
                                 byte counter (peak_resident_bytes,
                                 spill_bytes, snapshot_bytes,
                                 boundary_edges) above baseline, or
                                 cut-quality drift above baseline

The hard structural checks (counters, drops, quantiles present) never
depend on runner speed, so they gate unconditionally; the timing walls
only catch order-of-magnitude regressions that no runner jitter
explains. The shard bench's byte counters are exactly reproducible
(fixed instance, shards built one at a time in FIFO order), so *any*
increase is a real regression. Baselines are refreshed deliberately, in-review, by copying
a fresh build JSON over the file in bench/baselines/.
"""

import json
import pathlib
import sys

# Measured serve query sections and the latency_hist key each one feeds
# (the kway section runs k=4, the histogram is keyed by query kind).
SECTIONS = {
    "min_cut": "min_cut",
    "set_cut": "set_cut",
    "bisection": "bisection",
    "kway4": "kway",
}

P99_WARN, P99_FAIL = 2.0, 4.0  # x baseline
QPS_WARN, QPS_FAIL = 0.5, 0.2  # x baseline
OVERHEAD_WARN_PCT = 2.0

WALL_WARN, WALL_FAIL = 2.0, 4.0  # x baseline

failures = []


def warn(title: str, line: str) -> None:
    print(f"::warning title={title}::{line}")


def fail(title: str, line: str) -> None:
    failures.append(line)
    print(f"::error title={title}::{line}")


def diff_serve(current: dict, baseline: dict) -> None:
    for section, hist_key in SECTIONS.items():
        now, then = current[section], baseline[section]

        p99_now, p99_then = now["p99_us"], then["p99_us"]
        line = f"{section}: p99 {p99_now:.3f}us vs baseline {p99_then:.3f}us"
        if p99_now > P99_FAIL * p99_then:
            fail("serve p99 regression", f"{line} (> {P99_FAIL:.0f}x, hard)")
        elif p99_now > P99_WARN * p99_then:
            warn("serve p99 regression", f"{line} (> {P99_WARN:.0f}x, soft)")
        else:
            print(line + " (OK)")

        qps_now, qps_then = now["qps"], then["qps"]
        line = f"{section}: qps {qps_now:.0f} vs baseline {qps_then:.0f}"
        if qps_now < QPS_FAIL * qps_then:
            fail("serve qps regression", f"{line} (< {QPS_FAIL}x, hard)")
        elif qps_now < QPS_WARN * qps_then:
            warn("serve qps regression", f"{line} (< {QPS_WARN}x, soft)")
        else:
            print(line + " (OK)")

        # The per-kind SLO quantiles must be present and meaningful: a
        # zero p50/p99 with queries recorded means the histogram wiring
        # broke, which no amount of runner noise explains.
        hist = current.get("latency_hist", {}).get(hist_key)
        if hist is None:
            fail("latency_hist missing",
                 f"latency_hist[{hist_key!r}] absent from BENCH_serve.json")
            continue
        line = (f"{section}: hist count={hist['count']} "
                f"p50={hist['p50_us']:.3f}us p99={hist['p99_us']:.3f}us")
        if hist["count"] <= 0 or hist["p50_us"] <= 0 or hist["p99_us"] <= 0:
            fail("latency_hist empty", f"{line} (quantiles not recorded)")
        else:
            print(line + " (OK)")

    dropped = current["hot_swap"]["dropped"]
    if dropped != 0:
        fail("hot-swap drops",
             f"hot_swap dropped {dropped} queries (must be 0)")
    else:
        print(f"hot_swap: {current['hot_swap']['answered']} answered, "
              "0 dropped (OK)")

    recorder = current.get("flight_recorder")
    if recorder is None:
        fail("flight recorder missing",
             "flight_recorder section absent from BENCH_serve.json")
    else:
        pct = recorder["overhead_pct"]
        line = (f"flight recorder: {recorder['append_ns']:.2f} ns/append, "
                f"{pct:+.2f}% qps overhead")
        if pct >= OVERHEAD_WARN_PCT:
            warn("flight recorder overhead",
                 f"{line} (>= {OVERHEAD_WARN_PCT}% soft gate)")
        else:
            print(line + " (OK)")


def diff_shard(current: dict, baseline: dict) -> None:
    # The bench already evaluated its own hard gates (completion,
    # residency under budget, budget <= 1/4 in-memory RSS, exact gmin
    # equality, 1-vs-4-thread byte identity, no under-report); a false
    # flag here means the bench binary was run with its exit code
    # ignored, so re-fail it structurally.
    for gate, ok in current.get("gates", {}).items():
        line = f"gate {gate}: {ok}"
        if ok is not True:
            fail("shard gate failed", f"{line} (hard)")
        else:
            print(line + " (OK)")
    for gate in baseline.get("gates", {}):
        if gate not in current.get("gates", {}):
            fail("shard gate missing",
                 f"gate {gate!r} absent from BENCH_shard.json")

    # Identity fields: fixed instance + serial FIFO driver make these
    # exactly reproducible; any difference is a real behavior change
    # (refresh the baseline deliberately if it is intended).
    for section, key in (("sharded", "shards"),
                         ("sharded", "shards_completed"),
                         ("sharded", "gmin"),
                         ("in_memory", "gmin"),
                         ("drift", "queries")):
        c_now = current[section][key]
        c_then = baseline[section][key]
        line = f"{section}.{key}: {c_now} vs baseline {c_then}"
        if c_now != c_then:
            fail("shard identity mismatch", f"{line} (hard)")
        else:
            print(line + " (OK)")

    # Deterministic byte/quality counters: above baseline is a hard
    # regression, below is an improvement worth a baseline refresh.
    # drift.exact_matches is inverted (more exact answers is better).
    for section, key, better in (
            ("sharded", "peak_resident_bytes", "lower"),
            ("sharded", "spill_bytes", "lower"),
            ("sharded", "snapshot_bytes", "lower"),
            ("sharded", "boundary_edges", "lower"),
            ("in_memory", "snapshot_bytes", "lower"),
            ("drift", "max_ratio", "lower"),
            ("drift", "exact_matches", "higher")):
        c_now = current[section][key]
        c_then = baseline[section][key]
        worse = (c_now > c_then + 1e-9 if better == "lower"
                 else c_now < c_then)
        line = f"{section}.{key}: {c_now} vs baseline {c_then}"
        if worse:
            fail("shard counter regression", f"{line} (hard)")
        elif c_now != c_then:
            print(line + " (improved; refresh the baseline)")
        else:
            print(line + " (OK)")

    for section in ("sharded", "in_memory"):
        w_now = current[section]["wall_ms"]
        w_then = baseline[section]["wall_ms"]
        line = (f"{section}: wall {w_now:.3f}ms vs baseline "
                f"{w_then:.3f}ms")
        if w_now > WALL_FAIL * w_then:
            fail("shard wall regression",
                 f"{line} (> {WALL_FAIL:.0f}x, hard)")
        elif w_now > WALL_WARN * w_then:
            warn("shard wall regression",
                 f"{line} (> {WALL_WARN:.0f}x, soft)")
        else:
            print(line + " (OK)")


def main(argv: list) -> int:
    argv = list(argv)
    shard_mode = "--shard" in argv
    if shard_mode:
        argv.remove("--shard")
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    default_name = ("BENCH_shard_baseline.json" if shard_mode
                    else "BENCH_serve_baseline.json")
    current_path = pathlib.Path(argv[1])
    baseline_path = (
        pathlib.Path(argv[2]) if len(argv) == 3 else
        pathlib.Path(__file__).resolve().parent.parent
        / "bench" / "baselines" / default_name)
    current = json.loads(current_path.read_text())
    baseline = json.loads(baseline_path.read_text())
    if shard_mode:
        diff_shard(current, baseline)
    else:
        diff_serve(current, baseline)
    if failures:
        print(f"\n{len(failures)} hard failure(s):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nbench_diff: all hard gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
