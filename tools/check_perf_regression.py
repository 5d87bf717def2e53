#!/usr/bin/env python3
"""Gate bench_kernels performance against a committed baseline.

Usage:
  check_perf_regression.py <BENCH_kernels.json> <baseline.json> [--tolerance F]
  check_perf_regression.py <BENCH_kernels.json> <baseline.json> --update
  check_perf_regression.py <BENCH_kernels.json> --crossover
  check_perf_regression.py <BENCH_kernels.json> --ring-flat
  check_perf_regression.py <BENCH_kernels.json> --metrics-overhead
  check_perf_regression.py <BENCH_kernels.json> --profile-overhead

Compares the ns_per_packet counter (and, for the streaming-receiver rows,
ns_per_sample) of every benchmark present in both the fresh
google-benchmark document and the baseline, and fails when any is
slower than baseline * (1 + tolerance). The default tolerance is
deliberately generous (±30 %): shared CI runners are noisy, and the gate
exists to catch real regressions (an accidental O(n²), a debug build, a
hot-path allocation) loudly, not 5 % jitter silently. Benchmarks present
on only one side are reported but never fatal, so adding or retiring a
benchmark does not break CI before the baseline is refreshed.

A speed-up beyond the same tolerance prints a note suggesting a baseline
refresh; `--update` rewrites the baseline from the fresh run (commit the
result; the file records the machine's numbers, so refresh it from the
same class of machine CI uses).

`--ring-flat` checks the streaming receiver's O(window) memory claim
instead of the baseline: every BM_StreamingRx row exports an
rx_ring_bytes counter (resident ring footprint after the run), and the
gate requires the value to be byte-identical across all stream lengths —
a ring that grows with the 10x stream means per-sample state is being
retained (DESIGN.md §9).

`--metrics-overhead` checks the metrics plane's cost ceiling instead of
the baseline: every BM_<X>Metrics row is paired with its metrics-off twin
BM_<X> on the ns_per_round counter, and the gate requires the enabled run
to stay within METRICS_OVERHEAD_TOLERANCE (+2 %) of the twin — the
strict-identity-when-off contract's enabled-side budget (DESIGN.md §7).
Pairs are matched within one run, so machine speed cancels out.

`--profile-overhead` is the same self-relative gate for the hierarchical
profiler (DESIGN.md §7): every BM_<X>Profile row is paired with its
profiler-off twin BM_<X> on ns_per_round, and the enabled run must stay
within PROFILE_OVERHEAD_TOLERANCE (+2 %) of the twin.

`--crossover` checks the detection-engine crossover policy instead of the
baseline: it groups the BM_DetectPeaks{Naive,Fft,Auto}/K/L/W rows of a
fresh run by grid point and, wherever the naive and FFT engines are
clearly separated (>= CROSSOVER_SEPARATION apart), requires the auto
engine to land within CROSSOVER_SLACK of the winner. That pins the auto
cost model (rx::CorrelationEngine, DESIGN.md §8.2) to measured reality
without hard-coding machine-dependent absolute times.
"""
import json
import re
import sys

DEFAULT_TOLERANCE = 0.30

# --crossover: only grid points where the engines differ by at least this
# factor are judged (near the crossover either choice is fine) ...
CROSSOVER_SEPARATION = 1.5
# ... and there the auto engine must be within this factor of the winner.
CROSSOVER_SLACK = 1.3

# --metrics-overhead: a metrics-enabled round may cost at most this much
# more than its metrics-off twin (ISSUE acceptance: +2% ns_per_round).
METRICS_OVERHEAD_TOLERANCE = 0.02

# --profile-overhead: the same budget for a profiler-enabled round vs its
# profiler-off twin.
PROFILE_OVERHEAD_TOLERANCE = 0.02


def fail(msg: str) -> None:
    print(f"check_perf_regression: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def counter_by_name(doc: dict, counter: str, positive: bool = True) -> dict:
    """benchmark name -> `counter` value from a google-benchmark JSON doc."""
    out = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of --benchmark_repetitions).
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        value = bench.get(counter)
        if name and isinstance(value, (int, float)) and (value > 0 or not positive):
            out[name] = float(value)
    return out


def ns_per_packet_by_name(doc: dict) -> dict:
    return counter_by_name(doc, "ns_per_packet")


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        fail(f"{path} missing")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def check_crossover(current_path: str) -> None:
    """Validate auto-engine selection against measured naive/FFT times."""
    current = ns_per_packet_by_name(load(current_path))
    pattern = re.compile(r"^BM_DetectPeaks(Naive|Fft|Auto)/(\d+/\d+/\d+)$")
    grid = {}  # "K/L/W" -> {"Naive": ns, "Fft": ns, "Auto": ns}
    for name, ns in current.items():
        m = pattern.match(name)
        if m:
            grid.setdefault(m.group(2), {})[m.group(1)] = ns
    judged = 0
    failures = []
    for point in sorted(grid, key=lambda p: [int(x) for x in p.split("/")]):
        engines = grid[point]
        if not all(k in engines for k in ("Naive", "Fft", "Auto")):
            print(f"check_perf_regression: note: grid point {point} missing "
                  "an engine row — skipped")
            continue
        naive, fft, auto = engines["Naive"], engines["Fft"], engines["Auto"]
        best = min(naive, fft)
        separation = max(naive, fft) / best
        winner = "naive" if naive <= fft else "fft"
        if separation < CROSSOVER_SEPARATION:
            print(f"check_perf_regression: crossover {point}: naive {naive:.0f}"
                  f" vs fft {fft:.0f} ns within {CROSSOVER_SEPARATION}x — "
                  "either choice fine, skipped")
            continue
        judged += 1
        ratio = auto / best
        verdict = "ok" if ratio <= CROSSOVER_SLACK else "WRONG ENGINE"
        print(f"check_perf_regression: crossover {point}: winner {winner} "
              f"({best:.0f} ns), auto {auto:.0f} ns "
              f"({ratio:.2f}x winner): {verdict}")
        if ratio > CROSSOVER_SLACK:
            failures.append((point, winner, best, auto, ratio))
    if not grid:
        fail(f"{current_path} has no BM_DetectPeaks rows — run bench_kernels "
             "with --benchmark_filter=BM_DetectPeaks")
    for point, winner, best, auto, ratio in failures:
        print(f"check_perf_regression: FAIL: auto engine picked the losing "
              f"path at {point}: winner {winner} {best:.0f} ns, auto "
              f"{auto:.0f} ns ({ratio:.2f}x > {CROSSOVER_SLACK}x allowed)",
              file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"check_perf_regression: crossover policy ok at {judged} separated "
          f"grid points ({len(grid)} total)")


def check_ring_flat(current_path: str) -> None:
    """Require rx_ring_bytes to be identical across BM_StreamingRx rows."""
    rings = {
        name: bytes_
        for name, bytes_ in counter_by_name(load(current_path),
                                            "rx_ring_bytes").items()
        if name.startswith("BM_StreamingRx")
    }
    if len(rings) < 2:
        fail(f"{current_path} has {len(rings)} BM_StreamingRx rows with "
             "rx_ring_bytes — need at least two stream lengths to judge "
             "flatness (run bench_kernels with "
             "--benchmark_filter=BM_StreamingRx)")
    for name in sorted(rings):
        print(f"check_perf_regression: ring-flat: {name}: "
              f"{rings[name]:.0f} resident ring bytes")
    distinct = set(rings.values())
    if len(distinct) != 1:
        fail("rx_ring_bytes differs across stream lengths "
             f"({sorted(distinct)}) — the streaming receiver is retaining "
             "per-sample state instead of O(window) rings")
    print(f"check_perf_regression: ring-flat ok: {len(rings)} stream lengths, "
          f"{next(iter(distinct)):.0f} bytes resident in every run")


def check_twin_overhead(current_path: str, suffix: str, tolerance: float,
                        label: str) -> None:
    """Pair BM_<X><suffix> rows with their plain BM_<X> twins on
    ns_per_round and enforce the enabled-side cost budget."""
    rounds = counter_by_name(load(current_path), "ns_per_round")
    pairs = []
    for name, ns_on in sorted(rounds.items()):
        base, sep, rest = name.partition("/")
        if not base.endswith(suffix):
            continue
        twin = base[:-len(suffix)] + sep + rest
        if twin not in rounds:
            print(f"check_perf_regression: note: '{name}' has no "
                  f"{label}-off twin '{twin}' in this run — skipped")
            continue
        pairs.append((twin, name, rounds[twin], ns_on))
    if not pairs:
        fail(f"{current_path} has no paired BM_<X>/BM_<X>{suffix} "
             "ns_per_round rows — run bench_kernels with "
             "--benchmark_filter=BM_NetMulticellRound")
    failures = []
    for twin, name, ns_off, ns_on in pairs:
        ratio = ns_on / ns_off
        verdict = "ok" if ratio <= 1.0 + tolerance else "OVER BUDGET"
        print(f"check_perf_regression: {label}-overhead: {twin} "
              f"{ns_off:.0f} ns -> {name} {ns_on:.0f} ns "
              f"({ratio:.3f}x): {verdict}")
        if ratio > 1.0 + tolerance:
            failures.append((name, ratio))
    for name, ratio in failures:
        print(f"check_perf_regression: FAIL: {name} costs {ratio:.3f}x its "
              f"{label}-off twin (> {1.0 + tolerance:.2f}x allowed)",
              file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"check_perf_regression: {label} overhead within "
          f"{tolerance:.0%} on {len(pairs)} pair(s)")


def check_metrics_overhead(current_path: str) -> None:
    check_twin_overhead(current_path, "Metrics", METRICS_OVERHEAD_TOLERANCE,
                        "metrics")


def check_profile_overhead(current_path: str) -> None:
    check_twin_overhead(current_path, "Profile", PROFILE_OVERHEAD_TOLERANCE,
                        "profile")


def main() -> None:
    args = sys.argv[1:]
    if "--metrics-overhead" in args:
        args = [a for a in args if a != "--metrics-overhead"]
        if len(args) != 1:
            fail("usage: check_perf_regression.py <BENCH_kernels.json> "
                 "--metrics-overhead")
        check_metrics_overhead(args[0])
        return
    if "--profile-overhead" in args:
        args = [a for a in args if a != "--profile-overhead"]
        if len(args) != 1:
            fail("usage: check_perf_regression.py <BENCH_kernels.json> "
                 "--profile-overhead")
        check_profile_overhead(args[0])
        return
    if "--ring-flat" in args:
        args = [a for a in args if a != "--ring-flat"]
        if len(args) != 1:
            fail("usage: check_perf_regression.py <BENCH_kernels.json> "
                 "--ring-flat")
        check_ring_flat(args[0])
        return
    if "--crossover" in args:
        args = [a for a in args if a != "--crossover"]
        if len(args) != 1:
            fail("usage: check_perf_regression.py <BENCH_kernels.json> "
                 "--crossover")
        check_crossover(args[0])
        return
    update = "--update" in args
    args = [a for a in args if a != "--update"]
    tolerance = DEFAULT_TOLERANCE
    if "--tolerance" in args:
        i = args.index("--tolerance")
        try:
            tolerance = float(args[i + 1])
        except (IndexError, ValueError):
            fail("--tolerance needs a float argument")
        del args[i:i + 2]
    if len(args) != 2:
        fail("usage: check_perf_regression.py <BENCH_kernels.json> "
             "<baseline.json> [--tolerance F | --update]")
    current_path, baseline_path = args

    doc = load(current_path)
    # Three gated counters: ns_per_packet (the kernel/end-to-end benches),
    # ns_per_sample (the streaming-receiver ingest benches) and ns_per_round
    # (the multi-cell network layer's per-cell round). Each lives in its own
    # baseline section so a name appearing in several is disambiguated.
    sections = {
        "ns_per_packet": ns_per_packet_by_name(doc),
        "ns_per_sample": counter_by_name(doc, "ns_per_sample"),
        "ns_per_round": counter_by_name(doc, "ns_per_round"),
    }
    if not sections["ns_per_packet"]:
        fail(f"{current_path} has no ns_per_packet counters")

    if update:
        baseline_doc = {
            "comment": "ns_per_packet / ns_per_sample / ns_per_round "
                       "baselines for tools/check_perf_regression.py — "
                       "refresh with --update on a CI-class machine",
        }
        for section, current in sections.items():
            if current:
                baseline_doc[section] = dict(sorted(current.items()))
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(baseline_doc, f, indent=2)
            f.write("\n")
        total = sum(len(v) for k, v in baseline_doc.items() if k != "comment")
        print(f"check_perf_regression: wrote {total} baselines "
              f"to {baseline_path}")
        return

    baseline_doc = load(baseline_path)
    if not baseline_doc.get("ns_per_packet"):
        fail(f"{baseline_path} has no 'ns_per_packet' object — "
             "generate it with --update")

    regressions = []
    checked = 0
    for section, current in sections.items():
        baseline = baseline_doc.get(section, {})
        for name in sorted(baseline):
            if name not in current:
                print(f"check_perf_regression: note: '{name}' in baseline "
                      "but not in this run (filtered out or retired?)")
                continue
            checked += 1
            base, now = baseline[name], current[name]
            ratio = now / base
            verdict = "ok"
            if ratio > 1.0 + tolerance:
                verdict = "REGRESSION"
                regressions.append((section, name, base, now, ratio))
            elif ratio < 1.0 - tolerance:
                verdict = "faster (consider --update)"
            print(f"check_perf_regression: {name}: {base:.1f} -> {now:.1f} "
                  f"ns ({ratio:.2f}x baseline {section}): {verdict}")
        for name in sorted(set(current) - set(baseline)):
            print(f"check_perf_regression: note: '{name}' has no {section} "
                  "baseline — refresh with --update to start gating it")

    if regressions:
        for section, name, base, now, ratio in regressions:
            print(f"check_perf_regression: FAIL: {name} regressed "
                  f"{base:.1f} -> {now:.1f} {section} "
                  f"({ratio:.2f}x > {1.0 + tolerance:.2f}x allowed)",
                  file=sys.stderr)
        sys.exit(1)
    print(f"check_perf_regression: {checked} baselines checked, "
          f"no regression beyond {tolerance:.0%}")


if __name__ == "__main__":
    main()
