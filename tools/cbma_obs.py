#!/usr/bin/env python3
"""Inspect and validate everything the observability plane exports.

Usage:
  cbma_obs.py check [--require SECTIONS] [--collapsed FLAME] <BENCH_*.json>
  cbma_obs.py check [--expect-taps TAPS] <probe dump>
  cbma_obs.py summary <BENCH_*.json | probe dump>
  cbma_obs.py top N <BENCH_*.json>
  cbma_obs.py csv [--series NAME] [--scope SCOPE] <BENCH_*.json>
  cbma_obs.py slice [--stage NAME] [--tag N] [--point N] <probe dump>
  cbma_obs.py prom-check <exposition.prom>

Inputs (DESIGN.md §7): a BENCH_*.json whose observability sections
("telemetry", "link_quality", "watchdog", "timeseries" + "events",
"profile") are present while their layer was live; the CBPROBE1 binary
dump CBMA_PROBE=<path> wrote, with its manifest at <path>.json; the
Prometheus exposition CBMA_METRICS=<path> wrote; the collapsed-stack
flamegraph CBMA_PROFILE=<path> wrote.

check validates every section the document carries (--require lists
sections that must be there, comma-separated: telemetry, link_quality,
watchdog, timeseries, profile), or, given a dump, re-walks the binary from
its own framing and cross-checks every record against the manifest
(--expect-taps lists taps that must have records). --collapsed also checks
a flamegraph file against the document's profile tree. summary prints the
per-series, per-tree or per-tap overview; top N the N caller paths with
the most exclusive time; csv the time series as `series,scope,unit,window,
value` rows; slice the dump records and link rows that match the filters;
prom-check parses the exposition line by line.

This file holds the only validator for each section; check_bench_json.py
imports it. Exits non-zero on the first failure. Stdlib only.
"""
import argparse
import json
import math
import re
import struct
import sys


class CheckError(Exception):
    """A validation failure; the message names what is wrong."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


# --- telemetry ---------------------------------------------------------------

SPAN_KEYS = ("name", "count", "total_ns", "min_ns", "max_ns", "mean_ns",
             "p50_ns", "p90_ns", "p99_ns")
FRAME_KEYS = ("seq", "ts_ns", "tag", "code_length", "correlation", "margin",
              "cfo_hz", "power_dbm", "impedance_level", "outcome",
              "impairment_gates")


def check_telemetry(tel):
    """Spans with ordered percentiles, >= 10 named counters, a flight
    recorder in strictly increasing seq order."""
    for key in ("threads", "spans", "counters", "flight_recorder"):
        require(key in tel, f"telemetry section missing key '{key}'")
    require(isinstance(tel["threads"], int) and tel["threads"] >= 1,
            f"telemetry.threads {tel['threads']!r} is not a positive integer")
    require(isinstance(tel["spans"], list) and tel["spans"],
            "telemetry.spans missing or empty")
    for span in tel["spans"]:
        for key in SPAN_KEYS:
            require(key in span, f"telemetry span missing key '{key}': {span}")
        name = span["name"]
        require("/" in name, f"span name '{name}' violates the layer/stage scheme")
        require(span["count"] >= 1, f"span '{name}' recorded with count 0")
        require(span["p50_ns"] <= span["p90_ns"] <= span["p99_ns"],
                f"span '{name}' percentiles out of order")
        require(span["min_ns"] <= span["max_ns"], f"span '{name}' min > max")
    counters = tel["counters"]
    require(isinstance(counters, dict), "telemetry.counters is not an object")
    for counter, value in counters.items():
        require("." in counter,
                f"counter name '{counter}' violates the layer.event scheme")
        require(isinstance(value, int) and value >= 1,
                f"counter '{counter}' has non-positive value {value!r} "
                "(zero counters are omitted)")
    require(len(counters) >= 10,
            f"only {len(counters)} named counters (a pipeline run fires >= 10)")
    require(isinstance(tel["flight_recorder"], list),
            "telemetry.flight_recorder is not an array")
    prev_seq = -1
    for frame in tel["flight_recorder"]:
        for key in FRAME_KEYS:
            require(key in frame, f"flight-recorder frame missing key '{key}'")
        require(isinstance(frame["outcome"], str) and frame["outcome"],
                f"flight-recorder outcome should be the rx label, got "
                f"{frame['outcome']!r}")
        require(frame["seq"] > prev_seq,
                "flight-recorder seq not strictly increasing")
        prev_seq = frame["seq"]


# --- probe -------------------------------------------------------------------

TAG_AGG_KEYS = ("tag", "frames", "decoded", "snr_db_mean", "evm_mean",
                "soft_margin_mean", "margin_ratio_mean", "power_norm_mean",
                "correlation_mean")
WATCHDOG_KEYS = ("metric", "point", "kind", "value", "reference", "detail")


def check_link_quality(lq):
    """Capture totals plus per-tag aggregates of the link-quality rows."""
    for key in ("samples", "dropped", "tags"):
        require(key in lq, f"link_quality section missing key '{key}'")
    for key in ("samples", "dropped"):
        require(isinstance(lq[key], int) and lq[key] >= 0,
                f"link_quality.{key} {lq[key]!r} is not a non-negative integer")
    require(isinstance(lq["tags"], list), "link_quality.tags is not an array")
    frames_total = 0
    for entry in lq["tags"]:
        for key in TAG_AGG_KEYS:
            require(key in entry,
                    f"link_quality tag entry missing key '{key}': {entry}")
        require(entry["frames"] >= 1,
                f"link_quality tag {entry['tag']} aggregated over 0 frames")
        require(entry["decoded"] <= entry["frames"],
                f"link_quality tag {entry['tag']} decoded more frames than "
                "it saw")
        frames_total += entry["frames"]
    require(frames_total == lq["samples"],
            f"link_quality per-tag frames sum to {frames_total}, samples says "
            f"{lq['samples']}")


def check_watchdog(warnings):
    """Structured floor/neighbor warnings from scan_sweep_anomalies."""
    require(isinstance(warnings, list), "watchdog section is not an array")
    for warning in warnings:
        for key in WATCHDOG_KEYS:
            require(key in warning,
                    f"watchdog warning missing key '{key}': {warning}")
        require(warning["kind"] in ("floor", "neighbor"),
                f"watchdog warning kind {warning['kind']!r} is neither "
                "'floor' nor 'neighbor'")
        require(isinstance(warning["detail"], str) and warning["detail"],
                "watchdog warning without a detail line")


MAGIC = b"CBPROBE1"
HEADER = struct.Struct("<QIIQII")  # seq, tap, context, point, iq, n_doubles
TAP_NAMES = ("excitation_envelope", "composite_iq", "sync_energy",
             "correlation_profile", "soft_bits")
LINK_KEYS = ("seq", "point", "tag", "detected", "decoded", "snr_db", "evm",
             "soft_margin", "margin_ratio", "power_norm", "correlation")
LINK_FLOATS = ("snr_db", "evm", "soft_margin", "margin_ratio", "power_norm",
               "correlation")


def tap_name(tap):
    return TAP_NAMES[tap] if tap < len(TAP_NAMES) else "unknown"


def is_dump(path):
    try:
        with open(path, "rb") as f:
            return f.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def read_dump(path):
    """Parse the binary from its own framing: (records, total_bytes)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except FileNotFoundError:
        raise CheckError(f"{path} missing")
    require(blob[:len(MAGIC)] == MAGIC,
            f"{path}: bad magic {blob[:8]!r} (want {MAGIC!r})")
    records = []
    pos = len(MAGIC)
    while pos < len(blob):
        require(pos + HEADER.size <= len(blob),
                f"{path}: truncated record header at offset {pos}")
        seq, tap, context, point, iq, n_doubles = HEADER.unpack_from(blob, pos)
        require(iq in (0, 1), f"{path}: record at offset {pos} has iq={iq}")
        require(not (iq and n_doubles % 2),
                f"{path}: IQ record at offset {pos} has odd double count "
                f"{n_doubles}")
        payload = pos + HEADER.size
        end = payload + 8 * n_doubles
        require(end <= len(blob),
                f"{path}: record at offset {pos} runs past end of file")
        data = struct.unpack_from(f"<{n_doubles}d", blob, payload)
        require(all(math.isfinite(v) for v in data),
                f"{path}: record seq {seq} carries non-finite samples")
        records.append({
            "offset": pos, "payload_offset": payload, "seq": seq, "tap": tap,
            "context": context, "point": point, "iq": bool(iq),
            "doubles": n_doubles,
            "samples": n_doubles // 2 if iq else n_doubles, "data": data,
        })
        pos = end
    return records, len(blob)


def read_manifest(path):
    manifest = load_json(path + ".json")
    for key in ("magic", "schema_version", "dump", "dump_bytes", "records",
                "dropped_taps", "dropped_link", "taps", "link_quality"):
        require(key in manifest, f"{path}.json: missing key '{key}'")
    require(manifest["magic"] == MAGIC.decode(),
            f"{path}.json: magic says {manifest['magic']!r}")
    require(manifest["schema_version"] == 1,
            f"{path}.json: unexpected schema_version "
            f"{manifest['schema_version']}")
    return manifest


def check_dump(path, expect_taps):
    records, total = read_dump(path)
    manifest = read_manifest(path)
    require(manifest["dump_bytes"] == total,
            f"{path}: file is {total} bytes, manifest says "
            f"{manifest['dump_bytes']}")
    require(manifest["records"] == len(records),
            f"{path}: binary frames {len(records)} records, manifest says "
            f"{manifest['records']}")
    require(len(manifest["taps"]) == len(records),
            f"{path}: manifest lists {len(manifest['taps'])} tap entries for "
            f"{len(records)} records")
    prev_seq = -1
    for i, (rec, entry) in enumerate(zip(records, manifest["taps"])):
        for key in ("seq", "context", "point", "iq", "doubles", "samples",
                    "offset", "payload_offset"):
            require(entry.get(key) == rec[key],
                    f"{path}: record {i} {key}: binary {rec[key]}, manifest "
                    f"{entry.get(key)!r}")
        require(entry.get("tap") == tap_name(rec["tap"]),
                f"{path}: record {i} tap: binary {tap_name(rec['tap'])!r}, "
                f"manifest {entry.get('tap')!r}")
        require(rec["seq"] > prev_seq,
                f"{path}: record {i} seq {rec['seq']} not strictly increasing")
        prev_seq = rec["seq"]
    for i, row in enumerate(manifest["link_quality"]):
        for key in LINK_KEYS:
            require(key in row, f"{path}: link_quality row {i} missing '{key}'")
        for key in LINK_FLOATS:
            require(isinstance(row[key], (int, float)) and
                    math.isfinite(row[key]),
                    f"{path}: link_quality row {i} {key} is {row[key]!r}")
        require(not row["decoded"] or row["detected"],
                f"{path}: link_quality row {i} decoded without detection")
    seen = {tap_name(r["tap"]) for r in records}
    for want in expect_taps:
        require(want in TAP_NAMES,
                f"--expect-taps: unknown tap '{want}' "
                f"(known: {', '.join(TAP_NAMES)})")
        require(want in seen, f"{path}: no '{want}' records captured "
                              f"(saw: {', '.join(sorted(seen)) or 'none'})")
    print(f"cbma_obs: OK: {path}: {len(records)} records ({total} bytes), "
          f"{len(manifest['link_quality'])} link-quality rows, "
          f"{manifest['dropped_taps']} dropped taps")


# --- metrics -----------------------------------------------------------------

SEVERITIES = ("info", "warning", "error")


def check_timeseries(ts, events):
    """Bounded windowed series keyed by (name, scope), window indices
    monotone and within the closed-window count; typed events with strictly
    increasing seq."""
    for key in ("windows", "window_capacity", "dropped", "series"):
        require(key in ts, f"timeseries section missing key '{key}'")
    for key in ("points", "series", "events"):
        require(key in ts["dropped"], f"timeseries.dropped missing key '{key}'")
    require(isinstance(ts["series"], list) and ts["series"],
            "timeseries.series missing or empty")
    windows = ts["windows"]
    seen = set()
    for series in ts["series"]:
        for key in ("name", "scope", "points"):
            require(key in series, f"timeseries series missing key '{key}'")
        ident = (series["name"], series["scope"])
        require(ident not in seen, f"duplicate timeseries series {ident}")
        seen.add(ident)
        require(len(series["points"]) <= ts["window_capacity"],
                f"series {ident} exceeds the ring capacity")
        prev = -1
        for point in series["points"]:
            require(len(point) == 2 and isinstance(point[1], (int, float)),
                    f"series {ident} malformed point {point}")
            w = point[0]
            require(isinstance(w, int) and w >= 0,
                    f"series {ident} bad window index {w}")
            # The last sample may sit in the still-open window (== windows).
            require(w <= windows,
                    f"series {ident} window {w} beyond closed count {windows}")
            require(w >= prev, f"series {ident} window indices not monotone")
            prev = w
    require(isinstance(events, list), "events section is not an array")
    prev_seq = -1
    for event in events:
        for key in ("seq", "window", "severity", "type", "value"):
            require(key in event, f"event missing key '{key}': {event}")
        require(event["seq"] > prev_seq, "event seq not strictly increasing")
        prev_seq = event["seq"]
        require(event["severity"] in SEVERITIES,
                f"event severity {event['severity']!r} unknown")
        require(isinstance(event["type"], str) and event["type"],
                "event without a type label")
        require(event["window"] <= windows,
                f"event {event['seq']} window {event['window']} beyond "
                f"closed count {windows}")


PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$")
PROM_LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')
PROM_META = ("cbma_metrics_windows_total", "cbma_metrics_series",
             "cbma_metrics_events_total", "cbma_metrics_dropped_total")


def prom_check(path):
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        raise CheckError(f"{path} missing")
    names = set()
    samples = 0
    for lineno, line in enumerate(lines, 1):
        if not line or line.startswith("#"):
            continue
        m = PROM_LINE.match(line)
        require(m, f"{path}:{lineno}: unparseable sample line: {line!r}")
        labels = m.group("labels")
        for pair in labels.split(",") if labels else ():
            require(PROM_LABEL.match(pair),
                    f"{path}:{lineno}: bad label pair {pair!r}")
        try:
            float(m.group("value"))
        except ValueError:
            raise CheckError(f"{path}:{lineno}: non-float value "
                             f"{m.group('value')!r}")
        names.add(m.group("name"))
        samples += 1
    for meta in PROM_META:
        require(meta in names, f"{path}: required meta gauge '{meta}' missing")
    print(f"cbma_obs: OK: {path}: {samples} samples, {len(names)} metric names")


# --- profile -----------------------------------------------------------------

def walk(node, prefix, out):
    """DFS flatten into (path, node) pairs; path frames joined by ';'."""
    for key in ("span", "count", "incl_ns", "excl_ns", "child_ns", "children"):
        require(key in node, f"profile tree node missing key '{key}': {node}")
    path = f"{prefix};{node['span']}" if prefix else node["span"]
    out.append((path, node))
    for child in node["children"]:
        walk(child, path, out)


def flatten(prof):
    rows = []
    for root in prof.get("tree", []):
        walk(root, "", rows)
    return rows


def is_sequential(node):
    """child_ns accounts for the children exactly, recursively — no
    parallel_for worker time was merged in."""
    if node["child_ns"] != sum(c["incl_ns"] for c in node["children"]):
        return False
    return all(is_sequential(c) for c in node["children"])


def subtree_excl(node):
    return node["excl_ns"] + sum(subtree_excl(c) for c in node["children"])


def check_profile(prof):
    """The merged caller-path tree (multi-level; incl == excl + child_ns at
    every node; child_ns <= the children's inclusive sum; sequential
    subtrees' exclusive times sum to their root) and the parallel_for sites
    (slot vectors sum to the aggregates, imbalance >= 1)."""
    for key in ("threads", "dropped", "tree", "parallel"):
        require(key in prof, f"profile section missing key '{key}'")
    require(isinstance(prof["threads"], int) and prof["threads"] >= 1,
            f"profile.threads {prof['threads']!r} is not a positive integer")
    rows = flatten(prof)
    require(rows, "profile.tree missing or empty")
    depth = max(p.count(";") + 1 for p, _ in rows)
    require(depth >= 2,
            f"profile tree is flat (depth {depth}) — caller-path attribution "
            "did not engage")
    for p, node in rows:
        require("/" in node["span"],
                f"profile span '{node['span']}' violates the layer/stage scheme")
        require(node["incl_ns"] == node["excl_ns"] + node["child_ns"],
                f"{p}: incl {node['incl_ns']} != excl {node['excl_ns']} + "
                f"child {node['child_ns']}")
        child_incl = sum(c["incl_ns"] for c in node["children"])
        require(node["child_ns"] <= child_incl,
                f"{p}: child_ns {node['child_ns']} exceeds summed child incl "
                f"{child_incl}")
    for root in prof["tree"]:
        if is_sequential(root):
            total = subtree_excl(root)
            require(total == root["incl_ns"],
                    f"root {root['span']}: subtree exclusive sum {total} != "
                    f"root inclusive {root['incl_ns']}")
    for site in prof["parallel"]:
        for key in ("site", "calls", "items", "wall_ns", "busy_ns",
                    "imbalance", "workers"):
            require(key in site, f"profile parallel site missing key '{key}'")
        name = site["site"]
        require(site["imbalance"] >= 1.0,
                f"parallel {name}: imbalance {site['imbalance']} < 1")
        require(sum(w["busy_ns"] for w in site["workers"]) == site["busy_ns"],
                f"parallel {name}: worker busy slots do not sum to busy_ns")
        require(sum(w["items"] for w in site["workers"]) == site["items"],
                f"parallel {name}: worker item slots do not sum to items")
    return rows


def check_collapsed(path, rows):
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except FileNotFoundError:
        raise CheckError(f"{path} missing")
    total = 0
    prev = ""
    for lineno, line in enumerate(lines, 1):
        frames, sep, value = line.rpartition(" ")
        require(sep and frames,
                f"{path}:{lineno}: not a 'frames value' line: {line!r}")
        require(value.isdigit(), f"{path}:{lineno}: non-integer value {value!r}")
        require(frames > prev, f"{path}:{lineno}: stacks not sorted and "
                               f"unique ({prev!r} then {frames!r})")
        prev = frames
        total += int(value)
    # Zero-exclusive rows are omitted, so the values account for exactly the
    # tree's exclusive total.
    tree_excl = sum(node["excl_ns"] for _, node in rows)
    require(total == tree_excl, f"{path}: collapsed values sum to {total}, "
                                f"tree exclusive total is {tree_excl}")
    print(f"cbma_obs: OK: {path}: {len(lines)} stacks summing to {total} ns")


# --- documents ---------------------------------------------------------------

SECTIONS = ("telemetry", "link_quality", "watchdog", "timeseries", "profile")


def check_sections(doc, required=()):
    """Validate every observability section `doc` carries; fail on any of
    `required` that is missing. Returns the names of the sections seen."""
    for name in required:
        require(name in SECTIONS, f"unknown section '{name}' "
                                  f"(known: {', '.join(SECTIONS)})")
        require(name in doc, f"no '{name}' section — was the run made with "
                             "that layer on?")
    require(("timeseries" in doc) == ("events" in doc),
            "timeseries and events sections must appear together")
    if "telemetry" in doc:
        check_telemetry(doc["telemetry"])
    if "link_quality" in doc:
        check_link_quality(doc["link_quality"])
    if "watchdog" in doc:
        check_watchdog(doc["watchdog"])
    if "timeseries" in doc:
        check_timeseries(doc["timeseries"], doc["events"])
    if "profile" in doc:
        check_profile(doc["profile"])
    return [name for name in SECTIONS if name in doc]


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise CheckError(f"{path} missing")
    except json.JSONDecodeError as e:
        raise CheckError(f"{path} is not valid JSON: {e}")


def section(path, name):
    doc = load_json(path)
    require(name in doc, f"{path}: no '{name}' section — was the run made "
                         "with that layer on?")
    return doc


# --- summaries ---------------------------------------------------------------

def summarize_dump(path):
    records, total = read_dump(path)
    manifest = read_manifest(path)
    print(f"{path}: {len(records)} records, {total} bytes, dropped taps "
          f"{manifest['dropped_taps']}, dropped link rows "
          f"{manifest['dropped_link']}")
    by_tap = {}
    for rec in records:
        entry = by_tap.setdefault(tap_name(rec["tap"]), [0, 0])
        entry[0] += 1
        entry[1] += rec["samples"]
    for name in TAP_NAMES:
        if name in by_tap:
            count, samples = by_tap[name]
            print(f"  {name:20s} {count:6d} records {samples:9d} samples")
    by_tag = {}
    for row in manifest["link_quality"]:
        agg = by_tag.setdefault(row["tag"], [0, 0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += 1 if row["decoded"] else 0
        agg[2] += row["snr_db"]
        agg[3] += row["margin_ratio"]
    for tag in sorted(by_tag):
        frames, decoded, snr, ratio = by_tag[tag]
        print(f"  tag {tag}: {frames} frames, {decoded} decoded, mean SNR "
              f"{snr / frames:.1f} dB, mean margin ratio {ratio / frames:.2f}")


def summarize_doc(path):
    doc = load_json(path)
    if "timeseries" in doc:
        ts, events = doc["timeseries"], doc["events"]
        print(f"windows: {ts['windows']}  ring capacity: "
              f"{ts['window_capacity']}  dropped: {ts['dropped']}")
        print(f"{'series':<40} {'scope':<14} {'unit':<6} {'pts':>4} "
              f"{'last':>14}")
        for s in ts["series"]:
            last = s["points"][-1][1] if s["points"] else float("nan")
            print(f"{s['name']:<40} {s['scope']:<14} {s.get('unit', ''):<6} "
                  f"{len(s['points']):>4} {last:>14.6g}")
        tally = {}
        for e in events:
            tally[(e["severity"], e["type"])] = \
                tally.get((e["severity"], e["type"]), 0) + 1
        print(f"\nevents: {len(events)}")
        for (severity, kind), n in sorted(tally.items()):
            print(f"  {severity:<8} {kind:<24} {n}")
    if "profile" in doc:
        prof = doc["profile"]
        rows = flatten(prof)
        total_excl = sum(node["excl_ns"] for _, node in rows)
        print(f"threads: {prof['threads']}  dropped: {prof['dropped']}  "
              f"paths: {len(rows)}  total exclusive: {total_excl / 1e6:.3f} ms")
        print("\nroots:")
        for root in prof["tree"]:
            print(f"  {root['span']:<24} x{root['count']:<8} "
                  f"incl {root['incl_ns'] / 1e6:>12.3f} ms")
        print("\nparallel sites:")
        for site in prof["parallel"]:
            slots = len(site["workers"])
            util = (site["busy_ns"] / (site["wall_ns"] * slots)
                    if site["wall_ns"] > 0 and slots > 0 else float("nan"))
            print(f"  {site['site']:<16} calls {site['calls']:<6} "
                  f"items {site['items']:<8} workers {slots:<4} "
                  f"utilization {util:>6.1%}  imbalance "
                  f"{site['imbalance']:.2f}")


def top(path, n):
    rows = flatten(section(path, "profile")["profile"])
    rows.sort(key=lambda r: (-r[1]["excl_ns"], r[0]))
    total_excl = sum(node["excl_ns"] for _, node in rows) or 1
    print(f"{'excl ms':>12} {'%':>6} {'count':>8}  caller path")
    for p, node in rows[:n]:
        print(f"{node['excl_ns'] / 1e6:>12.3f} "
              f"{node['excl_ns'] / total_excl:>6.1%} {node['count']:>8}  {p}")


def csv(path, series_filter, scope_filter):
    ts = section(path, "timeseries")["timeseries"]
    print("series,scope,unit,window,value")
    for s in ts["series"]:
        if series_filter is not None and s["name"] != series_filter:
            continue
        if scope_filter is not None and s["scope"] != scope_filter:
            continue
        for w, v in s["points"]:
            print(f"{s['name']},{s['scope']},{s.get('unit', '')},{w},{v!r}")


def slice_dump(path, stage, tag, point):
    records, _ = read_dump(path)
    manifest = read_manifest(path)
    shown = 0
    for rec in records:
        name = tap_name(rec["tap"])
        if ((stage is not None and name != stage) or
                (tag is not None and rec["context"] != tag) or
                (point is not None and rec["point"] != point)):
            continue
        head = ", ".join(f"{v:.4g}" for v in rec["data"][:6])
        more = " ..." if rec["doubles"] > 6 else ""
        print(f"seq {rec['seq']:6d} {name:20s} context {rec['context']:3d} "
              f"point {rec['point']:4d} {rec['samples']:6d} samples "
              f"[{head}{more}]")
        shown += 1
    for row in manifest["link_quality"]:
        if (stage is not None or  # link rows have no stage
                (tag is not None and row["tag"] != tag) or
                (point is not None and row["point"] != point)):
            continue
        print(f"seq {row['seq']:6d} {'link_quality':20s} tag {row['tag']:3d} "
              f"point {row['point']:4d} snr {row['snr_db']:.1f} dB "
              f"evm {row['evm']:.3f} margin-ratio {row['margin_ratio']:.2f} "
              f"decoded {row['decoded']}")
        shown += 1
    print(f"cbma_obs: {shown} matching entries")


def check(args):
    if is_dump(args.path):
        check_dump(args.path, args.expect_taps.split(",") if args.expect_taps
                   else [])
        return
    doc = load_json(args.path)
    required = args.require.split(",") if args.require else []
    seen = check_sections(doc, required)
    if args.collapsed:
        require("profile" in doc, "--collapsed needs a profile section")
        check_collapsed(args.collapsed, flatten(doc["profile"]))
    print(f"cbma_obs: OK: {args.path}: {', '.join(seen) or 'no'} "
          "observability sections")


def main():
    ap = argparse.ArgumentParser(
        description="Inspect and validate the observability plane's exports")
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("check", help="validate a BENCH_*.json or probe dump")
    p.add_argument("--require", help="sections that must be present")
    p.add_argument("--collapsed", metavar="FLAME",
                   help="also check this flamegraph file against the tree")
    p.add_argument("--expect-taps", help="dump: taps that must have records")
    p.add_argument("path")
    p = sub.add_parser("summary", help="overview of a BENCH_*.json or dump")
    p.add_argument("path")
    p = sub.add_parser("top", help="top caller paths by exclusive time")
    p.add_argument("n", type=int)
    p.add_argument("path")
    p = sub.add_parser("csv", help="time series as CSV on stdout")
    p.add_argument("--series", help="keep only this series name")
    p.add_argument("--scope", help="keep only this scope ('' = global)")
    p.add_argument("path")
    p = sub.add_parser("slice", help="print matching dump records")
    p.add_argument("--stage", help="tap name")
    p.add_argument("--tag", type=int, help="context / tag index")
    p.add_argument("--point", type=int, help="sweep point label")
    p.add_argument("path")
    p = sub.add_parser("prom-check", help="parse a Prometheus exposition")
    p.add_argument("path")
    args = ap.parse_args()

    try:
        if args.command == "check":
            check(args)
        elif args.command == "summary":
            if is_dump(args.path):
                summarize_dump(args.path)
            else:
                summarize_doc(args.path)
        elif args.command == "top":
            top(args.path, args.n)
        elif args.command == "csv":
            csv(args.path, args.series, args.scope)
        elif args.command == "slice":
            slice_dump(args.path, args.stage, args.tag, args.point)
        else:
            prom_check(args.path)
    except CheckError as e:
        print(f"cbma_obs: FAIL: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
