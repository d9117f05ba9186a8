#!/usr/bin/env python3
"""Diff the working-tree BENCH_*.json snapshots against the committed ones.

The per-PR bench trajectory: scripts/check.sh regenerates BENCH_e1..e10.json
and BENCH_micro_perf.json on every run (and BENCH_capacity.json under
FL_BENCH_CAPACITY=1); this script compares each regenerated file against the
version committed at HEAD (`git show HEAD:<file>`) and flags every numeric
field that moved by more than --threshold (default 10%).

Most E-bench fields are *model* quantities (rounds, messages, spanner sizes)
that are bit-deterministic given the seed, so any drift there is a real
behaviour change, not noise. Wall-clock fields (msgs_per_sec, ...) and
resident-set readings (peak_rss_mb, rss_ceiling_mb — allocator- and
kernel-dependent) are noisy on a busy box — they are still reported, clearly
marked, but only model-field drift makes --strict fail; the capacity rows'
rss_within_ceiling verdict is a bool, hence model-strict like every
non-numeric field. Schema changes are model drift too: a row that
gains or loses a column between snapshots (e.g. a bench grew a --congest
column) is reported field by field, never silently skipped.

Exit status: 0 unless --strict is given and at least one non-timing field
regressed. Usage:  scripts/bench_diff.py [--strict] [--threshold PCT] [files...]
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# "_over_" marks ratio columns whose numerator and denominator are both
# wall-clock rates (mt_over_flat, ...): a quotient of two noisy timings is
# itself a timing, so it must never fail --strict.
# "rss" covers the capacity rows' peak_rss_mb / rss_ceiling_mb: resident-set
# readings vary with allocator and kernel, so they advise rather than gate
# (the boolean rss_within_ceiling verdict stays model-strict).
TIMING_MARKERS = ("per_sec", "sec", "ms/", "time", "wall", "_over_", "rss")

# Records whose schema this script understands beyond "flat scalar rows":
# every listed column must be present in each row, and every *other* numeric
# column must carry a timing marker — such a snapshot can only gain model
# columns deliberately (extend this map), never by accident.
REQUIRED_MODEL_COLUMNS = {
    # E6d's LOCAL-vs-budgeted table (bench_e6_messages --congest): every
    # round count is a model quantity — "budgeted rounds" especially, since
    # the event-driven barrier contract (CONTRACTS.md C13) pins it
    # bit-identical across thread counts.
    "E6d — Sampler under a CONGEST word budget: LOCAL fixed timetable vs "
    "budgeted event-driven phase barriers (Defer, message counts and "
    "spanner pinned to LOCAL)": {
        "n", "avg deg", "budget", "max msg words", "local rounds",
        "budgeted rounds", "stretch", "deferrals", "messages", "words",
        "spanner == local?"},
}


def is_timing_field(name: str) -> bool:
    low = name.lower()
    return any(marker in low for marker in TIMING_MARKERS)


def parse_concatenated_json(text: str):
    """Parse a stream of concatenated JSON objects (JSON-lines style)."""
    decoder = json.JSONDecoder()
    objs = []
    idx = 0
    while idx < len(text):
        while idx < len(text) and text[idx].isspace():
            idx += 1
        if idx >= len(text):
            break
        obj, end = decoder.raw_decode(text, idx)
        objs.append(obj)
        idx = end
    return objs


def committed_version(path: Path) -> str | None:
    rel = path.resolve().relative_to(REPO)
    res = subprocess.run(
        ["git", "-C", str(REPO), "show", f"HEAD:{rel.as_posix()}"],
        capture_output=True, text=True)
    return res.stdout if res.returncode == 0 else None


def collect_tables(objs):
    """Map table_key -> {row_key: row} for every table in a snapshot.

    Two shapes exist: the Env::emit tables ({"table": t, "rows": [...]}) and
    bench_micro_perf's dedicated record ({"bench": t, "results": [...]}).
    The table key folds in the sweep profile ("quick") so a quick snapshot
    is never diffed against a full one, and rows are keyed by their
    identifying fields (n / family / the first few non-numeric cells) rather
    than file position, as docs/EXPERIMENTS.md requires.
    """
    tables = {}
    for obj in objs:
        title = obj.get("table") or obj.get("bench") or "?"
        if "quick" in obj:
            title = f"{title} (quick={obj['quick']})"
        rows = obj.get("rows") or obj.get("results") or []
        keyed = tables.setdefault(title, {})
        for i, row in enumerate(rows):
            ident = tuple(
                (f, v) for f, v in row.items()
                if f in ("n", "family", "threads")
                or isinstance(v, str))
            key = (ident, sum(1 for k in keyed if k[0] == ident))
            keyed[key] = row
    return tables


def describe(key):
    ident, dup = key
    label = ", ".join(f"{f}={v}" for f, v in ident) or f"#{dup}"
    return label if dup == 0 else f"{label} #{dup}"


def diff_snapshots(old_objs, new_objs, threshold):
    """Return (model_flags, timing_flags, notes) lists of printable lines."""
    old_tables = collect_tables(old_objs)
    new_tables = collect_tables(new_objs)
    model_flags, timing_flags, notes = [], [], []
    for title, new_rows in new_tables.items():
        old_rows = old_tables.get(title)
        if old_rows is None:
            notes.append(f"  [{title}]: no baseline table, skipped")
            continue
        for key, new_row in new_rows.items():
            old_row = old_rows.get(key)
            if old_row is None:
                model_flags.append(f"  [{title}] {describe(key)}: new row")
                continue
            for field, new_val in new_row.items():
                # A column gained or lost between snapshots is a schema
                # change (e.g. a bench grew a --congest column): report it
                # explicitly as model drift instead of silently skipping
                # the field (or crashing on a missing key).
                if field not in old_row:
                    model_flags.append(
                        f"  [{title}] {describe(key)} {field}: "
                        f"column gained (absent from the HEAD snapshot)")
                    continue
                old_val = old_row[field]
                if not isinstance(new_val, (int, float)) or isinstance(new_val, bool):
                    if old_val != new_val:
                        model_flags.append(
                            f"  [{title}] {describe(key)} {field}: "
                            f"{old_val!r} -> {new_val!r}")
                    continue
                if not isinstance(old_val, (int, float)) or isinstance(old_val, bool):
                    model_flags.append(
                        f"  [{title}] {describe(key)} {field}: "
                        f"type changed ({old_val!r} -> {new_val!r})")
                    continue
                if old_val == new_val:
                    continue
                base = max(abs(old_val), abs(new_val))
                delta = (new_val - old_val) / base if base > 0 else math.inf
                if abs(delta) <= threshold:
                    continue
                line = (f"  [{title}] {describe(key)} {field}: "
                        f"{old_val:g} -> {new_val:g} ({delta:+.1%})")
                (timing_flags if is_timing_field(field)
                 else model_flags).append(line)
            for field in old_row:
                if field not in new_row:
                    model_flags.append(
                        f"  [{title}] {describe(key)} {field}: "
                        f"column lost (present in the HEAD snapshot)")
        for key in old_rows:
            if key not in new_rows:
                model_flags.append(
                    f"  [{title}] {describe(key)}: row disappeared")
    for title in old_tables:
        if title not in new_tables:
            model_flags.append(
                f"  [{title}]: table disappeared from the snapshot")
    return model_flags, timing_flags, notes


def lint_schema(files) -> int:
    """Validate snapshot structure without any baseline: every file parses,
    every record names its table and carries a row list, every row is a flat
    dict of scalars, and all rows of one table agree on their column set.
    The diff keys on exactly this shape, so schema rot here silently
    degrades drift detection — this is its self-check."""
    problems = []
    for path in files:
        if not path.exists():
            problems.append(f"{path.name}: listed but missing")
            continue
        try:
            objs = parse_concatenated_json(path.read_text())
        except json.JSONDecodeError as e:
            problems.append(f"{path.name}: unparseable ({e})")
            continue
        if not objs:
            problems.append(f"{path.name}: empty snapshot")
            continue
        for i, obj in enumerate(objs):
            if not isinstance(obj, dict):
                problems.append(f"{path.name} record {i}: not an object")
                continue
            title = obj.get("table") or obj.get("bench")
            if not isinstance(title, str) or not title:
                problems.append(
                    f"{path.name} record {i}: no 'table'/'bench' name")
                continue
            rows = obj.get("rows", obj.get("results"))
            if not isinstance(rows, list):
                problems.append(
                    f"{path.name} [{title}]: no 'rows'/'results' list")
                continue
            columns = None
            for j, row in enumerate(rows):
                if not isinstance(row, dict):
                    problems.append(
                        f"{path.name} [{title}] row {j}: not an object")
                    continue
                bad = [f for f, v in row.items()
                       if not isinstance(v, (str, int, float, bool))
                       and v is not None]
                if bad:
                    problems.append(
                        f"{path.name} [{title}] row {j}: non-scalar "
                        f"field(s) {bad} (the diff cannot compare these)")
                if columns is None:
                    columns = set(row)
                elif set(row) != columns:
                    problems.append(
                        f"{path.name} [{title}] row {j}: column set "
                        f"differs from row 0 "
                        f"({sorted(set(row) ^ columns)})")
            model = REQUIRED_MODEL_COLUMNS.get(title)
            if model is not None and columns is not None:
                missing = sorted(model - columns)
                if missing:
                    problems.append(
                        f"{path.name} [{title}]: model column(s) {missing} "
                        f"missing from the rows")
                unmarked = sorted(
                    f for f in columns
                    if f not in model and not is_timing_field(f))
                if unmarked:
                    problems.append(
                        f"{path.name} [{title}]: column(s) {unmarked} are "
                        f"neither declared model columns nor timing-marked "
                        f"— extend REQUIRED_MODEL_COLUMNS or rename them")
    for line in problems:
        print(f"bench_diff --lint-schema: {line}")
    if not problems:
        print(f"bench_diff --lint-schema: {len(files)} snapshot(s) "
              "well-formed")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="*",
                    help="snapshots to diff (default: BENCH_*.json at repo root)")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="flag relative changes above this percentage")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when a non-timing field drifted")
    ap.add_argument("--lint-schema", action="store_true",
                    help="validate snapshot structure (no baseline diff)")
    args = ap.parse_args()

    if args.files:
        files = [Path(f) for f in args.files]
    else:
        # Union of working-tree and committed snapshots, so a regenerated
        # file that *disappeared* (a bench stopped emitting) is flagged
        # rather than silently dropped from the sweep.
        res = subprocess.run(
            ["git", "-C", str(REPO), "ls-tree", "--name-only", "HEAD"],
            capture_output=True, text=True)
        committed = {REPO / f for f in res.stdout.split()
                     if f.startswith("BENCH_") and f.endswith(".json")}
        files = sorted(committed | set(REPO.glob("BENCH_*.json")))
    if args.lint_schema:
        return lint_schema(files)
    threshold = args.threshold / 100.0
    any_model_drift = False

    for path in files:
        old_text = committed_version(path)
        if not path.exists():
            if old_text is None:
                print(f"bench_diff: {path.name}: missing everywhere, skipped")
            else:
                print(f"bench_diff: {path.name}: committed snapshot was not "
                      f"regenerated — did its bench stop emitting?")
                any_model_drift = True
            continue
        if old_text is None:
            print(f"bench_diff: {path.name}: not committed yet, no baseline")
            continue
        try:
            old_objs = parse_concatenated_json(old_text)
            new_objs = parse_concatenated_json(path.read_text())
        except json.JSONDecodeError as e:
            print(f"bench_diff: {path.name}: unparseable snapshot ({e})")
            any_model_drift = True
            continue
        model_flags, timing_flags, notes = diff_snapshots(
            old_objs, new_objs, threshold)
        if not model_flags and not timing_flags and not notes:
            print(f"bench_diff: {path.name}: OK (within {args.threshold:g}%)")
            continue
        print(f"bench_diff: {path.name}:")
        for line in notes:
            print(line)
        for line in model_flags:
            print(line)
        for line in timing_flags:
            print(line + "  [timing — noisy]")
        if model_flags:
            any_model_drift = True

    if any_model_drift and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
