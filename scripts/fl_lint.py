#!/usr/bin/env python3
"""fl_lint — determinism-contract lint for the fl source tree.

The simulator's whole value proposition is bit-identical runs at every
thread count and (non-binding) congest budget. The contracts
that guarantee it are structural, repo-specific, and invisible to a generic
linter, so this pass checks them directly over ``src/``:

  FL001 banned-rng        std::rand / srand / random_device in engine or
                          protocol code — all randomness must flow through
                          the seeded per-node util::Xoshiro256 streams.
  FL002 wall-clock        time() / std::chrono / clock_gettime — round
                          logic must never observe wall-clock time. The one
                          sanctioned reader is the observability layer:
                          files under src/obs/ are exempt (obs::Clock is
                          the single door the ban leaves open), and FL009
                          polices the other side of that door.
  FL003 unordered-iter    range-for over a std::unordered_{map,set}
                          declared in the same file: hash-order iteration
                          feeding sends, metrics, or outputs is the classic
                          silent determinism leak.
  FL004 pointer-ordered   std::map/std::set keyed on a pointer type —
                          address order varies run to run (ASLR, allocator).
  FL005 pointer-hash      std::hash over a pointer type, same failure mode.
  FL006 size-hint-zero    a literal 0 passed as size_hint_words to send():
                          words accounting treats the hint as the message's
                          CONGEST width, and 0-word messages are banned by
                          the admission pass (it would divide by the budget).
  FL007 payload-assert    a struct passed to Context::send by braced init
                          must carry a static_assert pinning
                          Payload::stores_inline<T> (and, for hot-path
                          types, trivially_relocatable<T>) in the same
                          file, so a grown field cannot silently fall back
                          to the heap path and change words accounting.
  FL008 message-aos       a std::vector of MessageHeader / Payload declared
                          outside sim/message.hpp: bulk message storage must
                          be a MessagePlanes (the structure-of-arrays plane
                          container), never a hand-rolled array — parallel
                          planes that drift apart break the zipped-view
                          contract and the sticky-capacity accounting.
  FL009 obs-feedback      code under src/{sim,core,baseline,localsim}
                          consumes an fl::obs timing value (obs::Clock,
                          RoundProfile's *_ns fields, busy times, the
                          imbalance ratio): observability is one-way by
                          contract (CONTRACTS.md C12) — the engine opens
                          spans and reports model counters, but a timing
                          fed back into a scheduling or protocol decision
                          would make wall-clock an input again, undoing
                          everything FL002 protects.
  FL010 schedule-length   code under src/ outside core/distributed_sampler.*
                          consumes Schedule::total_rounds. Under
                          event-driven phase barriers (CONTRACTS.md C13) the
                          LOCAL timetable length is a provisioning *model* —
                          a budgeted run advances on the network-silence
                          fact and may finish in far fewer (or, mid-phase,
                          more) rounds — so sizing a loop, cap, or buffer
                          from total_rounds outside the sampler driver
                          silently couples callers to a timetable that
                          budgeted runs do not follow.

Violations that are understood and accepted live in the tracked allowlist
(``scripts/fl_lint_allowlist.txt``); everything else fails the build.

Usage:
  fl_lint.py [--root REPO] [--allowlist FILE]   lint src/, exit 1 on findings
  fl_lint.py --self-test                        prove each check still fires
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

CHECK_IDS = (
    "FL001", "FL002", "FL003", "FL004", "FL005", "FL006", "FL007", "FL008",
    "FL009", "FL010",
)


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments and string/char literals, preserving
    line structure so reported line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: str, line: int, check: str, message: str):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.check} {self.message}"


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


# --------------------------------------------------------------- FL001/2/4/5

PATTERN_CHECKS = [
    ("FL001", re.compile(r"\bstd::rand\b|\bsrand\s*\(|\bstd::random_device\b"),
     "banned RNG source; use the seeded per-node util::Xoshiro256 stream"),
    ("FL002", re.compile(
        r"\bstd::chrono\b|\bgettimeofday\s*\(|\bclock_gettime\s*\(|"
        r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0|&|\))"),
     "wall-clock observation in deterministic code"),
    ("FL004", re.compile(r"\bstd::(?:multi)?(?:map|set)\s*<[^<>,;]*\*"),
     "ordered container keyed on a pointer (address order is not stable)"),
    ("FL005", re.compile(r"\bstd::hash\s*<[^<>;]*\*"),
     "std::hash of a pointer (hash of an address is not stable)"),
]


# The sanctioned-clock carve-out: src/obs/ is the observability layer, the
# one place allowed to read steady_clock (obs::Clock). FL009 below checks
# the other direction — nothing outside obs may consume what it measures.
OBS_DIR = re.compile(r"(?:^|/)src/obs/")


def check_patterns(path: str, code: str) -> list:
    in_obs = OBS_DIR.search(path.replace("\\", "/")) is not None
    findings = []
    for check, rx, msg in PATTERN_CHECKS:
        if check == "FL002" and in_obs:
            continue
        for m in rx.finditer(code):
            findings.append(Finding(path, line_of(code, m.start()), check, msg))
    return findings


# --------------------------------------------------------------------- FL003

UNORDERED_DECL = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*"
    r"(\w+)\s*[;({=]")
RANGE_FOR = re.compile(r"\bfor\s*\(\s*(?:const\s+)?[\w:<>,&*\s]+?[&\s]"
                       r"(?:\[[^\]]*\]|\w+)\s*:\s*(\w+)\s*\)")


def check_unordered_iteration(path: str, code: str) -> list:
    names = set(UNORDERED_DECL.findall(code))
    if not names:
        return []
    findings = []
    for m in RANGE_FOR.finditer(code):
        if m.group(1) in names:
            findings.append(Finding(
                path, line_of(code, m.start()), "FL003",
                f"iteration over unordered container '{m.group(1)}' "
                "(hash order must not feed sends, metrics, or outputs)"))
    return findings


# --------------------------------------------------------------- FL006/FL007

SEND_CALL = re.compile(r"\bsend\s*\(")


def split_call(code: str, open_paren: int):
    """Return (args, end) for the call whose '(' is at open_paren, with args
    split at top-level commas. None if the parenthesis never closes."""
    depth, i, n = 0, open_paren, len(code)
    args, start = [], open_paren + 1
    while i < n:
        c = code[i]
        if c in "([{<":
            # '<' is only a bracket in template-ish position; treating every
            # '<' as one would desync on comparisons, so only track ([{.
            if c != "<":
                depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(code[start:i])
                return args, i
        elif c == "," and depth == 1:
            args.append(code[start:i])
            start = i + 1
        i += 1
    return None, n


def check_send_sites(path: str, code: str) -> list:
    findings = []
    asserted = set(re.findall(
        r"stores_inline\s*<\s*(\w+)\s*>|trivially_relocatable\s*<\s*(\w+)\s*>",
        code))
    asserted = {a or b for a, b in asserted}
    seen_types = set()
    for m in SEND_CALL.finditer(code):
        args, _ = split_call(code, m.end() - 1)
        if args is None or len(args) < 2:
            continue
        line = line_of(code, m.start())
        if len(args) >= 3 and args[-1].strip() == "0":
            findings.append(Finding(
                path, line, "FL006",
                "literal 0 passed as size_hint_words (a message is never "
                "0 CONGEST words; the admission pass rejects it)"))
        tm = re.match(r"\s*([A-Z]\w*)\s*\{", args[1])
        if tm:
            t = tm.group(1)
            if t not in asserted and (path, t) not in seen_types:
                seen_types.add((path, t))
                findings.append(Finding(
                    path, line, "FL007",
                    f"payload struct '{t}' is sent without a "
                    f"static_assert(sim::Payload::stores_inline<{t}>) in "
                    "this file (growth must not silently change words "
                    "accounting)"))
    return findings


# --------------------------------------------------------------------- FL008

MESSAGE_VECTOR = re.compile(
    r"\bstd::vector\s*<\s*(?:fl::)?(?:sim::)?(?:MessageHeader|Payload)\s*>")


def check_message_planes(path: str, code: str) -> list:
    # sim/message.hpp IS the plane container — its two vectors are the one
    # legal declaration site.
    if path.replace("\\", "/").endswith("sim/message.hpp"):
        return []
    findings = []
    for m in MESSAGE_VECTOR.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "FL008",
            "raw vector of message headers/payloads; bulk message storage "
            "must be a sim::MessagePlanes (structure-of-arrays planes)"))
    return findings


# --------------------------------------------------------------------- FL009

# Decision-path code: the engine and every protocol layer. src/obs itself,
# src/util (Timer is bench/example reporting) and src/graph are out of
# scope — nothing there makes round-engine decisions.
FL009_SCOPE = re.compile(r"(?:^|/)src/(?:sim|core|baseline|localsim)/")

# What "consuming a timing" looks like at the token level: the sanctioned
# clock itself, or any of the advisory wall-clock fields/accessors the
# tracer exposes. Engine code legitimately *constructs* scopes and calls
# end_round with model counters — none of those tokens appear here.
FL009_TOKENS = re.compile(
    r"\bobs::Clock\b|\bnow_ns\s*\(|"
    r"\b(?:quiesce_ns|step_ns|merge_ns|admit_ns|end_ns|elapsed_ns|"
    r"lane_busy_ns|busy_ns|max_over_avg_busy)\b")


def check_obs_feedback(path: str, code: str) -> list:
    if not FL009_SCOPE.search(path.replace("\\", "/")):
        return []
    findings = []
    for m in FL009_TOKENS.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "FL009",
            "engine/protocol code consumes an obs timing value — "
            "observability is one-way (CONTRACTS.md C12): wall-clock data "
            "must never feed a scheduling or protocol decision"))
    return findings


# --------------------------------------------------------------------- FL010

# The sampler driver and its Schedule definition are the one legal consumer:
# the driver derives the *fixed-mode* (LOCAL) stall cap from the timetable
# length.
FL010_EXEMPT = re.compile(r"(?:^|/)src/core/distributed_sampler\.[a-z]+$")
FL010_TOKEN = re.compile(r"\btotal_rounds\b")


def check_schedule_length(path: str, code: str) -> list:
    if FL010_EXEMPT.search(path.replace("\\", "/")):
        return []
    findings = []
    for m in FL010_TOKEN.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "FL010",
            "Schedule::total_rounds consumed outside the sampler driver — "
            "the timetable length is a provisioning model under "
            "event-driven barriers (CONTRACTS.md C13), not a run-length "
            "promise"))
    return findings


# ----------------------------------------------------------------- allowlist

def load_allowlist(path: str) -> list:
    """Each entry: (check_id, file_glob-ish path, optional substring). A
    finding is suppressed when the check matches, the finding's path ends
    with the entry path, and (if given) the substring occurs in the
    finding's source line."""
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 2 or parts[0] not in CHECK_IDS:
                print(f"fl_lint: malformed allowlist entry: {line!r}",
                      file=sys.stderr)
                sys.exit(2)
            entries.append((parts[0], parts[1],
                            parts[2] if len(parts) > 2 else None))
    return entries


def suppressed(finding: Finding, source_lines: list, allow: list) -> bool:
    for check, path_suffix, substr in allow:
        if check != finding.check:
            continue
        if not finding.path.endswith(path_suffix):
            continue
        if substr is not None:
            text = (source_lines[finding.line - 1]
                    if finding.line <= len(source_lines) else "")
            if substr not in text:
                continue
        return True
    return False


# ---------------------------------------------------------------------- main

def lint_file(path: str, rel: str, allow: list) -> list:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    code = strip_comments(text)
    findings = []
    findings += check_patterns(rel, code)
    findings += check_unordered_iteration(rel, code)
    findings += check_send_sites(rel, code)
    findings += check_message_planes(rel, code)
    findings += check_obs_feedback(rel, code)
    findings += check_schedule_length(rel, code)
    lines = text.split("\n")
    return [f for f in findings if not suppressed(f, lines, allow)]


def lint_tree(root: str, allowlist_path: str) -> int:
    allow = load_allowlist(allowlist_path)
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        print(f"fl_lint: no src/ under {root}", file=sys.stderr)
        return 2
    findings = []
    for dirpath, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith((".hpp", ".cpp", ".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            findings += lint_file(path, rel, allow)
    findings.sort(key=lambda f: (f.path, f.line))
    for f in findings:
        print(f)
    if findings:
        counts = {}
        for f in findings:
            counts[f.check] = counts.get(f.check, 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        print(f"fl_lint: {len(findings)} finding(s) ({summary})",
              file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------------ selftest

# Each fixture is (repo-relative path, body): path-scoped rules (the FL002
# obs exemption, FL009's decision-path scope) are exercised with the same
# paths the tree lint would report.
FIXTURES = {
    # one fixture per violation class; each must trip exactly its check
    "FL001": ("src/fixture_fl001.cpp",
              "int f() { return std::rand(); }\n"),
    "FL002": ("src/fixture_fl002.cpp",
              "#include <chrono>\ndouble f() { return"
              " std::chrono::steady_clock::now().time_since_epoch().count();"
              " }\n"),
    "FL003": ("src/fixture_fl003.cpp",
              "#include <unordered_map>\nvoid f(Ctx& ctx) {\n"
              "  std::unordered_map<int, int> acc;\n"
              "  for (const auto& [k, v] : acc) ctx.send(k, v, 1);\n}\n"),
    "FL004": ("src/fixture_fl004.cpp",
              "#include <map>\nstd::map<Node*, int> rank_;\n"),
    "FL005": ("src/fixture_fl005.cpp",
              "#include <functional>\nstd::size_t h(Node* p) {"
              " return std::hash<Node*>{}(p); }\n"),
    "FL006": ("src/fixture_fl006.cpp",
              "void f(Ctx& ctx) { ctx.send(e, MsgPing{}, 0); }\n"
              "static_assert(sim::Payload::stores_inline<MsgPing>);\n"),
    "FL007": ("src/fixture_fl007.cpp",
              "struct MsgPing { int x; };\n"
              "void f(Ctx& ctx) { ctx.send(e, MsgPing{1}, 1); }\n"),
    "FL008": ("src/fixture_fl008.cpp",
              "#include <vector>\n"
              "std::vector<sim::MessageHeader> headers_;\n"
              "std::vector<fl::sim::Payload> payloads_;\n"),
    # A scheduling decision fed by a RoundProfile timing — exactly the
    # adaptive-sharding shortcut C12 forbids until it is designed for.
    "FL009": ("src/sim/fixture_fl009.cpp",
              "#include \"obs/trace.hpp\"\n"
              "void rebalance(const obs::RoundProfile& p, Plan& plan) {\n"
              "  if (p.step_ns > plan.budget_ns) plan.shrink_hot_shard();\n"
              "}\n"),
    # A run cap derived from the timetable length outside the sampler
    # driver — exactly the fixed-schedule coupling C13 retires.
    "FL010": ("src/sim/fixture_fl010.cpp",
              "#include \"core/distributed_sampler.hpp\"\n"
              "std::size_t cap(const core::Schedule& s) {\n"
              "  return s.total_rounds * 64 + 4096;\n"
              "}\n"),
}

# Files that must produce no findings: a compliant protocol, the obs layer
# reading the clock it is sanctioned to read (FL002's carve-out), and
# engine code that *constructs* trace scopes without consuming timings
# (the write-only side FL009 must not flag).
CLEAN_FIXTURES = [
    ("src/fixture_clean.cpp",
     "// a compliant protocol file\n"
     "struct MsgPing { int x; };\n"
     "static_assert(sim::Payload::stores_inline<MsgPing> &&\n"
     "              sim::Payload::trivially_relocatable<MsgPing>);\n"
     "void f(Ctx& ctx) {\n"
     "  for (const EdgeId e : ctx.incident_edges())\n"
     "    ctx.send(e, MsgPing{1}, 1);  // std::rand() in a comment is fine\n"
     "}\n"),
    ("src/obs/fixture_clean_obs.cpp",
     "#include <chrono>\n"
     "std::uint64_t sanctioned_now() {\n"
     "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
     "}\n"),
    ("src/sim/fixture_clean_sim.cpp",
     "#include \"obs/trace.hpp\"\n"
     "void phase(obs::Tracer* trace, unsigned s, std::size_t round) {\n"
     "  const obs::SpanScope span(trace, obs::SpanKind::StepLane, s, round);\n"
     "}\n"),
    # FL010's carve-out: the sampler driver is the one legal consumer of
    # the timetable length (the fixed-mode stall cap).
    ("src/core/distributed_sampler.cpp",
     "std::size_t fixed_cap(const Schedule& s) {\n"
     "  return s.total_rounds + 4;\n"
     "}\n"),
]


def self_test() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def write_fixture(rel, body):
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(body)
            return path

        for check, (rel, body) in FIXTURES.items():
            path = write_fixture(rel, body)
            got = lint_file(path, rel, allow=[])
            if not any(f.check == check for f in got):
                failures.append(f"{check}: fixture did not trip its check "
                                f"(got: {[str(f) for f in got]})")
            os.remove(path)
        for rel, body in CLEAN_FIXTURES:
            path = write_fixture(rel, body)
            got = lint_file(path, rel, allow=[])
            if got:
                failures.append(
                    f"clean fixture {rel} tripped: {[str(f) for f in got]}")
            os.remove(path)
        # The allowlist mechanism itself: a suppressed finding must vanish.
        rel = "src/allowed.cpp"
        path = write_fixture(rel, FIXTURES["FL001"][1])
        got = lint_file(path, rel, allow=[("FL001", "allowed.cpp", None)])
        if got:
            failures.append(f"allowlist did not suppress: "
                            f"{[str(f) for f in got]}")
    for msg in failures:
        print(f"fl_lint self-test FAILED: {msg}", file=sys.stderr)
    if not failures:
        print(f"fl_lint self-test OK: {len(FIXTURES)} violation classes "
              f"fire, {len(CLEAN_FIXTURES)} clean fixtures pass, allowlist "
              "suppresses")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: this script's parent's parent)")
    ap.add_argument("--allowlist", default=None,
                    help="allowlist file (default: scripts/fl_lint_allowlist"
                         ".txt under --root)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the violation-class fixtures instead of "
                         "linting the tree")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    allowlist = args.allowlist or os.path.join(
        args.root, "scripts", "fl_lint_allowlist.txt")
    return lint_tree(args.root, allowlist)


if __name__ == "__main__":
    sys.exit(main())
