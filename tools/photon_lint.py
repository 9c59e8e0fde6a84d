#!/usr/bin/env python3
"""photon-lint: project-invariant linter for the Photon tree.

Enforces concurrency/protocol conventions that neither the compiler nor
clang-tidy can see (and that must hold on GCC-only hosts, where the clang
thread-safety analysis leg is unavailable):

  relaxed-justify      every std::memory_order_relaxed use carries a
                       `relaxed-ok` justification on the same line, within
                       the preceding WINDOW lines, or under a
                       `relaxed-ok (whole class)` block comment.
  vtime-compare        virtual-time values are compared only through the
                       wrap-safe helpers in util/vtime.hpp (vt_before,
                       vt_after, ...). Raw <,>,<=,>= on *vtime* expressions
                       is flagged unless the line carries `vtime-ok`.
  hot-path-blocking    designated lock-free/hot headers must not introduce
                       blocking primitives (mutexes, sleeps, condvars).
  ledger-meta-accessor ledger `meta` spare bits are touched only through
                       the ledger_meta_* accessors in core/wire_format.hpp;
                       direct bit-twiddling of meta elsewhere is flagged.
  foreign-nic-state    in src/fabric, a NIC's counters are owner-only except
                       the per-initiator slot: another NIC's `counters_` is
                       reached only as `.counters_.from(rank_)` (the calling
                       rank's own slot), and no slot but `from(rank_)` is
                       written.
  idle-wait-copy       in src/, blocking loops wait through the one idle-wait
                       rule in util/idle_wait.hpp: a this_thread::yield,
                       sleep_for or sleep_until anywhere else is flagged
                       unless it carries an `idle-ok:` justification on the
                       same line or the line above.
  test-only-module     every src/**/*.hpp is included by some file under
                       src/, bench/, examples/ or perfbench/ other than its
                       own .cpp; a header only tests reach is flagged unless
                       it carries a `test-only-ok:` reason.

Usage:
  tools/photon_lint.py [--root DIR] [--format text|json]
                       [--allowlist FILE] [--rule NAME ...]

Exit status: 0 when clean, 1 when violations were found, 2 on usage error.

If clang-query is on PATH it could be used for deeper AST matching; this
implementation is deliberately regex-only so the gate runs on the minimal
toolchain (the CI lint leg treats its output as authoritative either way).

Allowlist file format (one entry per line, '#' comments):
  <rule> <path-relative-to-root>[:<line>]
An entry without a line number silences the rule for the whole file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

WINDOW = 8          # lines above a relaxed use that a `relaxed-ok` covers
CLASS_WINDOW = 60   # lines a `relaxed-ok (whole class)` block comment covers

# Headers that advertise lock-freedom / hot-path status; blocking calls in
# these files are a design regression, not a style nit.
HOT_PATH_FILES = {
    "src/fabric/vclock.hpp",
    "src/fabric/counters.hpp",
    # Every put, put-imm, signal and poll crosses ranks through the CQ's
    # producer lanes; a blocking primitive here is a lock on the data path.
    "src/fabric/completion_queue.hpp",
    "src/fabric/completion_queue.cpp",
    "src/resilience/peer_health.hpp",
    # Every transfer reserves its NIC port and link here; the port is a
    # single-writer store and the links a CAS, never a lock.
    "src/fabric/wire_model.hpp",
    "src/fabric/wire_model.cpp",
    # DDS fast paths: per-op telemetry + the RMA probe/ticket/handoff loops
    # run on every structure op; blocking primitives here would serialize
    # what the remote-atomic design exists to keep lock-free.
    "src/dds/service.hpp",
    "src/dds/hash_table.cpp",
    "src/dds/queue.cpp",
    "src/dds/lock.cpp",
    # The HA ownership directory sits inside every replicated op's resolve
    # step and the promotion CAS race; it must stay as lock-free as the
    # structure fast paths it redirects.
    "src/dds/ha.hpp",
    "src/dds/ha.cpp",
}

# The one place allowed to touch ledger meta bits directly.
META_ACCESSOR_FILE = "src/core/wire_format.hpp"

# The one place allowed to yield or sleep in a wait loop.
IDLE_WAIT_FILE = "src/util/idle_wait.hpp"

RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
RELAXED_OK_RE = re.compile(r"relaxed-ok")
RELAXED_OK_CLASS_RE = re.compile(r"relaxed-ok \((whole class|whole file)\)")

# `x.vtime >= y`, `a_vtime < b`, `foo > deliver_vtime`, ... but not `<<`,
# `>>`, `->`, template brackets on known container spellings, or comments.
# Both arms require the comparison operator to be whitespace-separated (the
# project style for binary operators), which keeps template closers like
# `std::optional<std::uint64_t> min_vtime` and arrows out of scope.
VTIME_CMP_RE = re.compile(
    r"(\w*vtime\w*\s+(?:<=|>=|<|>)(?![<>=])\s"
    r"|\s(?:<=|>=|<(?![<=])|>(?![>=]))\s+\w*vtime\w*)"
)
VTIME_OK_RE = re.compile(r"vtime-ok|vt_before|vt_after")

BLOCKING_RE = re.compile(
    r"(\bstd::mutex\b|\butil::Mutex\b|\bstd::shared_mutex\b"
    r"|\bcondition_variable\b|\bsleep_for\b|\bsleep_until\b"
    r"|\busleep\b|\bnanosleep\b|(?<![\w:])sleep\s*\()"
)

META_BITS_RE = re.compile(
    r"(\bmeta\b\s*(?:\||&|<<|>>|\^)|(?:\||&|<<|>>|\^)\s*\bmeta\b"
    r"|\bmeta\b\s*(?:\|=|&=|\^=|<<=|>>=))"
)

# Single-writer NIC state: counters of another NIC (`target.counters_`,
# `fabric_.nic(x).counters_`) may be reached only through the calling rank's
# own per-initiator slot, and no code writes another initiator's slot.
FABRIC_DIR = "src/fabric/"
FOREIGN_COUNTERS_RE = re.compile(
    r"(?:\b(?!this\b)\w+|\))\s*(?:\.|->)\s*counters_\b"
    r"(?!\s*\.\s*from\(\s*rank_\s*\))"
)
OTHER_SLOT_RE = re.compile(r"\bcounters_\s*\.\s*from\(\s*(?!rank_\s*\))")

IDLE_WAIT_RE = re.compile(r"\bthis_thread::yield\b|\bsleep_for\b|\bsleep_until\b")
IDLE_OK_RE = re.compile(r"idle-ok:")

# Trees whose includes make a src/ header part of the program (tests/ does
# not count: a module only tests include is dead weight in src/).
USER_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)
TEST_ONLY_OK_RE = re.compile(r"test-only-ok:")

ALL_RULES = (
    "relaxed-justify",
    "vtime-compare",
    "hot-path-blocking",
    "ledger-meta-accessor",
    "foreign-nic-state",
    "idle-wait-copy",
    "test-only-module",
)


def strip_comment(line: str) -> str:
    """Drop a trailing // comment (good enough: no multiline strings here)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def load_allowlist(path: Path):
    allow = set()
    if not path.is_file():
        return allow
    for raw in path.read_text().splitlines():
        entry = raw.split("#", 1)[0].strip()
        if not entry:
            continue
        parts = entry.split()
        if len(parts) != 2:
            continue
        rule, loc = parts
        if ":" in loc:
            fname, _, line = loc.rpartition(":")
            allow.add((rule, fname, int(line)))
        else:
            allow.add((rule, loc, None))
    return allow


def allowed(allow, rule, relpath, line):
    return (rule, relpath, None) in allow or (rule, relpath, line) in allow


def lint_file(relpath: str, text: str, rules, allow):
    findings = []
    lines = text.splitlines()

    def emit(rule, lineno, message):
        if not allowed(allow, rule, relpath, lineno):
            findings.append(
                {"rule": rule, "file": relpath, "line": lineno, "message": message}
            )

    for i, line in enumerate(lines, start=1):
        code = strip_comment(line)

        if "relaxed-justify" in rules and RELAXED_RE.search(code):
            lo = max(0, i - 1 - WINDOW)
            nearby = lines[lo : i]
            block_lo = max(0, i - 1 - CLASS_WINDOW)
            block = lines[block_lo : i]
            if not (
                any(RELAXED_OK_RE.search(l) for l in nearby)
                or any(RELAXED_OK_CLASS_RE.search(l) for l in block)
            ):
                emit(
                    "relaxed-justify",
                    i,
                    "memory_order_relaxed without a nearby `relaxed-ok:` "
                    "justification",
                )

        if "vtime-compare" in rules and VTIME_CMP_RE.search(code):
            if not VTIME_OK_RE.search(line):
                emit(
                    "vtime-compare",
                    i,
                    "raw comparison of a vtime value; use the wrap-safe "
                    "helpers in util/vtime.hpp (or annotate `vtime-ok`)",
                )

        if (
            "hot-path-blocking" in rules
            and relpath in HOT_PATH_FILES
            and BLOCKING_RE.search(code)
        ):
            emit(
                "hot-path-blocking",
                i,
                "blocking primitive in a lock-free/hot-path file",
            )

        if (
            "ledger-meta-accessor" in rules
            and relpath != META_ACCESSOR_FILE
            and META_BITS_RE.search(code)
        ):
            emit(
                "ledger-meta-accessor",
                i,
                "direct bit access to ledger `meta`; use the ledger_meta_* "
                "accessors in core/wire_format.hpp",
            )

        if (
            "foreign-nic-state" in rules
            and relpath.startswith(FABRIC_DIR)
            and (FOREIGN_COUNTERS_RE.search(code) or OTHER_SLOT_RE.search(code))
        ):
            emit(
                "foreign-nic-state",
                i,
                "another NIC's owner-only counters reached directly; write "
                "through the calling rank's slot, `target.counters_.from(rank_)`",
            )

        if (
            "idle-wait-copy" in rules
            and relpath.startswith("src/")
            and relpath != IDLE_WAIT_FILE
            and IDLE_WAIT_RE.search(code)
            and not any(IDLE_OK_RE.search(l) for l in lines[max(0, i - 2) : i])
        ):
            emit(
                "idle-wait-copy",
                i,
                "yield/sleep outside the idle-wait rule; call util::idle_step "
                "or util::idle_backoff (or annotate `idle-ok:` with a reason)",
            )

    return findings


def lint_test_only_modules(root: Path, allow):
    """Flag src/ headers that nothing but their own .cpp (or tests) include."""
    includers = {}  # resolved header path -> resolved paths including it
    for d in USER_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for f in base.rglob("*"):
            if f.suffix not in SOURCE_SUFFIXES or not f.is_file():
                continue
            for inc in INCLUDE_RE.findall(f.read_text(errors="replace")):
                for cand in (root / "src" / inc, f.parent / inc):
                    if cand.is_file():
                        includers.setdefault(cand.resolve(), set()).add(f.resolve())

    findings = []
    for h in sorted((root / "src").rglob("*.hpp")):
        users = includers.get(h.resolve(), set()) - {h.with_suffix(".cpp").resolve()}
        if users or TEST_ONLY_OK_RE.search(h.read_text()):
            continue
        relpath = h.relative_to(root).as_posix()
        if not allowed(allow, "test-only-module", relpath, 1):
            findings.append(
                {
                    "rule": "test-only-module",
                    "file": relpath,
                    "line": 1,
                    "message": "header included only by its own .cpp or by "
                    "tests; delete the module (or annotate `test-only-ok:` "
                    "with a reason)",
                }
            )
    return findings


def main(argv):
    ap = argparse.ArgumentParser(prog="photon_lint")
    ap.add_argument("--root", default=None, help="repo root (default: auto)")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument(
        "--allowlist",
        default=None,
        help="allowlist file (default: tools/lint_allow.txt under root)",
    )
    ap.add_argument(
        "--rule",
        action="append",
        choices=ALL_RULES,
        help="run only these rules (repeatable; default: all)",
    )
    args = ap.parse_args(argv)

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    src = root / "src"
    if not src.is_dir():
        print(f"photon_lint: no src/ under {root}", file=sys.stderr)
        return 2

    rules = set(args.rule) if args.rule else set(ALL_RULES)
    allow_path = Path(args.allowlist) if args.allowlist else root / "tools" / "lint_allow.txt"
    allow = load_allowlist(allow_path)

    findings = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
            continue
        relpath = path.relative_to(root).as_posix()
        findings.extend(lint_file(relpath, path.read_text(), rules, allow))
    if "test-only-module" in rules:
        findings.extend(lint_test_only_modules(root, allow))

    if args.format == "json":
        print(json.dumps({"violations": findings, "count": len(findings)}, indent=2))
    else:
        for f in findings:
            print(f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}")
        print(f"photon_lint: {len(findings)} violation(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
