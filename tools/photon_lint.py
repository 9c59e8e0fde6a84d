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
  idle-wait-copy       in src/, bench/ and examples/, blocking loops wait
                       through the one idle-wait rule in util/idle_wait.hpp:
                       a this_thread::yield, sleep_for or sleep_until
                       anywhere else is flagged unless it carries an
                       `idle-ok:` justification on the same line or the line
                       above.
  wait-loop-copy       in src/, blocking loops wait through util::wait_until:
                       a call to idle_step( or idle_backoff( outside
                       util/idle_wait.hpp is flagged unless it carries an
                       `idle-ok:` justification on the same line or the line
                       above.
  post-protocol-copy   in src/ outside src/check/, every post runs the
                       checker's three-phase protocol through
                       check::PostGuard: a begin_op(, commit( or abort_post(
                       call on the checker is flagged unless it carries a
                       `check-ok:` reason on the same line or the line above.
  test-only-module     every src/**/*.hpp is included by some file under
                       src/, bench/, examples/ or perfbench/ other than its
                       own .cpp; a header only tests reach is flagged unless
                       it carries a `test-only-ok:` reason.
  test-only-symbol     every public member function declared in a
                       src/**/*.hpp class is named somewhere under src/,
                       bench/, examples/ or perfbench/ besides its own
                       declarations and out-of-class definitions (calls
                       from its own .cpp count). A member only tests call is
                       flagged unless its declaration line or the comment
                       block right above it carries a `test-only-ok:` reason.
                       Matching is by name, so a name shared with any used
                       function counts as used.

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
WAIT_LOOP_RE = re.compile(r"\b(?:idle_step|idle_backoff)\s*\(")
# Trees whose yields and sleeps idle-wait-copy covers besides src/.
IDLE_WAIT_DIRS = ("src/", "bench/", "examples/")

# A three-phase post call on the checker (`nic_.checker().commit(`,
# `checker_->begin_op(`, ...), allowed only in src/check/ (check::PostGuard).
CHECK_DIR = "src/check/"
POST_PROTOCOL_RE = re.compile(
    r"\bchecker_?\s*(?:\(\s*\))?\s*(?:\.|->)\s*(?:begin_op|commit|abort_post)\s*\("
)
CHECK_OK_RE = re.compile(r"check-ok:")

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
    "wait-loop-copy",
    "post-protocol-copy",
    "test-only-module",
    "test-only-symbol",
)

IDENT_RE = re.compile(r"[A-Za-z_]\w*")
CLASS_HEAD_RE = re.compile(r"\b(class|struct|union)\s+(?:alignas\([^)]*\)\s*)?(\w*)")
# Words that precede '(' in a member declaration without naming a function.
NOT_A_MEMBER_NAME = {
    "alignas", "alignof", "decltype", "noexcept", "sizeof", "static_assert",
    "requires", "void", "bool", "char", "int", "long", "short", "unsigned",
    "signed", "float", "double", "auto", "const", "volatile",
}


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
            and relpath.startswith(IDLE_WAIT_DIRS)
            and relpath != IDLE_WAIT_FILE
            and IDLE_WAIT_RE.search(code)
            and not any(IDLE_OK_RE.search(l) for l in lines[max(0, i - 2) : i])
        ):
            emit(
                "idle-wait-copy",
                i,
                "yield/sleep outside the idle-wait rule; wait through "
                "util::wait_until (or annotate `idle-ok:` with a reason)",
            )

        if (
            "wait-loop-copy" in rules
            and relpath.startswith("src/")
            and relpath != IDLE_WAIT_FILE
            and WAIT_LOOP_RE.search(code)
            and not any(IDLE_OK_RE.search(l) for l in lines[max(0, i - 2) : i])
        ):
            emit(
                "wait-loop-copy",
                i,
                "hand-written wait loop around idle_step/idle_backoff; wait "
                "through util::wait_until (or annotate `idle-ok:` with a reason)",
            )

        if (
            "post-protocol-copy" in rules
            and relpath.startswith("src/")
            and not relpath.startswith(CHECK_DIR)
            and POST_PROTOCOL_RE.search(code)
            and not any(CHECK_OK_RE.search(l) for l in lines[max(0, i - 2) : i])
        ):
            emit(
                "post-protocol-copy",
                i,
                "checker begin_op/commit/abort_post outside check::PostGuard; "
                "post through the guard (or annotate `check-ok:` with a reason)",
            )

    return findings


def strip_code(text: str) -> str:
    """Blank comments, string/char literals and preprocessor lines, keeping
    every other character at its offset (newlines survive)."""
    out = list(text)
    i, n = 0, len(text)
    line_start = True
    while i < n:
        c = text[i]
        if line_start and c == "#":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
            continue
        if c == "\n":
            line_start = True
            i += 1
            continue
        if not c.isspace():
            line_start = False
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            for k in range(i, end):
                if text[k] != "\n":
                    out[k] = " "
            i = end
        elif c == '"' or (c == "'" and not text[i - 1 : i].isalnum()):
            # (a quote after a digit is a separator: 30'000'000)
            k = i + 1
            while k < n and text[k] != c and text[k] != "\n":
                k += 2 if text[k] == "\\" else 1
            for m in range(i + 1, min(k, n)):
                out[m] = " "
            i = k + 1 if k < n and text[k] == c else k
        else:
            i += 1
    return "".join(out)


def member_function_name(head: str, class_name: str):
    """Name of the member function a class-body declaration head declares
    (the text before its body or ';'), or None for data members, types,
    constructors, destructors, operators and friends."""
    head = head.split("{", 1)[0]
    if re.search(r"\b(friend|using|typedef|operator|static_assert)\b", head):
        return None
    head = re.sub(r"^\s*template\s*<", "<", head)
    angle = 0
    for k, c in enumerate(head):
        if c == "<":
            angle += 1
        elif c == ">" and head[k - 1 : k] != "-":
            angle = max(0, angle - 1)
        elif c == "=" and angle == 0:
            return None
        elif c == "(" and angle == 0:
            m = re.search(r"(~?)([A-Za-z_]\w*)\s*$", head[:k])
            if not m or m.group(1) or m.group(2) == class_name:
                return None
            name = m.group(2)
            if name in NOT_A_MEMBER_NAME or re.fullmatch(r"[A-Z0-9_]+", name):
                return None
            return name, m.start(2)
    return None


def member_declarations(code: str):
    """Yield (name, offset, public) for each member function declared in a
    class body of comment-stripped `code`; public means reachable from
    outside (a public member of a class nested in a private section is not)."""
    # Frames: [kind, class name, access, paren depth, statement start,
    #          function seen, exported]; kind is "class", "body" (a function
    #          body or namespace: the statement restarts after it) or "init"
    #          (a brace initializer or enum: the statement continues after it).
    frames = [["body", "", "", 0, 0, False, True]]
    def exported(frame):
        return frame[6] and frame[2] == "public"

    i = 0
    n = len(code)
    while i < n:
        c = code[i]
        top = frames[-1]
        if c == "(":
            top[3] += 1
        elif c == ")":
            top[3] = max(0, top[3] - 1)
        elif top[3] == 0 and c in ";{}:":
            head = code[top[4] : i]
            if c == ":" and top[0] == "class":
                word = head.strip()
                if word in ("public", "private", "protected"):
                    top[2] = word
                    top[4] = i + 1
            elif c == ";":
                if top[0] == "class" and not top[5]:
                    found = member_function_name(head, top[1])
                    if found:
                        yield found[0], top[4] + found[1], exported(top)
                top[4] = i + 1
                top[5] = False
            elif c == "{":
                kind, name, access = "init", "", ""
                cls = CLASS_HEAD_RE.search(head)
                if cls and "(" not in head and not re.search(r"\benum\b", head):
                    kind, name = "class", cls.group(2)
                    access = "private" if cls.group(1) == "class" else "public"
                elif top[0] == "class" and not top[5]:
                    found = member_function_name(head, top[1])
                    if found:
                        yield found[0], top[4] + found[1], exported(top)
                    if "(" in head.split("=", 1)[0]:
                        kind, top[5] = "body", True
                elif top[0] != "class" and "=" not in head:
                    kind = "body"
                frames.append([kind, name, access, 0, i + 1, False,
                               top[0] != "class" or exported(top)])
            elif c == "}" and len(frames) > 1:
                done = frames.pop()
                parent = frames[-1]
                rest = code[i + 1 :].lstrip()
                # A brace that closes a constructor's member initializer
                # (followed by ',' or the body's '{') continues the statement.
                if done[0] == "class" or (
                    done[0] == "body" and not rest.startswith((",", "{"))
                ):
                    parent[4] = i + 1
                    parent[5] = False
        i += 1


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def annotated_test_only(lines, lineno: int) -> bool:
    """`test-only-ok:` on the declaration line or in the comment block (and
    template line) directly above it."""
    k = lineno - 1
    if TEST_ONLY_OK_RE.search(lines[k]):
        return True
    k -= 1
    while k >= 0 and lines[k].strip().startswith(("//", "template")):
        if TEST_ONLY_OK_RE.search(lines[k]):
            return True
        k -= 1
    return False


def lint_test_only_symbols(root: Path, allow):
    """Flag public member functions of src/ classes that only tests name."""
    decls = []          # (relpath, name, offset, text) of public members
    decl_sites = set()  # (relpath, offset) of every member declaration name
    mentioned = set()   # names the program uses outside their declarations
    files = []
    for d in USER_DIRS:
        base = root / d
        if base.is_dir():
            files += [f for f in sorted(base.rglob("*"))
                      if f.suffix in SOURCE_SUFFIXES and f.is_file()]
    stripped = {}
    for f in files:
        relpath = f.relative_to(root).as_posix()
        text = f.read_text(errors="replace")
        code = strip_code(text)
        stripped[relpath] = code
        for name, off, public in member_declarations(code):
            decl_sites.add((relpath, off))
            if public and relpath.startswith("src/") and relpath.endswith(".hpp"):
                decls.append((relpath, name, off, text))
    wanted = {name for _, name, _, _ in decls}
    for relpath, code in stripped.items():
        for m in IDENT_RE.finditer(code):
            name = m.group(0)
            if name not in wanted or (relpath, m.start()) in decl_sites:
                continue
            # Out-of-class definitions start at column 0 as `...Class::name(`.
            bol = code.rfind("\n", 0, m.start()) + 1
            if code[m.start() - 2 : m.start()] == "::" and not code[bol].isspace():
                continue
            mentioned.add(name)

    findings = []
    for relpath, name, off, text in decls:
        if name in mentioned:
            continue
        lineno = line_of(text, off)
        if annotated_test_only(text.splitlines(), lineno):
            continue
        if allowed(allow, "test-only-symbol", relpath, lineno):
            continue
        findings.append(
            {
                "rule": "test-only-symbol",
                "file": relpath,
                "line": lineno,
                "message": f"public member `{name}` is called only from "
                "tests; delete it (or annotate `test-only-ok:` with a reason)",
            }
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
        if path.suffix not in SOURCE_SUFFIXES:
            continue
        relpath = path.relative_to(root).as_posix()
        findings.extend(lint_file(relpath, path.read_text(), rules, allow))
    # bench/ and examples/ answer only to the idle-wait rule.
    for tree in ("bench", "examples"):
        for path in sorted((root / tree).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            relpath = path.relative_to(root).as_posix()
            findings.extend(lint_file(relpath, path.read_text(),
                                      rules & {"idle-wait-copy"}, allow))
    if "test-only-module" in rules:
        findings.extend(lint_test_only_modules(root, allow))
    if "test-only-symbol" in rules:
        findings.extend(lint_test_only_symbols(root, allow))

    if args.format == "json":
        print(json.dumps({"violations": findings, "count": len(findings)}, indent=2))
    else:
        for f in findings:
            print(f"{f['file']}:{f['line']}: [{f['rule']}] {f['message']}")
        print(f"photon_lint: {len(findings)} violation(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
