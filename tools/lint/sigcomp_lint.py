#!/usr/bin/env python3
"""sigcomp_lint -- static determinism checker for the sigcomp library.

The repo's crown-jewel invariant is bit-identical results across threads,
shards and event-queue backends.  The differential suites and pinned golden
digests enforce it dynamically; this pass enforces it at the source level,
before any test runs, by rejecting the constructs that historically break
bit-identity:

  random-device       std::random_device -- nondeterministic hardware
                      entropy; all randomness must come from sim::Rng.
  libc-rand           rand()/srand()/random()/drand48() and friends --
                      global hidden state, vendor-specific sequences.
  wall-clock          std::chrono::{system,steady,high_resolution}_clock,
                      time(), clock(), gettimeofday(), clock_gettime(),
                      localtime()/gmtime() -- wall-clock reads in library
                      code make results depend on when/where they run.
                      (Benches time themselves; the library must not.)
  thread-sleep        std::this_thread::{sleep_for,sleep_until,yield} --
                      scheduling-dependent timing in library code.
  pointer-order       std::hash/std::less over pointer types, or casting
                      pointers to (u)intptr_t -- address-space layout leaks
                      into ordering or hashing.
  unordered-container std::unordered_{map,set,multimap,multiset} in library
                      code -- hash iteration order is vendor-specific, and
                      iteration (including float accumulation) over it is
                      the classic silent bit-identity breaker.
  unordered-iteration range-for or begin()/end() over a variable declared
                      as (or holding) an unordered container -- the sharp
                      end of the rule above, reported separately so a
                      waived *declaration* still cannot be iterated
                      silently.
  rng-stream-literal  sim::Rng constructed with a numeric-literal stream
                      ID -- every substream ID must be a named constant
                      from src/core/rng_streams.hpp, where a static_assert
                      proves global uniqueness.
  raw-atomic          std::atomic (and std::atomic_* free functions) outside
                      the audited thread pool (exp/thread_pool) in library
                      code.  Ad-hoc atomics are how nondeterministic
                      cross-thread channels sneak in; inter-shard traffic
                      must ride the barrier-phased stamped ring fabric, and
                      worker coordination the pool.

Escape hatch (same line, or a comment line directly above the code):

    // sigcomp-lint: allow(<rule>[, <rule>...]) <reason -- required>

A waiver with an unknown rule or a missing reason is itself a finding
(`bad-waiver`), and a waiver that suppresses nothing is reported as
`unused-waiver` so stale waivers cannot accumulate.

Usage:
    tools/lint/sigcomp_lint.py [--root DIR] [--format text|json] [PATH...]

PATH defaults to `src`.  Paths are files or directories (searched
recursively for *.hpp/*.cpp).  Exits 1 when any finding survives waivers,
0 on a clean tree.  Comments and string/character literals are stripped
before rules run, so prose and error messages never trip a rule.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

RULE_DOCS = {
    "random-device": "std::random_device is nondeterministic; draw from "
                     "sim::Rng instead",
    "libc-rand": "C library RNG has hidden global state; draw from sim::Rng "
                 "instead",
    "wall-clock": "wall-clock read in library code; results must not depend "
                  "on when they run",
    "thread-sleep": "std::this_thread sleep/yield makes timing "
                    "scheduling-dependent",
    "pointer-order": "ordering/hashing by pointer value leaks address-space "
                     "layout into results",
    "unordered-container": "hash-container iteration order is "
                           "vendor-specific; use an ordered or indexed "
                           "container",
    "unordered-iteration": "iterating an unordered container; order is "
                           "vendor-specific",
    "rng-stream-literal": "numeric-literal RNG stream ID; use a named "
                          "constant from core/rng_streams.hpp",
    "raw-atomic": "raw std::atomic outside the audited thread pool "
                  "(exp/thread_pool); cross-thread traffic goes through the "
                  "stamped ring fabric",
    "bad-waiver": "malformed sigcomp-lint waiver",
    "unused-waiver": "waiver suppresses no finding; remove it",
}

# Rules a waiver may name (bad-waiver/unused-waiver are meta, not waivable).
WAIVABLE_RULES = frozenset(
    r for r in RULE_DOCS if r not in ("bad-waiver", "unused-waiver"))

WAIVER_RE = re.compile(
    r"sigcomp-lint:\s*allow\s*\(\s*([A-Za-z0-9_,\s-]*?)\s*\)\s*(.*)")

SOURCE_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str


@dataclass
class Waiver:
    line: int  # 1-based line the waiver comment sits on
    rules: tuple
    reason: str
    target_line: int  # code line the waiver applies to
    used_rules: set = field(default_factory=set)


def strip_comments_and_strings(text):
    """Blanks comments and string/char literal *contents*, preserving the
    line structure exactly.  Returns (code_text, comment_text): each the
    same shape as `text`, with non-code (resp. non-comment) bytes replaced
    by spaces.  Handles //, /* */, "..." and '...' with escapes; raw
    strings are not used in this codebase (documented limitation)."""
    code = []
    comment = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                code.append("  ")
                comment.append("//")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                code.append("  ")
                comment.append("/*")
                i += 2
                continue
            if c == '"':
                state = STRING
                code.append('"')
                comment.append(" ")
                i += 1
                continue
            if c == "'":
                state = CHAR
                code.append("'")
                comment.append(" ")
                i += 1
                continue
            code.append(c)
            comment.append(c if c == "\n" else " ")
            i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                code.append("\n")
                comment.append("\n")
            else:
                code.append(" ")
                comment.append(c)
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                code.append("  ")
                comment.append("*/")
                i += 2
                continue
            code.append("\n" if c == "\n" else " ")
            comment.append(c)
            i += 1
        elif state in (STRING, CHAR):
            quote = '"' if state == STRING else "'"
            if c == "\\" and nxt:
                code.append("  ")
                comment.append("  ")
                i += 2
                continue
            if c == quote:
                state = NORMAL
                code.append(quote)
            elif c == "\n":  # unterminated literal; keep line structure
                state = NORMAL
                code.append("\n")
            else:
                code.append(" ")
            comment.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(code), "".join(comment)


def parse_waivers(comment_lines, code_lines, findings, path):
    """Extracts waivers from comment text.  A waiver applies to its own
    line when that line has code, otherwise to the next line that does."""
    waivers = []

    def next_code_line(start):
        for j in range(start, len(code_lines)):
            if code_lines[j].strip():
                return j + 1
        return len(code_lines)  # dangling; applies to nothing

    for idx, comment in enumerate(comment_lines):
        match = WAIVER_RE.search(comment)
        if not match:
            if "sigcomp-lint" in comment:
                findings.append(Finding(
                    path, idx + 1, "bad-waiver",
                    "unrecognized sigcomp-lint directive; expected "
                    "'sigcomp-lint: allow(<rule>) <reason>'"))
            continue
        rules = tuple(
            r.strip() for r in match.group(1).split(",") if r.strip())
        reason = match.group(2).strip()
        bad = [r for r in rules if r not in WAIVABLE_RULES]
        if not rules or bad:
            findings.append(Finding(
                path, idx + 1, "bad-waiver",
                "unknown rule(s) in waiver: {}".format(
                    ", ".join(bad) if bad else "(none given)")))
            continue
        if not reason:
            findings.append(Finding(
                path, idx + 1, "bad-waiver",
                "waiver needs a reason: sigcomp-lint: allow({}) <why>".format(
                    ", ".join(rules))))
            continue
        has_code = bool(code_lines[idx].strip())
        target = idx + 1 if has_code else next_code_line(idx + 1)
        waivers.append(Waiver(idx + 1, rules, reason, target))
    return waivers


# ------------------------------------------------------- simple rules --

SIMPLE_RULES = [
    ("random-device", re.compile(r"\bstd\s*::\s*random_device\b")),
    ("libc-rand", re.compile(
        r"\b(?:rand|srand|random|srandom|rand_r|drand48|erand48|lrand48|"
        r"mrand48|random_r)\s*\(")),
    ("wall-clock", re.compile(
        r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"
        r"|\bstd\s*::\s*time\s*\("
        r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
        r"|\b(?:gettimeofday|clock_gettime|localtime|gmtime|mktime)\s*\("
        r"|\bclock\s*\(\s*\)")),
    ("thread-sleep", re.compile(r"\bstd\s*::\s*this_thread\b")),
    ("pointer-order", re.compile(
        r"\bstd\s*::\s*(?:hash|less|greater)\s*<[^<>;]*\*\s*>"
        r"|\bu?intptr_t\b")),
    ("unordered-container", re.compile(
        r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\b")),
]

# raw-atomic: std::atomic<T>, std::atomic_flag, std::atomic_thread_fence and
# friends.  Path-scoped rather than purely syntactic: the thread pool's
# work-claiming counter is the only library code allowed to hold raw atomics
# (anywhere else, waive with a reason).
ATOMIC_RE = re.compile(r"\bstd\s*::\s*atomic(?:_\w+)?\b")
ATOMIC_POOL_FILES = (
    "exp/thread_pool.hpp",
    "exp/thread_pool.cpp",
)

# ------------------------------------------- declaration collectors --

# `std::unordered_map<...> name` possibly nested inside another template
# (e.g. std::vector<std::unordered_map<K, V>> rates_;).  Greedy match to
# the last '>' on the line, then the declared name.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s*(\w+)\s*"
    r"[;={(]")

# `sim::Rng name;` / `Rng name(...)` member or local declarations.
RNG_DECL_RE = re.compile(
    r"\b(?:sim\s*::\s*)?Rng\s+(\w+)\s*[;={(,)]")

# Direct construction with a literal stream: Rng(seed_expr, 42).  The
# argument list is matched with one nesting level of parentheses.
ARGS = r"(?:[^()]|\([^()]*\))*"
RNG_DIRECT_LITERAL_RE = re.compile(
    r"\b(?:sim\s*::\s*)?Rng\s*(?:\w+\s*)?\(\s*" + ARGS +
    r"?,\s*(?:0[xX][0-9a-fA-F]+|\d+)\s*(?:[uU]?[lL]{0,2})\s*\)")

RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;)]*):([^)]*)\)")
# begin() only: `it != container.end()` is the harmless lookup-sentinel
# idiom, and explicit iterator loops need a begin() to start from.
ITER_CALL_RE = re.compile(
    r"\b(\w+)\s*(?:\[[^\]]*\]\s*)?\.\s*c?r?begin\s*\(")


def member_init_literal_re(name):
    """ctor-init-list / declaration `name(<args>, <int literal>)`."""
    return re.compile(
        r"\b" + re.escape(name) + r"\s*\(\s*" + ARGS +
        r",\s*(?:0[xX][0-9a-fA-F]+|\d+)\s*(?:[uU]?[lL]{0,2})\s*\)")


@dataclass
class FileView:
    path: str
    rel: str
    raw_lines: list
    code_lines: list
    comment_lines: list


def load_view(path, rel):
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    code, comment = strip_comments_and_strings(text)
    return FileView(path, rel, text.splitlines(), code.splitlines(),
                    comment.splitlines())


def collect_declared_names(views):
    """Pass A over every file: names declared as unordered containers and
    as sim::Rng instances (matched repo-wide, since members are declared
    in headers and used in .cpp files)."""
    unordered, rngs = set(), set()
    for view in views:
        for line in view.code_lines:
            for m in UNORDERED_DECL_RE.finditer(line):
                unordered.add(m.group(1))
            for m in RNG_DECL_RE.finditer(line):
                # `Rng name` inside a parameter list declares a reference
                # handle, not a stream owner; constructing through it is
                # still caught by the member-init pattern below.
                rngs.add(m.group(1))
    return unordered, rngs


def lint_file(view, unordered_names, rng_names, registry_rel):
    findings = []
    waivers = parse_waivers(view.comment_lines, view.code_lines, findings,
                            view.rel)
    raw = []  # (line, rule, message) before waiver filtering

    rng_member_res = [member_init_literal_re(n) for n in sorted(rng_names)]

    rel_posix = view.rel.replace(os.sep, "/")
    in_registry = rel_posix.endswith(registry_rel)
    in_pool = rel_posix.endswith(ATOMIC_POOL_FILES)
    for idx, line in enumerate(view.code_lines):
        lineno = idx + 1
        for rule, rx in SIMPLE_RULES:
            if rx.search(line):
                raw.append((lineno, rule, RULE_DOCS[rule]))
        if not in_pool and ATOMIC_RE.search(line):
            raw.append((lineno, "raw-atomic", RULE_DOCS["raw-atomic"]))
        # unordered-iteration: range-for or begin()/end() over a known name.
        tokens = None
        for m in RANGE_FOR_RE.finditer(line):
            tokens = set(re.findall(r"\w+", m.group(2)))
            if tokens & unordered_names:
                raw.append((lineno, "unordered-iteration",
                            "range-for over unordered container '{}'".format(
                                ", ".join(sorted(tokens & unordered_names)))))
        for m in ITER_CALL_RE.finditer(line):
            if m.group(1) in unordered_names:
                raw.append((lineno, "unordered-iteration",
                            "iterator over unordered container '{}'".format(
                                m.group(1))))
        # rng-stream-literal: skipped inside the registry header itself.
        if in_registry:
            continue
        if RNG_DIRECT_LITERAL_RE.search(line):
            raw.append((lineno, "rng-stream-literal",
                        RULE_DOCS["rng-stream-literal"]))
        else:
            for rx in rng_member_res:
                if rx.search(line):
                    raw.append((lineno, "rng-stream-literal",
                                RULE_DOCS["rng-stream-literal"]))
                    break

    # Apply waivers.
    by_target = {}
    for w in waivers:
        by_target.setdefault(w.target_line, []).append(w)
    for lineno, rule, message in raw:
        waived = False
        for w in by_target.get(lineno, []):
            if rule in w.rules:
                w.used_rules.add(rule)
                waived = True
        if not waived:
            findings.append(Finding(view.rel, lineno, rule, message))

    for w in waivers:
        for rule in w.rules:
            if rule not in w.used_rules:
                findings.append(Finding(
                    view.rel, w.line, "unused-waiver",
                    "allow({}) suppresses no finding on line {}".format(
                        rule, w.target_line)))
    return findings


def gather_files(root, paths):
    files = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            files.append(full)
            continue
        if not os.path.isdir(full):
            raise SystemExit("sigcomp_lint: no such path: {}".format(p))
        for dirpath, _, names in sorted(os.walk(full)):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sigcomp_lint.py",
        description="static determinism checker for the sigcomp library")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up from "
                             "this script)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULE_DOCS):
            print("{:20s} {}".format(rule, RULE_DOCS[rule]))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    paths = args.paths or ["src"]
    files = gather_files(root, paths)

    views = []
    for f in files:
        rel = os.path.relpath(f, root)
        views.append(load_view(f, rel))

    unordered_names, rng_names = collect_declared_names(views)

    findings = []
    for view in views:
        findings.extend(
            lint_file(view, unordered_names, rng_names,
                      registry_rel="core/rng_streams.hpp"))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if args.format == "json":
        print(json.dumps(
            [{"file": f.path, "line": f.line, "rule": f.rule,
              "message": f.message} for f in findings], indent=2))
    else:
        for f in findings:
            print("{}:{}: [{}] {}".format(f.path, f.line, f.rule, f.message))
        print("sigcomp_lint: {} file(s), {} finding(s)".format(
            len(files), len(findings)))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
