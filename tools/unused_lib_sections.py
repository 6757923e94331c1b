#!/usr/bin/env python3
"""Fails when libsigcomp.a holds a function that no shipped binary links.

Every binary under tools/, examples/, bench/ and farmbench/ is linked with
section garbage collection, so a library function that none of them calls
is dropped by every link.  This script re-runs each binary's link from its
build directory (CMakeFiles/<target>.dir/link.txt, Unix Makefiles
generator) and reads which archive members the linker loaded and which
sections it removed.  A `sigcomp::` function is unused when no link keeps
any of its code sections (clones such as `.isra.0` count as the function).
Inline functions that headers define (COMDAT group sections) are skipped,
and so is code generated for lambdas: the function that defines a lambda is
checked itself.

Compile with -fno-inline and -fno-ipa-icf, so that a function's own section
is kept exactly when shipped code calls it (an inlined call would leave an
unused out-of-line copy, and identical-code folding would leave one of two
identical functions unreferenced), and with -fdata-sections, so that a
switch's jump table in a shared .rodata section does not keep its function
alive.

Unused functions not in the allowlist fail the check, and so do allowlist
entries whose function is used again or gone (stale).

Configure each build directory with the flags on the cmake command line
and without the test suite (a test binary would keep test-only code):

  CF="-ffunction-sections -fdata-sections -fno-inline -fno-ipa-icf"
  LF="-Wl,--gc-sections,--print-gc-sections"
  F="-DCMAKE_BUILD_TYPE=Release -DCMAKE_EXE_LINKER_FLAGS=$LF"
  cmake -S . -B build-gc $F "-DCMAKE_CXX_FLAGS=$CF" -DSIGCOMP_BUILD_TESTS=OFF
  cmake -S farmbench -B build-gc-farm $F "-DCMAKE_CXX_FLAGS=$CF"
  cmake --build build-gc -j && cmake --build build-gc-farm -j
  tools/unused_lib_sections.py --allowlist tools/unused_lib_sections.allow \\
      build-gc build-gc-farm

Allowlist lines are `<demangled function> # <reason>`; the reason is
required.  Needs binutils (`readelf`, `c++filt`); Python stdlib only.
"""
import argparse
import re
import shlex
import subprocess
import sys
from pathlib import Path

LIBRARY = "libsigcomp.a"
REQUIRED_FLAGS = ("-ffunction-sections", "-fdata-sections", "-fno-inline",
                  "-fno-ipa-icf", "--gc-sections", "--print-gc-sections")
REMOVED_RE = re.compile(r"removing unused section '([^'\[]+)[^']*' in file "
                        r"'[^']*" + re.escape(LIBRARY) + r"\(([^)]+)\)'")
LOADED_RE = re.compile(r"^\(.*" + re.escape(LIBRARY) + r"\)(\S+)$")
MEMBER_RE = re.compile(r"^File: .*" + re.escape(LIBRARY) + r"\(([^)]+)\)$")
SECTION_RE = re.compile(r"^\s*\[\s*\d+\]\s+(\.text\.\S+)\s+PROGBITS\s+(.*)$")
TEXT_PREFIX_RE = re.compile(r"^\.text\.(?:unlikely\.|startup\.|hot\.)?")
CLONE_SUFFIX_RE = re.compile(r"(?:\.(?:isra|constprop|part|cold)(?:\.\d+)?)+$")
# Mangled names nested in namespace sigcomp (members and free functions).
SIGCOMP_RE = re.compile(r"^_ZN[KVRO]*7sigcomp")


def function_of(section):
    """The mangled function a code section holds, clone suffixes removed."""
    return CLONE_SUFFIX_RE.sub("", TEXT_PREFIX_RE.sub("", section))


def library_sections(build_dirs):
    """({member: {section}}, {function}): the non-COMDAT code sections of
    sigcomp:: functions in every libsigcomp.a member, and the functions
    defined out of line there.  A function with a COMDAT section, or with
    only clone sections (a header's inline function), is not one of them."""
    sections, own, inline = {}, set(), set()
    for build in build_dirs:
        for archive in Path(build).rglob(LIBRARY):
            listing = subprocess.run(["readelf", "-SW", str(archive)],
                                     text=True, stdout=subprocess.PIPE,
                                     check=True).stdout
            member = None
            for line in listing.splitlines():
                match = MEMBER_RE.match(line)
                if match:
                    member = match.group(1)
                    sections.setdefault(member, set())
                    continue
                match = SECTION_RE.match(line)
                if not match or member is None:
                    continue
                section = match.group(1)
                function = function_of(section)
                flags = match.group(2).split()[4]  # Address Off Size ES Flg
                if "G" in flags:
                    inline.add(function)
                elif SIGCOMP_RE.match(function):
                    sections[member].add(section)
                    if TEXT_PREFIX_RE.sub("", section) == function:
                        own.add(function)
    return sections, own - inline


def links(build_dirs):
    """Yields (working directory, argv) of every built executable that
    links libsigcomp.a (targets the build skipped are skipped)."""
    for build in build_dirs:
        for link_txt in sorted(Path(build).rglob("CMakeFiles/*.dir/link.txt")):
            command = link_txt.read_text().strip()
            argv = shlex.split(command)
            workdir = link_txt.parent.parent.parent
            if LIBRARY not in command or "-o" not in argv:
                continue
            if not (workdir / argv[argv.index("-o") + 1]).is_file():
                continue
            if link_txt.parent.name == "sigcomp_tests.dir":
                sys.exit(f"error: {build} builds the test suite; configure "
                         "it with -DSIGCOMP_BUILD_TESTS=OFF")
            missing = [flag for flag in REQUIRED_FLAGS if flag not in command]
            if missing:
                sys.exit(f"error: {link_txt} lacks {' '.join(missing)}; pass "
                         "the flags on the cmake command line (see --help)")
            yield workdir, argv


def run_link(workdir, argv):
    """Re-runs one link with archive-member tracing; returns the members it
    loaded and the (member, section) pairs it removed."""
    proc = subprocess.run(argv + ["-Wl,--trace,--trace"], cwd=workdir,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: link failed in {workdir}:\n{proc.stdout}")
    loaded, removed = set(), set()
    for line in proc.stdout.splitlines():
        match = REMOVED_RE.search(line)
        if match:
            removed.add((match.group(2), match.group(1)))
            continue
        match = LOADED_RE.match(line.strip())
        if match:
            loaded.add(match.group(1))
    return loaded, removed


def demangle(symbols):
    proc = subprocess.run(["c++filt"], input="\n".join(symbols), text=True,
                          stdout=subprocess.PIPE, check=True)
    return dict(zip(symbols, proc.stdout.splitlines()))


def read_allowlist(path):
    entries = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.rpartition(" # ")
        if not sep or not name.strip() or not reason.strip():
            sys.exit(f"error: {path}:{line_no}: expected "
                     "'<demangled function> # <reason>'")
        entries[name.strip()] = line_no
    return entries


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--allowlist", required=True)
    parser.add_argument("build_dirs", nargs="+")
    args = parser.parse_args()

    sections, defined = library_sections(args.build_dirs)
    results = [run_link(workdir, argv)
               for workdir, argv in links(args.build_dirs)]
    if not sections or not results:
        sys.exit(f"error: no {LIBRARY} or no executable linking it")
    used = {function_of(section)
            for loaded, removed in results
            for member in loaded
            for section in sections.get(member, ())
            if (member, section) not in removed}
    unused = sorted(name for name in demangle(sorted(defined - used)).values()
                    if "{lambda(" not in name)
    allow = read_allowlist(args.allowlist)

    failures = [f"unused by every shipped binary: {fn}"
                for fn in unused if fn not in allow]
    failures += [f"{args.allowlist}:{line}: stale entry (used or gone): {fn}"
                 for fn, line in sorted(allow.items(), key=lambda e: e[1])
                 if fn not in unused]
    print(f"{len(results)} links, {len(defined)} sigcomp:: functions, "
          f"{len(unused)} unused, {len(allow)} allowed")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
