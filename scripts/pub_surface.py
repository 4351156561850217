#!/usr/bin/env python3
"""The public surface is what another crate uses, and the program what it runs.

Check 1 lists every `pub fn` under `crates/*/src` whose name no other
crate names: another crate's code or tests, an integration test, an
example, a bin target (`src/main.rs`, `src/bin/`), a doctest or
`benchmark/src`. Such a function is `pub(crate)` at most, and once
narrowed the compiler reports it if nothing in its own crate calls it
either.

Check 2 lists every `pub fn` that no non-test line names outside its own
definition and its `pub use` lines: no library code outside
`#[cfg(test)]`, bin, example or `benchmark/src` line. Such a function
runs only under its own tests, so it goes with them.

Matching is by name, so a name that is used anywhere keeps every
function of that name: the checks can miss a dead function, never flag a
used one. `ALLOW` exempts a function from both, each with its reason.

Usage: scripts/pub_surface.py          fail (exit 1) on any flagged fn
       scripts/pub_surface.py --count  print the distinct `pub fn` names
           and the non-test line count: the lines before each file's
           `#[cfg(test)] mod tests {`, `tests.rs` left out
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Kept although no program path calls them, each with the reason. This
# is also the kept list of the rustc dead-code census (every `pub fn`
# narrowed to `pub(crate)`, `cargo check --workspace --lib --bins
# --examples`): an item the census reports must be named here or go.
PGAS = "the partitioned global array is the paper's Section VII future work, kept for the PGAS work that builds on it"
HOOK = "a test-observation hook: tests read state through it that the program never asks for"
PAIR = "clippy's len_without_is_empty wants the pair; the program calls one half"
ALLOW = {
    ("core", "new"): PGAS,
    ("core", "bounds"): PGAS,
    ("core", "partition_of"): PGAS,
    ("core", "write_local"): PGAS,
    ("core", "read"): PGAS,
    ("core", "read_at"): PGAS,
    ("chaos", "run_case_spec"): "the reproducer `insitu chaos` prints calls it from a pasted test, so it is named inside a string",
    ("cods", "gets_completed"): HOOK,
    ("cods", "dht"): HOOK,
    ("cods", "cache"): HOOK,
    ("cods", "stats"): HOOK + " (the schedule cache's hits and misses)",
    ("cods", "lagged"): HOOK + " (a subscription's tallies, through the handle the program hands out)",
    ("cods", "completed"): HOOK + " (a subscription's tallies, through the handle the program hands out)",
    ("dart", "ledger"): HOOK,
    ("dart", "unregister"): HOOK + " (the space tests drop a staged buffer with it)",
    ("dart", "is_empty"): PAIR,
    ("obs", "fully_stitched"): HOOK,
    ("obs", "pid"): "tests build multi-process events with it, `net/tests/wire_golden.rs` among them",
    ("obs", "is_empty"): PAIR,
    ("svc", "local_addr"): HOOK,
    ("svc", "shutdown"): HOOK,
    ("domain", "owner_of_point"): "the reference implementation the decomposition proptests compare the ownership arithmetic against",
    ("fabric", "hop_distance"): "the reference the routing proptests compare route lengths against",
    ("fabric", "dims"): "the routing proptests bound route lengths by the torus diameter",
    ("sfc", "new"): "`MortonCurve`, the comparator of DESIGN section 5's Hilbert ablation",
    ("sfc", "len"): PAIR,
    ("sfc", "is_empty"): PAIR,
    ("util", "len"): PAIR,
    ("util", "is_empty"): PAIR,
    ("util", "forall"): "shared test support: every crate's property tests run through it",
    ("util", "choose"): "shared test support for the property tests",
    ("util", "from_static"): "shared test support: tests build constant payloads with it",
}

PUB_FN = re.compile(r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"C\")\s+)*fn\s+([A-Za-z_][A-Za-z0-9_]*)")
CFG_TEST = re.compile(r"^(\s*)#\[cfg\(test\)\]")
FENCE = re.compile(r"^\s*//[/!]\s?```(\w*)")


def lib_sources(crate):
    for path in sorted((crate / "src").rglob("*.rs")):
        if path.name == "tests.rs" or path.name == "main.rs" and path.parent == crate / "src":
            continue
        if (crate / "src" / "bin") in path.parents:
            continue
        yield path


def non_test_lines(path):
    """The file's lines with every `#[cfg(test)]` item left out."""
    out = []
    lines = path.read_text().splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        m = CFG_TEST.match(line)
        if m:
            indent = m.group(1)
            item = lines[i + 1] if i + 1 < len(lines) else ""
            if item.rstrip().endswith(";"):
                i += 2
                continue
            j = i + 1
            while j < len(lines) and lines[j] != indent + "}":
                j += 1
            i = j + 1
            continue
        out.append(line)
        i += 1
    return out


def code_text(path):
    """What a file says as code: comments dropped, doctest fences kept."""
    keep = []
    for line, doctest in doc_fences(path):
        if doctest:
            keep.append(re.sub(r"^\s*//[/!]", "", line))
        else:
            keep.append(line.split("//", 1)[0])
    return "\n".join(keep)


def doc_fences(path):
    """Each line of a file, and whether it is inside a doctest fence."""
    fence = None
    for line in path.read_text().splitlines():
        m = FENCE.match(line)
        if m:
            fence = None if fence is not None else m.group(1)
            continue
        yield line, fence in ("", "rust", "no_run", "ignore")


def outside_words(crate):
    """Every identifier named outside `crate`'s library code."""
    files = []
    for other in crates():
        if other == crate:
            lib = set(lib_sources(other))
            files += [p for p in (other / "src").rglob("*.rs") if p not in lib and p.name != "tests.rs"]
            files += list((other / "tests").rglob("*.rs")) if (other / "tests").exists() else []
        else:
            files += list(other.rglob("*.rs"))
    for extra in ("tests", "examples", "benchmark/src"):
        files += list((ROOT / extra).rglob("*.rs"))
    words = set()
    for path in files:
        words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", code_text(path)))
    # Doctests in the crate's own sources are another crate too.
    for path in lib_sources(crate):
        for line, doctest in doc_fences(path):
            if doctest:
                words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", line))
    return words


def crates():
    return [c for c in sorted((ROOT / "crates").iterdir()) if (c / "Cargo.toml").exists()]


def pub_fns(crate):
    for path in lib_sources(crate):
        for line in non_test_lines(path):
            m = PUB_FN.match(line)
            if m:
                yield path, m.group(1)


def count():
    names = {name for crate in crates() for _, name in pub_fns(crate)}
    lines = 0
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")):
        if path.name != "tests.rs":
            text = path.read_text().splitlines()
            tests = (i for i in range(len(text) - 1)
                     if CFG_TEST.match(text[i]) and text[i + 1].lstrip().startswith("mod tests {"))
            lines += next(tests, len(text))
    print(f"pub-surface: {len(names)} distinct pub fn names, {lines} non-test lines under crates/*/src")


PUB_USE = re.compile(r"^\s*pub(\([a-z]+\))?\s+use\b")


def program_words():
    """Every identifier a non-test line names: library and bin code
    outside `#[cfg(test)]`, examples and `benchmark/src`, with comments,
    `pub use` lines and the name in each `fn` definition left out."""
    files = [p for p in ROOT.glob("crates/*/src/**/*.rs") if p.name != "tests.rs"]
    files += [p for d in ("examples", "benchmark/src") for p in (ROOT / d).rglob("*.rs")]
    words = set()
    for path in files:
        in_use = False
        for line in non_test_lines(path):
            code = line.split("//", 1)[0]
            if in_use or PUB_USE.match(code):
                in_use = not code.rstrip().endswith(";")
                continue
            code = re.sub(r"\bfn\s+[A-Za-z_][A-Za-z0-9_]*", "", code)
            words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", code))
    return words


def check():
    flagged = []
    for crate in crates():
        words = outside_words(crate)
        for path, name in pub_fns(crate):
            if name not in words and (crate.name, name) not in ALLOW:
                flagged.append(f"{path.relative_to(ROOT)}: pub fn {name}: named by no other crate: make it pub(crate)")
    used = program_words()
    for crate in crates():
        for path, name in pub_fns(crate):
            if name not in used and (crate.name, name) not in ALLOW:
                flagged.append(f"{path.relative_to(ROOT)}: pub fn {name}: no program line names it: delete it with its tests")
    print("pub-surface allow-list:")
    for (c, n), why in sorted(ALLOW.items()):
        print(f"  {c}::{n}: {why}")
    for line in flagged:
        print(line)
    if flagged:
        print(f"{len(flagged)} pub fn(s) flagged")
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--count"]:
        count()
        sys.exit(0)
    sys.exit(check())
