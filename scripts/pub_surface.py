#!/usr/bin/env python3
"""The public surface is what another crate uses.

Lists every `pub fn` under `crates/*/src` whose name no other crate
names: another crate's code or tests, an integration test, an example,
a bin target (`src/main.rs`, `src/bin/`), a doctest or `benchmark/src`.
Such a function is `pub(crate)` at most, and once narrowed the compiler
reports it if nothing in its own crate calls it either. Matching is by
name, so a name that any other crate uses keeps every function of that
name public: the check can miss a narrowable function, never flag a
used one.

Usage: scripts/pub_surface.py          fail (exit 1) on any flagged fn
       scripts/pub_surface.py --count  print the distinct `pub fn` names
           and the non-test line count: the lines before each file's
           `#[cfg(test)] mod tests {`, `tests.rs` left out
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Kept public with nothing outside naming them in code:
# - the partitioned global array's per-partition operations are the
#   paper's future-work extension (its Section VII), kept for the PGAS
#   work that builds on them;
# - `run_case_spec` is what the reproducer `insitu chaos` prints calls
#   from a pasted test, so another crate names it inside a string;
# - `resample`, `count_above` and `split_by_color` run nowhere but their
#   own eleven unit tests; they go in a change of their own (ROADMAP
#   item 18).
ALLOW = {
    ("core", "partition_of"),
    ("core", "write_local"),
    ("core", "read_at"),
    ("chaos", "run_case_spec"),
    ("core", "resample"),
    ("core", "count_above"),
    ("workflow", "split_by_color"),
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


def check():
    flagged = []
    for crate in crates():
        words = outside_words(crate)
        for path, name in pub_fns(crate):
            if name not in words and (crate.name, name) not in ALLOW:
                flagged.append(f"{path.relative_to(ROOT)}: pub fn {name}")
    print("pub-surface allow-list: " + ", ".join(f"{c}::{n}" for c, n in sorted(ALLOW)))
    for line in flagged:
        print(line)
    if flagged:
        print(f"{len(flagged)} pub fn(s) named by no other crate: make them pub(crate)")
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--count"]:
        count()
        sys.exit(0)
    sys.exit(check())
