#!/usr/bin/env python3
"""Non-test line counts of the workspace crates' sources (`crates/*/src`).

A file's non-test lines are the lines above its first column-0
`#[cfg(test)]`, or all of its lines when it has none. A file that is a test
module as a whole (declared `#[cfg(test)] mod name;`, such as
`service/src/net/wire_tests.rs`) is left out.

Usage: python3 scripts/nontest_lines.py [--summary] [REPO_ROOT]

Prints one line per file, then one per crate, then the total; `--summary`
prints only the crate lines and the total.
"""

import re
import sys
from pathlib import Path

CFG_TEST = "#[cfg(test)]"
MOD_DECL = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")


def test_module_files(path, lines):
    """Files of the modules `path` declares as `#[cfg(test)] mod name;`."""
    # `lib.rs`, `main.rs` and `mod.rs` declare siblings; `x.rs` declares
    # files under `x/`.
    if path.name in ("lib.rs", "main.rs", "mod.rs"):
        base = path.parent
    else:
        base = path.parent / path.stem
    files = []
    for index, line in enumerate(lines):
        if line.strip() != CFG_TEST:
            continue
        # The declaration follows the attribute, possibly after others.
        for next_line in lines[index + 1 :]:
            if next_line.strip().startswith("#["):
                continue
            match = MOD_DECL.match(next_line)
            if match:
                name = match.group(1)
                files += [base / f"{name}.rs", base / name / "mod.rs"]
            break
    return files


def count(root):
    """`{crate: {file: non-test lines}}` over `root/crates/*/src`."""
    sources = sorted(root.glob("crates/*/src/**/*.rs"))
    texts = {path: path.read_text().splitlines() for path in sources}
    excluded = set()
    for path, lines in texts.items():
        excluded.update(test_module_files(path, lines))
    crates = {}
    for path, lines in texts.items():
        if path in excluded:
            continue
        nontest = next(
            (index for index, line in enumerate(lines) if line.startswith(CFG_TEST)),
            len(lines),
        )
        crate = path.relative_to(root / "crates").parts[0]
        crates.setdefault(crate, {})[path.relative_to(root)] = nontest
    return crates


def main(argv):
    summary = "--summary" in argv
    args = [arg for arg in argv if arg != "--summary"]
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    crates = count(root)
    if not summary:
        for files in crates.values():
            for path, lines in files.items():
                print(f"{lines:6} {path}")
    total = 0
    for crate, files in crates.items():
        lines = sum(files.values())
        total += lines
        print(f"{lines:6} {crate}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main(sys.argv[1:])
