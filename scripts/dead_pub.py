#!/usr/bin/env python3
"""Public functions of the workspace crates that nothing but tests calls.

Lists every `pub fn` declared in the non-test part of `crates/*/src` whose
name occurs nowhere else in non-test code: `crates/*/src`, `examples/` and
the benchmark package's `benchmark/src`. Comments and string literals are
ignored, and so is a function's own `fn name` declaration. The scan is by
name, so a dead function that shares its name with a live one (`new`,
`len`) is not found; it never reports a function that has a caller.

A file's non-test part is what `scripts/nontest_lines.py` counts: the
lines above its first column-0 `#[cfg(test)]`, and nothing of a file that
is declared as a whole `#[cfg(test)] mod name;`.

Usage: python3 scripts/dead_pub.py [REPO_ROOT]

Prints one line per uncalled function, marked `allowed` when `ALLOWED`
names it, and exits 1 when any is not allowed or when an `ALLOWED` entry
names no uncalled function.
"""

import fnmatch
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from nontest_lines import CFG_TEST, test_module_files  # noqa: E402

# Uncalled on purpose, each with its reason. Keys are function names or
# `fnmatch` patterns over them; an entry that matches no uncalled function is
# stale and fails the scan too.
ALLOWED = {
    # Test entry points.
    "parse_*_options": "test entry point: `golden_cli` parses flag tables through `cli::parse_*_options` without running a command",
    "grid_arch": "test entry point: the bench crate's tests build grid architectures through it",
    "with_target_std_error": "test entry point: the early-stop goldens set the estimator's standard-error target through it",
    "ping": "test entry point: the TCP client's liveness request, which `net_round_trip` checks a connection with",
    # Oracle accessors.
    "conjugate": "oracle: first-principles Clifford conjugation, which the tableau simulator's tests check against",
    "frame_x": "oracle accessor: the frame simulator's tests read the X frame",
    "frame_z": "oracle accessor: the frame simulator's tests read the Z frame",
    "measurement_plane": "oracle accessor: the sampler oracle compares measurement planes",
    "is_deterministic_z": "oracle accessor: the tableau simulator's tests ask whether a Z measurement is deterministic",
    "num_components": "oracle accessor: the sampler oracle checks the fault table per component",
    "matching_weight": "oracle accessor: the exact decoder's tests compare matching weights",
    "from_xz": "oracle accessor: the Pauli tests check the (x, z) bit encoding round trip",
    # Test observation points.
    "memo_entries": "test observation point: the memo tests read the entry count of a scratch",
    "detector_fired": "test observation point: chunk tests read one detector bit of one shot",
    "from_shots": "test observation point: chunk tests build a chunk from per-shot detector lists",
    "disabled": "test observation point: `MemoConfig::disabled` gives the uncached reference decode",
    "validate_annotations": "test observation point: circuit tests check detector and observable annotations",
    "native_counts": "test observation point: the native decomposition's tests tally gates per instruction",
    "logical_clock_hz": "test observation point: the toolflow tests read the logical clock rate of `ResourceMetrics`",
    "is_trap": "test observation point: `NodeId`'s tests read the node kind",
    "is_junction": "test observation point: `NodeId`'s tests read the node kind",
    "as_junction": "test observation point: `NodeId`'s tests read the node kind",
    # Scheduled for deletion.
    "with_max_exact_defects": "kept until the exact decoder's cap is retired (ROADMAP item 1)",
}

DECL = re.compile(r"^\s*pub\s+(?:const\s+)?(?:unsafe\s+)?fn\s+([A-Za-z_]\w*)")
DEF_NAME = re.compile(r"\bfn\s+[A-Za-z_]\w*")
WORD = re.compile(r"[A-Za-z_]\w*")


def strip_comments_and_strings(text):
    """`text` with comments and string or char literals blanked out.

    Newlines are kept, so line numbers survive.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
        elif text.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    if text[i] == "\n":
                        out.append("\n")
                    i += 1
        elif (raw := re.match(r'b?r(#*)"', text[i:])) and (
            i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")
        ):
            close = '"' + raw.group(1)
            end = text.find(close, i + raw.end())
            end = n if end < 0 else end + len(close)
            out.append('""' + "\n" * text.count("\n", i, end))
            i = end
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('""' + "\n" * text.count("\n", i, j))
            i = j + 1
        elif c == "'" and (char := re.match(r"'(?:\\.[^']*|[^\\'])'", text[i:])):
            # A char literal; a lone `'` starts a lifetime.
            out.append("' '")
            i += char.end()
        else:
            out.append(c)
            i += 1
    return "".join(out)


def nontest_lines(path, excluded):
    """The non-test lines of one source file (none for a test module file)."""
    if path in excluded:
        return []
    lines = strip_comments_and_strings(path.read_text()).splitlines()
    cut = next(
        (index for index, line in enumerate(lines) if line.startswith(CFG_TEST)),
        len(lines),
    )
    return lines[:cut]


def sources(root):
    """`{path: non-test lines}` over the crates, the examples and the benchmark."""
    paths = []
    for pattern in ("crates/*/src/**/*.rs", "examples/**/*.rs", "benchmark/src/**/*.rs"):
        paths += sorted(root.glob(pattern))
    excluded = set()
    for path in paths:
        excluded.update(test_module_files(path, path.read_text().splitlines()))
    return {path: nontest_lines(path, excluded) for path in paths}


def uncalled(root):
    """`[(path, line, name)]` of the `pub fn`s whose name has no other use."""
    texts = sources(root)
    declared = []
    uses = {}
    for path, lines in texts.items():
        crate_source = path.relative_to(root).parts[0] == "crates"
        for number, line in enumerate(lines, 1):
            match = DECL.match(line)
            if match and crate_source:
                declared.append((path.relative_to(root), number, match.group(1)))
            for word in WORD.findall(DEF_NAME.sub("", line)):
                uses[word] = uses.get(word, 0) + 1
    return [entry for entry in declared if not uses.get(entry[2])]


def allowance(name):
    return next(
        (reason for pattern, reason in ALLOWED.items() if fnmatch.fnmatchcase(name, pattern)),
        None,
    )


def main(argv):
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    failures = 0
    names = []
    for path, line, name in uncalled(root):
        names.append(name)
        reason = allowance(name)
        if reason is None:
            failures += 1
            print(f"{path}:{line}: `{name}` has no caller outside tests")
        else:
            print(f"{path}:{line}: `{name}` allowed ({reason})")
    for pattern in ALLOWED:
        if not any(fnmatch.fnmatchcase(name, pattern) for name in names):
            failures += 1
            print(f"allowlist entry `{pattern}` matches no uncalled function; remove it")
    if failures:
        print(f"{failures} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
