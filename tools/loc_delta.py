#!/usr/bin/env python3
"""Code lines added, removed and net between two commits, under src/ and bench/.

Usage: tools/loc_delta.py BASE [HEAD]

HEAD defaults to HEAD. Blank lines and comment-only lines do not count: a line
counts when it holds anything outside a comment. C and C++ comments (// and
/* */, tracked across lines) are recognised in .h/.cc/.cpp/.c/.inc files, and
`#` comments in Python, CMake and shell files. The diff itself is git's, so a
line counts as added or removed exactly when `git diff BASE HEAD` shows it so.
Prints one row per directory and the totals.
"""

import collections
import os
import re
import subprocess
import sys

PATHS = ("src", "bench")
C_LIKE = {".h", ".hh", ".hpp", ".c", ".cc", ".cpp", ".inc"}
HASH_COMMENTS = {".py", ".cmake", ".sh", ".txt"}
HUNK = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


def git(*args):
    return subprocess.run(("git",) + args, check=True, capture_output=True, text=True,
                          errors="replace").stdout


def file_at(rev, path):
    if path is None:
        return ""
    return git("show", f"{rev}:{path}")


def c_code_lines(text):
    """1-based numbers of the lines of C/C++ `text` holding code."""
    code = set()
    in_block = False
    for number, line in enumerate(text.split("\n"), start=1):
        i = 0
        has_code = False
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    break
                in_block = False
                i = end + 2
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            elif line[i] in "\"'":
                # Skip the literal so comment markers inside it do not count.
                quote = line[i]
                has_code = True
                i += 1
                while i < len(line) and line[i] != quote:
                    i += 2 if line[i] == "\\" else 1
                i += 1
            else:
                has_code |= not line[i].isspace()
                i += 1
        if has_code:
            code.add(number)
    return code


def code_lines(path, text):
    ext = os.path.splitext(path)[1]
    if ext in C_LIKE:
        return c_code_lines(text)
    lines = text.split("\n")
    if ext in HASH_COMMENTS or os.path.basename(path) == "CMakeLists.txt":
        return {n for n, line in enumerate(lines, start=1)
                if line.strip() and not line.strip().startswith("#")}
    return {n for n, line in enumerate(lines, start=1) if line.strip()}


def main(argv):
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    base = argv[1]
    head = argv[2] if len(argv) == 3 else "HEAD"
    diff = git("diff", "-U0", "--no-color", "--no-ext-diff", base, head, "--", *PATHS)
    added = collections.Counter()
    removed = collections.Counter()
    old_code = new_code = set()
    directory = None
    in_header = False  # between "diff --git" and a file's first hunk
    for line in diff.split("\n"):
        if line.startswith("diff --git "):
            in_header = True
            old_path = new_path = None
        elif in_header and line.startswith("--- "):
            old_path = None if line == "--- /dev/null" else line[6:]
        elif in_header and line.startswith("+++ "):
            new_path = None if line == "+++ /dev/null" else line[6:]
            shown = new_path or old_path
            directory = os.path.dirname(shown)
            old_code = code_lines(shown, file_at(base, old_path))
            new_code = code_lines(shown, file_at(head, new_path))
        elif line.startswith("@@"):
            in_header = False
            match = HUNK.match(line)
            old_line, new_line = int(match.group(1)), int(match.group(3))
        elif in_header:
            continue
        elif line.startswith("-"):
            removed[directory] += old_line in old_code
            old_line += 1
        elif line.startswith("+"):
            added[directory] += new_line in new_code
            new_line += 1
    print(f"code lines under {', '.join(p + '/' for p in PATHS)}: {base}..{head} "
          "(blank and comment-only lines excluded)")
    print(f"{'directory':<24} {'added':>8} {'removed':>8} {'net':>8}")
    for directory in sorted(set(added) | set(removed)):
        a, r = added[directory], removed[directory]
        print(f"{directory:<24} {f'+{a}':>8} {f'-{r}':>8} {a - r:>+8}")
    a, r = sum(added.values()), sum(removed.values())
    print(f"{'total':<24} {f'+{a}':>8} {f'-{r}':>8} {a - r:>+8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
