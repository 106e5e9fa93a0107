#!/usr/bin/env python3
"""Counts the size of the design: the numbers a simplicity change moves.

    python3 .github/count-design.py            # the tree it sits in
    python3 .github/count-design.py ROOT       # another checkout
    python3 .github/count-design.py OLD NEW    # a before -> after table

Counts, over the `.rs` files under `crates/` and `src/` (tracked by git
where ROOT is a git checkout, every such file outside `target/` otherwise):

- lines: every line of those files;
- code lines: lines that are not blank, not a `//` comment, not in a
  `tests/` or `benches/` directory, not inside a `#[cfg(test)]` item and
  not in a file that a `#[cfg(test)] mod name;` declares;
- `pub` lines and `pub(crate)` / `pub(super)` lines among the code lines;
- code lines per area: each crate (`crates/NAME`, and `src` for the
  umbrella) and the accountability engine (`crates/peerreview/src/engine`);
- `#[test]` functions, lines of `.github/reachability-allowlist`, crates
  (`Cargo.toml` files under `crates/`) and the fields of the accountability
  engine struct.

It only reads files and always exits 0.
"""

import os
import re
import subprocess
import sys

ENGINE_STRUCT = "pub struct AccountabilityEngine<"
ENGINE_DIR = "crates/peerreview/src/engine/"


def areas(path):
    """The areas whose code lines a file counts towards."""
    parts = path.split("/")
    crate = "/".join(parts[:2]) if parts[0] == "crates" else parts[0]
    return [crate] + ([ENGINE_DIR.rstrip("/")] if path.startswith(ENGINE_DIR) else [])


def rust_files(root):
    try:
        out = subprocess.run(
            ["git", "-C", root, "ls-files", "crates/*.rs", "src/*.rs"],
            capture_output=True, text=True, check=True,
        ).stdout
        files = out.split()
    except (OSError, subprocess.CalledProcessError):
        files = []
    if not files:
        for top in ("crates", "src"):
            for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
                dirnames[:] = [d for d in dirnames if d != "target"]
                files += [os.path.relpath(os.path.join(dirpath, f), root)
                          for f in filenames if f.endswith(".rs")]
    return sorted(files)


def code_only(lines):
    """Each line with comments and the insides of string and char literals
    removed, so braces can be counted. Tracks block comments and strings
    across lines."""
    out = []
    block = 0          # block comment depth
    string = None      # None, '"', or the closing '"###' of a raw string
    for line in lines:
        kept = []
        i = 0
        while i < len(line):
            c = line[i]
            if block:
                if line.startswith("*/", i):
                    block -= 1
                    i += 2
                elif line.startswith("/*", i):
                    block += 1
                    i += 2
                else:
                    i += 1
            elif string == '"':
                if c == "\\":
                    i += 2
                elif c == '"':
                    string = None
                    i += 1
                else:
                    i += 1
            elif string:
                if line.startswith(string, i):
                    i += len(string)
                    string = None
                else:
                    i += 1
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                block += 1
                i += 2
            elif c == '"':
                string = '"'
                kept.append('""')
                i += 1
            elif (m := re.match(r'b?r(#*)"', line[i:])) and (i == 0 or not (line[i - 1].isalnum() or line[i - 1] == "_")):
                string = '"' + m.group(1)
                kept.append('""')
                i += len(m.group(0))
            elif (m := re.match(r"'(\\.[^']*|[^\\'])'", line[i:])):
                kept.append("' '")
                i += len(m.group(0))
            else:
                kept.append(c)
                i += 1
        out.append("".join(kept))
    return out


def test_spans(code):
    """Line indices inside `#[cfg(test)]` items, and the names of modules
    that a `#[cfg(test)] mod name;` declares."""
    skip = set()
    test_mods = []
    i = 0
    while i < len(code):
        if code[i].strip() != "#[cfg(test)]":
            i += 1
            continue
        start = i
        i += 1
        while i < len(code) and (code[i].strip().startswith("#[") or not code[i].strip()):
            i += 1
        if i >= len(code):
            break
        item = code[i]
        if "{" not in item and item.rstrip().endswith(";"):
            m = re.match(r"\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;", item)
            if m:
                test_mods.append(m.group(1))
            skip.update(range(start, i + 1))
            i += 1
            continue
        depth = 0
        opened = False
        j = i
        while j < len(code):
            depth += code[j].count("{") - code[j].count("}")
            opened = opened or "{" in code[j]
            if opened and depth <= 0:
                break
            if not opened and code[j].rstrip().endswith(";"):
                break
            j += 1
        skip.update(range(start, j + 1))
        i = j + 1
    return skip, test_mods


def module_file(path, name):
    """The file a `mod name;` in `path` refers to."""
    base = os.path.dirname(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    if stem not in ("lib", "main", "mod"):
        base = os.path.join(base, stem)
    return [os.path.join(base, name + ".rs"), os.path.join(base, name, "mod.rs")]


def count(root):
    files = rust_files(root)
    texts = {}
    for f in files:
        with open(os.path.join(root, f), encoding="utf-8") as fh:
            texts[f] = fh.read().splitlines()
    test_files = {f for f in files if re.search(r"(^|/)(tests|benches)/", f)}
    spans = {}
    for f in files:
        spans[f] = test_spans(code_only(texts[f]))
    # Files declared by `#[cfg(test)] mod name;` are test code, and so is
    # every module below them.
    changed = True
    while changed:
        changed = False
        for f in files:
            if f in test_files:
                continue
            for name in spans[f][1]:
                for candidate in module_file(f, name):
                    if candidate in texts and candidate not in test_files:
                        test_files.add(candidate)
                        changed = True
    for f in sorted(test_files):
        for name in re.findall(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;", "\n".join(texts[f]), re.M):
            for candidate in module_file(f, name):
                if candidate in texts:
                    test_files.add(candidate)

    totals = dict.fromkeys(
        ["lines", "code lines", "pub lines", "pub(crate)/pub(super) lines",
         "#[test] functions", "allowlist lines", "crates", "engine fields"], 0)
    per_area = {}
    for f in files:
        lines = texts[f]
        totals["lines"] += len(lines)
        totals["#[test] functions"] += sum(1 for l in lines if l.strip() == "#[test]")
        if f in test_files:
            continue
        skip = spans[f][0]
        for n, line in enumerate(lines):
            s = line.strip()
            if n in skip or not s or s.startswith("//"):
                continue
            totals["code lines"] += 1
            for area in areas(f):
                per_area[area] = per_area.get(area, 0) + 1
            if re.match(r"pub\((crate|super)\)\s", s):
                totals["pub(crate)/pub(super) lines"] += 1
            elif re.match(r"pub\s", s):
                totals["pub lines"] += 1
        for n, line in enumerate(lines):
            if line.startswith(ENGINE_STRUCT):
                depth = 0
                for field in lines[n + 1:]:
                    s = field.strip()
                    if s.startswith("//"):
                        continue
                    if s == "}" and depth == 0:
                        break
                    if depth == 0 and re.match(r"(pub(\([^)]*\))?\s+)?\w+\s*:", s):
                        totals["engine fields"] += 1
                    depth += s.count("{") + s.count("(") - s.count("}") - s.count(")")
    allowlist = os.path.join(root, ".github", "reachability-allowlist")
    if os.path.exists(allowlist):
        with open(allowlist, encoding="utf-8") as fh:
            totals["allowlist lines"] = sum(1 for l in fh if l.strip())
    crates_dir = os.path.join(root, "crates")
    if os.path.isdir(crates_dir):
        totals["crates"] = sum(
            1 for d in os.listdir(crates_dir)
            if os.path.exists(os.path.join(crates_dir, d, "Cargo.toml")))
    for area in sorted(per_area):
        totals[f"code lines: {area}"] = per_area[area]
    return totals


def main(args):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    roots = args or [here]
    counts = [count(r) for r in roots]
    keys = list(counts[0])
    keys += [k for c in counts[1:] for k in c if k not in keys]
    width = max(len(k) for k in keys)
    if len(counts) == 1:
        for key, value in counts[0].items():
            print(f"{key:<{width}}  {value}")
    else:
        print(f"| metric | {' | '.join(roots)} |")
        print("|---" * (len(roots) + 1) + "|")
        for key in keys:
            print(f"| {key} | " + " | ".join(str(c.get(key, 0)) for c in counts) + " |")
    return 0


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except Exception as e:  # informational: never fail the build
        print(f"count-design: {e}")
    sys.exit(0)
