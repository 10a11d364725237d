#!/usr/bin/env python3
"""Documentation consistency checks, run by the CI docs-check job.

Five passes over README.md and docs/*.md:

1. Relative markdown links resolve to files that exist.
2. Every --flag used in a documented command line for one of this repo's
   binaries is actually parsed by that binary's source.
3. Every flag parsed by examples/krcore_cli.cpp and
   examples/krcore_server.cpp is mentioned (as ``--flag``) somewhere in
   the documentation, so new flags cannot land undocumented.
4. Every ``bench_*`` program a document names has a ``bench/<name>.cc``
   source, and every ``BENCH_*.json`` file it names exists at the repo
   root, so prose cannot outlive a deleted harness or baseline.
5. Every backticked ``Type::member`` reference names a struct, class or
   enum declared under src/ and a member declared in its body, so prose
   cannot outlive a deleted option or method (``std::`` names are
   skipped).

Exit status is non-zero iff any check fails; findings are printed one per
line as ``file: message``.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOC_FILES = ["README.md"] + sorted(
    os.path.join("docs", f)
    for f in os.listdir(os.path.join(REPO, "docs"))
    if f.endswith(".md")
)

# --flag tokens are extracted only from command lines that invoke one of
# these binaries, so flags of external tools (cmake, ctest, clang-format)
# in the same code blocks are never inspected.
FLAG_SOURCES = {
    "krcore_cli": ["examples/krcore_cli.cpp"],
    "krcore_server": ["examples/krcore_server.cpp"],
    "snapshot_tool": ["tools/snapshot_tool.cc"],
}
# Bench binaries parse their own flags plus the shared experiment
# harness flags (--scale/--seed/--threads/--timeout/--quick/--csv).
BENCH_COMMON = ["src/bench_support/experiment.cc"]

# Binaries whose full flag surface must appear in the docs (pass 3).
MUST_DOCUMENT = ["krcore_cli", "krcore_server"]

PARSE_RE = re.compile(
    r'options\s*\.\s*(?:Has|GetString|GetInt|GetUint32|GetDouble|GetBool)\s*\(\s*"([A-Za-z0-9_]+)"'
)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"--([A-Za-z][A-Za-z0-9_]*)")
BENCH_PROGRAM_RE = re.compile(r"\b(bench_[A-Za-z0-9_]+)")
BENCH_JSON_RE = re.compile(r"\b(BENCH_[A-Za-z0-9_]+\.json)")
MEMBER_REF_RE = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*)::([A-Za-z_][A-Za-z0-9_]*)")
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def parsed_flags(rel_paths):
    flags = set()
    for rel in rel_paths:
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            flags.update(PARSE_RE.findall(f.read()))
    return flags


def binary_flag_table():
    table = {}
    for name, sources in FLAG_SOURCES.items():
        table[name] = parsed_flags(sources)
    bench_dir = os.path.join(REPO, "bench")
    common = parsed_flags(BENCH_COMMON)
    for f in os.listdir(bench_dir):
        if f.endswith(".cc"):
            name = f[:-3]
            table[name] = parsed_flags([os.path.join("bench", f)]) | common
    return table


def check_links(doc, text, problems):
    base = os.path.dirname(os.path.join(REPO, doc))
    for target in LINK_RE.findall(text):
        if "://" in target or target.startswith(("#", "mailto:")):
            continue
        path = target.split("#", 1)[0]
        if path and not os.path.exists(os.path.join(base, path)):
            problems.append(f"{doc}: broken link -> {target}")


def check_bench_names(doc, text, problems):
    for name in sorted(set(BENCH_PROGRAM_RE.findall(text))):
        # src/bench_support is the harnesses' shared library, not a program.
        if os.path.isdir(os.path.join(REPO, "src", name)):
            continue
        if not os.path.exists(os.path.join(REPO, "bench", name + ".cc")):
            problems.append(f"{doc}: names {name}, but bench/{name}.cc "
                            f"does not exist")
    for name in sorted(set(BENCH_JSON_RE.findall(text))):
        if not os.path.exists(os.path.join(REPO, name)):
            problems.append(f"{doc}: names {name}, which is not at the "
                            f"repo root")


def source_texts():
    """Every header and source under src/, with comments stripped."""
    texts = []
    for root, _, files in os.walk(os.path.join(REPO, "src")):
        for f in sorted(files):
            if f.endswith((".h", ".cc")):
                with open(os.path.join(root, f), encoding="utf-8") as fh:
                    texts.append(COMMENT_RE.sub("", fh.read()))
    return texts


def type_bodies(name, texts):
    """The brace-delimited bodies of every struct/class/enum `name`
    definition in `texts` (forward declarations have none)."""
    decl = re.compile(r"\b(?:struct|class|enum)\s+" + re.escape(name) +
                      r"\b[^;{()]*\{")
    bodies = []
    for text in texts:
        for m in decl.finditer(text):
            depth, i = 1, m.end()
            while depth and i < len(text):
                depth += {"{": 1, "}": -1}.get(text[i], 0)
                i += 1
            bodies.append(text[m.end():i])
    return bodies


def check_member_refs(doc, text, texts, problems):
    for type_name, member in sorted(set(MEMBER_REF_RE.findall(text))):
        if type_name == "std":
            continue
        bodies = type_bodies(type_name, texts)
        if not bodies:
            problems.append(f"{doc}: names {type_name}::{member}, but src/ "
                            f"declares no type {type_name}")
        elif not any(re.search(r"\b" + re.escape(member) + r"\b", b)
                     for b in bodies):
            problems.append(f"{doc}: names {type_name}::{member}, but "
                            f"{type_name} declares no member {member}")


def command_lines(text):
    """Yields logical lines from fenced code blocks, with backslash
    continuations joined."""
    in_fence = False
    pending = ""
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            pending = ""
            continue
        if not in_fence:
            continue
        line = pending + stripped
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        if line:
            yield line


def check_documented_commands(doc, text, table, problems):
    for line in command_lines(text):
        tokens = line.split()
        binary = None
        flags = []
        for tok in tokens:
            name = os.path.basename(tok.split("=", 1)[0])
            if binary is None and name in table:
                binary = name
                continue
            if binary is not None:
                m = FLAG_RE.match(tok)
                if m:
                    flags.append(m.group(1))
        if binary is None:
            continue
        for flag in flags:
            if flag not in table[binary]:
                problems.append(
                    f"{doc}: documents --{flag} for {binary}, "
                    f"but {binary} does not parse it"
                )


def main():
    problems = []
    table = binary_flag_table()
    texts = source_texts()

    documented_flags = set()
    for doc in DOC_FILES:
        with open(os.path.join(REPO, doc), encoding="utf-8") as f:
            text = f.read()
        documented_flags.update(FLAG_RE.findall(text))
        check_links(doc, text, problems)
        check_documented_commands(doc, text, table, problems)
        check_bench_names(doc, text, problems)
        check_member_refs(doc, text, texts, problems)

    for binary in MUST_DOCUMENT:
        for flag in sorted(table[binary]):
            if flag not in documented_flags:
                problems.append(
                    f"{FLAG_SOURCES[binary][0]}: parses --{flag}, "
                    f"which no document mentions"
                )

    for p in problems:
        print(p)
    checked = ", ".join(DOC_FILES)
    if problems:
        print(f"docs-check: {len(problems)} problem(s) in {checked}")
        return 1
    print(f"docs-check: OK ({checked}; {len(table)} binaries cross-checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
