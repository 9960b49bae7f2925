#!/usr/bin/env python3
"""Keep the documentation wired to the repo it describes.

Usage: check_docs.py [REPO_ROOT]

Checks:
  * every intra-repo markdown link (in *.md at the repo root and under
    docs/) resolves to an existing file — links rot silently otherwise;
  * every benchmark binary declared in bench/CMakeLists.txt has a row in
    docs/benchmarks.md — a bench without documentation is invisible;
  * every committed BENCH_*.json artifact at the repo root is referenced
    in docs/performance.md — an artifact nobody can interpret is dead
    weight, and the gates table is where its meaning lives;
  * every committed BENCH_<name>.json pairs with a declared bench_<name>
    binary in bench/CMakeLists.txt — an artifact whose generator is gone
    can never be regenerated and silently goes stale;
  * every `RepairOptions::<field>` named in docs/*.md, README.md, DESIGN.md
    or EXPERIMENTS.md is declared in src/repair/engine.hpp — a deleted knob
    must not live on in the documentation. CHANGES.md and ROADMAP.md are
    history and plans, so they may name removed fields;
  * every `SimOptions::<field>` named in the same files is declared in
    src/routing/simulator.hpp — the same rule for the simulator's options;
  * every `bench_<name>` named in the same files is declared in
    bench/CMakeLists.txt — a deleted bench must not live on either;
  * the backticked rule names of the fallback-rule table in
    docs/architecture.md and the reason literals of
    src/routing/delta_tree.cpp name the same set — a deleted rule must
    leave the table, and a new one must enter it;
  * the op table of docs/service.md and the ops RepairService dispatches
    (the `verb == "..."` literals of src/service/server.cpp) name the same
    set — the same rule for the wire protocol.

External links (http/https/mailto) and pure in-page anchors are skipped.
Exits 0 when everything resolves, 1 otherwise. Stdlib only: CI containers
have no extra packages.
"""

import os
import re
import sys

# [text](target) — excludes images' leading ! context on purpose (the
# target check is identical either way) and stops at the first ')'.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BENCH_DECL = re.compile(r"^\s*(?:acr_add_bench|add_executable)\((bench_\w+)")
OPTION_REF = re.compile(r"RepairOptions::(\w+)")
SIM_OPTION_REF = re.compile(r"SimOptions::(\w+)")
# A data member of the struct: `type name = default;` or `type name;`.
OPTION_DECL = re.compile(r"^\s+[\w:<>,*& ]+?[\s*&](\w+)\s*(?:=[^;]*)?;")
CURRENT_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
# A bench binary's name; not `.bench_build/`, e2ebench's build directory.
BENCH_REF = re.compile(r"(?<![\w.])(bench_\w+)")
# A fallback reason in delta_tree.cpp: every kebab-case string literal.
REASON_LITERAL = re.compile(r'"([a-z]+(?:-[a-z]+)+)"')
FALLBACK_TABLE_ANCHOR = "**Fallback rules.**"
# An op RepairService dispatches: `verb == "submit"` in server.cpp.
OP_LITERAL = re.compile(r'verb == "(\w+)"')
OP_TABLE_ANCHOR = "| op |"


def markdown_files(root):
    files = [entry for entry in sorted(os.listdir(root))
             if entry.endswith(".md")]
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        files.extend(os.path.join("docs", entry)
                     for entry in sorted(os.listdir(docs))
                     if entry.endswith(".md"))
    return files


def check_links(root):
    errors = []
    for relpath in markdown_files(root):
        path = os.path.join(root, relpath)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        for lineno, line in enumerate(text.split("\n"), start=1):
            for match in LINK.finditer(line):
                target = match.group(1)
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                target = target.split("#", 1)[0]
                if not target:
                    continue
                resolved = os.path.normpath(
                    os.path.join(root, os.path.dirname(relpath), target))
                if not os.path.exists(resolved):
                    errors.append("%s:%d: broken link %r"
                                  % (relpath, lineno, match.group(1)))
    return errors


def declared_benches(root):
    with open(os.path.join(root, "bench", "CMakeLists.txt"), "r",
              encoding="utf-8") as handle:
        return [m.group(1) for m in
                (BENCH_DECL.match(line) for line in handle) if m is not None]


def check_bench_coverage(root):
    errors = []
    declared = declared_benches(root)
    benchmarks_md = os.path.join(root, "docs", "benchmarks.md")
    with open(benchmarks_md, "r", encoding="utf-8") as handle:
        documented = handle.read()
    for name in declared:
        if name not in documented:
            errors.append("bench/CMakeLists.txt: %s has no row in "
                          "docs/benchmarks.md" % name)
    return errors


def check_artifact_coverage(root):
    errors = []
    performance_md = os.path.join(root, "docs", "performance.md")
    with open(performance_md, "r", encoding="utf-8") as handle:
        documented = handle.read()
    for entry in sorted(os.listdir(root)):
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            if entry not in documented:
                errors.append("%s is not referenced in docs/performance.md"
                              % entry)
    return errors


def check_artifact_pairing(root):
    errors = []
    declared = set(declared_benches(root))
    for entry in sorted(os.listdir(root)):
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            generator = "bench_" + entry[len("BENCH_"):-len(".json")]
            if generator not in declared:
                errors.append("%s has no generating %s in "
                              "bench/CMakeLists.txt" % (entry, generator))
    return errors


def declared_fields(root, header, struct):
    """Data members of `struct` as declared in the `header` path parts."""
    with open(os.path.join(root, *header), "r", encoding="utf-8") as handle:
        text = handle.read()
    body = text[text.index("struct %s {" % struct):]
    body = body[:body.index("\n};")]
    fields = set()
    for line in body.split("\n")[1:]:
        if line.strip().startswith("//"):
            continue
        match = OPTION_DECL.match(line)
        if match is not None:
            fields.add(match.group(1))
    return fields


def check_names(root, pattern, declared, message):
    """Flags every `pattern` match in the current docs whose first group is
    not in `declared`; `message` is formatted with the undeclared name."""
    errors = []
    files = [name for name in CURRENT_DOCS
             if os.path.exists(os.path.join(root, name))]
    files += [path for path in markdown_files(root)
              if path.startswith("docs" + os.sep)]
    for relpath in files:
        with open(os.path.join(root, relpath), "r", encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        for lineno, line in enumerate(lines, start=1):
            for match in pattern.finditer(line):
                if match.group(1) not in declared:
                    errors.append("%s:%d: %s" % (relpath, lineno,
                                                 message % match.group(1)))
    return errors


def check_repair_options(root):
    return check_names(root, OPTION_REF,
                       declared_fields(root, ("src", "repair", "engine.hpp"),
                                       "RepairOptions"),
                       "RepairOptions::%s is not declared in "
                       "src/repair/engine.hpp")


def check_sim_options(root):
    return check_names(root, SIM_OPTION_REF,
                       declared_fields(root,
                                       ("src", "routing", "simulator.hpp"),
                                       "SimOptions"),
                       "SimOptions::%s is not declared in "
                       "src/routing/simulator.hpp")


def table_names(root, relpath, anchor):
    """Backticked names in the first cell of each row of the first table
    that starts at or after the first line beginning with `anchor`."""
    with open(os.path.join(root, relpath), "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    start = next(i for i, line in enumerate(lines) if line.startswith(anchor))
    rows = []
    for line in lines[start:]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break  # the end of the table
    names = set()
    for row in rows[2:]:  # skip the header and its separator
        names.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    return names


def check_fallback_rules(root):
    with open(os.path.join(root, "src", "routing", "delta_tree.cpp"), "r",
              encoding="utf-8") as handle:
        reasons = set(REASON_LITERAL.findall(handle.read()))
    documented = table_names(root, os.path.join("docs", "architecture.md"),
                             FALLBACK_TABLE_ANCHOR)
    errors = ["docs/architecture.md: fallback rule `%s` is not a reason in "
              "src/routing/delta_tree.cpp" % rule
              for rule in sorted(documented - reasons)]
    errors += ["src/routing/delta_tree.cpp: reason \"%s\" has no row in the "
               "fallback-rule table of docs/architecture.md" % reason
               for reason in sorted(reasons - documented)]
    return errors


def check_service_ops(root):
    with open(os.path.join(root, "src", "service", "server.cpp"), "r",
              encoding="utf-8") as handle:
        ops = set(OP_LITERAL.findall(handle.read()))
    documented = table_names(root, os.path.join("docs", "service.md"),
                             OP_TABLE_ANCHOR)
    errors = ["docs/service.md: op `%s` is not dispatched by "
              "src/service/server.cpp" % op
              for op in sorted(documented - ops)]
    errors += ["src/service/server.cpp: op \"%s\" has no row in the op "
               "table of docs/service.md" % op
               for op in sorted(ops - documented)]
    return errors


def check_bench_refs(root):
    return check_names(root, BENCH_REF, set(declared_benches(root)),
                       "%s is not declared in bench/CMakeLists.txt")


def main(argv):
    root = os.path.abspath(argv[1]) if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    errors = (check_links(root) + check_bench_coverage(root)
              + check_artifact_coverage(root) + check_artifact_pairing(root)
              + check_repair_options(root) + check_sim_options(root)
              + check_bench_refs(root) + check_fallback_rules(root)
              + check_service_ops(root))
    for error in errors:
        sys.stderr.write("check_docs: %s\n" % error)
    if not errors:
        print("check_docs: OK (%d markdown files, links + bench + "
              "artifact coverage + artifact pairing + RepairOptions and "
              "SimOptions fields + bench names + fallback rules + "
              "service ops)"
              % len(markdown_files(root)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
