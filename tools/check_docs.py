#!/usr/bin/env python3
"""Documentation consistency gate.

Three checks, run over README.md and docs/*.md:

1. Relative markdown links must resolve to an existing file or directory
   (anchors and external http(s)/mailto links are skipped).
2. Environment variables must be documented and real: the set of
   TESSERACT_* names appearing in the markdown must equal the set of
   TESSERACT_* string literals in src/ (the variables the code actually
   reads). A variable documented but never read, or read but never
   documented, fails the build.
3. Metric names must be documented and real, both directions. Source ground
   truth is (a) quoted literals shaped like metric names (runtime.*, comm.*,
   layer.*, ...) and (b) `// metric: <name>` annotations next to sites that
   assemble names at runtime; annotations may use `<placeholder>` segments.
   Doc ground truth is backtick code spans shaped like metric names, which
   may use `<placeholder>` segments and `{a,b}` alternation to document a
   family in one row. Every source metric must match a documented token, and
   every documented token must correspond to a real source metric.

4. CLI subcommands must be documented and real, both directions. Source
   ground truth is the dispatch comparison `cmd == "<sub>"` in each
   tools/tsr_*.cpp; doc ground truth is `tsr_<tool> <word>` occurrences
   inside backtick code spans and fenced code blocks (prose mentions do not
   count). A subcommand shipped but never shown in a doc, or shown in a doc
   but not dispatched by the tool, fails the build.

Exit status 0 = clean, 1 = findings (each printed as file:line: message).
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# [text](target) — excluding images' leading '!' does not matter for
# existence checking, so match both. Inline code spans are stripped first.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
ENV_RE = re.compile(r"TESSERACT_[A-Z0-9_]+")
# The code's ground truth: quoted literals only, so CMake variables and
# prose prefixes like "TESSERACT_FAULT_" in comments do not count.
SRC_ENV_RE = re.compile(r'"(TESSERACT_[A-Z0-9_]+)"')

# ---- Metric-name cross-check ------------------------------------------------
# Name shapes the instrumentation uses (see docs/observability.md). A final
# [a-z0-9_] excludes partial prefixes like the "comm." literal the
# communicator concatenates from.
METRIC_PREFIX = r"(?:runtime|comm|layer|fault|sim|train|pipeline|obs|kernel)"
SRC_METRIC_RE = re.compile(rf'"({METRIC_PREFIX}\.[a-z0-9_.]*[a-z0-9_])"')
# Sites that assemble a metric name at runtime declare the family next to the
# code: `// metric: comm.<op>.sim_seconds`.
ANNOTATION_RE = re.compile(
    rf"//\s*metric:\s*({METRIC_PREFIX}\.[a-z0-9_.<>]*[a-z0-9_>])\s*$"
)
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
DOC_METRIC_RE = re.compile(rf"{METRIC_PREFIX}\.[a-z0-9_.<>{{}},]*[a-z0-9_>}}]")
# Backticked file names (fault.hpp) and span names are not metric names.
NON_METRIC_SUFFIXES = (".hpp", ".cpp", ".md", ".py", ".json", ".txt", ".html")


def expand_braces(token: str):
    """Expands `{a,b}` alternation: one doc row covers a family of names."""
    m = re.search(r"\{([^{}]*)\}", token)
    if not m:
        return [token]
    out = []
    for alt in m.group(1).split(","):
        out += expand_braces(token[: m.start()] + alt + token[m.end() :])
    return out


def token_regex(token: str) -> "re.Pattern":
    """Compiles a doc/annotation token: `<placeholder>` matches one segment."""
    pattern = "".join(
        "[a-z0-9_]+" if part.startswith("<") else re.escape(part)
        for part in re.split(r"(<[a-z0-9_]+>)", token)
    )
    return re.compile(pattern + r"\Z")


def metrics_in_src():
    """(literals, annotations): each maps name -> first (file, line)."""
    literals, annotations = {}, {}
    for src in sorted((REPO / "src").rglob("*")):
        if src.suffix not in (".cpp", ".hpp"):
            continue
        for lineno, line in enumerate(src.read_text().splitlines(), start=1):
            for m in ANNOTATION_RE.finditer(line):
                annotations.setdefault(m.group(1), (src, lineno))
            if "//" in line and "metric:" in line:
                continue  # annotation or prose comment, not a recording site
            for name in SRC_METRIC_RE.findall(line):
                if not name.endswith(NON_METRIC_SUFFIXES):
                    literals.setdefault(name, (src, lineno))
    return literals, annotations


def metrics_in_docs():
    """Backtick code spans shaped like metric names -> first (file, line)."""
    found = {}
    for md in markdown_files():
        for lineno, line in enumerate(md.read_text().splitlines(), start=1):
            for span in CODE_SPAN_RE.findall(line):
                if not DOC_METRIC_RE.fullmatch(span):
                    continue
                if span.endswith(NON_METRIC_SUFFIXES):
                    continue
                for token in expand_braces(span):
                    found.setdefault(token, (md, lineno))
    return found


def check_metrics(errors: list):
    literals, annotations = metrics_in_src()
    doc_tokens = metrics_in_docs()
    doc_patterns = {tok: token_regex(tok) for tok in doc_tokens}

    # Source -> docs: every recorded name must match some documented token.
    for name in sorted(literals):
        if any(p.fullmatch(name) for p in doc_patterns.values()):
            continue
        src, lineno = literals[name]
        errors.append(
            f"{src.relative_to(REPO)}:{lineno}: metric {name} is recorded "
            f"but not documented in README.md or docs/"
        )
    # Annotated families must be documented verbatim (same placeholder form).
    for name in sorted(set(annotations) - set(doc_tokens)):
        src, lineno = annotations[name]
        errors.append(
            f"{src.relative_to(REPO)}:{lineno}: metric family {name} is "
            f"annotated in source but not documented verbatim in docs"
        )
    # Docs -> source: every documented token must name something real —
    # a recorded literal (possibly via placeholders) or an annotated family.
    annotation_patterns = [token_regex(a) for a in annotations]
    for token in sorted(doc_tokens):
        if token in annotations:
            continue
        if any(p.fullmatch(token) for p in annotation_patterns):
            continue
        if any(doc_patterns[token].fullmatch(name) for name in literals):
            continue
        md, lineno = doc_tokens[token]
        errors.append(
            f"{md.relative_to(REPO)}:{lineno}: metric {token} is documented "
            f"but never recorded by the code"
        )


# ---- CLI subcommand cross-check ---------------------------------------------
# Every tool dispatches with the same idiom: `if (cmd == "plan") ...`. That
# literal comparison is the source ground truth for its subcommand set.
SRC_SUBCMD_RE = re.compile(r'cmd\s*==\s*"([a-z][a-z_-]*)"')
# A usage is the tool name followed by one lowercase word (the subcommand);
# flags (leading '-') and file operands (containing '.') never match.
DOC_TOOL_USE_RE = re.compile(r"\b(tsr_[a-z_]+)\s+([a-z][a-z_-]*)\b")


def cli_subcommands_in_src():
    """tool name -> {subcommand: (file, line)} from tools/tsr_*.cpp."""
    tools = {}
    for src in sorted((REPO / "tools").glob("tsr_*.cpp")):
        subs = {}
        for lineno, line in enumerate(src.read_text().splitlines(), start=1):
            for sub in SRC_SUBCMD_RE.findall(line):
                subs.setdefault(sub, (src, lineno))
        tools[src.stem] = subs
    return tools


def cli_uses_in_docs():
    """(tool, subcommand) -> first (file, line): spans + fenced blocks."""
    found = {}
    for md in markdown_files():
        in_fence = False
        for lineno, line in enumerate(md.read_text().splitlines(), start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            regions = [line] if in_fence else CODE_SPAN_RE.findall(line)
            for region in regions:
                for tool, sub in DOC_TOOL_USE_RE.findall(region):
                    found.setdefault((tool, sub), (md, lineno))
    return found


def check_cli(errors: list):
    tools = cli_subcommands_in_src()
    doc_uses = cli_uses_in_docs()
    # Source -> docs: every shipped subcommand must be shown at least once.
    for tool, subs in sorted(tools.items()):
        for sub, (src, lineno) in sorted(subs.items()):
            if (tool, sub) not in doc_uses:
                errors.append(
                    f"{src.relative_to(REPO)}:{lineno}: subcommand "
                    f"`{tool} {sub}` exists but no doc code span or fenced "
                    f"block shows it"
                )
    # Docs -> source: every shown usage must be a real tool + subcommand.
    for (tool, sub), (md, lineno) in sorted(doc_uses.items()):
        if tool not in tools:
            errors.append(
                f"{md.relative_to(REPO)}:{lineno}: `{tool}` is shown as a "
                f"command but tools/{tool}.cpp does not exist"
            )
        elif sub not in tools[tool]:
            errors.append(
                f"{md.relative_to(REPO)}:{lineno}: `{tool} {sub}` is shown "
                f"but {tool} dispatches no such subcommand"
            )


def markdown_files():
    files = [REPO / "README.md"]
    files += sorted((REPO / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def check_links(md: Path, errors: list):
    for lineno, line in enumerate(md.read_text().splitlines(), start=1):
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                errors.append(
                    f"{md.relative_to(REPO)}:{lineno}: broken link: {target}"
                )


def env_vars_in_docs():
    found = {}
    for md in markdown_files():
        for lineno, line in enumerate(md.read_text().splitlines(), start=1):
            for var in ENV_RE.findall(line):
                # "TESSERACT_FAULT_*"-style family references are prose, not
                # variable names (the greedy match leaves the underscore on).
                if var.endswith("_"):
                    continue
                found.setdefault(var, (md, lineno))
    return found


def env_vars_in_src():
    found = {}
    roots = [REPO / "src", REPO / "tools", REPO / "bench"]
    for src in sorted(p for root in roots for p in root.rglob("*")):
        if src.suffix not in (".cpp", ".hpp"):
            continue
        for lineno, line in enumerate(src.read_text().splitlines(), start=1):
            for var in SRC_ENV_RE.findall(line):
                found.setdefault(var, (src, lineno))
    return found


def main() -> int:
    errors = []
    mds = markdown_files()
    if len(mds) < 2:
        errors.append("expected README.md plus docs/*.md, found almost none")

    for md in mds:
        check_links(md, errors)

    check_metrics(errors)
    check_cli(errors)

    docs_env = env_vars_in_docs()
    src_env = env_vars_in_src()
    for var in sorted(set(docs_env) - set(src_env)):
        md, lineno = docs_env[var]
        errors.append(
            f"{md.relative_to(REPO)}:{lineno}: {var} is documented but no "
            f"source file reads it"
        )
    for var in sorted(set(src_env) - set(docs_env)):
        src, lineno = src_env[var]
        errors.append(
            f"{src.relative_to(REPO)}:{lineno}: {var} is read by the code "
            f"but documented nowhere in README.md or docs/"
        )

    for e in errors:
        print(e)
    if not errors:
        literals, annotations = metrics_in_src()
        n_subs = sum(len(s) for s in cli_subcommands_in_src().values())
        print(
            f"docs check clean: {len(mds)} markdown files, "
            f"{len(src_env)} environment variables, "
            f"{len(literals) + len(annotations)} metric names and "
            f"{n_subs} CLI subcommands cross-checked"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
