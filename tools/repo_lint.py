#!/usr/bin/env python3
"""TQP repo-invariant linter: fast, AST-free checks for contracts that the
compiler (even clang -Wthread-safety) cannot express.

Rules
-----
naked-mutex          src/ must not name std::mutex / std::condition_variable /
                     std::lock_guard / std::unique_lock / std::scoped_lock (or
                     include <mutex> / <condition_variable>) outside
                     src/common/sync.h. Everything locks through the annotated
                     tqp::Mutex / MutexLock / CondVar wrappers so the clang
                     thread-safety build sees every acquisition.
submit-propagation   A query's ambient state travels as one
                     runtime::QueryContext. Every ThreadPool::Submit /
                     StepScheduler::Submit body must wrap its task through
                     QueryContext::Capture().Wrap(...) rather than by hand,
                     and QueryContext's Attach must attach all three TLS
                     pieces — query-memory scope (QueryScope::Attach),
                     cancellation token (CancellationToken::Attach), and
                     trace context (obs::TraceContext) — so work observes
                     its query's budget/cancel/trace no matter which worker
                     runs it.
env-int              Every getenv("TQP_*") outside src/common/env.cc must
                     either be a known string-valued knob (allowlist below) or
                     go through EnvInt64OrDefault, which bounds-checks and
                     warns instead of silently truncating like atoi.
fault-sites          The FaultSite enum (fault.h), the FaultSiteName spelling
                     table (fault.cc), the README's documented site list, and
                     kNumFaultSites must all agree, and every site must be
                     polled at at least one real call site.
substr-string-view   A std::string_view must not be initialized from
                     .substr(): substr on a std::string returns a temporary
                     that dies at the semicolon, leaving the view dangling.
build-artifacts      No build output may be committed: a file git would
                     commit (tracked, or untracked and not ignored) must not
                     be a CMakeCache.txt, an object file (*.o) or a Ninja
                     state file (.ninja_*). Build trees belong in ignored
                     directories (build/, build-*/).

Usage
-----
    python3 tools/repo_lint.py [--root DIR] [--check-anchors]

Exit status 0 when clean, 1 when any rule fired. --check-anchors additionally
requires the files the contract rules anchor on (thread_pool.cc, fault.h, ...)
to exist, so a rename cannot silently disable a rule; the CI and ctest
invocations pass it, fixture runs do not.
"""

import argparse
import fnmatch
import os
import re
import subprocess
import sys

# String-valued TQP_* environment knobs: these carry names/specs/paths, not
# integers, so EnvInt64OrDefault does not apply.
STRING_ENV_ALLOWLIST = {
    "TQP_FAULT_SPEC",  # fault-injection spec grammar
    "TQP_TRACE_FILE",  # trace output path
}

# Files every Submit wrapper / fault seam rule anchors on. --check-anchors
# makes their absence an error instead of a silent skip.
ANCHOR_FILES = [
    "src/common/fault.h",
    "src/common/fault.cc",
    "src/common/sync.h",
    "src/runtime/thread_pool.cc",
    "src/runtime/step_scheduler.cc",
    "src/runtime/query_context.h",
]

SOURCE_EXTS = (".h", ".cc", ".cpp")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def iter_source_files(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, names in os.walk(base):
            # Golden bad-code fixtures exist to *trigger* rules.
            dirnames[:] = [d for d in dirnames if d != "lint_fixtures"]
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def relpath(root, path):
    return os.path.relpath(path, root)


def strip_comments(text):
    """Blanks out // and /* */ comments and string literals, preserving line
    structure so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    state = None  # None | "line" | "block" | "str" | "char"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "char"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = None
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# ----------------------------------------------------------- naked-mutex --
NAKED_MUTEX_RE = re.compile(
    r"std::(mutex|condition_variable(?:_any)?|lock_guard|unique_lock|"
    r"scoped_lock|shared_mutex|shared_lock)\b|"
    r"#\s*include\s*<(mutex|condition_variable|shared_mutex)>"
)


def check_naked_mutex(root):
    findings = []
    for path in iter_source_files(root, ["src"]):
        rel = relpath(root, path)
        if rel.replace(os.sep, "/") == "src/common/sync.h":
            continue
        text = open(path, encoding="utf-8").read()
        code = strip_comments(text)
        for m in NAKED_MUTEX_RE.finditer(code):
            findings.append(Finding(
                "naked-mutex", rel, line_of(code, m.start()),
                f"'{m.group(0)}' outside src/common/sync.h; use tqp::Mutex / "
                "MutexLock / CondVar so the thread-safety analysis sees it"))
    return findings


# ---------------------------------------------------- submit-propagation --
# Non-greedy across the parameter list: `std::function<void()>` nests parens,
# so the first `) {` after the open paren is the real end of the signature.
SUBMIT_DEF_RE = re.compile(
    r"void\s+(ThreadPool|StepScheduler)::Submit\s*\(.*?\)\s*\{", re.DOTALL)
SUBMIT_CAPTURE_RE = re.compile(
    r"QueryContext::Capture\s*\(\s*\)\s*\.\s*Wrap\s*\(")
CONTEXT_DEF_RE = re.compile(r"\b(?:struct|class)\s+QueryContext\s*\{")
CONTEXT_ATTACH_RE = re.compile(r"\bclass\s+Attach\s*\{")
CONTEXT_PIECES = [
    ("QueryScope::Attach", "query-memory scope"),
    ("CancellationToken::Attach", "cancellation token"),
    ("obs::TraceContext", "trace context"),
]


def matched_body(code, open_brace):
    """Returns (body, end) for the brace-matched block starting at
    open_brace (index of '{')."""
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return code[open_brace:i + 1], i
    return code[open_brace:], len(code)


def check_submit_propagation(root):
    findings = []
    for path in iter_source_files(root, ["src"]):
        rel = relpath(root, path)
        text = open(path, encoding="utf-8").read()
        code = strip_comments(text)
        for m in SUBMIT_DEF_RE.finditer(code):
            body, _ = matched_body(code, m.end() - 1)
            if not SUBMIT_CAPTURE_RE.search(body):
                findings.append(Finding(
                    "submit-propagation", rel, line_of(code, m.start()),
                    f"{m.group(1)}::Submit does not wrap its task through "
                    "QueryContext::Capture().Wrap(...); a hand-made wrapper "
                    "drifts from the other submission path and tasks lose "
                    "part of their query's context on another worker"))
        for m in CONTEXT_DEF_RE.finditer(code):
            context_body, _ = matched_body(code, m.end() - 1)
            attach = CONTEXT_ATTACH_RE.search(context_body)
            if attach is None:
                findings.append(Finding(
                    "submit-propagation", rel, line_of(code, m.start()),
                    "QueryContext defines no Attach guard to install it"))
                continue
            attach_body, _ = matched_body(context_body, attach.end() - 1)
            for marker, what in CONTEXT_PIECES:
                if marker not in attach_body:
                    findings.append(Finding(
                        "submit-propagation", rel,
                        line_of(code, m.start() + attach.start()),
                        f"QueryContext::Attach does not attach the {what} "
                        f"({marker}); tasks would silently lose it on "
                        "another worker"))
    return findings


# ---------------------------------------------------------------- env-int --
GETENV_RE = re.compile(r'getenv\s*\(\s*"(TQP_[A-Z0-9_]*)"\s*\)')


def check_env_int(root):
    findings = []
    for path in iter_source_files(root, ["src", "bench", "examples", "tools"]):
        rel = relpath(root, path)
        if rel.replace(os.sep, "/") == "src/common/env.cc":
            continue  # the EnvInt64OrDefault implementation itself
        text = open(path, encoding="utf-8").read()
        code = strip_comments(text)
        # getenv() blanks the quoted name; scan the raw text for the pattern
        # and the stripped text to skip commented-out code.
        for m in GETENV_RE.finditer(text):
            prefix = code[:m.start()]
            if code[m.start():m.start() + 6] != "getenv":
                continue  # inside a comment or string
            del prefix
            name = m.group(1)
            if name not in STRING_ENV_ALLOWLIST:
                findings.append(Finding(
                    "env-int", rel, line_of(text, m.start()),
                    f'raw getenv("{name}"): integer TQP_* knobs must go '
                    "through EnvInt64OrDefault (bounds-checked, warns on "
                    "garbage); string knobs belong in the linter allowlist"))
    return findings


# ------------------------------------------------------------ fault-sites --
ENUM_MEMBER_RE = re.compile(r"\bk([A-Z][A-Za-z0-9]*)\s*=\s*\d+\s*,")
SITE_NAME_RE = re.compile(
    r"case\s+FaultSite::k[A-Za-z0-9]+\s*:\s*return\s*\"([a-z0-9_]+)\"")
NUM_SITES_RE = re.compile(r"kNumFaultSites\s*=\s*(\d+)")
DOC_SITE_RE = re.compile(r"`([a-z0-9_]+)`")


def camel_to_snake(name):
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def check_fault_sites(root):
    findings = []
    fault_h = os.path.join(root, "src/common/fault.h")
    fault_cc = os.path.join(root, "src/common/fault.cc")
    readme = os.path.join(root, "README.md")
    if not (os.path.isfile(fault_h) and os.path.isfile(fault_cc)):
        return findings  # --check-anchors reports the missing files

    header = open(fault_h, encoding="utf-8").read()
    header_code = strip_comments(header)
    enum_m = re.search(r"enum\s+class\s+FaultSite[^{]*\{", header_code)
    if enum_m is None:
        findings.append(Finding("fault-sites", relpath(root, fault_h), 1,
                                "FaultSite enum not found"))
        return findings
    enum_body, _ = matched_body(header_code, enum_m.end() - 1)
    enum_sites = [camel_to_snake(m.group(1))
                  for m in ENUM_MEMBER_RE.finditer(enum_body)]
    enum_line = line_of(header_code, enum_m.start())

    num_m = NUM_SITES_RE.search(header_code)
    if num_m and int(num_m.group(1)) != len(enum_sites):
        findings.append(Finding(
            "fault-sites", relpath(root, fault_h),
            line_of(header_code, num_m.start()),
            f"kNumFaultSites = {num_m.group(1)} but the FaultSite enum has "
            f"{len(enum_sites)} members"))

    impl = open(fault_cc, encoding="utf-8").read()
    table_names = SITE_NAME_RE.findall(impl)
    if sorted(table_names) != sorted(enum_sites):
        findings.append(Finding(
            "fault-sites", relpath(root, fault_cc), 1,
            f"FaultSiteName table {sorted(table_names)} != FaultSite enum "
            f"{sorted(enum_sites)}"))

    # Documented site list: the README sentence "Sites: `a`, `b`, ...".
    if os.path.isfile(readme):
        doc = open(readme, encoding="utf-8").read()
        sites_m = re.search(r"Sites:((?:[^.]|\.\d)*)", doc)
        if sites_m is None:
            findings.append(Finding(
                "fault-sites", "README.md", 1,
                "documented fault-site list ('Sites: ...') not found"))
        else:
            documented = set(DOC_SITE_RE.findall(sites_m.group(1)))
            for site in enum_sites:
                if site not in documented:
                    findings.append(Finding(
                        "fault-sites", "README.md",
                        line_of(doc, sites_m.start()),
                        f"fault site '{site}' missing from the documented "
                        "site list"))
            for site in sorted(documented - set(enum_sites)):
                findings.append(Finding(
                    "fault-sites", "README.md", line_of(doc, sites_m.start()),
                    f"documented fault site '{site}' does not exist in the "
                    "FaultSite enum"))

    # Every seam must actually be polled somewhere outside fault.{h,cc}.
    camel = {camel_to_snake(m.group(1)): "k" + m.group(1)
             for m in ENUM_MEMBER_RE.finditer(enum_body)}
    used = set()
    for path in iter_source_files(root, ["src"]):
        rel = relpath(root, path).replace(os.sep, "/")
        if rel in ("src/common/fault.h", "src/common/fault.cc"):
            continue
        code = strip_comments(open(path, encoding="utf-8").read())
        for site, member in camel.items():
            if re.search(r"FaultSite::" + member + r"\b", code):
                used.add(site)
    for site in enum_sites:
        if site not in used:
            findings.append(Finding(
                "fault-sites", relpath(root, fault_h), enum_line,
                f"fault site '{site}' has no FaultHit/ShouldFail call site "
                "in src/ — dead seam or missing poll"))
    return findings


# ----------------------------------------------------- substr-string-view --
SUBSTR_VIEW_RE = re.compile(
    r"\b(?:std::)?(?:w|u8|u16|u32)?string_view\s+\w+\s*[({=][^;]*\.substr\s*\(",
    re.DOTALL)


def check_substr_string_view(root):
    findings = []
    for path in iter_source_files(root, ["src", "bench", "examples", "tests"]):
        rel = relpath(root, path)
        code = strip_comments(open(path, encoding="utf-8").read())
        for m in SUBSTR_VIEW_RE.finditer(code):
            findings.append(Finding(
                "substr-string-view", rel, line_of(code, m.start()),
                "string_view initialized from .substr(): std::string::substr "
                "returns a temporary, so the view dangles at the semicolon; "
                "use std::string_view::substr on a view, or keep the string"))
    return findings


# -------------------------------------------------------- build-artifacts --
BUILD_ARTIFACT_PATTERNS = ("CMakeCache.txt", "*.o", ".ninja_*")


def ignored_dir_patterns(root):
    """Directory patterns ("name/") from the root .gitignore, for trees that
    are not git checkouts."""
    path = os.path.join(root, ".gitignore")
    if not os.path.isfile(path):
        return []
    patterns = []
    for line in open(path, encoding="utf-8"):
        line = line.strip()
        if line.endswith("/") and "/" not in line[:-1] and not line.startswith("#"):
            patterns.append(line[:-1])
    return patterns


def committable_files(root):
    """Paths (relative to root) that `git add -A` would commit: tracked files
    plus untracked, non-ignored ones. Outside a git work tree, every file not
    under a .gitignore'd directory."""
    proc = subprocess.run(
        ["git", "-C", root, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if proc.returncode == 0:
        return [p for p in proc.stdout.decode("utf-8").split("\0") if p]
    ignored = ignored_dir_patterns(root) + [".git"]
    files = []
    for dirpath, dirnames, names in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if not any(fnmatch.fnmatch(d, pat) for pat in ignored)]
        files.extend(os.path.relpath(os.path.join(dirpath, n), root)
                     for n in names)
    return files


def check_build_artifacts(root):
    findings = []
    for rel in sorted(committable_files(root)):
        parts = rel.split("/")
        if "lint_fixtures" in parts[:-1]:
            continue  # golden fixtures exist to trigger rules
        if any(fnmatch.fnmatch(parts[-1], pat) for pat in BUILD_ARTIFACT_PATTERNS):
            findings.append(Finding(
                "build-artifacts", rel, 1,
                "build output would be committed; build in an ignored "
                "directory (build/, build-*/) and `git rm --cached` it"))
    return findings


def check_anchors(root):
    findings = []
    for rel in ANCHOR_FILES:
        if not os.path.isfile(os.path.join(root, rel)):
            findings.append(Finding(
                "anchor-files", rel, 1,
                "anchor file missing: a rename must update ANCHOR_FILES in "
                "tools/repo_lint.py so its lint rule keeps running"))
    return findings


RULES = [
    ("naked-mutex", check_naked_mutex),
    ("submit-propagation", check_submit_propagation),
    ("env-int", check_env_int),
    ("fault-sites", check_fault_sites),
    ("substr-string-view", check_substr_string_view),
    ("build-artifacts", check_build_artifacts),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="tree to lint (default: the repo this script lives in)")
    parser.add_argument(
        "--check-anchors", action="store_true",
        help="require the contract rules' anchor files to exist")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, _ in RULES:
            print(name)
        return 0

    findings = []
    if args.check_anchors:
        findings.extend(check_anchors(args.root))
    for _, check in RULES:
        findings.extend(check(args.root))

    for f in findings:
        print(f)
    if findings:
        print(f"repo_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
