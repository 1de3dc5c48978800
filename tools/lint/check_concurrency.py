#!/usr/bin/env python3
"""Concurrency lint for the hadoop-on-hpc tree.

Enforces the project's concurrency conventions (DESIGN.md, "Concurrency
invariants") over src/ with plain regexes — fast enough for a pre-commit
hook and dependency-free, unlike the clang-tidy pass it complements:

  1. No naked synchronisation primitives. All locking goes through the
     annotated hoh::common::Mutex / MutexLock / CondVar wrappers from
     src/common/thread_annotations.h so Clang's -Wthread-safety analysis
     sees every acquisition. Rejected: std::mutex, std::recursive_mutex,
     std::shared_mutex, std::timed_mutex, std::lock_guard,
     std::unique_lock, std::scoped_lock, std::shared_lock,
     std::condition_variable, std::condition_variable_any.
  2. No raw std::thread outside common/thread_pool.* — ad-hoc threads
     bypass the pool's shutdown/join discipline.
  3. No .detach() anywhere: a detached thread outlives scope analysis
     and TSan's happens-before graph, and cannot be joined on shutdown.
  4. No raw `this` capture in lambdas handed to cross-thread submission
     points (submit(, enqueue(, parallel_for(): a worker may still hold
     the callback after the object dies.  Capture the needed members by
     value, or use a weak alive-token (see ElasticController::actuate).
  5. No new schedule_periodic call sites (DESIGN.md §10). The control
     plane is event-driven: components react to StateStore watches,
     DeadlineTimer leases and completion notifications, not periodic
     sweeps. The few deliberately periodic loops (the elastic sampler
     and the Spark standalone scheduler) are enumerated per file in
     PERIODIC_BUDGET below; adding one elsewhere — or exceeding a
     file's budget — is a violation. Prefer a store watch or a
     sim::DeadlineTimer; if a new periodic loop is genuinely required,
     extend the budget in the same change that adds it and justify it in
     DESIGN.md.
  6. src/tenant/ stays deterministic engine-driven code (DESIGN.md §11):
     no std::atomic / semaphore / latch / barrier / promise / future /
     async at all — the gateway runs entirely on the single-threaded
     simulation engine and must stay replayable. If a tenant file does
     declare a common::Mutex, every such declaration must be paired with
     HOH_GUARDED_BY annotations somewhere in the file so -Wthread-safety
     covers the data it protects.

Usage: tools/lint/check_concurrency.py [root]   (root defaults to src/)
Exit status: 0 clean, 1 violations found (one "file:line: message" per
violation on stdout, grep/IDE-clickable).
"""

from __future__ import annotations

import pathlib
import re
import sys

# Files allowed to touch the naked primitives: the wrapper itself.
PRIMITIVE_ALLOWLIST = {"src/common/thread_annotations.h"}
# Files allowed to construct std::thread: the pool, and the socket
# transport's epoll reactor (one long-lived I/O thread, joined in stop).
THREAD_ALLOWLIST = {
    "src/common/thread_pool.h",
    "src/common/thread_pool.cpp",
    "src/net/socket_transport.h",
    "src/net/socket_transport.cpp",
}
# Per-file budget of schedule_periodic call sites (rule 5). These are the
# engine's own declaration/definition, the elastic sampler (resize
# decisions want a stable rhythm) and the Spark standalone scheduler.
PERIODIC_BUDGET = {
    "src/sim/engine.h": 1,
    "src/sim/engine.cpp": 1,
    "src/elastic/elastic_controller.cpp": 1,
    "src/spark/standalone.cpp": 1,
}

SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

NAKED_PRIMITIVE = re.compile(
    r"std::(?:recursive_|shared_|timed_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
)
RAW_THREAD = re.compile(r"std::(?:jthread|thread)\b(?!::hardware_concurrency)")
DETACH = re.compile(r"\.\s*detach\s*\(")
# A lambda capturing raw `this` on the same line as a cross-thread
# submission point. Line-based on purpose: cheap, and the codebase style
# keeps `submit([this...` on one line.
THIS_CAPTURE = re.compile(
    r"(?:submit|enqueue|parallel_for)\s*\(\s*\[[^\]]*\bthis\b"
)

SCHEDULE_PERIODIC = re.compile(r"\bschedule_periodic\s*\(")

# Rule 6: the tenant subsystem is deterministic single-threaded code.
TENANT_PREFIX = "src/tenant/"
TENANT_BANNED = re.compile(
    r"std::(?:atomic\w*|counting_semaphore|binary_semaphore|latch"
    r"|barrier|promise|future|shared_future|async)\b"
)
MUTEX_DECL = re.compile(r"\bcommon::Mutex\b")
GUARDED_BY = re.compile(r"\bHOH_GUARDED_BY\b")

COMMENT = re.compile(r"^\s*(?://|\*|///)")


def strip_strings(line: str) -> str:
    """Blank out string literals so 'std::mutex' in a message can't trip."""
    return re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)


def lint_file(path: pathlib.Path, rel: str,
              rule_rel: str | None = None) -> list[str]:
    # `rel` is the reported (clickable) path; `rule_rel` is the path the
    # path-keyed rules match against (differs only for fixture trees).
    if rule_rel is None:
        rule_rel = rel
    problems: list[str] = []
    periodic_sites: list[int] = []
    tenant_mutex_lines: list[int] = []
    tenant_has_guard = False
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        return [f"{rel}:0: unreadable ({err})"]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if COMMENT.match(raw):
            continue
        line = strip_strings(raw)
        if rule_rel not in PRIMITIVE_ALLOWLIST and NAKED_PRIMITIVE.search(line):
            problems.append(
                f"{rel}:{lineno}: naked synchronisation primitive; use "
                f"hoh::common::Mutex / MutexLock / CondVar "
                f"(common/thread_annotations.h)"
            )
        if rule_rel not in THREAD_ALLOWLIST and RAW_THREAD.search(line):
            problems.append(
                f"{rel}:{lineno}: raw std::thread; run work on "
                f"common::ThreadPool instead"
            )
        if DETACH.search(line):
            problems.append(
                f"{rel}:{lineno}: detached thread; detached threads escape "
                f"join/shutdown and TSan analysis"
            )
        if THIS_CAPTURE.search(line):
            problems.append(
                f"{rel}:{lineno}: raw `this` captured in a cross-thread "
                f"callback; capture members by value or use a weak "
                f"alive-token"
            )
        if SCHEDULE_PERIODIC.search(line):
            periodic_sites.append(lineno)
        if rule_rel.startswith(TENANT_PREFIX):
            if TENANT_BANNED.search(line):
                problems.append(
                    f"{rel}:{lineno}: threading primitive in src/tenant/; "
                    f"the gateway is deterministic engine-driven code "
                    f"(DESIGN.md §11) and must not use atomics, futures "
                    f"or barriers"
                )
            if MUTEX_DECL.search(line) and "MutexLock" not in line:
                tenant_mutex_lines.append(lineno)
            if GUARDED_BY.search(line):
                tenant_has_guard = True
    if rule_rel.startswith(TENANT_PREFIX) and tenant_mutex_lines \
            and not tenant_has_guard:
        for lineno in tenant_mutex_lines:
            problems.append(
                f"{rel}:{lineno}: common::Mutex declared in src/tenant/ "
                f"without any HOH_GUARDED_BY annotation in the file; "
                f"annotate the data the mutex protects"
            )
    budget = PERIODIC_BUDGET.get(rule_rel, 0)
    for lineno in periodic_sites[budget:]:
        problems.append(
            f"{rel}:{lineno}: schedule_periodic call site over budget "
            f"({len(periodic_sites)} found, {budget} allowed); the control "
            f"plane is event-driven — use a StateStore watch or "
            f"sim::DeadlineTimer, or extend PERIODIC_BUDGET with a "
            f"DESIGN.md justification"
        )
    return problems


def main(argv: list[str]) -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent.parent
    root = pathlib.Path(argv[1]) if len(argv) > 1 else repo / "src"
    problems: list[str] = []
    checked = 0
    for path in sorted(root.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        checked += 1
        resolved = path.resolve()
        try:
            rel = resolved.relative_to(repo).as_posix()
        except ValueError:  # linting a tree outside the repo (tests do)
            rel = resolved.as_posix()
        # Path-keyed rules (allowlists, TENANT_PREFIX, PERIODIC_BUDGET)
        # match repo paths. When linting a fixture tree that mirrors the
        # src/ layout (tests/lint_fixtures does), key the rules on the
        # root-relative path instead, so `<root>/src/tenant/x.cpp` is
        # treated exactly like `src/tenant/x.cpp`; reported locations
        # keep the real path either way.
        rule_rel = rel
        if not rel.startswith("src/"):
            root_rel = resolved.relative_to(root.resolve()).as_posix()
            if root_rel.startswith("src/"):
                rule_rel = root_rel
        problems.extend(lint_file(path, rel, rule_rel))
    for problem in problems:
        print(problem)
    print(
        f"check_concurrency: {checked} files, {len(problems)} violation(s)",
        file=sys.stderr,
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
