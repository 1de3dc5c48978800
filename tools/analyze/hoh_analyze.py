#!/usr/bin/env python3
"""hoh_analyze: AST-level project analyzer for the hadoop-on-hpc tree.

Every correctness claim this repo makes — fault-sweep recovery, control-
plane parity, gateway passthrough — is asserted as byte-identical run
digests (DESIGN.md §9–§11). Runtime sanitizers cannot see the failure
modes that silently break that replayability: a wall-clock read, an
iteration over a hash table feeding a trace, a state write that bypasses
validate_transition, a lock the thread-safety analysis never sees. This
tool is the project's one source-rule engine. It enforces them
structurally, over the same translation units the tier-1 preset compiles
(compile_commands.json), with six rule families:

  concurrency (DESIGN.md §7)
    conc-naked-primitive  std::mutex / recursive_mutex / shared_mutex /
                          timed_mutex / lock_guard / unique_lock /
                          scoped_lock / shared_lock / condition_variable(_any)
                          outside src/common/thread_annotations.h — all
                          locking goes through the annotated common::Mutex /
                          MutexLock / CondVar so -Wthread-safety sees it.
    conc-raw-thread       std::thread / std::jthread outside the thread pool
                          (THREAD_ALLOWLIST); std::thread::hardware_concurrency
                          is fine.
    conc-detach           .detach(): a detached thread escapes join/shutdown
                          and TSan's happens-before graph.
    conc-this-capture     a lambda capturing raw `this` as the first argument
                          of submit( / enqueue( / parallel_for( — a worker may
                          still hold the callback after the object dies.
    conc-periodic-budget  more schedule_periodic call sites in a file than
                          its PERIODIC_BUDGET entry (0 when absent): the
                          control plane is event-driven (DESIGN.md §10).
    tenant-threading      std::atomic* / semaphores / latch / barrier /
                          promise / future / async under src/tenant/ — the
                          gateway is deterministic engine-driven code
                          (DESIGN.md §11).

  determinism
    det-wallclock       std::chrono::{system,steady,high_resolution}_clock,
                        time()/gettimeofday/clock_gettime/std::clock —
                        simulated time comes from sim::Engine only.
    det-rand            std::rand/srand/std::random_device — all randomness
                        flows through the seeded common::Rng wrapper.
    det-unseeded-rng    construction of a std <random> engine with no seed
                        argument (mt19937 g;) — an unseeded engine is a
                        different run every boot.
    det-unordered-emit  a range-for over an unordered_map/unordered_set
                        whose body (transitively) reaches a trace / digest /
                        journal / JSON emission path — hash-bucket order
                        would leak into replayable output.

  lock-order
    lock-order-cycle    the global MutexLock nesting graph, extracted across
                        translation units (including acquisitions made by
                        callees while a lock is held), contains a cycle —
                        a potential deadlock. The full graph is emitted as
                        DOT + JSON artifacts (--dot / --graph-json). A
                        std::- or ::-qualified call enters none of the
                        project's functions; `obj.f()` / `obj->f()` enters
                        only a member `f` of a class, and of obj's class
                        (or one it derives from or that derives from it)
                        when obj's type is known; a bare `f()` in a member
                        function enters the class's own `f` when it has
                        one.
    lock-order-self     a mutex is re-acquired while already held on the
                        same path; common::Mutex is non-recursive.

  state-discipline
    state-write         a PilotState/UnitState-typed store outside the two
                        designated gates (Pilot::set_state,
                        Agent::set_unit_state) and the transition machinery
                        itself — every lifecycle mutation must pass
                        validate_transition (DESIGN.md §7, Fig. 3).

  annotation-coverage
    guard-missing       a common::Mutex class member or namespace-scope
                        variable that no HOH_GUARDED_BY / HOH_PT_GUARDED_BY
                        declaration names — the -Wthread-safety analysis is
                        blind to everything that mutex protects.
    guard-local-mutex   a function-local common::Mutex (outside a local
                        struct): locals cannot carry GUARDED_BY; hoist the
                        mutex into a struct with annotated members (see
                        ThreadPool::parallel_for's Latch).

  wire-encoding
    wire-encoding       reinterpret_cast, memcpy/memmove, or a byte-order
                        intrinsic (htons/htonl/ntohs/ntohl/htobe*/be*toh)
                        outside src/net/ — every wire image is produced by
                        the net::Packer codec (DESIGN.md §14); ad-hoc
                        struct-memcpy or endian fiddling elsewhere would
                        be host-order-dependent and invisible to the codec
                        fuzz tests.

Path-keyed rules
  The allowlists, the periodic budget, src/tenant/, the src/net/ wire
  exemption, the src/common/random.* determinism exemption and the state
  gate files all match rule_path(): the repo path for a file under src/,
  else the tail from the file's last `src/` component. A fixture tree
  that mirrors src/ (tests/lint_fixtures/analyze/src/) is therefore
  judged exactly like the real files.

Frontend
  The rules run over a small file IR built by a dependency-free C++
  tokenizer + scope parser tuned to this codebase's idiom; it builds a
  whole-program registry of class members, mutex declarations and
  function bodies across the analyzed file set.

Suppression
  Findings print as `file:line: rule: message` (IDE-clickable); any
  finding fails the run. A site that is safe for a reason the rule cannot
  see carries a justified per-site suppression:

      // hoh-analyze: allow(det-unordered-emit) -- <why this is safe>
      // hoh-analyze: allow-next-line(state-write) -- <why>

  A suppression without a `--` justification is itself a finding
  (suppression-unjustified).

Usage
  tools/analyze/hoh_analyze.py -p build               # compile_commands.json
  tools/analyze/hoh_analyze.py --paths src            # plain tree walk
  tools/analyze/hoh_analyze.py -p build --dot lock_order.dot \
      --graph-json lock_order.json

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Rule registry and policy constants
# --------------------------------------------------------------------------

RULES = (
    "conc-naked-primitive",
    "conc-raw-thread",
    "conc-detach",
    "conc-this-capture",
    "conc-periodic-budget",
    "tenant-threading",
    "det-wallclock",
    "det-rand",
    "det-unseeded-rng",
    "det-unordered-emit",
    "lock-order-cycle",
    "lock-order-self",
    "state-write",
    "guard-missing",
    "guard-local-mutex",
    "wire-encoding",
    "suppression-unjustified",
)

# Files allowed to touch the naked primitives: the wrapper itself.
PRIMITIVE_ALLOWLIST = {"src/common/thread_annotations.h"}
# Files allowed to construct std::thread: the pool.
THREAD_ALLOWLIST = {
    "src/common/thread_pool.h",
    "src/common/thread_pool.cpp",
}
# Per-file budget of schedule_periodic call sites (conc-periodic-budget).
# These are the engine's own declaration/definition, the elastic sampler
# (resize decisions want a stable rhythm) and the Spark standalone
# scheduler.
PERIODIC_BUDGET = {
    "src/sim/engine.h": 1,
    "src/sim/engine.cpp": 1,
    "src/elastic/elastic_controller.cpp": 1,
    "src/spark/standalone.cpp": 1,
}
NAKED_PRIMITIVES = {
    "mutex", "recursive_mutex", "shared_mutex", "timed_mutex",
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
    "condition_variable", "condition_variable_any",
}
RAW_THREAD_TYPES = {"thread", "jthread"}
# Cross-thread submission points for conc-this-capture.
SUBMIT_CALLEES = {"submit", "enqueue", "parallel_for"}

# The tenant subsystem is deterministic single-threaded code
# (tenant-threading); any std::atomic* is banned there too.
TENANT_DIR_PREFIX = "src/tenant/"
TENANT_BANNED = {
    "counting_semaphore", "binary_semaphore", "latch", "barrier",
    "promise", "future", "shared_future", "async",
}

# The codec / transport layer is the one place allowed to touch raw
# bytes and byte order (wire-encoding rule).
WIRE_DIR_PREFIX = "src/net/"
WIRE_BYTEORDER_IDENTS = {
    "htons", "htonl", "ntohs", "ntohl",
    "htobe16", "htobe32", "htobe64", "be16toh", "be32toh", "be64toh",
    "htole16", "htole32", "htole64", "le16toh", "le32toh", "le64toh",
}
WIRE_MEM_CALLEES = {"memcpy", "memmove"}

# The seeded RNG wrapper is the one place allowed to hold a raw engine.
DET_FILE_ALLOWLIST = {
    "src/common/random.h",
    "src/common/random.cpp",
}

# The two legal lifecycle-mutation gates (both call into
# validate_transition, directly or through StateStore::update) plus the
# transition machinery itself.
STATE_GATE_FUNCTIONS = {
    "Pilot::set_state",
    "Agent::set_unit_state",
}
STATE_GATE_FILES = {
    "src/pilot/transitions.h",
    "src/pilot/state_store.cpp",
    "src/pilot/state_store.h",
}
STATE_ENUMS = {"PilotState", "UnitState"}

# Emission sinks for det-unordered-emit: calling one of these (directly or
# transitively) inside a loop over an unordered container means bucket
# order reaches replayable output. Matched by callee simple name, plus a
# receiver-chain hint for trace()/journal-style accessors.
SINK_NAMES = {
    "record",
    "begin_span",
    "end_span",
    "to_json",
    "dump",
    "digest",
    "journal",
    "append_journal",
    "emit",
}
SINK_RECEIVER_HINTS = ("trace", "journal", "json", "digest")

WALLCLOCK_IDENTS = {
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
    "gettimeofday",
    "clock_gettime",
    "timespec_get",
}
RAND_IDENTS = {"random_device"}
RAND_CALLEES = {"rand", "srand"}
RNG_ENGINE_TYPES = {
    "mt19937",
    "mt19937_64",
    "default_random_engine",
    "minstd_rand",
    "minstd_rand0",
    "ranlux24_base",
    "ranlux48_base",
    "ranlux24",
    "ranlux48",
    "knuth_b",
}

SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

# Callee names too generic to resolve across translation units by simple
# name — almost always STL container methods; resolving them would wire
# e.g. `collections_.count(...)` to Rdd::count and invent lock edges.
# The cost is a missed interprocedural edge through a method with one of
# these names; the nesting graph is an over-approximation either way.
GENERIC_CALLEES = {
    "count", "contains", "size", "empty", "begin", "end", "find", "at",
    "get", "push_back", "pop_back", "insert", "erase", "clear", "front",
    "back", "reset", "str", "c_str", "data", "emplace", "emplace_back",
    "push", "pop", "top", "value", "has_value", "reserve", "resize",
    "swap", "first", "second", "lock", "unlock", "substr", "append",
}

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "case",
    "new", "delete", "throw", "alignof", "decltype", "static_assert",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "noexcept", "assert", "defined", "typeid", "co_await", "co_return",
}

GUARD_MACROS = ("HOH_GUARDED_BY", "HOH_PT_GUARDED_BY")

SUPPRESS_RE = re.compile(
    r"hoh-analyze:\s*allow(?P<next>-next-line)?\s*\(\s*(?P<rules>[\w\s,-]+?)\s*\)"
    r"(?P<just>\s*--\s*\S.*)?"
)


@dataclass(frozen=True)
class Finding:
    file: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule}: {self.message}"


def rule_path(rel: str) -> str:
    """The path every path-keyed rule matches against: `rel` itself for a
    file under the repo's src/, else the tail from the file's last `src/`
    component, so `tests/lint_fixtures/analyze/src/tenant/x.cpp` is judged
    exactly like `src/tenant/x.cpp`. Reported locations keep `rel`."""
    if rel.startswith("src/"):
        return rel
    _, sep, tail = rel.rpartition("/src/")
    return "src/" + tail if sep else rel


# --------------------------------------------------------------------------
# File IR
# --------------------------------------------------------------------------


@dataclass
class MutexDecl:
    mutex_id: str          # e.g. "StateStore::mu_" or "<fn>::mu"
    scope: str             # owning class scope ("" = function-local/global)
    file: str
    line: int
    function_local: bool = False


@dataclass
class Acquire:
    mutex_id: str
    line: int
    held: tuple            # mutex ids already held at this point


@dataclass
class CallSite:
    callee: str            # simple name
    receiver: tuple        # receiver chain idents, e.g. ("saga_", "trace")
    line: int
    held: tuple            # mutex ids held when the call is made
    kind: str = "plain"    # "plain" f() / a::f(), "member" x.f() / x->f(),
                           # "external" std::f() / ::f()
    recv_type: str = None  # a member call's receiver class, when known


@dataclass
class UnorderedLoop:
    line: int
    container: str
    body_calls: list = field(default_factory=list)  # CallSite


@dataclass
class StateWrite:
    line: int
    lhs: str
    enum: str              # PilotState / UnitState


@dataclass
class FunctionIR:
    qname: str             # Namespace-free qualified name, e.g. "Agent::poll_store"
    simple: str
    file: str
    line: int
    acquires: list = field(default_factory=list)     # Acquire
    calls: list = field(default_factory=list)        # CallSite
    loops: list = field(default_factory=list)        # UnorderedLoop
    state_writes: list = field(default_factory=list)  # StateWrite


@dataclass
class FileIR:
    path: str
    key: str               # rule_path(path), for the path-keyed rules
    mutexes: list = field(default_factory=list)      # MutexDecl
    guarded: set = field(default_factory=set)        # mutex ids with >=1 GUARDED_BY
    functions: list = field(default_factory=list)    # FunctionIR
    token_findings: list = field(default_factory=list)  # Finding (det-* scans)
    suppressions: dict = field(default_factory=dict)  # line -> set(rules)
    unjustified: list = field(default_factory=list)  # (line, rules)


# --------------------------------------------------------------------------
# Internal frontend: lexer
# --------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"
    r"|::|->\*?|<<=?|>>=?|<=|>=|==|!=|&&|\|\||\+\+|--|[-+*/%&|^!]=|\.\.\."
    r"|[{}()\[\];:,<>=&*.+\-!/~%?|^#]"
)


@dataclass(frozen=True)
class Tok:
    text: str
    line: int
    is_ident: bool


def lex(text: str, suppressions: dict, unjustified: list) -> list:
    """Tokenize C++ source: strips comments / string and char literals
    (collecting hoh-analyze suppression comments on the way), keeps line
    numbers. Preprocessor lines are dropped except #define bodies are not
    needed for any rule here."""
    toks: list = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if text.startswith("//", i):
            end = text.find("\n", i)
            if end == -1:
                end = n
            _scan_suppression(text[i:end], line, suppressions, unjustified)
            i = end
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                end = n
            chunk = text[i:end]
            _scan_suppression(chunk, line, suppressions, unjustified)
            line += chunk.count("\n")
            i = end + 2
            continue
        if c == '"':
            if toks and toks[-1].is_ident and toks[-1].text.endswith("R"):
                # Raw string literal R"delim( ... )delim"
                m = re.match(r'"([^(\s]*)\(', text[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    end = text.find(close, i)
                    if end == -1:
                        end = n
                    line += text.count("\n", i, end)
                    i = end + len(close)
                    continue
            i, line = _skip_quoted(text, i, line, '"')
            continue
        if c == "'":
            i, line = _skip_quoted(text, i, line, "'")
            continue
        if c == "#":
            # Preprocessor directive: skip to end of (continued) line.
            end = i
            while True:
                nl = text.find("\n", end)
                if nl == -1:
                    end = n
                    break
                if text[nl - 1] == "\\":
                    line += 1
                    end = nl + 1
                    continue
                end = nl
                break
            i = end
            continue
        m = TOKEN_RE.match(text, i)
        if not m:
            i += 1
            continue
        t = m.group(0)
        toks.append(Tok(t, line, t[0].isalpha() or t[0] == "_"))
        i = m.end()
    return toks


def _skip_quoted(text: str, i: int, line: int, quote: str):
    i += 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\\":
            i += 2
            continue
        if c == "\n":  # unterminated; bail at line end
            return i, line
        if c == quote:
            return i + 1, line
        i += 1
    return i, line


def _scan_suppression(comment: str, line: int, suppressions: dict,
                      unjustified: list) -> None:
    m = SUPPRESS_RE.search(comment)
    if not m:
        return
    rules = {r.strip() for r in m.group("rules").split(",") if r.strip()}
    target = line + 1 if m.group("next") else line
    suppressions.setdefault(target, set()).update(rules)
    if not m.group("just"):
        unjustified.append((line, tuple(sorted(rules))))


# --------------------------------------------------------------------------
# Internal frontend: scope / declaration parser
# --------------------------------------------------------------------------


def _match_paren(toks, i):
    """toks[i] == '('; returns index one past the matching ')'."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _match_brace(toks, i):
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _ident_chain_before(toks, i):
    """Collect the a::b / a.b / a->b identifier chain ending at index i
    (inclusive). Returns list of idents, outermost first."""
    chain = []
    j = i
    while j >= 0:
        if not toks[j].is_ident:
            break
        chain.append(toks[j].text)
        if j - 1 >= 0 and toks[j - 1].text in ("::", ".", "->"):
            j -= 2
        else:
            break
    chain.reverse()
    return chain, j


def _is_mutex_decl(toks, i, hi):
    """toks[i:] spells `Mutex name;` or `Mutex name = ...`."""
    return toks[i].text == "Mutex" and i + 1 < hi and i + 2 < len(toks) \
        and toks[i + 1].is_ident and toks[i + 2].text in (";", "=")


def _guard_target(toks, i, hi):
    """toks[i] is a HOH_(PT_)GUARDED_BY macro. Returns (index past its
    closing paren, the guarding mutex's simple name or None)."""
    end = _match_paren(toks, i + 1)
    expr = [tok.text for tok in toks[i + 2:end - 1] if tok.is_ident]
    return end, (expr[-1] if expr else None)


class Registry:
    """Whole-program knowledge shared between passes: the classes and
    their bases, class members and their (string) types, and
    per-simple-name function index."""

    def __init__(self):
        self.classes = set()               # every class/struct with a body
        self.bases = defaultdict(set)      # class -> direct base names
        self.members = defaultdict(dict)   # class -> {member: type_str}
        self.functions_by_simple = defaultdict(list)  # simple -> [FunctionIR]
        self.functions_by_qname = {}

    def member_type(self, cls: str, name: str):
        return self.members.get(cls, {}).get(name)

    def add_class(self, name: str, toks, lo: int, hi: int) -> None:
        """Records class `name`; toks[lo:hi] is its head between the name
        and the body's '{' (`final : public a::Base, Other<T>`)."""
        self.classes.add(name)
        depth = 0
        group: list = []
        in_bases = False
        for tok in toks[lo:hi] + [Tok(",", 0, False)]:
            if tok.text == ":" and depth == 0:
                in_bases = True
            elif tok.text == "<":
                depth += 1
            elif tok.text == ">":
                depth -= 1
            elif tok.text == "," and depth == 0:
                if in_bases and group:
                    self.bases[name].add(group[-1])
                group = []
            elif in_bases and depth == 0 and tok.is_ident and tok.text \
                    not in ("public", "protected", "private", "virtual"):
                group.append(tok.text)

    def family(self, cls: str) -> set:
        """`cls`, its bases and the classes derived from it (transitively):
        a virtual call through a `cls` lands on any of them. Empty when
        `cls` is not one of the analyzed classes (e.g. a std:: type)."""
        if cls not in self.classes:
            return set()
        return ({cls} | self._ancestors(cls)
                | {d for d in self.bases if cls in self._ancestors(d)})

    def _ancestors(self, cls: str) -> set:
        out: set = set()
        work = [cls]
        while work:
            for base in self.bases.get(work.pop(), ()):
                if base not in out:
                    out.add(base)
                    work.append(base)
        return out


class InternalFrontend:
    """Tokenizer-based C++ frontend. Two passes: pass 1 records class
    member declarations into the registry; pass 2 parses function bodies
    (locks, calls, loops, state writes) with whole-program member types
    available."""

    def __init__(self, repo: pathlib.Path):
        self.repo = repo
        self.registry = Registry()
        self._lexed = {}   # path -> (tokens, suppressions, unjustified)

    # -- pass 1 ------------------------------------------------------------

    def scan_declarations(self, path: pathlib.Path, rel: str) -> None:
        toks = self._tokens(path, rel)
        self._walk_scopes(toks, rel, None)

    # -- pass 2 ------------------------------------------------------------

    def analyze(self, path: pathlib.Path, rel: str) -> FileIR:
        toks, suppressions, unjustified = self._lexed[rel]
        ir = FileIR(path=rel, key=rule_path(rel), suppressions=suppressions,
                    unjustified=list(unjustified))
        self._walk_scopes(toks, rel, ir)
        self._token_scan(toks, ir)
        return ir

    # -- shared machinery --------------------------------------------------

    def _tokens(self, path: pathlib.Path, rel: str):
        if rel not in self._lexed:
            suppressions: dict = {}
            unjustified: list = []
            text = path.read_text(encoding="utf-8", errors="replace")
            toks = lex(text, suppressions, unjustified)
            self._lexed[rel] = (toks, suppressions, unjustified)
        return self._lexed[rel][0]

    def _walk_scopes(self, toks, rel, ir, lo=0, hi=None, scope=()):
        """Walk one brace level, classifying nested scopes. `scope` is the
        stack of enclosing class names (namespaces are dropped — the
        codebase has no same-name classes across namespaces)."""
        i = lo
        n = len(toks) if hi is None else hi
        while i < n:
            t = toks[i]
            if t.text in ("namespace",):
                j = i + 1
                while j < n and toks[j].text != "{" and toks[j].text != ";":
                    j += 1
                if j < n and toks[j].text == "{":
                    end = _match_brace(toks, j)
                    self._walk_scopes(toks, rel, ir, j + 1, end - 1, scope)
                    i = end
                    continue
                i = j + 1
                continue
            if t.text in ("class", "struct") and i + 1 < n \
                    and toks[i + 1].is_ident:
                name = toks[i + 1].text
                j = i + 2
                # Skip to the body '{' or a ';' (fwd decl). Bail on '('
                # (e.g. `struct tm tmbuf(...)`) or '=' (type alias).
                while j < n and toks[j].text not in ("{", ";", "(", "="):
                    j += 1
                if j < n and toks[j].text == "{":
                    self.registry.add_class(name, toks, i + 2, j)
                    end = _match_brace(toks, j)
                    self._class_body(toks, rel, ir, j + 1, end - 1,
                                     scope + (name,))
                    i = end
                    continue
                i = j + 1
                continue
            if t.text == "enum":
                j = i
                while j < n and toks[j].text not in ("{", ";"):
                    j += 1
                i = _match_brace(toks, j) if j < n and toks[j].text == "{" \
                    else j + 1
                continue
            if t.text in GUARD_MACROS and i + 1 < n \
                    and toks[i + 1].text == "(":
                end, target = _guard_target(toks, i, n)
                if target and ir is not None:
                    ir.guarded.add(self._resolve_mutex_name(target, scope))
                i = end
                continue
            if _is_mutex_decl(toks, i, n):
                # Namespace-scope mutex: guard-missing covers it like a
                # class member.
                if ir is not None:
                    ir.mutexes.append(MutexDecl(
                        mutex_id=self._resolve_mutex_name(
                            toks[i + 1].text, scope),
                        scope="", file=rel, line=t.line))
                i += 2
                continue
            if t.text == "{":
                i = _match_brace(toks, i)
                continue
            if t.text == "(":
                # Possible function definition at this scope.
                consumed = self._maybe_function(toks, rel, ir, i, n, scope)
                if consumed is not None:
                    i = consumed
                    continue
                i = _match_paren(toks, i)
                continue
            i += 1

    def _class_body(self, toks, rel, ir, lo, hi, scope):
        cls = scope[-1]
        i = lo
        while i < hi:
            t = toks[i]
            if t.text in ("class", "struct", "namespace", "enum"):
                # Nested type: recurse through the generic walker.
                j = i
                while j < hi and toks[j].text not in ("{", ";", "(", "="):
                    j += 1
                if j < hi and toks[j].text == "{" \
                        and t.text in ("class", "struct") \
                        and toks[i + 1].is_ident:
                    self.registry.add_class(toks[i + 1].text, toks, i + 2, j)
                    end = _match_brace(toks, j)
                    self._class_body(toks, rel, ir, j + 1, end - 1,
                                     scope + (toks[i + 1].text,))
                    i = end
                    continue
                if j < hi and toks[j].text == "{":
                    i = _match_brace(toks, j)
                    continue
                i = j + 1
                continue
            if t.text in GUARD_MACROS and i + 1 < hi \
                    and toks[i + 1].text == "(":
                # `Type name HOH_GUARDED_BY(mu);` declares a member too.
                if i > lo and toks[i - 1].is_ident:
                    self._record_member(toks, lo, i - 1, cls)
                end, target = _guard_target(toks, i, hi)
                if target and ir is not None:
                    ir.guarded.add(self._resolve_mutex_name(target, scope))
                i = end
                continue
            if _is_mutex_decl(toks, i, hi):
                name = toks[i + 1].text
                self.registry.members["::".join(scope)][name] = "Mutex"
                self.registry.members[cls][name] = "Mutex"
                if ir is not None:
                    ir.mutexes.append(MutexDecl(
                        mutex_id=self._resolve_mutex_name(name, scope),
                        scope="::".join(scope), file=rel, line=t.line))
                i += 2
                continue
            if t.text == "(":
                consumed = self._maybe_function(toks, rel, ir, i, hi, scope)
                if consumed is not None:
                    i = consumed
                    continue
                i = _match_paren(toks, i)
                continue
            if t.text == "{":
                i = _match_brace(toks, i)
                continue
            if t.is_ident and i + 1 < hi and toks[i + 1].is_ident is False \
                    and toks[i + 1].text in (";", "=") and i > lo:
                # Plain member declaration `Type name;`.
                self._record_member(toks, lo, i, cls)
                i += 2
                continue
            i += 1

    def _record_member(self, toks, lo, name_i, cls):
        """Records the type of the member declared as `Type name`, where
        toks[name_i] is the name and toks[lo:] the class body."""
        chain, start = _ident_chain_before(toks, name_i)
        if start < lo or not chain:
            return
        type_toks = []
        k = start - 1
        while k >= lo and (toks[k].is_ident or toks[k].text in
                           ("::", "<", ">", "&", "*", ",", "mutable",
                            "const")):
            type_toks.append(toks[k].text)
            k -= 1
        type_toks.reverse()
        if type_toks:
            # Raw type string: unordered-container detection needs the
            # full spelling; lock resolution strips it down at the point
            # of use.
            self.registry.members[cls][chain[-1]] = "".join(type_toks)

    @staticmethod
    def _strip_type(type_str: str) -> str:
        """Reduce a member type string to the class name a `->`/`.` access
        lands on: last identifier inside the innermost template args for
        smart pointers, else the last identifier."""
        idents = re.findall(r"[A-Za-z_]\w*", type_str)
        idents = [t for t in idents
                  if t not in ("std", "const", "mutable", "shared_ptr",
                               "unique_ptr", "weak_ptr", "vector", "deque",
                               "optional", "hoh", "common", "pilot", "sim",
                               "mapreduce", "spark", "yarn", "tenant")]
        return idents[-1] if idents else type_str

    def _resolve_mutex_name(self, name: str, scope) -> str:
        cls = scope[-1] if scope else ""
        return f"{cls}::{name}" if cls else name

    # -- function bodies ---------------------------------------------------

    def _maybe_function(self, toks, rel, ir, paren_i, hi, scope):
        """toks[paren_i] == '('. If this is a function definition, parse
        its body and return the index past the closing brace; else None."""
        # Name chain directly before '('.
        if paren_i == 0 or not toks[paren_i - 1].is_ident:
            return None
        chain, start = _ident_chain_before(toks, paren_i - 1)
        if not chain or chain[-1] in CPP_KEYWORDS:
            return None
        close = _match_paren(toks, paren_i)
        # After params: optional qualifiers, then '{' for a definition.
        j = close
        n = len(toks)
        while j < n and j < hi + 1 and toks[j].is_ident and toks[j].text in (
                "const", "noexcept", "override", "final", "mutable"):
            j += 1
        # Trailing annotation macros e.g. HOH_EXCLUDES(mu_)
        while j < n and toks[j].is_ident and toks[j].text.startswith("HOH_"):
            j += 1
            if j < n and toks[j].text == "(":
                j = _match_paren(toks, j)
        if j < n and toks[j].text == "->":  # trailing return type
            while j < n and toks[j].text not in ("{", ";"):
                j += 1
        if j >= n or toks[j].text != "{":
            return None
        # Constructor initializer lists start with ':' before '{'; the
        # loop above stops at '{' only, so handle ': init(...), ...' here.
        # (We reach here only when toks[j] == '{', so initializer lists
        # were already skipped by the qualifier scan failing — handle:)
        body_end = _match_brace(toks, j)
        simple = chain[-1]
        # Drop namespace qualifiers that are registry-known classes only.
        quals = [q for q in chain[:-1]
                 if q not in ("hoh", "std", "common", "pilot", "sim",
                              "mapreduce", "spark", "yarn", "tenant",
                              "saga", "hpc", "elastic", "analytics",
                              "cluster", "hdfs", "detail")]
        cls_scope = list(scope) + quals
        qname = "::".join(cls_scope + [simple]) if cls_scope else simple
        fn = FunctionIR(qname=qname, simple=simple, file=rel,
                        line=toks[paren_i - 1].line)
        params = self._parse_params(toks, paren_i + 1, close - 1)
        self._parse_body(toks, j + 1, body_end - 1, fn, params,
                         tuple(cls_scope), ir)
        self.registry.functions_by_simple[simple].append(fn)
        self.registry.functions_by_qname[qname] = fn
        if ir is not None:
            ir.functions.append(fn)
        return body_end

    @staticmethod
    def _parse_params(toks, lo, hi):
        """Params as {name: stripped_type}; splits on top-level commas."""
        params = {}
        depth = 0
        group: list = []
        groups = [group]
        for k in range(lo, hi):
            t = toks[k].text
            if t in ("<", "(", "["):
                depth += 1
            elif t in (">", ")", "]"):
                depth -= 1
            elif t == "," and depth == 0:
                group = []
                groups.append(group)
                continue
            group.append(toks[k])
        for g in groups:
            idents = [t.text for t in g if t.is_ident]
            if len(idents) >= 2:
                params[idents[-1]] = idents[-2]
        return params

    def _parse_body(self, toks, lo, hi, fn: FunctionIR, params: dict,
                    scope, ir):
        """Single linear walk over a function body with a block stack that
        tracks live MutexLock scopes and local declarations."""
        locals_types = dict(params)
        # stack of (depth, mutex_id) for live locks; depth = brace depth.
        depth = 0
        live_locks: list = []
        i = lo
        while i < hi:
            t = toks[i]
            if t.text == "{":
                depth += 1
                i += 1
                continue
            if t.text == "}":
                depth -= 1
                live_locks = [(d, m) for (d, m) in live_locks if d <= depth]
                i += 1
                continue
            # Local struct/class: treat as class body for guard analysis.
            if t.text in ("struct", "class") and i + 1 < hi \
                    and toks[i + 1].is_ident:
                j = i + 2
                while j < hi and toks[j].text not in ("{", ";", "(", "="):
                    j += 1
                if j < hi and toks[j].text == "{":
                    self.registry.add_class(toks[i + 1].text, toks, i + 2, j)
                    end = _match_brace(toks, j)
                    self._class_body(toks, fn.file, ir, j + 1, end - 1,
                                     (fn.qname, toks[i + 1].text))
                    # Remember the local type name for later var decls,
                    # and handle the `struct Latch { ... } latch;` form
                    # where the declarator trails the body.
                    locals_types[toks[i + 1].text] = toks[i + 1].text
                    if end < hi and toks[end].is_ident \
                            and end + 1 <= hi \
                            and toks[end + 1].text in (";", "=", ","):
                        locals_types[toks[end].text] = toks[i + 1].text
                        end += 2
                    i = end
                    continue
            # MutexLock acquisition.
            if t.is_ident and t.text == "MutexLock" and i + 2 < hi \
                    and toks[i + 1].is_ident and toks[i + 2].text == "(":
                end = _match_paren(toks, i + 2)
                expr = toks[i + 3:end - 1]
                mid = self._resolve_lock_expr(expr, scope, locals_types, fn)
                held = tuple(m for (_, m) in live_locks)
                fn.acquires.append(Acquire(mutex_id=mid, line=t.line,
                                           held=held))
                live_locks.append((depth, mid))
                i = end
                continue
            # Function-local Mutex declaration (rule guard-local-mutex).
            if _is_mutex_decl(toks, i, hi):
                name = toks[i + 1].text
                if ir is not None:
                    ir.mutexes.append(MutexDecl(
                        mutex_id=f"{fn.qname}::{name}", scope="",
                        file=fn.file, line=t.line, function_local=True))
                locals_types[name] = "Mutex"
                i += 2
                continue
            # Range-based for.
            if t.text == "for" and i + 1 < hi and toks[i + 1].text == "(":
                close = _match_paren(toks, i + 1)
                inner = toks[i + 2:close - 1]
                colon_at = self._range_for_colon(inner)
                if colon_at is not None:
                    cont = [tok.text for tok in inner[colon_at + 1:]
                            if tok.is_ident]
                    is_unordered = self._is_unordered(
                        cont, locals_types, scope)
                    if is_unordered:
                        body_lo = close
                        body_hi = (_match_brace(toks, close)
                                   if close < hi and toks[close].text == "{"
                                   else self._stmt_end(toks, close, hi))
                        loop = UnorderedLoop(line=t.line,
                                             container=".".join(cont))
                        self._collect_calls(toks, body_lo, body_hi,
                                            loop.body_calls, live_locks)
                        fn.loops.append(loop)
                        i = body_hi
                        continue
                i = close
                continue
            # Assignment to a state member (rule state-write).
            if t.is_ident and t.text in ("state", "state_") and i + 1 < hi \
                    and toks[i + 1].text == "=" \
                    and (i + 2 >= hi or toks[i + 2].text != "="):
                chain, start = _ident_chain_before(toks, i)
                prev = toks[start - 1] if start - 1 >= 0 else None
                is_decl = prev is not None and prev.is_ident \
                    and prev.text not in ("return", "else")
                if not is_decl:
                    enum = self._state_rhs_enum(toks, i + 2, hi, params,
                                                locals_types)
                    if enum:
                        fn.state_writes.append(StateWrite(
                            line=t.line, lhs=".".join(chain), enum=enum))
                i += 2
                continue
            # Generic call site.
            if t.is_ident and i + 1 < hi and toks[i + 1].text == "(" \
                    and t.text not in CPP_KEYWORDS and t.text != "MutexLock":
                held = tuple(m for (_, m) in live_locks)
                fn.calls.append(self._call_site(toks, i, held, locals_types,
                                                scope))
                # Track declared locals of known unordered types:
                # `std::unordered_map<...> name;` handled below via decl
                # scan; calls just recorded, walk continues inside parens.
                i += 1
                continue
            # Plain local declaration `Type[&*] name ...`: track the
            # variable's type so `x.mu` lock expressions and unordered
            # loops resolve. Conservative: requires the previous token to
            # not be an accessor/scope operator, and the candidate type to
            # look like a class name (leading capital), which is the
            # codebase naming convention.
            if t.is_ident and t.text[0].isupper() \
                    and t.text not in ("Mutex", "MutexLock") \
                    and (i == 0 or toks[i - 1].text not in
                         (".", "->", "::", "<")):
                j = i + 1
                while j < hi and toks[j].text in ("&", "*", "const"):
                    j += 1
                if j < hi and toks[j].is_ident and j + 1 <= hi \
                        and toks[j + 1].text in (";", "=", "(", "{") \
                        and toks[j].text not in CPP_KEYWORDS:
                    locals_types.setdefault(toks[j].text, t.text)
            # Local `std::type name ...`: calls on it are std:: calls.
            if t.is_ident and i >= 2 and toks[i - 1].text == "::" \
                    and toks[i - 2].text == "std" and i + 2 < hi \
                    and toks[i + 1].is_ident \
                    and toks[i + 2].text in (";", "=", "(", "{"):
                locals_types.setdefault(toks[i + 1].text, "std::" + t.text)
            # Local declaration of an unordered container (for loop rule).
            if t.is_ident and t.text in ("unordered_map", "unordered_set"):
                # find the declared name: skip template args, then ident.
                j = i + 1
                if j < hi and toks[j].text == "<":
                    tdepth = 0
                    while j < hi:
                        if toks[j].text == "<":
                            tdepth += 1
                        elif toks[j].text == ">":
                            tdepth -= 1
                            if tdepth == 0:
                                j += 1
                                break
                        elif toks[j].text == ">>":
                            tdepth -= 2
                            if tdepth <= 0:
                                j += 1
                                break
                        j += 1
                while j < hi and toks[j].text in ("&", "*", "const"):
                    j += 1
                if j < hi and toks[j].is_ident:
                    locals_types[toks[j].text] = "unordered"
                i += 1
                continue
            i += 1

    def _call_site(self, toks, i, held, locals_types, scope) -> CallSite:
        """The call whose callee name is toks[i], classified by how it is
        qualified (see CallSite.kind)."""
        chain, j = _ident_chain_before(toks, i)
        # A separator before the chain's first ident: `::f()`, `g().f()`.
        lead = toks[j + 1].text if j < 0 or not toks[j].is_ident else ""
        sep = toks[i - 1].text if len(chain) > 1 else lead
        site = CallSite(callee=chain[-1], receiver=tuple(chain[:-1]),
                        line=toks[i].line, held=held)
        if lead == "::" or (len(chain) > 1 and chain[0] == "std"):
            site.kind = "external"
        elif sep in (".", "->"):
            site.kind = "member"
            if len(chain) == 2 and chain[0] != "this":
                ty = locals_types.get(chain[0])
                if ty is None and scope:
                    ty = self.registry.member_type(scope[-1], chain[0])
                if ty is not None:
                    site.recv_type = self._strip_type(ty)
        return site

    @staticmethod
    def _stmt_end(toks, i, hi):
        while i < hi and toks[i].text != ";":
            if toks[i].text == "(":
                i = _match_paren(toks, i)
                continue
            i += 1
        return i + 1

    @staticmethod
    def _range_for_colon(inner):
        depth = 0
        for k, tok in enumerate(inner):
            t = tok.text
            if t in ("(", "<", "["):
                depth += 1
            elif t in (")", ">", "]"):
                depth -= 1
            elif t == ";":
                return None  # classic for
            elif t == ":" and depth <= 0:
                return k
        return None

    def _is_unordered(self, chain, locals_types, scope):
        if not chain:
            return False
        for name in chain:
            ty = locals_types.get(name)
            if ty is None and scope:
                ty = self.registry.member_type(scope[-1], name)
            if ty and "unordered" in ty:
                return True
            if name in ("unordered_map", "unordered_set"):
                return True
        return False

    def _collect_calls(self, toks, lo, hi, out, live_locks):
        held = tuple(m for (_, m) in live_locks)
        i = lo
        while i < hi:
            t = toks[i]
            if t.is_ident and i + 1 < hi and toks[i + 1].text == "(" \
                    and t.text not in CPP_KEYWORDS:
                chain, _ = _ident_chain_before(toks, i)
                out.append(CallSite(callee=chain[-1],
                                    receiver=tuple(chain[:-1]),
                                    line=t.line, held=held))
            i += 1

    def _resolve_lock_expr(self, expr, scope, locals_types, fn: FunctionIR):
        idents = [t.text for t in expr if t.is_ident]
        if not idents:
            return "<unknown>"
        member = idents[-1]
        if len(idents) == 1:
            # Bare name: member of the enclosing class, a param, or local.
            if scope and self.registry.member_type(scope[-1], member):
                return f"{scope[-1]}::{member}"
            ty = locals_types.get(member)
            if ty == "Mutex":
                return f"{fn.qname}::{member}"
            if ty and ty != "Mutex":
                return f"{ty}::{member}"
            if scope:
                return f"{scope[-1]}::{member}"
            return f"{fn.qname}::{member}"
        base = idents[0]
        ty = locals_types.get(base)
        if ty is None and scope:
            ty = self.registry.member_type(scope[-1], base)
            if ty is not None:
                ty = self._strip_type(ty)
        if ty:
            return f"{ty}::{member}"
        return f"{base}::{member}"

    def _state_rhs_enum(self, toks, i, hi, params, locals_types):
        """Returns 'PilotState'/'UnitState' when the assignment RHS is a
        lifecycle enum value or a variable of that type, else None."""
        k = i
        while k < hi and toks[k].text != ";":
            t = toks[k]
            if t.is_ident and t.text in STATE_ENUMS:
                return t.text
            if t.is_ident:
                ty = params.get(t.text) or locals_types.get(t.text)
                if ty in STATE_ENUMS:
                    return ty
            k += 1
        return None

    # -- token-stream scans -----------------------------------------------

    def _token_scan(self, toks, ir: FileIR) -> None:
        """The token-pattern rules: concurrency, tenant, wire-encoding and
        determinism bans, each skipping the paths its policy table
        exempts (matched on ir.key, see rule_path)."""
        key = ir.key
        primitive_ok = key in PRIMITIVE_ALLOWLIST
        thread_ok = key in THREAD_ALLOWLIST
        tenant = key.startswith(TENANT_DIR_PREFIX)
        wire_exempt = key.startswith(WIRE_DIR_PREFIX)
        det_exempt = key in DET_FILE_ALLOWLIST
        n = len(toks)
        periodic_sites = []

        def flag(tok, rule, message):
            ir.token_findings.append(Finding(ir.path, tok.line, rule,
                                             message))

        def std_qualified(i):
            return i >= 2 and toks[i - 1].text == "::" \
                and toks[i - 2].text == "std"

        def is_call(i):
            return i + 1 < n and toks[i + 1].text == "("

        for i, t in enumerate(toks):
            if not t.is_ident:
                continue
            if std_qualified(i):
                if t.text in NAKED_PRIMITIVES and not primitive_ok:
                    flag(t, "conc-naked-primitive",
                         f"naked synchronisation primitive `std::{t.text}`; "
                         f"use hoh::common::Mutex / MutexLock / CondVar "
                         f"(common/thread_annotations.h)")
                    continue
                if t.text in RAW_THREAD_TYPES and not thread_ok \
                        and not (i + 2 < n and toks[i + 1].text == "::"
                                 and toks[i + 2].text ==
                                 "hardware_concurrency"):
                    flag(t, "conc-raw-thread",
                         f"raw `std::{t.text}`; run work on "
                         f"common::ThreadPool instead")
                    continue
                if tenant and (t.text.startswith("atomic")
                               or t.text in TENANT_BANNED):
                    flag(t, "tenant-threading",
                         f"`std::{t.text}` in src/tenant/; the gateway is "
                         f"deterministic engine-driven code (DESIGN.md "
                         f"§11) and must not use atomics, futures or "
                         f"barriers")
                    continue
            if t.text == "detach" and is_call(i) and i >= 1 \
                    and toks[i - 1].text in (".", "->"):
                flag(t, "conc-detach",
                     "detached thread; detached threads escape "
                     "join/shutdown and TSan analysis")
                continue
            if t.text in SUBMIT_CALLEES and is_call(i) and i + 2 < n \
                    and toks[i + 2].text == "[":
                j = i + 3
                while j < n and toks[j].text != "]":
                    if toks[j].text == "this":
                        flag(t, "conc-this-capture",
                             f"raw `this` captured in a lambda handed to "
                             f"`{t.text}()`; capture members by value or "
                             f"use a weak alive-token")
                        break
                    j += 1
                continue
            if t.text == "schedule_periodic" and is_call(i):
                periodic_sites.append(t)
                continue
            if not wire_exempt:
                if t.text == "reinterpret_cast":
                    flag(t, "wire-encoding",
                         "reinterpret_cast outside src/net/; wire images "
                         "come from the net::Packer codec (DESIGN.md "
                         "§14), not pointer reinterpretation")
                    continue
                if t.text in WIRE_BYTEORDER_IDENTS and is_call(i):
                    flag(t, "wire-encoding",
                         f"byte-order intrinsic `{t.text}()` outside "
                         f"src/net/; endianness is the codec's concern "
                         f"(net::Packer, DESIGN.md §14)")
                    continue
                if t.text in WIRE_MEM_CALLEES and is_call(i):
                    flag(t, "wire-encoding",
                         f"`{t.text}()` outside src/net/; raw-memory "
                         f"serialization bypasses the bounds-checked "
                         f"net::Packer codec (DESIGN.md §14)")
                    continue
            if det_exempt:
                continue
            if t.text in WALLCLOCK_IDENTS:
                flag(t, "det-wallclock",
                     f"wall-clock source `{t.text}`; simulated time comes "
                     f"from sim::Engine::now()")
                continue
            if t.text == "clock" and std_qualified(i):
                flag(t, "det-wallclock",
                     "std::clock; simulated time comes from "
                     "sim::Engine::now()")
                continue
            if t.text in RAND_IDENTS:
                flag(t, "det-rand",
                     f"`{t.text}`; all randomness flows through the seeded "
                     f"common::Rng wrapper")
                continue
            if t.text in RAND_CALLEES and is_call(i) \
                    and (i == 0 or toks[i - 1].text not in (".", "->")):
                unqualified = i == 0 or toks[i - 1].text != "::"
                if std_qualified(i) or unqualified:
                    flag(t, "det-rand",
                         f"`{t.text}()`; all randomness flows through the "
                         f"seeded common::Rng wrapper")
                continue
            if t.text in RNG_ENGINE_TYPES and i + 1 < n \
                    and toks[i + 1].is_ident:
                j = i + 2
                unseeded = False
                if j <= n - 1 and toks[j].text == ";":
                    unseeded = True
                elif j < n and toks[j].text in ("{", "("):
                    closer = "}" if toks[j].text == "{" else ")"
                    if j + 1 < n and toks[j + 1].text == closer:
                        unseeded = True
                if unseeded:
                    flag(t, "det-unseeded-rng",
                         f"`std::{t.text} {toks[i + 1].text}` constructed "
                         f"without a seed; seed every engine explicitly "
                         f"(or use common::Rng)")
        budget = PERIODIC_BUDGET.get(key, 0)
        for t in periodic_sites[budget:]:
            flag(t, "conc-periodic-budget",
                 f"schedule_periodic call site over budget "
                 f"({len(periodic_sites)} found, {budget} allowed); the "
                 f"control plane is event-driven — use a StateStore watch "
                 f"or sim::DeadlineTimer, or extend PERIODIC_BUDGET with a "
                 f"DESIGN.md justification")


# --------------------------------------------------------------------------
# Rule evaluation over the collected IR
# --------------------------------------------------------------------------


def eval_rules(files: list, registry: Registry) -> tuple:
    findings: list = []
    for ir in files:
        findings.extend(ir.token_findings)
        findings.extend(_guard_rules(ir))
        findings.extend(_state_rules(ir))
        for line, rules in ir.unjustified:
            findings.append(Finding(
                ir.path, line, "suppression-unjustified",
                f"suppression for {', '.join(rules)} has no `--` "
                f"justification; explain why the site is safe"))
    findings.extend(_unordered_emit_rules(files, registry))
    graph, cycle_findings = _lock_order(files, registry)
    findings.extend(cycle_findings)
    # Apply per-site suppressions.
    by_file = {ir.path: ir.suppressions for ir in files}
    kept = []
    for f in findings:
        rules = by_file.get(f.file, {}).get(f.line, set())
        if f.rule in rules and f.rule != "suppression-unjustified":
            continue
        kept.append(f)
    return kept, graph


def _guard_rules(ir: FileIR):
    out = []
    for m in ir.mutexes:
        if m.function_local:
            out.append(Finding(
                m.file, m.line, "guard-local-mutex",
                f"function-local mutex `{m.mutex_id}` cannot carry "
                f"HOH_GUARDED_BY; hoist it into a struct with annotated "
                f"members (see ThreadPool::parallel_for's Latch)"))
            continue
        if m.mutex_id not in ir.guarded:
            out.append(Finding(
                m.file, m.line, "guard-missing",
                f"`{m.mutex_id}` guards no HOH_GUARDED_BY member; "
                f"-Wthread-safety cannot check what it protects"))
    return out


def _state_rules(ir: FileIR):
    out = []
    if ir.key in STATE_GATE_FILES:
        return out
    for fn in ir.functions:
        if fn.qname in STATE_GATE_FUNCTIONS:
            continue
        for w in fn.state_writes:
            out.append(Finding(
                ir.path, w.line, "state-write",
                f"direct {w.enum} store `{w.lhs} = ...` in "
                f"{fn.qname}; lifecycle mutations must flow through "
                f"StateStore::update / Pilot::set_state so "
                f"validate_transition gates every edge"))
    return out


def _unordered_emit_rules(files: list, registry: Registry):
    # reaches-sink fixpoint over the simple-name call graph.
    sink_cache: dict = {}

    def call_is_sink(call: CallSite) -> bool:
        if call.callee in SINK_NAMES:
            return True
        return any(h in r.lower() for r in call.receiver
                   for h in SINK_RECEIVER_HINTS)

    def reaches_sink(simple: str, seen: frozenset) -> bool:
        if simple in sink_cache:
            return sink_cache[simple]
        if simple in seen:
            return False
        result = False
        for fn in registry.functions_by_simple.get(simple, []):
            for call in fn.calls:
                if call_is_sink(call) or reaches_sink(
                        call.callee, seen | {simple}):
                    result = True
                    break
            if result:
                break
        sink_cache[simple] = result
        return result

    out = []
    for ir in files:
        for fn in ir.functions:
            for loop in fn.loops:
                hit = None
                for call in loop.body_calls:
                    if call_is_sink(call):
                        hit = call
                        break
                    if reaches_sink(call.callee, frozenset()):
                        hit = call
                        break
                if hit is not None:
                    out.append(Finding(
                        ir.path, loop.line, "det-unordered-emit",
                        f"iteration over unordered container "
                        f"`{loop.container}` reaches emission path via "
                        f"`{hit.callee}()`; hash-bucket order leaks into "
                        f"replayable output — sort keys first or emit "
                        f"from an ordered copy"))
    return out


def _class_of(fn: FunctionIR):
    """The class a function is a member of; None for a free function."""
    parts = fn.qname.split("::")
    return parts[-2] if len(parts) > 1 else None


def _callees(call: CallSite, caller: FunctionIR, registry: Registry) -> set:
    """The qualified names of the analyzed functions `call`, made in
    `caller`, may enter."""
    if call.kind == "external" or call.callee in GENERIC_CALLEES:
        return set()
    fns = registry.functions_by_simple.get(call.callee, [])
    if call.kind == "plain" and not call.receiver:
        # A bare f() in a member function finds the class's own f first.
        family = registry.family(_class_of(caller) or "")
        own = [f for f in fns if _class_of(f) in family]
        fns = own or fns
    elif call.kind == "member":
        family = registry.family(call.recv_type) \
            if call.recv_type is not None else None
        fns = [f for f in fns if _class_of(f) is not None
               and (family is None or _class_of(f) in family)]
    return {f.qname for f in fns}


def _lock_order(files: list, registry: Registry):
    """Build the cross-TU MutexLock nesting graph and report cycles."""
    # may_acquire fixpoint: qualified fn name -> set of mutex ids acquired
    # by the function or anything it calls.
    direct = defaultdict(set)
    calls = defaultdict(set)
    resolved = {}   # id(CallSite) -> callee qnames
    for ir in files:
        for fn in ir.functions:
            for a in fn.acquires:
                direct[fn.qname].add(a.mutex_id)
            for c in fn.calls:
                resolved[id(c)] = _callees(c, fn, registry)
                calls[fn.qname] |= resolved[id(c)]
    may = {k: set(v) for k, v in direct.items()}
    changed = True
    while changed:
        changed = False
        for f, callees in calls.items():
            cur = may.setdefault(f, set())
            before = len(cur)
            for c in callees:
                cur |= may.get(c, set())
            if len(cur) != before:
                changed = True

    edges = defaultdict(list)   # (from, to) -> [site]
    for ir in files:
        for fn in ir.functions:
            for a in fn.acquires:
                for h in a.held:
                    if h != a.mutex_id:
                        edges[(h, a.mutex_id)].append(
                            f"{ir.path}:{a.line}")
            for c in fn.calls:
                if not c.held:
                    continue
                targets = set()
                for callee in resolved[id(c)]:
                    targets |= may.get(callee, set())
                for target in targets:
                    for h in c.held:
                        if h != target:
                            edges[(h, target)].append(
                                f"{ir.path}:{c.line} (via {c.callee})")

    findings = []
    # Self-deadlock: re-acquiring a held mutex (direct nesting only — the
    # interprocedural may-acquire set is a name-based over-approximation,
    # too coarse to accuse a specific call path of self-deadlock).
    for ir in files:
        for fn in ir.functions:
            for a in fn.acquires:
                if a.mutex_id in a.held:
                    findings.append(Finding(
                        ir.path, a.line, "lock-order-self",
                        f"`{a.mutex_id}` re-acquired while already held in "
                        f"{fn.qname}; common::Mutex is non-recursive"))

    nodes = sorted({n for e in edges for n in e}
                   | {m for ms in direct.values() for m in ms})
    graph = {
        "nodes": nodes,
        "edges": [
            {"from": a, "to": b, "sites": sorted(set(sites))[:8]}
            for (a, b), sites in sorted(edges.items())
        ],
        "cycles": [],
    }

    # Tarjan SCC over the edge set.
    adj = defaultdict(set)
    for (a, b) in edges:
        adj[a].add(b)
    index_of: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list = []
    counter = [0]

    def strongconnect(v):
        work = [(v, iter(sorted(adj[v])))]
        index_of[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index_of:
                    index_of[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)

    for v in sorted(adj):
        if v not in index_of:
            strongconnect(v)

    for scc in sccs:
        cyclic = len(scc) > 1 or (len(scc) == 1 and scc[0] in adj[scc[0]])
        if not cyclic:
            continue
        members = sorted(scc)
        graph["cycles"].append(members)
        sites = []
        for a in members:
            for b in members:
                if (a, b) in edges:
                    sites.append(edges[(a, b)][0])
        site = sites[0] if sites else "<unknown>:0"
        file, _, line = site.partition(":")
        line_no = int(re.match(r"\d+", line).group(0)) if \
            re.match(r"\d+", line) else 0
        findings.append(Finding(
            file, line_no, "lock-order-cycle",
            f"lock-order cycle between {{{', '.join(members)}}}; "
            f"potential deadlock — fix the nesting or document a single "
            f"global order"))
    return graph, findings


# --------------------------------------------------------------------------
# File-set discovery
# --------------------------------------------------------------------------


def discover_files(repo: pathlib.Path, args):
    """Returns the ordered file list. With -p, the TU set comes from
    compile_commands.json (the tier-1 preset exports it) plus every header
    under src/ (the engine and RDD layers are header-only); with --paths,
    a plain tree walk."""
    rels: dict = {}
    if args.build_dir:
        db = pathlib.Path(args.build_dir) / "compile_commands.json"
        if not db.is_file():
            print(f"hoh_analyze: {db} not found; configure with "
                  f"CMAKE_EXPORT_COMPILE_COMMANDS=ON (the tier1 preset "
                  f"does)", file=sys.stderr)
            sys.exit(2)
        for entry in json.loads(db.read_text()):
            f = pathlib.Path(entry["directory"]) / entry["file"] \
                if not pathlib.Path(entry["file"]).is_absolute() \
                else pathlib.Path(entry["file"])
            f = f.resolve()
            try:
                rel = f.relative_to(repo).as_posix()
            except ValueError:
                continue
            if not rel.startswith("src/"):
                continue
            rels[rel] = f
        for f in sorted((repo / "src").rglob("*")):
            if f.suffix in (".h", ".hpp") and f.is_file():
                rels.setdefault(f.relative_to(repo).as_posix(), f)
    else:
        for root in args.paths or ["src"]:
            rootp = pathlib.Path(root)
            if not rootp.is_absolute():
                rootp = repo / root
            for f in sorted(rootp.rglob("*")):
                if f.suffix in SOURCE_SUFFIXES and f.is_file():
                    try:
                        rel = f.resolve().relative_to(repo).as_posix()
                    except ValueError:
                        rel = f.resolve().as_posix()
                    rels[rel] = f
    return sorted(rels.items())


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hoh_analyze.py",
        description="AST-level concurrency / determinism / lock-order / "
                    "state-discipline / annotation-coverage / wire-encoding "
                    "analyzer (see module docstring)")
    parser.add_argument("-p", "--build-dir",
                        help="build dir containing compile_commands.json "
                             "(tier-1 preset exports it)")
    parser.add_argument("--paths", nargs="*",
                        help="analyze these trees instead of a compile db")
    parser.add_argument("--dot", help="write the lock-order graph as DOT")
    parser.add_argument("--graph-json",
                        help="write the lock-order graph as JSON")
    args = parser.parse_args(argv)

    repo = pathlib.Path(__file__).resolve().parent.parent.parent
    files = discover_files(repo, args)
    if not files:
        print("hoh_analyze: no source files found", file=sys.stderr)
        return 2

    frontend = InternalFrontend(repo)
    for rel, path in files:          # pass 1: declarations
        frontend.scan_declarations(path, rel)
    irs = [frontend.analyze(path, rel) for rel, path in files]  # pass 2

    findings, graph = eval_rules(irs, frontend.registry)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))

    if args.dot:
        lines = ["digraph lock_order {", '  rankdir=LR;',
                 '  node [shape=box, fontname="monospace"];']
        for node in graph["nodes"]:
            lines.append(f'  "{node}";')
        for e in graph["edges"]:
            label = e["sites"][0] if e["sites"] else ""
            lines.append(f'  "{e["from"]}" -> "{e["to"]}" '
                         f'[label="{label}"];')
        for cyc in graph["cycles"]:
            for node in cyc:
                lines.append(f'  "{node}" [color=red, penwidth=2];')
        lines.append("}")
        pathlib.Path(args.dot).write_text("\n".join(lines) + "\n")
    if args.graph_json:
        pathlib.Path(args.graph_json).write_text(
            json.dumps(graph, indent=2) + "\n")

    for f in findings:
        print(f.render())
    print(f"hoh_analyze: {len(files)} files, {len(findings)} finding(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
