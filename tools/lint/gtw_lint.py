#!/usr/bin/env python3
"""gtw-lint v2: determinism & simulation-correctness checker for the testbed.

Every reproduced number in this repo rests on the claim that the DES is a
pure function of its inputs and seeds, layered the way DESIGN.md says it is.
gtw-lint encodes those claims as machine-checked source rules.

v2 replaces the line-regex scanner with a real C++ token stream: a small
hand-written lexer strips comments, string/char literals and raw strings
(including multi-line R"( ... )" bodies) and yields identifiers, numbers and
punctuation with file:line spans.  Rules match token sequences, so they no
longer fire inside string literals or comments, and they see constructs the
line regexes missed (multi-line declarations, uppercase exponents, calls
split across lines).  On top of the per-file rules, a whole-project pass
runs after scanning to check cross-file invariants.

Per-file rules
--------------
  unordered-container   std::unordered_{map,set,multimap,multiset} declared
                        in simulator code.  Iteration order is unspecified
                        and varies across libstdc++ versions and hash seeds.
                        Use std::map/std::set, or a vector sorted on a
                        stable key.
  unordered-iter        Iteration (range-for, or .begin()/iterator walk)
                        over a name declared as an unordered container in
                        the same file.
  raw-entropy           rand()/srand()/random()/drand48()/lrand48()/
                        std::random_device/std::mt19937 outside des/random.
                        All randomness must flow through the seeded des::Rng.
  wall-clock            std::chrono::{system,steady,high_resolution}_clock,
                        time(...), clock(), gettimeofday, clock_gettime
                        outside des/time.  Simulated time comes from
                        des::Scheduler::now().
  pointer-order         Ordering or hashing on raw pointer values
                        (std::map/std::set keyed on T*, std::hash<T*>).
                        Addresses vary run to run; key on stable ids.
  past-schedule         Textually negative schedule targets:
                        schedule_after(-x) or schedule_at(now() - x).
  raw-rate-double       A `double`/`float` variable suffixed _bps/_Bps, or a
                        bare e6/e9 scientific literal forming a rate on a
                        line that talks about rates/bandwidth, outside
                        src/units/.  Construct units::BitRate/ByteRate.
  unitless-size-param   A function parameter spelled `uint32_t/uint64_t
                        ...bytes...` in src/net/.  Sizes crossing the net
                        API boundary must be units::Bytes.
  raw-metric-print      std::cout / printf / fprintf(stdout) / puts in
                        src/.  Metrics leave the simulator through the
                        stable-ordered obs exporters or returned strings.
  pool-bypass-new       `new`/make_unique/make_shared of an event or packet
                        record (Entry, Frame, IpPacket) in src/.  These live
                        in des::SlabPool arenas (DESIGN.md par. 10).
  meta-raw-tcp          `TcpConnection` named in src/meta/ outside
                        path_transport.  The meta layer reaches the WAN
                        through meta::PathTransport only.
  check-side-effect     A mutating expression (assignment, ++/--, compound
                        assignment) inside the argument of a GTW_CHECK_HOOK(
                        ...) invocation.  Hook sites must observe, never
                        steer: anything they mutate exists only in checked
                        builds, so a side effect here makes the checked and
                        unchecked builds simulate different worlds.  Checker-
                        private state maintenance belongs in an explicit
                        `#if defined(GTW_CHECK)` block, not in the macro.
  span-unclosed         (src/ outside src/obs/)  A member call to
                        begin_span() or mint() whose returned span id /
                        TraceContext is discarded.  A lost id can never be
                        ended, aborted or closed, so the leak surfaces only
                        as a failed drain census (obs.span.leak) long after
                        the offending line; store the result and retire it
                        on every exit path.
  unit-escape           A `.value()`/`.count()` extraction whose result
                        flows, on the same statement, back into a units::
                        construction or unit factory — in src/ outside
                        src/units/ (which owns the raw representation;
                        tests/benches legitimately assert on raw scalars).
                        Round-tripping through the raw scalar is how unit
                        bugs re-enter; use the typed operator set instead
                        (`window / 2`, `units::per(bytes.to_bits(), dt)`).

Whole-project rules (run after per-file scanning)
-------------------------------------------------
  layer-violation       An `#include "mod/..."` edge between src/ modules
                        that the declared module DAG (tools/lint/layers.toml)
                        does not allow, or a src/ module missing from the
                        declaration entirely.
  layer-cycle           A cycle in the observed module include graph,
                        reported with a full include chain of file:line
                        witnesses.  (The declared DAG itself is validated
                        acyclic at load time.)
  obs-name-registry     Every dotted-name string literal registered through
                        probe_counter()/probe_gauge() is collected
                        tree-wide (src/ only).
                        The same leaf name registered with two different
                        instrument kinds, or two names differing only by
                        case, is a wiring bug.  The collected names form a
                        catalog (--emit-obs-catalog) that a ctest diffs
                        against the committed tools/lint/obs_catalog.json,
                        so new metrics must be cataloged in-diff.
  check-coverage        Component types taken by instrument_*/attach_*
                        functions in src/obs/ are diffed against
                        the types taken by attach_* functions in src/check/:
                        a component observable through the obs catalog but
                        absent from the GTW-San attach catalog is a coverage
                        hole — every instrumented component must also be
                        checkable.  Runs only when the scan includes
                        src/check/ files, so partial-tree scans stay silent.
  event-lifetime        (src/ only)  A schedule_after()/schedule_at() whose
                        returned EventHandle is discarded inside a member
                        function of a class that elsewhere stores handles —
                        the timer-leak pattern: the class clearly intends to
                        manage lifetimes, and an unsaved handle cannot be
                        cancelled on teardown.  Also a `[&]`-capture lambda
                        passed to a delayed schedule from a non-member
                        (free-function) scope — the dangling-capture
                        pattern: the locals it captures by reference are
                        dead by the time the event fires unless the caller
                        provably outlives the scheduler run.

Suppression: append `// gtw-lint: allow(<rule>[, <rule>...])` to the
offending line, or place it alone on the line above, and say why.
Allowlist annotations are grep-able, so every exception is visible in-diff.
`--fix-allowlist` prints ready-to-paste annotation lines for triaged
findings (each carries a TODO(justify) stub that review must fill in).

Output: human-readable findings by default; `--json FILE` additionally
writes a SARIF 2.1.0 log for CI inline annotations; `--summary` appends a
one-line per-rule hit count.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
No dependencies beyond the Python standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

SOURCE_EXTENSIONS = (".cpp", ".hpp", ".cc", ".hh", ".h")

ALLOW_RE = re.compile(r"//\s*gtw-lint:\s*allow\(([^)]*)\)")

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
#
# A deliberately small hand-written C++ lexer.  It is not a full phase-3
# translator: its contract is (a) comments and literal *contents* never
# reach the rule matchers, (b) every token carries the 1-based line it
# started on, (c) multi-character operators that rules reason about
# (::, ->, ==, ...) arrive as single tokens so `=` means assignment.

ID_RE = re.compile(r"[A-Za-z_]\w*")
# pp-number: digits with optional ' separators, suffixes, and exponents.
NUM_RE = re.compile(r"\.?\d(?:'[\da-fA-F]|[eEpP][+-]|[\w.])*")
RAW_STR_RE = re.compile(r'(?:u8|[uUL])?R"([^ ()\\\t\r\n]*)\(')
STR_PREFIX_RE = re.compile(r'(?:u8|[uUL])?"')

PUNCT3 = ("<=>", "<<=", ">>=", "...", "->*")
PUNCT2 = ("::", "->", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
          "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "++", "--", ".*")


@dataclass
class Token:
    kind: str   # 'id' | 'num' | 'str' | 'chr' | 'punct'
    text: str   # literal text (for 'str': the decoded-ish content)
    line: int   # 1-based line the token starts on

    def __repr__(self) -> str:  # compact for debugging
        return f"{self.kind}:{self.text}@{self.line}"


def lex(text: str) -> list[Token]:
    toks: list[Token] = []
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
        if c == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                j = text.find("\n", i)
                i = n if j == -1 else j
                continue
            if nxt == "*":
                j = text.find("*/", i + 2)
                if j == -1:
                    line += text.count("\n", i)
                    i = n
                else:
                    line += text.count("\n", i, j + 2)
                    i = j + 2
                continue
        if c in "RuUL":  # possible raw / prefixed string
            m = RAW_STR_RE.match(text, i)
            if m:
                delim = m.group(1)
                close = ")" + delim + '"'
                j = text.find(close, m.end())
                start = line
                if j == -1:
                    content = text[m.end():]
                    line += text.count("\n", i)
                    i = n
                else:
                    content = text[m.end():j]
                    line += text.count("\n", i, j + len(close))
                    i = j + len(close)
                toks.append(Token("str", content, start))
                continue
        m = STR_PREFIX_RE.match(text, i)
        if m:
            j = m.end()
            buf = []
            while j < n and text[j] not in '"\n':
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j:j + 2])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            toks.append(Token("str", "".join(buf), line))
            i = j + 1 if j < n and text[j] == '"' else j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = NUM_RE.match(text, i)
            toks.append(Token("num", m.group(0), line))
            i = m.end()
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] not in "'\n":
                j += 2 if text[j] == "\\" else 1
            toks.append(Token("chr", text[i + 1:j], line))
            i = j + 1 if j < n and text[j] == "'" else j
            continue
        if c.isalpha() or c == "_":
            m = ID_RE.match(text, i)
            toks.append(Token("id", m.group(0), line))
            i = m.end()
            continue
        three = text[i:i + 3]
        if three in PUNCT3:
            toks.append(Token("punct", three, line))
            i += 3
            continue
        two = text[i:i + 2]
        if two in PUNCT2:
            toks.append(Token("punct", two, line))
            i += 2
            continue
        toks.append(Token("punct", c, line))
        i += 1
    return toks


# ---------------------------------------------------------------------------
# Source file model
# ---------------------------------------------------------------------------

@dataclass
class SourceFile:
    path: str
    relpath: str
    raw_lines: list[str]
    tokens: list[Token]
    allows: dict[int, set[str]] = field(default_factory=dict)
    # #include "..." directives as (line, include_path)
    includes: list[tuple[int, str]] = field(default_factory=list)


def collect_allows(lines: list[str]) -> dict[int, set[str]]:
    """Map line number (1-based) -> set of rules allowed on that line.

    An annotation on a comment-only line (no code before the `//`) also
    covers the line directly below it, so it can sit above the construct it
    excuses and carry a trailing justification, e.g.
    `// gtw-lint: allow(unit-escape) — conversion boundary`.
    """
    allows: dict[int, set[str]] = {}
    for idx, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allows.setdefault(idx, set()).update(rules)
        if line[:m.start()].strip() == "":
            allows.setdefault(idx + 1, set()).update(rules)
    return allows


def collect_includes(toks: list[Token]) -> list[tuple[int, str]]:
    """Extract `#include "path"` directives from the token stream."""
    out = []
    for k in range(len(toks) - 2):
        if (toks[k].kind == "punct" and toks[k].text == "#"
                and toks[k + 1].kind == "id" and toks[k + 1].text == "include"
                and toks[k + 2].kind == "str"):
            out.append((toks[k].line, toks[k + 2].text))
    return out


def load_source(path: str, relpath: str) -> SourceFile:
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines()
    toks = lex(text)
    sf = SourceFile(path, relpath, raw_lines, toks)
    sf.allows = collect_allows(raw_lines)
    sf.includes = collect_includes(toks)
    return sf


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------

@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Reporter:
    """Collects findings, honouring per-line allow() annotations."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []

    def report(self, sf: SourceFile, line: int, rule: str, msg: str) -> None:
        if rule in sf.allows.get(line, ()):  # suppressed in-diff
            return
        self.findings.append(Finding(sf.relpath, line, rule, msg))


def in_module(relpath: str, *parts: str) -> bool:
    norm = relpath.replace(os.sep, "/")
    return any(p in norm for p in parts)


# ---------------------------------------------------------------------------
# Token helpers
# ---------------------------------------------------------------------------

MEMBER_PREFIX = {".", "->", "::"}


def is_id(t: Token, *names: str) -> bool:
    return t.kind == "id" and t.text in names


def is_p(t: Token, *texts: str) -> bool:
    return t.kind == "punct" and t.text in texts


def prev_tok(toks: list[Token], i: int) -> Token | None:
    return toks[i - 1] if i > 0 else None


def is_member_access(toks: list[Token], i: int) -> bool:
    """True if token i is reached through . / -> / :: (a qualified name)."""
    p = prev_tok(toks, i)
    return p is not None and p.kind == "punct" and p.text in MEMBER_PREFIX


def matching_close(toks: list[Token], i: int,
                   open_: str, close: str) -> int | None:
    """Index of the bracket matching toks[i] (which must be `open_`)."""
    depth = 0
    for k in range(i, len(toks)):
        if is_p(toks[k], open_):
            depth += 1
        elif is_p(toks[k], close):
            depth -= 1
            if depth == 0:
                return k
    return None


def template_close(toks: list[Token], i: int) -> int | None:
    """Index of the `>` matching the `<` at i (treating >> as two >)."""
    depth = 0
    for k in range(i, len(toks)):
        t = toks[k]
        if is_p(t, "<"):
            depth += 1
        elif is_p(t, ">"):
            depth -= 1
            if depth == 0:
                return k
        elif is_p(t, ">>"):
            depth -= 2
            if depth <= 0:
                return k
        elif is_p(t, ";"):  # never inside a type we care about
            return None
    return None


def statement_start(toks: list[Token], i: int) -> int:
    """Index of the first token of the statement containing toks[i]."""
    k = i - 1
    while k >= 0:
        if is_p(toks[k], ";", "{", "}"):
            return k + 1
        k -= 1
    return 0


# ---------------------------------------------------------------------------
# Per-file rules (token-stream matchers)
# ---------------------------------------------------------------------------

UNORDERED = ("unordered_map", "unordered_set",
             "unordered_multimap", "unordered_multiset")
ENTROPY_CALLS = ("rand", "srand", "random", "srandom",
                 "drand48", "lrand48", "rand_r")
CLOCK_IDS = ("system_clock", "steady_clock", "high_resolution_clock")
ORDERED_ASSOC = ("map", "set", "multimap", "multiset")
POOLED_TYPES = ("Entry", "Frame", "IpPacket")
UNIT_TYPES = ("Bytes", "Bits", "Cells", "Ops",
              "BitRate", "ByteRate", "OpRate")

MUTATING_OPS = ("=", "++", "--", "+=", "-=", "*=", "/=", "%=",
                "&=", "|=", "^=", "<<=", ">>=")

RATE_NAME_RE = re.compile(r"\w*_(?:bps|Bps)$")
# Scientific literal whose exponent normalizes to 6 or 9 (1E6, 2.4e+09, ...).
SCI_RATE_RE = re.compile(r"^\d+(?:\.\d+)?[eE]\+?0*([69])$")
RATE_CONTEXT_RE = re.compile(
    r"rate|bandwidth|bps|goodput|throughput|line", re.IGNORECASE)
BYTES_NAME_RE = re.compile(r"\w*bytes\w*")


def check_per_file(sf: SourceFile, rep: Reporter) -> None:
    toks = sf.tokens
    relpath = sf.relpath

    # des/random owns entropy; des/time legitimately names clocks.
    entropy_exempt = in_module(relpath, "des/random")
    clock_exempt = in_module(relpath, "des/time", "des/random")
    # src/units/ defines the unit types themselves and so legitimately
    # multiplies by 1e6/1e9 inside the factories (and reads .count()).
    rate_exempt = in_module(relpath, "src/units", "units/units")
    # unit-escape polices library code; tests/benches legitimately read raw
    # scalars to assert on them, and src/units/ owns the raw representation.
    unit_escape_guard = (in_module(relpath, "src/")
                        and not in_module(relpath, "src/units/"))
    net_boundary = in_module(relpath, "net/")
    library_code = in_module(relpath, "src/")
    meta_wan_guard = (in_module(relpath, "src/meta/")
                      and not in_module(relpath, "path_transport"))
    # span-unclosed polices the *producers* of spans; src/obs/ implements
    # the tracer itself (its methods legitimately manipulate raw ids).
    span_guard = (in_module(relpath, "src/")
                  and not in_module(relpath, "src/obs/"))

    # Group tokens by line for the line-context checks raw-rate-double needs.
    line_toks: dict[int, list[Token]] = {}
    for t in toks:
        line_toks.setdefault(t.line, []).append(t)

    def line_text(lineno: int) -> str:
        return " ".join(t.text for t in line_toks.get(lineno, ()))

    def line_has_typed_rate(lineno: int) -> bool:
        lt = line_toks.get(lineno, ())
        for k, t in enumerate(lt):
            if is_id(t, "BitRate", "ByteRate", "OpRate", "units"):
                return True
            if (is_p(t, ".") and k + 2 < len(lt)
                    and is_id(lt[k + 1], "bps", "kbps", "mbps", "gbps")
                    and is_p(lt[k + 2], "(")):
                return True
        return False

    unordered_names: set[str] = set()

    # ---- single forward scan for the sequence-anchored rules -------------
    for i, t in enumerate(toks):
        # std :: <something>
        if is_id(t, "std") and i + 2 < len(toks) and is_p(toks[i + 1], "::"):
            head = toks[i + 2]
            if head.kind == "id" and head.text in UNORDERED:
                rep.report(sf, t.line, "unordered-container",
                           "unordered container in simulator code: iteration "
                           "order is unspecified and varies run-to-run; use "
                           "std::map/std::set or a sorted vector (or annotate "
                           "why ordering can never escape)")
                # Track the declared name (possibly multi-line) so
                # unordered-iter can flag walks over it.
                if i + 3 < len(toks) and is_p(toks[i + 3], "<"):
                    close = template_close(toks, i + 3)
                    if (close is not None and close + 2 < len(toks)
                            and toks[close + 1].kind == "id"
                            and is_p(toks[close + 2], ";", "=", "{")):
                        unordered_names.add(toks[close + 1].text)
            if (head.kind == "id" and head.text in ORDERED_ASSOC
                    and i + 3 < len(toks) and is_p(toks[i + 3], "<")):
                # pointer-order: first template argument ends in `*`.
                k, depth = i + 4, 1
                last_real = None
                while k < len(toks):
                    tk = toks[k]
                    if is_p(tk, "<"):
                        depth += 1
                    elif is_p(tk, ">", ">>"):
                        depth -= 2 if tk.text == ">>" else 1
                        if depth <= 0:
                            break
                    elif is_p(tk, ",") and depth == 1:
                        break
                    elif is_p(tk, ";"):
                        break
                    if not is_p(tk, ">", ">>"):
                        last_real = tk
                    k += 1
                if last_real is not None and is_p(last_real, "*"):
                    rep.report(sf, t.line, "pointer-order",
                               "ordering/hashing on raw pointer values: "
                               "addresses vary run-to-run (allocator, ASLR) "
                               "and must not feed event order; key on a "
                               "stable id instead")
            if (head.kind == "id" and head.text in ("hash", "less")
                    and i + 3 < len(toks) and is_p(toks[i + 3], "<")):
                close = template_close(toks, i + 3)
                if (close is not None and close >= 1
                        and is_p(toks[close - 1], "*")):
                    rep.report(sf, t.line, "pointer-order",
                               "ordering/hashing on raw pointer values: "
                               "addresses vary run-to-run (allocator, ASLR) "
                               "and must not feed event order; key on a "
                               "stable id instead")
            if not entropy_exempt and is_id(head, "random_device",
                                            "mt19937", "mt19937_64"):
                rep.report(sf, t.line, "raw-entropy",
                           "raw entropy source outside des::random; all "
                           "simulator randomness must flow through the "
                           "seeded des::Rng")
            if library_code and is_id(head, "cout"):
                rep.report(sf, t.line, "raw-metric-print",
                           "direct stdout printing in library code; metrics "
                           "leave the simulator through the obs exporters "
                           "(write_metrics_json, write_chrome_trace) or "
                           "as a returned string the caller prints")

        if t.kind != "id":
            continue
        nxt = toks[i + 1] if i + 1 < len(toks) else None

        # Unqualified calls.
        if (nxt is not None and is_p(nxt, "(")
                and not is_member_access(toks, i)):
            if not entropy_exempt and t.text in ENTROPY_CALLS:
                rep.report(sf, t.line, "raw-entropy",
                           "raw entropy source outside des::random; all "
                           "simulator randomness must flow through the "
                           "seeded des::Rng")
            if not clock_exempt:
                if t.text in ("gettimeofday", "clock_gettime"):
                    rep.report(sf, t.line, "wall-clock",
                               "wall-clock time in simulator code; simulated "
                               "time comes from des::Scheduler::now()")
                elif (t.text == "time" and i + 2 < len(toks)
                      and (is_id(toks[i + 2], "NULL", "nullptr")
                           or (toks[i + 2].kind == "num"
                               and toks[i + 2].text == "0")
                           or is_p(toks[i + 2], "&"))):
                    rep.report(sf, t.line, "wall-clock",
                               "wall-clock time in simulator code; simulated "
                               "time comes from des::Scheduler::now()")
                elif (t.text == "clock" and i + 2 < len(toks)
                      and is_p(toks[i + 2], ")")):
                    rep.report(sf, t.line, "wall-clock",
                               "wall-clock time in simulator code; simulated "
                               "time comes from des::Scheduler::now()")
            if library_code and t.text in ("printf", "puts"):
                rep.report(sf, t.line, "raw-metric-print",
                           "direct stdout printing in library code; metrics "
                           "leave the simulator through the obs exporters "
                           "(write_metrics_json, write_chrome_trace) or "
                           "as a returned string the caller prints")
            if (library_code and t.text == "fprintf" and i + 2 < len(toks)
                    and is_id(toks[i + 2], "stdout")):
                rep.report(sf, t.line, "raw-metric-print",
                           "direct stdout printing in library code; metrics "
                           "leave the simulator through the obs exporters "
                           "(write_metrics_json, write_chrome_trace) or "
                           "as a returned string the caller prints")

        # Bare clock type names (with or without std::chrono:: qualifier).
        if not clock_exempt and t.text in CLOCK_IDS:
            rep.report(sf, t.line, "wall-clock",
                       "wall-clock time in simulator code; simulated time "
                       "comes from des::Scheduler::now()")

        # past-schedule.
        if t.text in ("schedule_after", "schedule_at") and nxt is not None \
                and is_p(nxt, "("):
            if t.text == "schedule_after" and i + 2 < len(toks) \
                    and is_p(toks[i + 2], "-"):
                rep.report(sf, t.line, "past-schedule",
                           "event scheduled before the current DES clock; "
                           "targets must be >= now()")
            if t.text == "schedule_at":
                close = matching_close(toks, i + 1, "(", ")")
                if close is not None:
                    for k in range(i + 2, close - 2):
                        if (is_id(toks[k], "now") and is_p(toks[k + 1], "(")
                                and is_p(toks[k + 2], ")")
                                and k + 3 < len(toks)
                                and is_p(toks[k + 3], "-")):
                            rep.report(sf, t.line, "past-schedule",
                                       "event scheduled before the current "
                                       "DES clock; targets must be >= now()")
                            break

        # raw-rate-double: declaration form.
        if (not rate_exempt and t.text in ("double", "float")
                and nxt is not None and nxt.kind == "id"
                and RATE_NAME_RE.match(nxt.text)):
            rep.report(sf, t.line, "raw-rate-double",
                       "raw floating-point rate variable; use units::BitRate"
                       " / units::ByteRate so bits and bytes cannot be "
                       "confused at a call site")

        # unitless-size-param.
        if net_boundary and t.text in ("uint32_t", "uint64_t") \
                and nxt is not None and nxt.kind == "id" \
                and BYTES_NAME_RE.match(nxt.text) and "bytes" in nxt.text:
            p = prev_tok(toks, i)
            if p is not None and is_p(p, "::"):
                p = toks[i - 3] if i >= 3 else None  # skip std ::
            if p is not None and is_p(p, "(", ","):
                rep.report(sf, t.line, "unitless-size-param",
                           "unitless byte-count parameter on a net API; take "
                           "units::Bytes so the caller cannot pass bits or "
                           "cells")

        # pool-bypass-new: new [ns::]Type
        if library_code and t.text == "new" \
                and not is_member_access(toks, i):
            k = i + 1
            last_id = None
            while k < len(toks) and (toks[k].kind == "id"
                                     or is_p(toks[k], "::")):
                if toks[k].kind == "id":
                    last_id = toks[k].text
                k += 1
            if last_id in POOLED_TYPES:
                rep.report(sf, t.line, "pool-bypass-new",
                           "heap allocation of a pooled event/packet record; "
                           "the per-event hot path is allocation-free — "
                           "acquire slots from the owning des::SlabPool "
                           "instead")
        if library_code and t.text in ("make_unique", "make_shared") \
                and nxt is not None and is_p(nxt, "<"):
            close = template_close(toks, i + 1)
            if close is not None:
                last_id = None
                for k in range(i + 2, close):
                    if toks[k].kind == "id":
                        last_id = toks[k].text
                    elif not is_p(toks[k], "::"):
                        last_id = last_id  # arrays: `Entry[]` keeps the id
                if last_id in POOLED_TYPES:
                    rep.report(sf, t.line, "pool-bypass-new",
                               "heap allocation of a pooled event/packet "
                               "record; the per-event hot path is "
                               "allocation-free — acquire slots from the "
                               "owning des::SlabPool instead")

        # meta-raw-tcp.
        if meta_wan_guard and t.text == "TcpConnection":
            rep.report(sf, t.line, "meta-raw-tcp",
                       "raw TcpConnection in src/meta/ outside PathTransport; "
                       "the meta layer's WAN traffic goes through "
                       "meta::PathTransport (a pass-through PathConfig keeps "
                       "single-stream behaviour byte-identical)")

    # ---- raw-rate-double: scientific-literal form ------------------------
    if not rate_exempt:
        for i, t in enumerate(toks):
            if t.kind != "num":
                continue
            m = SCI_RATE_RE.match(t.text)
            if not m:
                continue
            bare_one = re.match(r"^1[eE]\+?0*[69]$", t.text) is not None
            p = prev_tok(toks, i)
            scaled = p is not None and is_p(p, "*")
            if bare_one and not scaled:
                continue  # `x / 1e6` pretty-printing stays legal
            if not RATE_CONTEXT_RE.search(line_text(t.line)):
                continue
            if line_has_typed_rate(t.line):
                continue
            rep.report(sf, t.line, "raw-rate-double",
                       "bare e6/e9 literal forming a rate; construct it "
                       "through units::BitRate::mbps()/gbps() (or the named "
                       "net::kOc*Line constants) instead")

    # ---- unordered-iter --------------------------------------------------
    if unordered_names:
        for i, t in enumerate(toks):
            if t.kind == "id" and t.text in unordered_names:
                nxt = toks[i + 1] if i + 1 < len(toks) else None
                # name . begin|cbegin|rbegin (
                if (nxt is not None and is_p(nxt, ".") and i + 3 < len(toks)
                        and is_id(toks[i + 2], "begin", "cbegin", "rbegin")
                        and is_p(toks[i + 3], "(")):
                    rep.report(sf, t.line, "unordered-iter",
                               f"iteration over unordered container "
                               f"'{t.text}': visit order is unspecified and "
                               "will diverge between runs; sort on a stable "
                               "key first")
                # for ( ... : name )
                if (nxt is not None and is_p(nxt, ")") and i >= 1
                        and is_p(toks[i - 1], ":")):
                    k = i - 2
                    ok = False
                    while k >= 0:
                        if is_p(toks[k], ";", "{", "}"):
                            break
                        if is_id(toks[k], "for"):
                            ok = True
                            break
                        k -= 1
                    if ok:
                        rep.report(sf, t.line, "unordered-iter",
                                   f"iteration over unordered container "
                                   f"'{t.text}': visit order is unspecified "
                                   "and will diverge between runs; sort on a "
                                   "stable key first")

    # ---- check-side-effect ----------------------------------------------
    for i, t in enumerate(toks):
        if not is_id(t, "GTW_CHECK_HOOK"):
            continue
        if i + 1 >= len(toks) or not is_p(toks[i + 1], "("):
            continue
        p = prev_tok(toks, i)
        if p is not None and is_id(p, "define"):
            continue  # the macro's own #define, not an invocation
        close = matching_close(toks, i + 1, "(", ")")
        if close is None:
            continue
        for k in range(i + 2, close):
            tk = toks[k]
            if tk.kind == "punct" and tk.text in MUTATING_OPS:
                rep.report(sf, tk.line, "check-side-effect",
                           f"mutating '{tk.text}' inside a GTW_CHECK_HOOK "
                           "argument: hooks must observe, never steer — a "
                           "side effect here exists only in checked builds, "
                           "so checked and unchecked runs simulate different "
                           "worlds; move checker-state maintenance into an "
                           "explicit #if defined(GTW_CHECK) block")

    # ---- span-unclosed ---------------------------------------------------
    # begin_span() returns the span id; mint() returns the TraceContext.
    # Discarding either is a guaranteed leak: the span can never be ended
    # or aborted, the trace never closed, and the GTW_CHECK drain census
    # (obs.span.leak) will fire long after the offending line ran.  Catch
    # it at the call site instead.  Member-access requirement skips the
    # SpanTracer definitions themselves (SpanTracer::begin_span).
    if span_guard:
        for i, t in enumerate(toks):
            if not is_id(t, "begin_span", "mint"):
                continue
            if i + 1 >= len(toks) or not is_p(toks[i + 1], "("):
                continue
            if not is_member_access(toks, i):
                continue
            s = statement_start(toks, i)
            consumed = False
            depth = 0
            for k in range(s, i):
                tk = toks[k]
                if is_p(tk, "=") or is_id(tk, "return") \
                        or (tk.kind == "punct" and tk.text.endswith("=")
                            and tk.text not in ("==", "!=", "<=", ">=")):
                    consumed = True
                    break
                if is_p(tk, "(", "[", "{"):
                    depth += 1
                elif is_p(tk, ")", "]", "}"):
                    depth -= 1
            if depth > 0:  # inside an argument list: result is consumed
                consumed = True
            if not consumed:
                what = ("span id" if t.text == "begin_span"
                        else "TraceContext")
                rep.report(
                    sf, t.line, "span-unclosed",
                    f"returned {what} from {t.text}() discarded; a span "
                    "whose id is lost can never be ended or aborted and "
                    "will trip the drain leak census — store the result "
                    "and close it on every exit path (or annotate why "
                    "another owner retires it)")

    # ---- unit-escape -----------------------------------------------------
    if unit_escape_guard:
        check_unit_escape(sf, rep)


def _is_stmt_boundary(toks: list[Token], i: int) -> bool:
    t = toks[i]
    if is_p(t, ";", "}"):
        return True
    if is_p(t, "{"):
        # Block braces end a statement; brace-init lists (`Bytes{n}`,
        # `= {...}`, `push_back({...})`) do not.
        p = prev_tok(toks, i)
        return (p is None or is_p(p, ")", ";", "{", "}")
                or is_id(p, "else", "do", "try"))
    return False


def check_unit_escape(sf: SourceFile, rep: Reporter) -> None:
    """Flag statements where a .value()/.count() raw extraction flows back
    into a units:: construction or unit-type factory on the same statement."""
    toks = sf.tokens
    start = 0
    for i in range(len(toks) + 1):
        if i < len(toks) and not _is_stmt_boundary(toks, i):
            continue
        stmt = toks[start:i + 1]  # keep the closing token: `Bytes{x.count()}`
        start = i + 1
        extract_line = None
        reenters = False
        for k, t in enumerate(stmt):
            if (is_p(t, ".", "->") and k + 3 < len(stmt)
                    and is_id(stmt[k + 1], "value", "count")
                    and is_p(stmt[k + 2], "(") and is_p(stmt[k + 3], ")")):
                extract_line = extract_line or stmt[k + 1].line
            # A unit *construction* (not a parameter/member declaration):
            # units::Bytes{...}, units::Bytes(...), units::BitRate::bps(...),
            # or the same spellings without the units:: qualifier.
            head = k
            if is_id(t, "units") and k + 2 < len(stmt) \
                    and is_p(stmt[k + 1], "::"):
                head = k + 2
            th = stmt[head]
            if th.kind == "id" and th.text in UNIT_TYPES \
                    and head + 1 < len(stmt):
                after = stmt[head + 1]
                if is_p(after, "{", "("):
                    reenters = True
                elif (is_p(after, "::") and head + 3 < len(stmt)
                      and stmt[head + 2].kind == "id"
                      and is_p(stmt[head + 3], "(")):
                    reenters = True
        if extract_line is not None and reenters:
            rep.report(sf, extract_line, "unit-escape",
                       ".value()/.count() raw extraction re-enters a "
                       "unit-typed expression on the same statement; stay "
                       "inside the type system (scalar *, / on the unit "
                       "type, units::per(), to_bits()) so bits and bytes "
                       "cannot be swapped in the raw gap")


# ---------------------------------------------------------------------------
# Structural pass: scopes, handle-storing classes, event-lifetime
# ---------------------------------------------------------------------------

@dataclass
class Scope:
    kind: str                 # 'ns' | 'class' | 'fn' | 'lambda' | 'block'
    name: str | None = None   # class/ns/fn name
    class_name: str | None = None  # for 'fn': owning class, if any


CONTROL_KEYWORDS = ("if", "for", "while", "switch", "catch")
FN_TAIL_SKIP = ("const", "noexcept", "override", "final", "mutable",
                "volatile", "&", "&&", "*", "::", "<", ">", ",")


def _classify_brace(toks: list[Token], i: int,
                    stack: list[Scope]) -> Scope:
    """Classify the scope opened by the `{` at index i."""
    # Immediate-previous token shortcuts: initializer lists, else/do/try.
    p = prev_tok(toks, i)
    if p is None:
        return Scope("block")
    if p.kind == "punct" and p.text in (";", "=", ",", "(", "[",
                                        "{", "}", "return"):
        return Scope("block")
    if is_id(p, "else", "do", "try"):
        return Scope("block")
    if is_p(p, "]"):  # capture-only lambda:  [...]{ }
        return Scope("lambda")

    # namespace [name] {
    if is_id(p, "namespace"):
        return Scope("ns")
    if p.kind == "id" and i >= 2 and is_id(toks[i - 2], "namespace"):
        return Scope("ns", name=p.text)

    # class/struct ... {  — scan back for the keyword within the head.
    k = i - 1
    seen_paren = False
    while k >= 0 and not is_p(toks[k], ";", "{", "}"):
        if is_p(toks[k], ")"):
            seen_paren = True
        if is_id(toks[k], "class", "struct", "union") and not seen_paren:
            # name = first id after the keyword
            if k + 1 < len(toks) and toks[k + 1].kind == "id":
                return Scope("class", name=toks[k + 1].text)
            return Scope("class")
        if is_id(toks[k], "enum"):
            return Scope("block")
        k -= 1

    # Function / lambda / control statement: walk back over the tail
    # (const, noexcept, trailing return) to the parameter-list `)`.
    k = i - 1
    while k >= 0 and ((toks[k].kind == "id"
                       and toks[k].text in FN_TAIL_SKIP)
                      or is_p(toks[k], *FN_TAIL_SKIP)
                      or is_p(toks[k], "->")):
        k -= 1
    if k < 0 or not is_p(toks[k], ")"):
        return Scope("block")

    # Find the matching `(`, unwinding constructor-initializer lists:
    # `Foo::Foo(...) : a_(x), b_{y} {` — keep walking left while the token
    # before the candidate `(`'s head is `,` or `:`.
    while True:
        depth = 0
        j = k
        while j >= 0:
            if is_p(toks[j], ")", "}"):
                depth += 1
            elif is_p(toks[j], "(", "{"):
                depth -= 1
                if depth == 0:
                    break
            j -= 1
        if j < 0:
            return Scope("block")
        head = j - 1  # token before the `(`
        if head >= 0 and is_p(toks[head], "]"):
            return Scope("lambda")
        if head >= 0 and toks[head].kind == "id":
            name_tok = toks[head]
            if name_tok.text in CONTROL_KEYWORDS:
                return Scope("block")
            before = head - 1
            if before >= 0 and is_p(toks[before], ",", ":") \
                    and not is_p(toks[before], "::"):
                # ctor-initializer item: continue unwinding to its left.
                k = before
                while k >= 0 and not is_p(toks[k], ")", "}"):
                    k -= 1
                if k < 0:
                    return Scope("block")
                continue
            cls = None
            if before >= 0 and is_p(toks[before], "::") \
                    and before - 1 >= 0 and toks[before - 1].kind == "id":
                cls = toks[before - 1].text
            else:
                for s in reversed(stack):
                    if s.kind == "class":
                        cls = s.name
                        break
                    if s.kind in ("fn", "lambda"):
                        break
            return Scope("fn", name=name_tok.text, class_name=cls)
        return Scope("block")


def scan_scopes(sf: SourceFile):
    """Yield (index, token, stack) for every token, maintaining the scope
    stack; also collects class names that declare EventHandle members into
    sf_handle_classes (returned)."""
    toks = sf.tokens
    stack: list[Scope] = []
    handle_classes: set[str] = set()
    sites = []  # (index, stack snapshot) for schedule_* call tokens
    for i, t in enumerate(toks):
        if is_p(t, "{"):
            stack.append(_classify_brace(toks, i, stack))
            continue
        if is_p(t, "}"):
            if stack:
                stack.pop()
            continue
        # EventHandle member declaration at class-body level.
        if (t.kind == "id" and t.text == "EventHandle" and stack
                and stack[-1].kind == "class" and stack[-1].name):
            k = i + 1
            if k < len(toks) and toks[k].kind == "id" \
                    and k + 1 < len(toks) \
                    and is_p(toks[k + 1], ";", "=", "{"):
                handle_classes.add(stack[-1].name)
        if (t.kind == "id" and t.text in ("schedule_after", "schedule_at")
                and i + 1 < len(toks) and is_p(toks[i + 1], "(")):
            sites.append((i, list(stack)))
    return sites, handle_classes


def enclosing_fn(stack: list[Scope]) -> Scope | None:
    """Nearest function scope, looking out through lambdas and blocks."""
    for s in reversed(stack):
        if s.kind == "fn":
            return s
    return None


def check_event_lifetime(files: list[SourceFile], rep: Reporter) -> None:
    """Whole-project pass: classes storing EventHandle members are collected
    tree-wide, then schedule calls are checked in src/ files."""
    all_sites: list[tuple[SourceFile, list]] = []
    handle_classes: set[str] = set()
    for sf in files:
        sites, classes = scan_scopes(sf)
        handle_classes |= classes
        if in_module(sf.relpath, "src/"):
            all_sites.append((sf, sites))

    for sf, sites in all_sites:
        toks = sf.tokens
        for i, stack in sites:
            t = toks[i]
            fn = enclosing_fn(stack)
            close = matching_close(toks, i + 1, "(", ")")
            if close is None:
                continue

            # Pattern 1: discarded handle in a member function of a class
            # that elsewhere stores handles.
            if fn is not None and fn.class_name in handle_classes:
                # The call must be the head of its statement: scan back and
                # require no assignment/return/consumption before it.
                s = statement_start(toks, i)
                consumed = False
                depth = 0
                for k in range(s, i):
                    tk = toks[k]
                    if is_p(tk, "=", "return") or is_id(tk, "return") \
                            or tk.kind == "punct" and tk.text.endswith("=") \
                            and tk.text not in ("==", "!=", "<=", ">="):
                        consumed = True
                        break
                    if is_p(tk, "(", "["):
                        depth += 1
                    elif is_p(tk, ")", "]"):
                        depth -= 1
                if depth > 0:  # inside an argument list: result is consumed
                    consumed = True
                if not consumed:
                    rep.report(
                        sf, t.line, "event-lifetime",
                        f"returned EventHandle discarded inside "
                        f"'{fn.class_name}', which stores handles elsewhere; "
                        "an unsaved handle cannot be cancelled on teardown — "
                        "store it in a member (or annotate why this event "
                        "provably outlives the object)")

            # Pattern 2: [&]-capture lambda scheduled from non-member scope.
            if fn is not None and fn.class_name is None:
                for k in range(i + 2, close - 1):
                    if (is_p(toks[k], "[") and is_p(toks[k + 1], "&")
                            and k + 2 <= close and is_p(toks[k + 2], "]")):
                        rep.report(
                            sf, t.line, "event-lifetime",
                            "[&]-capture lambda passed to a delayed schedule "
                            "from non-member scope; the locals it captures "
                            "by reference are dead when the event fires "
                            "unless this scope provably outlives the "
                            "scheduler run — capture by value (or annotate "
                            "why the frame outlives the event)")
                        break


# ---------------------------------------------------------------------------
# Whole-project pass: module layering
# ---------------------------------------------------------------------------

def load_layers(path: str) -> dict[str, list[str]]:
    import tomllib
    with open(path, "rb") as f:
        data = tomllib.load(f)
    modules = data.get("modules")
    if not isinstance(modules, dict):
        raise ValueError(f"{path}: missing [modules] table")
    for mod, deps in modules.items():
        if not isinstance(deps, list):
            raise ValueError(f"{path}: modules.{mod} must be a list")
        for d in deps:
            if d not in modules:
                raise ValueError(
                    f"{path}: modules.{mod} depends on undeclared '{d}'")
    # The declared DAG itself must be acyclic.
    state: dict[str, int] = {}

    def dfs(m: str, chain: list[str]) -> None:
        state[m] = 1
        for d in modules[m]:
            if state.get(d) == 1:
                cyc = chain[chain.index(d):] + [d] if d in chain else [m, d]
                raise ValueError(
                    f"{path}: declared layer graph has a cycle: "
                    + " -> ".join(cyc))
            if state.get(d, 0) == 0:
                dfs(d, chain + [d])
        state[m] = 2

    for m in modules:
        if state.get(m, 0) == 0:
            dfs(m, [m])
    return {m: list(deps) for m, deps in modules.items()}


def file_module(relpath: str) -> str | None:
    norm = relpath.replace(os.sep, "/")
    if not norm.startswith("src/"):
        return None
    parts = norm.split("/")
    return parts[1] if len(parts) >= 3 else None


def check_layering(files: list[SourceFile],
                   layers: dict[str, list[str]],
                   rep: Reporter) -> None:
    # module -> dep module -> first witness (SourceFile, line, include text)
    edges: dict[str, dict[str, tuple[SourceFile, int, str]]] = {}
    for sf in files:
        mod = file_module(sf.relpath)
        if mod is None:
            continue
        if mod not in layers:
            rep.report(sf, 1, "layer-violation",
                       f"module 'src/{mod}/' is not declared in layers.toml; "
                       "add it to the [modules] table with its allowed "
                       "dependencies")
            continue
        for line, inc in sf.includes:
            dep = inc.split("/", 1)[0] if "/" in inc else None
            if dep is None or dep == mod or dep not in layers:
                continue
            edges.setdefault(mod, {}).setdefault(dep, (sf, line, inc))
            if dep not in layers[mod]:
                rep.report(sf, line, "layer-violation",
                           f"include edge '{mod} -> {dep}' is not allowed by "
                           f"layers.toml ('{inc}'); either the include is a "
                           "layering bug to refactor away, or the module DAG "
                           "must be deliberately widened in-diff")

    # Cycle detection over the observed module graph, with include-chain
    # witnesses.  DFS in sorted order keeps reports deterministic.
    state: dict[str, int] = {}
    reported: set[frozenset] = set()

    def dfs(m: str, chain: list[str]) -> None:
        state[m] = 1
        for dep in sorted(edges.get(m, ())):
            if state.get(dep) == 1 and dep in chain:
                cyc = chain[chain.index(dep):] + [dep]
                key = frozenset(cyc)
                if key not in reported:
                    reported.add(key)
                    hops = []
                    for a, b in zip(cyc, cyc[1:]):
                        w = edges[a][b]
                        hops.append(f"{a} -> {b} "
                                    f"({w[0].relpath}:{w[1]} includes "
                                    f"\"{w[2]}\")")
                    wit = edges[cyc[0]][cyc[1]]
                    rep.report(wit[0], wit[1], "layer-cycle",
                               "module include cycle: " + "; ".join(hops))
            elif state.get(dep, 0) == 0:
                dfs(dep, chain + [dep])
        state[m] = 2

    for m in sorted(edges):
        if state.get(m, 0) == 0:
            dfs(m, [m])


# ---------------------------------------------------------------------------
# Whole-project pass: obs name registry
# ---------------------------------------------------------------------------

OBS_REGISTER = {
    "probe_counter": "counter",
    "probe_gauge": "gauge",
}


@dataclass
class ObsSite:
    name: str
    kind: str
    relpath: str
    line: int
    prefixed: bool  # name built as `prefix + "leaf"`


def collect_obs_sites(files: list[SourceFile]) -> list[ObsSite]:
    sites: list[ObsSite] = []
    for sf in files:
        if not in_module(sf.relpath, "src/"):
            continue
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in OBS_REGISTER:
                continue
            if not is_member_access(toks, i):
                continue  # declarations/definitions, not registry calls
            if i + 1 >= len(toks) or not is_p(toks[i + 1], "("):
                continue
            # First argument: tokens up to the first `,` at depth 1.
            k, depth = i + 1, 0
            strs: list[Token] = []
            others = 0
            while k < len(toks):
                tk = toks[k]
                if is_p(tk, "(", "[", "{"):
                    depth += 1
                elif is_p(tk, ")", "]", "}"):
                    depth -= 1
                    if depth == 0:
                        break
                elif is_p(tk, ",") and depth == 1:
                    break
                elif depth >= 1:
                    if tk.kind == "str":
                        strs.append(tk)
                    elif not is_p(tk, "+"):
                        others += 1
                k += 1
            if not strs:
                continue  # fully dynamic name: nothing statically checkable
            leaf = strs[-1]
            sites.append(ObsSite(leaf.text, OBS_REGISTER[t.text],
                                 sf.relpath, leaf.line,
                                 prefixed=others > 0 or len(strs) > 1))
    sites.sort(key=lambda s: (s.name, s.kind, s.relpath, s.line))
    return sites


def check_obs_registry(files: list[SourceFile], rep: Reporter,
                       sites: list[ObsSite]) -> None:
    by_file = {sf.relpath: sf for sf in files}
    by_name: dict[str, list[ObsSite]] = {}
    for s in sites:
        by_name.setdefault(s.name, []).append(s)

    for name, group in sorted(by_name.items()):
        kinds = sorted({s.kind for s in group})
        if len(kinds) > 1:
            where = ", ".join(f"{s.relpath}:{s.line} ({s.kind})"
                              for s in group)
            for s in group:
                rep.report(by_file[s.relpath], s.line, "obs-name-registry",
                           f"metric name '{name}' registered with "
                           f"conflicting kinds [{', '.join(kinds)}] — "
                           f"sites: {where}; one semantic name must map to "
                           "one instrument kind")

    by_lower: dict[str, set[str]] = {}
    for name in by_name:
        by_lower.setdefault(name.lower(), set()).add(name)
    for lower, variants in sorted(by_lower.items()):
        if len(variants) > 1:
            for name in sorted(variants):
                for s in by_name[name]:
                    rep.report(by_file[s.relpath], s.line,
                               "obs-name-registry",
                               f"metric name '{name}' differs only by case "
                               f"from {sorted(variants - {name})}; exporters "
                               "sort lexicographically, so case twins "
                               "reorder silently — pick one spelling")


def obs_catalog(sites: list[ObsSite]) -> dict:
    metrics: dict[tuple[str, str], dict] = {}
    for s in sites:
        ent = metrics.setdefault((s.name, s.kind), {
            "name": s.name, "kind": s.kind, "prefixed": s.prefixed,
            "sites": []})
        ent["sites"].append(f"{s.relpath}:{s.line}")
        ent["prefixed"] = ent["prefixed"] or s.prefixed
    return {
        "_comment": ("Generated by gtw-lint --emit-obs-catalog: every "
                     "statically-registered obs metric name in src/.  The "
                     "gtw_lint_obs_catalog ctest diffs this against a fresh "
                     "scan, so new/renamed metrics must update this file "
                     "in the same commit."),
        "metrics": [metrics[k] for k in sorted(metrics)],
    }


# ---------------------------------------------------------------------------
# Whole-project pass: GTW-San attach-catalog coverage
# ---------------------------------------------------------------------------
#
# src/obs/ names the components worth observing (instrument_*/attach_*
# parameter types); src/check/ names the components GTW-San can
# check (attach_* parameter types).  The first set minus the second is the
# sanitizer's blind spot, reported per missing component at the obs
# declaration that proves the component matters.

# Simulator modules whose qualified types count as components when they
# appear in a catalog function's parameter list.  Deliberately excludes
# units (value types), std, and the catalogs' own modules (obs, check).
COMPONENT_MODULES = ("des", "net", "exec", "trace", "flow", "meta",
                     "testbed", "linalg", "fire", "scanner", "viz", "apps")
# Qualified value types that ride along in catalog signatures without
# being components themselves.
COMPONENT_IGNORE = {("des", "SimTime"), ("des", "EventHandle")}


def collect_component_params(
        files: list[SourceFile], subdir: str,
        prefixes: tuple[str, ...]) -> dict[tuple[str, str],
                                           tuple[SourceFile, int]]:
    """Qualified component types named in the parameter lists (or argument
    lists) of catalog functions under `subdir`, with a first witness."""
    refs: dict[tuple[str, str], tuple[SourceFile, int]] = {}
    for sf in files:
        if not in_module(sf.relpath, subdir):
            continue
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind != "id" or not t.text.startswith(prefixes):
                continue
            if i + 1 >= len(toks) or not is_p(toks[i + 1], "("):
                continue
            close = matching_close(toks, i + 1, "(", ")")
            if close is None:
                continue
            for k in range(i + 2, close - 1):
                a = toks[k]
                if (a.kind == "id" and a.text in COMPONENT_MODULES
                        and is_p(toks[k + 1], "::")
                        and toks[k + 2].kind == "id"):
                    pair = (a.text, toks[k + 2].text)
                    if pair not in COMPONENT_IGNORE:
                        refs.setdefault(pair, (sf, a.line))
    return refs


def check_check_coverage(files: list[SourceFile], rep: Reporter) -> None:
    # Partial-tree scans (single files, src/net only, ...) must stay
    # silent: the diff is only meaningful when the check catalog was part
    # of the scan at all.
    if not any(in_module(sf.relpath, "src/check/") for sf in files):
        return
    observed = collect_component_params(
        files, "src/obs/", ("instrument_", "attach_"))
    checked = collect_component_params(files, "src/check/", ("attach_",))
    for pair, (sf, line) in sorted(observed.items(),
                                   key=lambda kv: kv[0]):
        if pair not in checked:
            rep.report(sf, line, "check-coverage",
                       f"component type '{pair[0]}::{pair[1]}' is "
                       "instrumented in src/obs/ but has no attach_* entry "
                       "in the src/check/ GTW-San catalog — every "
                       "observable component must also be checkable; add "
                       "an attach_* taking it (src/check/attach.hpp) or "
                       "justify the blind spot in-diff")


# ---------------------------------------------------------------------------
# Output & driver
# ---------------------------------------------------------------------------

PER_FILE_RULES = [
    "unordered-container", "unordered-iter", "raw-entropy", "wall-clock",
    "pointer-order", "past-schedule", "raw-rate-double",
    "unitless-size-param", "raw-metric-print", "pool-bypass-new",
    "meta-raw-tcp", "unit-escape", "check-side-effect", "span-unclosed",
]
PROJECT_RULES = [
    "layer-violation", "layer-cycle", "obs-name-registry", "event-lifetime",
    "check-coverage",
]
RULES = PER_FILE_RULES + PROJECT_RULES

RULE_HELP = {
    "unordered-container": "unordered container in simulator code",
    "unordered-iter": "iteration over an unordered container",
    "raw-entropy": "entropy source outside des::Rng",
    "wall-clock": "wall-clock time in simulator code",
    "pointer-order": "ordering/hashing on raw pointer values",
    "past-schedule": "event scheduled before the current DES clock",
    "raw-rate-double": "raw floating-point rate outside src/units/",
    "unitless-size-param": "raw byte-count parameter on a net API",
    "raw-metric-print": "direct stdout printing in library code",
    "pool-bypass-new": "heap allocation of a pooled event/packet record",
    "meta-raw-tcp": "raw TcpConnection in src/meta/",
    "unit-escape": ".value()/.count() re-entering unit-typed expressions",
    "check-side-effect": "mutating expression inside GTW_CHECK_HOOK",
    "span-unclosed": "discarded begin_span()/mint() result",
    "layer-violation": "include edge not allowed by the module DAG",
    "layer-cycle": "cycle in the module include graph",
    "obs-name-registry": "metric name kind/case collision",
    "event-lifetime": "discarded EventHandle or dangling [&] capture",
    "check-coverage": "component observable via obs but absent from "
                      "src/check/",
}


def write_sarif(path: str, findings: list[Finding]) -> None:
    sarif = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "gtw-lint",
                "informationUri": "tools/lint/gtw_lint.py",
                "rules": [{"id": r,
                           "shortDescription": {"text": RULE_HELP[r]}}
                          for r in RULES],
            }},
            "results": [{
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path.replace(os.sep, "/")},
                        "region": {"startLine": f.line},
                    }}],
            } for f in findings],
        }],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(sarif, f, indent=2, sort_keys=True)
        f.write("\n")


def iter_sources(root: str, paths: list[str]) -> list[tuple[str, str]]:
    found: list[tuple[str, str]] = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            found.append((full, os.path.relpath(full, root)))
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTENSIONS):
                    fp = os.path.join(dirpath, fn)
                    found.append((fp, os.path.relpath(fp, root)))
    return found


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(
        prog="gtw-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories to scan (default: src)")
    ap.add_argument("--root", default=".",
                    help="repo root; findings are reported relative to it")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--layers", default=None,
                    help="module DAG declaration (default: layers.toml "
                         "next to this script)")
    ap.add_argument("--json", metavar="FILE", default=None,
                    help="also write findings as SARIF 2.1.0 to FILE")
    ap.add_argument("--summary", action="store_true",
                    help="print a one-line per-rule hit count")
    ap.add_argument("--fix-allowlist", action="store_true",
                    help="print ready-to-paste allow() annotation lines "
                         "for the findings instead of the findings")
    ap.add_argument("--emit-obs-catalog", metavar="FILE", default=None,
                    help="write the collected obs metric catalog as JSON")
    ap.add_argument("--check-obs-catalog", metavar="FILE", default=None,
                    help="fail unless FILE matches a fresh catalog scan")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    active = set(RULES)
    if args.rules:
        active = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = active - set(RULES)
        if unknown:
            print(f"gtw-lint: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    root = os.path.abspath(args.root)
    paths = args.paths or ["src"]
    sources = iter_sources(root, paths)
    if not sources:
        print("gtw-lint: no source files found", file=sys.stderr)
        return 2

    files: list[SourceFile] = []
    for full, rel in sources:
        try:
            files.append(load_source(full, rel))
        except OSError as e:
            print(f"gtw-lint: cannot read {full}: {e}", file=sys.stderr)
            return 2

    rep = Reporter()
    for sf in files:
        check_per_file(sf, rep)

    # Whole-project pass (after per-file scanning).
    if {"layer-violation", "layer-cycle"} & active:
        layers_path = args.layers or os.path.join(here, "layers.toml")
        try:
            layers = load_layers(layers_path)
        except (OSError, ValueError) as e:
            print(f"gtw-lint: {e}", file=sys.stderr)
            return 2
        check_layering(files, layers, rep)

    obs_sites = collect_obs_sites(files)
    if "obs-name-registry" in active:
        check_obs_registry(files, rep, obs_sites)
    if "event-lifetime" in active:
        check_event_lifetime(files, rep)
    if "check-coverage" in active:
        check_check_coverage(files, rep)

    findings = sorted((f for f in rep.findings if f.rule in active),
                      key=lambda f: (f.path, f.line, f.rule))

    catalog_drift = False
    if args.emit_obs_catalog:
        with open(args.emit_obs_catalog, "w", encoding="utf-8") as f:
            json.dump(obs_catalog(obs_sites), f, indent=2, sort_keys=True)
            f.write("\n")
    if args.check_obs_catalog:
        fresh = obs_catalog(obs_sites)
        try:
            with open(args.check_obs_catalog, encoding="utf-8") as f:
                committed = json.load(f)
        except (OSError, ValueError) as e:
            print(f"gtw-lint: cannot read committed obs catalog: {e}",
                  file=sys.stderr)
            return 2
        if committed != fresh:
            catalog_drift = True
            old = {(m["name"], m["kind"])
                   for m in committed.get("metrics", [])}
            new = {(m["name"], m["kind"]) for m in fresh["metrics"]}
            for name, kind in sorted(new - old):
                print(f"gtw-lint: obs catalog: NEW metric '{name}' ({kind}) "
                      "not in committed catalog", file=sys.stderr)
            for name, kind in sorted(old - new):
                print(f"gtw-lint: obs catalog: metric '{name}' ({kind}) "
                      "vanished from the tree", file=sys.stderr)
            if old == new:
                print("gtw-lint: obs catalog: site/prefix details drifted",
                      file=sys.stderr)
            print(f"gtw-lint: regenerate with: gtw_lint.py "
                  f"--emit-obs-catalog {args.check_obs_catalog} src",
                  file=sys.stderr)

    if args.fix_allowlist:
        if not findings:
            print("gtw-lint: nothing to allow — tree is clean",
                  file=sys.stderr)
        for f in findings:
            summary = f.message.split(";")[0].split("—")[0].strip()
            print(f"{f.path}:{f.line}:")
            print(f"  // gtw-lint: allow({f.rule}) — TODO(justify): "
                  f"{summary}")
    else:
        for f in findings:
            print(f.render())

    if args.json:
        write_sarif(args.json, findings)

    counts: dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    if args.summary:
        if counts:
            hits = " ".join(f"{r}={counts[r]}" for r in RULES if r in counts)
        else:
            hits = "none"
        print(f"gtw-lint: rule hits: {hits}")
    n = len(findings)
    print(f"gtw-lint: {len(sources)} file(s) scanned, {n} finding(s)",
          file=sys.stderr)
    return 1 if findings or catalog_drift else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
