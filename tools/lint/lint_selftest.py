#!/usr/bin/env python3
"""Self-test for gtw-lint: every rule must fire on its known-bad fixture
and stay silent on clean (and allow-annotated) code.

Runs gtw_lint.py as a subprocess against each fixture in
tools/lint/fixtures/ and compares the set of (rule, count) findings with
the expectation table below.  Whole-project rules (layering, obs registry,
event lifetime) get fixture *trees* — the layering ones carry their own
layers.toml, passed via --layers.  Also exercises --rules filtering, the
--json SARIF output, and the obs-catalog emit/check round trip.
Registered as the `gtw_lint_selftest` ctest.

Exit status: 0 all expectations met, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "gtw_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

FINDING_RE = re.compile(r"^(.*?):(\d+): \[([\w-]+)\] ")

# fixture (relative to fixtures/, file or directory) -> {rule: count}.
# Paths under bad/src/ and clean/src/ exercise the rules that only apply
# inside the source tree (the scanner matches on the "src/" path segment).
EXPECTATIONS = {
    "bad/unordered_container.cpp": {"unordered-container": 1},
    "bad/unordered_iter.cpp": {"unordered-container": 1, "unordered-iter": 2},
    "bad/raw_entropy.cpp": {"raw-entropy": 4},
    "bad/wall_clock.cpp": {"wall-clock": 3},
    "bad/pointer_order.cpp": {"pointer-order": 3},
    "bad/past_schedule.cpp": {"past-schedule": 2},
    # line 7 carries both the decl form and the literal form — the v1
    # line-regex reported it once; the token scanner sees both.
    "bad/raw_rate_double.cpp": {"raw-rate-double": 5},
    # declarations split across physical lines: invisible to v1's
    # line-at-a-time regexes, caught by the token stream.
    "bad/tokenizer_wins.cpp": {"unordered-container": 1,
                               "raw-rate-double": 1},
    "bad/net/unitless_size_param.cpp": {"unitless-size-param": 2},
    "bad/src/raw_metric_print.cpp": {"raw-metric-print": 4},
    "bad/src/pool_bypass_new.cpp": {"pool-bypass-new": 4},
    "bad/src/meta/raw_tcp.cpp": {"meta-raw-tcp": 4},
    "bad/src/unit_escape.cpp": {"unit-escape": 2},
    "bad/src/obs_registry.cpp": {"obs-name-registry": 4},
    # directory fixture: the handle-storing class lives in poller.hpp, the
    # discarding member fn in poller.cpp — proves the cross-file pass.
    "bad/src/event_lifetime": {"event-lifetime": 2},
    "bad/check_side_effect.cpp": {"check-side-effect": 2},
    # directory fixture with both src/obs/ and src/check/ catalogs: the
    # whole-project coverage diff must flag the uncovered net::Host.
    "bad/coverage_tree": {"check-coverage": 1},
    "clean/clean.cpp": {},
    "clean/allowed.cpp": {},
    "clean/src/metric_print_clean.cpp": {},
    "clean/src/pool_use_clean.cpp": {},
    "clean/src/meta/path_clean.cpp": {},
    "clean/src/unit_escape_clean.cpp": {},
    "clean/src/obs_registry_clean.cpp": {},
    "clean/src/event_lifetime_clean.cpp": {},
    "clean/check_side_effect_clean.cpp": {},
    "clean/coverage_tree": {},
    # every rule's trigger text inside comments / strings / raw strings:
    # the lexer must keep all rules silent.
    "clean/src/strings_comments.cpp": {},
}

# fixture tree under fixtures/layering/ (has its own layers.toml,
# passed via --layers; scans its src/) -> {rule: count}
LAYERING_EXPECTATIONS = {
    "layering/bad": {"layer-violation": 2, "layer-cycle": 1},
    "layering/clean": {},
}


def run_lint(args: list[str]) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, LINT] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.returncode, proc.stdout.decode()


def findings_by_rule(output: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for line in output.splitlines():
        m = FINDING_RE.match(line)
        if m:
            counts[m.group(3)] = counts.get(m.group(3), 0) + 1
    return counts


def main() -> int:
    t0 = time.monotonic()
    failures = []

    all_rules = run_lint(["--list-rules"])[1].split()
    fired: set[str] = set()

    def check(label: str, argv: list[str], expected: dict[str, int]) -> None:
        code, out = run_lint(argv)
        got = findings_by_rule(out)
        want_exit = 1 if expected else 0
        if code != want_exit:
            failures.append(f"{label}: exit {code}, expected {want_exit}")
        if got != expected:
            failures.append(f"{label}: findings {got}, expected {expected}")
        fired.update(got)
        status = "ok" if got == expected and code == want_exit else "FAIL"
        print(f"selftest: {status}: {label} -> {got or '{}'}")

    for fixture, expected in sorted(EXPECTATIONS.items()):
        check(fixture, ["--root", FIXTURES, fixture], expected)

    for tree, expected in sorted(LAYERING_EXPECTATIONS.items()):
        root = os.path.join(FIXTURES, tree)
        check(tree, ["--root", root,
                     "--layers", os.path.join(root, "layers.toml"), "src"],
              expected)

    # Meta-check: the fixture corpus must exercise every registered rule —
    # a new rule without a firing fixture is itself a failure.
    uncovered = set(all_rules) - fired
    if uncovered:
        failures.append(f"rules with no firing fixture: {sorted(uncovered)}")

    # --rules filtering must narrow the report.
    code, out = run_lint(["--root", FIXTURES, "--rules", "unordered-iter",
                          "bad/unordered_iter.cpp"])
    got = findings_by_rule(out)
    if got != {"unordered-iter": 2}:
        failures.append(f"--rules filter: findings {got}, "
                        f"expected {{'unordered-iter': 2}}")

    # Unknown rule names must be a hard usage error, not silence.
    code, _ = run_lint(["--root", FIXTURES, "--rules", "no-such-rule",
                        "clean/clean.cpp"])
    if code != 2:
        failures.append(f"unknown rule: exit {code}, expected 2")

    with tempfile.TemporaryDirectory(prefix="gtw-lint-selftest.") as tmp:
        # --json must emit SARIF 2.1.0 whose result count matches stdout.
        sarif_path = os.path.join(tmp, "findings.sarif")
        code, out = run_lint(["--root", FIXTURES, "--json", sarif_path,
                              "bad/src/obs_registry.cpp"])
        n_stdout = sum(findings_by_rule(out).values())
        try:
            with open(sarif_path, encoding="utf-8") as f:
                sarif = json.load(f)
            results = sarif["runs"][0]["results"]
            rules = {r["id"] for r in
                     sarif["runs"][0]["tool"]["driver"]["rules"]}
            if len(results) != n_stdout or n_stdout == 0:
                failures.append(f"--json: {len(results)} SARIF results, "
                                f"{n_stdout} stdout findings")
            if not {r["ruleId"] for r in results} <= rules:
                failures.append("--json: result ruleId missing from "
                                "tool.driver.rules")
        except (OSError, KeyError, ValueError) as e:
            failures.append(f"--json: bad SARIF output: {e}")
        print(f"selftest: {'FAIL' if failures and failures[-1].startswith('--json') else 'ok'}: "
              f"--json SARIF round trip")

        # Obs catalog: emit then check against itself must pass; a doctored
        # catalog must be flagged as drift (exit 1).
        cat_path = os.path.join(tmp, "obs_catalog.json")
        run_lint(["--root", FIXTURES, "--emit-obs-catalog", cat_path,
                  "clean/src/obs_registry_clean.cpp"])
        code, _ = run_lint(["--root", FIXTURES, "--check-obs-catalog",
                            cat_path, "clean/src/obs_registry_clean.cpp"])
        if code != 0:
            failures.append(f"obs catalog self-check: exit {code}, "
                            "expected 0")
        with open(cat_path, encoding="utf-8") as f:
            cat = json.load(f)
        cat["metrics"] = cat["metrics"][1:]  # drop one metric -> drift
        with open(cat_path, "w", encoding="utf-8") as f:
            json.dump(cat, f)
        code, _ = run_lint(["--root", FIXTURES, "--check-obs-catalog",
                            cat_path, "clean/src/obs_registry_clean.cpp"])
        if code != 1:
            failures.append(f"obs catalog drift: exit {code}, expected 1")
        print(f"selftest: ok: obs catalog emit/check round trip"
              if code == 1 else
              f"selftest: FAIL: obs catalog emit/check round trip")

    for f in failures:
        print(f"selftest: FAIL: {f}")
    n_cases = len(EXPECTATIONS) + len(LAYERING_EXPECTATIONS)
    elapsed = time.monotonic() - t0
    print(f"selftest: {n_cases} fixtures, {len(failures)} failure(s), "
          f"runtime {elapsed:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
