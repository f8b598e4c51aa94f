#!/usr/bin/env python3
"""Determinism lint: machine-enforce the repo's bit-identity bans.

The project's core promise (ROADMAP) is that every scheme x layout x
thread x worker combination reproduces a golden checksum
bit-for-bit.  That only holds while the transport and reduction paths stay
free of hidden nondeterminism, so this checker bans, in `src/`:

  R1  libc RNG (std::rand / rand() / srand()) and std::random_device —
      everywhere.  All randomness must flow through the counter-based
      streams in src/rng/, which are seeded from the deck and replayable.
  R2  wall-clock reads (system_clock, time(), gettimeofday, clock_gettime,
      std::clock) outside src/obs/ and src/perf/ — observability may
      timestamp, physics may not.  steady_clock is allowed everywhere:
      deadlines and timers never feed a tally.
  R3  unordered-container iteration in the reduction paths (src/core,
      src/mesh, src/xs, src/rng, src/tally):
      hash-order is pointer/seed dependent, so a loop over an
      unordered_map that deposits into a tally or folds a reduction
      reorders float adds between runs.  Enforced bluntly — the
      listed files may not mention unordered_map/unordered_set at all
      (none do today; ordered or indexed containers serve there).
  R4  memory_order_relaxed outside src/obs/metrics.h/.cpp — the sharded
      metric counters are the one audited relaxed-ordering site (their
      happens-before contract is documented on obs::Counter); everything
      else uses acquire/release or seq_cst so the next reader does not
      have to re-derive a memory-model argument.

Zero-config: `python3 tools/lint/determinism_lint.py` from the repo root
(or anywhere; paths resolve relative to this file).  Exit 0 = clean,
exit 1 = findings listed one per line as path:line: rule message.
There is deliberately no waiver syntax: a legitimate new exception should
widen an allowlist here, in a reviewed diff, not hide behind a comment.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
SRC = REPO / "src"

# Rule -> (regex, allowed-path predicate, message).
REDUCTION_DIRS = ("core", "mesh", "xs", "rng", "tally")


def rel(path: Path) -> str:
    return str(path.relative_to(REPO))


def in_reduction_paths(path: Path) -> bool:
    return path.relative_to(SRC).parts[0] in REDUCTION_DIRS


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments, preserving line structure."""

    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            i = min(i + 2, n)
        elif ch == '"':
            # Skip string literals so a message mentioning a banned name
            # does not trip the lint (escapes handled, newlines end it).
            i += 1
            while i < n and text[i] not in '"\n':
                i += 2 if text[i] == "\\" else 1
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


RULES = [
    (
        "R1-banned-rng",
        re.compile(
            r"std::rand\b|(?<![A-Za-z0-9_])s?rand\s*\(|std::random_device"
        ),
        lambda path: False,  # nowhere
        "libc RNG/random_device: use the deck-seeded streams in src/rng/",
    ),
    (
        "R2-wall-clock",
        re.compile(
            r"system_clock|gettimeofday|clock_gettime"
            r"|(?<![A-Za-z0-9_.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
            r"|(?<![A-Za-z0-9_.])clock\s*\(\s*\)"
        ),
        lambda path: path.relative_to(SRC).parts[0] in ("obs", "perf"),
        "wall-clock read outside src/obs|src/perf: use steady_clock",
    ),
    (
        "R3-unordered-reduction",
        re.compile(r"unordered_map|unordered_set"),
        lambda path: not in_reduction_paths(path),
        "unordered container in a reduction path: hash order would "
        "reorder float folds between runs",
    ),
    (
        "R4-relaxed-ordering",
        re.compile(r"memory_order_relaxed"),
        lambda path: rel(path)
        in ("src/obs/metrics.h", "src/obs/metrics.cpp"),
        "memory_order_relaxed outside the audited metrics shards "
        "(contract: obs::Counter in src/obs/metrics.h)",
    ),
]


def main() -> int:
    findings: list[str] = []
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        text = strip_comments(path.read_text(encoding="utf-8"))
        for name, pattern, allowed, message in RULES:
            if allowed(path):
                continue
            for lineno, line in enumerate(text.splitlines(), start=1):
                if pattern.search(line):
                    findings.append(
                        f"{rel(path)}:{lineno}: [{name}] {message}"
                    )
    if findings:
        print("determinism lint: FAIL")
        for finding in findings:
            print(finding)
        return 1
    print("determinism lint: OK (src/ clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
