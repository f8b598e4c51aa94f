"""Correctness gate: every solve and every served row against a reference.

The reference is a single-thread in-process solve of the same deck text.
Population and the integer event counters are thread-count invariant, so
they must match exactly.  The atomic tally sums in whatever order threads
arrive, so the 4-thread checksum may move in its last digits; it is held
to CHECKSUM_RTOL of the reference instead.  The anchor check (run.py)
applies the same gate against a checked-in expected solve.
"""

CHECKSUM_RTOL = 1.0e-9

# Fields a solve line carries that must equal the reference exactly.
EXACT_SOLVE_FIELDS = ("events", "facets", "collisions", "censuses",
                      "tally_flushes", "xs_lookups", "rng_draws", "population")
# A served row only carries these.
EXACT_ROW_FIELDS = ("events", "population")


def _checksum_ok(value, reference):
    scale = max(abs(reference), 1.0e-300)
    return abs(value - reference) <= CHECKSUM_RTOL * scale


def solve_problems(solve, ref):
    """Why an in-process solve is wrong (empty when it is right)."""
    problems = []
    if not solve.get("conserved"):
        problems.append("energy not conserved")
    for field in EXACT_SOLVE_FIELDS:
        if solve.get(field) != ref[field]:
            problems.append(f"{field} {solve.get(field)} != reference {ref[field]}")
    if not _checksum_ok(solve.get("checksum", float("nan")), ref["checksum"]):
        problems.append(f"checksum {solve.get('checksum')!r} outside "
                        f"{CHECKSUM_RTOL} of reference {ref['checksum']!r}")
    return problems


def request_problems(request, ref):
    """Why a served submission failed (empty when it is right)."""
    if request is None:
        return ["no result recorded"]
    if request.get("status") != "ok":
        return [f"status {request.get('status')}: {request.get('error', '')}"]
    if request.get("rows") != 1 or request.get("row_status") != "ok":
        return [f"expected one ok row, got {request.get('rows')} "
                f"({request.get('row_status')})"]
    problems = []
    for field in EXACT_ROW_FIELDS:
        if request.get(field) != ref[field]:
            problems.append(f"{field} {request.get(field)} != reference {ref[field]}")
    if not _checksum_ok(request.get("checksum", float("nan")), ref["checksum"]):
        problems.append(f"checksum {request.get('checksum')!r} outside "
                        f"{CHECKSUM_RTOL} of reference {ref['checksum']!r}")
    return problems


def gate_solves(solves, ref):
    """(attempted, failed, messages) over in-process solves of one deck."""
    messages = []
    for i, solve in enumerate(solves):
        messages += [f"solve {i}: {p}" for p in solve_problems(solve, ref)]
    failed = sum(1 for s in solves if solve_problems(s, ref))
    return len(solves), failed, messages


def gate_requests(planned, recorded, refs):
    """(attempted, failed, messages) over one phase of served submissions.

    `planned` is the phase's list of deck names in send order, `recorded`
    maps send index -> the harness's request line, `refs` maps deck name
    -> reference solve.  A planned submission with no record counts as
    failed, as does a refused or errored one.
    """
    failed = 0
    messages = []
    for i, deck in enumerate(planned):
        problems = request_problems(recorded.get(i), refs[deck])
        if problems:
            failed += 1
            messages += [f"submission {i} ({deck}): {p}" for p in problems]
    return len(planned), failed, messages
