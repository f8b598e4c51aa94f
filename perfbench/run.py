#!/usr/bin/env python3
"""The repository benchmark: one command per workload, run from the root.

    python3 perfbench/run.py --workload scatter-events --seed 1 --seconds 40 --trace 0

builds the program from the checkout's sources (into .bench_build/),
generates the workload's inputs from --seed, measures for about --seconds,
checks every result against a single-thread reference solve, and prints
one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json and perfbench/README.md).  The exit code is 0 only when
every attempted operation passed the correctness gate; 2 means the run
produced no result (no checkout, build failure, host too small, a harness
or daemon failure, reported on stderr).

Other modes:
    --steadiness N     run the workload N times on consecutive seeds and
                       print each metric's median, quartiles and spread
    --self-test        check the correctness gate and the input generator
    --update-anchors   rewrite anchors.json, the anchor decks' expected
                       solves, from the current build
"""

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing beside the sources

import gate  # noqa: E402
import gen  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
HARNESS = os.path.join(CMAKE_BUILD, "perfbench_harness")
NEUTRALD = os.path.join(CMAKE_BUILD, "neutral_mc", "neutrald")
ANCHORS = os.path.join(HERE, "anchors.json")

WORKLOADS = {
    "scatter-events": dict(serve=False, scheme="events", layout="soa",
                           threads=gen.THREADS, connections=1),
    "serve-small": dict(serve=True, scheme="particles", layout="aos",
                        threads=gen.THREADS,
                        connections=gen.SERVE_CONNECTIONS),
}

SETUP_SPAWNS = 60          # daemon spawn -> ping samples per batch
# The daemon's world-cache budget.  Its default is unbounded, so every fresh
# geometry of a run would stay resident (about 2.5 MiB each, 550 MiB after
# 40 s): peak RSS would measure the run's length, and a memory-capped host
# would kill the daemon.  128 MiB keeps the 8 pooled worlds resident and
# evicts fresh ones, which are never acquired twice; the daemon then peaks
# near 150 MiB whatever the run's length.
DAEMON_CACHE_MB = 128
MIN_SOLVES = 5             # in-process solves per measured pass
RUN_BUDGET_S = 165         # a run ends within this long after its build
_deadline = None           # monotonic time the current run must end by


class BenchError(Exception):
    """The run cannot produce a result (exit 2, no JSON line)."""


def time_left():
    """Seconds until the run's deadline: every child process waits at most
    this long, so a hung harness or daemon cannot hold the run open."""
    if _deadline is None:
        return RUN_BUDGET_S
    left = _deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time budget")
    return left


def info(msg):
    print(f"# {msg}", flush=True)


# ---------------------------------------------------------------------------
# build and host shape
# ---------------------------------------------------------------------------

def host_shape():
    cpus = len(os.sched_getaffinity(0))
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return cpus, model


def guard_host(workload):
    """Refuse thread/connection counts the host cannot run side by side."""
    cpus, model = host_shape()
    w = WORKLOADS[workload]
    info(f"HOST SHAPE: {cpus} cpus, {model}; {workload} uses "
         f"{w['threads']} threads, {w['connections']} connections — "
         "figures from other host shapes are not comparable")
    if w["threads"] > cpus or w["connections"] > cpus:
        raise BenchError(f"{workload} needs {max(w['threads'], w['connections'])} "
                         f"cpus, host has {cpus}")


def configured_here():
    """Whether the build tree exists and was configured from this checkout
    (a checkout moved after its first build must configure afresh)."""
    try:
        with open(os.path.join(CMAKE_BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    source = line.split("=", 1)[1].strip()
                    return os.path.realpath(source) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def mtimes(paths):
    return [os.stat(p).st_mtime_ns if os.path.exists(p) else None for p in paths]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("perfbench must run inside a neutral-mc checkout")
    steps = []
    if not configured_here():
        shutil.rmtree(CMAKE_BUILD, ignore_errors=True)
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_BUILD, "-j",
                  str(host_shape()[0]), "--target", "perfbench_harness",
                  "neutrald"])
    before = mtimes([HARNESS, NEUTRALD])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=850)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    # After a build that relinked, write its output back now, not while the
    # run is timed.  (A no-op build skips this: sync waits on every dirty
    # page of the host, however busy its other tenants are.)
    if mtimes([HARNESS, NEUTRALD]) != before:
        os.sync()


# ---------------------------------------------------------------------------
# harness and daemon
# ---------------------------------------------------------------------------

def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def harness(args, out_path):
    cmd = [HARNESS] + args + ["--out", out_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=time_left())
    if proc.returncode != 0:
        raise BenchError(f"harness failed ({proc.returncode}): "
                         f"{' '.join(args)}\n{proc.stderr[-2000:]}")
    return read_jsonl(out_path)


def solve_args(workload, threads, scheme=None, layout=None):
    w = WORKLOADS[workload]
    return ["--threads", str(threads), "--scheme", scheme or w["scheme"],
            "--layout", layout or w["layout"]]


def solve_list(workdir, names, tag, extra, parallel=1):
    """Solve each listed deck once; returns {deck name: solve line}."""
    chunks = [names[i::parallel] for i in range(parallel) if names[i::parallel]]
    procs = []
    try:
        for i, chunk in enumerate(chunks):
            listing = os.path.join(workdir, f"{tag}{i}.list")
            with open(listing, "w") as f:
                f.write("".join(os.path.join(workdir, n) + "\n" for n in chunk))
            out = os.path.join(workdir, f"{tag}{i}.jsonl")
            cmd = [HARNESS, "solve", "--list", listing, "--out", out] + extra
            procs.append((subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                           stderr=subprocess.PIPE, text=True),
                          out))
        results = {}
        for proc, out in procs:
            _, err = proc.communicate(timeout=time_left())
            if proc.returncode != 0:
                raise BenchError(f"reference solve failed: {err[-2000:]}")
            for line in read_jsonl(out):
                if line["kind"] == "solve":
                    results[os.path.basename(line["deck"])] = line
        return results
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def references(workload, seed, inputs, workdir, names):
    """Single-thread reference solves, cached by (workload, seed, inputs).

    The key leaves the build out, so a checkout that is rebuilt after a
    change keeps gating it against the references of the earlier build.
    """
    key = f"{workload}-{seed}-{gen.digest(inputs)[:16]}"
    cache = os.path.join(BUILD, "refs", key + ".json")
    cached = {}
    if os.path.isfile(cache):
        with open(cache) as f:
            cached = json.load(f)
    missing = sorted(set(names) - set(cached))
    if missing:
        cached.update(solve_list(
            workdir, missing, "ref", solve_args(workload, 1),
            parallel=min(len(missing), host_shape()[0])))
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        with open(cache + ".tmp", "w") as f:
            json.dump(cached, f)
        os.replace(cache + ".tmp", cache)
    return cached


def solve_anchor(workload, workdir):
    """One 1-thread solve of the workload's anchor deck."""
    text = gen.anchor(workload)
    path = os.path.join(workdir, "anchor.params")
    with open(path, "w") as f:
        f.write(text)
    lines = harness(["solve", "--deck", path, "--max-solves", "1",
                     *solve_args(workload, 1)],
                    os.path.join(workdir, "anchor.jsonl"))
    return hashlib.sha256(text.encode()).hexdigest(), lines[0]


def check_anchor(workload, workdir, fault, tally):
    """Hold the build to the anchor's checked-in result (ANCHORS).

    The per-seed references are solved by the build under test, so they
    cannot see a change that moves every result the same way; this can.
    """
    with open(ANCHORS) as f:
        expected = json.load(f)[workload]
    deck_sha, solve = solve_anchor(workload, workdir)
    if deck_sha != expected["deck_sha256"]:
        raise BenchError("the anchor deck changed: rerun --update-anchors")
    if fault == "anchor":
        solve["facets"] += 1
    attempted, failed, messages = gate.gate_solves([solve], expected)
    tally.add((attempted, failed, [f"anchor: {m}" for m in messages]))


def update_anchors():
    """Write ANCHORS from the current build (after a deliberate change to
    the physics or to the anchor decks)."""
    build()
    workdir = os.path.join(BUILD, "work", f"anchors-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    anchors = {}
    try:
        for workload in sorted(WORKLOADS):
            deck_sha, solve = solve_anchor(workload, workdir)
            anchors[workload] = {"deck_sha256": deck_sha}
            anchors[workload].update(
                (k, solve[k]) for k in gate.EXACT_SOLVE_FIELDS + ("checksum",))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(ANCHORS, "w") as f:
        json.dump(anchors, f, indent=2, sort_keys=True)
        f.write("\n")
    info(f"wrote {ANCHORS}")
    return 0


def _ping(port):
    with socket.create_connection(("127.0.0.1", port), timeout=2) as s:
        s.sendall(b'{"op":"ping"}\n')
        reply = s.makefile().readline()
    return '"ok":"1"' in reply


def _op(port, op):
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(('{"op":"%s"}\n' % op).encode())
        return s.makefile().readline()


class Daemon:
    """One neutrald on an ephemeral loopback port; never outlives the run."""

    def __init__(self, workdir):
        self.proc = None
        self.port = None
        self.peak_rss_mb = None
        self.log = open(os.path.join(workdir, "neutrald.log"), "a")
        start = time.perf_counter()
        self.proc = subprocess.Popen([NEUTRALD, "--port", "0", "--quiet",
                                      "--cache-mb", str(DAEMON_CACHE_MB)],
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     text=True)
        try:
            self.port = self._read_port(deadline=start + 30)
            while not self._try_ping():
                if time.perf_counter() > start + 30:
                    raise BenchError("neutrald never answered ping")
                time.sleep(0.001)
            self.setup_s = time.perf_counter() - start
        except BenchError as e:
            message = f"{e}; {self.describe()}"
            self.kill()
            raise BenchError(message) from e
        except BaseException:
            self.kill()
            raise

    def _read_port(self, deadline):
        line = ""
        while not line.endswith("\n"):
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
            if not ready:
                raise BenchError("neutrald printed no listening line")
            chunk = os.read(self.proc.stdout.fileno(), 4096).decode()
            if not chunk:
                raise BenchError("neutrald exited before listening")
            line += chunk
        match = re.search(r"listening on [^\s]+:(\d+)", line)
        if not match:
            raise BenchError(f"unexpected neutrald output: {line!r}")
        return int(match.group(1))

    def _try_ping(self):
        try:
            return _ping(self.port)
        except OSError:
            return False

    def describe(self):
        """The daemon's state and log tail, for an error message."""
        code = self.proc.poll()
        state = "running" if code is None else f"exited with {code}"
        self.log.flush()
        try:
            with open(self.log.name) as f:
                log_tail = f.read()[-1500:]
        except OSError:
            log_tail = ""
        return f"neutrald {state}; its log ends: {log_tail!r}"

    def stop(self):
        """Read the daemon's peak RSS, then shut it down cleanly."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_mb = int(line.split()[1]) / 1024.0
            _op(self.port, "shutdown")
            self.proc.wait(timeout=min(30, time_left()))
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"stopping neutrald: {e}; {self.describe()}") from e
        finally:
            self.kill()

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        if self.proc is not None:
            self.proc.wait()
            self.proc.stdout.close()
        self.log.close()


def write_inputs(workdir, inputs):
    for name, text in inputs["decks"].items():
        with open(os.path.join(workdir, name), "w") as f:
            f.write(text)


def serve_plan(workdir, name, paced, sat, options=""):
    """A harness plan; the decks are named relative to `workdir`."""
    path = os.path.join(workdir, name)
    with open(path, "w") as f:
        for due, deck in paced:
            f.write(f"paced {due!r} {deck}{options}\n")
        for _, deck in sat:
            f.write(f"sat 0 {deck}{options}\n")
    return path


def spawn_setups(workdir):
    """Set-up times of SETUP_SPAWNS daemons, each stopped at once."""
    setups = []
    for _ in range(SETUP_SPAWNS):
        daemon = Daemon(workdir)
        setups.append(daemon.setup_s)
        daemon.stop()
    return setups


def run_serve(workdir, plan, tag, connections, split=True):
    """Spawn a daemon, drive `plan` through it, stop it.

    Returns (daemon, harness lines).  The daemon is killed on any error.
    """
    daemon = Daemon(workdir)
    try:
        args = ["serve", "--port", str(daemon.port), "--plan", plan,
                "--connections", str(connections)]
        if not split:
            args.append("--no-split")
        try:
            lines = harness(args, os.path.join(workdir, tag + ".jsonl"))
        except (BenchError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"{e}\n{daemon.describe()}") from e
        daemon.stop()
    finally:
        daemon.kill()
    return daemon, lines


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest nearest-rank percentile, at most p99, that leaves at
    least ten samples beyond it: (value, percentile, samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    rank = max(1, min(-(-99 * n // 100), n - 10))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def metric(value, unit):
    return {"value": value, "unit": unit}


def phase_requests(lines, phase):
    return {r["index"]: r for r in lines
            if r["kind"] == "request" and r["phase"] == phase}


def metrics_delta(lines, first, last, name):
    snaps = {m["when"]: m for m in lines if m["kind"] == "metrics"}
    return float(snaps[last].get(name, 0)) - float(snaps[first].get(name, 0))


def served_layers(lines, first_snap, last_snap, phase="paced"):
    """The net/batch per-layer metrics of one served phase."""
    reqs = [r for r in phase_requests(lines, phase).values()
            if r.get("status") == "ok" and "job_s" in r]
    hits = metrics_delta(lines, first_snap, last_snap,
                         "neutral_world_cache_hits_total")
    misses = metrics_delta(lines, first_snap, last_snap,
                           "neutral_world_cache_misses_total")
    pops = metrics_delta(lines, first_snap, last_snap,
                         "neutral_queue_pop_wait_seconds_count")
    pop_sum = metrics_delta(lines, first_snap, last_snap,
                            "neutral_queue_pop_wait_seconds_sum")
    lags = [r["lag_s"] for r in phase_requests(lines, phase).values()]
    return {
        "net.submit_ms": metric(1e3 * median([r["submit_s"] for r in reqs]), "ms"),
        "net.result_ms": metric(1e3 * median([r["result_s"] for r in reqs]), "ms"),
        "batch.job_wall_ms": metric(1e3 * median([r["job_s"] for r in reqs]), "ms"),
        "net.outside_job_ms": metric(1e3 * median(
            [r["submit_s"] + r["result_s"] - r["job_s"] for r in reqs]), "ms"),
        "batch.world_cache_hit_ratio": metric(
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "batch.world_cache_misses": metric(misses, "count"),
        "batch.queue_pop_wait_ms": metric(1e3 * pop_sum / pops if pops else 0.0,
                                          "ms"),
        "net.refused": metric(metrics_delta(
            lines, first_snap, last_snap, "neutral_submissions_refused_total"),
            "count"),
        "gen.lag_p99_ms": metric(1e3 * tail(lags)[0], "ms"),
    }


def core_layers(solves, profile, kernels, rate_1t, rate_nt, threads):
    """The io/core/xs/rng per-layer metrics from traced solves."""
    first = solves[0]
    out = {
        "io.parse_deck_ms": metric(1e3 * median([s["parse_s"] for s in solves]), "ms"),
        "core.build_world_ms": metric(
            1e3 * median([s["build_world_s"] for s in solves]), "ms"),
        "core.source_bank_ms": metric(1e3 * median([s["ctor_s"] for s in solves]), "ms"),
        "core.step_s": metric(median([s["run_s"] for s in solves]), "s"),
        "core.summary_ms": metric(1e3 * median([s["summary_s"] for s in solves]), "ms"),
        "core.facets": metric(first["facets"], "count"),
        "core.collisions": metric(first["collisions"], "count"),
        "core.census": metric(first["censuses"], "count"),
        "core.tally_flushes": metric(first["tally_flushes"], "count"),
        "xs.lookups": metric(first["xs_lookups"], "count"),
        "rng.draws": metric(first["rng_draws"], "count"),
        "core.events_per_s_1t": metric(rate_1t, "1/s"),
        "core.scaling_eff": metric(rate_nt / (threads * rate_1t) if rate_1t else 0.0,
                                   "ratio"),
        "core.tally_bytes": metric(max(s["tally_bytes"] for s in solves), "B"),
        "core.peak_mesh_bytes": metric(max(s["peak_mesh_bytes"] for s in solves), "B"),
        "core.peak_bank_bytes": metric(max(s["peak_bank_bytes"] for s in solves), "B"),
    }
    for phase in ("event_search", "facet", "collision", "tally", "census"):
        out[f"core.phase.{phase}_ns"] = metric(
            median([p[f"phase_{phase}_ns"] for p in profile]), "ns")
    for kernel in ("search", "collision", "facet", "census"):
        out[f"core.kernel.{kernel}_s"] = metric(
            median([k[f"kernel_{kernel}_s"] for k in kernels]), "s")
    return out


def events_rate(solves):
    return median([s["events"] / s["run_s"] for s in solves])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Tally:
    """attempted / failed across every gated operation of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, result):
        attempted, failed, messages = result
        self.attempted += attempted
        self.failed += failed
        self.messages += messages


def inject(fault, solves=None, requests=None):
    """Corrupt one recorded result (the gate's self-test)."""
    if fault == "counter" and solves:
        solves[0]["facets"] += 1
    elif fault == "checksum" and solves:
        solves[0]["checksum"] *= 1.0 + 1.0e-6
    elif fault == "checksum" and requests:
        requests[min(requests)]["checksum"] *= 1.0 + 1.0e-6
    elif fault == "missing" and requests:
        del requests[min(requests)]
    elif fault == "refused" and requests:
        requests[min(requests)].update(status="error",
                                       error="refused: injected")
    elif fault == "counter" and requests:
        requests[min(requests)]["events"] += 1


def run_inprocess(workload, seed, seconds, trace, workdir, fault, tally):
    inputs = gen.generate(workload, seed, seconds)
    write_inputs(workdir, inputs)
    deck = os.path.join(workdir, "deck.params")
    w = WORKLOADS[workload]
    threads = w["threads"]

    def solve(tag, secs, *extra, threads=threads, **kw):
        lines = harness(["solve", "--deck", deck, "--seconds", repr(secs),
                         *solve_args(workload, threads, **kw), *extra],
                        os.path.join(workdir, tag + ".jsonl"))
        return ([line for line in lines if line["kind"] == "solve"],
                next(line for line in lines if line["kind"] == "process"))

    if not trace:
        solves, proc = solve("solves", seconds, "--min-solves", str(MIN_SOLVES),
                             "--warmup", "1")
        ref = references(workload, seed, inputs, workdir, ["deck.params"])["deck.params"]
        inject(fault, solves=solves)
        tally.add(gate.gate_solves(solves, ref))
        latencies = [s["parse_s"] + s["build_world_s"] + s["ctor_s"] + s["run_s"]
                     for s in solves]
        tail_ms, pct, beyond = tail(latencies)
        info(f"{len(solves)} solves of {solves[0]['events']} events at "
             f"{threads} threads; latency tail is p{pct:.0f} "
             f"({beyond} samples beyond)")
        return {
            "events_per_s": metric(events_rate(solves), "1/s"),
            "jobs_per_s": metric(len(solves) / sum(latencies), "1/s"),
            "latency_p50_ms": metric(1e3 * median(latencies), "ms"),
            "latency_tail_ms": metric(1e3 * tail_ms, "ms"),
            "setup_s": metric(median([s["parse_s"] + s["build_world_s"] + s["ctor_s"]
                                      for s in solves]), "s"),
            "peak_rss_mb": metric(proc["vmhwm_kb"] / 1024.0, "MiB"),
        }

    # Traced run: an untraced and a traced pass of equal length (the traced
    # one, Over Events, also gives the kernel split), one profiled solve, a
    # single-thread solve (the scaling base and a fresh reference), and the
    # deck served once through neutrald for the net/batch layers.
    plain, _ = solve("plain", 0.3 * seconds, "--min-solves", "3", "--warmup", "1")
    traced, _ = solve("traced", 0.3 * seconds, "--min-solves", "3", "--step-timing")
    profiled, _ = solve("profiled", 0, "--max-solves", "1", "--profile",
                        scheme="particles", layout="aos")
    single, _ = solve("single", 0, "--max-solves", "1", threads=1)
    ref = single[0]
    checked = plain + traced + profiled
    inject(fault, solves=checked)
    tally.add(gate.gate_solves(checked, ref))

    plan = serve_plan(workdir, "replay.plan", [(0.0, "deck.params")], [],
                      f" {w['scheme']} {w['layout']}")
    _, lines = run_serve(workdir, plan, "replay", connections=1)
    requests = phase_requests(lines, "paced")
    tally.add(gate.gate_requests(["deck.params"], requests,
                                 {"deck.params": ref}))

    rate_plain, rate_traced = events_rate(plain), events_rate(traced)
    out = core_layers(traced, profiled, traced, events_rate(single),
                      rate_plain, threads)
    out.update(served_layers(lines, "start", "paced"))
    out["trace.overhead_frac"] = metric(1.0 - rate_traced / rate_plain, "ratio")
    return out


def run_serve_small(workload, seed, seconds, trace, workdir, fault, tally):
    inputs = gen.generate(workload, seed, seconds)
    write_inputs(workdir, inputs)
    connections = WORKLOADS[workload]["connections"]
    paced_names = [d for _, d in inputs["paced"]]
    sat_names = [d for _, d in inputs["sat"]]
    refs = references(workload, seed, inputs, workdir,
                      sorted(set(paced_names + sat_names)))

    # Set-up time: spawn -> first successful ping.  A spawn takes about
    # 2 ms and the host's speed at it drifts over seconds, so the samples
    # come in two batches, one on each side of the served phases.
    setups = spawn_setups(workdir)
    plan = serve_plan(workdir, "serve.plan", inputs["paced"], inputs["sat"])
    daemon, lines = run_serve(workdir, plan, "serve", connections)
    setups += [daemon.setup_s] + spawn_setups(workdir)

    paced = phase_requests(lines, "paced")
    sat = phase_requests(lines, "sat")
    inject(fault, requests=paced)
    tally.add(gate.gate_requests(paced_names, paced, refs))
    tally.add(gate.gate_requests(sat_names, sat, refs))

    walls = {p["phase"]: p["wall_s"] for p in lines if p["kind"] == "phase"}
    sat_ok = [r for r in sat.values() if r.get("status") == "ok"]
    sat_jobs_per_s = len(sat_ok) / walls["sat"]

    if not trace:
        latencies = [r["latency_s"] for r in paced.values()
                     if r.get("status") == "ok"]
        tail_ms, pct, beyond = tail(latencies)
        info(f"paced: {len(paced_names)} submissions at "
             f"{gen.SERVE_PACED_RATE}/s, latency tail is p{pct:.0f} "
             f"({beyond} samples beyond); "
             f"saturation: {len(sat_names)} submissions over "
             f"{connections} connections in {walls['sat']:.2f} s")
        return {
            "events_per_s": metric(sum(r["events"] for r in sat_ok) / walls["sat"],
                                   "1/s"),
            "jobs_per_s": metric(sat_jobs_per_s, "1/s"),
            "latency_p50_ms": metric(1e3 * median(latencies), "ms"),
            "latency_tail_ms": metric(1e3 * tail_ms, "ms"),
            "setup_s": metric(median(setups), "s"),
            "peak_rss_mb": metric(daemon.peak_rss_mb, "MiB"),
        }

    # Traced run: the submissions above recorded submit and result times
    # separately; an untraced saturation pass on a fresh daemon gives the
    # overhead base.  The io/core layers come from replaying every submitted
    # deck in process (step-timed), the pool through the profiler, Over
    # Events, and 4 threads.
    plain_plan = serve_plan(workdir, "plain.plan", [], inputs["sat"])
    _, plain_lines = run_serve(workdir, plain_plan, "plain", connections,
                               split=False)
    plain_sat = phase_requests(plain_lines, "sat")
    tally.add(gate.gate_requests(sat_names, plain_sat, refs))
    plain_wall = next(p["wall_s"] for p in plain_lines if p["kind"] == "phase")
    plain_jobs_per_s = sum(1 for r in plain_sat.values()
                           if r.get("status") == "ok") / plain_wall

    names = sorted(set(paced_names + sat_names))
    replay = solve_list(workdir, names, "replay",
                        solve_args(workload, 1) + ["--step-timing"],
                        parallel=1)
    pool = inputs["pool"]
    profiled = solve_list(workdir, pool, "profiled",
                          solve_args(workload, 1) + ["--profile"])
    kernels = solve_list(workdir, pool, "kernels",
                         solve_args(workload, 1, scheme="events", layout="soa"))
    wide = solve_list(workdir, pool, "wide", solve_args(workload, gen.THREADS))
    for batch in (replay, profiled, kernels, wide):
        tally.add(_gate_each(batch, refs))

    def pool_rate(solves):
        return (sum(solves[n]["events"] for n in pool)
                / sum(solves[n]["run_s"] for n in pool))

    submitted = [replay[n] for n in paced_names + sat_names]
    out = core_layers([replay[n] for n in names], list(profiled.values()),
                      list(kernels.values()), pool_rate(replay),
                      pool_rate(wide), gen.THREADS)
    # Counts are the transport work of the whole submitted stream.
    for key, field in (("core.facets", "facets"), ("core.collisions", "collisions"),
                       ("core.census", "censuses"),
                       ("core.tally_flushes", "tally_flushes"),
                       ("xs.lookups", "xs_lookups"), ("rng.draws", "rng_draws")):
        out[key] = metric(sum(s[field] for s in submitted), "count")
    out.update(served_layers(lines, "start", "sat"))
    out["trace.overhead_frac"] = metric(1.0 - sat_jobs_per_s / plain_jobs_per_s,
                                        "ratio")
    return out


def _gate_each(solves, refs):
    attempted = failed = 0
    messages = []
    for name, solve in solves.items():
        a, f, m = gate.gate_solves([solve], refs[name])
        attempted, failed = attempted + a, failed + f
        messages += [f"{name}: {x}" for x in m]
    return attempted, failed, messages


def run_once(workload, seed, seconds, trace, fault=None):
    """One benchmark run; returns the result object."""
    global _deadline
    guard_host(workload)
    build()
    _deadline = time.monotonic() + RUN_BUDGET_S
    workdir = os.path.join(BUILD, "work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tally = Tally()
    try:
        check_anchor(workload, workdir, fault, tally)
        runner = run_serve_small if WORKLOADS[workload]["serve"] else run_inprocess
        metrics = runner(workload, seed, seconds, trace, workdir, fault, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in tally.messages[:20]:
        info(f"FAILED {message}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# steadiness report and self-test
# ---------------------------------------------------------------------------

def steadiness(workload, first_seed, seconds, runs, sets):
    """Run the workload `sets` x `runs` times and report each metric's spread."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    medians = []
    ok = True
    for s in range(sets):
        values = {}
        for r in range(runs):
            seed = first_seed + s * runs + r
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, timeout=400)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 2 or not lines or not lines[-1].startswith("{"):
                print(f"seed {seed}: no result (exit {proc.returncode})")
                return 2
            result = json.loads(lines[-1])
            ok &= proc.returncode == 0 and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"set {s + 1}: {workload}, {runs} runs, seeds "
              f"{first_seed + s * runs}..{first_seed + s * runs + runs - 1}")
        set_medians = {}
        for name, vals in sorted(values.items()):
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds.get(name)
            verdict = ("" if bound is None else
                       " ok" if spread <= bound / 3 else " WIDE")
            print(f"  {name:16s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f} (bound {bound}){verdict}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
            set_medians[name] = q2
        medians.append(set_medians)
    for s in range(1, sets):
        for name, m in sorted(medians[s].items()):
            shift = abs(m - medians[0][name]) / medians[0][name]
            bound = bounds.get(name)
            verdict = ("" if bound is None else
                       " ok" if shift <= bound else " OVER BOUND")
            print(f"  set {s + 1} vs set 1: {name:16s} median shift {shift:.4f} "
                  f"(bound {bound}){verdict}")
    return 0 if ok else 1


def self_test():
    failures = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    # Input generator: same seed, same bytes; another seed, other bytes.
    for workload in WORKLOADS:
        a = gen.digest(gen.generate(workload, 7, 4))
        expect(a == gen.digest(gen.generate(workload, 7, 4)),
               f"{workload}: seed 7 regenerates identical inputs")
        expect(a != gen.digest(gen.generate(workload, 8, 4)),
               f"{workload}: seed 8 changes the inputs")

    # Correctness gate on synthetic results.
    ref = dict(events=10, facets=6, collisions=3, censuses=1, tally_flushes=9,
               xs_lookups=5, rng_draws=11, population=2, checksum=1.97e11)
    good = dict(ref, conserved=True, checksum=1.97e11 * (1 + 3e-11))
    expect(gate.gate_solves([good], ref)[1] == 0, "gate passes a correct solve")
    expect(gate.gate_solves([dict(good, facets=7)], ref)[1] == 1,
           "gate fails a flipped counter")
    expect(gate.gate_solves([dict(good, checksum=1.97e11 * (1 + 1e-6))], ref)[1]
           == 1, "gate fails a checksum outside tolerance")
    expect(gate.gate_solves([dict(good, conserved=False)], ref)[1] == 1,
           "gate fails an unconserved solve")
    row = dict(status="ok", rows=1, row_status="ok", events=10, population=2,
               checksum=1.97e11)
    refs = {"a": ref}
    expect(gate.gate_requests(["a", "a"], {0: row, 1: row}, refs)[1] == 0,
           "gate passes correct served rows")
    expect(gate.gate_requests(["a", "a"], {0: row}, refs)[1] == 1,
           "gate fails a missing served row")
    expect(gate.gate_requests(["a"], {0: dict(row, status="error",
                                              error="refused")}, refs)[1] == 1,
           "gate fails a refused submission")

    # End to end: an injected fault must give failed > 0 and a non-zero exit.
    for workload, fault in (("scatter-events", "counter"),
                            ("scatter-events", "checksum"),
                            ("scatter-events", "anchor"),
                            ("serve-small", "missing"),
                            ("serve-small", "refused")):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0",
             "--inject-fault", fault],
            stdout=subprocess.PIPE, text=True, timeout=600)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        expect(proc.returncode != 0 and result.get("failed", 0) >= 1
               and result.get("correct") is False,
               f"{workload} with an injected {fault} fault exits "
               f"{proc.returncode} with failed={result.get('failed')}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--update-anchors", action="store_true")
    parser.add_argument("--inject-fault",
                        choices=("counter", "checksum", "anchor", "missing",
                                 "refused"))
    args = parser.parse_args()
    # A terminated run still unwinds, so its daemon and harness are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.self_test:
            return self_test()
        if args.update_anchors:
            return update_anchors()
        if not args.workload:
            parser.error("--workload is required")
        if args.steadiness:
            return steadiness(args.workload, args.seed, args.seconds,
                              args.steadiness, args.sets)
        result = run_once(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.inject_fault)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
