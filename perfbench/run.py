#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload fig9-cold --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds the repository and the
benchmark's own harness into .bench_build (or $CARGO_TARGET_DIR), runs
the workload in a fresh directory under .bench_runs, checks every
output, and prints one JSON line last:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured on the built
ubik_run / ubik_serve binaries as black boxes. --trace 1 is a separate
run that reports the per-layer metrics from perfbench_layers, the
benchmark's traced in-process harness. perfbench/README.md defines the
workloads and every metric.

    python3 perfbench/run.py --workload serve-warm --capacity

measures the closed-loop capacity of the serve-warm daemon, from which
the stream's rate (SERVE_RATE below) is set.
"""

import argparse
import fcntl
import glob
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Pinned machine scale. The sweeps run the paper's sweeps at 1/32 of
# the paper machine; the serving daemon's queries never simulate, so
# its cache is filled at 1/64 with shorter runs to keep set-up short.
SWEEP_ENV = {"UBIK_SCALE": "32", "UBIK_MIXES": "1", "UBIK_REQUESTS": "60",
             "UBIK_WARMUP": "15", "UBIK_SEEDS": "1"}
SERVE_ENV = {"UBIK_SCALE": "64", "UBIK_MIXES": "1", "UBIK_REQUESTS": "30",
             "UBIK_WARMUP": "10", "UBIK_SEEDS": "1"}
SWEEP_JOBS = 3      # engine workers of every sweep (below nproc)
DAEMON_JOBS = 1     # ubik_serve --jobs (queries only read the cache);
                    # --threads stays at its default
SWEEP_SETUPS = 41   # spec dumps per sweep run (set-up is milliseconds)
SERVE_SETUPS = 3    # full serve-warm set-ups per run
COLD_SWEEPS = 3     # cold sweeps per sweep run; metrics are their median

# The figure re-runs over the warm cache: this many users, each
# re-running the figure as soon as the last run returns (closed loop);
# two gave 600-2300 re-runs in 10 s on the reference host, depending on
# its speed (ten lie beyond p99 from 1000 on).
WARM_CLIENTS = 2
# Closed-loop capacity of the serve-warm daemon, in queries per second:
# `run.py --workload serve-warm --capacity` (nproc connections sending
# the stream's mix back to back for 10 s), median of five seeds on the
# reference host (4 shared vCPUs, "Intel(R) Xeon(R) Processor"; the
# five read 352-465).
CAPACITY_QPS = 406
# The open-loop stream offers this share of it: well below the knee, so
# a query seldom waits behind another and the round trips show service
# time, not backlog. At 10 s the stream holds 1020 queries (10 beyond
# p99).
RATE_FRACTION = 0.25
SERVE_RATE = round(RATE_FRACTION * CAPACITY_QPS)

# results-JSON digests of the cold sweeps at SWEEP_ENV (sha256).
PINNED_DIGESTS = {
    "fig9": "8b084adb2a205bcc1628f2cf5cd3d3f39b7450ae4bb702a59d2555672dc948fd",
    "fig13": "9eabd7ee7223aea9f1b33961bef29733da366282d656d544b42445a85779dd53",
}

# serve-warm query classes and their exact shares of the stream. The
# mix is synthetic: nothing records real ubik_serve traffic. The shares
# put the median inside the sweep class and p99 inside the fleet class,
# never in a gap between two classes' latencies, where a tiny change
# would move them far (README: how much of the daemon's CPU each class
# takes).
CLASS_SHARES = [("memo", 0.30), ("sweep", 0.45), ("fleet", 0.15),
                ("traced", 0.10)]
# Registered queries answered once in set-up, so each one the stream
# sends is a memo hit: (name, --set overrides).
MEMO_QUERIES = [("fig9", []), ("fig9", ["schemes=Ubik,LRU"]),
                ("fig9", ["load=low"]), ("fleet-utilization", []),
                ("fleet-sizing", [])]
FLEET_SPECS = ["fleet-utilization", "fleet-sizing"]

TOOLS = ["ubik_run", "ubik_serve", "ubik_trace"]


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


class ProgramFailure(Exception):
    """The program failed so that the run cannot go on; the result is
    printed with correct:false."""


class Tally:
    """Operations a run attempted and how many of them failed. A failure
    of the program is counted here and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("  FAILED: " + what)
        return ok


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(root):
    """Configure once, then bring the needed targets up to date."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise BenchError("run from the root of a repository checkout "
                         "(CMakeLists.txt and src/ are missing here)")
    out = build_dir(root)
    os.makedirs(out, exist_ok=True)
    logf = os.path.join(out, "perfbench-build.log")
    with open(os.path.join(out, ".lock"), "w") as lock, open(logf, "a") as lf:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=lf, stderr=subprocess.STDOUT)
            if rc:
                raise BenchError("cmake configure failed (see %s)" % logf)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        rc = subprocess.call(
            ["cmake", "--build", out, "-j", jobs, "--target"] + TOOLS
            + ["perfbench_layers"], stdout=lf, stderr=subprocess.STDOUT)
        if rc:
            raise BenchError("build failed (see %s)" % logf)
    bins = {t: os.path.join(out, "ubik", t) for t in TOOLS}
    bins["perfbench_layers"] = os.path.join(out, "perfbench_layers")
    return bins


# ---------------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------------

def read_text(path, default=""):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return default


def source_digest(root):
    h = hashlib.sha256()
    files = []
    for top in ("src", "tools", "perfbench"):
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            files += [os.path.join(dirpath, n) for n in names]
    files.append(os.path.join(root, "CMakeLists.txt"))
    for path in sorted(files):
        if path.endswith((".pyc",)) or "__pycache__" in path:
            continue
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(root, args):
    cpu = re.search(r"^model name\s*:\s*(.+)$", read_text("/proc/cpuinfo"), re.M)
    thp = re.search(r"\[(\w+)\]",
                    read_text("/sys/kernel/mm/transparent_hugepage/enabled"))
    out = build_dir(root)
    cache = read_text(os.path.join(out, "CMakeCache.txt"))

    def cached(key):
        m = re.search(r"^%s:\w+=(.*)$" % re.escape(key), cache, re.M)
        return m.group(1) if m else ""

    version = ""
    for path in glob.glob(os.path.join(out, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        m = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]+)"', read_text(path))
        version = m.group(1) if m else version
    flags = re.search(r"^CXX_FLAGS = (.*)$", read_text(os.path.join(
        out, "ubik", "CMakeFiles", "ubik_core.dir", "flags.make")), re.M)
    rev = "none"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            rev = subprocess.check_output(["git", "rev-parse", "HEAD"], cwd=root,
                                          stderr=subprocess.DEVNULL,
                                          text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    flag_text = flags.group(1).strip() if flags else ""
    return {
        "cpu": cpu.group(1).strip() if cpu else "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "thp": thp.group(1) if thp else "unknown",
        "compiler": "%s %s" % (os.path.basename(cached("CMAKE_CXX_COMPILER")), version),
        "build_type": cached("CMAKE_BUILD_TYPE"),
        "cxx_flags": flag_text,
        "lto": "-flto" in flag_text,
        "ubik_native": cached("UBIK_NATIVE") or "OFF",
        "git_rev": rev,
        "source_digest": source_digest(root),
        "sweep_env": SWEEP_ENV,
        "serve_env": SERVE_ENV,
        "sweep_workers": SWEEP_JOBS,
        "daemon_jobs": DAEMON_JOBS,
        "serve_rate": SERVE_RATE,
        "daemon_threads": "default",
        "connections": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def child_env(pinned):
    env = {k: v for k, v in os.environ.items() if not k.startswith("UBIK_")}
    env.update(pinned)
    return env


def run_measured(argv, env, cwd, stdout=subprocess.DEVNULL, stderr=None):
    """Run to completion: (exit code, wall s, user+sys CPU s, peak RSS MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, env=env, cwd=cwd, stdout=stdout,
                         stderr=stderr if stderr is not None else subprocess.DEVNULL)
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def run_logged(argv, env, cwd, stdout=subprocess.DEVNULL):
    """run_measured with standard error appended to <cwd>/stderr.log."""
    with open(os.path.join(cwd, "stderr.log"), "a") as err:
        return run_measured(argv, env, cwd, stdout=stdout, stderr=err)


def dump_spec(bins, env, cwd, name, path):
    """`ubik_run --dump name` into path: (ok, CPU s)."""
    with open(path, "w") as f:
        rc, _, cpu, _ = run_logged([bins["ubik_run"], "--dump", name], env, cwd, stdout=f)
    return rc == 0, cpu


def sha256_file(path):
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))
    return s[k]


# ---------------------------------------------------------------------------
# Load generators
# ---------------------------------------------------------------------------

def open_loop(schedule, fire, connections):
    """Send request i at schedule[i] (s from the stream's start) with at
    most `connections` in flight. fire(i) returns the response or
    raises. Records are (round trip s, late s, response, error); the
    round trip runs from the due time, so a stall also delays every
    request due during it, and `late` is how far behind schedule the
    generator sent the request."""
    recs = [None] * len(schedule)
    lock = threading.Lock()
    state = {"next": 0}
    t0 = time.perf_counter() + 0.05
    give_up = t0 + (schedule[-1] if schedule else 0) + 30

    def worker():
        while True:
            with lock:
                i = state["next"]
                state["next"] += 1
            if i >= len(schedule):
                return
            due = t0 + schedule[i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            start = time.perf_counter()
            resp, err = None, None
            try:
                if start > give_up:
                    raise RuntimeError("not sent: the stream fell 30 s behind")
                resp = fire(i)
            except Exception as e:  # every failure is counted, none is fatal
                err = str(e) or type(e).__name__
            recs[i] = (time.perf_counter() - due, start - due, resp, err)

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return recs


def closed_loop(seconds, fire, clients):
    """`clients` users, each sending its next request as soon as the
    last one returned, for `seconds`. Records as for open_loop; `late`
    is the generator's own gap between a reply and the next request."""
    recs, lock = [], threading.Lock()
    end = time.perf_counter() + seconds

    def client():
        last = time.perf_counter()
        while last < end:
            start = time.perf_counter()
            resp, err = None, None
            try:
                resp = fire()
            except Exception as e:  # every failure is counted, none is fatal
                err = str(e) or type(e).__name__
            done = time.perf_counter()
            with lock:
                recs.append((done - start, start - last, resp, err))
            last = done

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return recs


def stream_metrics(recs, classes):
    """The stream's round trips, lateness and class shares; reported
    by the traced run (see README: their spread is too wide to gate)."""
    rts = [r[0] * 1e3 for r in recs]
    late = [max(0.0, r[1]) * 1e3 for r in recs]
    gen = {"gen.requests": len(recs), "gen.rt_p50_ms": statistics.median(rts),
           "gen.rt_p99_ms": percentile(rts, 99),
           "gen.late_p99_ms": percentile(late, 99), "gen.late_max_ms": max(late)}
    for c, _ in CLASS_SHARES:
        gen["gen.share." + c] = classes.count(c) / len(recs)
    return gen


# ---------------------------------------------------------------------------
# Sweep workloads: fig9-cold, fig13-cold
# ---------------------------------------------------------------------------

def sweep_workload(fig, bins, run_dir, args, tally):
    """Set-ups, COLD_SWEEPS cold sweeps of the set-up's spec, then warm
    re-runs of it: (end-to-end metrics, stream metrics, spec path)."""
    env = child_env(SWEEP_ENV)
    d = os.path.join(run_dir, "sweep")
    spec = os.path.join(d, "spec.json")
    setups = []
    for _ in range(SWEEP_SETUPS):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        ok, cpu = dump_spec(bins, env, d, fig, spec)
        tally.add(ok, "ubik_run --dump %s" % fig)
        setups.append(cpu)

    want = PINNED_DIGESTS[fig]
    sweeps = []
    for k in range(COLD_SWEEPS):
        cache = os.path.join(d, "cache%d" % k)
        results = os.path.join(d, "results%d.json" % k)
        rc, wall, cpu, rss = run_logged(
            [bins["ubik_run"], "--spec", spec, "--jobs", str(SWEEP_JOBS),
             "--cache-dir", cache, "--results", results], env, d)
        digest = sha256_file(results) if rc == 0 else None
        tally.add(digest == want, "[%s] cold sweep: exit %d, digest %s (pinned %s)"
                  % (fig, rc, digest, want))
        log("  [%s] cold sweep %.2f s wall, %.2f s CPU, %.1f MB" % (fig, wall, cpu, rss))
        sweeps.append((wall, cpu, rss))
    out = {"setup_s": statistics.median(setups),
           "sweep_s": statistics.median(s[0] for s in sweeps),
           "cpu_s": statistics.median(s[1] for s in sweeps),
           "peak_rss_mb": statistics.median(s[2] for s in sweeps)}

    # Users re-running the figure over the filled cache; each re-run
    # must write the same results document.
    slot = threading.local()
    slots = itertools.count()

    def fire():
        if not hasattr(slot, "path"):
            slot.path = os.path.join(d, "warm%d.json" % next(slots))
        rc = subprocess.call([bins["ubik_run"], "--spec", spec, "--jobs", str(SWEEP_JOBS),
                              "--cache-dir", cache, "--results", slot.path],
                             env=env, cwd=d, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=30)
        if rc:
            raise RuntimeError("exit %d" % rc)
        return sha256_file(slot.path)

    recs = closed_loop(args.seconds, fire, WARM_CLIENTS)
    bad = sum(1 for r in recs if r[3] is not None or r[2] != want)
    tally.attempted += len(recs)
    tally.failed += bad
    gen = stream_metrics(recs, ["sweep"] * len(recs))
    log("  [%s] %d warm re-runs: p50 %.2f ms, p99 %.2f ms, %d failed"
        % (fig, len(recs), gen["gen.rt_p50_ms"], gen["gen.rt_p99_ms"], bad))
    return out, gen, spec


def traced_sweep(bins, env, spec, want, run_dir, tally):
    """perfbench_layers sweep on `spec`: the layer metrics. Its results
    document must have the sha256 `want`."""
    tdir = os.path.join(run_dir, "traced")
    os.makedirs(tdir)
    results = os.path.join(tdir, "results.json")
    metrics_path = os.path.join(tdir, "sweep_metrics.json")
    rc, _, _, _ = run_logged(
        [bins["perfbench_layers"], "sweep", "--spec", spec,
         "--cache-dir", os.path.join(tdir, "cache"), "--jobs", str(SWEEP_JOBS),
         "--results", results, "--out", metrics_path], env, tdir)
    if not os.path.isfile(metrics_path):
        raise ProgramFailure("traced sweep exited %d without metrics (see %s/stderr.log)"
                             % (rc, tdir))
    tally.add(rc == 0 and sha256_file(results) == want,
              "traced sweep: exit %d; its results must equal the untraced run's" % rc)
    with open(metrics_path) as f:
        layer = json.load(f)
    log("  traced sweep: engine %.2f s, tracing overhead %+.1f%%"
        % (layer["sweep.wall_s"], layer["bench.trace_overhead"] * 100))
    return layer


def sweep_traced(fig, bins, run_dir, args, tally):
    """The untraced run first (its stream gives the generator figures),
    then the traced sweep and the probes."""
    _, gen, spec = sweep_workload(fig, bins, run_dir, args, tally)
    layer = traced_sweep(bins, child_env(SWEEP_ENV), spec, PINNED_DIGESTS[fig],
                         run_dir, tally)
    layer.update(run_probe(bins, run_dir, args, tally))
    layer.update(gen)
    return layer


# ---------------------------------------------------------------------------
# serve-warm
# ---------------------------------------------------------------------------

def traced_spec(fleet_util_spec, trace_path):
    """An explicit-mix spec whose LC side replays a recorded trace."""
    s = json.loads(fleet_util_spec)
    s.pop("fleet", None)
    s.update(name="perfbench-traced", title="trace-backed serve query", notes="")
    s["mixes"][0]["lc_traces"] = [trace_path]
    return s


def query(sock_path, body, timeout=10.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall(body)
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            b = s.recv(1 << 16)
            if not b:
                break
            chunks.append(b)
    return b"".join(chunks)


def stop_process(p):
    if p.poll() is None:
        p.send_signal(signal.SIGTERM)
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()


def record_trace(bins, env, cwd, path, seed):
    """`ubik_trace --record masstree` from the seed: (ok, CPU s)."""
    rc, _, cpu, _ = run_logged(
        [bins["ubik_trace"], "--record", "masstree", "--requests", "200",
         "--scale", SERVE_ENV["UBIK_SCALE"], "--seed", str(seed), "--out", path], env, cwd)
    return rc == 0, cpu


def memo_request(k):
    name, sets = MEMO_QUERIES[k]
    req = {"query": "scenario", "name": name}
    if sets:
        req["set"] = sets
    return json.dumps(req).encode()


def serve_setup(bins, run_dir, k, seed, tally):
    """Record a trace, fill the cache (also writing the expected answer
    of every query), start the daemon, answer the memo queries once.
    Returns the set-up's state, the CPU seconds its processes used
    (the daemon's up to the end of set-up) and the fig9 fill's
    wall-clock. A failed step fails the set-up; the run goes on."""
    d = os.path.join(run_dir, "serve%d" % k)
    for sub in ("cache", "traces", "expected", "specs"):
        os.makedirs(os.path.join(d, sub))
    env = child_env(SERVE_ENV)
    errors = []
    trace = os.path.join(d, "traces", "masstree.ubtr")
    ok, cpu = record_trace(bins, env, d, trace, seed)
    if not ok:
        errors.append("ubik_trace --record")
    spec_files = {}
    for name in ["fig9"] + FLEET_SPECS:
        spec_files[name] = os.path.join(d, "specs", name + ".json")
        ok, c = dump_spec(bins, env, d, name, spec_files[name])
        cpu += c
        if not ok:
            raise ProgramFailure("ubik_run --dump %s failed (see %s/stderr.log)" % (name, d))
    specs = {}
    for name, path in spec_files.items():
        with open(path) as f:
            specs[name] = json.load(f)
    spec_files["traced"] = os.path.join(d, "specs", "traced.json")
    specs["traced"] = traced_spec(json.dumps(specs["fleet-utilization"]), trace)
    with open(spec_files["traced"], "w") as f:
        json.dump(specs["traced"], f, indent=2)

    cache = os.path.join(d, "cache")
    expected = {}
    fill_wall = 0.0
    fills = [("fig9", ["fig9"])] + [(n, [n]) for n in FLEET_SPECS]
    fills.append(("traced", ["--spec", spec_files["traced"]]))
    for i, (name, sets) in enumerate(MEMO_QUERIES):
        fills.append(("memo%d" % i, [name] + [a for s in sets for a in ("--set", s)]))
    for key, argv in fills:
        path = os.path.join(d, "expected", key + ".json")
        rc, wall, c, _ = run_logged(
            [bins["ubik_run"]] + argv + ["--jobs", str(SWEEP_JOBS), "--cache-dir", cache,
                                         "--results", path], env, d)
        cpu += c
        fill_wall = wall if key == "fig9" else fill_wall
        if rc:
            errors.append("cache fill %s: exit %d" % (key, rc))
            continue
        with open(path) as f:
            expected[key] = json.load(f)

    # Unix socket paths are limited to ~100 bytes: the daemon binds a
    # name relative to its run directory, the client (whose working
    # directory is the checkout root) connects through a relative path.
    sock = os.path.relpath(os.path.join(d, "serve.sock"))
    with open(os.path.join(d, "daemon.log"), "w") as daemon_log:
        daemon = subprocess.Popen(
            [bins["ubik_serve"], "--socket", "serve.sock", "--cache-dir", cache,
             "--jobs", str(DAEMON_JOBS)], env=env, cwd=d,
            stdout=subprocess.DEVNULL, stderr=daemon_log)
    try:
        deadline = time.perf_counter() + 30
        while True:
            try:
                if json.loads(query(sock, b'{"query":"list"}')).get("ok"):
                    break
            except (OSError, ValueError):
                pass
            if daemon.poll() is not None or time.perf_counter() > deadline:
                errors.append("ubik_serve did not answer `list` (see %s/daemon.log)" % d)
                break
            time.sleep(0.002)
        for i in range(len(MEMO_QUERIES)):
            try:
                answer = query(sock, memo_request(i))
            except OSError as e:
                answer = str(e).encode()
            if not check_response(answer, expected.get("memo%d" % i)):
                errors.append("memo query %d answered wrongly" % i)
        cpu += proc_cpu_s(daemon.pid)
    except BaseException:
        stop_process(daemon)
        raise
    tally.add(not errors, "serve set-up %d: %s" % (k, "; ".join(errors)))
    state = {"dir": d, "sock": sock, "daemon": daemon, "expected": expected,
             "specs": specs, "spec_files": spec_files}
    return state, cpu, fill_wall


def stream_classes(seed, n):
    """n query classes in the exact shares of CLASS_SHARES, in a seeded
    order, and n due times: uniform draws over the stream's window,
    i.e. a Poisson stream conditioned on its count (in units of the
    window)."""
    rng = random.Random(seed)
    schedule = sorted(rng.random() for _ in range(n))
    classes = []
    for c, share in CLASS_SHARES:
        classes += [c] * round(share * n)
    classes = (classes + ["memo"] * n)[:n]
    rng.shuffle(classes)
    return schedule, classes


def serve_request(cls, i, specs, tag):
    """The i-th request, of class cls: (expected-answer key, body).
    Inline specs get the fresh name <tag><i>."""
    if cls == "memo":
        k = i % len(MEMO_QUERIES)
        return "memo%d" % k, memo_request(k)
    key = {"sweep": "fig9", "traced": "traced"}.get(cls) or FLEET_SPECS[i % 2]
    req = {"query": "scenario", "spec": dict(specs[key], name="%s%d" % (tag, i))}
    return key, json.dumps(req).encode()


def proc_cpu_s(pid):
    """User + system CPU seconds of a live (or unreaped) process; 0 if
    it is gone."""
    fields = read_text("/proc/%d/stat" % pid).rsplit(")", 1)[-1].split()
    if len(fields) < 13:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_status_kb(pid, key):
    m = re.search(r"^%s:\s+(\d+)" % key, read_text("/proc/%d/status" % pid), re.M)
    return float(m.group(1)) if m else 0.0


def check_response(body, expected):
    """ok:true and results equal to `ubik_run --results`, name aside."""
    if expected is None:
        return False
    try:
        resp = json.loads(body)
    except ValueError:
        return False
    if resp.get("ok") is not True or not isinstance(resp.get("results"), dict):
        return False
    got = dict(resp["results"], scenario=expected.get("scenario"))
    return got == expected


def serve_workload(bins, run_dir, args, tally):
    """SERVE_SETUPS set-ups (the last one's daemon serves), then the
    open-loop stream; every response is checked after the stream."""
    setups, fills, state = [], [], None
    try:
        for k in range(SERVE_SETUPS):
            if state:
                stop_process(state["daemon"])
            state, setup_cpu, fill_s = serve_setup(bins, run_dir, k, args.seed, tally)
            setups.append(setup_cpu)
            fills.append(fill_s)
        n = SERVE_RATE * args.seconds
        schedule, classes = stream_classes(args.seed, n)
        reqs = [serve_request(c, i, state["specs"], "q%d-" % args.seed)
                for i, c in enumerate(classes)]
        pid = state["daemon"].pid
        cpu0 = proc_cpu_s(pid)
        recs = open_loop([t * args.seconds for t in schedule],
                         lambda i: query(state["sock"], reqs[i][1]),
                         len(os.sched_getaffinity(0)))
        cpu1 = proc_cpu_s(pid)
        rss_mb = proc_status_kb(pid, "VmHWM") / 1024.0
        try:
            stats = json.loads(query(state["sock"], b'{"query":"stats"}')).get("stats")
        except (OSError, ValueError) as e:
            stats = "unavailable (%s)" % e
    finally:
        if state:
            stop_process(state["daemon"])
    bad = sum(1 for (key, _), r in zip(reqs, recs)
              if r[3] is not None or not check_response(r[2], state["expected"].get(key)))
    tally.attempted += len(recs)
    tally.failed += bad
    gen = stream_metrics(recs, classes)
    out = {"setup_s": statistics.median(setups), "sweep_s": statistics.median(fills),
           "cpu_s": cpu1 - cpu0, "peak_rss_mb": rss_mb}
    log("  [serve-warm] set-up CPU %s s; %d queries: p50 %.2f ms, p99 %.2f ms, "
        "%d failed; daemon stats %s" % (["%.2f" % s for s in setups], len(recs),
                                        gen["gen.rt_p50_ms"], gen["gen.rt_p99_ms"], bad,
                                        json.dumps(stats)))
    return out, gen, state


def serve_traced(bins, run_dir, args, tally):
    """The untraced run, then the set-up's fig9 fill again, traced, and
    the probes over the set-up's trace-backed spec."""
    _, gen, state = serve_workload(bins, run_dir, args, tally)
    layer = traced_sweep(bins, child_env(SERVE_ENV), state["spec_files"]["fig9"],
                         sha256_file(os.path.join(state["dir"], "expected", "fig9.json")),
                         run_dir, tally)
    layer.update(run_probe(bins, run_dir, args, tally, state["spec_files"]["traced"]))
    layer.update(gen)
    return layer


def serve_capacity(bins, run_dir, args):
    """Closed-loop capacity of the serve-warm daemon: nproc connections,
    each sending the stream's mix back to back for --seconds. Prints
    one JSON line."""
    tally = Tally()
    state, _, _ = serve_setup(bins, run_dir, 0, args.seed, tally)
    _, classes = stream_classes(args.seed, SERVE_RATE * args.seconds)
    counter = itertools.count()
    connections = len(os.sched_getaffinity(0))

    def fire():
        i = next(counter)
        key, body = serve_request(classes[i % len(classes)], i, state["specs"],
                                  "cap%d-" % args.seed)
        if not check_response(query(state["sock"], body), state["expected"].get(key)):
            raise RuntimeError("wrong answer")

    try:
        t0 = time.perf_counter()
        recs = closed_loop(args.seconds, fire, connections)
        elapsed = time.perf_counter() - t0
    finally:
        stop_process(state["daemon"])
    ok = sum(1 for r in recs if r[3] is None)
    print(json.dumps({"capacity_qps": ok / elapsed, "queries": len(recs),
                      "failed": len(recs) - ok + tally.failed,
                      "connections": connections}), flush=True)
    return 0 if ok == len(recs) and not tally.failed else 1


# ---------------------------------------------------------------------------
# Probes (every traced run)
# ---------------------------------------------------------------------------

def run_probe(bins, run_dir, args, tally, traced_spec_file=None):
    """perfbench_layers probe: its metrics, plus each query class's
    share of the serving daemon's CPU at the stream's class shares."""
    pdir = os.path.join(run_dir, "probe")
    os.makedirs(pdir, exist_ok=True)
    env = child_env(SERVE_ENV)
    if traced_spec_file is None:
        trace = os.path.join(pdir, "masstree.ubtr")
        util = os.path.join(pdir, "fleet-utilization.json")
        if not (record_trace(bins, env, pdir, trace, args.seed)[0]
                and dump_spec(bins, env, pdir, "fleet-utilization", util)[0]):
            raise ProgramFailure("probe set-up failed (see %s/stderr.log)" % pdir)
        traced_spec_file = os.path.join(pdir, "traced.json")
        with open(util) as f, open(traced_spec_file, "w") as out:
            json.dump(traced_spec(f.read(), trace), out, indent=2)
    out = os.path.join(pdir, "probe_metrics.json")
    rc, wall, _, _ = run_logged(
        [bins["perfbench_layers"], "probe", "--dir", ".", "--traced-spec",
         traced_spec_file, "--jobs", str(DAEMON_JOBS), "--out", out], env, pdir)
    with open(os.path.join(pdir, "stderr.log")) as f:
        for line in f:
            if "[parity]" in line or "perfbench_layers" in line:
                log(line.rstrip())
    log("  [probe] %.1f s, exit %d" % (wall, rc))
    if not os.path.isfile(out):
        raise ProgramFailure("probe exited %d without metrics (see %s/stderr.log)"
                             % (rc, pdir))
    tally.add(rc == 0, "probe: exit %d (parity or serve check failed)" % rc)
    with open(out) as f:
        metrics = json.load(f)
    weighted = {c: w * metrics["serve.cpu_us." + c] for c, w in CLASS_SHARES}
    for c, v in weighted.items():
        metrics["serve.cpu_share." + c] = v / sum(weighted.values())
    return metrics


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

WORKLOADS = ["fig9-cold", "fig13-cold", "serve-warm"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default="",
                    help="append this run (fingerprint and metrics) as a "
                         "JSON line to this file, for compare.py")
    ap.add_argument("--keep", action="store_true",
                    help="keep the run directory under .bench_runs")
    ap.add_argument("--capacity", action="store_true",
                    help="serve-warm only: measure the daemon's closed-loop "
                         "capacity instead of running the workload")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.capacity and args.workload != "serve-warm":
        ap.error("--capacity measures the serve-warm daemon")

    root = os.getcwd()
    try:
        with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        bins = build(root)
    except (BenchError, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        return 2
    host = fingerprint(root, args)
    print("# host " + json.dumps(host, sort_keys=True), flush=True)

    run_dir = os.path.join(root, ".bench_runs", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(run_dir)
    tally = Tally()
    metrics = {}
    try:
        if args.capacity:
            rc = serve_capacity(bins, run_dir, args)
            if not args.keep:
                shutil.rmtree(run_dir, ignore_errors=True)
            return rc
        if args.workload == "serve-warm":
            if args.trace:
                metrics = serve_traced(bins, run_dir, args, tally)
            else:
                metrics = serve_workload(bins, run_dir, args, tally)[0]
        else:
            fig = args.workload.split("-")[0]
            if args.trace:
                metrics = sweep_traced(fig, bins, run_dir, args, tally)
            else:
                metrics = sweep_workload(fig, bins, run_dir, args, tally)[0]
    except ProgramFailure as e:
        tally.add(False, str(e))
    except (BenchError, OSError, ValueError, subprocess.CalledProcessError) as e:
        log("perfbench: %s (run directory kept: %s)" % (e, run_dir))
        return 2
    if tally.failed:
        log("perfbench: %d of %d operations failed (run directory kept: %s)"
            % (tally.failed, tally.attempted, run_dir))
    elif not args.keep:
        shutil.rmtree(run_dir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[kind]}
    missing = sorted(set(declared) - set(metrics))
    if missing and not tally.failed:
        log("perfbench: metrics not measured: %s" % ", ".join(missing))
        return 2
    for name in declared:
        if name in metrics:
            log("  %-40s %14.6g %s" % (name, metrics[name], declared[name]))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in declared.items() if n in metrics},
    }
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"host": host, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
