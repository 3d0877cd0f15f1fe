#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer metrics of the
Dalorex simulator on two workloads (see benchmark/README.md).

    python3 benchmark/run.py --workload dense-8x8-t1 --seed 1 \\
        --seconds 45 --trace 0

Run it from the repository root. It builds the simulator and the
benchmark's dlxbench program from source into $CARGO_TARGET_DIR (default
.bench_build), generates every input from --seed, checks every output,
prints each metric by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. The exit code is 0
only when every check passed.
"""

import argparse
import hashlib
import json
import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Wall-clock budget of one run after the build: every subprocess is
# killed past it, so a run always ends inside the 180 s limit.
RUN_BUDGET_S = 165.0

KERNELS = ("bfs", "wcc", "pagerank", "sssp", "sssp-delta", "spmv",
           "kcore", "histogram", "triangle")

# point_seconds and pass_seconds calibrate how much work fills
# --seconds: the amount of work is fixed by (--seed, --seconds), never
# by how fast this build happens to run, so two builds always measure
# the same inputs. Measured on a 4-core x86 host, g++ 12, Release,
# with a margin for a slower host.
#
# Both workloads spread their work over several processes (rounds of
# the engine scenarios, passes of the serve stream): on the reference
# host one process ran the same scenario up to a third slower than the
# next, and medians over processes average that out.
WORKLOADS = {
    "dense-8x8-t1": {
        "kind": "engine", "kernel": "spmv", "scale": 14, "grid": 8,
        "engine_threads": 1, "rounds": 5, "point_seconds": 0.36,
    },
    "serve-mixed": {
        "kind": "serve", "grids": (4, 8), "scales": (9, 10, 11),
        "dataset_seeds": 4, "seeds_per_point": 2, "workers": 2,
        "connections": 4, "pass_seconds": 3.5, "setups": 21,
        "cli_samples": 3, "replica_per_kernel": 3,
    },
}

# --tiny: the same two workloads shrunk to seconds in total, for the
# self-tests. Not a measurement.
TINY = {
    "dense-8x8-t1": {"scale": 9, "grid": 4, "points": 2, "rounds": 2},
    "serve-mixed": {"grids": (4,), "scales": (8,), "dataset_seeds": 1,
                    "seeds_per_point": 1, "passes": 2, "setups": 3,
                    "cli_samples": 1, "replica_per_kernel": 1},
}


def say(text):
    print(text, flush=True)


def fail(message, code=1):
    """Abort without a result line."""
    print(f"benchmark: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


class Checks:
    """Counts runs attempted and the ones that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.notes = []

    def attempt(self, key, ok, why=""):
        self.attempted += 1
        if not ok:
            self.mark(key, why)

    def mark(self, key, why):
        self.failed.add(key)
        self.notes.append(f"{key}: {why}")


# --- host and build ----------------------------------------------------

def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_digest():
    """sha256 over the simulator and benchmark sources: identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            tops.extend(os.path.join(base, f) for f in sorted(files))
    for path in tops:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def build(build_dir):
    """Configure (once) and build `dlxbench` and `dalorex`."""
    log_path = os.path.join(build_dir, "bench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "dlxbench",
                  "dalorex", "-j", str(usable_cpus())])
    with open(log_path, "w") as log:
        for step in steps:
            code = subprocess.run(step, stdout=log, stderr=log).returncode
            if code != 0:
                with open(log_path) as handle:
                    tail = handle.read()[-2000:]
                fail(f"build step {' '.join(step)} failed "
                     f"(log {log_path}):\n{tail}")
    return (os.path.join(build_dir, "dlxbench"),
            os.path.join(build_dir, "dalorex", "dalorex"))


def host_state(info):
    return {"nproc": usable_cpus(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            **info}


# --- subprocesses --------------------------------------------------------

class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return max(0.0, self.end - time.monotonic())


def wait_rusage(proc, deadline):
    """Reap `proc` (killing it past the deadline); returns its exit code
    and peak resident set in KiB."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss
        if deadline.left() == 0.0:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            fail(f"{proc.args[0]} overran the run budget; killed")
        time.sleep(0.005)


def run_dlxbench(argv, scratch, deadline):
    """Run dlxbench to completion; its stdout JSON lines, exit code
    and peak RSS."""
    out_path = os.path.join(scratch, "dlxbench.out")
    err_path = os.path.join(scratch, "dlxbench.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        code, rss_kb = wait_rusage(proc, deadline)
    with open(out_path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    if code != 0:
        with open(err_path) as handle:
            fail(f"dlxbench exited {code}: {handle.read()[-2000:]}")
    return records, rss_kb


# --- identity checks -------------------------------------------------------

class DigestStore:
    """Normalized-report digests keyed by (sources, point), kept in the
    build directory: the same point must report identically in every
    run of the same code, traced or not."""

    def __init__(self, path, source):
        self.path = path
        self.source = source
        try:
            with open(path) as handle:
                self.known = json.load(handle)
        except (OSError, ValueError):
            self.known = {}

    def check(self, point_key, normalized_text):
        key = f"{self.source}:{point_key}"
        value = metrics.digest(normalized_text)
        previous = self.known.setdefault(key, value)
        return previous == value

    def save(self):
        with open(self.path, "w") as handle:
            json.dump(self.known, handle, indent=0, sort_keys=True)


def compare_group(checks, store, label, key, entries):
    """entries: (run id, report) of one point; all must normalize to
    the same bytes, here and in earlier runs of this code."""
    texts = {rid: metrics.normalized(rep) for rid, rep in entries}
    first = next(iter(texts.values()))
    for rid, text in texts.items():
        if text != first:
            checks.mark(rid, f"{label}: report differs from {key}")
    if not store.check(key, first):
        checks.mark(entries[0][0],
                    f"{label}: report differs from an earlier run")


# --- engine workloads --------------------------------------------------------

def engine_flags(wl, dataset_seed):
    return (f"--kernel {wl['kernel']} --scale {wl['scale']} "
            f"--width {wl['grid']} --height {wl['grid']} "
            f"--topology torus --policy traffic-aware "
            f"--engine-threads {wl['engine_threads']} "
            f"--seed {dataset_seed} --validate --json")


def engine_points(name, wl, seed, seconds):
    """The workload's scenarios for (seed, seconds), one dataset seed
    each. Untraced, every scenario runs once in each of the rounds."""
    count = wl.get("points") or max(2, round(
        seconds / (wl["rounds"] * wl["point_seconds"])))
    rng = random.Random(f"{name}:{seed}")
    return [engine_flags(wl, rng.randrange(1, 2**31))
            for _ in range(count)]


def median_of(runs):
    """Per-scenario times as the median over its rounds, each in a
    process of its own."""
    return {"wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "run_s": statistics.median(r["run_s"] for r in runs),
            "report": runs[0]["report"]}


def run_engine(name, wl, args, tools, scratch, store, deadline):
    dlxbench, _ = tools
    flags = engine_points(name, wl, args.seed, args.seconds)
    points_path = os.path.join(scratch, "points.txt")
    with open(points_path, "w") as handle:
        handle.write("\n".join(flags) + "\n")
    spans_path = os.path.join(scratch, "spans.json")
    # Untraced, every round is one dlxbench process over the list;
    # traced, one process runs each line untraced then traced.
    rounds = 1 if args.trace else wl["rounds"]

    checks = Checks()
    runs = [[] for _ in flags]
    rss_kb = []
    for round_ in range(rounds):
        records, rss = run_dlxbench(
            [dlxbench, "points", "--file", points_path, "--trace",
             str(args.trace), "--spans", spans_path],
            scratch, deadline)
        rss_kb.append(rss)
        oracle = None
        for rec in records:
            rid = (f"{rec['kind']}{rec['point']}"
                   f"{'t' if rec['traced'] else ''}r{round_}")
            rec["rid"] = rid
            rec["report"] = (json.loads(rec["payload"]) if rec["payload"]
                             else None)
            checks.attempt(rid, rec["ok"] and rec["report"] is not None
                           and metrics.report_ok(rec["report"]),
                           rec["error"] or "not completed and validated")
            rec["wall_s"] = (rec["end_ns"] - rec["start_ns"]) * 1e-9
            rec["setup_s"] = (rec["run_start_ns"] - rec["start_ns"]) * 1e-9
            rec["run_s"] = (rec["run_end_ns"] - rec["run_start_ns"]) * 1e-9
            if rec["kind"] == "oracle":
                oracle = rec
            else:
                runs[rec["point"]].append(rec)
        first = [r for r in runs[0] if r["rid"] == f"point0r{round_}"]
        if oracle is None or not first:
            fail("dlxbench reported fewer runs than it was given")
        # cli::runScenario itself must render what the staged run
        # renders.
        if oracle["ok"] and oracle["payload"] != first[0]["payload"]:
            checks.mark(oracle["rid"], "cli::runScenario report differs "
                        "from the staged run of the same point")
    if any(len(r) != (2 if args.trace else rounds) for r in runs):
        fail("dlxbench reported fewer runs than it was given")
    if checks.failed:
        return checks, None

    for flag_line, group in zip(flags, runs):
        compare_group(checks, store, "identity", flag_line,
                      [(r["rid"], r["report"]) for r in group])

    if not args.trace:
        say_samples(len(flags))
        return checks, metrics.engine_end_to_end(
            [median_of(group) for group in runs],
            statistics.median(rss_kb))

    points = [r for group in runs for r in group if not r["traced"]]
    with open(spans_path) as handle:
        spans = json.load(handle)["spans"]
    traced_points = [r for group in runs for r in group if r["traced"]]
    reports = [p["report"] for p in traced_points]
    layer = {
        "graph.dataset_ms": 1e3 * statistics.median(
            metrics.span_durations(spans, "graph.dataset")),
        "graph.cache_builds": statistics.mean(
            p["cache_builds"] for p in traced_points),
        "graph.cache_hits": statistics.mean(
            p["cache_hits"] for p in traced_points),
        # The engine workloads never go through the daemon.
        "serve.accept_ms": 0.0,
        "serve.overhead_ms": 0.0,
        "serve.queue_depth": 0.0,
    }
    layer.update(metrics.stage_metrics(spans, reports))
    layer.update(metrics.counter_metrics(reports, statistics.mean))
    diffs = [t["wall_s"] - u["wall_s"]
             for t, u in zip(traced_points, points)]
    layer["trace.overhead_ms"] = 1e3 * statistics.median(diffs)
    layer["trace.overhead_pct"] = 100.0 * statistics.median(diffs) / \
        statistics.median(p["wall_s"] for p in points)
    print_self_times(spans)
    return checks, layer


def say_samples(n):
    p = metrics.supported_percentile(n)
    say(f"latency samples {n}; highest percentile with ten samples "
        f"beyond: {'none' if p is None else f'p{p:g}'}")


def print_self_times(spans):
    """Median total and self time per span name (blocking steps)."""
    totals = {}
    for span in spans:
        totals.setdefault(span["name"], []).append(
            (span["end_ns"] - span["start_ns"]) * 1e-9)
    own = metrics.self_times(spans)
    for name in sorted(totals):
        say(f"span {name:24s} n={len(totals[name]):4d} "
            f"median {1e3 * statistics.median(totals[name]):10.3f} ms "
            f"self {1e3 * statistics.median(own[name]):10.3f} ms")


# --- serve workload ------------------------------------------------------------

def serve_pool(name, wl, seed):
    """Every (kernel, grid, scale) combination on seeds_per_point of
    the dataset seeds, which come from --seed and take turns over the
    combinations: each seed meets every kernel and scale, and the cost
    of a pool averages over that many graphs per scale."""
    rng = random.Random(f"{name}:{seed}")
    dataset_seeds = [rng.randrange(1, 2**31)
                     for _ in range(wl["dataset_seeds"])]
    per = wl["seeds_per_point"]
    combos = [(k, g, s) for k in KERNELS for g in wl["grids"]
              for s in wl["scales"]]
    return [{"kernel": k, "grid": g, "scale": s,
             "seed": dataset_seeds[(per * i + j) % len(dataset_seeds)]}
            for i, (k, g, s) in enumerate(combos) for j in range(per)]


def point_key(p):
    return f"{p['kernel']}/{p['grid']}x{p['grid']}/rmat{p['scale']}/{p['seed']}"


def point_flags(p):
    return (f"--kernel {p['kernel']} --scale {p['scale']} "
            f"--width {p['grid']} --height {p['grid']} "
            f"--seed {p['seed']} --validate --json")


def request_line(index, p):
    """A run request without a client field: each connection adds its
    own, so every connection is a fair-share client."""
    return json.dumps({"type": "run", "id": f"r{index}",
                       "kernel": p["kernel"], "scale": p["scale"],
                       "width": p["grid"], "height": p["grid"],
                       "seed": p["seed"], "validate": True},
                      separators=(",", ":"))


def serve_stream(name, wl, seed, seconds, passes=None):
    """The request stream: whole passes over the pool, each pass in
    its own seeded order."""
    pool = serve_pool(name, wl, seed)
    if passes is None:
        passes = wl.get("passes") or max(1, round(seconds /
                                                  wl["pass_seconds"]))
    rng = random.Random(f"{name}:order:{seed}")
    stream = []
    for _ in range(passes):
        order = list(pool)
        rng.shuffle(order)
        stream.extend(order)
    return pool, stream


class Channel:
    """Newline-framed JSON lines over one connected Unix socket."""

    def __init__(self, sock):
        self.sock = sock
        self.buffer = b""

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def recv_line(self):
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()


def launch_daemon(dalorex, sock_path, workers, log, deadline):
    """Start `dalorex serve`; returns (process, connected channel,
    seconds from launch until the socket accepted)."""
    if os.path.exists(sock_path):
        os.unlink(sock_path)
    start = time.monotonic()
    proc = subprocess.Popen([dalorex, "serve", "--socket", sock_path,
                             "--workers", str(workers)],
                            stdout=subprocess.DEVNULL, stderr=log)
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(sock_path)
            ready = time.monotonic() - start
            sock.settimeout(max(1.0, deadline.left()))
            return proc, Channel(sock), ready
        except OSError:
            sock.close()
            if proc.poll() is not None:
                fail(f"dalorex serve exited {proc.returncode} at start")
            if deadline.left() == 0.0:
                proc.kill()
                proc.wait()
                fail("dalorex serve never accepted a connection")
            time.sleep(0.0002)


def stop_daemon(proc, channel, deadline):
    channel.send('{"type":"shutdown","id":"q"}')
    channel.recv_line()
    channel.sock.close()
    code, rss_kb = wait_rusage(proc, deadline)
    if code != 0:
        fail(f"dalorex serve exited {code} on shutdown")
    return rss_kb


def result_payload(line, request_id):
    """The verbatim report bytes of a result line, or None."""
    prefix = f'{{"type":"result","id":{json.dumps(request_id)},"report":'
    if line.startswith(prefix) and line.endswith("}"):
        return line[len(prefix):-1]
    return None


def closed_loop(sock_path, lines, connections, deadline):
    """Send `lines` over `connections` closed-loop clients; returns
    one record per line (sent/accepted/answered times, answer)."""
    records = [None] * len(lines)
    cursor = {"next": 0}
    lock = threading.Lock()
    errors = []

    def client(index):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(max(1.0, deadline.left()))
        try:
            sock.connect(sock_path)
            channel = Channel(sock)
            while True:
                with lock:
                    i = cursor["next"]
                    if i == len(lines):
                        return
                    cursor["next"] = i + 1
                line = f'{{"client":"c{index}",' + lines[i][1:]
                rec = {"sent": time.monotonic()}
                channel.send(line)
                while True:
                    answer = channel.recv_line()
                    if answer.startswith('{"type":"accepted"'):
                        rec["accepted"] = time.monotonic()
                        continue
                    break
                rec["answered"] = time.monotonic()
                rec["line"] = answer
                records[i] = rec
        except OSError as exc:  # timeouts and resets included
            errors.append(f"client {index}: {exc}")
        finally:
            sock.close()

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        fail("; ".join(errors))
    return records


def run_serve(name, wl, args, tools, scratch, store, deadline):
    if args.trace:
        return run_serve_traced(name, wl, args, tools, scratch, store,
                                deadline)
    _, dalorex = tools
    pool, stream = serve_stream(name, wl, args.seed, args.seconds)
    lines = [request_line(i, p) for i, p in enumerate(stream)]
    passes = len(stream) // len(pool)
    sock_path = os.path.join(os.path.relpath(args.build_dir), "serve.sock")
    checks = Checks()

    # Every pass runs on a daemon of its own, started cold; the
    # launches before the first pass only time set-up.
    proc = None
    try:
        with open(os.path.join(scratch, "daemon.log"), "w") as log:
            setups = []
            for _ in range(max(0, wl["setups"] - passes)):
                proc, channel, ready = launch_daemon(
                    dalorex, sock_path, wl["workers"], log, deadline)
                setups.append(ready)
                stop_daemon(proc, channel, deadline)
            records, pass_walls, daemon_stats, rss_kb = [], [], [], []
            for n in range(passes):
                proc, channel, ready = launch_daemon(
                    dalorex, sock_path, wl["workers"], log, deadline)
                setups.append(ready)
                part = closed_loop(
                    sock_path, lines[n * len(pool):(n + 1) * len(pool)],
                    wl["connections"], deadline)
                pass_walls.append(max(r["answered"] for r in part) -
                                  min(r["sent"] for r in part))
                records += part
                channel.send('{"type":"stats","id":"s"}')
                daemon_stats.append(json.loads(channel.recv_line())["stats"])
                rss_kb.append(stop_daemon(proc, channel, deadline))
    except BaseException:
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.wait()
        raise

    served = []
    groups = {}
    for i, (rec, p) in enumerate(zip(records, stream)):
        rid = f"r{i}"
        payload = result_payload(rec["line"], rid)
        report = json.loads(payload) if payload is not None else None
        checks.attempt(rid, report is not None and
                       metrics.report_ok(report),
                       rec["line"][:200])
        if report is None:
            continue
        rec.update(report=report, payload=payload,
                   latency_s=rec["answered"] - rec["sent"])
        served.append(rec)
        groups.setdefault(point_key(p), []).append((rid, report, payload))
    if checks.failed:
        return checks, None
    for key, entries in groups.items():
        compare_group(checks, store, "repeat", key,
                      [(rid, rep) for rid, rep, _ in entries])

    # A seeded sample of served payloads against standalone `dalorex
    # --json` for the same point: byte for byte.
    rng = random.Random(f"{name}:cli:{args.seed}")
    for p in rng.sample(pool, wl["cli_samples"]):
        rid, _, payload = groups[point_key(p)][0]
        out = subprocess.run([dalorex] + point_flags(p).split(),
                             capture_output=True, text=True,
                             timeout=max(1.0, deadline.left()))
        checks.attempt(f"cli:{point_key(p)}",
                       out.returncode == 0 and out.stdout == payload + "\n",
                       f"dalorex --json differs from served {rid}")

    for n, stats in enumerate(daemon_stats):
        say(f"pass {n} daemon stats: runs_completed "
            f"{stats['runs_completed']} runs_failed {stats['runs_failed']}"
            f" dataset_cache {json.dumps(stats['dataset_cache'])}")
    say(f"pass walls (s): {' '.join(f'{w:.3f}' for w in pass_walls)}")
    say(f"setup samples (s): {' '.join(f'{s:.6f}' for s in setups)}")
    say_samples(len(served))
    return checks, metrics.serve_end_to_end(served, pass_walls, setups,
                                            statistics.median(rss_kb))


def run_serve_traced(name, wl, args, tools, scratch, store, deadline):
    dlxbench, _ = tools
    pool, stream = serve_stream(name, wl, args.seed, args.seconds,
                                passes=1)
    rng = random.Random(f"{name}:sample:{args.seed}")
    sample = []
    for kernel in KERNELS:
        sample += rng.sample([p for p in pool if p["kernel"] == kernel],
                             wl["replica_per_kernel"])
    requests_path = os.path.join(scratch, "requests.txt")
    sample_path = os.path.join(scratch, "sample.txt")
    spans_path = os.path.join(scratch, "spans.json")
    with open(requests_path, "w") as handle:
        handle.write("\n".join(request_line(i, p)
                               for i, p in enumerate(stream)) + "\n")
    with open(sample_path, "w") as handle:
        handle.write("\n".join(point_flags(p) for p in sample) + "\n")
    records, _ = run_dlxbench(
        [dlxbench, "serve", "--requests", requests_path, "--sample",
         sample_path, "--workers", str(wl["workers"]), "--connections",
         str(wl["connections"]), "--spans", spans_path],
        scratch, deadline)

    checks = Checks()
    # Pass 1 is traced; passes 0 and 2 are its untraced neighbours.
    passes = {r["pass"]: r for r in records if r["kind"] == "pass"}
    served = {n: [None] * len(stream) for n in range(3)}
    replica = []
    for rec in records:
        if rec["kind"] == "request":
            rid = f"r{rec['index']}p{rec['pass']}"
            report = json.loads(rec["payload"]) if rec["ok"] else None
            checks.attempt(rid, report is not None and
                           metrics.report_ok(report), rec["payload"][:200])
            rec.update(rid=rid, report=report,
                       latency_s=(rec["answered_ns"] - rec["sent_ns"]) *
                       1e-9)
            served[rec["pass"]][rec["index"]] = rec
        elif rec["kind"] == "point":
            rid = f"s{rec['point']}"
            report = json.loads(rec["payload"]) if rec["ok"] else None
            checks.attempt(rid, report is not None and
                           metrics.report_ok(report), rec["error"])
            rec.update(rid=rid, report=report,
                       wall_s=(rec["end_ns"] - rec["start_ns"]) * 1e-9)
            replica.append(rec)
    if (len(passes) != 3 or len(replica) != len(sample) or
            any(r is None for recs in served.values() for r in recs)):
        fail("dlxbench reported an incomplete serve run")
    if checks.failed:
        return checks, None

    groups = {}
    for i, p in enumerate(stream):
        for recs in served.values():
            groups.setdefault(point_key(p), []).append(
                (recs[i]["rid"], recs[i]["report"]))
    for p, rec in zip(sample, replica):
        groups[point_key(p)].append((rec["rid"], rec["report"]))
    for key, entries in groups.items():
        compare_group(checks, store, "identity", key, entries)

    with open(spans_path) as handle:
        spans = json.load(handle)["spans"]
    traced = served[1]
    replica_wall = {point_key(p): rec["wall_s"]
                    for p, rec in zip(sample, replica)}
    overheads = [rec["latency_s"] - replica_wall[point_key(p)]
                 for p, rec in zip(stream, traced)
                 if point_key(p) in replica_wall]
    layer = {
        "graph.dataset_ms": 1e3 * statistics.median(
            metrics.span_durations(spans, "graph.dataset_cold")),
        "graph.cache_builds": passes[1]["cache_builds"],
        "graph.cache_hits": passes[1]["cache_hits"],
        "serve.accept_ms": 1e3 * statistics.median(
            (r["accepted_ns"] - r["sent_ns"]) * 1e-9 for r in traced),
        "serve.overhead_ms": 1e3 * statistics.median(overheads),
        "serve.queue_depth": statistics.mean(passes[1]["queue_depths"]),
    }
    layer.update(metrics.stage_metrics(
        spans, [rec["report"] for rec in replica]))
    layer.update(metrics.counter_metrics(
        [rec["report"] for rec in traced], sum))
    p50 = {n: statistics.median(r["latency_s"] for r in recs)
           for n, recs in served.items()}
    untraced_p50 = (p50[0] + p50[2]) / 2
    layer["trace.overhead_ms"] = 1e3 * (p50[1] - untraced_p50)
    layer["trace.overhead_pct"] = 100.0 * (p50[1] - untraced_p50) / \
        untraced_p50
    say("in-process stream walls (s), untraced/traced/untraced: " +
        " ".join(f"{(passes[n]['end_ns'] - passes[n]['start_ns']) * 1e-9:.3f}"
                 for n in range(3)))
    print_self_times(spans)
    return checks, layer


# --- main ------------------------------------------------------------------------

def thread_demand(wl):
    """(compute threads, client connections) a workload keeps busy."""
    if wl["kind"] == "engine":
        return wl["engine_threads"], 0
    return wl["workers"], wl["connections"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: every input derives from "
                             "it (default 1; held-out seed: 1001)")
    parser.add_argument("--seconds", type=int, default=45,
                        help="target measuring time; sets the amount "
                             "of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer")
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs for the self-tests")
    args = parser.parse_args(argv)
    args.build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return args


def main(argv):
    args = parse_args(argv)
    spec = metrics.load_spec()
    wl = dict(WORKLOADS[args.workload])
    if args.tiny:
        wl.update(TINY[args.workload])

    threads, connections = thread_demand(wl)
    cpus = usable_cpus()
    if threads > cpus or connections > cpus:
        fail(f"{args.workload} needs {threads} compute threads and "
             f"{connections} connections; this host has {cpus} CPUs",
             code=2)

    tools = build(args.build_dir)
    deadline = Deadline(RUN_BUDGET_S)
    info = json.loads(subprocess.run([tools[0], "info"],
                                     capture_output=True, text=True,
                                     check=True).stdout)
    source = source_digest()
    host = {"compiler": info["compiler"],
            "build_type": info["build_type"],
            "commit": git_commit(), "source_sha256": source}
    say(f"workload {args.workload} seed {args.seed} seconds "
        f"{args.seconds} trace {args.trace}{' tiny' if args.tiny else ''}")
    say(f"host before: {json.dumps(host_state(host))}")

    scratch = os.path.join(args.build_dir, "runs", args.workload)
    os.makedirs(scratch, exist_ok=True)
    store = DigestStore(os.path.join(args.build_dir, "digests.json"),
                        source)
    runner = run_engine if wl["kind"] == "engine" else run_serve
    checks, values = runner(args.workload, wl, args, tools, scratch,
                            store, deadline)
    store.save()
    say(f"host after: {json.dumps(host_state(host))}")

    for note in checks.notes:
        say(f"check failed: {note}")
    say(f"checks: {checks.attempted} attempted, {len(checks.failed)} "
        f"failed, error_rate "
        f"{len(checks.failed) / max(1, checks.attempted):.6f}")

    section = spec["per_layer" if args.trace else "end_to_end"]
    out = {}
    if values is not None:
        if set(values) != {m["name"] for m in section}:
            fail("metric set differs from BENCHMARK.json: "
                 f"{sorted(set(values) ^ {m['name'] for m in section})}")
        for m in section:
            out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            say(f"metric {m['name']:26s} {values[m['name']]:>18.6f} "
                f"{m['unit']:14s} ({m['better']} is better)")
    correct = not checks.failed and values is not None
    print(json.dumps({"correct": correct,
                      "attempted": max(1, checks.attempted),
                      "failed": len(checks.failed), "metrics": out}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
