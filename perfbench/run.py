#!/usr/bin/env python3
"""The repository benchmark: four workloads from input file to answer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed_jboss --seed 1 --seconds 12 --trace 0

It builds the harness, rgsminerd and rgsworker with dune, generates the
workload's inputs from data/ and the seed, measures for --seconds seconds,
checks every answer against the sequential in-process answer and prints,
as its last stdout line, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones (see README.md in this directory for both lists and
what each workload stresses). A full record of the run, stamped with the
host's core count, the OCaml version, the source revision and the seed,
goes to .perfbench_out/. Exit status: 0 when every answer was right, 1 on
any wrong answer or failed job, 2 when this is not a checkout of the
repository or the build fails.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("closed_jboss", "all_quest", "workers_quest", "daemon_mix")
BATCH = ("closed_jboss", "all_quest", "workers_quest")

# (name, unit): printed for --trace 0, in this order
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
]

# (name, unit): printed for --trace 1; a layer a workload does not reach
# reads 0 there
PER_LAYER = [
    ("seq_io.parse_s", "s"),
    ("store.open_s", "s"),
    ("store.verify_s", "s"),
    ("inverted_index.build_s", "s"),
    ("insgrow.busy_s", "s"),
    ("insgrow.calls", "count"),
    ("insgrow.frequent_ratio", "ratio"),
    ("inverted_index.next_calls", "count"),
    ("inverted_index.cursor_advances", "count"),
    ("inverted_index.cursor_gallops", "count"),
    ("closure.busy_s", "s"),
    ("closure.checks", "count"),
    ("closure.prunable_ratio", "ratio"),
    ("closure.bound_rejects", "count"),
    ("closure.grows", "count"),
    ("engine.self_s", "s"),
    ("engine.dfs_nodes", "count"),
    ("engine.emit_ratio", "ratio"),
    ("query.floor_prunes", "count"),
    ("query.targeted_cuts", "count"),
    ("supervisor.spawn_s", "s"),
    ("supervisor.dispatch_s", "s"),
    ("supervisor.dispatches", "count"),
    ("supervisor.mb_shipped", "MB"),
    ("supervisor.ipc_tax", "ratio"),
    ("shard_merge.ms", "ms"),
    ("checkpoint.writes", "count/job"),
    ("checkpoint.kb_written", "KiB/job"),
    ("daemon.run_s", "s"),
    ("daemon.overhead_s", "s"),
    ("protocol.result_frames", "count/job"),
    ("protocol.rows", "count/job"),
    ("gc.minor_collections", "count"),
    ("gc.major_collections", "count"),
    ("gc.allocated_mw", "Mword"),
    ("gc.promoted_mw", "Mword"),
    ("gc.top_heap_mb", "MB"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_coverage", "ratio"),
    ("failed_ratio", "ratio"),
]

# Counters that must repeat exactly between two traced runs of one input.
DETERMINISTIC = [
    "engine.dfs_nodes",
    "insgrow.calls",
    "closure.checks",
    "inverted_index.next_calls",
    "inverted_index.cursor_advances",
    "inverted_index.cursor_gallops",
]

# What the checkout must hold; anything less is not a repository checkout.
REQUIRED = [
    "dune-project",
    "lib",
    "bin/rgsminerd.ml",
    "bin/rgsworker.ml",
    "data/jboss_traces.txt",
    "data/quest_small.txt",
    "data/quest_paper.config",
]

# A supervised job's processes share one vCPU. Each of its thousands of
# grow round trips wakes another process; across vCPUs that wake-up waits
# for the hypervisor to run the idle vCPU, and in periods of high steal
# time jobs took 2-2.5x longer at the same CPU time. On one vCPU a round
# trip costs two context switches, whatever the host is doing.
PINNED = {"workers_quest"}


def pinned(workload):
    return {max(os.sched_getaffinity(0))} if workload in PINNED else None


BUILD_TARGETS = ["perfbench/harness.exe", "bin/rgsminerd.exe", "bin/rgsworker.exe"]
MIN_JOBS = 3  # timed batch jobs per run, however short --seconds is
SETUP_REPS = 5  # daemon starts per daemon_mix run
RUN_LIMIT_S = 170  # a run ends, failed, rather than outlive this
COVERAGE_MIN = 0.95  # layer self times must cover 95% of the traced wall


class BenchError(Exception):
    """A job or process failed in a way that leaves no measurement."""


# every process this run starts, so teardown can reach it on any exit
LIVE = []


def stop(proc, grace_s=10.0, sig=signal.SIGTERM):
    """Signal a process (its whole process group), wait, then SIGKILL."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # stragglers in the process group
    except ProcessLookupError:
        pass
    if proc.poll() is None:
        proc.wait()
    if proc in LIVE:
        LIVE.remove(proc)


def spawn(cmd, cwd, env=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cpus=None):
    proc = subprocess.Popen(
        cmd,
        preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        cwd=cwd,
        env=env,
        stdout=stdout,
        stderr=stderr,
        stdin=subprocess.DEVNULL,
        start_new_session=True,
    )
    LIVE.append(proc)
    return proc


def harness(ctx, args, env_extra=None, cpus=None):
    """Run one harness subcommand to completion; its JSON and stderr."""
    env = dict(ctx["env"], **(env_extra or {}))
    proc = spawn([ctx["harness"]] + args, ctx["work"], env=env, cpus=cpus)
    try:
        out, err = proc.communicate(timeout=max(1.0, ctx["deadline"] - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc, grace_s=1.0, sig=signal.SIGKILL)
        raise BenchError("harness %s timed out" % " ".join(args))
    stop(proc)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            "harness %s exited %s: %s"
            % (" ".join(args), proc.returncode, err.decode()[-2000:])
        )
    return json.loads(lines[-1]), err.decode()


def children_cpu_s():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def gc_at_exit(stderr):
    """Sum the GC totals OCAMLRUNPARAM=v=0x400 prints at process exit."""
    keys = {
        "minor_collections": 0,
        "major_collections": 0,
        "allocated_words": 0,
        "promoted_words": 0,
        "top_heap_words": 0,
    }
    found = 0
    for line in stderr.splitlines():
        k, _, v = line.partition(":")
        if k in keys:
            keys[k] += int(float(v))
            found += k == "allocated_words"
    return keys, found


def add_subprocess_gc(metrics, stderr):
    g, n = gc_at_exit(stderr)
    metrics["gc.minor_collections"] += g["minor_collections"]
    metrics["gc.major_collections"] += g["major_collections"]
    metrics["gc.allocated_mw"] += g["allocated_words"] / 1e6
    metrics["gc.promoted_mw"] += g["promoted_words"] / 1e6
    metrics["gc.top_heap_mb"] += g["top_heap_words"] * 8 / 1e6
    return n


# ---------- batch workloads ----------


def batch_job(ctx, workload):
    """One untraced job in a fresh process: its record, CPU included."""
    cpu0 = children_cpu_s()
    rec, _ = harness(ctx, ["job", workload], cpus=pinned(workload))
    rec["cpu_s"] = children_cpu_s() - cpu0
    rec["ok"] = rec["answer_ok"] and rec["restarts"] == 0 and not rec["degraded"]
    return rec


def run_batch(ctx, workload, seconds):
    jobs = []
    t0 = time.monotonic()
    while len(jobs) < MIN_JOBS or time.monotonic() - t0 < seconds:
        jobs.append(batch_job(ctx, workload))
    loop_s = time.monotonic() - t0
    walls = [j["wall_s"] for j in jobs]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(j["setup_s"] for j in jobs),
        "cpu_s": statistics.median(j["cpu_s"] for j in jobs),
        "peak_rss_mb": statistics.median(j["rss_kb"] for j in jobs) / 1024,
        "job_p50_s": statistics.median(walls),
        "job_p90_s": percentile(walls, 0.9),
        "jobs_per_s": len(jobs) / loop_s,
    }
    failed = sum(not j["ok"] for j in jobs)
    return metrics, len(jobs), failed, {"jobs": jobs}


def trace_batch(ctx, workload, seconds):
    untraced = batch_job(ctx, workload)
    runs = []
    t0 = time.monotonic()
    while len(runs) < 2 or time.monotonic() - t0 < seconds:
        chrome = os.path.join(ctx["out"], "%s.trace.json" % workload)
        rec, err = harness(ctx, ["trace", workload, "--chrome", chrome], cpus=pinned(workload))
        if workload == "workers_quest":
            # shard workers exit before the harness prints its JSON
            if add_subprocess_gc(rec, err) != rec["spawns"]:
                raise BenchError("missing GC totals from a shard worker")
        rec["ok"] = rec["answer_ok"] and rec["restarts"] == 0 and not rec["degraded"]
        runs.append(rec)
    metrics = layer_summary(runs, untraced["wall_s"])
    if workload == "workers_quest":
        base, _ = harness(ctx, ["trace", workload, "--in-process"], cpus=pinned(workload))
        metrics["supervisor.ipc_tax"] = metrics["supervisor.dispatch_s"] / base["insgrow.busy_s"]
    checks = check_trace(runs, metrics, single_process=workload != "workers_quest")
    attempted = len(runs) + 1
    failed = sum(not r["ok"] for r in runs) + (not untraced["ok"])
    metrics["failed_ratio"] = failed / attempted
    return metrics, attempted, failed, {"runs": runs, "untraced": untraced, "checks": checks}


def layer_summary(runs, untraced_wall_s):
    """Medians over the traced runs, the tracing overhead and coverage."""
    metrics = {}
    for name, _ in PER_LAYER:
        vals = [r[name] for r in runs if name in r]
        metrics[name] = statistics.median(vals) if vals else 0
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in runs)
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / untraced_wall_s
    metrics["trace.layer_coverage"] = min(r["layer_coverage"] for r in runs)
    return metrics


def check_trace(runs, metrics, single_process):
    """The traced run's own checks: counters repeat, layers cover the wall."""
    keys = DETERMINISTIC + (["gc.allocated_mw"] if single_process else [])
    drift = [k for k in keys if len({r[k] for r in runs}) > 1]
    checks = {
        "deterministic_counters": keys,
        "drifting_counters": drift,
        "coverage_ok": metrics["trace.layer_coverage"] >= COVERAGE_MIN,
    }
    if drift:
        raise BenchError("counters differ between traced runs: %s" % drift)
    if not checks["coverage_ok"]:
        raise BenchError(
            "layer self times cover %.3f of the traced wall" % metrics["trace.layer_coverage"]
        )
    return checks


# ---------- daemon_mix ----------

SOCKET = "d.sock"  # relative to the work dir: keeps the path short
STORE = "quest.rgsdb"


def start_daemon(ctx, env_extra=None):
    """Start rgsminerd and wait until its socket accepts: the set-up time."""
    state = tempfile.mkdtemp(prefix="state-", dir=ctx["work"])
    env = dict(ctx["env"], **(env_extra or {}))
    sock_path = os.path.join(ctx["work"], SOCKET)
    t0 = time.monotonic()
    proc = spawn(
        [
            ctx["rgsminerd"],
            "--socket", SOCKET,
            "--state-dir", os.path.basename(state),
            "--workers", "2",
            "--store", STORE,
        ],
        ctx["work"],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    while True:
        if proc.poll() is not None:
            raise BenchError("rgsminerd exited %s: %s" % (proc.returncode, proc.stderr.read().decode()[-2000:]))
        if time.monotonic() - t0 > 60:
            raise BenchError("rgsminerd did not listen within 60 s")
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(sock_path)
            break
        except OSError:
            time.sleep(0.001)
        finally:
            s.close()
    return proc, time.monotonic() - t0, state


def stop_daemon(proc):
    """SIGTERM (a graceful drain) and the daemon's stderr."""
    proc.send_signal(signal.SIGTERM)
    try:
        _, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        err = b""
    stop(proc)
    return err.decode()


def vm_hwm_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def serve_daemon(ctx, seconds, env_extra=None):
    """Set-up timings, then one served run of the two-client loop."""
    setups = []
    for _ in range(SETUP_REPS - 1):
        proc, setup, state = start_daemon(ctx)
        setups.append(setup)
        stop_daemon(proc)
        shutil.rmtree(state)
    cpu0 = children_cpu_s()
    proc, setup, state = start_daemon(ctx, env_extra)
    setups.append(setup)
    try:
        client, _ = harness(
            ctx,
            ["clients", "--socket", SOCKET, "--seed", str(ctx["seed"]), "--seconds", str(seconds)],
        )
        rss_kb = vm_hwm_kb(proc.pid) + client["rss_kb"]
    finally:
        daemon_err = stop_daemon(proc)
    cpu = children_cpu_s() - cpu0
    client["state_bytes"] = dir_bytes(state)
    return client, setups, cpu, rss_kb, daemon_err


def run_daemon(ctx, _workload, seconds):
    client, setups, cpu, rss_kb, _ = serve_daemon(ctx, seconds)
    jobs = client["jobs"]
    done = [j for j in jobs if j["ok"]]
    lat = [j["latency_s"] for j in done] or [0.0]
    metrics = {
        "wall_s": statistics.median(lat),
        "setup_s": statistics.median(setups),
        "cpu_s": cpu / max(1, len(done)),
        "peak_rss_mb": rss_kb / 1024,
        "job_p50_s": statistics.median(lat),
        "job_p90_s": percentile(lat, 0.9),
        "jobs_per_s": len(done) / client["makespan_s"],
    }
    extra = {
        "jobs": len(jobs),
        "above_p90": sum(x > metrics["job_p90_s"] for x in lat),
        "client": client,
        "setups_s": setups,
    }
    return metrics, len(jobs), len(jobs) - len(done), extra


def trace_daemon(ctx, _workload, seconds):
    client, setups, _, _, daemon_err = serve_daemon(
        ctx, seconds / 2, env_extra={"OCAMLRUNPARAM": "v=0x400"}
    )
    untraced, _ = harness(ctx, ["replay", "--seed", str(ctx["seed"]), "--untraced"])
    runs = []
    t0 = time.monotonic()
    while len(runs) < 2 or time.monotonic() - t0 < seconds / 2:
        chrome = os.path.join(ctx["out"], "daemon_mix.trace.json")
        rec, _ = harness(ctx, ["replay", "--seed", str(ctx["seed"]), "--chrome", chrome])
        rec["ok"] = rec["answer_ok"]
        runs.append(rec)
    metrics = layer_summary(runs, untraced["wall_s"])
    # the daemon process's own numbers replace the in-process GC deltas
    for k in ("gc.minor_collections", "gc.major_collections", "gc.allocated_mw",
              "gc.promoted_mw", "gc.top_heap_mb"):
        metrics[k] = 0
    if add_subprocess_gc(metrics, daemon_err) != 1:
        raise BenchError("missing GC totals from rgsminerd")
    jobs = client["jobs"]
    done = [j for j in jobs if j["ok"]]
    n = max(1, len(done))
    before, after = client["stats_before"], client["stats_after"]
    delta = lambda k: after.get(k, 0) - before.get(k, 0)
    metrics["checkpoint.writes"] = delta("checkpoint_writes") / n
    metrics["checkpoint.kb_written"] = client["state_bytes"] / 1024 / n
    metrics["daemon.run_s"] = statistics.median(j["server_s"] for j in done)
    metrics["daemon.overhead_s"] = statistics.median(j["latency_s"] - j["server_s"] for j in done)
    metrics["protocol.result_frames"] = sum(j["frames"] for j in done) / n
    metrics["protocol.rows"] = sum(j["rows"] for j in done) / n
    checks = check_trace(runs, metrics, single_process=True)
    attempted = len(jobs) + len(runs) + 1
    failed = (len(jobs) - len(done)) + sum(not r["ok"] for r in runs) + (not untraced["answer_ok"])
    metrics["failed_ratio"] = failed / attempted
    extra = {"runs": runs, "untraced": untraced, "client_stats": [before, after], "checks": checks,
             "setups_s": setups}
    return metrics, attempted, failed, extra


# ---------- command line ----------


def stamp(root, seed):
    """host_cores, OCaml version, commit (in a git checkout), source hash, seed."""
    try:
        ocaml = subprocess.run(["ocamlopt", "-version"], capture_output=True, text=True,
                               timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        ocaml = "unknown"
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    # the checkout need not be a git repository: the sources' hash always is
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench", "data", "dune-project"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return {
        "host_cores": os.cpu_count(),
        "ocaml": ocaml,
        "commit": commit,
        "source_sha256": h.hexdigest()[:16],
        "seed": seed,
    }


def build(root):
    try:
        # no shared dune cache: the run writes nothing outside the checkout
        r = subprocess.run(["dune", "build", "--root", "."] + BUILD_TARGETS, cwd=root,
                           env=dict(os.environ, DUNE_CACHE="disabled"),
                           capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        return str(e)
    return None if r.returncode == 0 else r.stdout[-3000:] + r.stderr[-3000:]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        print("perfbench: not a checkout of the repository (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    err = build(root)
    if err is not None:
        print("perfbench: build failed:\n" + err, file=sys.stderr)
        return 2

    bin_dir = os.path.join(root, "_build", "default")
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    out = os.path.join(root, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".perfbench_work"))
    env = dict(os.environ, RGS_WORKER_EXE=os.path.join(bin_dir, "bin", "rgsworker.exe"))
    env.pop("OCAMLRUNPARAM", None)
    ctx = {
        "harness": os.path.join(bin_dir, "perfbench", "harness.exe"),
        "rgsminerd": os.path.join(bin_dir, "bin", "rgsminerd.exe"),
        "work": work,
        "out": out,
        "env": env,
        "seed": args.seed,
        "deadline": time.monotonic() + RUN_LIMIT_S,
    }
    # SIGTERM/SIGINT unwind through the finally below like any failure
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    w = args.workload
    try:
        harness(ctx, ["prep", w, "--data", os.path.join(root, "data"), "--seed", str(args.seed)])
        if w in BATCH:
            run = trace_batch if args.trace else run_batch
        else:
            run = trace_daemon if args.trace else run_daemon
        metrics, attempted, failed, extra = run(ctx, w, args.seconds)
        error = None
    except (BenchError, OSError, ValueError, KeyError) as e:
        metrics, attempted, failed, extra, error = {}, 1, 1, {}, "%s: %s" % (type(e).__name__, e)
    finally:
        for proc in list(LIVE):
            stop(proc, grace_s=2.0)
        shutil.rmtree(work, ignore_errors=True)

    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": error is None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics.get(n, 0), "unit": u} for n, u in names},
    }
    record = {"stamp": stamp(root, args.seed), "workload": w, "trace": args.trace,
              "seconds": args.seconds, "error": error, "result": result, "detail": extra}
    with open(os.path.join(out, "%s-seed%d-trace%d.json" % (w, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    if error:
        print("perfbench: " + error, file=sys.stderr)
    print(json.dumps({"stamp": record["stamp"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
