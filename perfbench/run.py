"""Benchmark of the ktreesub verifier, run from the root of a checkout:

    python3 perfbench/run.py --workload gated|homology|frontier \
        --seed N --seconds S --trace 0|1

One closed-loop client: a single fresh child process per run executes the
workload's operations one at a time, pass after pass, for at most ``--seconds``
(at least one whole pass).  Each operation is timed against a reference
loop run around it.  Set-up is timed in that child and in a few set-up-only
children.  Every operation's output is checked against the reference values
in ``workloads.py``.  The last line of standard output is the result object;
the line before it records the environment and details.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
instead of the end-to-end ones.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import queue
import resource
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads

WORKER = Path(__file__).resolve().with_name("worker.py")
RUN_LIMIT_S = 170.0  # a run must end within 180 s, children included
PROBE_TIMEOUT_S = 5.0
# Set-up-only children run on both sides of the measured child, so that
# setup_s samples the host at two moments; with the measured child it is a
# median of thirteen.
SETUP_PROBES_EACH_SIDE = 6
BUDGET_MARGIN_S = 10.0  # the worker starts no pass it expects to end later
ADDRESS_SPACE_BYTES = 3 << 30  # largest workload peaks near 140 MB RSS
OUT_DIR = Path(".bench_build") / "perfbench"


@dataclass
class ChildRun:
    events: list = field(default_factory=list)
    ready_s: float = None
    elapsed_s: float = 0.0
    timed_out: bool = False
    exit_code: int = None
    maxrss_mb: float = 0.0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # Fixed hash seed: set iteration order, and so the work done, repeats.
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def _read_lines(stream, sink: queue.Queue):
    for line in stream:
        sink.put((perf_counter(), line))
    sink.put(None)


def run_child(argv, root: Path, env: dict, timeout: float) -> ChildRun:
    """Run the worker with a hard wall-clock timeout and an address-space
    limit; collect its JSON events and its own peak RSS."""
    out = ChildRun()
    spawned = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv],
        cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        text=True, preexec_fn=_limit_address_space,
    )
    lines = queue.Queue()
    reader = threading.Thread(target=_read_lines, args=(proc.stdout, lines), daemon=True)
    reader.start()
    deadline = spawned + timeout
    try:
        while True:
            wait = None if out.timed_out else max(0.0, deadline - perf_counter())
            try:
                item = lines.get(timeout=wait)
            except queue.Empty:
                out.timed_out = True
                os.kill(proc.pid, signal.SIGKILL)
                continue
            if item is None:
                break
            stamp, line = item
            try:
                event = json.loads(line)
            except ValueError:
                continue  # stray output from the library is not an event
            if event.get("event") == "ready" and out.ready_s is None:
                out.ready_s = stamp - spawned
            out.events.append(event)
    except BaseException:
        # Interrupted or terminated: leave no child behind.
        os.kill(proc.pid, signal.SIGKILL)
        os.waitpid(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    out.elapsed_s = perf_counter() - spawned
    proc.returncode = out.exit_code = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    out.maxrss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return out


def git_commit(root: Path):
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def unit_of(metric: str) -> str:
    if metric.endswith("_ref"):
        return "ref_loops"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(".entries"):
        return "count_computed"
    if metric.endswith(".bytes"):
        return "bytes_computed"
    return "count"


def ref_ratios(ops: list, pass_ids: set) -> dict:
    """Plan index -> median over the given passes of the operation's time
    divided by the mean time of the reference loop run just before and just
    after it.

    The host shares its cores with other tenants, and their load slows this
    process by a share that drifts by 20% and more over tens of seconds:
    over one run the median time of an operation moves with it, and even
    the fastest repetition moves by 10%.  The workload's reference loop
    (``workloads.REFERENCE_LOOP``), timed around every operation, slows by
    nearly the same share, so the ratio keeps what the program costs and
    drops most of what the host takes.
    """
    ratios = {}
    for e in ops:
        if e["pass"] in pass_ids:
            ratios.setdefault(e["i"], []).append(e["s"] / statistics.fmean(e["ref_s"]))
    return {i: statistics.median(r) for i, r in ratios.items()}


def ref_sum(ops: list, pass_ids: set, keep=lambda i: True):
    """Sum of ``ref_ratios`` over the operations ``keep`` accepts; None if
    there are none."""
    vals = [v for i, v in ref_ratios(ops, pass_ids).items() if keep(i)]
    return sum(vals) if vals else None


def median_of_keys(rows: list) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    started = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "ktreesub" / "__init__.py").is_file():
        print("perfbench: no src/ktreesub here; run from the root of a ktreesub checkout",
              file=sys.stderr)
        return 2
    plan = workloads.make_plan(args.workload, args.seed)
    out_dir = root / OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    env = child_env(root)

    setup = []
    ready = None

    def probe_setup():
        nonlocal ready
        for _ in range(SETUP_PROBES_EACH_SIDE):
            probe = run_child(["--probe"], root, env, PROBE_TIMEOUT_S)
            if probe.ready_s is not None:
                setup.append(probe.ready_s)
                ready = probe.events[0]

    probe_setup()
    # Leave time for the probes after the measured child.
    budget = RUN_LIMIT_S - (perf_counter() - started) - SETUP_PROBES_EACH_SIDE * PROBE_TIMEOUT_S
    worker_args = [
        "--plan", json.dumps(plan), "--seconds", str(args.seconds),
        "--budget", str(budget - BUDGET_MARGIN_S), "--trace", str(args.trace),
        "--spans", str(spans_path), "--reference", workloads.REFERENCE_LOOP[args.workload],
    ]
    child = run_child(worker_args, root, env, budget)
    if child.ready_s is not None:
        setup.append(child.ready_s)
        ready = next(e for e in child.events if e["event"] == "ready")
    probe_setup()

    ops = [e for e in child.events if e["event"] == "op"]
    passes = [e for e in child.events if e["event"] == "pass"]
    done = next((e for e in child.events if e["event"] == "done"), None)
    failures = []
    for e in ops:
        reason = e.get("error") or workloads.check(plan[e["i"]], e["digest"])
        if reason:
            failures.append(reason)
    attempted = len(ops)
    if done is None or child.exit_code != 0:
        # The operation in flight when the worker died or was killed.
        attempted += 1
        failures.append(
            "worker timed out" if child.timed_out
            else f"worker ended with exit code {child.exit_code} before finishing"
        )

    untraced_ids = {p["pass"] for p in passes if not p["traced"]}
    traced = [p for p in passes if p["traced"]]
    traced_ids = {p["pass"] for p in traced}
    reference = next((e["s"] for e in child.events if e["event"] == "reference"), None)
    if untraced_ids:
        pass_ref = ref_sum(ops, untraced_ids)
    elif ops:  # no finished pass: the operations that did finish
        pass_ref = ref_sum(ops, {e["pass"] for e in ops})
    else:  # not one operation finished: the run's duration stands in
        pass_ref = child.elapsed_s / (reference or 1e-3)
    setup_s = statistics.median(setup) if setup else child.elapsed_s

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "env": {
            "backend": ready and ready["backend"],
            "python": ready and ready["python"],
            "numpy": ready and ready["numpy"],
            "nproc": os.cpu_count(),
            "commit": git_commit(root),
            "source_sha256": source_sha256(root),
        },
        "closed_loop": {"clients": 1, "ops_per_pass": len(plan)},
        "reference_loop": workloads.REFERENCE_LOOP[args.workload],
        "passes": len(untraced_ids),
        "pass_s": [p["s"] for p in passes],
        "median_pass_s": statistics.median(p["s"] for p in passes if not p["traced"])
        if untraced_ids else None,
        "reference_loop_s": statistics.median(t for e in ops for t in e["ref_s"])
        if ops else reference,
        "op_ref": [ref_ratios(ops, untraced_ids).get(i) for i in range(len(plan))],
        "verify_ref": ref_sum(ops, untraced_ids, lambda i: plan[i]["kind"] == "verify_theorem"),
        "equivariance_ref": ref_sum(
            ops, untraced_ids, lambda i: plan[i]["kind"] == "check_equivariance"),
        "setup_samples_s": setup,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:5],
    }

    if args.trace:
        layers = median_of_keys([p["layers"] for p in traced]) if traced else {}
        if traced and untraced_ids:
            layers["trace.overhead_ref"] = ref_sum(ops, traced_ids) - pass_ref
        details["traced_passes"] = len(traced)
        details["absent"] = done["absent"] if done else None
        details["spans_file"] = str(OUT_DIR / spans_path.name)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {
            "pass_ref": {"value": pass_ref, "unit": "ref_loops"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": child.maxrss_mb, "unit": "MB"},
        }

    print(json.dumps({"perfbench": details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
