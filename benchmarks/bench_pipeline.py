"""Stage benchmark of ``ktreesub verify``: wall time per stage and peak RSS.

Each instance runs in its own child process, so each peak is that
instance's own.  The child runs the stages of ``verify_theorem`` with one
linear extension, one call each, and prints one JSON line as each stage
starts and ends.  The parent waits for the child up to ``TIMEOUT_S``
seconds; a stage still running then is recorded as ``"timeout"`` and the
stages after it as ``null``.  A line the killed child left half written is
skipped.  The peak RSS is the child's ``ru_maxrss``,
read from ``wait4``, so it holds for a child that was killed too.  The
package under ``--src`` is compiled once, into a temporary
``PYTHONPYCACHEPREFIX`` that every child reads, so that no child's peak
counts compiling it.

    # from the root of a checkout
    python3 benchmarks/bench_pipeline.py --label change
    python3 benchmarks/bench_pipeline.py --label base --src ../base/src

The results go under ``runs[label]`` of ``--out`` (default
``BENCH_pipeline.json``); the other labels already in the file are kept, so
one file holds the measurements of several source trees.

``--scale`` runs the scale tier instead, only on request: the instances
``SCALE_INSTANCES`` at ``SCALE_CAPS``, under ``SCALE_MEMORY_LIMIT`` and
``SCALE_TIMEOUT_S`` per child, recorded under ``runs[label]["scale"]``.
One scale run takes several minutes and a few GB per child.

    python3 benchmarks/bench_pipeline.py --label change --scale
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STAGES = (
    "poset",
    "ktree_complex",
    "order_complex",
    "linear_extension",
    "stellar_sequence",
    "carrier_map",
    "verify_carrier_map",
    "homology_delta",
    "homology_target",
)

# address-space limit of each child: (4,4) peaked at 2.8 GB resident while
# the order was a dense n x n matrix
MEMORY_LIMIT = 4 * 2**30
# seconds per instance: (1,7) and (4,4) take about a minute each
TIMEOUT_S = 600

# the library's default caps, passed explicitly so that a tree with lower
# defaults runs the same instances: they admit (1,7) and (4,4)
CAPS = {"max_poset_elements": 40_000, "max_faces": 300_000}
INSTANCES = ((1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5), (1, 6), (3, 4), (2, 5), (1, 7), (4, 4))

# the scale tier: 8 to 11 million faces of the order complex each, past the
# default caps; its own address-space limit and timeout per child, sized for
# a host of 7 GB
SCALE_INSTANCES = ((2, 6), (1, 8), (3, 5))
SCALE_CAPS = {"max_poset_elements": 10**7, "max_faces": 10**9}
SCALE_MEMORY_LIMIT = 6 * 2**30
SCALE_TIMEOUT_S = 1800


# ---------------------------------------------------------------------------
# child: one instance
# ---------------------------------------------------------------------------


def order_size(poset) -> dict:
    """What the poset's order takes: the nonzeros and bytes of its CSR up-
    and down-sets, or, in a tree that keeps a dense n x n matrix, its
    entries and bytes."""
    if hasattr(poset, "up_indices"):
        arrays = (poset.up_indptr, poset.up_indices, poset.down_indptr, poset.down_indices)
        return {"form": "csr", "nonzeros": int(poset.up_indices.size),
                "bytes": sum(int(a.nbytes) for a in arrays)}
    return {"form": "dense", "entries": poset.n ** 2, "bytes": int(poset.leq.nbytes)}


def run_child(k: int, n: int, max_poset_elements: int, max_faces: int):
    import ktreesub as K

    def emit(event):
        print(json.dumps(event), flush=True)

    def stage(name, fn):
        emit({"event": "start", "stage": name})
        start = time.perf_counter()
        out = fn()
        emit({"event": "end", "stage": name, "s": time.perf_counter() - start})
        return out

    m = (n - 1) * k + 1
    pk = stage("poset", lambda: K.enumerate_partitions(m, k, max_elements=max_poset_elements))
    q = stage("ktree_complex", lambda: K.enumerate_ktree_complex(n, k, max_faces=max_faces))
    delta = stage("order_complex", lambda: pk.poset.order_complex(max_faces=max_faces))
    g = set(pk.g_indices())
    pool = [i for i in pk.poset.proper_indices() if i not in g]
    ext = stage("linear_extension", lambda: list(pk.poset.linear_extension(pool)))

    def stellar_sequence():
        # the replay's passes and the maximal faces they made, null in a tree
        # whose replay counts neither; the replay itself is not kept
        replay = K.run_blowup(pk.poset, q, ext, record_intermediate=False).replay
        counts = {"passes": getattr(replay, "passes", None), "facets_made": getattr(replay, "facets_made", None)}
        return counts, replay.equals(delta)

    replay_counts, stellar = stage("stellar_sequence", stellar_sequence)
    cm = stage("carrier_map", lambda: K.carrier_map_from_parts(delta, q))
    carrier = stage("verify_carrier_map", lambda: K.verify_carrier_map(cm).passed)
    h_delta = stage("homology_delta", delta.reduced_homology)
    h_target = stage("homology_target", q.reduced_homology)
    emit({
        "event": "counts",
        "poset_elements": pk.poset.n,
        "order": order_size(pk.poset),
        "faces": {"delta": sum(delta.f_vector()), "target": sum(q.f_vector())},
        "stellar": replay_counts,
        "checks": {
            "stellar_sequence": bool(stellar),
            "carrier_map": bool(carrier),
            "homology_equal": h_delta == h_target,
        },
    })


# ---------------------------------------------------------------------------
# parent: one child per instance
# ---------------------------------------------------------------------------


def run_instance(k, n, caps, src, pycache, memory_limit=MEMORY_LIMIT, timeout_s=TIMEOUT_S) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=pycache)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(k), str(n),
           str(caps["max_poset_elements"]), str(caps["max_faces"])]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (memory_limit,) * 2))
        deadline = time.monotonic() + timeout_s
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                timed_out = True
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.05)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        events = []
        for line in out:
            if not line.startswith("{"):
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                pass
        stderr = err.read().strip()
    stages = dict.fromkeys(STAGES)
    result = {"caps": caps, "stages_s": stages, "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}
    for event in events:
        if event["event"] == "start":
            stages[event["stage"]] = "timeout" if timed_out else "error"
        elif event["event"] == "end":
            stages[event["stage"]] = round(event["s"], 3)
        else:
            result.update({key: value for key, value in event.items() if key != "event"})
    result["exit"] = "timeout" if timed_out else proc.returncode
    if proc.returncode not in (0, None) and not timed_out:
        result["stderr_tail"] = stderr.splitlines()[-1:]
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="key of this run under runs[] in the output (required)")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds ktreesub")
    parser.add_argument("--out", default=str(ROOT / "BENCH_pipeline.json"))
    parser.add_argument("--scale", action="store_true", help="run the scale tier (SCALE_INSTANCES) instead")
    parser.add_argument("--child", nargs=4, type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run_child(*args.child)
        return 0
    if not args.label:
        parser.error("--label is required")
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault("stages", list(STAGES))
    run = data.setdefault("runs", {}).setdefault(args.label, {})
    run["host"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
    }
    if args.scale:
        tier, caps, limits = SCALE_INSTANCES, SCALE_CAPS, (SCALE_MEMORY_LIMIT, SCALE_TIMEOUT_S)
    else:
        tier, caps, limits = INSTANCES, CAPS, (MEMORY_LIMIT, TIMEOUT_S)
    instances = run.setdefault("scale" if args.scale else "instances", {})
    with tempfile.TemporaryDirectory() as pycache:
        subprocess.run([sys.executable, "-m", "compileall", "-q", args.src], check=True,
                       env=dict(os.environ, PYTHONPYCACHEPREFIX=pycache))
        for k, n in tier:
            result = run_instance(k, n, caps, Path(args.src), pycache, *limits)
            instances[f"{k},{n}"] = result
            print(json.dumps({f"{k},{n}": result}), flush=True)
            out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
