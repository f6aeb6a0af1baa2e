"""Child process of the benchmark: one closed-loop client.

Imports ``ktreesub`` from the checkout's ``src``, runs the planned passes one
operation at a time, and prints one JSON event per line: ``ready`` once set
up, ``reference`` with the time of the reference loop, ``op`` per finished
operation (with its output digest and the reference loop's time on either
side of it), ``pass`` per finished pass, and ``done``.  ``--probe`` stops
after ``ready``.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def emit(event: dict):
    print(json.dumps(event), flush=True)


def _homology_json(groups):
    return [[int(b), [int(t) for t in tors]] for b, tors in groups]


def op_verify_theorem(K, op, state):
    report = K.verify_theorem(op["k"], op["n"], extensions=op["extensions"], seed=op["seed"])
    return {
        "verdict": report.verdict,
        "f_vectors": {side: list(v) for side, v in report.f_vectors.items()},
        "homology": {side: _homology_json(h) for side, h in report.homology.items()},
    }


def op_check_equivariance(K, op, state):
    report = K.check_equivariance(op["k"], op["n"], perms=op["sample"], seed=op["seed"])
    return {
        "passed": report.passed,
        "permutations_checked": report.permutations_checked,
        "top_rank": [report.top_rank_source, report.top_rank_target],
    }


def op_negative_control(K, op, state):
    k, n = op["k"], op["n"]
    cm, _ = K.global_carrier_map(k, n)
    a, b = (cm.p_complex.vertex_index(K.parse_partition(text, (n - 1) * k + 1))
            for text in op["swap"])
    cm.f0[a], cm.f0[b] = cm.f0[b], cm.f0[a]
    result = K.verify_carrier_map(cm)
    return {
        "passed": result.passed,
        "interiors_disjoint_point": any(
            f.check == "interiors_disjoint" and isinstance(f.witness, dict) and "point" in f.witness
            for f in result.failures
        ),
    }


def op_homology(K, op, state):
    complex_ = K.enumerate_ktree_complex(op["n"], op["k"])
    return {
        "f_vector": list(complex_.f_vector()),
        "homology": _homology_json(complex_.reduced_homology()),
    }


def op_global_carrier_map(K, op, state):
    cm, pk = K.global_carrier_map(op["k"], op["n"])
    state["cm"], state["pk"] = cm, pk
    g = set(pk.g_indices())
    state["pool"] = [i for i in pk.poset.proper_indices() if i not in g]
    return {"f_vectors": {"source": list(cm.p_complex.f_vector()),
                          "target": list(cm.q_complex.f_vector())}}


def op_verify_carrier_map(K, op, state):
    return {"passed": K.verify_carrier_map(state["cm"]).passed}


def op_linear_extension(K, op, state):
    poset, pool = state["pk"].poset, state["pool"]
    ext = list(poset.linear_extension(pool))
    return lambda: {
        "is_linear_extension": poset.is_linear_extension(ext),
        "length": len(ext),
        "covers_pool": sorted(ext) == sorted(pool),
    }


def own_extension(poset, pool):
    """A linear extension of ``pool``, smallest first, that depends only on
    the order: an element lies above fewer elements than anything above it.
    Ties are broken by the partition's blocks."""
    below = poset.leq.sum(axis=0)
    return sorted(pool, key=lambda i: (int(below[i]), poset.labels[i].blocks))


def faces_sha256(complex_) -> str:
    """Digest of a complex's faces as sets of partitions (tuples of blocks)."""
    faces = sorted(sorted(complex_.vertices[v].blocks for v in face) for face in complex_.faces)
    return hashlib.sha256(json.dumps(faces).encode()).hexdigest()


def op_stellar_steps(K, op, state):
    """``steps`` steps of the stellar sequence after its first ``first``
    ones, applied to the complex those reached (T^k_n when ``first`` is 0).
    The sequence runs from the top of the extension down, so these steps
    subdivide by the elements ``first`` to ``first + steps`` places from the
    top."""
    poset = state["pk"].poset
    if "extension" not in state:
        state["extension"] = own_extension(poset, state["pool"])
    ext, end = state["extension"], len(state["extension"]) - op["first"]
    initial = state.get("stellar", state["cm"].q_complex)
    result = K.run_blowup(poset, initial, ext[end - op["steps"]:end], record_intermediate=False)
    state["stellar"] = result.final
    return lambda: {"f_vector": list(result.final.f_vector()),
                    "faces_sha256": faces_sha256(result.final)}


OPS = {
    "verify_theorem": op_verify_theorem,
    "check_equivariance": op_check_equivariance,
    "negative_control": op_negative_control,
    "homology": op_homology,
    "global_carrier_map": op_global_carrier_map,
    "verify_carrier_map": op_verify_carrier_map,
    "linear_extension": op_linear_extension,
    "stellar_steps": op_stellar_steps,
}


# The host lends its cores to other tenants, and their load slows this
# process by a share that drifts over tens of seconds.  A fixed loop timed
# between operations measures that share; the parent divides each
# operation's time by the loop times on either side of it.  The share is
# not the same for all code: interpreted Python slows by several times more
# than numpy's passes over large int64 arrays, so each workload names the
# loop that is like its dominant cost (``workloads.REFERENCE_LOOP``).
_PYTHON_TABLE = {i: (i * 7919) % 1009 for i in range(1024)}
PYTHON_ITERATIONS = 80_000
NUMPY_SHAPE, NUMPY_ROUNDS = (256, 2048), 4
_numpy_arrays = []


def _python_loop(iterations):
    total, table = 0, _PYTHON_TABLE
    for i in range(iterations):
        total += table[(total + i) & 1023]


def python_reference_loop() -> float:
    """Seconds for a fixed loop of dictionary look-ups and integer additions.
    It creates no object the garbage collector tracks, so neither the
    program's heap nor its collector can slow it; only the host can."""
    _python_loop(PYTHON_ITERATIONS // 10)  # untimed: brings the loop into cache
    start = perf_counter()
    _python_loop(PYTHON_ITERATIONS)
    return perf_counter() - start


def numpy_reference_loop() -> float:
    """Seconds for in-place XORs of two int64 arrays of 4 MB each, larger
    than a core's own cache: whole-array passes bound by memory, like the
    submatrix updates of dense Smith normal form."""
    import numpy

    if not _numpy_arrays:
        _numpy_arrays.extend(numpy.ones(NUMPY_SHAPE, dtype=numpy.int64) for _ in range(2))
    a, b = _numpy_arrays
    # Untimed first: the operation before may have evicted the arrays from
    # cache, and a cold start would make the loop's time depend on it.
    numpy.bitwise_xor(a, b, out=a)
    start = perf_counter()
    for _ in range(NUMPY_ROUNDS):
        numpy.bitwise_xor(a, b, out=a)
        numpy.bitwise_xor(b, a, out=b)
    return perf_counter() - start


REFERENCE_LOOPS = {"python": python_reference_loop, "numpy": numpy_reference_loop}


def run_pass(K, plan, pass_index, reference_loop):
    """One pass of the plan; returns the seconds its operations took.

    An operation may return a function that builds its digest; that runs
    after the operation's clock has stopped.  Operations of one pass share
    ``state``.  Each op event carries the reference loop's time just before
    and just after the operation."""
    gc.collect()
    state = {}
    timed = 0.0
    ref = reference_loop()
    for i, op in enumerate(plan):
        event = {"event": "op", "pass": pass_index, "i": i}
        t0 = perf_counter()
        try:
            digest = OPS[op["kind"]](K, op, state)
            event["s"] = perf_counter() - t0
            event["digest"] = digest() if callable(digest) else digest
        except Exception as exc:  # an operation that raises is a failed operation
            event.setdefault("s", perf_counter() - t0)
            event["error"] = f"{type(exc).__name__}: {exc}"
        after = reference_loop()
        event["ref_s"] = [ref, after]
        ref = after
        emit(event)
        timed += event["s"]
    return timed


def run_passes(K, plan, seconds, budget, tracer, reference_loop):
    """Passes while the next one is expected to end within ``seconds`` of
    the first one's start (at least one pass), and never a pass that is
    unlikely to finish within ``budget``.

    With a tracer, passes alternate untraced and traced, starting untraced,
    and there are at least two: both kinds then see the same host
    conditions, and their difference is the tracing overhead.
    """
    begin = perf_counter()
    index = 0
    while True:
        pass_start = perf_counter()
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            tracer.reset_counts()
            tracer.pass_index = index
        try:
            pass_s = run_pass(K, plan, index, reference_loop)
        finally:
            if traced:
                tracer.uninstall()
        event = {"event": "pass", "pass": index, "s": pass_s, "traced": traced}
        if traced:
            event["layers"] = tracer.pass_metrics(pass_s)
        emit(event)
        index += 1
        now = perf_counter()
        if index < (1 if tracer is None else 2):
            continue
        pass_wall = now - pass_start  # with the reference loops and digests
        if now - begin + pass_wall > seconds or (now - STARTED) + 1.5 * pass_wall > budget:
            return


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--plan")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--reference", choices=REFERENCE_LOOPS, default="python")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import ktreesub as K

    src = (Path.cwd() / "src").resolve()
    if src not in Path(K.__file__).resolve().parents:
        print(f"ktreesub was imported from {K.__file__}, not from {src}", file=sys.stderr)
        return 2
    warmup = getattr(K, "warmup", None)
    if warmup is not None:
        warmup()
    import numpy

    emit({
        "event": "ready",
        "backend": getattr(K, "BACKEND", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    if args.probe:
        return 0
    reference_loop = REFERENCE_LOOPS[args.reference]
    emit({"event": "reference", "s": min(reference_loop() for _ in range(3))})

    plan = json.loads(args.plan)
    if not args.trace:
        run_passes(K, plan, args.seconds, args.budget, None, reference_loop)
        emit({"event": "done", "absent": []})
        return 0

    import tracing

    tracer = tracing.Tracer()
    run_passes(K, plan, args.seconds, args.budget, tracer, reference_loop)
    tracer.write_spans(args.spans)
    emit({"event": "done", "absent": tracer.absent, "spans": len(tracer.spans)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
