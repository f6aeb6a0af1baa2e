"""Per-layer tracing from outside the library.

The tracer replaces the module globals and class attributes that callers
look up (``ktreesub.subdivision.run_blowup``, ``exact.open_simplices_intersect``,
``SimplicialComplex.stellar_subdivide``, ...) with wrappers that record a
span per call.  Every binding of the original object in every loaded
``ktreesub`` module is replaced, so calls through ``from .x import y``
copies and through the package re-exports are both seen.  A target that no
longer exists is reported as absent, never as an error.

Spans are kept in memory, with their parent span, and written as JSON lines
when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

PACKAGE = "ktreesub"

# (metric prefix, module, attribute path).  The metric prefix names the
# module the way callers inside the package do (``_kernels`` is imported as
# ``kernels``), because a metric name may not start with an underscore.
TARGETS = (
    ("partitions.enumerate_partitions", "partitions", "enumerate_partitions"),
    ("kernels.rgs_filtered", "_kernels", "rgs_filtered"),
    ("kernels.refinement_leq", "_kernels", "refinement_leq"),
    ("kernels.snf_diagonal", "_kernels", "snf_diagonal"),
    ("trees.enumerate_ktree_complex", "trees", "enumerate_ktree_complex"),
    ("poset.order_complex", "poset", "Poset.order_complex"),
    ("poset.linear_extension", "poset", "Poset.linear_extension"),
    ("complexes.stellar_subdivide", "complexes", "SimplicialComplex.stellar_subdivide"),
    ("complexes.eq", "complexes", "SimplicialComplex.__eq__"),
    ("complexes.boundary_matrix", "complexes", "SimplicialComplex.boundary_matrix"),
    ("complexes.reduced_homology", "complexes", "SimplicialComplex.reduced_homology"),
    ("complexes.apply_permutation", "complexes", "SimplicialComplex.apply_permutation"),
    ("exact.affine_dim", "exact", "affine_dim"),
    ("exact.simplex_volume_ratio", "exact", "simplex_volume_ratio"),
    ("exact.open_simplices_intersect", "exact", "open_simplices_intersect"),
    ("subdivision.global_carrier_map", "subdivision", "global_carrier_map"),
    ("subdivision.carrier_map_from_parts", "subdivision", "carrier_map_from_parts"),
    ("subdivision.verify_carrier_map", "subdivision", "verify_carrier_map"),
    ("subdivision.build_local_carrier_maps", "subdivision", "build_local_carrier_maps"),
    ("subdivision.check_compatibility", "subdivision", "check_compatibility"),
    ("subdivision.run_blowup", "subdivision", "run_blowup"),
    ("subdivision.verify_theorem", "subdivision", "verify_theorem"),
    ("subdivision.check_equivariance", "subdivision", "check_equivariance"),
)
MODULES = ("partitions", "kernels", "trees", "poset", "complexes", "exact", "subdivision")

BOUNDARY_MATRIX = "complexes.boundary_matrix"
INT64_BYTES = 8


def _matrix_entries(mat) -> int:
    """Entries of a dense matrix, from its shape (0 if it has none)."""
    shape = getattr(mat, "shape", None)
    if shape is not None:
        out = 1
        for s in shape:
            out *= int(s)
        return out
    if isinstance(mat, list):
        return len(mat) * (len(mat[0]) if mat and isinstance(mat[0], list) else 0)
    return 0


class Tracer:
    """Span recorder with per-name self time, call and error counts."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, raised, pass)
        self.absent = []
        self._patches = []  # (owner, attribute, original, owned)
        self._stack = []  # [span id, name, module, child seconds]
        self._next_id = 0
        self.pass_index = 0
        self.reset_counts()

    def reset_counts(self):
        self.self_s = {name: 0.0 for name, _, _ in TARGETS}
        self.calls = {name: 0 for name, _, _ in TARGETS}
        self.errors = {mod: 0 for mod in MODULES}
        self.matrix_entries = 0

    # -- installation --------------------------------------------------

    def install(self):
        self.absent = []
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if not callable(raw):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, name.partition(".")[0], raw)
            if owner is module:
                self._rebind_everywhere(raw, wrapper)
            else:
                self._patches.append((owner, attr, raw, attr in vars(owner)))
                setattr(owner, attr, wrapper)

    def _rebind_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, True))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _wrap(self, name, module, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(name, module, fn, args, kwargs)

        return traced

    # -- recording -----------------------------------------------------

    def _call(self, name, module, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, name, module, 0.0]
        self._stack.append(frame)
        raised = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            raised = True
            if parent is None or parent[2] != module:
                self.errors[module] += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[3] += duration
            self.self_s[name] += duration - frame[3]
            self.calls[name] += 1
            self.spans.append(
                (span_id, parent[0] if parent else None, name, start, end, raised, self.pass_index)
            )
        if name == BOUNDARY_MATRIX:
            self.matrix_entries += _matrix_entries(result)
        return result

    def pass_metrics(self, pass_seconds: float) -> dict:
        """Per-layer values of the pass since the last reset."""
        out = {}
        for name, _, _ in TARGETS:
            out[f"{name}.s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        out[f"{BOUNDARY_MATRIX}.entries"] = self.matrix_entries
        out[f"{BOUNDARY_MATRIX}.bytes"] = self.matrix_entries * INT64_BYTES
        for mod in MODULES:
            out[f"{mod}.errors"] = self.errors[mod]
        out["trace.unspanned_s"] = pass_seconds - sum(self.self_s.values())
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, raised, pass_index in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "start": start,
                    "end": end, "raised": raised, "pass": pass_index,
                }) + "\n")
