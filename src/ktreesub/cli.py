"""Command-line front end: enumeration, subdivision verification, homology
tables, and equivariance checks, with reproducible JSON artifacts.

Exit codes: 0 pass, 1 verification failed, 2 usage error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .complexes import SimplicialComplex
from .errors import MAX_FACES, MAX_POSET_ELEMENTS, KTreeSubError, ResourceLimit
from .partitions import Partition, enumerate_partitions, g_set, g_set_count, parse_partition
from .poset import poset_to_json
from .subdivision import (
    PermutationAction,
    _homology_json,
    _instance,
    check_equivariance,
    generators,
    tested_permutations,
    top_rank,
    verify_theorem,
)
from .trees import enumerate_ktree_complex

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _out_path(args, default_name: str):
    if args.out:
        return args.out
    outdir = os.environ.get("KTREESUB_OUT_DIR", ".")
    return os.path.join(outdir, default_name)


def _write_json(path, payload, verbosity=1):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    if verbosity:
        print(f"wrote {path}")


def _require(args, names) -> bool:
    return all(getattr(args, n, None) is not None for n in names)


def _partition_label(x):
    return x.to_json() if isinstance(x, Partition) else x


def _emit(args, text_lines, json_payload):
    """Print either the human lines or a canonical JSON summary."""
    if args.format == "json":
        print(json.dumps(json_payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _emit_line(args, text, json_payload):
    """Print one line: ``text``, or ``json_payload`` as one JSON line."""
    print(json.dumps(json_payload, sort_keys=True) if args.format == "json" else text)


def _object_args_error(args, obj):
    """The usage error for missing or out-of-range numbers of ``--object obj``,
    or None."""
    if obj == "ktree-complex":
        if not _require(args, ["n", "k"]):
            return "--object ktree-complex needs --n and --k"
        if args.n < 3 or args.k < 1:
            return "need n >= 3 and k >= 1"
    else:
        if not _require(args, ["m", "k"]):
            return f"--object {obj} needs --m and --k"
        if args.m < 1 or args.k < 1:
            return "m and k must be positive"
    return None


def _object_complex(args) -> SimplicialComplex:
    """The complex ``--object`` names, order-complex or ktree-complex, within
    the caps."""
    if args.object == "order-complex":
        pk = enumerate_partitions(args.m, args.k, max_elements=args.max_poset_elements)
        return pk.poset.order_complex(max_faces=args.max_faces)
    return enumerate_ktree_complex(args.n, args.k, max_faces=args.max_faces)


def cmd_enumerate(args) -> int:
    obj = args.object
    error = _object_args_error(args, obj)
    if error:
        return _usage_error(error)

    if obj == "pi-k":
        pk = enumerate_partitions(args.m, args.k, max_elements=args.max_poset_elements)
        payload = poset_to_json(pk.poset, label_fn=_partition_label)
        lines = [f"elements: {pk.poset.n}"]
        summary = {"elements": pk.poset.n}
        if args.element:
            try:
                x = parse_partition(args.element, args.m)
            except ValueError as e:
                return _usage_error(f"cannot parse partition {args.element!r}: {e}")
            member = x.is_mod_k(args.k)
            factors = sorted(pk.factors(x), key=Partition.sort_key) if member else []
            lines.append(f"element {x.text()}: rank {x.rank}, member: {member}")
            if member:
                lines.append("factors: " + " ".join(f.text() for f in factors))
            summary["element"] = {
                "blocks": x.to_json(),
                "rank": x.rank,
                "member": member,
                "factors": [f.to_json() for f in factors],
            }
        _emit(args, lines, summary)
        name = f"pi-{args.k}-m{args.m}.json"
    elif obj == "g-set":
        count = g_set_count(args.m, args.k)
        if count > args.max_poset_elements:
            raise ResourceLimit(f"g-set would have {count} elements (cap {args.max_poset_elements})")
        gs = g_set(args.m, args.k)
        payload = [x.to_json() for x in gs]
        _emit(args, [f"elements: {len(gs)}"], {"elements": len(gs)})
        name = f"g-set-m{args.m}-k{args.k}.json"
    else:  # order-complex or ktree-complex: argparse restricts choices
        kom = _object_complex(args)
        payload = kom.to_json(label_fn=_partition_label)
        _emit(args, [f"f_vector: {tuple(kom.f_vector())}"], {"f_vector": list(kom.f_vector())})
        size = f"m{args.m}" if obj == "order-complex" else f"n{args.n}"
        name = f"{obj}-{size}-k{args.k}.json"

    _write_json(_out_path(args, name), payload, args.verbosity)
    return EXIT_PASS


def cmd_verify(args) -> int:
    if args.k < 1 or args.n < 3:
        return _usage_error("need k >= 1 and n >= 3")
    if args.extensions < 1:
        return _usage_error("--extensions must be positive")
    report = verify_theorem(
        args.k,
        args.n,
        extensions=args.extensions,
        seed=args.seed,
        max_poset_elements=args.max_poset_elements,
        max_faces=args.max_faces,
    )
    lines = [
        f"{check['name']}: {'pass' if check['pass'] else 'FAIL'}" for check in report.checks
    ]
    lines.append(f"verdict: {report.verdict}")
    _emit(args, lines, report.to_json())
    name = f"verify-k{args.k}-n{args.n}.json"
    _write_json(_out_path(args, name), report.to_json(), args.verbosity)
    return EXIT_PASS if report.verdict == "pass" else EXIT_FAIL


def _homology_table(kom: SimplicialComplex, title: str, args):
    rows = kom.reduced_homology()
    if args.format == "json":
        print(json.dumps({"name": title, "groups": _homology_json(rows)}, sort_keys=True))
        return rows
    print(title)
    for d, (betti, torsion) in enumerate(rows):
        tor = ",".join(f"Z/{t}" for t in torsion) if torsion else "-"
        print(f"  degree {d}: betti {betti} torsion {tor}")
    return rows


def _load_complex_file(path, max_faces) -> SimplicialComplex:
    """A complex in the shape ``enumerate --object ktree-complex`` writes;
    any other shape raises ``ValueError``, and one of more than
    ``max_faces`` faces ``ResourceLimit``."""
    with open(path) as fh:
        data = json.load(fh)
    vertices = data.get("vertices") if isinstance(data, dict) else None
    if isinstance(vertices, list) and not all(
        isinstance(v, list) and v and all(isinstance(b, list) and b and all(type(x) is int for x in b) for b in v)
        for v in vertices
    ):
        raise ValueError("expected vertices as lists of integer blocks")
    return SimplicialComplex.from_json(
        data, label_fn=lambda lab: Partition(sum(len(b) for b in lab), lab), max_faces=max_faces
    )


def cmd_homology(args) -> int:
    if args.compare:
        if not _require(args, ["k", "n"]):
            return _usage_error("--compare needs --k and --n")
        if args.k < 1 or args.n < 3:
            return _usage_error("need k >= 1 and n >= 3")
        m, _, target, source = _instance(args.k, args.n, args.max_poset_elements, args.max_faces)
        hs = _homology_table(source, f"order complex (m={m}, k={args.k})", args)
        ht = _homology_table(target, f"k-tree complex (n={args.n}, k={args.k})", args)
        rank_s, rank_t = top_rank(hs, args.n), top_rank(ht, args.n)
        equal = rank_s == rank_t
        _emit_line(args, f"top-degree ranks: {rank_s} vs {rank_t} -> {'equal' if equal else 'DIFFERENT'}",
                   {"top_degree_ranks": {"source": rank_s, "target": rank_t}, "equal": equal})
        return EXIT_PASS if equal else EXIT_FAIL

    if args.infile:
        try:
            kom = _load_complex_file(args.infile, args.max_faces)
        except (OSError, ValueError) as e:
            return _usage_error(f"cannot load complex from {args.infile}: {e}")
        _homology_table(kom, args.infile, args)
        return EXIT_PASS

    if not args.object:
        return _usage_error("homology needs --compare, --in, or --object")
    error = _object_args_error(args, args.object)
    if error:
        return _usage_error(error)
    title = (f"order complex (m={args.m}, k={args.k})" if args.object == "order-complex"
             else f"k-tree complex (n={args.n}, k={args.k})")
    _homology_table(_object_complex(args), title, args)
    return EXIT_PASS


def cmd_equivariance(args) -> int:
    if args.infile:
        try:
            kom = _load_complex_file(args.infile, args.max_faces)
            m = kom.vertices[0].m
        except (OSError, ValueError, IndexError) as e:
            return _usage_error(f"cannot load complex from {args.infile}: {e}")
        if any(x.m != m for x in kom.vertices):
            return _usage_error(
                "complex labels are not partitions of a common ground set: "
                "permutation length does not match ground set"
            )
        # the permutations that leave the complex invariant form a subgroup:
        # when the generators of S_m are in it, no permutation breaks invariance
        action = PermutationAction(kom, kom.face_rows)
        certified = all(action.relabel(g) is not None for g in generators(m))
        perms, count = tested_permutations(m, None if m <= 5 else args.sample, args.seed, certified)
        broken = sum(action.relabel(pi) is None for pi in perms)
        payload = {"permutations_checked": count, "breaking_invariance": broken}
        _emit_line(args, f"checked {count} permutations, {broken} break invariance", payload)
        if args.out:
            _write_json(args.out, payload, args.verbosity)
        return EXIT_PASS if not broken else EXIT_FAIL

    if not _require(args, ["k", "n"]):
        return _usage_error("equivariance needs --k and --n")
    if args.k < 1 or args.n < 3:
        return _usage_error("need k >= 1 and n >= 3")
    m = (args.n - 1) * args.k + 1
    perms = "all" if m <= 5 else args.sample
    report = check_equivariance(
        args.k,
        args.n,
        perms=perms,
        seed=args.seed,
        max_poset_elements=args.max_poset_elements,
        max_faces=args.max_faces,
    )
    _emit(
        args,
        [
            f"permutations checked: {report.permutations_checked}; "
            f"top ranks {report.top_rank_source} vs {report.top_rank_target}",
            f"verdict: {'pass' if report.passed else 'fail'}",
        ],
        report.to_json(),
    )
    if args.out:
        _write_json(args.out, report.to_json(), args.verbosity)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, not {text!r}")
    return int(text)


def _add_common(sub):
    """The flags every subcommand reads: the output format and the caps."""
    sub.add_argument("--format", choices=["json", "text"], default="text")
    sub.add_argument("--max-poset-elements", type=_nonnegative_int, default=MAX_POSET_ELEMENTS)
    sub.add_argument("--max-faces", type=_nonnegative_int, default=MAX_FACES)


def _add_artifact(sub):
    """The flags of a subcommand that writes an artifact: its path and
    whether to say so."""
    sub.add_argument("--out", help="output artifact path")
    sub.add_argument("-v", "--verbosity", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktreesub",
        description="partition posets mod k, k-tree complexes, and subdivision verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_enum = subs.add_parser("enumerate", help="enumerate posets and complexes")
    p_enum.add_argument("--object", required=True, choices=["pi-k", "ktree-complex", "order-complex", "g-set"])
    p_enum.add_argument("--m", type=int)
    p_enum.add_argument("--k", type=int)
    p_enum.add_argument("--n", type=int)
    p_enum.add_argument("--element", help="partition shorthand like '(123)4567' to look up")
    _add_common(p_enum)
    _add_artifact(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_ver = subs.add_parser("verify", help="verify the subdivision theorem instance")
    p_ver.add_argument("--k", type=int, required=True)
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--extensions", type=int, default=1)
    p_ver.add_argument("--seed", type=int, default=0)
    _add_common(p_ver)
    _add_artifact(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_hom = subs.add_parser("homology", help="reduced homology tables")
    p_hom.add_argument("--object", choices=["order-complex", "ktree-complex"])
    p_hom.add_argument("--m", type=int)
    p_hom.add_argument("--k", type=int)
    p_hom.add_argument("--n", type=int)
    p_hom.add_argument("--compare", action="store_true")
    p_hom.add_argument("--in", dest="infile", help="complex artifact to analyze")
    _add_common(p_hom)
    p_hom.set_defaults(func=cmd_homology)

    p_eq = subs.add_parser("equivariance", help="symmetric-group equivariance checks")
    p_eq.add_argument("--k", type=int)
    p_eq.add_argument("--n", type=int)
    p_eq.add_argument("--sample", type=_nonnegative_int, default=200)
    p_eq.add_argument("--in", dest="infile", help="complex artifact to check for invariance")
    p_eq.add_argument("--seed", type=int, default=0)
    _add_common(p_eq)
    _add_artifact(p_eq)
    p_eq.set_defaults(func=cmd_equivariance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except KTreeSubError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
