import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ktreesub
from ktreesub.cli import build_parser, main


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def test_enumerate_pik(tmp_path, capsys):
    code, out = run(["enumerate", "--object", "pi-k", "--m", "5", "--k", "2"], tmp_path)
    assert code == 0
    assert "elements: 12" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert len(data["elements"]) == 12
    assert data["min"] is not None and data["max"] is not None


def test_enumerate_ktree_complex(tmp_path, capsys):
    code, out = run(["enumerate", "--object", "ktree-complex", "--n", "4", "--k", "1"], tmp_path)
    assert code == 0
    assert "f_vector: (10, 15)" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 10
    assert len(data["facets"]) == 15


def test_enumerate_gset(tmp_path, capsys):
    code, out = run(["enumerate", "--object", "g-set", "--m", "7", "--k", "2"], tmp_path)
    assert code == 0
    assert "elements: 57" in capsys.readouterr().out


def test_enumerate_invalid_args(tmp_path):
    code = main(["enumerate", "--object", "pi-k", "--m", "0", "--k", "2"])
    assert code == 2
    code = main(["enumerate", "--object", "pi-k", "--m", "5"])
    assert code == 2


def test_argparse_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["enumerate"])  # missing --object
    assert err.value.code == 2


def test_verify_pass(tmp_path, capsys):
    code, out = run(["verify", "--k", "2", "--n", "3"], tmp_path)
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict: pass" in text
    data = json.loads(out.read_text())
    assert data["verdict"] == "pass"
    assert data["instance"] == {"k": 2, "m": 5, "n": 3}


def test_verify_multiple_extensions(tmp_path):
    code, out = run(["verify", "--k", "1", "--n", "4", "--extensions", "3"], tmp_path)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["extensions_checked"] == 3
    names = [c["name"] for c in data["checks"]]
    assert names == [
        "stellar_sequence_matches_order_complex[0]",
        "stellar_sequence_matches_order_complex[1]",
        "stellar_sequence_matches_order_complex[2]",
        "carrier_map_partition",
        "homology_equal_all_degrees",
    ]
    assert all(c["pass"] for c in data["checks"])


def test_verify_counts_only_distinct_extensions(tmp_path):
    # (1,3) has a single linear extension, the empty one
    code, out = run(["verify", "--k", "1", "--n", "3", "--extensions", "3"], tmp_path)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["extensions_checked"] == 1
    names = [c["name"] for c in data["checks"]]
    assert [n for n in names if n.startswith("stellar")] == [
        "stellar_sequence_matches_order_complex[0]"
    ]


def test_verify_resource_limit(tmp_path, capsys):
    code = main(["verify", "--k", "1", "--n", "99"])
    assert code == 3


def test_verify_cap_flag(tmp_path):
    code = main(["verify", "--k", "2", "--n", "4", "--max-poset-elements", "10"])
    assert code == 3


@pytest.mark.parametrize(
    "args",
    [
        ["equivariance", "--k", "2", "--n", "4", "--sample", "-1"],
        ["verify", "--k", "2", "--n", "4", "--max-faces", "-5"],
        ["verify", "--k", "2", "--n", "4", "--max-poset-elements", "-1"],
    ],
)
def test_negative_count_flag_is_usage_error(args, capsys):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "usage:" in stderr and "must be a nonnegative integer" in stderr


@pytest.mark.parametrize(
    "args",
    [
        ["--object", "order-complex", "--m", "0", "--k", "1"],
        ["--object", "ktree-complex", "--n", "2", "--k", "1"],
        ["--object", "ktree-complex", "--n", "4", "--k", "0"],
    ],
    ids=["m-zero", "n-below-3", "k-zero"],
)
def test_homology_object_bad_numbers_are_usage_errors(args, capsys):
    assert main(["homology"] + args) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_enumerate_gset_over_cap_exits_3(capsys):
    # g-set (7, 2) has 57 elements
    code = main(["enumerate", "--object", "g-set", "--m", "7", "--k", "2",
                 "--max-poset-elements", "56"])
    assert code == 3
    assert "g-set would have 57 elements (cap 56)" in capsys.readouterr().err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_ktree_complex_past_cap_exits_3_before_allocating(tmp_path):
    # in a child with 1 GiB of address space, so a regression that builds
    # the 2^25 blocks fails here instead of exhausting the host's memory
    src = os.path.dirname(os.path.dirname(ktreesub.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "ktreesub.cli", "enumerate", "--object", "ktree-complex",
         "--n", "25", "--k", "1", "--out", str(tmp_path / "t.json")],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3, proc.stderr
    assert "resource limit: k-tree complex exceeds 300000 faces" in proc.stderr
    assert not (tmp_path / "t.json").exists()


def test_ktree_complex_8_3_within_1gib(tmp_path):
    # T^8_3 has 24,310 vertices and no edges; its compatibility bitsets are
    # built row by row, where a dense 24,310^2 matrix would not fit in 1 GiB
    src = os.path.dirname(os.path.dirname(ktreesub.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "ktreesub.cli", "enumerate", "--object", "ktree-complex",
         "--n", "3", "--k", "8", "--out", str(tmp_path / "t.json")],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    assert "f_vector: (24310,)" in proc.stdout
    assert len(json.loads((tmp_path / "t.json").read_text())["facets"]) == 24310


def test_verify_more_extensions_than_exist_stops_drawing(tmp_path):
    # Π_3 has no proper element outside G: one (empty) linear extension, so
    # no seeded draw is made for the other 99,999 asked for
    src = os.path.dirname(os.path.dirname(ktreesub.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "ktreesub.cli", "verify", "--k", "1", "--n", "3",
         "--extensions", "100000", "--out", str(tmp_path / "v.json")],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "v.json").read_text())["extensions_checked"] == 1


def test_python_m_ktreesub_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(ktreesub.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")

    def run(k):
        return subprocess.run(
            [sys.executable, "-m", "ktreesub", "verify", "--k", k, "--n", "4"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )

    ok = run("1")
    assert ok.returncode == 0, ok.stderr
    assert "verdict: pass" in ok.stdout
    bad = run("0")
    assert bad.returncode == 2
    assert "need k >= 1" in bad.stderr


def test_homology_order_complex(capsys):
    code = main(["homology", "--object", "order-complex", "--m", "4", "--k", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "degree 1: betti 6" in out


def test_homology_compare(capsys):
    code = main(["homology", "--compare", "--k", "2", "--n", "4"])
    assert code == 0
    assert "equal" in capsys.readouterr().out


def test_homology_ten_points(capsys):
    code = main(["homology", "--object", "order-complex", "--m", "5", "--k", "2"])
    assert code == 0
    assert "degree 0: betti 9" in capsys.readouterr().out


def _homology_json(args, capsys):
    """What ``homology ... --format json`` prints, as one JSON value."""
    capsys.readouterr()
    assert main(["homology", *args, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_homology_of_a_written_complex_matches_the_object(tmp_path, capsys):
    # enumerate writes T^1_5, and homology reads it back: the same groups
    # as homology of the object itself
    code, out = run(["enumerate", "--object", "ktree-complex", "--n", "5", "--k", "1"], tmp_path)
    assert code == 0
    table = _homology_json(["--object", "ktree-complex", "--n", "5", "--k", "1"], capsys)
    assert table == {"name": "k-tree complex (n=5, k=1)", "groups": [[0, []], [0, []], [24, []]]}
    assert _homology_json(["--in", str(out)], capsys) == {"name": str(out), "groups": table["groups"]}


def test_equivariance_writes_its_report(tmp_path, capsys):
    code, out = run(["equivariance", "--k", "2", "--n", "3"], tmp_path)
    assert code == 0
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")
    report = json.loads(out.read_text())
    assert report == {"passed": True, "permutations_checked": 120, "top_rank": {"source": 9, "target": 9},
                      "failures": []}


def test_verify_zero_extensions_is_usage_error(capsys):
    assert main(["verify", "--k", "1", "--n", "4", "--extensions", "0"]) == 2
    assert capsys.readouterr().err == "error: --extensions must be positive\n"


# the option strings of each subcommand: each is read by its command
SUBCOMMAND_OPTIONS = {
    "enumerate": ["--object", "--m", "--k", "--n", "--element", "--format", "--max-poset-elements", "--max-faces",
                  "--out", "-v", "--verbosity"],
    "verify": ["--k", "--n", "--extensions", "--seed", "--format", "--max-poset-elements", "--max-faces",
               "--out", "-v", "--verbosity"],
    "homology": ["--object", "--m", "--k", "--n", "--compare", "--in", "--format", "--max-poset-elements",
                 "--max-faces"],
    "equivariance": ["--k", "--n", "--sample", "--in", "--seed", "--format", "--max-poset-elements",
                     "--max-faces", "--out", "-v", "--verbosity"],
}


def test_subcommand_options_are_pinned():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(subparsers.choices) == sorted(SUBCOMMAND_OPTIONS)
    for command, parser in subparsers.choices.items():
        options = [s for action in parser._actions for s in action.option_strings if s not in ("-h", "--help")]
        assert options == SUBCOMMAND_OPTIONS[command], command


@pytest.mark.parametrize("args", [
    ["enumerate", "--object", "pi-k", "--m", "5", "--k", "2", "--seed", "1"],
    ["homology", "--object", "order-complex", "--m", "4", "--k", "1", "--seed", "1"],
    ["homology", "--object", "order-complex", "--m", "4", "--k", "1", "--out", "h.json"],
    ["homology", "--object", "order-complex", "--m", "4", "--k", "1", "-v", "0"],
], ids=["enumerate-seed", "homology-seed", "homology-out", "homology-verbosity"])
def test_flags_no_command_reads_exit_2(args, capsys):
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_equivariance_builtin(capsys):
    code = main(["equivariance", "--k", "2", "--n", "3"])
    assert code == 0
    assert "120" in capsys.readouterr().out


def test_equivariance_corrupt_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [')
    code = main(["equivariance", "--in", str(bad)])
    assert code == 2


@pytest.mark.parametrize("command", ["homology", "equivariance"])
@pytest.mark.parametrize(
    "payload",
    [
        '{"vertices": [1, 2], "facets": [[0, 1]]}',
        "[1, 2]",
        '{"vertices": [[[1]], [[1, 2]]], "facets": [[0, 5]]}',
        '{"vertices": [[[99]]], "facets": [[0]]}',
        '{"vertices": [[[1]]], "facets": [[0.0]]}',
        '{"vertices": [[[1]]]}',
    ],
    ids=["labels-not-partitions", "top-level-list", "facet-index-out-of-range",
         "label-element-beyond-its-size", "facet-index-float", "facets-missing"],
)
def test_malformed_complex_file_is_usage_error(tmp_path, capsys, command, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    assert main([command, "--in", str(bad)]) == 2
    assert "cannot load complex" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["homology", "equivariance"])
def test_wide_facet_exits_3_before_closing(tmp_path, capsys, command):
    # one facet of 40 vertices has 2^40 - 1 faces: refused before the
    # closure starts, where the closure alone would never finish
    labels = [x.to_json() for x in ktreesub.g_set(7, 1)[:40]]
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"vertices": labels, "facets": [list(range(40))]}))
    start = time.perf_counter()
    assert main([command, "--in", str(wide)]) == 3
    assert time.perf_counter() - start < 1
    assert "resource limit: a facet of 40 vertices" in capsys.readouterr().err


def test_equivariance_file_roundtrip(tmp_path, capsys):
    code, out = run(["enumerate", "--object", "ktree-complex", "--n", "3", "--k", "2"], tmp_path)
    assert code == 0
    code = main(["equivariance", "--in", str(out)])
    assert code == 0


@pytest.mark.parametrize("verbosity", [[], ["-v", "0"]], ids=["default", "quiet"])
def test_equivariance_file_writes_its_report(tmp_path, capsys, verbosity):
    # --out and -v are read on a complex file as with --k/--n: the summary
    # line's counts go to the file, and "wrote" is said unless -v 0
    _, complex_file = run(["enumerate", "--object", "ktree-complex", "--n", "3", "--k", "2"], tmp_path)
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["equivariance", "--in", str(complex_file), "--out", str(report)] + verbosity) == 0
    wrote = "" if verbosity else f"wrote {report}\n"
    assert capsys.readouterr().out == "checked 120 permutations, 0 break invariance\n" + wrote
    assert json.loads(report.read_text()) == {"permutations_checked": 120, "breaking_invariance": 0}


def test_byte_identical_artifacts(tmp_path):
    _, a = run(["verify", "--k", "1", "--n", "4", "--extensions", "2"], tmp_path, "a.json")
    _, b = run(["verify", "--k", "1", "--n", "4", "--extensions", "2"], tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of artifacts written by the code that kept the order as a dense
# n x n matrix: a change of representation must not change a byte
PINNED_ARTIFACTS = {
    ("verify", "--k", "1", "--n", "3"): "050e9cfb580c7585557c15454593a17a5cbf178c7e6c57183dfe8ac193d59d61",
    ("verify", "--k", "2", "--n", "3"): "e04f388eeba7971d9ca0777b44e26055d040ae830fd698b818f64edc3c074733",
    ("verify", "--k", "3", "--n", "3"): "dfadda25c7781533a098fdf0bd894b26733ef1fd0cc3425b81b57649ca36347a",
    ("verify", "--k", "1", "--n", "4"): "ec8de7fe2647541b20746f6b8c22759c819f24291f696c51e03c2d06844c8c5e",
    ("verify", "--k", "2", "--n", "4"): "c928b7bf0e7fccea13688737feda078d85b66966109cb27570ad793a65791a42",
    ("verify", "--k", "1", "--n", "5"): "0e57cfe1f9a284e1c716e22d4e603dc2d3c64e6c63f27f0d74d05ab30d2a2b5a",
    ("verify", "--k", "4", "--n", "3"): "612d3a9afad2bd6b5e3b3d0b53d0556cf1c67af56c8578ade159a92bb7c1d851",
    ("enumerate", "--object", "pi-k", "--m", "7", "--k", "2"):
        "3f5acc234af498f0f011073aa3731da1c722706bc6202424ff773cdbee04a0aa",
    ("enumerate", "--object", "pi-k", "--m", "10", "--k", "3"):
        "51463ceb19a7ab00e92774b6937719c41b666a4229b54a5c4ab9a3812dc209bc",
    ("enumerate", "--object", "order-complex", "--m", "7", "--k", "2"):
        "321821874d516558c5f897b358e5cfb91f99b291329e16c3b6a4ede336c74290",
    ("enumerate", "--object", "order-complex", "--m", "10", "--k", "3"):
        "b1373aecea9130011631bebf02719bb24f5163e5863d7835ab077e3c44d14bbd",
}


@pytest.mark.parametrize("args", sorted(PINNED_ARTIFACTS), ids=lambda a: "-".join(a[0:1] + a[2::2]))
def test_artifacts_are_pinned(tmp_path, args):
    extra = ["--extensions", "3", "--seed", "0"] if args[0] == "verify" else []
    code, out = run(list(args) + extra, tmp_path)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_ARTIFACTS[args]


def test_element_lookup_shorthand(tmp_path, capsys):
    code, _ = run(
        ["enumerate", "--object", "pi-k", "--m", "7", "--k", "2", "--element", "(123)(456)7"],
        tmp_path,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "rank 4, member: True" in out
    assert "(123)4567" in out
    code = main(["enumerate", "--object", "pi-k", "--m", "7", "--k", "2", "--element", "(xy"])
    assert code == 2
    code = main(["enumerate", "--object", "pi-k", "--m", "3", "--k", "1", "--element", "()"])
    assert code == 2
    assert "blocks do not partition" in capsys.readouterr().err


def test_format_json_summary(tmp_path, capsys):
    code, _ = run(
        ["enumerate", "--object", "pi-k", "--m", "5", "--k", "2", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["elements"] == 12


@pytest.mark.parametrize(
    "args",
    [["homology", "--compare", "--k", "1", "--n", "4"], ["homology", "--compare", "--k", "2", "--n", "3"],
     ["equivariance", "--in", "{complex}"], ["equivariance", "--in", "{complex}", "--sample", "3"]],
    ids=["compare-1-4", "compare-2-3", "equivariance-in", "equivariance-in-sample"],
)
def test_json_format_prints_json_lines(tmp_path, capsys, args):
    # every stdout line of the json form is one JSON value, and the text
    # form keeps its lines
    _, complex_file = run(["enumerate", "--object", "ktree-complex", "--n", "3", "--k", "1", "-v", "0"], tmp_path)
    args = [a.format(complex=complex_file) for a in args]
    capsys.readouterr()
    assert main(args) == 0
    text = capsys.readouterr().out.splitlines()
    assert main(args + ["--format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    payloads = [json.loads(line) for line in lines]
    assert len(lines) == len([line for line in text if not line.startswith("  ")])
    if args[0] == "homology":
        ranks = payloads[-1]["top_degree_ranks"]
        assert text[-1] == f"top-degree ranks: {ranks['source']} vs {ranks['target']} -> equal"
    else:
        assert payloads == [{"permutations_checked": 6, "breaking_invariance": 0}]
        assert text == ["checked 6 permutations, 0 break invariance"]


MIXED_GROUND_SETS = (
    "error: complex labels are not partitions of a common ground set: "
    "permutation length does not match ground set"
)


def test_equivariance_mixed_ground_sets_is_usage_error(tmp_path, capsys):
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"vertices": [[[1, 2], [3]], [[1], [2]]], "facets": [[0], [1]]}))
    assert main(["equivariance", "--in", str(mixed)]) == 2
    assert capsys.readouterr().err == MIXED_GROUND_SETS + "\n"


def test_equivariance_exit_1_on_broken_symmetry(tmp_path):
    lopsided = {
        "vertices": [[[1, 2], [3], [4], [5]]],
        "facets": [[0]],
    }
    f = tmp_path / "lopsided.json"
    f.write_text(json.dumps(lopsided))
    code = main(["equivariance", "--in", str(f)])
    assert code == 1


def test_equivariance_counts_isolated_vertices(tmp_path, capsys):
    # (12)(34)5 and 12(34)5 as two isolated vertices: a permutation keeps
    # them iff it fixes {1, 2} and {3, 4} setwise, 4 of 120.  One that fixes
    # {3, 4} and moves {1, 2} to no block must not send (12)(34)5 to 12(34)5
    f = tmp_path / "isolated.json"
    f.write_text(json.dumps({"vertices": [[[1, 2], [3, 4], [5]], [[1], [2], [3, 4], [5]]], "facets": [[0], [1]]}))
    assert main(["equivariance", "--in", str(f)]) == 1
    assert capsys.readouterr().out == "checked 120 permutations, 116 break invariance\n"


@pytest.mark.parametrize(
    "vertices, flags, line, code",
    [
        ([[[1]]], [], "checked 1 permutations, 0 break invariance", 0),
        ([[[1], [2]], [[1, 2]]], [], "checked 2 permutations, 0 break invariance", 0),
        ([[[1, 2], [3], [4], [5]]], [], "checked 120 permutations, 108 break invariance", 1),
        ([[[1, 2], [3], [4], [5], [6], [7]], [[1], [2, 3], [4], [5], [6], [7]]],
         ["--sample", "30", "--seed", "5"], "checked 30 permutations, 29 break invariance", 1),
        ([[[1, 2], [3], [4], [5], [6], [7]], [[1], [2]]], ["--sample", "0"], MIXED_GROUND_SETS, 2),
        ([[[1, 2], [3], [4], [5], [6], [7]], [[1], [2]]], ["--sample", "1"], MIXED_GROUND_SETS, 2),
    ],
    ids=["m1", "m2", "m5-broken", "m7-sampled", "m7-mixed-empty-sample", "m7-mixed-sample-1"],
)
def test_equivariance_in_output(tmp_path, capsys, vertices, flags, line, code):
    # m = 1 and m = 2, where the two generators of S_m degenerate, and
    # complexes that no generator certificate covers; labels on two ground
    # sets are a usage error however many permutations are sampled
    f = tmp_path / "complex.json"
    f.write_text(json.dumps({"vertices": vertices, "facets": [list(range(len(vertices)))]}))
    assert main(["equivariance", "--in", str(f)] + flags) == code
    out, err = capsys.readouterr()
    assert (out, err) == ((line + "\n", "") if code < 2 else ("", line + "\n"))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["vertices", "facets", "x"]), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _complex_file(draw):
    """The shape ``enumerate`` writes, with vertices drawn as partitions of
    1..m (their blocks named by a block id per element) and facets as index
    lists, both sometimes out of range."""
    m = draw(st.integers(1, 4))
    vertices = []
    for ids in draw(st.lists(st.lists(st.integers(0, 2), min_size=m, max_size=m), max_size=5)):
        blocks = {}
        for x, b in enumerate(ids, 1):
            blocks.setdefault(b, []).append(x)
        vertices.append(list(blocks.values()))
    facets = draw(st.lists(st.lists(st.integers(0, len(vertices)), max_size=3), max_size=4))
    return {"vertices": vertices, "facets": facets}


@st.composite
def _cli_call(draw):
    """An argument list for one subcommand, with small or negative numbers
    and small caps, and the JSON to put in its ``--in`` file, if any."""
    command = draw(st.sampled_from(["enumerate", "verify", "homology", "equivariance"]))
    argv = [command]

    def maybe(flag, values):
        if draw(st.sampled_from([True, True, False])):
            argv.extend([flag, str(draw(values))])

    if command == "enumerate":
        argv += ["--object", draw(st.sampled_from(["pi-k", "ktree-complex", "order-complex", "g-set"]))]
        maybe("--element", st.text(max_size=10))
    if command == "homology":
        maybe("--object", st.sampled_from(["order-complex", "ktree-complex"]))
        if draw(st.booleans()):
            argv.append("--compare")
    maybe("--k", st.integers(1, 3) | st.integers(-1, 0))
    maybe("--n", st.integers(3, 5) | st.integers(-1, 2))
    if command in ("enumerate", "homology"):
        maybe("--m", st.integers(1, 6) | st.integers(-1, 0))
    if command == "verify":
        maybe("--extensions", st.integers(0, 3))
    if command == "equivariance":
        maybe("--sample", st.integers(0, 30))
    maybe("--format", st.sampled_from(["json", "text"]))
    if command in ("verify", "equivariance"):
        maybe("--seed", st.integers(-3, 3))
    argv += ["--max-poset-elements", str(draw(st.integers(0, 150))),
             "--max-faces", str(draw(st.integers(0, 400)))]
    payload = None
    if command in ("homology", "equivariance") and draw(st.booleans()):
        payload = draw(_JSON | _complex_file())
    return argv, payload


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(_cli_call())
def test_cli_fuzz_exit_codes(tmp_path, monkeypatch, call):
    # every subcommand ends in a documented exit code, never an exception
    argv, payload = call
    monkeypatch.setenv("KTREESUB_OUT_DIR", str(tmp_path))
    if payload is not None:
        infile = tmp_path / "in.json"
        infile.write_text(json.dumps(payload))
        argv = argv + ["--in", str(infile)]
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects the arguments
        code = e.code
    assert code in (0, 1, 2, 3)
