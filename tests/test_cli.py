import json
import os
import pathlib
import subprocess
import sys

import pytest

import graphpick
from graphpick import numcheck
from graphpick.cli import main
from graphpick.graphs import graph_from_json
from graphpick.ratfun import parse_ratfun, ratfun_from_json


SINGLE_Z = {"vertices": [{"id": 1, "color": "z"}], "edges": [], "root": 1}

CONTACT = {
    "vertices": [
        {"id": 1, "color": "z"},
        {"id": 2, "color": "w"},
        {"id": 3, "color": "z"},
        {"id": 4, "color": "z"},
        {"id": 5, "color": "z"},
    ],
    "edges": [[1, 3], [1, 4], [2, 3], [2, 5], [4, 5]],
    "root": 1,
}

SQUARE = {
    "vertices": [
        {"id": 1, "color": "z"},
        {"id": 2, "color": "w"},
        {"id": 3, "color": "w"},
        {"id": 4, "color": "w"},
    ],
    "edges": [[1, 2], [2, 3], [3, 4], [1, 4]],
    "root": 1,
}

TRIANGLE = {
    "vertices": [
        {"id": 1, "color": "z"},
        {"id": 2, "color": "z"},
        {"id": 3, "color": "w"},
    ],
    "edges": [[1, 2], [1, 3], [2, 3]],
    "root": 1,
}

SIX_VERTEX = {
    "vertices": [
        {"id": 1, "color": "z"},
        {"id": 2, "color": "w"},
        {"id": 3, "color": "z"},
        {"id": 4, "color": "z"},
        {"id": 5, "color": "z"},
        {"id": 6, "color": "w"},
    ],
    "edges": [[1, 2], [1, 3], [2, 4], [3, 4], [4, 5], [4, 6], [5, 6]],
    "root": 1,
}

TWO_PATH = {
    "vertices": [{"id": 1, "color": "z"}, {"id": 2, "color": "z"}],
    "edges": [[1, 2]],
    "root": 1,
}

# sparse labels with degree gaps near 1000: the final gcd of vertex 2 falls
# back to the primitive remainder sequence
SPARSE_LABELS = {
    "vertices": [
        {"id": 1, "color": "z"},
        {"id": 2, "color": {"num": "0", "den": "1"}},
        {"id": 3, "color": {"num": "w^666 - 1", "den": "1"}},
        {"id": 4, "color": {"num": "z^1000 + w", "den": "1"}},
    ],
    "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4]],
    "root": 1,
}


@pytest.fixture
def write_graph(tmp_path):
    def _write(obj, name="g.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repfun_single_vertex(capsys, write_graph):
    code, out, _ = run(capsys, "repfun", write_graph(SINGLE_Z))
    assert code == 0
    assert out == "(-1)/(z)\n"


def test_repfun_formats(capsys, write_graph):
    path = write_graph(CONTACT)
    code, out, _ = run(capsys, "repfun", path, "--format", "json")
    assert code == 0
    f = ratfun_from_json(json.loads(out))
    code, text_out, _ = run(capsys, "repfun", path)
    assert parse_ratfun(text_out.strip()) == f
    code, latex_out, _ = run(capsys, "repfun", path, "--format", "latex")
    assert code == 0 and latex_out.startswith("\\frac{")


def test_repfun_vertex_flag(capsys, write_graph):
    path = write_graph(TWO_PATH)
    _, out1, _ = run(capsys, "repfun", path, "--vertex", "2")
    _, out2, _ = run(capsys, "repfun", path, "--vertex", "1")
    assert out1 == out2  # the two ends of the path are symmetric
    code, _, err = run(capsys, "repfun", path, "--vertex", "9")
    assert code == 2 and "out of range" in err


def test_repfun_sparse_labels(capsys, write_graph):
    code, out, err = run(capsys, "repfun", write_graph(SPARSE_LABELS), "--vertex", "2")
    assert (code, err) == (0, "")
    assert out == (
        "(z^1001*w^666 - z^1001 - z^1000 + z*w^667 - w^666 - z*w - w + 1)/"
        "(z^1000*w^666 + z^1001 + z^1000 + z*w^666 + w^667 + 2*w^666 + z*w - z + w - 2)\n"
    )


def test_reciprocal(capsys, write_graph):
    code, out, _ = run(capsys, "reciprocal", write_graph(SINGLE_Z))
    assert code == 0
    assert out == "(-z)/(1)\n"


def test_star_product_and_verify(capsys, write_graph):
    g = write_graph(SQUARE, "g.json")
    h = write_graph(TRIANGLE, "h.json")
    code, out, _ = run(capsys, "star", g, h)
    assert code == 0
    product = graph_from_json(json.loads(out))
    assert product.n == 6
    code, out, _ = run(capsys, "star", g, h, "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["identity"]["equal"] is True
    assert ratfun_from_json(payload["identity"]["lhs"]) == ratfun_from_json(
        payload["identity"]["rhs"]
    )


def test_zcomb_verify(capsys, write_graph):
    g = write_graph(SQUARE, "g.json")
    h = write_graph(TRIANGLE, "h.json")
    code, out, _ = run(capsys, "zcomb", g, h, "--verify")
    assert code == 0
    assert json.loads(out)["identity"]["equal"] is True


def test_retract(capsys, write_graph):
    path = write_graph(SIX_VERTEX)
    code, out, _ = run(
        capsys, "retract", path, "--cut", "4", "--subgraph", "5,6", "--verify"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["identity"]["equal"] is True
    reduced = graph_from_json(payload["graph"])
    assert reduced.n == 4
    assert reduced.color(4).kind == "general"


def test_retract_without_a_subgraph_keeps_the_graph(capsys, write_graph):
    # the default --subgraph is empty: nothing is retracted, the w vertex
    # keeps its color "w", and contact reads the output as it reads the input
    code, out, _ = run(capsys, "retract", write_graph(CONTACT), "--cut", "2")
    assert code == 0
    assert json.loads(out) == CONTACT
    code, out, _ = run(capsys, "contact", write_graph(json.loads(out), "retracted.json"))
    assert code == 0
    assert out == '{"order":4,"distance":2,"consistent":true}\n'


def test_contact_exact_output(capsys, write_graph):
    code, out, _ = run(capsys, "contact", write_graph(CONTACT))
    assert code == 0
    assert out == '{"order":4,"distance":2,"consistent":true}\n'


def test_walkgen(capsys, write_graph):
    path = write_graph(TWO_PATH)
    code, out, _ = run(
        capsys, "walkgen", path, "--from", "1", "--to", "2", "--order", "6"
    )
    assert code == 0
    assert out == "-1*z^-2 - 1*z^-4 - 1*z^-6 + O(z^-7)\n"
    code, out, _ = run(
        capsys,
        "walkgen",
        path,
        "--from",
        "1",
        "--to",
        "2",
        "--order",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["start_order"] == 2
    # the order cap: the 3-path's largest degree is 2, 2^2126 has 640 digits and 2^2127 641
    vertices = [{"id": v, "color": "z"} for v in (1, 2, 3)]
    path = write_graph({"vertices": vertices, "edges": [[1, 2], [2, 3]], "root": 1}, "p3.json")
    edge = write_graph(TWO_PATH, "edge.json")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run(capsys, "walkgen", path, "--from", "2", "--to", "2", "--order", "2127")
        assert code == 0 and out.endswith(" + O(z^-2128)\n")
        code, out, err = run(capsys, "walkgen", path, "--from", "2", "--to", "2", "--order", "2128")
        assert code == 2 and out == "" and "--order" in err
        # every walk count of the one-edge graph is 0 or 1, and its order is capped as for degree 2
        code, out, _ = run(capsys, "walkgen", edge, "--from", "1", "--to", "2", "--order", "2127")
        assert code == 0 and out.endswith(" + O(z^-2128)\n")
        code, out, err = run(capsys, "walkgen", edge, "--from", "1", "--to", "2", "--order", "2128")
        assert code == 2 and out == "" and err.startswith("error: --order: ")
    finally:
        sys.set_int_max_str_digits(limit)


def test_sticks_table(capsys):
    code, out, _ = run(capsys, "sticks", "--max", "2")
    assert code == 0
    assert out == "0,1\n1,-z\n2,z^2 - 1\n"


def test_verify_suites(capsys, write_graph):
    path = write_graph(CONTACT)
    code, out, _ = run(capsys, "verify", path, "--suite", "all", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "relabel": True,
        "component": True,
        "schur": True,
        "pass": True,
    }
    code, out2, _ = run(capsys, "verify", path, "--suite", "all", "--seed", "5")
    assert out == out2  # byte-identical reruns
    code, out3, _ = run(capsys, "verify", path, "--suite", "relabel")
    assert json.loads(out3) == {"relabel": True, "pass": True}


def test_sample(capsys, write_graph):
    path = write_graph(CONTACT)
    code, out, _ = run(capsys, "sample", path, "--count", "100", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["samples"] == 100 and payload["seed"] == 4
    code, out2, _ = run(capsys, "sample", path, "--count", "100", "--seed", "4")
    assert out == out2


def test_sample_overflow_is_an_error(capsys, monkeypatch, write_graph):
    def overflowed(r, zz, ww, lam=0j):
        return complex("nan+nanj")

    monkeypatch.setattr(numcheck, "eval_complex", overflowed)
    code, out, err = run(capsys, "sample", write_graph(CONTACT), "--count", "10")
    assert code == 1 and out == ""
    assert err.startswith("error: evaluation overflowed double precision")
    assert "Traceback" not in err


def test_malformed_inputs_exit_two(capsys, tmp_path, write_graph):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "repfun", str(bad))
    assert code == 2 and "invalid JSON" in err

    missing = tmp_path / "nope.json"
    code, _, err = run(capsys, "repfun", str(missing))
    assert code == 2

    frac = write_graph(
        {"vertices": [{"id": 1, "color": 0.5}], "edges": [], "root": 1},
        "frac.json",
    )
    code, _, err = run(capsys, "repfun", frac)
    assert code == 2 and "unsupported: fractional coloring" in err

    loop = write_graph(
        {"vertices": [{"id": 1, "color": "z"}], "edges": [[1, 1]], "root": 1},
        "loop.json",
    )
    code, _, err = run(capsys, "repfun", loop)
    assert code == 2 and "self-loop" in err

    for field, color in (("num", {"num": 5, "den": "1"}), ("den", {"num": "z", "den": 1})):
        bad_color = write_graph(
            {"vertices": [{"id": 1, "color": color}], "edges": [], "root": 1},
            f"bad-{field}.json",
        )
        code, out, err = run(capsys, "repfun", bad_color)
        assert code == 2 and out == ""
        assert err.startswith(f"error: vertices[0].color: '{field}' must be a string")

    huge_color = {"num": "z^1048576", "den": "1"}
    huge = write_graph(
        {"vertices": [{"id": 1, "color": huge_color}], "edges": [], "root": 1}, "huge.json"
    )
    code, out, err = run(capsys, "repfun", huge)
    assert code == 2 and out == ""
    assert err.startswith("error: vertices[0].color: ") and "exponent out of range" in err

    # a large offending value is echoed clipped, on one short line
    for name, color, head in (
        ("nested", [[[]]], "expected "),
        ("deep", json.loads("[" * 900 + "]" * 900), "expected "),
        ("long", "x" * 100_000, "expected "),
        ("long-num", {"num": ["z"] * 50_000, "den": "1"}, "'num' must be a string"),
    ):
        path = write_graph(
            {"vertices": [{"id": 1, "color": color}], "edges": [], "root": 1}, f"{name}.json"
        )
        code, out, err = run(capsys, "repfun", path)
        assert code == 2 and out == ""
        assert err.startswith(f"error: vertices[0].color: {head}")
        assert err.count("\n") == 1 and len(err) < 200
        if name == "nested":
            assert err.endswith(", got [[[]]]\n")
        else:
            assert err.endswith("...\n")

    # negative and empty counts, and a walk series whose counts are too long to print
    small = write_graph(TWO_PATH, "two-path.json")
    g0 = str(pathlib.Path(__file__).parents[1] / "bench" / "corpus" / "graphs" / "g0.json")
    for argv in (
        ("walkgen", small, "--from", "1", "--to", "2", "--order", "-1"),
        ("sticks", "--max", "-1"),
        ("sample", small, "--count", "0"),
        ("walkgen", g0, "--from", "1", "--to", "1", "--order", "20000"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {argv[-2]}: ") and err.count("\n") == 1

    # reading and decoding failures of the file itself
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"vertices": [{"id": 1, "color": "\xff"}], "edges": [], "root": 1}')
    long_id = tmp_path / "long-id.json"
    long_id.write_text('{"vertices": [{"id": ' + "1" * 5000 + ', "color": "z"}], "edges": [], "root": 1}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for path, reason in (
        (not_utf8, "codec can't decode"),
        (long_id, "Exceeds the limit (4300 digits)"),
        (deep, "maximum recursion depth"),
    ):
        code, out, err = run(capsys, "repfun", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: invalid JSON (") and reason in err
        assert err.count("\n") == 1


def test_computation_errors_exit_one(capsys, write_graph):
    singular = write_graph(
        {
            "vertices": [{"id": 1, "color": {"num": "0", "den": "1"}}],
            "edges": [],
            "root": 1,
        },
        "sing.json",
    )
    code, _, err = run(capsys, "repfun", singular)
    assert code == 1 and "singular" in err

    multi_w = write_graph(
        {
            "vertices": [{"id": 1, "color": "w"}, {"id": 2, "color": "w"}],
            "edges": [[1, 2]],
            "root": 1,
        },
        "ww.json",
    )
    code, _, err = run(capsys, "contact", multi_w)
    assert code == 1 and "exactly one w" in err

    zero_piece = write_graph(
        {
            "vertices": [
                {"id": 1, "color": "z"},
                {"id": 2, "color": "z"},
                {"id": 3, "color": {"num": "0", "den": "1"}},
            ],
            "edges": [[1, 2], [2, 3]],
            "root": 1,
        },
        "zero-piece.json",
    )
    code, _, err = run(capsys, "retract", zero_piece, "--cut", "2", "--subgraph", "3")
    assert code == 1 and "cut vertex 2" in err and "representing function is 0" in err

    big = {"num": "z^600000", "den": "1"}
    over_cap = write_graph(
        {
            "vertices": [{"id": 1, "color": big}, {"id": 2, "color": big}],
            "edges": [[1, 2]],
            "root": 1,
        },
        "over-cap.json",
    )
    code, out, err = run(capsys, "repfun", over_cap)
    assert code == 1 and out == ""
    assert err == "error: product exceeds the supported monomial degree\n"


def test_retract_vertex_ids_out_of_range_exit_two(capsys, write_graph):
    single = write_graph(SINGLE_Z, "single.json")
    for cut in ("5", "0", "-1"):
        code, out, err = run(capsys, "retract", single, "--cut", cut)
        assert code == 2 and out == ""
        assert err == f"error: --cut: {cut} out of range 1..1\n"
    six = write_graph(SIX_VERTEX, "six.json")
    for spec, bad in (("5,7", "7"), ("0", "0"), ("-2,5", "-2")):
        code, out, err = run(capsys, "retract", six, "--cut", "4", f"--subgraph={spec}")
        assert code == 2 and out == ""
        assert err == f"error: --subgraph: {bad} out of range 1..6\n"
    code, _, err = run(capsys, "retract", six, "--cut", "4", "--subgraph", "5,x")
    assert code == 2 and err.startswith("error: --subgraph: expected comma-separated ids")


def test_retract_structural_failures_exit_one(capsys, write_graph):
    six = write_graph(SIX_VERTEX)
    for cut, spec, reason in (
        ("5", "6", "crosses the retraction cut"),
        ("4", "1,2,3,5,6", "root must not be part of the deleted subgraph"),
        ("4", "4,5,6", "cut vertex must not be part of the deleted subgraph"),
    ):
        code, out, err = run(capsys, "retract", six, "--cut", cut, "--subgraph", spec)
        assert code == 1 and out == "" and reason in err


def test_import_does_not_load_numpy():
    # numpy is only a test dependency; the package and its CLI must not pull it in
    src = str(pathlib.Path(graphpick.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, graphpick, graphpick.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
