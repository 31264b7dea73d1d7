"""Every subcommand that reads a graph rejects a corrupted graph file with exit 2.

Each example takes a valid three-vertex graph, corrupts exactly one field
(or replaces the whole document) with a value that is invalid there, and
runs one subcommand in-process on it.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from graphpick.cli import main

VALID = {
    "vertices": [
        {"id": 1, "color": "z"},
        {"id": 2, "color": "w"},
        {"id": 3, "color": {"num": "z + 1", "den": "2"}},
    ],
    "edges": [[1, 2], [2, 3]],
    "root": 1,
}
N = len(VALID["vertices"])
MISSING = object()

# argv templates; "BAD" is the corrupted file and "OK" a copy of VALID
COMMANDS = [
    ["repfun", "BAD"],
    ["reciprocal", "BAD"],
    ["star", "BAD", "OK"],
    ["star", "OK", "BAD"],
    ["zcomb", "BAD", "OK"],
    ["zcomb", "OK", "BAD"],
    ["retract", "BAD", "--cut", "1"],
    ["contact", "BAD"],
    ["walkgen", "BAD", "--from", "1", "--to", "1", "--order", "2"],
    ["verify", "BAD"],
    ["sample", "BAD", "--count", "3"],
]

# values that are not an integer, a list or a dict
SCALAR_JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4))
JUNK = st.one_of(
    SCALAR_JUNK,
    st.lists(st.integers(), min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
OUT_OF_RANGE = st.one_of(st.integers(max_value=0), st.integers(min_value=N + 1))
BAD_ID = st.one_of(JUNK, OUT_OF_RANGE)
BAD_POLY = st.one_of(
    st.sampled_from(["", " ", "z +", "^2", "z^", "z^-1", "z^1048576", "q", "1/2", "(z)", "2z"]),
    st.text(alphabet="zw+-*^0123456789 ", max_size=6).map(lambda s: s + "$"),
)
NOT_STRING = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.lists(st.just("z")))
BAD_COLOR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.lists(st.just("z"), max_size=2),
    st.text(max_size=4).filter(lambda s: s not in ("z", "w")),
    st.dictionaries(st.sampled_from(["num", "den", "lam"]), st.just("z"), max_size=1),
)
BAD_EDGE = st.one_of(
    SCALAR_JUNK,
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.lists(st.integers(1, N), max_size=1),
    st.lists(st.integers(1, N), min_size=3, max_size=4),
    st.tuples(st.integers(1, N), st.one_of(SCALAR_JUNK, OUT_OF_RANGE)).map(list),
    st.integers(1, N).map(lambda v: [v, v]),
)


def _field(path, values):
    return st.tuples(st.just(path), values)


def _fields(paths, values):
    return st.tuples(st.sampled_from(paths), values)


def _duplicate_id(k):
    return st.sampled_from([v for v in range(1, N + 1) if v != k + 1])


VERTEX = range(N)
CORRUPTIONS = st.one_of(
    _field((), st.one_of(SCALAR_JUNK, st.lists(st.integers(), max_size=2))),
    _field(("vertices",), st.one_of(st.just(MISSING), st.just([]), SCALAR_JUNK, st.integers())),
    _fields([("vertices", k) for k in VERTEX], st.one_of(JUNK, st.just({"color": "z"}))),
    _fields([("vertices", k, "id") for k in VERTEX], st.one_of(st.just(MISSING), BAD_ID)),
    st.sampled_from(VERTEX).flatmap(
        lambda k: _field(("vertices", k, "id"), _duplicate_id(k))
    ),
    _fields([("vertices", k, "color") for k in VERTEX], st.one_of(st.just(MISSING), BAD_COLOR)),
    _field(("vertices", 2, "color", "num"), st.one_of(st.just(MISSING), BAD_POLY, NOT_STRING)),
    _field(
        ("vertices", 2, "color", "den"),
        st.one_of(st.just(MISSING), BAD_POLY, NOT_STRING, st.sampled_from(["0", "z - z"])),
    ),
    _field(("edges",), st.one_of(SCALAR_JUNK, st.integers(), st.just({"a": 1}))),
    _fields([("edges", 0), ("edges", 1)], BAD_EDGE),
    _field(("edges", 0), st.just([3, 2])),  # edges[1] reversed
    _field(("edges", 1), st.just([2, 1])),  # edges[0] reversed
    _field(("root",), st.one_of(st.just(MISSING), BAD_ID)),
)


def _corrupt(path, value):
    if not path:
        return value
    obj = copy.deepcopy(VALID)
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    if value is MISSING:
        del target[last]
    else:
        target[last] = value
    return obj


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    ok = root / "ok.json"
    ok.write_text(json.dumps(VALID))
    return root / "bad.json", ok


def test_valid_graph_loads_everywhere(files):
    _, ok = files
    for template in COMMANDS:
        argv = [str(ok) if a in ("BAD", "OK") else a for a in template]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) != 2, argv


@settings(max_examples=400, derandomize=True, deadline=None)
@given(command=st.sampled_from(COMMANDS), corruption=CORRUPTIONS)
def test_one_corrupted_field_exits_two(files, command, corruption):
    bad, ok = files
    bad.write_text(json.dumps(_corrupt(*corruption)))
    argv = [{"BAD": str(bad), "OK": str(ok)}.get(a, a) for a in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code == 2, (argv, corruption, message)
    assert out.getvalue() == ""
    assert message.startswith("error: ") and message.count("\n") == 1
    assert "Traceback" not in message
