"""Command-line interface.

Exit codes: 0 on success, 1 on a computation error (singular matrix,
unsupported structure, failed verification), 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from collections import Counter

from .gen import disjoint_union, random_colored_graph, random_permutation
from .graphs import (
    ColoredGraph,
    GraphFormatError,
    colored_adjacency,
    graph_from_json,
    graph_to_json,
    relabel,
    retract,
    comb_product_z,
    star_product,
)
from .laurent import verify_contact_theorem, walk_generating_series
from .linalg import inverse_entry, schur_reduce
from .nevanlinna import (
    reciprocal_transform,
    representing_function,
    verify_comb_identity,
    verify_retract_identity,
    verify_star_identity,
)
from .numcheck import pick_property_sample
from .sticks import stick_determinants

_VERIFY_TRIALS = 5


def _schur_trial(g: ColoredGraph, rng: random.Random):
    keep = sorted({g.root} | {v for v in range(1, g.n + 1) if rng.random() < 0.5})
    return inverse_entry(schur_reduce(colored_adjacency(g), keep), keep.index(g.root) + 1)


# Each suite recomputes the root representing function by another route from
# one random draw; ``verify`` compares every trial with the direct result.
_VERIFY_SUITES = {
    "relabel": lambda g, rng: representing_function(relabel(g, random_permutation(rng, g.n))),
    "component": lambda g, rng: representing_function(
        disjoint_union(g, random_colored_graph(rng, 4))
    ),
    "schur": _schur_trial,
}


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _load_graph(path: str) -> ColoredGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise GraphFormatError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSON syntax, digits or nesting
        raise GraphFormatError(f"{path}: invalid JSON ({exc})") from exc
    return graph_from_json(data)


def _format_ratfun(f, fmt: str) -> None:
    if fmt == "json":
        _emit(f.to_json())
    elif fmt == "latex":
        print(f.latex())
    else:
        print(f"({f.num})/({f.den})")


def _vertex_arg(flag: str, v: int, g: ColoredGraph) -> int:
    if not (1 <= v <= g.n):
        raise GraphFormatError(f"{flag}: {v} out of range 1..{g.n}")
    return v


def _parse_subgraph(spec: str, g: ColoredGraph) -> frozenset[int]:
    spec = spec.strip()
    if not spec:
        return frozenset()
    try:
        ids = frozenset(int(part) for part in spec.split(","))
    except ValueError as exc:
        raise GraphFormatError(f"--subgraph: expected comma-separated ids ({exc})")
    for v in sorted(ids):
        _vertex_arg("--subgraph", v, g)
    return ids


def _cmd_repfun(args) -> int:
    g = _load_graph(args.graph)
    vertex = args.vertex if args.vertex is None else _vertex_arg("--vertex", args.vertex, g)
    f = representing_function(g, vertex)
    _format_ratfun(f, args.format)
    return 0


def _cmd_reciprocal(args) -> int:
    g = _load_graph(args.graph)
    _format_ratfun(reciprocal_transform(g), "text")
    return 0


def _emit_product(product: ColoredGraph, verify: bool, check) -> int:
    """Print the product graph; with ``verify``, also the identity ``check()`` reports."""
    if not verify:
        _emit(graph_to_json(product))
        return 0
    report = check()
    _emit({"graph": graph_to_json(product), "identity": report.to_json()})
    return 0 if report.equal else 1


def _cmd_star(args) -> int:
    g, h = _load_graph(args.graph), _load_graph(args.other)
    return _emit_product(star_product(g, h), args.verify, lambda: verify_star_identity(g, h))


def _cmd_zcomb(args) -> int:
    g, h = _load_graph(args.graph), _load_graph(args.other)
    return _emit_product(comb_product_z(g, h), args.verify, lambda: verify_comb_identity(g, h))


def _cmd_retract(args) -> int:
    g = _load_graph(args.graph)
    ksub = _parse_subgraph(args.subgraph, g)
    cut = _vertex_arg("--cut", args.cut, g)
    return _emit_product(
        retract(g, cut, ksub), args.verify, lambda: verify_retract_identity(g, cut, ksub)
    )


def _cmd_contact(args) -> int:
    g = _load_graph(args.graph)
    report = verify_contact_theorem(g)
    _emit(report.to_json())
    return 0 if report.consistent else 1


def _cmd_walkgen(args) -> int:
    g = _load_graph(args.graph)
    _vertex_arg("--from", args.src, g)
    _vertex_arg("--to", args.dst, g)
    if args.order < 0:
        raise GraphFormatError("--order: must be nonnegative")
    # a length-k walk count is at most top^k, top the largest vertex degree or 2
    top = max([2, *Counter(v for edge in g.edges for v in edge).values()])
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and (args.order - 1) * math.log10(top) >= limit:
        raise GraphFormatError(f"--order: count bound {top}^{args.order - 1} passes {limit} digits")
    series = walk_generating_series(g, args.src, args.dst, args.order)
    if args.format == "json":
        _emit(series.to_json())
    else:
        print(series)
    return 0


def _cmd_sticks(args) -> int:
    if args.max < 0:
        raise GraphFormatError("--max: must be nonnegative")
    family = stick_determinants(args.max)
    for n, det in enumerate(family.dets):
        print(f"{n},{det}")
    return 0


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    rng = random.Random(args.seed)
    f = representing_function(g)
    names = _VERIFY_SUITES if args.suite == "all" else (args.suite,)
    results = {
        name: all(_VERIFY_SUITES[name](g, rng) == f for _ in range(_VERIFY_TRIALS))
        for name in names
    }
    results["pass"] = all(results.values())
    _emit(results)
    return 0 if results["pass"] else 1


def _cmd_sample(args) -> int:
    g = _load_graph(args.graph)
    if args.count < 1:
        raise GraphFormatError("--count: must be positive")
    report = pick_property_sample(g, args.count, args.seed)
    _emit(report.to_json())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphpick",
        description="Exact representing functions of vertex-colored graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("repfun", help="representing function of a graph")
    p.add_argument("graph")
    p.add_argument("--vertex", type=int, default=None)
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p.set_defaults(handler=_cmd_repfun)

    p = sub.add_parser("reciprocal", help="reciprocal of the representing function")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_reciprocal)

    p = sub.add_parser("star", help="star product of two rooted graphs")
    p.add_argument("graph")
    p.add_argument("other")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_star)

    p = sub.add_parser("zcomb", help="z-comb product of two graphs")
    p.add_argument("graph")
    p.add_argument("other")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_zcomb)

    p = sub.add_parser("retract", help="collapse a pendant subgraph")
    p.add_argument("graph")
    p.add_argument("--cut", type=int, required=True)
    p.add_argument("--subgraph", default="")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_retract)

    p = sub.add_parser("contact", help="contact order versus graph distance")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_contact)

    p = sub.add_parser("walkgen", help="walk generating series between vertices")
    p.add_argument("graph")
    p.add_argument("--from", dest="src", type=int, required=True)
    p.add_argument("--to", dest="dst", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_walkgen)

    p = sub.add_parser("sticks", help="path-graph determinant table")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(handler=_cmd_sticks)

    p = sub.add_parser("verify", help="invariance suites on a graph")
    p.add_argument("graph")
    p.add_argument("--suite", choices=("all", *_VERIFY_SUITES), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sample", help="halfplane/boundary sampling report")
    p.add_argument("graph")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
