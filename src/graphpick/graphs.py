"""Vertex-colored rooted simple graphs and the star/comb/retract constructions.

Vertices are numbered 1..n.  A color is ``z``, ``w`` or a general rational
loop label r; the colored adjacency matrix carries the usual 0/1 entries
off the diagonal and minus the label on the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .linalg import SymMatrix, _in_range, inverse_entry
from .ratfun import W, Z, RatFun, clipped_repr, ratfun_from_json

_RF_ONE = RatFun(1)
# one shared -z and -w, so a matrix holds at most three distinct z/w entries
_DIAGONALS = {"z": -Z, "w": -W}


class GraphFormatError(ValueError):
    """Malformed graph input (JSON shape, ids, colors, edges)."""


@dataclass(frozen=True)
class Color:
    """Vertex color: the diagonal of the adjacency matrix is minus the label."""

    kind: str
    weight: RatFun | None = None

    def __post_init__(self):
        if self.kind not in ("z", "w", "general"):
            raise ValueError(f"unknown color kind {self.kind!r}")
        if (self.kind == "general") != (self.weight is not None):
            raise ValueError("general colors carry a weight; z/w colors do not")

    def diagonal(self) -> RatFun:
        return _DIAGONALS.get(self.kind) or -self.weight


Z_COLOR = Color("z")
W_COLOR = Color("w")


def general_color(weight: RatFun) -> Color:
    return Color("general", weight)


@dataclass(frozen=True)
class ColoredGraph:
    """Rooted simple undirected graph with per-vertex colors.

    ``edges`` holds pairs (i, j) with i < j; vertices are 1..len(colors).
    """

    colors: tuple[Color, ...]
    edges: frozenset[tuple[int, int]]
    root: int = 1

    def __post_init__(self):
        n = len(self.colors)
        if n == 0:
            raise ValueError("graph needs at least one vertex")
        if not _in_range(n, self.root):
            raise ValueError(f"root {self.root} out of range 1..{n}")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i < j <= n):
                raise ValueError(f"edge ({i}, {j}) out of range or unordered")

    @classmethod
    def build(
        cls,
        colors: Sequence[Color | str],
        edges: Iterable[tuple[int, int]] = (),
        root: int = 1,
    ) -> ColoredGraph:
        cs = tuple(Color(c) if isinstance(c, str) else c for c in colors)
        es = frozenset(
            (min(i, j), max(i, j)) for i, j in edges
        )
        return cls(cs, es, root)

    @property
    def n(self) -> int:
        return len(self.colors)

    def color(self, v: int) -> Color:
        return self.colors[v - 1]

    def is_zw_colored(self) -> bool:
        return all(c.kind in ("z", "w") for c in self.colors)


def colored_adjacency(g: ColoredGraph) -> SymMatrix:
    """Adjacency matrix with the color diagonal (-z, -w or -label)."""
    entries = {(v, v): g.color(v).diagonal() for v in range(1, g.n + 1)}
    for i, j in g.edges:
        entries[i, j] = _RF_ONE
    return SymMatrix(g.n, entries)


def _carry_edges(edges: Iterable[tuple[int, int]], index: dict[int, int]) -> frozenset:
    """The edges with both ends in ``index``, carried along it as ordered pairs."""
    return frozenset(
        (min(index[i], index[j]), max(index[i], index[j]))
        for i, j in edges
        if i in index and j in index
    )


def _renumber(g: ColoredGraph, order: Sequence[int], root: int) -> ColoredGraph:
    """Subgraph induced on ``order``, with vertex ``order[i]`` renumbered to ``i + 1``."""
    index = {v: i for i, v in enumerate(order, 1)}
    return ColoredGraph(
        tuple(g.color(v) for v in order), _carry_edges(g.edges, index), index[root]
    )


def _attach(g: ColoredGraph, h: ColoredGraph, sites: Iterable[int]) -> ColoredGraph:
    """Glue a fresh copy of h at each site, identifying h's root with the site.

    g keeps its numbering and root; the other vertices of each copy follow
    in ascending order, and the copies come in site order.
    """
    rest = [v for v in range(1, h.n + 1) if v != h.root]
    colors = list(g.colors)
    edges = set(g.edges)
    for site in sites:
        index = {h.root: site}
        for v in rest:
            colors.append(h.color(v))
            index[v] = len(colors)
        edges |= _carry_edges(h.edges, index)
    return ColoredGraph(tuple(colors), frozenset(edges), g.root)


def relabel(g: ColoredGraph, perm: Sequence[int]) -> ColoredGraph:
    """Transport colors, edges and root along a permutation.

    ``perm[i-1]`` is the new index of vertex i; must be a bijection of 1..n.
    """
    n = g.n
    if len(perm) != n or sorted(perm) != list(range(1, n + 1)):
        raise ValueError("relabeling map is not a bijection of 1..n")
    return _renumber(g, sorted(range(1, n + 1), key=lambda v: perm[v - 1]), g.root)


def star_product(g: ColoredGraph, h: ColoredGraph) -> ColoredGraph:
    """Glue h onto g at their roots.

    g keeps its numbering; h's non-root vertices follow in ascending order.
    The shared root keeps g's numbering and color (the root colors must
    agree, otherwise the gluing is meaningless).
    """
    if g.color(g.root) != h.color(h.root):
        raise ValueError("incompatible roots")
    return _attach(g, h, [g.root])


def comb_product_z(g: ColoredGraph, h: ColoredGraph) -> ColoredGraph:
    """Attach a fresh copy of h at every z-colored vertex of g.

    h must be rooted at a z-colored vertex; each copy is glued by
    identifying its root with the attachment vertex.  Copies are numbered
    after g's vertices, in ascending order of their attachment vertex.
    """
    if h.color(h.root).kind != "z":
        raise ValueError("incompatible comb root")
    return _attach(g, h, [v for v in range(1, g.n + 1) if g.color(v).kind == "z"])


def retract(
    g: ColoredGraph, cut: int, k_subgraph: Iterable[int]
) -> ColoredGraph:
    """Collapse a pendant subgraph hanging off ``cut`` into a general color.

    ``k_subgraph`` lists the vertices to delete; together with ``cut``
    they induce a piece attached to the rest of the graph only at ``cut``.
    The cut vertex is recolored with minus the reciprocal of the pendant
    piece's representing function at the cut, which leaves the root
    representing function unchanged.
    """
    n = g.n
    ks = set(k_subgraph)
    if not _in_range(n, cut):
        raise ValueError(f"cut vertex {cut} out of range")
    if cut in ks:
        raise ValueError("cut vertex must not be part of the deleted subgraph")
    if g.root in ks:
        raise ValueError("root must not be part of the deleted subgraph")
    for v in ks:
        if not _in_range(n, v):
            raise ValueError(f"subgraph vertex {v} out of range")
    for i, j in g.edges:
        if (i in ks) != (j in ks) and cut not in (i, j):
            raise ValueError(
                f"edge ({i}, {j}) crosses the retraction cut away from vertex {cut}"
            )

    # pendant piece rooted at the cut, with the cut's original color
    piece = _renumber(g, [cut] + sorted(ks), cut)
    f_piece = inverse_entry(colored_adjacency(piece), 1)
    if f_piece.is_zero:
        raise ValueError(
            f"cannot retract at cut vertex {cut}: the piece's representing function is 0"
        )
    colors = list(g.colors)
    colors[cut - 1] = general_color(-f_piece.reciprocal())
    recolored = ColoredGraph(tuple(colors), g.edges, g.root)
    return _renumber(recolored, [v for v in range(1, n + 1) if v not in ks], g.root)


def distance(g: ColoredGraph, i: int, j: int) -> int | float:
    """Shortest-path edge count between vertices; inf when disconnected."""
    if not _in_range(g.n, i, j):
        raise ValueError("vertex out of range")
    adj: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = {i: 0}
    queue = [i]
    for v in queue:
        for u in adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist.get(j, float("inf"))


# ----------------------------------------------------------------------
# JSON interface


def _color_from_json(value, where: str) -> Color:
    if value == "z":
        return Z_COLOR
    if value == "w":
        return W_COLOR
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        raise GraphFormatError(f"{where}: unsupported: fractional coloring")
    if isinstance(value, dict):
        try:
            return general_color(ratfun_from_json(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise GraphFormatError(f"{where}: {exc}") from exc
    raise GraphFormatError(
        f"{where}: expected \"z\", \"w\" or a num/den object, got {clipped_repr(value)}"
    )


def graph_from_json(obj: dict) -> ColoredGraph:
    """Parse the graph interchange object; errors name the offending field."""
    if not isinstance(obj, dict):
        raise GraphFormatError("graph: expected a JSON object")
    verts = obj.get("vertices")
    if not isinstance(verts, list) or not verts:
        raise GraphFormatError("vertices: expected a non-empty list")
    n = len(verts)
    colors: list[Color | None] = [None] * n
    for idx, entry in enumerate(verts):
        where = f"vertices[{idx}]"
        if not isinstance(entry, dict):
            raise GraphFormatError(f"{where}: expected an object")
        vid = entry.get("id")
        if not isinstance(vid, int) or isinstance(vid, bool) or not (1 <= vid <= n):
            raise GraphFormatError(f"{where}.id: expected an integer in 1..{n}")
        if colors[vid - 1] is not None:
            raise GraphFormatError(f"{where}.id: duplicate id {vid}")
        if "color" not in entry:
            raise GraphFormatError(f"{where}.color: missing")
        colors[vid - 1] = _color_from_json(entry["color"], f"{where}.color")
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise GraphFormatError("edges: expected a list of pairs")
    seen = set()
    pairs = []
    for idx, e in enumerate(edges):
        where = f"edges[{idx}]"
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
        ):
            raise GraphFormatError(f"{where}: expected a pair of vertex ids")
        a, b = e
        if not (1 <= a <= n and 1 <= b <= n):
            raise GraphFormatError(f"{where}: vertex id out of range 1..{n}")
        if a == b:
            raise GraphFormatError(f"{where}: self-loop at vertex {a}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise GraphFormatError(f"{where}: duplicate edge {list(key)}")
        seen.add(key)
        pairs.append(key)
    root = obj.get("root")
    if not isinstance(root, int) or isinstance(root, bool) or not (1 <= root <= n):
        raise GraphFormatError(f"root: expected an integer in 1..{n}")
    return ColoredGraph(tuple(colors), frozenset(pairs), root)


def graph_to_json(g: ColoredGraph) -> dict:
    vertices = []
    for v in range(1, g.n + 1):
        c = g.color(v)
        value = c.kind if c.kind in ("z", "w") else c.weight.to_json()
        vertices.append({"id": v, "color": value})
    return {
        "vertices": vertices,
        "edges": [[i, j] for i, j in sorted(g.edges)],
        "root": g.root,
    }
