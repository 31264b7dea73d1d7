"""Seeded random instances for the verification suites."""

from __future__ import annotations

import random

from .graphs import Color, ColoredGraph, W_COLOR, Z_COLOR


def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def _random_edges(
    rng: random.Random, n: int, edge_prob: float, connected: bool
) -> frozenset[tuple[int, int]]:
    """A random spanning tree when ``connected``, then each other pair with ``edge_prob``."""
    edges = set()
    # parent[v] is v's tree parent, 0 outside the tree
    parent = [0] * (n + 1)
    if connected:
        randint = rng.randint
        for v in range(2, n + 1):
            u = parent[v] = randint(1, v - 1)
            edges.add((u, v))
    draw = rng.random
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if parent[j] != i and draw() < edge_prob:
                edges.add((i, j))
    return frozenset(edges)


def random_colored_graph(
    rng: random.Random,
    max_vertices: int,
    *,
    min_vertices: int = 1,
    colors: tuple[str, ...] = ("z", "w"),
    edge_prob: float = 0.4,
    connected: bool = False,
) -> ColoredGraph:
    n = rng.randint(min_vertices, max_vertices)
    palette = tuple(Z_COLOR if c == "z" else W_COLOR if c == "w" else Color(c) for c in colors)
    choice = rng.choice
    # a tuple of a list's exact size: one grown from a generator is resized
    # as it fills, and the discarded draws then pile up in CPython's tuple
    # free lists (about 1 MB over the benchmark's rejection sampling)
    cs = tuple([choice(palette) for _ in range(n)])
    edges = _random_edges(rng, n, edge_prob, connected)
    return ColoredGraph(cs, edges, rng.randint(1, n))


def random_single_w_graph(rng: random.Random, max_vertices: int) -> ColoredGraph:
    """Connected graph with exactly one w vertex and a random root."""
    n = rng.randint(1, max_vertices)
    wv = rng.randint(1, n)
    cs = tuple([W_COLOR if v == wv else Z_COLOR for v in range(1, n + 1)])
    edges = _random_edges(rng, n, 0.3, True)
    return ColoredGraph(cs, edges, rng.randint(1, n))


def random_star_pair(
    rng: random.Random, max_vertices: int
) -> tuple[ColoredGraph, ColoredGraph]:
    """Two graphs whose roots share a color."""
    g = random_colored_graph(rng, max_vertices)
    h = random_colored_graph(rng, max_vertices)
    shared = g.color(g.root)
    colors = list(h.colors)
    colors[h.root - 1] = shared
    return g, ColoredGraph(tuple(colors), h.edges, h.root)


def random_comb_pair(
    rng: random.Random,
    max_g: int = 5,
    max_h: int = 4,
    *,
    all_z: bool = False,
) -> tuple[ColoredGraph, ColoredGraph]:
    """A base graph and a z-rooted attachment."""
    palette = ("z",) if all_z else ("z", "w")
    g = random_colored_graph(rng, max_g, colors=palette)
    h = random_colored_graph(rng, max_h, colors=palette)
    colors = list(h.colors)
    colors[h.root - 1] = Z_COLOR
    return g, ColoredGraph(tuple(colors), h.edges, h.root)


def random_retract_instance(
    rng: random.Random, max_base: int = 5, max_pendant: int = 3
) -> tuple[ColoredGraph, int, frozenset[int]]:
    """A graph with a pendant piece hanging off a single cut vertex."""
    base = random_colored_graph(rng, max_base, min_vertices=1)
    cut = rng.randint(1, base.n)
    k = rng.randint(1, max_pendant)
    colors = list(base.colors) + [
        Color(rng.choice(("z", "w"))) for _ in range(k)
    ]
    pendant = list(range(base.n + 1, base.n + k + 1))
    edges = set(base.edges)
    for v in pendant:
        edges.add((cut, v))
    for a_idx in range(len(pendant)):
        for b_idx in range(a_idx + 1, len(pendant)):
            if rng.random() < 0.5:
                edges.add((pendant[a_idx], pendant[b_idx]))
    graph = ColoredGraph(tuple(colors), frozenset(edges), base.root)
    return graph, cut, frozenset(pendant)


def disjoint_union(g: ColoredGraph, h: ColoredGraph) -> ColoredGraph:
    """g and h side by side, keeping g's root."""
    colors = g.colors + h.colors
    edges = set(g.edges)
    for i, j in h.edges:
        edges.add((i + g.n, j + g.n))
    return ColoredGraph(colors, frozenset(edges), g.root)
