"""Write the committed cli-small corpus: graph files plus the job catalog.

    python3 bench/make_corpus.py

Graphs come from ``graphpick.gen`` with a fixed seed, so rerunning the
script rewrites the same files.  Each catalog entry holds a CLI argument
list, the exit status the README promises for it, and the SHA-256 of the
stdout the program printed when the catalog was recorded.  Malformed
inputs are recorded with the promised exit status 2 whatever the program
does today, so a defect shows as a failure until it is fixed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GRAPH_DIR = BENCH_DIR / "corpus" / "graphs"
CORPUS_SEED = 2024

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from graphpick import gen  # noqa: E402
from graphpick.graphs import (  # noqa: E402
    Z_COLOR,
    ColoredGraph,
    general_color,
    graph_to_json,
)
from graphpick.ratfun import RatFun, parse_ratfun  # noqa: E402

# Malformed inputs and the field each one breaks.  ``bad-num-int`` is a
# known defect: a non-string ``num`` raises TypeError (exit 1 with a
# traceback) where the README promises exit 2.
MALFORMED = {
    "bad-num-int": {
        "vertices": [{"id": 1, "color": {"num": 5, "den": "1"}}],
        "edges": [],
        "root": 1,
    },
    "self-loop": {
        "vertices": [{"id": 1, "color": "z"}, {"id": 2, "color": "w"}],
        "edges": [[1, 2], [2, 2]],
        "root": 1,
    },
    "numeric-color": {
        "vertices": [{"id": 1, "color": 0.5}],
        "edges": [],
        "root": 1,
    },
    "duplicate-id": {
        "vertices": [{"id": 1, "color": "z"}, {"id": 1, "color": "w"}],
        "edges": [],
        "root": 1,
    },
}
GENERAL_LABELS = (
    "(-z^2*w + 2*z + w + 2)/(z*w - 1)",
    "(z + 1)/(w^2 + 3)",
    "2*z - w",
    "(w)/(z^2 + 1)",
    "z*w + 3",
    "(z - w)/(2)",
    "(3)/(z + w)",
    "-z^2 + w",
)
VARIANTS = 8  # catalog entries per subcommand


def write(name: str, obj) -> str:
    path = GRAPH_DIR / f"{name}.json"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return path.relative_to(ROOT).as_posix()


def _sized(draw, size_of, want):
    """Redraw until the instance has the wanted size, so variants cost alike."""
    while True:
        instance = draw()
        if size_of(instance) == want:
            return instance


def build() -> list[dict]:
    rng = random.Random(CORPUS_SEED)
    GRAPH_DIR.mkdir(parents=True, exist_ok=True)
    jobs: list[dict] = []

    def add(name: str, argv: list[str], exit_code: int = 0) -> None:
        jobs.append({"name": name, "argv": argv, "exit": exit_code})

    def dense(n: int):
        return gen.random_colored_graph(rng, n, min_vertices=n, edge_prob=0.3, connected=True)

    # reciprocal runs on general-color graphs, so every pass parses labels
    formats = ("text", "json", "latex")
    for i in range(VARIANTS):
        g = dense(7)
        path = write(f"g{i}", graph_to_json(g))
        if i < VARIANTS - 1:
            add(f"repfun-g{i}", ["repfun", path, "--format", formats[i % 3]])
        add(
            f"walkgen-g{i}",
            ["walkgen", path, "--from", str(g.root), "--to", str(rng.randint(1, g.n)),
             "--order", "10", "--format", formats[i % 2]],
        )
        add(f"sample-g{i}", ["sample", path, "--count", "300", "--seed", str(i)])
        g = dense(6)
        colors = list(g.colors)
        colors[rng.choice([v for v in range(g.n) if v != g.root - 1])] = general_color(
            parse_ratfun(GENERAL_LABELS[i])
        )
        path = write(f"general{i}", graph_to_json(ColoredGraph(tuple(colors), g.edges, g.root)))
        add(f"reciprocal-general{i}", ["reciprocal", path])
    zero = general_color(RatFun(0))
    zl = ColoredGraph(
        (Z_COLOR,) + (zero,) * 4, frozenset({(1, 2), (1, 4), (2, 3), (3, 4), (4, 5)}), 1
    )
    add("repfun-zero-label", ["repfun", write("zero-label", graph_to_json(zl))])
    for i in range(VARIANTS):
        g = _sized(lambda: gen.random_single_w_graph(rng, 7), lambda g: g.n, 7)
        add(f"contact-w{i}", ["contact", write(f"w{i}", graph_to_json(g))])
        a, b = _sized(lambda: gen.random_star_pair(rng, 5), lambda p: (p[0].n, p[1].n), (5, 5))
        add(f"star-{i}", ["star", write(f"star{i}a", graph_to_json(a)),
                          write(f"star{i}b", graph_to_json(b)), "--verify"])
        a, b = _sized(lambda: gen.random_comb_pair(rng), lambda p: (p[0].n, p[1].n), (5, 3))
        add(f"zcomb-{i}", ["zcomb", write(f"comb{i}a", graph_to_json(a)),
                           write(f"comb{i}b", graph_to_json(b)), "--verify"])
        g, cut, ks = _sized(
            lambda: gen.random_retract_instance(rng), lambda r: (r[0].n, len(r[2])), (7, 2)
        )
        add(f"retract-{i}", ["retract", write(f"retract{i}", graph_to_json(g)),
                             "--cut", str(cut), "--subgraph", ",".join(map(str, sorted(ks))),
                             "--verify"])
        add(f"sticks-{6 + i}", ["sticks", "--max", str(6 + i)])
        path = write(f"v{i}", graph_to_json(dense(5)))
        add(f"verify-v{i}", ["verify", path, "--suite", "all", "--seed", str(i)])
    for name, obj in MALFORMED.items():
        add(f"malformed-{name}", ["repfun", write(f"malformed-{name}", obj)], 2)
    invalid = GRAPH_DIR / "malformed-invalid-json.json"
    invalid.write_text('{"vertices": [\n', encoding="utf-8")
    add("malformed-invalid-json", ["contact", invalid.relative_to(ROOT).as_posix()], 2)
    return jobs


def main() -> None:
    jobs = build()
    env = workloads.cli_env(ROOT)
    for job in jobs:
        code, out, err = workloads.run_cli(job["argv"], ROOT, env)
        if job["exit"] == 0 and code != 0:
            raise SystemExit(f"{job['name']}: exit {code}: {err.decode()[-400:]}")
        job["stdout_sha256"] = hashlib.sha256(out if job["exit"] == 0 else b"").hexdigest()
        print(f"{job['name']:28s} exit {code} (promised {job['exit']})")
    catalog = BENCH_DIR / "corpus" / "jobs.json"
    catalog.write_text(json.dumps(jobs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
