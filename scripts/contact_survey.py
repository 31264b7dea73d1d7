#!/usr/bin/env python3
"""Survey contact order against graph distance on random single-w graphs.

Exits 1 when any graph's contact order is not twice its distance.
"""

import argparse
import random
import sys
from collections import Counter

from graphpick.gen import random_single_w_graph
from graphpick.laurent import verify_contact_theorem


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--max-vertices", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    by_distance = Counter()
    mismatches = 0
    for _ in range(args.count):
        g = random_single_w_graph(rng, args.max_vertices)
        report = verify_contact_theorem(g)
        by_distance[report.distance] += 1
        if not report.consistent:
            mismatches += 1
            print(
                f"MISMATCH n={g.n} root={g.root} "
                f"order={report.order} distance={report.distance}"
            )

    print(f"{args.count} graphs, max {args.max_vertices} vertices, seed {args.seed}")
    for d in sorted(by_distance):
        print(f"  distance {d}: {by_distance[d]} graphs, contact order {2 * d}")
    print(f"mismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
