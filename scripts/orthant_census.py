#!/usr/bin/env python3
"""Census of the orthant complex: strata counts by dimension, and the
adjacency structure of the n = 4 link (15 quadrants over 10 rays,
3 quadrants per ray)."""

import argparse
from itertools import combinations

from phylo.treespace import (
    compatible,
    enumerate_binary_topologies,
    enumerate_strata,
    leaves,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    args = ap.parse_args()

    for n in range(2, args.max_n + 1):
        strata = enumerate_strata(n)
        row = ", ".join(f"dim {k}: {len(strata[k])}" for k in sorted(strata))
        print(f"n = {n}: {row}")

    print()
    tops = enumerate_binary_topologies(4)
    rays = sorted({c for o in tops for c in o.clusters}, key=leaves)
    print(f"n = 4 link: {len(tops)} quadrant edges over {len(rays)} rays")
    for ray in rays:
        degree = sum(ray in o.clusters for o in tops)
        print(f"  ray {set(leaves(ray))}: meets {degree} quadrants")
    edges = sum(compatible(a, b) for a, b in combinations(rays, 2))
    print(f"  compatible ray pairs (= quadrants): {edges}")


if __name__ == "__main__":
    main()
