#!/usr/bin/env python3
"""Shrink one internal edge of a 4-leaf tree to zero and watch the tree
approach the boundary of its quadrant: distance to the limit tree, and
membership in basic neighborhoods of the limit at various resolution
radii."""

import argparse

from phylo.treespace import (
    BasicOpenSet,
    bhv_distance,
    metric_tree,
    neighborhood_contains,
    tree_from_clusters,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radii", type=float, nargs="+",
                    default=[0.4, 0.2, 0.05])
    args = ap.parse_args()

    cherry12 = 0b0011  # leaves 1 and 2: leaf i is bit i - 1
    cherry34 = 0b1100
    limit = metric_tree(4, {cherry12: 1.0})
    sets = {
        r: BasicOpenSet(tree_from_clusters(4, [cherry12]),
                        internal_windows=((0.5, 1.5),),
                        external_windows=tuple((-1.0, 0.5) for _ in range(5)),
                        radii=r)
        for r in args.radii
    }
    header = "    s      d(T_s, limit)  " + "  ".join(f"r={r:g}" for r in args.radii)
    print(header)
    s = 0.5
    while s > 1e-4:
        t = metric_tree(4, {cherry12: 1.0, cherry34: s})
        d = bhv_distance(t, limit, "exact4")
        marks = "  ".join(
            ("in " if neighborhood_contains(sets[r], t.tree) else "out").ljust(
                len(f"r={r:g}"))
            for r in args.radii)
        print(f"{s:8.4f}   {d:12.4f}  {marks}")
        s /= 2
    print("the tree enters a neighborhood exactly when its shrinking edge "
          "drops below the resolution radius")


if __name__ == "__main__":
    main()
