#!/usr/bin/env python3
"""Tabulate the modulus of uniform convexity across l_p spaces.

The values come from the closed forms (Clarkson for p >= 2, Hanner for
1 < p < 2); for p in {1, inf} and d >= 2 the modulus vanishes (flat unit
spheres), and on the line it is eps/2.
"""

import argparse
import math

from graphmann.normed_space import NormSpace, modulus_uc_estimate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dimension", type=int, default=2)
    args = parser.parse_args()

    eps_grid = [0.25, 0.5, 1.0, 1.5, 2.0]
    ps = [1.0, 1.5, 2.0, 3.0, math.inf]
    print(f"d = {args.dimension}")
    header = "p      " + "".join(f"eps={e:<9g}" for e in eps_grid)
    print(header)
    for p in ps:
        space = NormSpace(args.dimension, p)
        row = f"{p:<7g}"
        for eps in eps_grid:
            row += f"{modulus_uc_estimate(space, eps):<13.6f}"
        print(row)


if __name__ == "__main__":
    main()
