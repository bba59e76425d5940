#!/usr/bin/env python3
"""Print the orbit catalog with exponent data for a range of n.

Usage: python scripts/orbit_tables.py [n_max]
"""

import sys

from tworb.orbits import enumerate_orbits, orbit_dimension
from tworb.zeta import dim_F_uX, exponent_table, local_zeta_model


def main() -> int:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    for n in range(0, n_max + 1):
        print(f"== n = {n}  ({len(enumerate_orbits(n))} orbits)")
        for t in enumerate_orbits(n):
            inv = orbit_dimension(t)
            table = exponent_table(t)
            weights = " ".join(
                f"|A_{en.i}{en.j}|^({en.e}+{en.s_coeff}s)"
                for en in table) or "-"
            print(f"  {str(t):14s} dimO={inv.dim_orbit_F:3d} "
                  f"c={inv.c_exponent:3d} cent={inv.centralizer_dim_F:3d} "
                  f"springer={inv.springer_dim_F:3d} uX={dim_F_uX(t):3d}  "
                  f"{weights}")
            if n <= 4 and table:
                print(f"  {'':14s} local factor: {local_zeta_model(table)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
