#!/usr/bin/env python3
"""Tabulate the unbounded-power secrecy ceiling across band/user counts."""

import argparse

from secure_ofdma import secrecy_rate_upper_bound


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[16, 32, 64, 128])
    ap.add_argument("--k", type=int, nargs="+", default=[2, 4, 8, 16])
    args = ap.parse_args()

    header = "N\\K " + "".join(f"{k:>10}" for k in args.k)
    print(header)
    for n in args.n:
        row = f"{n:<4}"
        for k in args.k:
            row += f"{secrecy_rate_upper_bound(n, k):>10.4f}"
        print(row)
    print("\nvalues in nat/OFDM symbol; independent of the fading mean")


if __name__ == "__main__":
    main()
