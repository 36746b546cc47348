"""spark-submit entrypoint reproducing Table I: dataset statistics (n, m, delta, tau, rho, condition).

Usage: python jobs/table1_stats.py [--scale bench|test] [--datasets NA FB ...]
       [--markdown]
"""
from _common import emit, parse_args

from repro.tables import table1


def main(argv=None) -> None:
    args = parse_args(argv)
    rows = table1(names=args.datasets, scale=args.scale)
    emit(rows, args)


if __name__ == "__main__":
    main()
