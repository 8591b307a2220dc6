"""Set-up cost of a sweep: import gridfair and parse its inputs, nothing more.

Usage: python perfbench/setup_probe.py ALIGNMENT QRELS RUN [RUN ...]
"""

import sys

from gridfair.io import parse_alignment, parse_qrels, parse_run


def main(argv: list[str]) -> int:
    alignment, qrels, *runs = argv
    parsed = [parse_run(path) for path in runs]
    table = parse_alignment(alignment)
    rel = parse_qrels(qrels)
    if not all(run.rankings for run in parsed) or not len(table) or not len(rel):
        print("error: empty input", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
