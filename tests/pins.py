"""The console pin table, tests/console_pins.txt, and the input files its
lines name.

Each table line is ``<exit status> <sha256 of stdout> <distlap arguments>``;
table1 exits 1 on the n = 12 T* row that misses the printed table.
Two placeholders in the arguments stand for input files:

- ``{stream}``: perfbench's seed-0 stream of 1,000 connected graphs, orders
  8-24 (``perfbench/inputs.py``);
- ``{orders}``: the 996 connected graphs of orders 1..7 in a
  ``Random(2017)`` shuffle.

Each stands for a path relative to the directory the commands run in. The
JSON scan report names its input file, so the stream report's digest holds
only with the stream at the path perfbench gives it.

Run as a script, ``python3 tests/pins.py DIR`` writes both input files
under DIR and prints the table with each placeholder replaced by its path;
run the printed commands from DIR.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

from distlap import enumerate_connected, to_graph6

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "console_pins.txt"
INPUTS = {"stream": ".perfbench_work/stream-0.g6", "orders": "orders-1-7.g6"}


def read_pins() -> list[tuple[int, str, str]]:
    """(exit status, stdout sha256, distlap arguments) of each table line."""
    return [(int(status), digest, args) for status, digest, args in
            (line.split(" ", 2) for line in TABLE.read_text().splitlines())]


def orders_1_7() -> list[str]:
    records = [to_graph6(g) for n in range(1, 8) for g in enumerate_connected(n)]
    random.Random(2017).shuffle(records)
    return records


def write_graph6(path: Path, records: list[str]) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(records) + "\n")
    return str(path)


def main(root: Path) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from inputs import stream_graphs
    write_graph6(root / INPUTS["stream"], stream_graphs(0))
    write_graph6(root / INPUTS["orders"], orders_1_7())
    for status, digest, args in read_pins():
        print(status, digest, args.format_map(INPUTS))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
