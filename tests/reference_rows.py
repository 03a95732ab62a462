"""The committed reference rows of ``irsim reproduce`` and the rule that
compares a run with them.

``data/reference/figN.csv`` holds columns 1-6 of ``irsim reproduce figN`` at
the default config. A run matches when ``scheme``, ``feasible`` and
``iterations`` are equal and ``swept_value`` and the two power columns are
equal as 12-significant-digit strings. A value cell under ``FLOOR`` times
the largest magnitude of its column in the reference file only has to be
under that floor in both files: the exact nulls of the beam scans (fig6,
fig7) print rounding noise that depends on the BLAS kernel.

Compare CSV files with the reference files (the figure id is a file's name
up to its first dot; exit 1 on any mismatch):

    python tests/reference_rows.py out/fig6.csv out/fig8.workers2.csv ...

Regenerate every reference file from this checkout:

    python tests/reference_rows.py --write
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from irsim import ScenarioConfig, SweepSpec, default_grid, emit, run_experiment
from irsim.experiments import FIGURES

REFERENCE_DIR = Path(__file__).parent / "data" / "reference"
COLUMNS = ("swept_value", "scheme", "lrs_power_or_energy", "urs_power", "feasible", "iterations")
VALUES = ("swept_value", "lrs_power_or_energy", "urs_power")
FLOOR = 1e-12


def _table(text: str) -> list[list[str]]:
    """The cells of columns 1-6 of a CSV text, header first."""
    return [line.split(",")[: len(COLUMNS)] for line in text.splitlines()]


def mismatches(figure: str, expected: str, actual: str) -> list[str]:
    """Every cell in which the CSV text ``actual`` departs from the reference
    text ``expected`` of ``figure`` by the rule above, one line each."""
    want, got = _table(expected), _table(actual)
    for name, table in (("reference", want), ("run", got)):
        if tuple(table[0]) != COLUMNS:
            return [f"{figure}: {name} header {','.join(table[0])}"]
    if len(got) != len(want):
        return [f"{figure}: {len(got) - 1} rows, the reference has {len(want) - 1}"]
    floors = {j: FLOOR * max(abs(float(row[j])) for row in want[1:])
              for j, column in enumerate(COLUMNS) if column in VALUES}
    out = []
    for line, (a, b) in enumerate(zip(want[1:], got[1:]), 2):
        for j, column in enumerate(COLUMNS):
            if j not in floors:
                same = a[j] == b[j]
            elif abs(float(a[j])) < floors[j]:
                same = abs(float(b[j])) < floors[j]
            else:
                same = f"{float(a[j]):.12g}" == f"{float(b[j]):.12g}"
            if not same:
                out.append(f"{figure} line {line} {column}: reference {a[j]}, run {b[j]}")
    return out


def rerun(figure: str, path: Path) -> None:
    """Write the CSV of ``irsim reproduce figure`` at the default config to
    ``path``, run in this process."""
    config = ScenarioConfig.default()
    experiment = FIGURES[figure]
    emit(run_experiment(config, SweepSpec(default_grid(experiment, config), experiment)), "csv", str(path))


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        with tempfile.TemporaryDirectory() as tmp:
            for figure in FIGURES:
                path = Path(tmp) / f"{figure}.csv"
                rerun(figure, path)
                rows = (",".join(row) for row in _table(path.read_text()))
                (REFERENCE_DIR / f"{figure}.csv").write_text("\n".join(rows) + "\n")
        return 0
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for name in argv:
        path = Path(name)
        figure = path.name.split(".")[0]
        found = mismatches(figure, (REFERENCE_DIR / f"{figure}.csv").read_text(), path.read_text())
        verdict = f"differs in {len(found)} of its cells from" if found else "matches"
        print(f"{path}: {verdict} {REFERENCE_DIR.name}/{figure}.csv")
        for message in found:
            print(f"  {message}")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
