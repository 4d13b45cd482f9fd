"""Shared helpers for the benchmark suite.

Every bench regenerates one paper artifact (table or figure) and times the
operation that produces it.  Artifacts are printed and saved under
``benchmarks/results/`` so `pytest benchmarks/ --benchmark-only` leaves the
regenerated tables on disk next to the timing numbers.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

# Some benches reuse scenario builders defined in the test suite; make the
# repository root importable regardless of how pytest was invoked
# (`pytest benchmarks/` from a bare entry point does not add the cwd).
_REPO_ROOT = pathlib.Path(__file__).parent.parent
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_artifact():
    """Persist a regenerated table/series and echo it to stdout.

    A bench run below its default scale passes ``smoke=True`` and writes
    ``<name>-smoke.txt`` (gitignored), so a reduced run never overwrites
    the committed headline artifact.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str, smoke: bool = False) -> pathlib.Path:
        path = RESULTS_DIR / name
        if smoke:
            path = path.with_name(f"{path.stem}-smoke{path.suffix}")
        path.write_text(text + "\n")
        print(f"\n===== {path.name} =====")
        print(text)
        return path

    return _save


def format_table(headers, rows) -> str:
    """Minimal fixed-width table renderer for bench artifacts."""
    cells = [list(map(str, headers))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
