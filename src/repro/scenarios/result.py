"""The result container every scenario produces, and its text rendering.

Each table renders the same rows/series its paper table reports, so a
side-by-side comparison with the paper is a diff away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
) -> str:
    """Render an aligned ASCII table with a title line."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


@dataclass
class ExperimentResult:
    """Rows of one reproduced table plus free-form notes."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    paper_reference: dict = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        return format_table(f"{self.experiment_id}: {self.title}", self.headers, self.rows)

    def row_dict(self, column: int = 0) -> dict:
        """Index rows by their first column for easy assertions."""
        return {row[column]: row for row in self.rows}
