"""Plain-text table rendering for the experiment harness."""

from __future__ import annotations

import dataclasses
from typing import List


@dataclasses.dataclass
class ExperimentTable:
    """A rendered experiment result: title, column headers, rows."""

    title: str
    headers: List[str]
    rows: List[List[str]]
    notes: List[str] = dataclasses.field(default_factory=list)

    def render(self) -> str:
        """Align columns and return a printable table."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            if len(row) != len(self.headers):
                raise ValueError(
                    f"row width {len(row)} != header width "
                    f"{len(self.headers)}: {row}")
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i])
                               for i, h in enumerate(self.headers)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def column(self, header: str) -> List[str]:
        """Extract one column by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


def fmt(value: float, digits: int = 2) -> str:
    """Format a number compactly."""
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.{digits}f}"
