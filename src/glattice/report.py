"""Machine-readable run reports with deterministic CSV serialisation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def format_cell(value) -> str:
    """Deterministic cell text; +inf round-trips as the literal 'inf'."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


@dataclass
class CheckRow:
    name: str
    fixture: str
    value: object
    reference: object
    tolerance: object
    passed: bool


@dataclass
class RunReport:
    command: str
    seed: int
    version: str
    rows: list[CheckRow] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def add(self, name: str, fixture: str, value, reference, tolerance, passed: bool):
        # cells must stay comma-free for the CSV layout
        clean = str(fixture).replace(",", ";").replace("\n", " ")
        self.rows.append(CheckRow(name, clean, value, reference, tolerance, bool(passed)))

    def warn(self, message: str):
        self.warnings.append(message)

    @property
    def overall_pass(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_csv_text(self) -> str:
        lines = ["check,fixture,value,reference,tolerance,pass"]
        lines.append(f"environment.version,,{self.version},,,true")
        lines.append(f"environment.seed,,{self.seed},,,true")
        lines.append(f"environment.command,,{self.command},,,true")
        for row in self.rows:
            cells = (row.value, row.reference, row.tolerance, row.passed)
            lines.append(",".join([row.name, row.fixture, *map(format_cell, cells)]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv_text())

    def summary(self) -> str:
        lines = [f"{self.command}: {'PASS' if self.overall_pass else 'FAIL'} "
                 f"({len(self.rows)} checks, seed {self.seed})"]
        for row in self.rows:
            status = "ok " if row.passed else "FAIL"
            lines.append(f"  [{status}] {row.name:<28} {row.fixture:<26} "
                         f"value={format_cell(row.value)} ref={format_cell(row.reference)} "
                         f"tol={format_cell(row.tolerance)}")
        for message in self.warnings:
            lines.append(f"  warning: {message}")
        return "\n".join(lines)
