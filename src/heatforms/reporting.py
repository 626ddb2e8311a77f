"""Machine-readable reports: JSON lines and CSV with stable formatting."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

REPORT_VERSION = "1"


def fmt_number(x) -> str:
    """17 significant digits for floats; repr for ints/bools."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (int, float)):  # bool included
        return fmt_number(v)
    if isinstance(v, dict):
        items = sorted(v.items())
        return "{" + ",".join(f"{json.dumps(str(k))}:{_json_value(x)}" for k, x in items) + "}"
    raise TypeError(f"cannot serialize {type(v)!r}")


@dataclass(frozen=True)
class Row:
    label: str
    value: float
    se: float | None = None


@dataclass
class Report:
    command: str
    inputs: dict
    rows: list = field(default_factory=list)
    status: str = "pass"
    version: str = REPORT_VERSION

    def add(self, label, value, se=None):
        """Append a row; a non-finite value or se raises ValueError (no JSON for it)."""
        if not (math.isfinite(value) and (se is None or math.isfinite(se))):
            raise ValueError(f"report row {label!r} is not finite: value {value}, se {se}")
        self.rows.append(Row(label, value, se))

    def fail(self):
        self.status = "fail"

    def to_jsonl(self) -> str:
        lines = [
            "{"
            + f'"command":{json.dumps(self.command)},'
            + f'"version":{json.dumps(self.version)},'
            + f'"inputs":{_json_value(self.inputs)}'
            + "}"
        ]
        for row in self.rows:
            line = f'{{"label":{json.dumps(row.label)},"value":{fmt_number(row.value)}'
            if row.se is not None:
                line += f',"se":{fmt_number(row.se)}'
            lines.append(line + "}")
        lines.append(f'{{"status":{json.dumps(self.status)}}}')
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["label,value,se"]
        for row in self.rows:
            se = fmt_number(row.se) if row.se is not None else ""
            lines.append(f"{row.label},{fmt_number(row.value)},{se}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_jsonl()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown format {fmt!r}")
