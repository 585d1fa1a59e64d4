"""Verification reports: named identity, per-index two-sided values, residuals."""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from .errors import ParseError

SCHEMA_VERSION = 1


def _jsonable(v: Any):
    if isinstance(v, bool) or isinstance(v, int) or isinstance(v, str):
        return v
    if hasattr(v, "denominator"):  # a Fraction, in a report read back by _value
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return str(v)


class Row(NamedTuple):
    """One compared index of an identity. Non-asserted rows are informational."""

    index: str
    lhs: Any
    rhs: Any
    asserted: bool = True
    note: str = ""

    @property
    def residual(self):
        return self.lhs - self.rhs

    @property
    def ok(self) -> bool:
        return (not self.asserted) or self.residual == 0


class VerificationReport(NamedTuple):
    identity: str
    parameters: dict
    rows: tuple[Row, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def failures(self) -> list[Row]:
        return [r for r in self.rows if not r.ok]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "identity": self.identity,
            "parameters": {k: _jsonable(v) for k, v in self.parameters.items()},
            "rows": [
                {
                    "index": r.index,
                    "lhs": _jsonable(r.lhs),
                    "rhs": _jsonable(r.rhs),
                    "residual": _jsonable(r.residual),
                    "asserted": r.asserted,
                    **({"note": r.note} if r.note else {}),
                }
                for r in self.rows
            ],
            "pass": self.passed,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format_table(self) -> str:
        """Plain UTF-8 aligned columns, pipe-friendly (no color codes)."""
        head = ["index", "lhs", "rhs", "residual", ""]
        body = []
        for r in self.rows:
            mark = "ok" if r.residual == 0 else ("FAIL" if r.asserted else "info")
            note = f"  {r.note}" if r.note else ""
            body.append([r.index, str(_jsonable(r.lhs)), str(_jsonable(r.rhs)),
                        str(_jsonable(r.residual)), mark + note])
        widths = [max(len(row[i]) for row in [head] + body) for i in range(5)]
        lines = [f"identity: {self.identity}"]
        if self.parameters:
            params = "  ".join(f"{k}={_jsonable(v)}" for k, v in self.parameters.items())
            lines.append(params)
        lines.append("  ".join(h.ljust(w) for h, w in zip(head, widths)).rstrip())
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _value(v):
    """A saved lhs or rhs: an integer or a 'p/q' string."""
    if isinstance(v, str):
        from fractions import Fraction  # imported here: only saved reports hold fractions
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(v, int):
        return v
    raise ParseError(f"report value {v!r} is neither an integer nor 'p/q'")


def report_from_dict(data) -> VerificationReport:
    """The report that ``to_dict`` saved; malformed input raises ParseError."""
    if not (isinstance(data, dict) and isinstance(data.get("identity"), str)
            and isinstance(data.get("parameters", {}), dict)
            and isinstance(data.get("rows", []), list)):
        raise ParseError("a report is an object with a string 'identity', "
                         "an object 'parameters' and a list 'rows'")
    rows = []
    for r in data.get("rows", []):
        if not (isinstance(r, dict) and isinstance(r.get("index"), str)
                and "lhs" in r and "rhs" in r):
            raise ParseError(f"a report row needs a string 'index', 'lhs' and 'rhs': {r!r}")
        rows.append(Row(r["index"], _value(r["lhs"]), _value(r["rhs"]),
                        r.get("asserted", True), r.get("note", "")))
    return VerificationReport(data["identity"], data.get("parameters", {}), tuple(rows))
