"""Verification reports: named identity, per-index two-sided values, residuals."""

from __future__ import annotations

from typing import Any, NamedTuple

from .errors import ParseError

SCHEMA_VERSION = 1


def _jsonable(v: Any):
    if isinstance(v, (int, str)):  # a bool is an int
        return v
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

    def to_dict(self) -> dict:
        rows, passed = [], True
        for r in self.rows:  # each residual once, and `pass` read off the same loop
            residual = r.lhs - r.rhs
            passed = passed and (residual == 0 or not r.asserted)
            rows.append({"index": r.index, "lhs": _jsonable(r.lhs), "rhs": _jsonable(r.rhs),
                         "residual": _jsonable(residual), "asserted": r.asserted,
                         **({"note": r.note} if r.note else {})})
        return {
            "schema": SCHEMA_VERSION,
            "identity": self.identity,
            "parameters": {k: _jsonable(v) for k, v in self.parameters.items()},
            "rows": rows,
            "pass": passed,
        }

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
    """A saved lhs or rhs: a JSON integer, the only value ``to_dict`` writes."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ParseError(f"report value {v!r} is not an integer")


def report_from_dict(data) -> VerificationReport:
    """The report that ``to_dict`` saved; malformed input raises ParseError."""
    if not (isinstance(data, dict) and isinstance(data.get("identity"), str)
            and isinstance(data.get("parameters", {}), dict)
            and isinstance(data.get("rows", []), list)):
        raise ParseError("a report is an object with a string 'identity', "
                         "an object 'parameters' and a list 'rows'")
    schema = data.get("schema", SCHEMA_VERSION)
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ParseError(f"a report has schema {SCHEMA_VERSION}, got {schema!r}")
    rows = []
    for r in data.get("rows", []):
        if not (isinstance(r, dict) and isinstance(r.get("index"), str)
                and "lhs" in r and "rhs" in r):
            raise ParseError(f"a report row needs a string 'index', 'lhs' and 'rhs': {r!r}")
        asserted, note = r.get("asserted", True), r.get("note", "")
        if not (isinstance(asserted, bool) and isinstance(note, str)):
            raise ParseError(f"a report row's 'asserted' must be a boolean and its "
                             f"'note' a string: {r!r}")
        row = Row(r["index"], _value(r["lhs"]), _value(r["rhs"]), asserted, note)
        try:  # str() refuses an int of more than sys.get_int_max_str_digits() digits
            for v in (row.lhs, row.rhs, row.residual):
                str(v)
        except ValueError:
            raise ParseError(f"report row {row.index!r} has a value too long to print") from None
        rows.append(row)
    return VerificationReport(data["identity"], data.get("parameters", {}), tuple(rows))
