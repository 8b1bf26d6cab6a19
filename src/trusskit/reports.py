"""Structured pass/fail reports shared by every validator."""

from __future__ import annotations

import dataclasses
import json

PASS = "pass"
FAIL = "fail"


def dumps(obj) -> str:
    """The one JSON writer of reports, structure files and CLI output:
    sorted keys and an indent of 2, so the output is byte-stable."""
    return json.dumps(obj, sort_keys=True, indent=2)


def _plain(value):
    """Convert a value into something json.dumps can handle deterministically.
    A dataclass or a named tuple (such as ``CoproductElement``) becomes a
    dict of its fields, in name order, read field by field in the same walk,
    with no copy of the value."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: _plain(getattr(value, name)) for name in sorted(value._fields)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        names = sorted(f.name for f in dataclasses.fields(value))
        return {name: _plain(getattr(value, name)) for name in names}
    return str(value)


@dataclasses.dataclass
class Finding:
    """One located fact: a violated law or a witness.  Not frozen: a failing
    validation builds many, and a frozen dataclass's ``__init__`` costs about
    several times as much; nothing hashes or mutates one."""

    law: str
    at: tuple = ()
    lhs: object = None
    rhs: object = None
    note: str = ""

    def to_obj(self) -> dict:
        obj = {"law": self.law, "at": _plain(self.at)}
        if self.lhs is not None:
            obj["lhs"] = _plain(self.lhs)
        if self.rhs is not None:
            obj["rhs"] = _plain(self.rhs)
        if self.note:
            obj["note"] = self.note
        return obj

    def __str__(self):
        parts = [self.law, f"at {self.at!r}"]
        if self.lhs is not None or self.rhs is not None:
            parts.append(f"lhs={self.lhs!r} rhs={self.rhs!r}")
        if self.note:
            parts.append(self.note)
        return "; ".join(parts)


@dataclasses.dataclass
class Report:
    """Outcome of a validation or search: ``pass`` or ``fail``, each decided
    exactly.  A ``fail`` report always carries at least one witness finding.
    """

    subject: str
    status: str
    findings: list = dataclasses.field(default_factory=list)
    stats: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def to_obj(self) -> dict:
        return {
            "subject": self.subject,
            "status": self.status,
            "findings": [f.to_obj() for f in self.findings],
            "stats": _plain(self.stats),
        }

    def to_json(self) -> str:
        return dumps(self.to_obj())

