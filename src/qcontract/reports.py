"""Check records shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    name: str
    ok: bool
    residual: str = "0"
    paper_eq: str | None = None
    millis: int = 0
    extra: dict | None = None
    #: the residual is a solved value, not a check's remainder: text
    #: output prints it even when it is 0 (the JSON record is the same)
    solved: bool = False

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


@dataclass
class CheckReport:
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def add(self, record: CheckRecord):
        self.records.append(record)

    def add_residual(self, name: str, residual, paper_eq: str | None = None,
                     **extra):
        """Record the check ``name`` on its reduced ``residual``: it passes
        exactly when the residual is zero, and prints the residual.
        ``extra`` keys (say ``raw``) go into the JSON record."""
        self.add(CheckRecord(name=name, ok=residual.is_zero,
                             residual=str(residual), paper_eq=paper_eq,
                             extra=extra or None))

    def extend(self, other: "CheckReport"):
        self.records.extend(other.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.ok]

    def __len__(self):
        return len(self.records)


#: JSON shape of a full verification run (see the CLI ``report`` command).
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "config", "checks"],
    "properties": {
        "version": {"type": "string"},
        "config": {
            "type": "object",
            "required": [
                "presentation",
                "truncation_order",
                "step_limit",
                "seed",
                "max_overlap",
                "output",
            ],
            "properties": {
                "presentation": {"type": ["string", "null"]},
                "truncation_order": {"type": "integer"},
                "step_limit": {"type": "integer"},
                "seed": {"type": ["integer", "null"]},
                "max_overlap": {"type": ["integer", "null"]},
                "output": {"enum": ["text", "json"]},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "paper_eq", "status", "residual", "millis"],
                "properties": {
                    "name": {"type": "string"},
                    "paper_eq": {"type": ["string", "null"]},
                    "status": {"enum": ["pass", "fail"]},
                    "residual": {"type": "string"},
                    "millis": {"type": "integer"},
                },
            },
        },
    },
}


def report_to_json_dict(report: CheckReport, version: str, config: dict) -> dict:
    checks = []
    for r in report.records:
        item = {
            "name": r.name,
            "paper_eq": r.paper_eq,
            "status": r.status,
            "residual": r.residual,
            "millis": r.millis,
        }
        if r.extra:
            item.update(r.extra)
        checks.append(item)
    return {"version": version, "config": config, "checks": checks}
