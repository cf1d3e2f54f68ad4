"""Plain pass/fail reports used by the validators and checkers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ReportItem:
    check: str
    ok: bool
    detail: str = ""

    def to_json(self):
        out = {"check": self.check, "ok": self.ok}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class Report:
    """An ordered list of named checks; ok iff every item passed."""

    items: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def failures(self):
        return [item for item in self.items if not item.ok]

    def to_json(self):
        return {"ok": self.ok, "items": [i.to_json() for i in self.items]}

    def __str__(self):
        lines = [f"[{'ok' if i.ok else 'FAIL'}] {i.check}"
                 + (f": {i.detail}" if i.detail else "") for i in self.items]
        return "\n".join(lines)


class ReportBuilder:
    def __init__(self):
        self.items = []

    def add(self, check, ok, detail=""):
        self.items.append(ReportItem(check, bool(ok), detail))
        return bool(ok)

    def extend(self, other: Report):
        self.items.extend(other.items)

    def build(self) -> Report:
        return Report(tuple(self.items))
