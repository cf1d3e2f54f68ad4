"""Plain pass/fail reports used by the validators and checkers."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import hf


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

    @staticmethod
    def from_json(data) -> "ReportItem":
        data = hf.expect_json(data, dict, "a report item")
        check, ok, detail = data["check"], data["ok"], data.get("detail", "")
        if type(check) is not str or type(ok) is not bool \
                or type(detail) is not str:
            raise ValueError("a report item is a string check, a boolean "
                             "ok and a string detail")
        return ReportItem(check, ok, detail)


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

    @staticmethod
    def from_json(data) -> "Report":
        """The report of `to_json`'s form.  Its `ok` flag is only
        type-checked: the items decide it."""
        data = hf.expect_json(data, dict, "a report")
        hf.expect_json(data["ok"], bool, "a report's ok flag")
        return Report(tuple(map(ReportItem.from_json, hf.expect_json(
            data["items"], list, "report items"))))

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
