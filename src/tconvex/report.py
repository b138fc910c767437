"""Verdict reports with witnesses and hypothesis audits."""

from __future__ import annotations

from dataclasses import dataclass, field

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"

VERIFIED = "verified"
CERTIFIED_BOUND = "certified-bound"
ASSUMED = "assumed"
FAILED = "failed"


@dataclass
class Report:
    """Outcome of a single check.

    mode says whether the verdict is exact ("exhaustive") or probabilistic
    ("sampled"); no verdict is silently probabilistic.  The audit lists
    (hypothesis, status) pairs for hypothesis-guarded checks.
    """

    label: str
    verdict: bool
    mode: str
    witness: dict | None = None
    audit: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def fully_verified(self) -> bool:
        return all(status == VERIFIED for _, status in self.audit)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "verdict": self.verdict,
            "mode": self.mode,
            "witness": self.witness,
            "audit": [[h, s] for h, s in self.audit],
            "details": self.details,
        }
