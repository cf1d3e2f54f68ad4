"""Resource limits for the inherently exponential operators."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    """Caps passed down to powerset-style operators and searches.

    pow_limit bounds how many sets a powerset/assembly materialization may
    produce; exceeding it raises LimitExceeded instead of hanging.
    max_cycle_len bounds the places of a pumping cycle, and
    max_warmup_rounds the surplus-only rounds a pump may run first.  A
    bound out of range raises ValueError.
    """

    pow_limit: int = 2 ** 20
    max_cycle_len: int = 4
    max_warmup_rounds: int = 8

    def __post_init__(self):
        for name, least in (("pow_limit", 1), ("max_cycle_len", 1),
                            ("max_warmup_rounds", 0)):
            if getattr(self, name) < least:
                raise ValueError(
                    f"{name} must be at least {least}, not {getattr(self, name)}")


DEFAULT_LIMITS = Limits()
