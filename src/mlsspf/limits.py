"""Resource limits for the inherently exponential operators."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    """Caps passed down to powerset-style operators and searches.

    pow_limit bounds how many sets a powerset/assembly materialization may
    produce; exceeding it raises LimitExceeded instead of hanging.
    """

    pow_limit: int = 2 ** 20
    max_cycle_len: int = 4
    max_warmup_rounds: int = 8


DEFAULT_LIMITS = Limits()
