"""Resource limits for the inherently exponential operators."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Limits:
    """Caps passed down to powerset-style operators and searches.

    pow_limit bounds how many sets a powerset or assembly family may have
    when a call materializes it whole (`powerset`, `pow_star`, the pow-node
    dump of `paste_segment`), and how many assemblies a lazy pick (the pump
    rounds and the Minus pool of `paste_segment`, through `hf.assemblies`)
    may take, however large the family it draws from.  Past either,
    LimitExceeded is raised.  A lazy pick counts only the assemblies it
    takes, not the combinations searched between two of them, which are
    not bounded.  A lazy pick from a family within the bound gives what the
    materialized family would; one from a larger family can now succeed,
    so the pump runs to round counts (24 and more on `w in x & !Finite(x)`)
    whose families exceed the default bound.
    max_cycle_len bounds the places of a pumping cycle.  A bound out of
    range raises ValueError.
    """

    pow_limit: int = 2 ** 20
    max_cycle_len: int = 4

    def __post_init__(self):
        for name, least in (("pow_limit", 1), ("max_cycle_len", 1)):
            if getattr(self, name) < least:
                raise ValueError(
                    f"{name} must be at least {least}, not {getattr(self, name)}")


DEFAULT_LIMITS = Limits()
