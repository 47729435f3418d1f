"""Seeded sample streams shared by the audits and the tests.

Everything is driven by ``random.Random(seed)`` so that every run with
the same configuration and seed sees the same data and produces the same
report bytes.
"""

from __future__ import annotations

import random

from .core import Config, Word
from .points import TildePoint, periodic_point, zero_pair_point

__all__ = ["sample_point", "sample_points", "sample_word", "rng_for"]


def rng_for(cfg: Config, salt: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{salt}")


def sample_point(
    rng: random.Random,
    d: int,
    max_prefix: int = 6,
    max_period: int = 3,
    doubled_ratio: float = 0.25,
) -> TildePoint:
    """One random point: eventually periodic, or (with the given ratio) a
    doubled eventually-zero point."""
    prefix = [rng.randrange(d) for _ in range(rng.randrange(max_prefix + 1))]
    if rng.random() < doubled_ratio:
        return zero_pair_point(d, prefix, rng.randrange(1, d), rng.randrange(d))
    period = [rng.randrange(d) for _ in range(rng.randrange(1, max_period + 1))]
    if all(x == 0 for x in period):
        period[rng.randrange(len(period))] = rng.randrange(1, d)
    return periodic_point(d, prefix, period)


def sample_points(cfg: Config, n: int, salt: str = "points", **kw) -> list[TildePoint]:
    rng = rng_for(cfg, salt)
    return [sample_point(rng, cfg.d, **kw) for _ in range(n)]


def sample_word(rng: random.Random, cfg: Config, max_len: int = 6) -> Word:
    pool = [g for _, g in cfg.gens] + [g.inverse() for _, g in cfg.gens]
    return tuple(rng.choice(pool) for _ in range(rng.randrange(max_len + 1)))
