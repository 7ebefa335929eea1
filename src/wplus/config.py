"""Runtime configuration."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path


def default_cache_dir():
    env = os.environ.get("WPLUS_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "wplus"


@dataclass
class Config:
    """Knobs for the verification pipeline.

    precision_slack pads every derived q-expansion precision; oracle_bound
    caps the point-counting supersingular oracle; float_start_bits overrides
    the class-polynomial precision heuristic (0 = use the heuristic);
    rng_seed drives the randomized equal-degree splitting.
    """

    precision_slack: int = 10
    oracle_bound: int = 103
    cache_dir: Path = field(default_factory=default_cache_dir)
    jobs: int = 1
    float_start_bits: int = 0
    float_max_factor: int = 16
    rng_seed: int = 0
    use_cache: bool = True

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.precision_slack < 0:
            raise ValueError("precision_slack must be >= 0")
        self.cache_dir = Path(self.cache_dir)
