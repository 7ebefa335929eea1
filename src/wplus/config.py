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
    """Runtime settings of the verification pipeline.

    cache_dir holds the on-disk cache, which use_cache=False bypasses; jobs
    is the number of worker processes of a scan; rng_seed is accepted and
    read by nothing: the one randomized step, the equal-degree splitting of
    H for the text report, gives a result that no RNG changes (S_q is
    checked to split into quadratics without one).  Precisions, the
    point-counting oracle bound (supersingular.ORACLE_BOUND) and the
    class-polynomial float precision are fixed by the algorithms, not
    configured.
    """

    cache_dir: Path = field(default_factory=default_cache_dir)
    jobs: int = 1
    rng_seed: int = 0
    use_cache: bool = True

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.cache_dir = Path(self.cache_dir)
