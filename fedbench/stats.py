"""Summaries and failure accounting for the benchmark report."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import List, Sequence


@dataclass
class Summary:
    """Median of a sample, with its size and quartile spread."""

    median: float
    count: int
    spread: float  # (Q3 - Q1) / median; 0 below four samples


def summarize(values: Sequence[float]) -> Summary:
    if not values:
        raise ValueError("cannot summarize an empty sample")
    median = statistics.median(values)
    spread = 0.0
    if len(values) >= 4 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median)
    return Summary(median=median, count=len(values), spread=spread)


@dataclass
class Tally:
    """Operations attempted and failed, with one reason per failure."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, problems: Sequence[str]) -> None:
        """Count one operation; it failed if it reported any problem."""
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))


def run_problems(
    *,
    final_loss: float,
    reached_target: bool,
    digest: str,
    expected_digest: str,
) -> List[str]:
    """Why one completed run counts as failed (empty when it passed)."""
    problems = []
    if not math.isfinite(final_loss):
        problems.append(f"non-finite final loss {final_loss}")
    if not reached_target:
        problems.append("missed its loss target")
    if digest != expected_digest:
        problems.append(f"final-model digest {digest[:12]} != {expected_digest[:12]}")
    return problems
