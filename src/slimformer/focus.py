"""Optimization focus: what the analysis trades accuracy against."""

from __future__ import annotations

from enum import Enum

from .errors import ConfigError


class Focus(str, Enum):
    """Optimization goal. The loss epsilons that gate its decisions are
    GreedyAnalyzer's (and ExperimentConfig's) eps_skip and eps_approx."""

    SPEED = "speed"
    SIZE = "size"
    ACCURACY = "accuracy"

    @classmethod
    def parse(cls, name: str) -> "Focus":
        try:
            return cls(name.lower() if isinstance(name, str) else name)
        except ValueError as exc:
            raise ConfigError(f"unknown focus '{name}'") from exc


# Alias for callers that build FocusMode(Focus(name)); calling the enum on a
# member returns that member.
FocusMode = Focus
