"""Optimization focus: what the analysis trades accuracy against."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError


class Focus(str, Enum):
    SPEED = "speed"
    SIZE = "size"
    ACCURACY = "accuracy"


@dataclass(frozen=True)
class FocusMode:
    """Optimization goal. The loss epsilons that gate its decisions are
    GreedyAnalyzer's (and ExperimentConfig's) eps_skip and eps_approx."""

    focus: Focus

    @classmethod
    def parse(cls, name: str) -> "FocusMode":
        try:
            return cls(Focus(str(name).lower()))
        except ValueError as exc:
            raise ConfigError(f"unknown focus '{name}'") from exc
