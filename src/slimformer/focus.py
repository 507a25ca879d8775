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
    """Optimization goal plus the acceptable relative loss degradation.

    The degradation knob is ignored under ACCURACY focus, where acceptance
    is governed by the running minimum loss instead.
    """

    focus: Focus
    acceptable_degradation: float = 0.005

    def __post_init__(self):
        if self.acceptable_degradation < 0:
            raise ConfigError("acceptable_degradation must be >= 0")

    @classmethod
    def parse(cls, name: str, degradation: float) -> "FocusMode":
        try:
            return cls(Focus(name.lower()), degradation)
        except ValueError as exc:
            raise ConfigError(f"unknown focus '{name}'") from exc
