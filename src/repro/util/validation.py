"""Argument-validation helpers with informative error messages."""

from __future__ import annotations


def require(cond: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` unless ``cond`` holds."""
    if not cond:
        raise ValueError(message)


def require_positive(value: float, name: str) -> None:
    """Raise unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def require_nonnegative(value: float, name: str) -> None:
    """Raise unless ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
