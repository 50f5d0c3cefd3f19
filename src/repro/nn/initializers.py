"""Weight initialization schemes.

Each initializer is a callable ``(shape, rng) -> np.ndarray``; they are plain
functions registered by name so architecture specs can reference them as
strings.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Initializer = Callable[[tuple[int, ...], np.random.Generator], np.ndarray]

__all__ = [
    "zeros",
    "constant",
    "uniform",
    "normal",
    "xavier_uniform",
    "xavier_normal",
    "he_uniform",
    "he_normal",
    "get_initializer",
]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute fan-in / fan-out for dense (in, out) and conv (out, in, kh, kw)."""
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        receptive = int(np.prod(shape[2:]))
        return shape[1] * receptive, shape[0] * receptive
    size = int(np.prod(shape))
    return size, size


def zeros(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    return np.zeros(shape)


def constant(value: float) -> Initializer:
    def init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return np.full(shape, value, dtype=np.float64)

    return init


def uniform(scale: float = 0.05) -> Initializer:
    def init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-scale, scale, size=shape)

    return init


def normal(std: float = 0.05) -> Initializer:
    def init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, std, size=shape)

    return init


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, fan_out = _fan_in_out(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def xavier_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, fan_out = _fan_in_out(shape)
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)


def he_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, _ = _fan_in_out(shape)
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, _ = _fan_in_out(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


_REGISTRY: dict[str, Initializer] = {
    "zeros": zeros,
    "xavier_uniform": xavier_uniform,
    "xavier_normal": xavier_normal,
    "he_uniform": he_uniform,
    "he_normal": he_normal,
}


def get_initializer(name: str | Initializer) -> Initializer:
    """Resolve an initializer by name, passing callables through unchanged."""
    if callable(name):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown initializer {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
