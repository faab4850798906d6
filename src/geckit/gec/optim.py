"""Tiny dict-of-arrays optimizers for the correction model."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    if max_norm <= 0:
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


class Sgd:
    def __init__(self, lr: float):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.lr = lr

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            params[name] -= self.lr * g


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    def __init__(self, lr: float):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for name, g in grads.items():
            m = self.m.setdefault(name, np.zeros_like(g))
            v = self.v.setdefault(name, np.zeros_like(g))
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            params[name] -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def make_optimizer(kind: str, lr: float):
    if kind == "sgd":
        return Sgd(lr)
    if kind == "adam":
        return Adam(lr)
    raise ConfigError(f"unknown optimizer {kind!r}")
