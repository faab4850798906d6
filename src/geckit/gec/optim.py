"""Tiny dict-of-arrays optimizers for the correction model."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError

# Largest global L2 norm of one batch's gradients.
GRAD_CLIP = 5.0


def clip_gradients(grads: dict[str, np.ndarray]) -> float:
    """Scale all gradients so their global L2 norm is at most GRAD_CLIP."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > GRAD_CLIP:
        scale = GRAD_CLIP / total
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
            if name not in self.m:  # the moments are made once, at a name's first step
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            m = self.m[name]
            v = self.v[name]
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
