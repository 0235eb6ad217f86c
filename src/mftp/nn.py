"""Small learnable building blocks shared across the network."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, layer_norm, linear


def kaiming_uniform(rng: np.random.Generator, fan_in: int, shape: tuple) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class Linear:
    w: Tensor                  # [fan_in, fan_out]
    b: Tensor                  # [fan_out]

    @staticmethod
    def create(rng: np.random.Generator, fan_in: int, fan_out: int,
               zero_init: bool = False) -> "Linear":
        w = np.zeros((fan_in, fan_out)) if zero_init else kaiming_uniform(
            rng, fan_in, (fan_in, fan_out))
        return Linear(w=Tensor(w, requires_grad=True),
                      b=Tensor(np.zeros(fan_out), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


@dataclass
class Mlp:
    """Two-layer perceptron with ReLU in between."""
    fc1: Linear
    fc2: Linear

    @staticmethod
    def create(rng: np.random.Generator, fan_in: int, hidden: int, fan_out: int) -> "Mlp":
        return Mlp(fc1=Linear.create(rng, fan_in, hidden),
                   fc2=Linear.create(rng, hidden, fan_out))

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {**self.fc1.named(f"{prefix}.fc1"), **self.fc2.named(f"{prefix}.fc2")}


@dataclass
class LayerNorm:
    """Affine layer norm over the last axis."""
    gain: Tensor
    bias: Tensor
    eps: float = 1e-5

    @staticmethod
    def create(dim: int) -> "LayerNorm":
        return LayerNorm(gain=Tensor(np.ones(dim), requires_grad=True),
                         bias=Tensor(np.zeros(dim), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias, self.eps)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}
