"""Small learnable building blocks shared across the network.

Every block is a dataclass inheriting `Module`, whose `named` collects the
trainable tensors of its fields by dotted path; a field saved under another
name says so with `field(metadata={"param": name})`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, layer_norm, linear


def kaiming_uniform(rng: np.random.Generator, fan_in: int, shape: tuple) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Base of the parameter dataclasses; adds no fields."""

    def named(self, prefix: str) -> dict[str, Tensor]:
        """Every `requires_grad` tensor below this module, in field order."""
        out: dict[str, Tensor] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            path = f"{prefix}.{f.metadata.get('param', f.name)}"
            if isinstance(value, Module):
                out.update(value.named(path))
            elif isinstance(value, Tensor) and value.requires_grad:
                out[path] = value
        return out


@dataclass
class Linear(Module):
    w: Tensor                  # [fan_in, fan_out]
    b: Tensor                  # [fan_out]

    @staticmethod
    def create(rng: np.random.Generator, fan_in: int, fan_out: int) -> "Linear":
        return Linear(w=Tensor(kaiming_uniform(rng, fan_in, (fan_in, fan_out)),
                               requires_grad=True),
                      b=Tensor(np.zeros(fan_out), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)


@dataclass
class Mlp(Module):
    """Two-layer perceptron with ReLU in between."""
    fc1: Linear
    fc2: Linear

    @staticmethod
    def create(rng: np.random.Generator, fan_in: int, hidden: int, fan_out: int) -> "Mlp":
        return Mlp(fc1=Linear.create(rng, fan_in, hidden),
                   fc2=Linear.create(rng, hidden, fan_out))

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).relu())


@dataclass
class LayerNorm(Module):
    """Affine layer norm over the last axis."""
    gain: Tensor
    bias: Tensor

    @staticmethod
    def create(dim: int) -> "LayerNorm":
        return LayerNorm(gain=Tensor(np.ones(dim), requires_grad=True),
                         bias=Tensor(np.zeros(dim), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)
