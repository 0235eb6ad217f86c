"""Independent reference implementations used only by the test suite.

Everything here is deliberately written the slow, obvious way (explicit
loops, O(T^2) transforms, exhaustive mode search) so that it shares no code
path with the library it checks.
"""

import math

import numpy as np


def central_difference(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Gradient of scalar f(ndarray) by central differences, one coordinate at a time."""
    x = np.array(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(x.shape)


def naive_dft(x: np.ndarray) -> np.ndarray:
    """O(T^2) forward DFT of a real 1-D signal, full spectrum."""
    T = len(x)
    out = np.zeros(T, dtype=np.complex128)
    for f in range(T):
        for t in range(T):
            out[f] += x[t] * np.exp(-2j * math.pi * f * t / T)
    return out


def naive_rfft(x: np.ndarray) -> np.ndarray:
    """Half spectrum of the naive DFT (bins 0..T/2)."""
    full = naive_dft(x)
    return full[: len(x) // 2 + 1]


def naive_irfft(half: np.ndarray, T: int) -> np.ndarray:
    """O(T^2) inverse of a real-signal half spectrum."""
    full = np.zeros(T, dtype=np.complex128)
    full[: len(half)] = half
    for f in range(len(half), T):
        full[f] = np.conj(full[T - f])
    out = np.zeros(T, dtype=np.float64)
    for t in range(T):
        acc = 0.0 + 0.0j
        for f in range(T):
            acc += full[f] * np.exp(2j * math.pi * f * t / T)
        out[t] = acc.real / T
    return out


def naive_bandpass(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Keep only half-spectrum bins [lo, hi) of a real signal, via the naive DFT."""
    half = naive_rfft(x)
    kept = np.zeros_like(half)
    kept[lo:hi] = half[lo:hi]
    return naive_irfft(kept, len(x))


def brute_min_ade(trajs: np.ndarray, gt: np.ndarray) -> float:
    """Min over modes of mean L2, with explicit per-step loops."""
    best = math.inf
    for k in range(trajs.shape[0]):
        total = 0.0
        for t in range(gt.shape[0]):
            total += math.hypot(trajs[k, t, 0] - gt[t, 0], trajs[k, t, 1] - gt[t, 1])
        best = min(best, total / gt.shape[0])
    return best


def brute_min_fde(trajs: np.ndarray, gt: np.ndarray) -> float:
    best = math.inf
    for k in range(trajs.shape[0]):
        best = min(best, math.hypot(trajs[k, -1, 0] - gt[-1, 0], trajs[k, -1, 1] - gt[-1, 1]))
    return best


def brute_miss(trajs: np.ndarray, gt: np.ndarray, threshold: float) -> float:
    return 1.0 if brute_min_fde(trajs, gt) > threshold else 0.0


def brute_b_min_fde(trajs: np.ndarray, probs: np.ndarray, gt: np.ndarray) -> float:
    fdes = [math.hypot(trajs[k, -1, 0] - gt[-1, 0], trajs[k, -1, 1] - gt[-1, 1])
            for k in range(trajs.shape[0])]
    best = int(np.argmin(fdes))
    return fdes[best] + (1.0 - probs[best]) ** 2


def adam_reference(weights: dict, grads: dict, m: dict, v: dict, t: int, lr: float) -> int:
    """One Adam step (beta1 0.9, beta2 0.999, eps 1e-8, bias-corrected), one
    parameter name at a time, in place on `weights`, `m` and `v`. A name whose
    gradient is None is skipped: its weights and moments stay as they are.
    Returns the new step count."""
    t += 1
    for name, g in grads.items():
        if g is None:
            continue
        m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
        v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
        m_hat = m[name] / (1.0 - 0.9 ** t)
        v_hat = v[name] / (1.0 - 0.999 ** t)
        weights[name] = weights[name] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return t
