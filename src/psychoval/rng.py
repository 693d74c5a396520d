"""Deterministic random numbers for the data simulator.

The stream generator is xorshift64* (Marsaglia xorshift with the Vigna
multiplier): state updates x ^= x >> 12; x ^= x << 25; x ^= x >> 27 in
64-bit arithmetic, output (x * 0x2545F4914F6CDD1D) mod 2^64. Seeds pass
through one splitmix64 step first so nearby seeds give unrelated streams
and seed 0 is safe. Uniforms take the top 53 output bits; normal deviates
use the Marsaglia polar method with the spare deviate cached across calls
(part of the stream contract). Every constant is spelled out so another
language can reproduce the streams bit for bit.

The stream contract is the scalar code in this module, and it does not
depend on how the stream is computed. ``normals(count)`` returns exactly
the deviates of ``count`` calls of ``normal()`` and leaves the same state
and spare, but computes them in blocks by lane jump-ahead (``lanes.py``).
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from .errors import ConfigError

MASK64 = 0xFFFFFFFFFFFFFFFF
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_MIX1 = 0xBF58476D1CE4E5B9
SPLITMIX_MIX2 = 0x94D049BB133111EB
XORSHIFT_MULTIPLIER = 0x2545F4914F6CDD1D
# substitute state for the single seed whose splitmix64 output is zero
ZERO_STATE_SUBSTITUTE = 0xD1B54A32D192ED03
UNIT_53 = 1.0 / (1 << 53)


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: (state, output) -> (next state, mixed output)."""
    state = (state + SPLITMIX_GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * SPLITMIX_MIX1) & MASK64
    z = ((z ^ (z >> 27)) * SPLITMIX_MIX2) & MASK64
    z ^= z >> 31
    return state, z


def as_int(value, what: str) -> int:
    """``value`` as a Python int, numpy integers included; ConfigError otherwise, a bool included."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def check_real(value, what: str) -> None:
    """ConfigError unless ``value`` is a real number, numpy's included; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")


def derive_seed(seed: int, index: int) -> int:
    """Child seed for stream number ``index``: splitmix64's step index+1 from seed, in closed form."""
    index = as_int(index, "stream index")
    if index < 0:
        raise ConfigError("stream index must be nonnegative")
    return splitmix64((as_int(seed, "seed") + index * SPLITMIX_GAMMA) & MASK64)[1]


class Rng:
    """xorshift64* stream with splitmix64 seeding and polar normals."""

    def __init__(self, seed: int):
        _, state = splitmix64(as_int(seed, "seed") & MASK64)
        self._state = state or ZERO_STATE_SUBSTITUTE
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = x = xorshift_step(self._state)
        return (x * XORSHIFT_MULTIPLIER) & MASK64

    def uniform(self) -> float:
        """Float in [0, 1) built from the top 53 output bits."""
        return (self.next_u64() >> 11) * UNIT_53

    def normal(self) -> float:
        """Standard normal deviate by the polar (rejection) method."""
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        while True:
            u = 2.0 * self.uniform() - 1.0
            v = 2.0 * self.uniform() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                break
        factor = math.sqrt(-2.0 * math.log(s) / s)
        self._spare = v * factor
        return u * factor

    def normals(self, count: int) -> np.ndarray:
        """The next ``count`` normal deviates, equal to ``count`` calls of normal()."""
        if as_int(count, "normal count") < 0:
            raise ConfigError(f"normal count must be nonnegative, got {count}")
        # imported on first use, so `import psychoval` neither loads nor compiles it
        from .lanes import polar_normals

        out, self._state, self._spare = polar_normals(self._state, self._spare, count)
        return out


def xorshift_step(x: int) -> int:
    """One xorshift64* state update."""
    x ^= x >> 12
    x = (x ^ (x << 25)) & MASK64
    return x ^ (x >> 27)
