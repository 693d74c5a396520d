"""Block computation of the Rng normal stream by lane jump-ahead.

``polar_normals`` gives the deviates that ``Rng.normal()`` gives one at a
time, and the state and spare it leaves. The xorshift step T is linear over
GF(2), so B steps form one 64 x 64 bit matrix T^B, and its powers give each
of L lanes the start state of its own run of B consecutive draws
(Haramoto et al. 2008; Vigna 2016). The lanes then step in lockstep as
numpy uint64 arrays, and the polar method runs on the uniform pairs in
stream order with a vector acceptance mask. Logarithms go through
``math.log``, because numpy's SIMD log is not promised to equal libm's;
every other operation is correctly rounded IEEE arithmetic either way.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .rng import UNIT_53, XORSHIFT_MULTIPLIER, xorshift_step


def polar_normals(state: int, spare: float | None, count: int
                  ) -> tuple[np.ndarray, int, float | None]:
    """``count`` polar normals from (state, spare): (deviates, state, spare)."""
    out = np.empty(count)
    k = 0
    if count and spare is not None:
        out[0] = spare
        spare = None
        k = 1
    while k < count:
        pairs = (count - k + 1) // 2
        # accepted pairs come at rate pi/4; a short block is refilled
        size = 2 * min(pairs * 4 // 3 + 16, _MAX_BLOCK // 2)
        states = _states(state, size)
        u = (states * _MULTIPLIER >> 11).astype(float)
        u *= UNIT_53
        u *= 2.0
        u -= 1.0
        u, v = u[0::2], u[1::2]
        s = u * u + v * v
        accepted = np.flatnonzero((0.0 < s) & (s < 1.0))[:pairs]
        last = 2 * int(accepted[-1]) + 1 if accepted.size == pairs else size - 1
        state = int(states[last])
        del states  # freed before the float list below, which keeps the peak low
        u, v, s = u[accepted], v[accepted], s[accepted]
        log_s = np.fromiter(map(math.log, s.tolist()), float, s.size)
        factor = np.sqrt(-2.0 * log_s / s)
        take = min(2 * s.size, count - k)
        out[k : k + take : 2] = (u * factor)[: (take + 1) // 2]
        out[k + 1 : k + take : 2] = (v * factor)[: take // 2]
        if take % 2:
            spare = float(v[-1] * factor[-1])
        k += take
    return out, state, spare


_MULTIPLIER = np.uint64(XORSHIFT_MULTIPLIER)
_LANE_STEPS = 16  # B: consecutive draws per lane
_MAX_BLOCK = 1 << 16  # draws per block, which bounds a block's memory


def _table(rows: np.ndarray) -> np.ndarray:
    """(8, 256) byte table of the GF(2)-linear map taking bit i to rows[i].

    Entry [c, v] is the image of byte value v in octet c, so a 64-bit word
    maps to the xor of its eight octets' entries.
    """
    byte_bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1) == 1
    picked = np.where(byte_bits, rows.reshape(8, 1, 8), np.uint64(0))
    return np.bitwise_xor.reduce(picked, axis=2)


def _apply(table: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The map that ``table`` encodes, applied to each uint64 word."""
    octets = words.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.bitwise_xor.reduce(table[np.arange(8), octets], axis=1)


@functools.cache
def _jump_tables() -> tuple[np.ndarray, ...]:
    """Byte tables of T^(B * 2^i) for every lane doubling a block can need.

    Built on the first batch and kept for the life of the process.
    """
    rows = np.array([xorshift_step(1 << b) for b in range(64)], dtype=np.uint64)
    for _ in range(_LANE_STEPS.bit_length() - 1):  # squarings: T -> T^B
        rows = _apply(_table(rows), rows)
    tables = []
    for _ in range((_MAX_BLOCK // _LANE_STEPS - 1).bit_length()):
        tables.append(_table(rows))
        rows = _apply(tables[-1], rows)
    return tuple(tables)


def _lane_starts(state: int, lanes: int) -> np.ndarray:
    """States B * l steps past ``state`` for l = 0 .. lanes - 1."""
    starts = np.array([state], dtype=np.uint64)
    for table in _jump_tables():
        if starts.size >= lanes:
            break
        starts = np.concatenate([starts, _apply(table, starts[: lanes - starts.size])])
    return starts


def _states(state: int, size: int) -> np.ndarray:
    """The ``size`` xorshift states that follow ``state``, in stream order."""
    lanes = -(-size // _LANE_STEPS)
    x = _lane_starts(state, lanes)
    t = np.empty_like(x)
    states = np.empty((lanes, _LANE_STEPS), dtype=np.uint64)
    for step in range(_LANE_STEPS):
        np.right_shift(x, 12, out=t)
        x ^= t
        np.left_shift(x, 25, out=t)
        x ^= t
        np.right_shift(x, 27, out=t)
        x ^= t
        states[:, step] = x
    return states.ravel()[:size]
