"""Deterministic derivation of random streams from a single run seed.

Every stochastic component draws from its own numpy Generator, derived from
``(seed, purpose, index)``.  The purpose string is folded to a 64-bit integer
with BLAKE2, and the triple feeds a numpy SeedSequence, so streams are
independent, reproducible, and insensitive to execution order or degree of
parallelism.

Batched streams, for the coupled walks: ``stream_states`` seeds the PCG64
states of many indices at once, ``stream_integers`` draws a bounded integer
from each, and ``draw_uniforms`` draws four uniforms from each.  They run
SeedSequence's pool mix and PCG64's 128-bit LCG with XSL-RR output on uint64
arrays, so stream ``i`` gives bit for bit what ``derive_rng(seed, purpose,
indices[i])`` gives through ``integers()`` and ``random()``, with no
Generator built.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "derive_rng"]

STREAM_LIMIT = 1 << 32  # stream_states' indices lie below it, so a coupled run has at most this many trials
_MASK64 = (1 << 64) - 1
_M32 = 0xFFFFFFFF
# numpy.random.SeedSequence hash constants, and the PCG64 multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def derive_seed(seed: int, purpose: str, index: int = 0) -> tuple[int, int, int]:
    """Return the SeedSequence entropy triple for a derived stream."""
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    tag = hashlib.blake2b(purpose.encode("utf-8"), digest_size=8).digest()
    return (int(seed) & _MASK64, int.from_bytes(tag, "big"), int(index))


def derive_rng(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Child generator for ``purpose``/``index``, independent of all siblings."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(derive_seed(seed, purpose, index))))


def _words(n: int) -> list[int]:
    # SeedSequence's entropy words of a nonnegative int: 32 bits each, low first.
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _mulhi(a, b):
    # High 64 bits of the 128-bit products a * b, from 32-bit halves.
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (cross0 & _M32) + (cross1 & _M32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)


def _lcg(hi, lo, inc_hi, inc_lo, mult: int):
    # (hi:lo) * mult + (inc_hi:inc_lo) mod 2^128, as (high, low) words.
    m_hi, m_lo = mult >> 64, mult & _MASK64
    low = lo * m_lo
    out_lo = low + inc_lo
    return _mulhi(lo, m_lo) + hi * m_lo + lo * m_hi + inc_hi + (out_lo < low), out_lo


def _xsl_rr(hi, lo):
    # PCG64's output: (hi ^ lo) rotated right by the top six state bits.
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (-rot & 63)


def stream_states(seed: int, purpose: str, indices) -> np.ndarray:
    """PCG64 states of ``derive_rng(seed, purpose, i)`` for each i in ``indices``.

    Row i is ``(state_hi, state_lo, inc_hi, inc_lo)`` as uint64.  Indices
    must lie in ``[0, 2^32)``: a larger index adds a SeedSequence entropy
    word, which this batch path does not reproduce.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and idx.min() < 0:
        raise ValueError("stream index must be nonnegative")
    if idx.size and idx.max() >= STREAM_LIMIT:
        raise ValueError("batched stream indices must be below 2^32")
    s, tag, _ = derive_seed(seed, purpose)
    entropy = [np.full(len(idx), w, dtype=np.uint64) for w in _words(s) + _words(tag)]
    entropy.append(idx.astype(np.uint64))

    # SeedSequence: the pool of four words, mixed with the entropy...
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        out = (_MIX_L * x - _MIX_R * y) & _M32
        return out ^ out >> 16

    zero = np.zeros(len(idx), dtype=np.uint64)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # ...then generate_state(4, uint64): eight words, paired little-endian.
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    seed_hi, seed_lo, seq_hi, seq_lo = (out[2 * j] | out[2 * j + 1] << 32 for j in range(4))

    # pcg_setseq_128_srandom_r: inc = 2 * seq + 1; state = (inc + seed) * mult + inc.
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    return np.stack([*_lcg(hi, lo, inc_hi, inc_lo, _PCG_MULT), inc_hi, inc_lo], axis=1)


def stream_integers(states: np.ndarray, bound: int) -> np.ndarray:
    """One ``Generator.integers(bound)`` draw per stream, for ``0 < bound < 2^32``.

    Lemire's method on 32-bit draws: each 64-bit output gives its low half,
    then its high half on a rejection.  An unused high half is dropped, as
    the Generator's uniforms after it skip its buffer.  A bound of 1 draws
    nothing.  Returns the int64 draws and advances ``states`` in place.
    """
    if not 0 < bound < 1 << 32:
        raise ValueError(f"bound must lie in (0, 2^32), got {bound}")
    threshold = ((1 << 32) - bound) % bound
    draws = np.zeros(len(states), dtype=np.int64)
    todo = np.arange(len(states) if bound > 1 else 0)
    while todo.size:
        hi, lo, inc_hi, inc_lo = states[todo].T
        hi, lo = _lcg(hi, lo, inc_hi, inc_lo, _PCG_MULT)
        states[todo, 0], states[todo, 1] = hi, lo
        raw = _xsl_rr(hi, lo)
        scaled = np.stack([raw & _M32, raw >> 32], axis=1) * bound
        ok = (scaled & _M32) >= threshold
        hit = ok.any(axis=1)
        first = np.argmax(ok[hit], axis=1)
        draws[todo[hit]] = scaled[hit, first] >> 32
        todo = todo[~hit]
    return draws


def draw_uniforms(states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The next four uniforms of streams ``rows``, as ``Generator.random`` draws them.

    Returns ``(len(rows), 4)`` uniforms and advances those rows of ``states``
    in place.
    """
    hi, lo, inc_hi, inc_lo = states[rows].T
    uniforms = np.empty((len(rows), 4))
    for j in range(4):
        hi, lo = _lcg(hi, lo, inc_hi, inc_lo, _PCG_MULT)
        uniforms[:, j] = (_xsl_rr(hi, lo) >> 11) * 2.0**-53
    states[rows, 0], states[rows, 1] = hi, lo
    return uniforms
