"""Seeded uniform draws, computed with numpy arrays and no ``numpy.random``.

Trial i of a seed draws the first ``random()`` of
``numpy.random.default_rng([seed, i])``.  :func:`trial_uniforms` gives that
draw for every i below a count, bit for bit, by running numpy's seeding (the
``SeedSequence`` hash and the PCG64 set-up) on arrays.  The seeded trial
harness (:mod:`qdtest.experiments`) and the Haar garbage of the purified
oracles (:func:`qdtest.oracles.haar_unitary`) both draw from it, so neither
imports ``numpy.random``.
"""
from __future__ import annotations

import numpy as np

# numpy's SeedSequence hash constants (pool of four uint32 words) and the
# PCG64 multiplier.
_M32, _M64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

# Trials per block of trial_uniforms, whose array code holds about 40 uint32
# or uint64 rows of a block's length at once.
_UNIFORM_BLOCK = 4096


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The constants of SeedSequence's first ``calls`` hashmix calls, as a
    column: call k xors with row k and multiplies by row k + 1.  They advance
    with every call but never depend on the data."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _M32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray, first: int, calls: int) -> np.ndarray:
    """hashmix calls ``first`` to ``first + calls - 1`` on uint32 arrays: row r
    of the result is call ``first + r`` on row r of ``values``, or on
    ``values`` itself if it is one row."""
    value = values ^ consts[first:first + calls]
    value *= consts[first + 1:first + calls + 1]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix``, overwriting both arguments."""
    x *= _MIX_L
    y *= _MIX_R
    x -= y
    x ^= x >> 16
    return x


# The pool rows each source row is mixed into, in SeedSequence's order.
_OTHERS = tuple([dst for dst in range(4) if dst != src] for src in range(4))
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)

# The first random() of default_rng([seed, i]) steps PCG64 once after seeding
# it, and seeding sets the state to (inc + initstate) stepped once, so the
# state it reads is initstate * M^2 + inc * (M^2 + M + 1) mod 2^128 for the
# multiplier M.  The two factors, row by row, as 64-bit halves:
_STATE_MULTS = (_PCG_MULT ** 2, _PCG_MULT ** 2 + _PCG_MULT + 1)
_STATE_MULT_HI = np.array([[(c >> 64) & _M64] for c in _STATE_MULTS], dtype=np.uint64)
_STATE_MULT_LO = np.array([[c & _M64] for c in _STATE_MULTS], dtype=np.uint64)


def _mul128(hi: np.ndarray, lo: np.ndarray, c_hi: np.ndarray,
            c_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * (c_hi, c_lo) mod 2^128 on 64-bit halves, as (high, low);
    the high word of lo * c_lo comes from its 32-bit halves."""
    a0, a1 = lo & _M32, lo >> 32
    c0, c1 = c_lo & _M32, c_lo >> 32
    u = a1 * c0 + ((a0 * c0) >> 32)
    w = a0 * c1 + (u & _M32)
    high = a1 * c1 + (u >> 32) + (w >> 32) + lo * c_hi + hi * c_lo
    return high, lo * c_lo


def trial_uniforms(seed: int, trials: int) -> np.ndarray:
    """``[default_rng([seed, i]).random() for i in range(trials)]``, bit for
    bit, computed on arrays over blocks of ``_UNIFORM_BLOCK`` trials.

    ``default_rng([seed, i])`` hashes the 32-bit words of seed and i
    (little-endian, 0 as one word) into a pool of four words, expands it
    into PCG64's 128-bit initial state and increment, seeds the generator
    and steps it once; ``random()`` is the top 53 bits of its XSL-RR output.
    Every step runs here on arrays over i (:func:`_block_uniforms`).
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    words = [(seed >> shift) & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    out = np.empty(trials, dtype=np.float64)
    for start in range(0, trials, _UNIFORM_BLOCK):
        index = np.arange(start, min(start + _UNIFORM_BLOCK, trials), dtype=np.uint32)
        out[start:start + index.size] = _block_uniforms(words, index)
    return out


def _block_uniforms(words: list[int], index: np.ndarray) -> np.ndarray:
    """``default_rng([seed, i]).random()`` for each i in ``index``, where
    ``words`` are the 32-bit words of the seed.

    Each stage runs on all the pool rows it updates at once: the hash of one
    source row is mixed into the other three rows together, and both of
    PCG64's 128-bit products are one pass over two rows.
    """
    trials = index.size
    entropy = np.zeros((max(4, len(words) + 1), trials), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = index
    consts = _hash_consts(_INIT_A, _MULT_A, 4 * len(entropy))
    pool = _hashmix(entropy[:4], consts, 0, 4)
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, 4 + 3 * src, 3))
    for k, word in enumerate(entropy[4:]):
        pool = _mix(pool, _hashmix(word, consts, 16 + 4 * k, 4))

    # generate_state(4, uint64): word k is out[2k] | out[2k+1] << 32, and
    # PCG64 takes words 0, 1 as initstate and 2, 3 as initseq, high first.
    out = _hashmix(np.concatenate((pool, pool)), _HASH_B, 0, 8).astype(np.uint64)
    state = out[0::2] | (out[1::2] << 32)
    hi, lo = state[0::2], state[1::2]  # rows: initstate, initseq
    hi[1] = (hi[1] << 1) | (lo[1] >> 63)  # inc = initseq << 1 | 1
    lo[1] = (lo[1] << 1) | 1
    hi, lo = _mul128(hi, lo, _STATE_MULT_HI, _STATE_MULT_LO)
    # the carry out of lo[0] + lo[1] is bit 63 of half their sum, rounded down
    carry = ((lo[0] >> 1) + (lo[1] >> 1) + (lo[0] & lo[1] & 1)) >> 63
    low = lo[0] + lo[1]
    high = hi[0] + hi[1] + carry

    folded = high ^ low
    rotation = high >> 58
    bits = (folded >> rotation) | (folded << ((64 - rotation) & 63))
    return (bits >> 11) * 2.0 ** -53
