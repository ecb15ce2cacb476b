"""Seeded uniform draws, computed with numpy arrays and no ``numpy.random``.

:func:`trial_uniforms` gives ``default_rng([seed, i]).random()`` for every i
below a count, bit for bit, by running numpy's seeding (the ``SeedSequence``
hash and the PCG64 set-up) on arrays; :func:`trial_rng` is that generator
itself.  The seeded trial harness (:mod:`qdtest.experiments`) and the Haar
garbage of the purified oracles (:func:`qdtest.oracles.haar_unitary`) both
draw from it, so neither imports ``numpy.random``.
"""
from __future__ import annotations

import numpy as np


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent per-trial stream derived from (seed, trial index); trial
    ``index`` measures its phase from this stream's first ``random()``."""
    return np.random.default_rng([seed, index])


# numpy's SeedSequence hash constants (pool of four uint32 words) and the
# PCG64 multiplier.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

# Trials per block of trial_uniforms, whose array code holds about 35 arrays
# of a block's length at once.
_UNIFORM_BLOCK = 4096


def _hasher(init: int, mult: int):
    """SeedSequence's ``hashmix`` on uint32 arrays.  Its multiplier advances
    with every call but never depends on the data, so it stays a Python int."""
    const = init

    def hashmix(value):
        nonlocal const
        xor, const = const, (const * mult) & _M32
        value = (value ^ xor) * const
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> 16)


# 128-bit numbers below are four 32-bit limbs in uint64 arrays, least
# significant first, so that limb products and column sums cannot overflow.

def _carry(columns) -> list:
    """Limbs of the number whose 32-bit columns hold these sums, mod 2^128."""
    limbs, carry = [], 0
    for column in columns:
        total = column + carry
        limbs.append(total & _M32)
        carry = total >> 32
    return limbs


def _pcg_step(state: list, inc: list) -> list:
    """PCG64's step, state * multiplier + inc mod 2^128."""
    columns = list(inc)
    for i in range(4):
        for j in range(4 - i):
            product = state[i] * ((_PCG_MULT >> (32 * j)) & _M32)
            columns[i + j] = columns[i + j] + (product & _M32)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
    return _carry(columns)


def trial_uniforms(seed: int, trials: int) -> np.ndarray:
    """``[trial_rng(seed, i).random() for i in range(trials)]``, bit for bit,
    computed on arrays over blocks of ``_UNIFORM_BLOCK`` trials.

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
    """``trial_rng(seed, i).random()`` for each i in ``index``, where ``words``
    are the 32-bit words of the seed."""
    trials = index.size
    entropy = [np.full(trials, word, dtype=np.uint32) for word in words]
    entropy.append(index)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros(trials, np.uint32))
            for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    init_state = [out[2], out[3], out[0], out[1]]
    init_seq = [out[6], out[7], out[4], out[5]]
    inc = [((init_seq[0] << 1) & _M32) | 1] + [
        ((init_seq[k] << 1) & _M32) | (init_seq[k - 1] >> 31) for k in range(1, 4)]
    state = _carry([a + b for a, b in zip(inc, init_state)])
    state = _pcg_step(_pcg_step(state, inc), inc)

    folded = (state[2] ^ state[0]) | ((state[3] ^ state[1]) << 32)
    rotation = state[3] >> 26
    bits = (folded >> rotation) | (folded << ((64 - rotation) & 63))
    return (bits >> 11) * 2.0 ** -53
