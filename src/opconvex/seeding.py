"""The PCG64 start states of ``numpy.random.default_rng(seed)``, derived
for a batch of integer seeds at once.

``default_rng(s)`` for a 64-bit int s seeds PCG64 in three steps, fixed by
numpy's RNG policy (NEP 19): SeedSequence mixes the words (lo, hi, 0, 0)
of s into a pool of four 32-bit words, generate_state(4, uint64) hashes
the pool into four 64-bit words, and PCG64 sets its 128-bit state and
increment from them. ``pcg64_states`` runs the first two steps on uint64
arrays over the batch and the last one per seed on Python ints, which
in batches of tens of seeds costs a fraction of building one generator
per seed. Each array operand holds a 32-bit word and every product is
masked back to 32 bits, so nothing overflows uint64.
"""
import numpy as np

_MASK32 = np.array(0xFFFF_FFFF, np.uint64)
_SHIFT16 = np.array(16, np.uint64)
_SHIFT32 = np.array(32, np.uint64)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's running hash constant init * mult^k mod 2^32, k <
    count, as a (count, 1) column."""
    h = [init]
    for _ in range(count - 1):
        h.append(h[-1] * mult & 0xFFFF_FFFF)
    return np.array(h, np.uint64)[:, None]


def _hashmix(value, xor, mult):
    """SeedSequence's hash of a word: xor with the running constant, times
    its next value, then an xorshift."""
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> _SHIFT16)


# The entropy mix makes 16 hash calls, 4 to fill the pool and 12 to mix
# it; call k xors with constant k and multiplies by constant k + 1.
_MIX_CONSTANTS = _hash_constants(0x43B0_D7E5, 0x931E_8875, 17)
# The pool's words 2 and 3 hash the zero word: constants.
_ZERO_WORDS = _hashmix(np.zeros((2, 1), np.uint64), _MIX_CONSTANTS[2:4],
                       _MIX_CONSTANTS[3:5])
# Mixing round r hashes pool word r into each other word d, in order of
# d; round r's constants for word d sit at [r, d] (unused at [r, r]).
_ROUND_XOR = np.zeros((4, 4, 1), np.uint64)
_ROUND_MULT = np.zeros((4, 4, 1), np.uint64)
_ROUND_XOR[~np.eye(4, dtype=bool)] = _MIX_CONSTANTS[4:16]
_ROUND_MULT[~np.eye(4, dtype=bool)] = _MIX_CONSTANTS[5:17]
# mix(x, y) = MIX_MULT_L x - MIX_MULT_R y mod 2^32, with -MIX_MULT_R as
# its positive residue so that no difference wraps
_MIX_L = np.array(0xCA01_F9DD, np.uint64)
_MIX_R = np.array((1 << 32) - 0x4973_F715, np.uint64)
# generate_state hashes the pool twice over into eight 32-bit words
_STATE_CONSTANTS = _hash_constants(0x8B51_F9DD, 0x58F3_8DED, 9)
_PCG64_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_MASK128 = (1 << 128) - 1


def pcg64_states(seeds: list) -> list:
    """Per seed s, the PCG64 state dict ``numpy.random.default_rng(s)``
    starts from, with no 32-bit half buffered."""
    s = np.array(seeds, np.uint64)
    pool = np.empty((4, s.size), np.uint64)
    pool[:2] = _hashmix(np.stack([s & _MASK32, s >> _SHIFT32]),
                        _MIX_CONSTANTS[:2], _MIX_CONSTANTS[1:3])
    pool[2:] = _ZERO_WORDS
    for r in range(4):
        h = _hashmix(pool[r], _ROUND_XOR[r], _ROUND_MULT[r])
        mixed = ((_MIX_L * pool) & _MASK32) + _MIX_R * h
        mixed &= _MASK32
        mixed ^= mixed >> _SHIFT16
        mixed[r] = pool[r]
        pool = mixed
    w = _hashmix(np.concatenate([pool, pool]), _STATE_CONSTANTS[:8],
                 _STATE_CONSTANTS[1:])
    # little-endian pairs of 32-bit words: seed high/low, increment high/low
    words = w[0::2] | (w[1::2] << _SHIFT32)
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*words.tolist()):
        inc = (((inc_hi << 64) | inc_lo) << 1 | 1) & _MASK128
        state = ((((seed_hi << 64) | seed_lo) + inc) * _PCG64_MULT
                 + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states
