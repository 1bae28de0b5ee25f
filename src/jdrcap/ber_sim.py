"""Bit-error-rate curves for uncoded and Hadamard-coded BPSK.

Three schemes: uncoded symbols on the Dolinar receiver (analytic), the
(2^m - 1, 2^m, 2^{m-1}) Hadamard code detected symbol-by-symbol by Dolinar
receivers then ML-decoded (Monte Carlo), and the same code on the Green
Machine joint receiver (analytic, with erasures resolved by a uniformly
random codeword guess since a raw BER plot admits no outer code). The two
analytic curves take a scalar nbar or a whole nbar array.

Monte Carlo runs stream from numpy's default PCG64 generator seeded by
``SeedSequence(entropy=seed)``, so identical (m, nbar, trials, seed)
reproduce the BerPoint bit for bit and grid points can be simulated
independently.

Draw order, part of that contract: trials run in chunks of _CHUNK (the last
one shorter). Per chunk the generator draws the chunk's messages with
``integers(0, 2^m, size=batch)``, then ceil(batch * n / 8) raw 64-bit words,
each read as 8 little-endian bytes: one byte per symbol, n per trial, so the
byte for symbol i of trial t is the (t*n + i)-th, and the bytes past the
chunk's last symbol are dropped. With t = 256 q (exact), k = floor(t) and
f = t - k (exact), symbol i flips when its byte is below k. A byte equal to
k (one symbol in 256) flips when the next raw word of a second generator,
seeded by the seed's first spawned child ``SeedSequence``, is below
``ceil(f * 2^53) << 11``, the cut that ``Generator.random`` puts at f; that
stream is consumed over the ties in trial-major order across the whole call.
A flip then has probability k/256 + ceil(f * 2^53) / 2^61 =
ceil(q * 2^61) / 2^61, which is q to within 2^-61.

The bytes are read in blocks of a multiple of 8 trials, so each block is a
whole number of words. A block's flips are packed to bits by
``codes._pack_rows``, one 2^m-bit word per trial with the pilot as bit 0,
XORed with the packed sent codewords and decoded by
``codes._argmin_decode``. The block size only sets how much of that work
stays in cache at once: it does not change which byte flips which symbol.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .capacity_limits import _photons, dolinar_error_q
from .codes import _argmin_decode, _pack_rows, code_order, hadamard_code
from .entropy import _float_or_array

# Trials per message draw. It fixes the draw order, so changing it changes
# every seeded estimate.
_CHUNK = 50000
# Trials x 2^m per block: the decode's float32 transform of a block is then
# 512 KiB (512 trials at m = 8), half of a 1 MiB L2 per core. Twice that is
# a cliff: glibc trims each freed 1 MiB transform and faults it back in,
# about 97,000 minor faults and +67% time per 200000-trial point at m = 8,
# against none at this size, which stays 2x below it. It only sets how many
# of a chunk's trials are flipped and decoded at a time, rounded down to a
# multiple of 8, and can change freely.
_BLOCK_FLOATS = 1 << 17


@dataclass(frozen=True)
class BerPoint:
    """One Monte Carlo bit-error-rate estimate with its bit counts."""

    ber: float
    trials: int
    bit_errors: int
    total_bits: int

    @property
    def stderr(self):
        """Binomial standard error of the estimate."""
        return float(np.sqrt(self.ber * (1.0 - self.ber) / self.total_bits))


def uncoded_bpsk_ber(nbar):
    """Dolinar-receiver BER of a bare BPSK symbol: q(nbar), exact.

    A scalar nbar gives a float, an array an array aligned with it.
    """
    return dolinar_error_q(nbar)


def flip_cut(q):
    """The cut (k, cut) of a BSC(q) flip on one random byte: the symbol flips
    when its byte is below k, or equals k and the tie's raw word is below cut,
    with probability ceil(q * 2^61) / 2^61, for every q in [0, 1/2]."""
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"flip probability must lie in [0, 1/2], got {q}")
    k = math.floor(256.0 * q)
    return k, math.ceil((256.0 * q - k) * 2.0 ** 53) << 11


def _symbol_bytes(bits, count):
    """The next ``count`` symbol bytes of a bit generator: ceil(count / 8) raw
    words, each read as 8 little-endian bytes whatever the platform."""
    words = bits.random_raw(-(-count // 8))
    return words.astype("<u8", copy=False).view(np.uint8)[:count]


def hadamard_dr_ber(m, nbar, trials, seed):
    """Monte Carlo message-bit BER of the Hadamard code under symbol-wise detection.

    Each Dolinar receiver turns a symbol into a BSC(q) bit; the block is
    ML-decoded through the Walsh-Hadamard correlation. Message bits are the
    big-endian binary label of the codeword index, so bit errors are
    popcounts of index XORs. ``trials`` must be an integer (a float such as
    1e5 raises TypeError).
    """
    trials = operator.index(trials)
    if trials < 10_000:
        raise ValueError(f"need at least 10000 trials for a meaningful estimate, got {trials}")
    k, cut = flip_cut(dolinar_error_q(nbar))
    cut = np.uint64(cut)
    # with the pilot, which is bit 0 of the decode's words
    codewords = _pack_rows(hadamard_code(m, with_ancilla=True).codewords)
    K = 2 ** m
    n = K - 1
    rows = 8 * max(1, _BLOCK_FLOATS // (8 * K))
    seeds = np.random.SeedSequence(entropy=int(seed))
    rng = np.random.default_rng(seeds)
    tie_bits = np.random.default_rng(seeds.spawn(1)[0]).bit_generator
    bit_errors = 0
    # the flips buffer is allocated once per call and the decode's arrays
    # once per block: at _BLOCK_FLOATS, half of L2 and 2x below the
    # allocator's trim cliff, the freed arrays are reused with no minor
    # fault, against about 97,000 per point at twice the size. The pilot
    # column 0 of flips stays False.
    flips = np.zeros((rows, K), dtype=bool)
    for start in range(0, trials, _CHUNK):
        msg = rng.integers(0, K, size=min(_CHUNK, trials - start))
        for block in np.split(msg, range(rows, msg.size, rows)):
            size = block.size
            symbols = _symbol_bytes(rng.bit_generator, size * n)
            np.less(symbols.reshape(size, n), k, out=flips[:size, 1:K])
            # byte t, symbol t % n of trial t // n, is flips entry t + t // n + 1 (each
            # row leads with its pilot); ties come in trial-major order, as the contract says
            t = np.flatnonzero(symbols == k)
            flips[:size].reshape(-1)[t + t // n + 1] = tie_bits.random_raw(t.size) < cut
            # the raw bytes are dead once the flips are set: free them before the decode
            del symbols, t
            received = _pack_rows(flips[:size])
            received ^= np.take(codewords, block, axis=0)
            decoded = _argmin_decode(received, K)
            bit_errors += int(np.bitwise_count(block ^ decoded).sum())
    total_bits = trials * m
    return BerPoint(ber=bit_errors / total_bits, trials=trials, bit_errors=bit_errors,
                    total_bits=total_bits)


def hadamard_jdr_ber(m, nbar):
    """Exact message-bit BER of the Hadamard code on the Green Machine receiver.

    A click identifies the codeword exactly; an erasure (probability
    e^{-2^m nbar}) forces a uniformly random codeword guess. Message labels
    are the m-bit codeword indices, and over all pairs of labels the mean
    popcount(i ^ j) is m/2, so the guess gets half the bits wrong and the
    BER is e^{-2^m nbar} / 2. A scalar nbar gives a float, an array an array.
    """
    return _float_or_array(0.5 * np.exp(-(2 ** code_order(m)) * _photons(nbar)))
