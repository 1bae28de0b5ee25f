"""Bit-error-rate curves for uncoded and Hadamard-coded BPSK.

Three schemes: uncoded symbols on the Dolinar receiver (analytic), the
(2^m - 1, 2^m, 2^{m-1}) Hadamard code detected symbol-by-symbol by Dolinar
receivers then ML-decoded (Monte Carlo), and the same code on the Green
Machine joint receiver (analytic, with erasures resolved by a uniformly
random codeword guess since a raw BER plot admits no outer code). The two
analytic curves take a scalar nbar or a whole nbar array.

Monte Carlo runs stream from numpy's counter-based Philox generator keyed by
the recorded 64-bit seed, so identical (m, nbar, trials, seed) reproduce the
BerPoint bit for bit and grid points can be simulated independently.

Draw order, part of that contract: trials run in chunks of _CHUNK (the last
one shorter). Per chunk the generator draws the chunk's messages with
``integers(0, 2^m, size=batch)``, then batch * n raw 64-bit Philox words,
which are consumed in order, n per trial: the word for symbol i of trial t
is the (t*n + i)-th. Symbol i flips when its uniform (word >> 11) * 2^-53,
the double that ``Generator.random`` makes of the word, is below q. For
integers k and real x, k < x exactly when k < ceil(x), and q * 2^53 is
exact, so that test is ``word < ceil(q * 2^53) << 11`` on the raw word. The
words are read in blocks of about _BLOCK_WORDS, a whole number of trials
each, so each block is flipped, decoded and counted while it is still in
cache; the block size does not change which word flips which symbol.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .capacity_limits import _float_or_array, _photons, dolinar_error_q
from .codes import hadamard_code, ml_decode_hard

# Trials per message draw. It fixes the draw order, so changing it changes
# every seeded estimate.
_CHUNK = 50000
# Raw words per decoded block (1 MiB, half of a 2 MiB L2 cache). It only sets
# how many of a chunk's trials are decoded at a time, and can change freely.
_BLOCK_WORDS = 1 << 17


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
    """The raw-word threshold of a BSC(q) flip: word < flip_cut(q) iff the
    word's uniform double is below q, for every q in [0, 1/2]."""
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"flip probability must lie in [0, 1/2], got {q}")
    return math.ceil(q * 2.0 ** 53) << 11


def hadamard_dr_ber(m, nbar, trials, seed):
    """Monte Carlo message-bit BER of the Hadamard code under symbol-wise detection.

    Each Dolinar receiver turns a symbol into a BSC(q) bit; the block is
    ML-decoded through the Walsh-Hadamard correlation. Message bits are the
    big-endian binary label of the codeword index, so bit errors are
    popcounts of index XORs. ``trials`` must be an integer (a float such as
    1e5 raises TypeError).
    """
    trials = operator.index(trials)
    if trials < 10 ** 4:
        raise ValueError(f"need at least 1e4 trials for a meaningful estimate, got {trials}")
    q = dolinar_error_q(nbar)
    code = hadamard_code(m, with_ancilla=False)
    codewords = code.codewords
    K = code.size
    n = code.n
    rows = max(1, _BLOCK_WORDS // n)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    cut = np.uint64(flip_cut(q))
    bit_errors = 0
    # one pair of block buffers for the whole run: with fresh arrays per block,
    # the freed blocks crossed the allocator's trim threshold, and every block
    # page-faulted its memory in again (a third of the run's time)
    flips = np.empty((rows, n), dtype=bool)
    received = np.empty((rows, n), dtype=codewords.dtype)
    for start in range(0, trials, _CHUNK):
        msg = rng.integers(0, K, size=min(_CHUNK, trials - start))
        for block in np.split(msg, range(rows, msg.size, rows)):
            k = block.size
            np.less(rng.bit_generator.random_raw(k * n).reshape(k, n), cut, out=flips[:k])
            np.take(codewords, block, axis=0, out=received[:k])
            received[:k] ^= flips[:k]
            decoded = ml_decode_hard(code, received[:k])
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
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return _float_or_array(0.5 * np.exp(-(2 ** m) * _photons(nbar)))
