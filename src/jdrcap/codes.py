"""Binary code families: Hadamard, first-order Reed-Muller, the (2,3,1) inner
code, fast Walsh-Hadamard transform utilities and the ML hard decoder.

Bit convention, fixed project-wide: bit 0 <-> amplitude +alpha, bit 1 <-> -alpha.
The pilot (ancilla) coordinate, when present, is prepended as coordinate 0.

Every Walsh-Hadamard product, in the FWHT and in hard decoding, runs
through one kernel, _walsh_blocks. Hard decoding takes 0/1 words only,
packed to bits, and reads each 16-bit chunk's transform from a cached int8
table, as exact as the float product.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class BinaryCode:
    """An (n, K, d) binary code; ``codewords`` is the K x n bit matrix."""

    n: int
    size: int
    d: int
    codewords: np.ndarray = field(repr=False)
    family: str = "generic"

    def __post_init__(self):
        cw = np.ascontiguousarray(self.codewords, dtype=np.uint8)
        if cw.shape != (self.size, self.n):
            raise ValueError(f"codeword matrix shape {cw.shape} != ({self.size}, {self.n})")
        cw.setflags(write=False)
        object.__setattr__(self, "codewords", cw)

    def amplitudes(self, alpha):
        """BPSK mode amplitudes of every codeword: bit 0 -> +alpha, bit 1 -> -alpha."""
        return alpha * (1.0 - 2.0 * self.codewords.astype(float))


def code_order(m, least=1):
    """m as an int; ValueError unless it is an integer >= least, numpy integers included."""
    if not isinstance(m, numbers.Integral) or m < least:
        raise ValueError(f"need m >= {least}, an integer, got {m}")
    return int(m)


def sylvester_hadamard(m):
    """The 2^m x 2^m Sylvester-Hadamard matrix with +-1 entries, H H^T = 2^m I.

    Entry (i, j) is (-1)^popcount(i & j), the closed form of the recursion
    H_{2k} = [[H_k, H_k], [H_k, -H_k]]. m = 0 gives H_1 = [[1]].
    """
    i = np.arange(1 << code_order(m, least=0))
    return 1 - 2 * (np.bitwise_count(i[:, None] & i) & 1).astype(np.int64)


def hadamard_code(m, with_ancilla=False):
    """The (2^m - 1, 2^m, 2^{m-1}) binary Hadamard code.

    Rows of the Sylvester matrix mapped +1 -> 0, -1 -> 1. With the ancilla
    (pilot) the constant first coordinate is kept, giving block length 2^m;
    without it that coordinate is deleted.
    """
    m = code_order(m)
    bits = ((1 - sylvester_hadamard(m)) // 2).astype(np.uint8)
    if not with_ancilla:
        bits = bits[:, 1:]
    return BinaryCode(n=bits.shape[1], size=2 ** m, d=2 ** (m - 1), codewords=bits,
                      family="hadamard")


def rm1_code(m):
    """The (2^m, 2^{m+1}, 2^{m-1}) first-order Reed-Muller code RM(1,m).

    The Hadamard code with the pilot coordinate, appended with all codewords
    bit-flipped: the first 2^m codewords are the Hadamard rows and the rest
    their complements.
    """
    had = hadamard_code(m, with_ancilla=True).codewords
    bits = np.vstack([had, 1 - had])
    d = 1 if m == 1 else 2 ** (m - 1)
    return BinaryCode(n=2 ** m, size=2 ** (m + 1), d=d, codewords=bits, family="rm1")


def two_symbol_code():
    """The nonlinear (2, 3, 1) inner code {00, 01, 10}.

    Symbol order matches the two-mode state set {|aa>, |a,-a>, |-a,a>}; the
    all-ones word is excluded; the code is used for capacity only.
    """
    bits = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.uint8)
    return BinaryCode(n=2, size=3, d=1, codewords=bits, family="two_symbol")


@functools.cache
def _factor(k, dtype):
    """H_{2^k} as a read-only array of ``dtype``, built once per (k, dtype)."""
    h = sylvester_hadamard(k).astype(dtype)
    h.setflags(write=False)
    return h


def _walsh_blocks(y):
    """H_c @ Y for each (c, w) block Y of the C-contiguous (rows, c, w) array
    ``y``, with c = 2^k: one batched product for c <= 32, the FWHT's H_a at
    every length up to 2^10 = 32 x 32; above that one with each factor of
    H_c = H_a (x) H_b, a + b rather than c multiply-adds per entry."""
    rows, c, w = y.shape
    k = c.bit_length() - 1
    if c <= 32:
        return np.matmul(_factor(k, y.dtype), y)
    a, b = 1 << k // 2, 1 << k - k // 2
    y = np.matmul(_factor(k // 2, y.dtype), y.reshape(rows, a, b * w))
    y = np.matmul(_factor(k - k // 2, y.dtype), y.reshape(rows * a, b, w))
    return y.reshape(rows, c, w)


def fwht(v):
    """Walsh-Hadamard transform over the last axis of an (..., n) array.

    The product with the n x n Sylvester matrix, unnormalized. Each length-n
    row, n = 2^m, is viewed as an (a, b) array X with a = 2^floor(m/2) and
    b = 2^ceil(m/2); since H_n = H_a (x) H_b, its transform is
    H_a @ X @ H_b: one 2-D product with H_b over every row, then
    _walsh_blocks with H_a. It is exact on integer-valued input whose sums
    fit the dtype's mantissa. Floating and complex inputs keep their dtype;
    others become float64. Input length must be a power of two.
    """
    v = np.asarray(v)
    if v.dtype.kind not in "fc":
        v = v.astype(float)
    n = v.shape[-1] if v.ndim else 0
    if n == 0 or n & (n - 1):
        raise ValueError(f"FWHT needs a power-of-two length, got {n}")
    m = n.bit_length() - 1
    a, b = 1 << m // 2, 1 << m - m // 2
    # a 2-D operand makes this one BLAS call, not one per batch row
    y = np.matmul(np.ascontiguousarray(v.reshape(-1, b)), _factor(m - m // 2, v.dtype))
    return _walsh_blocks(y.reshape(-1, a, b)).reshape(v.shape)


@functools.cache
def _walsh_table():
    """T[v] = bits(v) @ H_16 for every 16-bit word v (mode 0 its most
    significant bit), as a read-only int8 (2^16, 16) array of 1 MB, built
    once. Entries are integers in [-16, 16]."""
    words = np.arange(1 << 16, dtype=">u2").view(np.uint8)
    bits = np.unpackbits(words).view(np.int8).reshape(-1, 16)
    table = bits @ _factor(4, np.int8)
    table.setflags(write=False)
    return table


def _pack_rows(bits):
    """The rows of a C-contiguous (rows, 2^m) 0/1 array as the packed words
    _argmin_decode reads: zero-padded at the back to at least 16 bits, then
    np.packbits(bits, axis=1) by one call over the flat array (along axis 1
    numpy packs row by row, up to 40x slower on 16-bit rows)."""
    if bits.shape[1] < 16:
        # np.pad costs about twice a zeroed buffer and one slice assignment
        padded = np.zeros((len(bits), 16), dtype=bits.dtype)
        padded[:, :bits.shape[1]] = bits
        bits = padded
    return np.packbits(bits.reshape(-1)).reshape(len(bits), bits.shape[1] // 8)


def _argmin_decode(words, modes, rm1=False):
    """ML codeword indices of received 0/1 words of ``modes`` = 2^m bits,
    zero-padded at the front where a pilot was deleted and packed by
    _pack_rows into the rows of the uint8 array ``words``. See ml_decode_hard.

    The transform of each 16-bit chunk is read from _walsh_table(), and
    words of more than one chunk go on to _walsh_blocks in float32 with
    H_{modes/16}, the other factor of H_modes = H_{modes/16} (x) H_16. A
    shorter word is the head of its chunk, and the head of the chunk's row
    is the word's transform.
    """
    # np.take: fancy indexing is several times slower here
    dist = np.take(_walsh_table(), words.view(">u2"), axis=0)
    if modes > 16:
        dist = _walsh_blocks(dist.astype(np.float32))
    dist = dist.reshape(len(words), 8 * words.shape[1])[:, :modes]
    # distances minus 2^{m-1}: exact integers, same argmin
    dist[:, 0] -= modes // 2
    if rm1:
        dist = np.concatenate([dist, -dist], axis=1)
    return np.argmin(dist, axis=1)


def ml_decode_hard(code, received):
    """Maximum-likelihood (minimum Hamming distance) hard decoding of a
    Hadamard or RM(1,m) code; other code families raise ValueError.

    ``received`` is one word (n,), decoded to an int, or a batch (..., n),
    decoded to an index array. Its entries must be 0 or 1 (bool, integer or
    float), else ValueError. Each word is decoded by its Walsh-Hadamard
    transform y, zero-padded at the front to 2^m modes where the pilot
    coordinate was deleted: bit-packed, with the transform of each 16-bit
    chunk read from a table (_argmin_decode). Every row but the all-zero
    row 0 has weight 2^{m-1}, so the distance to row j, less 2^{m-1}, is
    y_j for j > 0 and y_0 - 2^{m-1} for j = 0; an RM(1,m) complement row
    (distance n - d_j) has the negated value. Ties break to the smallest
    index.
    """
    if code.family not in ("hadamard", "rm1"):
        raise ValueError(f"no ML decoder for the {code.family} code; "
                         "only hadamard and rm1 codes decode")
    received = np.asarray(received)
    if received.ndim == 0 or received.shape[-1] != code.n:
        raise ValueError(f"received length {received.shape} != block length {code.n}")
    bits = received.astype(bool)
    if not np.array_equal(bits, received):       # NaN fails too
        raise ValueError("received words must hold only 0 and 1")
    modes = code.size if code.family == "hadamard" else code.n
    rows = math.prod(received.shape[:-1])
    padded = np.zeros((rows, modes), dtype=bool)
    padded[:, modes - code.n:] = bits.reshape(rows, code.n)
    decoded = _argmin_decode(_pack_rows(padded), modes, rm1=code.family == "rm1")
    return int(decoded[0]) if received.ndim == 1 else decoded.reshape(received.shape[:-1])
