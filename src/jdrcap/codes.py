"""Binary code families: Hadamard, first-order Reed-Muller, the (2,3,1) inner
code, fast Walsh-Hadamard transform utilities and the ML hard decoder.

Bit convention, fixed project-wide: bit 0 <-> amplitude +alpha, bit 1 <-> -alpha.
The pilot (ancilla) coordinate, when present, is prepended as coordinate 0.

Hard decoding takes 0/1 words only, packed to bytes: the first stage of its
transform reads each 16-bit chunk from a cached int8 table, as exact as the
float product of the FWHT.
"""

import functools
import math
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


def sylvester_hadamard(m):
    """The 2^m x 2^m Sylvester-Hadamard matrix with +-1 entries, H H^T = 2^m I.

    Entry (i, j) is (-1)^popcount(i & j), the closed form of the recursion
    H_{2k} = [[H_k, H_k], [H_k, -H_k]].
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    i = np.arange(1 << m)
    return 1 - 2 * (np.bitwise_count(i[:, None] & i) & 1).astype(np.int64)


def hadamard_code(m, with_ancilla=False):
    """The (2^m - 1, 2^m, 2^{m-1}) binary Hadamard code.

    Rows of the Sylvester matrix mapped +1 -> 0, -1 -> 1. With the ancilla
    (pilot) the constant first coordinate is kept, giving block length 2^m;
    without it that coordinate is deleted.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
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
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
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


def _walsh_into(src, scratch, dst):
    """dst = src @ H_n row by row, for C-contiguous (rows, n) arrays of one
    dtype with n = 2^m; dst may be src.

    Each row is viewed as an (a, b) array X with a = 2^floor(m/2),
    b = 2^ceil(m/2), and since H_n = H_a (x) H_b its transform is
    H_a @ X @ H_b: one 2-D product with H_b over every row into ``scratch``,
    then one batched product with H_a back into ``dst``. That costs a + b
    rather than n multiply-adds per output entry, and allocates nothing.
    """
    m = src.shape[-1].bit_length() - 1
    a, b = 1 << m // 2, 1 << m - m // 2
    # a 2-D operand makes this one BLAS call, not one per batch row
    np.matmul(src.reshape(-1, b), _factor(m - m // 2, src.dtype), out=scratch.reshape(-1, b))
    np.matmul(_factor(m // 2, src.dtype), scratch.reshape(-1, a, b), out=dst.reshape(-1, a, b))
    return dst


@functools.cache
def _walsh_table(width):
    """T[v] = bits(v) @ H_width for every width-bit word v (mode 0 its most
    significant bit), as a read-only int8 (2^width, width) array, built once
    per power-of-two width <= 16 by the Kronecker step
    T_2s[(a << s) | b] = [T_s[a] + T_s[b], T_s[a] - T_s[b]]. Entries are
    integers in [-width, width].
    """
    if width == 1:
        table = np.array([[0], [1]], dtype=np.int8)
    else:
        half = _walsh_table(width // 2)
        a, b = half[:, None], half[None, :]
        table = np.concatenate([a + b, a - b], axis=-1).reshape(-1, width)
    table.setflags(write=False)
    return table


def _pack_rows(bits):
    """np.packbits(bits, axis=1) for a C-contiguous (rows, 8j) 0/1 array, by
    one call over the flat array: along axis 1 numpy packs row by row, up to
    40x slower on 16-bit rows."""
    return np.packbits(bits.reshape(-1)).reshape(len(bits), bits.shape[1] // 8)


def _argmin_decode(words, modes, rm1=False):
    """ML codeword indices of received 0/1 words of ``modes`` = 2^m bits,
    zero-padded at the front and then at the back to whole bytes, packed
    into the rows of the uint8 array ``words`` (``_pack_rows``). See
    ml_decode_hard.

    The transform of each 16-bit chunk is read from _walsh_table(16), and
    only words of more than one chunk go on to a float32 product with
    H_{modes/16}, the other factor of H_modes = H_{modes/16} (x) H_16. A
    word of at most 8 bits is the head of its byte, and the byte's
    _walsh_table(8) row begins with the word's transform.
    """
    if modes <= 8:
        dist = np.take(_walsh_table(8)[:, :modes], words[:, 0], axis=0)
    else:
        # np.take: fancy indexing is several times slower here
        dist = np.take(_walsh_table(16), words.view(">u2"), axis=0)
        if modes > 16:
            dist = _combine_chunks(dist.astype(np.float32))
        dist = dist.reshape(len(words), modes)
    # distances minus 2^{m-1}: exact integers, same argmin
    dist[:, 0] -= modes // 2
    if rm1:
        dist = np.concatenate([dist, -dist], axis=1)
    return np.argmin(dist, axis=1)


def _combine_chunks(y):
    """H_c @ Y for each (c, 16) block Y of the float32 array ``y``: one
    batched product, or for c > 16 one with each factor of H_c = H_a (x) H_b,
    a + b rather than c multiply-adds per entry."""
    rows, c, width = y.shape
    k = c.bit_length() - 1
    if c <= 16:
        return np.matmul(_factor(k, y.dtype), y)
    y = np.matmul(_factor(k // 2, y.dtype), y.reshape(rows, 1 << k // 2, -1))
    return np.matmul(_factor(k - k // 2, y.dtype), y.reshape(-1, 1 << k - k // 2, width))


def fwht(v, normalized=False):
    """Walsh-Hadamard transform over the last axis of an (..., n) array.

    The plain variant equals multiplication by the Sylvester matrix; the
    normalized one scales by 1/sqrt(n) and is an involution. The transform
    is the two-factor product H_a @ X @ H_b of ``_walsh_into``. It is exact
    on integer-valued input whose sums fit the dtype's mantissa, which is
    what hard decoding relies on. Floating and complex inputs keep their
    dtype; others become float64. Input length must be a power of two.
    """
    v = np.asarray(v)
    if v.dtype.kind not in "fc":
        v = v.astype(float)
    n = v.shape[-1] if v.ndim else 0
    if n == 0 or n & (n - 1):
        raise ValueError(f"FWHT needs a power-of-two length, got {n}")
    src = np.ascontiguousarray(v.reshape(-1, n))
    out = _walsh_into(src, np.empty_like(src), np.empty_like(src)).reshape(v.shape)
    if normalized:
        out /= np.sqrt(n)
    return out


def ml_decode_hard(code, received):
    """Maximum-likelihood (minimum Hamming distance) hard decoding of a
    Hadamard or RM(1,m) code; other code families raise ValueError.

    ``received`` is one word (n,), decoded to an int, or a batch (..., n),
    decoded to an index array. Its entries must be 0 or 1 (bool, integer or
    float), else ValueError. Each word is decoded by its Walsh-Hadamard
    transform y, zero-padded at the front to 2^m modes where the pilot
    coordinate was deleted: bit-packed, with the first stage read from a
    table (_argmin_decode). Every row but the all-zero row 0 has weight
    2^{m-1}, so the distance to row j, less 2^{m-1}, is y_j for j > 0 and
    y_0 - 2^{m-1} for j = 0; an RM(1,m) complement row (distance n - d_j)
    has the negated value. Ties break to the smallest index.
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
    padded = np.zeros((rows, max(modes, 8)), dtype=bool)
    padded[:, modes - code.n:modes] = bits.reshape(rows, code.n)
    decoded = _argmin_decode(_pack_rows(padded), modes, rm1=code.family == "rm1")
    return int(decoded[0]) if received.ndim == 1 else decoded.reshape(received.shape[:-1])
