import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdrcap import codes

from oracles import brute_force_ml, correlation_ml, dense_walsh


def pairwise_distances(cw):
    return np.count_nonzero(cw[:, None, :] != cw[None, :, :], axis=2)


@pytest.mark.parametrize("build,m", [(codes.sylvester_hadamard, -1), (codes.hadamard_code, 0),
                                     (codes.rm1_code, 0)])
def test_rejects_code_order_below_range(build, m):
    with pytest.raises(ValueError, match=f"need m >= {m + 1}"):
        build(m)


def test_rejects_codewords_of_the_wrong_shape():
    with pytest.raises(ValueError, match="codeword matrix shape"):
        codes.BinaryCode(n=3, size=2, d=1, codewords=np.zeros((2, 2)))


class TestSylvesterHadamard:
    @pytest.mark.parametrize("m", [2.5, 3.0, "3", None])
    def test_rejects_a_non_integer_order(self, m):
        with pytest.raises(ValueError, match=f"need m >= 0, an integer, got {m}"):
            codes.sylvester_hadamard(m)

    def test_base_cases(self):
        assert codes.sylvester_hadamard(0).tolist() == [[1]]
        assert codes.sylvester_hadamard(1).tolist() == [[1, 1], [1, -1]]

    def test_orthogonality(self):
        H = codes.sylvester_hadamard(3)
        assert np.array_equal(H @ H.T, 8 * np.eye(8, dtype=np.int64))


class TestHadamardCode:
    def test_small_parameters(self):
        code = codes.hadamard_code(2)
        assert (code.n, code.size, code.d) == (3, 4, 2)
        assert code.codewords.tolist() == [[0, 0, 0], [1, 0, 1], [0, 1, 1], [1, 1, 0]]
        d = pairwise_distances(code.codewords)
        assert np.all(d[~np.eye(4, dtype=bool)] == 2)

    def test_ancilla_lengths(self):
        code = codes.hadamard_code(3, with_ancilla=True)
        assert (code.n, code.size, code.d) == (8, 8, 4)
        # the pilot coordinate is constant across codewords
        assert np.all(code.codewords[:, 0] == code.codewords[0, 0])

    @pytest.mark.parametrize("m", range(1, 7))
    def test_equidistant(self, m):
        code = codes.hadamard_code(m)
        d = pairwise_distances(code.codewords)
        off = d[~np.eye(code.size, dtype=bool)]
        assert np.all(off == 2 ** (m - 1))

    def test_rows_distinct(self):
        code = codes.hadamard_code(4)
        assert len({row.tobytes() for row in code.codewords}) == code.size


class TestRm1Code:
    def test_m1_is_full_square(self):
        code = codes.rm1_code(1)
        assert (code.n, code.size, code.d) == (2, 4, 1)
        assert {tuple(r) for r in code.codewords} == {(0, 0), (0, 1), (1, 1), (1, 0)}

    def test_m3_parameters(self):
        code = codes.rm1_code(3)
        assert (code.n, code.size, code.d) == (8, 16, 4)
        d = pairwise_distances(code.codewords)
        assert d[~np.eye(16, dtype=bool)].min() == 4

    @pytest.mark.parametrize("m", range(1, 6))
    def test_linear(self, m):
        cw = codes.rm1_code(m).codewords
        members = {row.tobytes() for row in cw}
        for i in range(len(cw)):
            for j in range(len(cw)):
                assert (cw[i] ^ cw[j]).tobytes() in members

    def test_contains_hadamard_then_complements(self, m=3):
        rm = codes.rm1_code(m).codewords
        had = codes.hadamard_code(m, with_ancilla=True).codewords
        assert np.array_equal(rm[: 2 ** m], had)
        assert np.array_equal(rm[2 ** m:], 1 - had)


class TestTwoSymbolCode:
    def test_parameters(self):
        code = codes.two_symbol_code()
        assert (code.n, code.size, code.d) == (2, 3, 1)

    def test_symbol_order_and_exclusion(self):
        cw = codes.two_symbol_code().codewords
        assert cw.tolist() == [[0, 0], [0, 1], [1, 0]]  # |aa>, |a,-a>, |-a,a>
        assert [1, 1] not in cw.tolist()

    def test_distances(self):
        cw = codes.two_symbol_code().codewords
        assert np.count_nonzero(cw[0] != cw[1]) == 1


class TestFwht:
    def test_integer_input_becomes_float64(self):
        out = codes.fwht(np.array([3, 1, 0, 0]))
        assert out.dtype == np.float64 and out.tolist() == [4.0, 2.0, 4.0, 2.0]

    @pytest.mark.parametrize("m", range(0, 7))
    def test_matches_dense_matrix(self, m):
        rng = np.random.default_rng(m)
        v = rng.normal(size=2 ** m)
        assert np.allclose(codes.fwht(v), dense_walsh(v), atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128])
    @pytest.mark.parametrize("m", range(0, 11))
    def test_batch_matches_dense_rows(self, m, dtype):
        rng = np.random.default_rng(m)
        v = rng.normal(size=(3, 2 ** m))
        if dtype is np.complex128:
            v = v + 1j * rng.normal(size=v.shape)
        v = v.astype(dtype)
        out = codes.fwht(v)
        assert out.dtype == dtype
        # summation error bound of a length-2^m inner product in this dtype
        tol = 2 ** m * np.finfo(dtype).eps * np.abs(v).max()
        for row, got in zip(v, out):
            assert np.allclose(got, dense_walsh(row), rtol=0, atol=tol)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            codes.fwht([1.0, 2.0, 3.0])


class TestFwhtAgainstDense:
    """The two-factor FWHT (H_a X H_b) against the explicit Sylvester
    multiply, m = 0..12."""

    @staticmethod
    def inputs(m, seed):
        rng = np.random.default_rng(seed)
        n = 2 ** m
        real = rng.normal(size=(3, n))
        cplx = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        # the decoder's input: integer-valued float32 rows of +-1 and 0
        signs = rng.choice(np.array([-1.0, 0.0, 1.0], dtype=np.float32), size=(3, n))
        return real, cplx, signs

    @staticmethod
    def rel_err(got, want):
        return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0)

    @pytest.mark.parametrize("m", range(0, 13))
    def test_matches_dense_matrix(self, m):
        real, cplx, signs = self.inputs(m, 100 + m)
        want = dense_walsh(np.vstack([real, cplx.real, cplx.imag, signs]))
        want_real, want_cplx, want_signs = want[:3], want[3:6] + 1j * want[6:9], want[9:]
        got = codes.fwht(real)
        assert got.dtype == np.float64 and self.rel_err(got, want_real) <= 1e-12
        got = codes.fwht(cplx)
        assert got.dtype == np.complex128 and self.rel_err(got, want_cplx) <= 1e-12
        got = codes.fwht(signs)
        assert got.dtype == np.float32 and np.array_equal(got, want_signs)

    @pytest.mark.parametrize("m", [0, 3, 5, 6, 8, 11])
    @pytest.mark.parametrize("shape", [(), (6,), (2, 3)])
    def test_batch_shapes_keep_dtype(self, m, shape):
        real, cplx, signs = self.inputs(m, 200 + m)
        n = 2 ** m
        size = int(np.prod(shape))
        for v in (real, cplx, signs):
            rows = np.resize(v, (size, n))
            got = codes.fwht(rows.reshape(shape + (n,)))
            assert got.shape == shape + (n,) and got.dtype == v.dtype
            want = dense_walsh(rows).reshape(shape + (n,))
            if v is signs:
                assert np.array_equal(got, want)
            else:
                assert self.rel_err(got, want) <= 1e-12


def all_words(n):
    return ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


SMALL_CODES = pytest.mark.parametrize("make", [
    lambda: codes.hadamard_code(3),
    lambda: codes.hadamard_code(3, with_ancilla=True),
    lambda: codes.rm1_code(3),
    lambda: codes.hadamard_code(1),
    lambda: codes.hadamard_code(1, with_ancilla=True),
])


class TestMlDecodeHard:
    @SMALL_CODES
    def test_noiseless_roundtrip(self, make):
        code = make()
        for k in range(code.size):
            assert codes.ml_decode_hard(code, code.codewords[k]) == k

    @SMALL_CODES
    def test_every_word_matches_brute_force(self, make):
        code = make()
        for word in all_words(code.n):
            decoded = codes.ml_decode_hard(code, word)
            assert type(decoded) is int
            assert decoded == brute_force_ml(code.codewords, word)

    @SMALL_CODES
    def test_batch_matches_per_word(self, make):
        code = make()
        words = all_words(code.n)
        per_word = [codes.ml_decode_hard(code, w) for w in words]
        batch = codes.ml_decode_hard(code, words.reshape(2, -1, code.n))
        assert batch.shape == (2, len(words) // 2)
        assert batch.ravel().tolist() == per_word

    def test_unique_decoding_radius(self):
        code = codes.hadamard_code(4)
        rng = np.random.default_rng(11)
        for k in (0, 5, 15):
            word = code.codewords[k].copy()
            flips = rng.choice(code.n, size=(code.d // 2) - 1, replace=False)
            word[flips] ^= 1
            assert codes.ml_decode_hard(code, word) == k

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_matches_brute_force(self, m, data):
        code = codes.rm1_code(m) if m % 2 else codes.hadamard_code(m)
        bits = data.draw(st.lists(st.integers(0, 1), min_size=code.n, max_size=code.n))
        received = np.array(bits, dtype=np.uint8)
        assert codes.ml_decode_hard(code, received) == brute_force_ml(
            code.codewords, received)

    def test_rejects_other_code_families(self):
        code = codes.two_symbol_code()
        with pytest.raises(ValueError, match="two_symbol"):
            codes.ml_decode_hard(code, code.codewords[0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            codes.ml_decode_hard(codes.hadamard_code(2), np.zeros(5, dtype=np.uint8))

    @pytest.mark.parametrize("word", [
        [2, 0, 0, 0, 0, 0, 0],
        [0.4] * 7,
        [-1, 0, 0, 0, 0, 0, 0],
    ])
    def test_rejects_non_binary_words(self, word):
        with pytest.raises(ValueError, match="0 and 1"):
            codes.ml_decode_hard(codes.hadamard_code(3), word)

    def test_bool_and_float_bits_decode_like_uint8(self):
        code = codes.rm1_code(4)
        words = all_words(code.n)[::97]
        want = codes.ml_decode_hard(code, words)
        assert np.array_equal(codes.ml_decode_hard(code, words.astype(bool)), want)
        assert np.array_equal(codes.ml_decode_hard(code, words.astype(float)), want)


def big_endian_bits(width):
    """Row v holds the width bits of v, most significant first."""
    return ((np.arange(2 ** width)[:, None] >> np.arange(width)[::-1]) & 1).astype(np.int64)


def tie_words(code, rng, count):
    """Words equidistant from two distinct codewords i and j: c_i with half
    of the coordinates where c_i and c_j differ flipped, and then any
    coordinates where they agree."""
    cw = code.codewords
    words = []
    for _ in range(count):
        i, j = rng.choice(code.size, size=2, replace=False)
        differ = np.flatnonzero(cw[i] != cw[j])
        if differ.size % 2:
            continue
        word = cw[i].copy()
        word[rng.choice(differ, size=differ.size // 2, replace=False)] ^= 1
        agree = np.flatnonzero(cw[i] == cw[j])
        word[agree[rng.random(agree.size) < rng.random() / 4]] ^= 1
        words.append(word)
    return np.array(words, dtype=np.uint8).reshape(-1, code.n)


class TestPackedDecoder:
    """The table-and-product decoder on packed words against a dense +-1
    correlation with every codeword, m = 1..10."""

    def test_chunk_table_is_the_transform_of_its_index(self):
        table = codes._walsh_table()
        assert table.dtype == np.int8 and not table.flags.writeable
        assert np.array_equal(table, big_endian_bits(16) @ codes.sylvester_hadamard(4))

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("make", [
        lambda m: codes.hadamard_code(m),
        lambda m: codes.hadamard_code(m, with_ancilla=True),
        codes.rm1_code,
    ], ids=["hadamard", "hadamard_pilot", "rm1"])
    def test_matches_dense_correlation(self, make, m):
        code = make(m)
        rng = np.random.default_rng(1000 + m)
        # random words at every flip rate, words that tie two codewords, and
        # an empty batch
        sent = code.codewords[rng.integers(code.size, size=64)]
        random = sent ^ (rng.random(sent.shape) < rng.random((64, 1)) / 2)
        ties = tie_words(code, rng, 64)
        for words in (random, ties, random[:0]):
            assert np.array_equal(codes.ml_decode_hard(code, words),
                                  correlation_ml(code.codewords, words))
        if code.d % 2 == 0:
            # the ties reach the first-minimum rule: two nearest codewords
            dist = (ties[:, None, :] != code.codewords).sum(axis=2)
            assert np.any((dist == dist.min(axis=1, keepdims=True)).sum(axis=1) > 1)
