import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdrcap import discrimination as disc
from jdrcap.capacity_limits import dolinar_error_q, rm_mpe_capacity
from jdrcap.codes import hadamard_code, rm1_code, sylvester_hadamard, two_symbol_code
from jdrcap.superchannel import mutual_information

from oracles import two_symbol_mpe_mp


def binary_ensemble(overlap, p1):
    G = np.array([[1.0, overlap], [overlap, 1.0]])
    return disc.PureStateEnsemble(gram=G, priors=np.array([p1, 1.0 - p1]))


class TestGramFromCode:
    def test_identical_states_at_zero(self):
        ens = disc.gram_from_code(two_symbol_code(), 0.0)
        assert np.all(ens.gram == 1.0)

    def test_overlap_reproduces_dolinar_q(self):
        # two codewords at distance 1: binary Helstrom error equals q(nbar)
        nbar = 0.17
        ens = disc.gram_from_code(two_symbol_code(), nbar)
        s = ens.gram[0, 1]
        assert s == pytest.approx(np.exp(-2 * nbar), abs=1e-15)
        err = disc.helstrom_binary(s * s, 0.5, 0.5)
        assert err == pytest.approx(dolinar_error_q(nbar), abs=1e-15)

    def test_distance_scaling(self):
        nbar = 0.05
        ens = disc.gram_from_code(hadamard_code(3), nbar)
        # equidistant code: all off-diagonal overlaps e^{-2 nbar d}
        off = ens.gram[~np.eye(8, dtype=bool)]
        assert np.allclose(off, np.exp(-2 * nbar * 4))

    def test_orthogonal_limit(self):
        ens = disc.gram_from_code(two_symbol_code(), 500.0)
        assert np.allclose(ens.gram, np.eye(3), atol=1e-12)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="photon number"):
            disc.gram_from_code(two_symbol_code(), np.nan)

    def test_relabeling_invariance(self):
        # any distance-preserving permutation permutes the Gram matrix with it
        code = hadamard_code(3)
        ens = disc.gram_from_code(code, 0.1)
        perm = np.array([3, 1, 2, 0, 7, 5, 6, 4])
        permuted = code.codewords[perm]
        dist = np.count_nonzero(permuted[:, None, :] != permuted[None, :, :], axis=2)
        G2 = np.exp(-2 * 0.1 * dist)
        assert np.allclose(G2, ens.gram[np.ix_(perm, perm)], atol=1e-15)

    @pytest.mark.parametrize("make", [two_symbol_code, lambda: hadamard_code(3),
                                      lambda: rm1_code(2)])
    def test_grid_grams_match_per_point_bit_for_bit(self, make):
        code = make()
        grid = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 39)])
        grams = disc._code_grams(code, grid)
        assert grams.shape == (len(grid), code.size, code.size)
        for k, nbar in enumerate(grid):
            assert np.array_equal(grams[k], disc.gram_from_code(code, nbar).gram)


def rowwise_distances(codewords):
    """Pairwise Hamming distances, one codeword against all at a time."""
    return np.array([np.count_nonzero(codewords != c, axis=1) for c in codewords])


class TestCodeGramDistances:
    @pytest.mark.parametrize("code", [two_symbol_code()]
                             + [hadamard_code(m, with_ancilla=a) for m in range(1, 9)
                                for a in (False, True)]
                             + [rm1_code(m) for m in range(1, 9)],
                             ids=lambda c: f"{c.family}-{c.n}-{c.size}")
    def test_matches_rowwise_hamming_bit_for_bit(self, code):
        nbar = np.array([0.0, 1e-3, 0.37])
        dist = rowwise_distances(code.codewords)
        expected = np.exp(-2.0 * nbar[:, None, None] * dist)
        assert np.array_equal(disc._code_grams(code, nbar), expected)

    def test_rm8_gram_allocates_no_k_k_n_array(self):
        # K = 512, n = 256: a (K, K, n) boolean temporary alone is 64 MB
        code = rm1_code(8)
        tracemalloc.start()
        try:
            disc._code_grams(code, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def unit_diagonal_gram(lam):
    """A symmetric matrix with eigenvalues ``lam`` (mean 1) and unit diagonal.

    Every entry of the orthonormal Sylvester basis H / sqrt(K) has square
    1/K, so each diagonal entry of H diag(lam) H^T / K is mean(lam) = 1.
    """
    K = len(lam)
    H = sylvester_hadamard(K.bit_length() - 1) / np.sqrt(K)
    G = (H * lam) @ H.T
    np.fill_diagonal(G, 1.0)
    return G


def eigvalsh_rule(G):
    """The validation rule by eigenvalues: the NotPSDError message, or None to accept."""
    lam = np.linalg.eigvalsh(0.5 * (G + G.T))
    if lam[0] < -disc.EIG_CLAMP_REL * max(1.0, float(np.max(np.abs(lam)))):
        return f"Gram matrix has eigenvalue {lam[0]}"
    return None


class TestPsdValidation:
    # lambda_min as a multiple of the clamp -EIG_CLAMP_REL max(1, lambda_max): the
    # Cholesky shortcut decides above -EIG_CLAMP_REL / 2 (at lambda_max ~ 205 only
    # the first), the eigenvalue fallback below it
    INSIDE = (-0.001, -0.25, -0.49, -0.51, -0.75, -0.99)
    OUTSIDE = (-1.01, -1.5, -1e3)

    @staticmethod
    def spectrum(K, lam_max, multiple):
        # lambda_max ~ 1 + 1/K when the rest share the trace, else the rest are 0.2
        lam_min = multiple * disc.EIG_CLAMP_REL * max(1.0, lam_max)
        lam = np.full(K, (K - lam_min - lam_max) / (K - 2))
        lam[0], lam[-1] = lam_min, lam_max
        return lam

    @pytest.mark.parametrize("K,lam_max", [(64, 64 / 63), (256, 256 - 0.2 * 254)],
                             ids=["lam_max~1", "lam_max~205"])
    @pytest.mark.parametrize("multiple", INSIDE + OUTSIDE)
    def test_decides_and_words_as_the_eigvalsh_rule(self, K, lam_max, multiple):
        G = unit_diagonal_gram(self.spectrum(K, lam_max, multiple))
        expected = eigvalsh_rule(G)
        assert (expected is None) == (multiple in self.INSIDE)
        if expected is None:
            disc.PureStateEnsemble(gram=G, priors=np.full(K, 1.0 / K))
        else:
            with pytest.raises(disc.NotPSDError) as err:
                disc.PureStateEnsemble(gram=G, priors=np.full(K, 1.0 / K))
            assert str(err.value) == expected

    def test_code_gram_is_accepted_without_eigenvalues(self, monkeypatch):
        G = disc.gram_from_code(rm1_code(7), 0.01).gram

        def refuse(_):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        disc.PureStateEnsemble(gram=G, priors=np.full(len(G), 1.0 / len(G)))


class TestSqrtmPsd:
    def test_identity(self):
        assert np.allclose(disc.sqrtm_psd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(disc.sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2 ** 31 - 1))
    def test_round_trip_random_psd(self, k, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(k, k))
        M = A @ A.T
        S = disc.sqrtm_psd(M)
        assert np.linalg.norm(S @ S - M, "fro") < 1e-10 * max(1, np.linalg.norm(M, "fro"))

    def test_rejects_indefinite(self):
        with pytest.raises(disc.NotPSDError):
            disc.sqrtm_psd(np.diag([1.0, -0.5]))


class TestSrmChannel:
    def test_binary_equal_priors_is_helstrom(self):
        for s in (0.1, 0.5, 0.9):
            ch = disc.srm_channel(binary_ensemble(s, 0.5))
            error = 0.5 * (ch.p[0, 1] + ch.p[1, 0])
            assert error == pytest.approx(disc.helstrom_binary(s * s, 0.5, 0.5),
                                          abs=1e-12)

    def test_orthogonal_ensemble_identity(self):
        ens = disc.PureStateEnsemble(gram=np.eye(3), priors=np.full(3, 1 / 3))
        assert np.allclose(disc.srm_channel(ens).p, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_rm_code_reproduces_mpe_capacity(self, m):
        code = rm1_code(m)
        for nbar in np.geomspace(1e-3, 2.0, 6):
            ens = disc.gram_from_code(code, nbar)
            mi = mutual_information(disc.srm_channel(ens), ens.priors) / 2 ** m
            assert mi == pytest.approx(rm_mpe_capacity(m, nbar), abs=1e-9)

    def test_zero_prior_rows_uniform(self):
        ens = disc.PureStateEnsemble(gram=np.eye(3), priors=np.array([0.5, 0.5, 0.0]))
        ch = disc.srm_channel(ens)
        assert np.allclose(ch.p[2], 1 / 3)


class TestHelstromBinary:
    def test_identical_states(self):
        assert disc.helstrom_binary(1.0, 0.5, 0.5) == pytest.approx(0.5)

    def test_orthogonal_states(self):
        assert disc.helstrom_binary(0.0, 0.5, 0.5) == 0.0

    def test_reproduces_dolinar_q(self):
        for nbar in (1e-3, 0.1, 1.0):
            assert disc.helstrom_binary(np.exp(-4 * nbar), 0.5, 0.5) == pytest.approx(
                dolinar_error_q(nbar), abs=1e-15)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            disc.helstrom_binary(1.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            disc.helstrom_binary(0.5, 0.7, 0.7)

    def test_rejects_nan_prior(self):
        with pytest.raises(ValueError, match="priors"):
            disc.helstrom_binary(0.3, np.nan, 1.0)


class TestMpeSolve:
    @pytest.mark.parametrize("p1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    @pytest.mark.parametrize("overlap_sq", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_binary_matches_helstrom(self, p1, overlap_sq):
        result = disc.mpe_solve(binary_ensemble(np.sqrt(overlap_sq), p1))
        expected_error = disc.helstrom_binary(overlap_sq, p1, 1.0 - p1)
        assert 1.0 - result.success_probability == pytest.approx(
            expected_error, abs=1e-10)

    def test_success_trace_nondecreasing(self):
        result = disc.mpe_solve(binary_ensemble(0.6, 0.3))
        trace = result.success_trace
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_geometrically_uniform_fixed_point_is_srm(self):
        for m in (1, 2, 3):
            ens = disc.gram_from_code(rm1_code(m), 0.1)
            result = disc.mpe_solve(ens)
            assert result.iterations <= 1
            srm = disc.srm_channel(ens)
            assert np.allclose(result.channel.p, srm.p, atol=1e-8)

    def test_beats_or_equals_srm(self):
        for p in (0.1, 0.25, 0.4):
            priors = np.array([1 - 2 * p, p, p])
            gram = disc.gram_from_code(two_symbol_code(), 0.08).gram
            ens = disc.PureStateEnsemble(gram=gram, priors=priors)
            srm = disc.srm_channel(ens)
            srm_success = float(np.sum(priors * np.diag(srm.p)))
            result = disc.mpe_solve(ens)
            assert result.success_probability >= srm_success - 1e-12

    def test_success_between_max_prior_and_one(self):
        for overlap in (0.0, 0.5, 0.99):
            for p1 in (0.2, 0.5, 0.8):
                result = disc.mpe_solve(binary_ensemble(overlap, p1))
                assert max(p1, 1 - p1) - 1e-9 <= result.success_probability <= 1 + 1e-12

    def test_channels_row_stochastic(self):
        result = disc.mpe_solve(disc.gram_from_code(two_symbol_code(), 0.05))
        assert np.allclose(result.channel.p.sum(axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("nbar", [1e-6, 3e-6, 1e-3])
    def test_rows_sum_to_one_as_states_merge(self, monkeypatch, nbar):
        # the rows before renormalisation, over the two-symbol prior scan grid
        sums = []
        normalise = disc._stochastic_rows

        def record(rows, tol=1e-8):
            sums.append(rows.sum(axis=-1))
            return normalise(rows, tol)

        monkeypatch.setattr(disc, "_stochastic_rows", record)
        gram = disc.gram_from_code(two_symbol_code(), nbar).gram
        for p in np.linspace(0.0, 0.5, 33):
            disc.mpe_solve(disc.PureStateEnsemble(gram=gram, priors=np.array([1 - 2 * p, p, p])))
        assert len(sums) == 33
        assert np.max(np.abs(np.array(sums) - 1.0)) < 1e-10

    @pytest.mark.parametrize("nbar", [1e-6, 1e-5, 1e-3, 0.1, 2.0])
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.33, 0.45])
    def test_two_symbol_mutual_information_matches_the_basis_oracle(self, nbar, p):
        # the oracle maximizes the success over measurement bases in mpmath, sharing
        # nothing with the weight iteration; a solve stopped on its success gain misses
        # by up to 9.5e-6 relative at nbar = 1e-6
        priors = np.array([1 - 2 * p, p, p])
        gram = disc.gram_from_code(two_symbol_code(), nbar).gram
        result = disc.mpe_solve(disc.PureStateEnsemble(gram=gram, priors=priors))
        expected = float(two_symbol_mpe_mp(nbar, p))
        rel = abs(mutual_information(result.channel, priors) / expected - 1.0)
        assert rel <= (1e-9 if nbar < 1e-5 else 1e-10)

    def test_max_iter_exhaustion_reports_best(self):
        from jdrcap.dmc import ConvergenceError
        ens = binary_ensemble(0.9, 0.4)
        with pytest.raises(ConvergenceError) as excinfo:
            disc.mpe_solve(ens, tol=1e-30, max_iter=3)
        best = excinfo.value.best
        assert best is not None and 0.5 < best.success_probability <= 1.0


def srm_success(gram, priors):
    """sum_i ((R^{1/2})_ii)^2 with R = diag(sqrt p) G diag(sqrt p), written out."""
    sp = np.sqrt(priors)
    lam, U = np.linalg.eigh(sp[:, None] * gram * sp[None, :])
    root = (U * np.sqrt(np.clip(lam, 0.0, None))) @ U.T
    return float(np.sum(np.diag(root) ** 2))


def mixed_batch():
    """Two-symbol Grams at four nbar, each with the 33 priors (1-2p, p, p)."""
    grams, priors = [], []
    for nbar in (1e-6, 1e-3, 0.1, 2.0):
        gram = disc.gram_from_code(two_symbol_code(), nbar).gram
        for p in np.linspace(0.0, 0.5, 33):
            grams.append(gram)
            priors.append([1 - 2 * p, p, p])
    return np.array(grams), np.array(priors)


class TestMpeStack:
    def test_batch_matches_members_alone_bitwise(self):
        grams, priors = mixed_batch()
        stack = disc._mpe_stack(grams, priors)
        assert len(set(stack.iterations.tolist())) > 5     # members stop at different steps
        for i in range(len(priors)):
            alone = disc._mpe_stack(grams[i:i + 1], priors[i:i + 1])
            assert np.array_equal(stack.success[i:i + 1], alone.success)
            assert np.array_equal(stack.rows[i:i + 1], alone.rows)
            assert stack.iterations[i] == alone.iterations[0]
            assert stack.result(i).success_trace == alone.result(0).success_trace
            solved = disc.mpe_solve(disc.PureStateEnsemble(gram=grams[i], priors=priors[i]))
            assert solved.success_probability == stack.result(i).success_probability
            assert np.array_equal(solved.channel.p, stack.result(i).channel.p)

    def test_every_member_passes_the_solve_audit(self):
        grams, priors = mixed_batch()
        stack = disc._mpe_stack(grams, priors)
        for i in range(len(priors)):
            res = stack.result(i)
            success = res.success_probability
            channel_success = float(np.sum(priors[i] * np.diag(res.channel.p)))
            trace = res.success_trace
            assert success >= srm_success(grams[i], priors[i]) - 1e-12
            assert success <= 1 + 1e-12
            assert abs(channel_success - success) <= 1e-9
            assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_two_state_batch_matches_helstrom(self):
        overlaps = [0.0, 0.25, 0.5, 0.9, 1.0]
        p1s = np.arange(0.1, 0.95, 0.1)
        grams = np.array([[[1.0, np.sqrt(s)], [np.sqrt(s), 1.0]]
                          for s in overlaps for _ in p1s])
        priors = np.array([[p1, 1.0 - p1] for _ in overlaps for p1 in p1s])
        assert len(priors) == 45
        stack = disc._mpe_stack(grams, priors)
        expected = [disc.helstrom_binary(s, p1, 1.0 - p1) for s in overlaps for p1 in p1s]
        assert np.max(np.abs((1.0 - stack.success) - expected)) <= 1e-10

    def test_max_iter_exhaustion_reports_every_member(self):
        from jdrcap.dmc import ConvergenceError
        grams = np.array([[[1.0, s], [s, 1.0]] for s in (0.9, 0.7, 0.5)])
        priors = np.array([[0.4, 0.6], [0.3, 0.7], [0.2, 0.8]])
        with pytest.raises(ConvergenceError) as excinfo:
            disc._mpe_stack(grams, priors, tol=1e-30, max_iter=3)
        best = excinfo.value.best
        assert best.success.shape == (3,) and best.rows.shape == (3, 2, 2)
        for i in range(3):
            with pytest.raises(ConvergenceError) as alone:
                disc._mpe_stack(grams[i:i + 1], priors[i:i + 1], tol=1e-30, max_iter=3)
            assert np.array_equal(best.rows[i], alone.value.best.rows[0])
            assert best.success[i] == alone.value.best.success[0]
            assert best.iterations[i] == 3
            assert srm_success(grams[i], priors[i]) - 1e-12 <= best.success[i] <= 1.0

    def test_warm_start_ends_at_the_same_measurement(self):
        # each stop is within the residual tolerance of the fixed point; near merging
        # states the SRM turns a 1e-12 weight residual into up to ~1e-11 in the rows
        rng = np.random.default_rng(11)
        grams, priors = mixed_batch()
        grams, priors = grams[33:], priors[33:]       # nbar 1e-3, 0.1 and 2
        cold = disc._mpe_stack(grams, priors)
        w0 = priors * np.exp(rng.uniform(-1.0, 1.0, size=priors.shape))
        warm = disc._mpe_stack(grams, priors, w0=w0)
        assert not np.array_equal(warm.iterations, cold.iterations)
        assert np.max(np.abs(warm.rows - cold.rows)) <= 1e-10

    def test_start_at_the_stop_weights_stops_at_once(self):
        grams, priors = mixed_batch()
        cold = disc._mpe_stack(grams, priors)
        again = disc._mpe_stack(grams, priors, w0=cold.weights)
        assert np.all(again.iterations == 0)
        # the start is normalised again, which can move a weight by an ulp
        assert np.max(np.abs(again.rows - cold.rows)) <= 1e-13

    def test_sqrtm_stack_matches_each_matrix(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 4, 4))
        M = A @ np.swapaxes(A, -1, -2)
        S = disc.sqrtm_psd(M)
        for k in range(5):
            assert np.array_equal(S[k], disc.sqrtm_psd(M[k]))

    def test_sqrtm_stack_rejects_one_indefinite_member(self):
        M = np.stack([np.eye(2), np.diag([1.0, -0.5]), np.eye(2)])
        with pytest.raises(disc.NotPSDError):
            disc.sqrtm_psd(M)


class TestEnsembleValidation:
    def test_rejects_asymmetric(self):
        G = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            disc.PureStateEnsemble(gram=G, priors=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_gram(self, entry):
        G = np.array([[1.0, entry], [entry, 1.0]])
        with pytest.raises(ValueError, match="Gram matrix must be finite"):
            disc.PureStateEnsemble(gram=G, priors=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("gram,message", [
        ([[1.000009, 0.5], [0.500004, 0.999991]], "symmetric"),
        ([[1.000009, 0.5], [0.5, 1.0]], "unit diagonal"),
    ])
    def test_rejects_relative_errors_beyond_the_absolute_bound(self, gram, message):
        # within numpy's default rtol=1e-5, far beyond 1e-12 absolute
        with pytest.raises(ValueError, match=message):
            disc.PureStateEnsemble(gram=np.array(gram), priors=np.array([0.5, 0.5]))

    def test_accepts_round_off_asymmetry(self):
        G = np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0 - 1e-15]])
        ens = disc.PureStateEnsemble(gram=G, priors=np.array([0.5, 0.5]))
        assert ens.gram[0, 1] == ens.gram[1, 0]

    def test_rejects_bad_priors(self):
        with pytest.raises(ValueError):
            disc.PureStateEnsemble(gram=np.eye(2), priors=np.array([0.7, 0.5]))

    @pytest.mark.parametrize("priors", [[np.nan, 1.0], [np.nan, np.nan]])
    def test_rejects_nan_priors(self, priors):
        with pytest.raises(ValueError, match="priors"):
            disc.PureStateEnsemble(gram=np.eye(2), priors=np.array(priors))

    def test_rejects_non_psd(self):
        G = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(disc.NotPSDError):
            disc.PureStateEnsemble(gram=G, priors=np.array([0.5, 0.5]))
