import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from replica_markov import (
    IrreducibilityError,
    TransitionMatrix,
    ValidationError,
    binary_markov_kernel,
    is_irreducible,
    stationary_distribution,
)
from replica_markov import perron
from replica_markov.perron import (
    QStateSpace,
    enumerate_q_states,
    log_pf_eigenvalue,
    pf_decomposition,
    pf_log_derivative,
    pf_log_hessian,
    q_transition_matrix,
    rate_function,
    _kron,
    _max_cycle_mean,
    _tilted_pf,
    _trace_terms,
    _twisted_weights,
)

# The chain_ld benchmark chain: ternary, mirror-symmetric, with a two-point SNR law.
TERNARY = TransitionMatrix((-1, 0, 1), np.array([[0.6, 0.2, 0.2], [0.25, 0.5, 0.25], [0.2, 0.2, 0.6]]))
TERNARY_SNR = ((0.5, 0.5), (2.0, 0.5))
TERNARY_MEAN_DIAG = 1.25 * 5.0 / 7.0  # E[S] E[X^2] under the stationary law
# not reversible: pi = (2, 1, 2) / 5 and pi_0 P[0, 1] = 0 != pi_1 P[1, 0], so its Hessian is not symmetric term by term
TERNARY_ZERO = TransitionMatrix((-1, 0, 1), np.array([[0.5, 0.0, 0.5], [0.5, 0.0, 0.5], [0.25, 0.5, 0.25]]))


def ternary_setup(nu, kernel=TERNARY):
    space = enumerate_q_states([s for s, _ in TERNARY_SNR], kernel.state_values(), nu)
    return space, q_transition_matrix(space, kernel, s_dist=TERNARY_SNR)


def symmetric_tilt(rng, d, scale):
    t = scale * rng.standard_normal((d, d))
    return 0.5 * (t + t.T)


def central_difference(fn, tilt, h):
    """d fn / d tilt_ab for every (a, b), stacked on the last two axes."""
    cols = []
    for idx in np.ndindex(tilt.shape):
        e = np.zeros_like(tilt)
        e[idx] = h
        cols.append((np.asarray(fn(tilt + e)) - np.asarray(fn(tilt - e))) / (2 * h))
    return np.moveaxis(np.array(cols), 0, -1).reshape(np.shape(cols[0]) + tilt.shape)


def tuples(space):
    """Every (s, x) tuple in the order of ``space.ids``: s outermost, x in ``itertools.product`` order."""
    return [(s, x) for s in space.s_alphabet for x in itertools.product(space.x_alphabet, repeat=space.nu + 1)]


def tuple_loop_transition_matrix(space, kern, s_dist):
    """The coupling-chain matrix summed tuple by tuple over (s, x) x (s', x').

    Every replica follows ``kern`` from its stationary law.
    """
    s_prob = dict(s_dist)
    row = {float(v): i for i, v in enumerate(kern.state_values())}
    law = stationary_distribution(kern)
    indexed = [(s, [row[v] for v in x], i) for (s, x), i in zip(tuples(space), space.ids.tolist())]
    joint = np.zeros((space.size, space.size))
    marginal = np.zeros(space.size)
    for s_old, r_old, i in indexed:
        w_old = s_prob[s_old] * math.prod(law[r] for r in r_old)
        marginal[i] += w_old
        for s_new, r_new, j in indexed:
            w_step = math.prod(kern.P[a, b] for a, b in zip(r_old, r_new))
            joint[i, j] += w_old * s_prob[s_new] * w_step
    return joint / marginal[:, None]


def brute_force_states(s_alphabet, x_alphabet, nu):
    seen = []
    for s in s_alphabet:
        for x in itertools.product(x_alphabet, repeat=nu + 1):
            q = s * np.outer(x, x)
            if not any(np.allclose(q, p, atol=1e-12) for p in seen):
                seen.append(q)
    return seen


def stationary_of_matrix(P: np.ndarray) -> np.ndarray:
    return stationary_distribution(TransitionMatrix(tuple(range(P.shape[0])), P))


def chain_mean_q(space, base: np.ndarray) -> np.ndarray:
    w = stationary_of_matrix(base)
    return sum(
        w[i] * base[i, j] * space.states[j] for i in range(space.size) for j in range(space.size)
    )


class TestEnumerate:
    def test_sign_collapse_single_state(self):
        space = enumerate_q_states([1.0], [-1.0, 1.0], 0)
        assert space.size == 1
        assert np.allclose(space.states[0], [[1.0]])
        assert tuples(space) == [(1.0, (-1.0,)), (1.0, (1.0,))] and space.ids.tolist() == [0, 0]

    def test_nu1_binary_two_states_matches_brute_force(self):
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        brute = brute_force_states([1.0], [-1.0, 1.0], 1)
        assert space.size == len(brute) == 2
        for q in brute:
            assert any(np.allclose(q, st) for st in space.states)

    def test_two_snrs_two_states(self):
        space = enumerate_q_states([1.0, 4.0], [-1.0, 1.0], 0)
        assert space.size == 2

    def test_brute_force_random_alphabets(self):
        rng = np.random.default_rng(2)
        for nu in (0, 1, 2):
            xs = tuple(float(v) for v in rng.integers(-2, 3, size=3))
            ss = (1.0, 2.0)
            space = enumerate_q_states(ss, xs, nu)
            assert space.size == len(brute_force_states(ss, xs, nu))

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_q_states([], [1.0], 0)
        with pytest.raises(ValidationError):
            enumerate_q_states([1.0], [1.0], 4)

    def test_repeated_snr_value_rejected(self):
        # q_transition_matrix keys SNR probabilities by value, so a repeat would lose one
        s_dist = ((1.0, 0.6), (1.0, 0.4))
        with pytest.raises(ValidationError, match="distinct"):
            enumerate_q_states([s for s, _ in s_dist], [-1.0, 1.0], 1)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        with pytest.raises(ValidationError):
            q_transition_matrix(space, binary_markov_kernel(0.3, 0.3), s_dist=s_dist)


class TestTransitionMatrix:
    def test_iid_rows_equal_marginal(self):
        kern = binary_markov_kernel(0.5, 0.5)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        P = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        # every row is P(Q_j); for the symmetric iid chain both states have mass 1/2
        assert np.allclose(P, 0.5)

    def test_degenerate_single_state(self):
        kern = binary_markov_kernel(0.3, 0.3)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 0)
        P = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        assert P.shape == (1, 1) and abs(P[0, 0] - 1.0) < 1e-15

    def test_rows_stochastic_binary_asymmetric(self):
        kern = binary_markov_kernel(0.2, 0.5)
        space = enumerate_q_states([1.0, 2.0], [-1.0, 1.0], 1)
        P = q_transition_matrix(space, kern, s_dist=((1.0, 0.4), (2.0, 0.6)))
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_monte_carlo_frequencies_nu1(self):
        alpha = delta = 0.3
        kern = binary_markov_kernel(alpha, delta)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        P = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        rng = np.random.default_rng(17)
        n = 1_000_000
        # stationary symmetric chain: draw (x0', x1') uniform, then step each
        prev = rng.random((n, 2)) < 0.5
        stay = rng.random((n, 2)) >= 0.3
        new = np.where(stay, prev, ~prev)
        state_prev = (prev[:, 0] == prev[:, 1]).astype(int)  # 0: same sign, 1: opposite
        state_new = (new[:, 0] == new[:, 1]).astype(int)
        # map: same-sign pairs give the all-ones matrix = state 0
        same_id = dict(zip(tuples(space), space.ids.tolist()))[1.0, (1.0, 1.0)]
        for a in range(2):
            mask = state_prev == (0 if same_id == 0 else 1) if a == 0 else state_prev == (1 if same_id == 0 else 0)
            freq = np.bincount(state_new[mask], minlength=2) / mask.sum()
            if same_id != 0:
                freq = freq[::-1]
            assert np.max(np.abs(freq - P[a])) < 5e-3

    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_matches_tuple_loop_ternary_two_snrs(self, nu):
        space, base = ternary_setup(nu)
        oracle = tuple_loop_transition_matrix(space, TERNARY, TERNARY_SNR)
        assert np.max(np.abs(base - oracle)) < 1e-14
        # a copy of the kernel solves its own stationary law
        copy = TransitionMatrix(TERNARY.state_values(), TERNARY.P.copy())
        assert np.array_equal(base, q_transition_matrix(space, copy, s_dist=TERNARY_SNR))

    def test_ids_index_every_tuple(self):
        space, _ = ternary_setup(2)
        every = tuples(space)
        assert len(every) == len(space.ids) == 2 * 3**3
        for (s, x), i in zip(every, space.ids.tolist()):
            assert np.array_equal(space.states[i], s * np.outer(x, x))
        assert space.states.shape == (space.size, 3, 3)

    def test_zero_marginal_guarded(self):
        # an SNR value of probability 0 leaves its coupling states without weight
        kern = binary_markov_kernel(0.3, 0.3)
        space = enumerate_q_states([1.0, 2.0], [-1.0, 1.0], 1)
        with pytest.raises(ValidationError, match="zero marginal"):
            q_transition_matrix(space, kern, s_dist=((1.0, 1.0), (2.0, 0.0)))


class TestPfDecomposition:
    def test_stochastic_matrix(self):
        kern = binary_markov_kernel(0.2, 0.5)
        triple = pf_decomposition(kern.P)
        assert abs(triple.rho - 1.0) < 1e-12
        assert np.allclose(triple.psi / triple.psi[0], 1.0, atol=1e-10)

    def test_symmetric_2x2_characteristic_polynomial(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        # oracle: roots of lambda^2 - tr lambda + det
        roots = np.roots([1.0, -np.trace(M), np.linalg.det(M)])
        triple = pf_decomposition(M)
        assert abs(triple.rho - roots.max()) < 1e-12
        assert np.allclose(triple.lam / triple.lam.sum(), 0.5, atol=1e-12)

    def test_tilt_zero_recovers_base(self):
        kern = binary_markov_kernel(0.3, 0.4)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        base = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        t_max, scaled, triple = _tilted_pf(base, np.zeros((2, 2)), space)
        assert t_max == 0.0 and np.array_equal(scaled, base)
        assert abs(triple.rho - 1.0) < 1e-12

    def test_periodic_cycle_matrix(self):
        # power iteration must handle the periodic case via the diagonal shift
        M = np.roll(np.eye(4), 1, axis=1) * 2.0
        triple = pf_decomposition(M)
        assert abs(triple.rho - 2.0) < 1e-10

    def test_larger_matrix_against_numpy(self):
        rng = np.random.default_rng(4)
        M = rng.random((6, 6)) + 0.01
        triple = pf_decomposition(M)
        eigs = np.linalg.eigvals(M)
        assert abs(triple.rho - np.max(np.abs(eigs))) < 1e-9
        assert np.max(np.abs(M @ triple.psi - triple.rho * triple.psi)) < 1e-10 * triple.rho
        assert np.max(np.abs(triple.lam @ M - triple.rho * triple.lam)) < 1e-10 * triple.rho
        assert abs(triple.lam @ triple.psi - 1.0) < 1e-12
        assert np.all(triple.lam > 0) and np.all(triple.psi > 0)

    def test_rho_far_below_the_shift(self):
        # rho = 1e-6 against a shift of 0.5: power iteration would contract by
        # 1 - 3e-6 per step, so the triple comes from the dense fallback
        M = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1e-9], [1e-9, 0.0, 0.0]])
        triple = pf_decomposition(M)
        assert abs(triple.rho - 1e-6) < 1e-12 * 1e-6
        assert np.max(np.abs(M @ triple.psi - triple.rho * triple.psi)) < 1e-10 * triple.rho * np.max(triple.psi)
        assert np.max(np.abs(triple.lam @ M - triple.rho * triple.lam)) < 1e-10 * triple.rho * np.max(triple.lam)
        assert abs(triple.lam @ triple.psi - 1.0) < 1e-12
        assert np.all(triple.lam > 0) and np.all(triple.psi > 0)

    def test_2x2_with_tiny_column_keeps_psi_positive(self):
        # rho - a is 1e-21 here: taken as a difference of rounded sums it is 0
        M = np.array([[0.7, 0.3e-20], [0.4, 0.6e-20]])
        triple = pf_decomposition(M)
        assert np.all(triple.psi > 0) and np.all(triple.lam > 0)
        assert np.max(np.abs(M @ triple.psi - triple.rho * triple.psi)) <= 1e-15 * triple.rho * np.max(triple.psi)
        assert np.max(np.abs(triple.lam @ M - triple.rho * triple.lam)) <= 1e-15 * triple.rho * np.max(triple.lam)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 81),
        seed=st.integers(0, 2**32 - 1),
        zero_frac=st.floats(0.0, 0.95),
        decades=st.floats(0.0, 150.0),
    )
    def test_power_iteration_triple_on_column_scaled_chains(self, n, seed, zero_frac, decades):
        # A stochastic matrix with zero entries, made irreducible by a random
        # n-cycle, times column scalings spread over 10^-decades..1 as tilts
        # produce.  Matrices whose shifted spectrum has no gap (subdominant
        # |lambda + c| above 0.7 (rho + c)) are left to the dense fallback and
        # not drawn; on the rest the power iteration must converge by itself.
        rng = np.random.default_rng(seed)
        B = rng.random((n, n)) * (rng.random((n, n)) >= zero_frac)
        cycle = rng.permutation(n)
        B[cycle, np.roll(cycle, 1)] = rng.uniform(0.05, 1.0, n)
        M = B / B.sum(axis=1, keepdims=True) * 10.0 ** -rng.uniform(0.0, decades, n)
        vals = np.linalg.eig(M)[0]
        rho_eig = float(np.max(vals.real))
        shift = 0.5 * M.sum(axis=1).max()
        assume(np.max(np.abs(np.delete(vals, np.argmax(vals.real)) + shift)) <= 0.7 * (rho_eig + shift))
        with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as dense:
            triple = pf_decomposition(M)
        assert dense.call_count == 0
        rho, lam, psi = triple.rho, triple.lam, triple.psi
        assert np.all(psi > 0) and np.all(lam > 0)
        assert abs(lam @ psi - 1.0) < 1e-12
        assert np.max(np.abs(M @ psi - rho * psi)) < 1e-10 * rho * psi.sum()
        assert np.max(np.abs(lam @ M - rho * lam)) < 1e-10 * rho * lam.sum()
        assert abs(rho - rho_eig) < 1e-12 * rho_eig

    def test_rejects_negative_and_reducible(self):
        # one scan for negative entries, in is_irreducible, with its message
        with pytest.raises(ValidationError, match="^matrix must be nonnegative$"):
            pf_decomposition(np.array([[1.0, -0.1], [0.2, 1.0]]))
        with pytest.raises(ValidationError, match="^matrix must be nonnegative$"):
            pf_decomposition(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, -1e-300, 0.5]]))
        with pytest.raises(IrreducibilityError):
            pf_decomposition(np.eye(2))


class TestPfLogDerivative:
    def test_iid_zero_tilt_gives_mean(self):
        kern = binary_markov_kernel(0.5, 0.5)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        base = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        d = pf_log_derivative(base, np.zeros((2, 2)), space)
        mean = 0.5 * space.states[0] + 0.5 * space.states[1]
        assert np.allclose(d, mean, atol=1e-12)

    def test_iid_general_tilt_moment_generating_form(self):
        kern = binary_markov_kernel(0.5, 0.5)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        base = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        tilt = np.array([[0.2, -0.1], [-0.1, 0.3]])
        weights = np.array([0.5, 0.5]) * np.exp(
            [float(np.sum(tilt * q)) for q in space.states]
        )
        expected = sum(w * q for w, q in zip(weights, space.states)) / weights.sum()
        assert np.allclose(pf_log_derivative(base, tilt, space), expected, atol=1e-12)

    def test_finite_difference_on_twenty_random_pairs(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(20):
            nu = int(rng.integers(0, 2))
            kern = binary_markov_kernel(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.05, 0.95)))
            space = enumerate_q_states([1.0], [-1.0, 1.0], nu)
            base = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
            t = 0.3 * rng.standard_normal((nu + 1, nu + 1))
            tilt = 0.5 * (t + t.T)
            formula = pf_log_derivative(base, tilt, space)
            fd = np.zeros_like(tilt)
            for a in range(nu + 1):
                for b in range(nu + 1):
                    e = np.zeros_like(tilt)
                    e[a, b] = h
                    fd[a, b] = (
                        log_pf_eigenvalue(base, tilt + e, space)
                        - log_pf_eigenvalue(base, tilt - e, space)
                    ) / (2 * h)
            assert np.max(np.abs(formula - fd)) / np.max(np.abs(fd)) < 1e-6
            assert np.allclose(formula, formula.T, atol=1e-12)

    @pytest.mark.parametrize("nu", [2, 3])
    def test_finite_difference_ternary(self, nu):
        rng = np.random.default_rng(nu)
        space, base = ternary_setup(nu)
        for _ in range(3):
            tilt = symmetric_tilt(rng, nu + 1, 0.2)
            formula = pf_log_derivative(base, tilt, space)
            fd = central_difference(lambda t: log_pf_eigenvalue(base, t, space), tilt, 1e-5)
            assert np.max(np.abs(formula - fd)) / np.max(np.abs(fd)) < 1e-7

    @staticmethod
    def check_hessian(nu, kernel):
        rng = np.random.default_rng(10 + nu)
        space, base = ternary_setup(nu, kernel)
        for _ in range(2):
            tilt = symmetric_tilt(rng, nu + 1, 0.2)
            hess = pf_log_hessian(base, tilt, space)
            fd = central_difference(lambda t: pf_log_derivative(base, t, space), tilt, 1e-5)
            assert np.max(np.abs(hess - fd)) / np.max(np.abs(fd)) < 1e-7
            flat = hess.reshape((nu + 1) ** 2, -1)
            assert np.allclose(flat, flat.T, atol=1e-12)
            assert np.linalg.eigvalsh(flat).min() > -1e-12  # log rho is convex

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_hessian_matches_gradient_differences(self, nu):
        self.check_hessian(nu, TERNARY)

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_hessian_matches_gradient_differences_on_a_non_reversible_chain(self, nu):
        # a reversible chain's Hessian hides a lost transpose (a + a.T -> 2a); this one moves by 0.6-2%
        self.check_hessian(nu, TERNARY_ZERO)

    def test_hessian_iid_is_covariance(self):
        # iid coupling chain: the asymptotic covariance is the one-step covariance
        kern = binary_markov_kernel(0.5, 0.5)
        space = enumerate_q_states([1.0, 3.0], [-1.0, 1.0], 1)
        base = q_transition_matrix(space, kern, s_dist=((1.0, 0.25), (3.0, 0.75)))
        tilt = np.array([[0.1, -0.2], [-0.2, 0.3]])
        w = base[0] * np.exp(np.tensordot(space.states, tilt, axes=2))
        w /= w.sum()
        f = space.states.reshape(space.size, -1)
        fbar = f - w @ f
        cov = (w[:, None] * fbar).T @ fbar
        assert np.allclose(pf_log_hessian(base, tilt, space).reshape(4, 4), cov, atol=1e-12)

    def test_rho_monotone_in_entries(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            M = rng.random((4, 4)) + 0.05
            rho = pf_decomposition(M).rho
            bumped = M.copy()
            i, j = rng.integers(0, 4, size=2)
            bumped[i, j] += 0.2
            assert pf_decomposition(bumped).rho >= rho - 1e-12


class TestHotPath:
    """The per-tilt path: numpy's kron and tensordot bit for bit, and every triple checked."""

    @pytest.mark.parametrize("seed", range(5))
    def test_kron_matches_numpy_kron(self, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 5, size=int(rng.integers(2, 6)))
        vectors = [rng.standard_normal(n) for n in lengths]
        assert np.array_equal(_kron(vectors), functools.reduce(np.kron, vectors))
        shapes = rng.integers(1, 5, size=(int(rng.integers(2, 6)), 2))
        matrices = [rng.standard_normal(tuple(s)) for s in shapes]
        assert np.array_equal(_kron(matrices), functools.reduce(np.kron, matrices))

    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_flat_contractions_match_tensordot(self, nu):
        rng = np.random.default_rng(20 + nu)
        space, base = ternary_setup(nu)
        d = nu + 1
        random_space = QStateSpace(nu, (1.0,), (1.0,), rng.standard_normal((7, d, d)), np.arange(7))
        wide = rng.standard_normal((2 * d, 2 * d))
        # a general tilt, a symmetric one and two non-contiguous views
        for tilt in (rng.standard_normal((d, d)), symmetric_tilt(rng, d, 0.3), wide[::2, ::2], wide[:d, :d].T):
            for sp in (space, random_space):
                assert np.array_equal(_trace_terms(tilt, sp), np.tensordot(sp.states, tilt, axes=2))
            _, scaled, triple = _tilted_pf(base, tilt, space)
            expected = np.tensordot(_twisted_weights(scaled, triple), space.states, axes=1)
            assert np.array_equal(pf_log_derivative(base, tilt, space), expected)

    @pytest.mark.parametrize("nu,eps,calls", [(2, 0.14, 4), (1, 1.5, 58)], ids=["converges", "backtracks"])
    def test_rate_function_checks_every_triple(self, monkeypatch, nu, eps, calls):
        # one pf_decomposition per dual evaluation, line-search candidates included
        counts = {"pf": 0, "tilted": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(perron, "pf_decomposition", counted("pf", perron.pf_decomposition))
        monkeypatch.setattr(perron, "_tilted_pf", counted("tilted", perron._tilted_pf))
        space, base = ternary_setup(nu)
        rate_function(space, base, round(TERNARY_MEAN_DIAG * (1.0 + eps), 12) * np.eye(nu + 1))
        assert counts == {"pf": calls, "tilted": calls}

    def test_underflowed_column_is_reducible(self):
        # exp(terms - t_max) is 0 in the column of the zero state Q = 0
        space, base = ternary_setup(1)
        tilt = 200.0 * np.eye(2)
        terms = _trace_terms(tilt, space)
        assert np.count_nonzero(np.exp(terms - terms.max()) == 0.0) == 1
        with pytest.raises(IrreducibilityError):
            log_pf_eigenvalue(base, tilt, space)


# I(Q) and the diagonal optimal tilt at Q = (1 + eps) TERNARY_MEAN_DIAG I, recorded
# with the gradient-ascent solver this module used before its Newton solver.
# That solver ran all 20 000 iterations at nu=2 eps=0.04, where its gradient
# stayed at 1.3e-8; which targets stalled that way turned on last-bit rounding.
GOLDEN_RATES = {
    2: {
        0.02: (0.00030340432998532396, 0.011296959840814802),
        0.04: (0.001207302852056516, 0.022421075768870005),
        0.06: (0.0027028515839404715, 0.03338771679085012),
        0.08: (0.004782006492263791, 0.044211400114896174),
        0.1: (0.007437481742663621, 0.05490592063998534),
        0.12: (0.010662712937432178, 0.0654844330394635),
        0.14: (0.014451824907437072, 0.075959527559599),
        0.16: (0.018799603687866318, 0.08634330968093212),
        0.18: (0.023701472364980103, 0.0966474650572296),
        0.2: (0.029153470532503556, 0.10688333792383015),
        0.22: (0.03515223714033139, 0.11706197552790698),
        0.24: (0.04169499656716169, 0.12719419129055048),
        0.26: (0.048779547777281385, 0.13729062861883606),
        0.28: (0.05640425646949915, 0.1473618158207704),
        0.3: (0.06456805015569789, 0.15741820948539526),
    },
    3: {
        0.02: (0.0003418186124287542, 0.009543653413947861),
        0.04: (0.0013596594185355804, 0.01893104624069397),
        0.06: (0.003042870500972558, 0.028176299947888783),
        0.08: (0.005381777531563686, 0.03729268002275632),
        0.1: (0.008367627813783335, 0.04629274654110194),
        0.12: (0.011992541352720654, 0.055188392677018305),
        0.14: (0.01624946825291873, 0.06399097014805499),
        0.16: (0.021132151853887837, 0.07271135435385134),
        0.18: (0.026635097109768413, 0.08136000853033343),
        0.2: (0.0327535438037137, 0.08994705476093334),
        0.22: (0.03948344425905198, 0.09848233357477032),
        0.24: (0.04682144528273835, 0.10697546112360201),
        0.26: (0.05476487412452824, 0.11543587671128086),
        0.28: (0.06331172830263232, 0.12387291647467602),
        0.3: (0.07246066919179561, 0.13229584550944573),
    },
}


class TestRateFunction:
    @pytest.mark.parametrize(
        "nu,eps", [(nu, eps) for nu, grid in GOLDEN_RATES.items() for eps in grid], ids=lambda v: str(v)
    )
    def test_golden_ternary_grid(self, nu, eps):
        value, diag_tilt = GOLDEN_RATES[nu][eps]
        space, base = ternary_setup(nu)
        target = round(TERNARY_MEAN_DIAG * (1.0 + eps), 12) * np.eye(nu + 1)
        res = rate_function(space, base, target)
        assert res.converged and res.feasible and res.iterations <= 10
        assert abs(res.value - value) <= 1e-10 * value
        assert np.max(np.abs(res.tilt - diag_tilt * np.eye(nu + 1))) < 1e-7

    @pytest.mark.parametrize("weight", [1.0001, 1.01, 1.5, -0.5])
    def test_target_just_outside_hull_is_infeasible(self, weight):
        # exp underflow stops the tilt long before the value reaches RATE_VALUE_CAP
        kern = binary_markov_kernel(0.3, 0.3)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        base = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        res = rate_function(space, base, weight * space.states[0] + (1.0 - weight) * space.states[1])
        assert not res.feasible and not res.converged and res.value == math.inf

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_ternary_diagonal_past_largest_state_is_infeasible(self, nu):
        # no state has a diagonal entry above max(s) max(x^2) = 2
        space, base = ternary_setup(nu)
        res = rate_function(space, base, 2.01 * np.eye(nu + 1))
        assert not res.feasible and res.value == math.inf
        face = rate_function(space, base, 2.0 * np.eye(nu + 1))  # the mean of 2 x x^T over x in {-1, 1}^(nu+1)
        assert face.converged and face.feasible and 0.0 < face.value < math.inf

    def test_max_cycle_mean_matches_cycle_enumeration(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 50:
            k = int(rng.integers(1, 5))
            M = (rng.random((k, k)) < 0.5) * rng.random((k, k))
            if not M.any() or not is_irreducible(M):
                continue
            w = rng.standard_normal(k)
            best = max(
                float(np.mean(w[list(cycle)]))
                for length in range(1, k + 1)
                for cycle in itertools.product(range(k), repeat=length)
                if all(M[cycle[i], cycle[(i + 1) % length]] > 0 for i in range(length))
            )
            assert abs(_max_cycle_mean(M, w) - best) < 1e-12
            checked += 1

    def test_target_off_affine_hull_is_infeasible_at_once(self):
        # every binary state has diagonal s = 1, so a target with 1.2 there is
        # unreachable and the dual rises without bound along that entry
        kern = binary_markov_kernel(0.3, 0.3)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        base = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        res = rate_function(space, base, np.array([[1.2, 0.1], [0.1, 1.0]]))
        assert not res.feasible and not res.converged and res.value == math.inf
        assert res.iterations == 1

    def test_zero_at_chain_mean(self):
        kern = binary_markov_kernel(0.3, 0.5)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        base = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        res = rate_function(space, base, chain_mean_q(space, base))
        assert res.converged and res.feasible
        assert abs(res.value) < 1e-9

    def test_iid_matches_grid_search_legendre(self):
        kern = binary_markov_kernel(0.5, 0.5)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        base = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        probs = np.full(2, 0.5)
        # target between the two states
        target = 0.7 * space.states[0] + 0.3 * space.states[1]
        res = rate_function(space, base, target)
        # the iid rate depends only on the off-diagonal coordinate here, so a
        # dense 1-D grid over symmetric tilts is an exhaustive oracle
        ts = np.linspace(-6, 6, 200_001)
        traces = np.array([[float(np.sum(np.array([[1.0, t], [t, 1.0]]) * q)) for q in space.states] for t in ts])
        mgf = (probs * np.exp(traces - traces.max(axis=1, keepdims=True))).sum(axis=1)
        log_mgf = np.log(mgf) + traces.max(axis=1)[..., None][:, 0]
        target_trace = np.array([float(np.sum(np.array([[1.0, t], [t, 1.0]]) * target)) for t in ts])
        oracle = np.max(target_trace - log_mgf)
        assert abs(res.value - oracle) < 1e-6

    def test_extreme_state_matches_path_enumeration(self, monkeypatch):
        monkeypatch.setattr(perron, "RATE_GRAD_TOL", 1e-10)
        monkeypatch.setattr(perron, "RATE_MAX_ITER", 200_000)
        alpha = delta = 0.25
        kern = binary_markov_kernel(alpha, delta)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        base = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        j = 0
        res = rate_function(space, base, space.states[j])
        exact = -math.log(base[j, j])
        # sup attained only in the limit of a diverging tilt; the ascent value
        # approaches -log P(j|j) from below
        assert res.feasible
        assert abs(res.value - exact) < 1e-3
        # path-enumeration oracle: (1/n) log P(T_n = Q_j) for n <= 8 increases
        # toward -I(Q_j)
        w = stationary_of_matrix(base)
        for n in (4, 8):
            prob = w[j] * base[j, j] ** n
            rate_n = math.log(prob) / n
            assert rate_n <= -res.value + 1e-9
        r4 = math.log(w[j] * base[j, j] ** 4) / 4
        r8 = math.log(w[j] * base[j, j] ** 8) / 8
        assert abs(r8 - (-res.value)) < abs(r4 - (-res.value))

    def test_infeasible_target_detected(self, monkeypatch):
        monkeypatch.setattr(perron, "RATE_MAX_ITER", 3000)
        kern = binary_markov_kernel(0.3, 0.3)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        base = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        outside = 3.0 * space.states[0] - 2.0 * space.states[1]
        res = rate_function(space, base, outside)
        assert not res.feasible and res.value == math.inf

    def test_sandwich_bound_on_tilted_rows(self):
        rng = np.random.default_rng(12)
        kern = binary_markov_kernel(0.35, 0.6)
        space = enumerate_q_states([1.0], [-1.0, 1.0], 1)
        base = q_transition_matrix(space, kern, s_dist=((1.0, 1.0),))
        for _ in range(10):
            t = 0.5 * rng.standard_normal((2, 2))
            t_max, scaled, triple = _tilted_pf(base, 0.5 * (t + t.T), space)
            # rho and the row sums of the tilted matrix, scaled back by e^{t_max}
            rho = math.exp(t_max) * triple.rho
            sums = math.exp(t_max) * scaled.sum(axis=1)
            assert sums.min() - 1e-12 <= rho <= sums.max() + 1e-12
