import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replica_markov import (
    ConditionalInputLaw,
    GaussMarkovPrior,
    GaussianAtom,
    HiddenMarkovPrior,
    IrreducibilityError,
    MarkovPrior,
    ModelSpec,
    PointMass,
    TransitionMatrix,
    ValidationError,
    binary_markov_kernel,
    effective_states,
    is_irreducible,
    sparse_hmm_prior,
    stationary_distribution,
)
from replica_markov.perron import enumerate_q_states, q_transition_matrix
from oracles import strongly_connected


def power_iteration_oracle(P: np.ndarray, iters: int = 10_000) -> np.ndarray:
    v = np.full(P.shape[0], 1.0 / P.shape[0])
    for _ in range(iters):
        v = v @ P
        v /= v.sum()
    return v


def random_irreducible(rng, k: int) -> TransitionMatrix:
    P = rng.random((k, k)) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    return TransitionMatrix(tuple(range(k)), P)


@st.composite
def digraphs(draw):
    """Weighted digraphs on 1-90 states: random edges with states cut off
    (zero rows and columns), a periodic cycle with or without a chord,
    self-loops only, or two cycles joined by a one-way edge."""
    n = draw(st.integers(1, 90))
    kind = draw(st.sampled_from(["random", "cycle", "self-loops", "one-way"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    A = np.zeros((n, n))
    if kind == "random":
        A = rng.random((n, n)) * (rng.random((n, n)) < draw(st.sampled_from([0.02, 0.1, 0.3, 0.9])))
        cut = draw(st.sampled_from([0.0, 0.02, 0.1]))
        A[rng.random(n) < cut] = 0.0
        A[:, rng.random(n) < cut] = 0.0
    elif kind == "cycle":
        A[order, np.roll(order, -1)] = rng.uniform(0.1, 1.0, n)
        if draw(st.booleans()):
            A[order[0], order[n // 2]] = 1.0
    elif kind == "self-loops":
        A[order, order] = rng.uniform(0.1, 1.0, n)
    else:
        k = draw(st.integers(1, n))
        for block in (order[:k], order[k:]):
            A[block, np.roll(block, -1)] = rng.uniform(0.1, 1.0, len(block))
        if k < n:
            A[order[0], order[k]] = 1.0
    return A


class TestStationaryDistribution:
    def test_binary_asymmetric_closed_form(self):
        # left PF eigenvector (delta/(alpha+delta), alpha/(alpha+delta))
        sd = stationary_distribution(binary_markov_kernel(0.2, 0.5))
        assert abs(sd[0] - 5.0 / 7.0) < 1e-12
        assert abs(sd[1] - 2.0 / 7.0) < 1e-12

    def test_doubly_stochastic_is_uniform(self):
        P = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
        sd = stationary_distribution(TransitionMatrix(("a", "b", "c"), P))
        assert np.allclose(sd, 1.0 / 3.0, atol=1e-12)

    def test_random_4x4_matches_power_iteration(self):
        rng = np.random.default_rng(7)
        kern = random_irreducible(rng, 4)
        sd = stationary_distribution(kern)
        assert np.max(np.abs(sd - power_iteration_oracle(kern.P))) < 1e-10

    def test_fixed_point_residual_and_relabeling(self):
        rng = np.random.default_rng(21)
        for k in (2, 3, 5, 8):
            kern = random_irreducible(rng, k)
            w = stationary_distribution(kern)
            assert np.max(np.abs(w @ kern.P - w)) < 1e-12
            perm = rng.permutation(k)
            permuted = TransitionMatrix(tuple(perm), kern.P[np.ix_(perm, perm)])
            w2 = stationary_distribution(permuted)
            assert np.allclose(w2, w[perm], atol=1e-12)

    def test_iid_kernel_returns_row(self):
        p = np.array([0.2, 0.3, 0.5])
        kern = TransitionMatrix((0, 1, 2), np.tile(p, (3, 1)))
        assert np.allclose(stationary_distribution(kern), p, atol=1e-12)

    def test_periodic_chain_beyond_64_states(self):
        # bipartite with halves of 30 and 40 states: period 2, so power iteration
        # from the uniform vector oscillates instead of converging
        rng = np.random.default_rng(7)
        P = np.zeros((70, 70))
        P[:30, 30:] = rng.uniform(0.1, 1.0, (30, 40))
        P[30:, :30] = rng.uniform(0.1, 1.0, (40, 30))
        P /= P.sum(axis=1, keepdims=True)
        w = stationary_distribution(TransitionMatrix(tuple(range(70)), P))
        assert np.max(np.abs(w @ P - w)) < 1e-12
        assert abs(w[:30].sum() - 0.5) < 1e-12  # a period-2 chain spends half its time in each half

    def test_non_stochastic_rows_rejected(self):
        with pytest.raises(ValidationError):
            TransitionMatrix((0, 1), np.array([[0.8, 0.1], [0.5, 0.5]]))

    def test_reducible_chain_rejected(self):
        kern = TransitionMatrix((0, 1), np.eye(2))
        with pytest.raises(IrreducibilityError):
            stationary_distribution(kern)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValidationError):
            TransitionMatrix((), np.zeros((0, 0)))

    def test_law_is_stored_read_only_on_a_read_only_kernel(self):
        P = np.array([[0.8, 0.2], [0.5, 0.5]])
        kern = TransitionMatrix((0, 1), P)
        P[0] = [0.2, 0.8]  # the kernel holds a copy
        law = stationary_distribution(kern)
        assert stationary_distribution(kern) is law
        assert np.allclose(law, [5.0 / 7.0, 2.0 / 7.0], atol=1e-12)
        for array in (law, kern.P):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_one_solve_per_kernel(self, monkeypatch):
        solves = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: solves.append(1) or lstsq(*a, **k))
        kernel = binary_markov_kernel(0.2, 0.5)
        prior = MarkovPrior(kernel)
        ModelSpec(prior=prior)
        ModelSpec(prior=prior, postulated_prior=MarkovPrior(kernel), sigma=1.2)
        q_transition_matrix(enumerate_q_states([1.0], kernel.state_values(), 1), kernel, ((1.0, 1.0),))
        assert len(solves) == 1


class TestIrreducibility:
    def test_positive_two_state_true(self):
        assert is_irreducible(binary_markov_kernel(0.4, 0.7))

    def test_block_diagonal_false(self):
        assert not is_irreducible(np.eye(2))

    def test_directed_cycle_true(self):
        P = np.roll(np.eye(4), 1, axis=1)
        assert is_irreducible(P)

    def test_one_way_edge_false(self):
        assert not is_irreducible(np.array([[0.5, 0.5], [0.0, 1.0]]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationError):
            is_irreducible(np.zeros((0, 0)))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(graph=digraphs(), as_kernel=st.booleans())
    def test_matches_transitive_closure(self, graph, as_kernel):
        if as_kernel:
            # a state without out-edges keeps only a self-loop, so its row can be stochastic
            stuck = graph.sum(axis=1) == 0
            graph[stuck, stuck] = 1.0
            graph /= graph.sum(axis=1, keepdims=True)
            assert is_irreducible(TransitionMatrix(tuple(range(len(graph))), graph)) == strongly_connected(graph)
        else:
            assert is_irreducible(graph) == strongly_connected(graph)


class TestPriors:
    def test_gauss_markov_bounds(self):
        with pytest.raises(ValidationError):
            GaussMarkovPrior(1.0, 1.0)
        with pytest.raises(ValidationError):
            GaussMarkovPrior(0.5, 0.0)

    def test_gauss_markov_stationary_variance(self):
        prior = GaussMarkovPrior(0.5, 1.0)
        assert abs(prior.stationary_variance() - 1.0 / 0.75) < 1e-15

    def test_discrete_defaults_to_stationary_initial(self):
        prior = MarkovPrior(binary_markov_kernel(0.2, 0.5))
        assert np.allclose(prior.initial, [5.0 / 7.0, 2.0 / 7.0], atol=1e-12)

    def test_initial_law_is_a_read_only_copy(self):
        # mutating the caller's array changes neither the prior nor its hash
        initial = np.array([0.25, 0.75])
        prior = MarkovPrior(binary_markov_kernel(0.2, 0.5), initial)
        key = hash(prior)
        initial[:] = [0.75, 0.25]
        assert prior.initial.tolist() == [0.25, 0.75] and not prior.initial.flags.writeable
        assert hash(prior) == key and prior == MarkovPrior(binary_markov_kernel(0.2, 0.5), [0.25, 0.75])
        with pytest.raises(ValueError):
            prior.initial[0] = 0.5

    def test_hmm_requires_irreducible_hidden_chain(self):
        hidden = TransitionMatrix((0, 1), np.eye(2))
        law = ConditionalInputLaw.point_masses([0.0], [1.0])
        with pytest.raises(IrreducibilityError):
            HiddenMarkovPrior(hidden, (law, law))

    def test_value_equality_and_hash(self):
        # the same values built twice: equal, one hash, one set element
        kernel = binary_markov_kernel(0.2, 0.5)
        twin = TransitionMatrix((-1, 1), np.array([[0.8, 0.2], [0.5, 0.5]]))
        negative_zero = TransitionMatrix((0, 1), np.array([[-0.0, 1.0], [1.0, 0.0]]))
        cycle = TransitionMatrix((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
        stationary_distribution(kernel)  # the stored law is not compared
        equal_pairs = [
            (kernel, twin),
            (negative_zero, cycle),
            (MarkovPrior(kernel), MarkovPrior(twin)),
            (GaussMarkovPrior(0.5, 1.0), GaussMarkovPrior(0.5, 1.0)),
            (sparse_hmm_prior(0.3, 0.3), sparse_hmm_prior(0.3, 0.3)),
        ]
        for a, b in equal_pairs:
            assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
        unequal = [
            kernel,
            binary_markov_kernel(0.2, 0.4),
            TransitionMatrix(("a", "b"), kernel.P),
            MarkovPrior(kernel),
            MarkovPrior(kernel, initial=[0.5, 0.5]),
            GaussMarkovPrior(0.5, 1.0),
            GaussMarkovPrior(0.6, 1.0),
            sparse_hmm_prior(0.3, 0.3),
            sparse_hmm_prior(0.3, 0.4),
            HiddenMarkovPrior(kernel, (ConditionalInputLaw.gaussian(0.0, 1.0),) * 2),
        ]
        for i, a in enumerate(unequal):
            for b in unequal[i + 1 :]:
                assert (a == b) is False and a != b
        assert len(set(unequal + [twin, MarkovPrior(twin)])) == len(unequal)
        assert kernel != kernel.P.tolist() and MarkovPrior(kernel) != kernel


class TestJointChain:
    def test_sparse_hmm_stationary_weights(self):
        eff = effective_states(sparse_hmm_prior(0.3, 0.8))
        assert np.allclose(eff.weights, [0.7, 0.3], atol=1e-12)
        eff = effective_states(sparse_hmm_prior(0.5, 1.0))
        assert np.allclose(eff.weights, [0.5, 0.5], atol=1e-12)

    def test_deterministic_emission_reduces_to_hidden_chain(self):
        # X = Upsilon: the conditional law given u0 is the hidden kernel row
        hidden = binary_markov_kernel(0.2, 0.5)
        emissions = (
            ConditionalInputLaw.point_masses([-1.0], [1.0]),
            ConditionalInputLaw.point_masses([1.0], [1.0]),
        )
        eff = effective_states(HiddenMarkovPrior(hidden, emissions))
        for i in range(2):
            weights = {atom.x: w for w, atom in eff.laws[i].components}
            assert abs(weights[-1.0] - hidden.P[i, 0]) < 1e-12
            assert abs(weights[1.0] - hidden.P[i, 1]) < 1e-12

    def test_sparse_law_given_inactive_state(self):
        eff = effective_states(sparse_hmm_prior(0.3, 0.8))
        comps = eff.laws[0].components
        point = [(w, a) for w, a in comps if isinstance(a, PointMass)]
        gauss = [(w, a) for w, a in comps if isinstance(a, GaussianAtom)]
        assert len(point) == 1 and abs(point[0][0] - 0.76) < 1e-12 and point[0][1].x == 0.0
        assert len(gauss) == 1 and abs(gauss[0][0] - 0.24) < 1e-12
        assert gauss[0][1].mean == 0.0 and gauss[0][1].var == 1.0

    def test_weights_match_hidden_stationary_exactly(self):
        rng = np.random.default_rng(3)
        hidden = random_irreducible(rng, 3)
        emissions = tuple(ConditionalInputLaw.gaussian(float(i), 1.0) for i in range(3))
        eff = effective_states(HiddenMarkovPrior(hidden, emissions))
        assert np.array_equal(eff.weights, stationary_distribution(hidden))

    def test_second_moment_sparse_is_kappa(self):
        for kappa, gamma in ((0.3, 0.8), (0.5, 1.0), (0.7, 0.4)):
            eff = effective_states(sparse_hmm_prior(kappa, gamma))
            assert abs(eff.second_moment() - kappa) < 1e-12


class TestEffectiveStatesDiscrete:
    def test_rows_become_point_mass_laws(self):
        eff = effective_states(MarkovPrior(binary_markov_kernel(0.3, 0.3)))
        assert eff.labels == (-1.0, 1.0)
        law = eff.laws[0]
        weights = {atom.x: w for w, atom in law.components}
        assert abs(weights[-1.0] - 0.7) < 1e-12 and abs(weights[1.0] - 0.3) < 1e-12

    def test_chain_is_the_hidden_chain_emitting_its_own_values(self):
        kern = TransitionMatrix((-1.0, 0.5, 2.0), np.array([[0.6, 0.0, 0.4], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]]))
        own = tuple(ConditionalInputLaw.point_masses([v], [1.0]) for v in kern.states)
        eff = effective_states(MarkovPrior(kern))
        hidden = effective_states(HiddenMarkovPrior(kern, own))
        assert eff.labels == hidden.labels and eff.laws == hidden.laws
        assert np.array_equal(eff.weights, hidden.weights)
        assert eff.laws[0] == ConditionalInputLaw.point_masses(kern.states, kern.P[0])

    def test_gauss_markov_single_state(self):
        eff = effective_states(GaussMarkovPrior(0.5, 2.0))
        assert len(eff.labels) == 1
        assert eff.second_moment() == 2.0


class TestLaws:
    def test_weight_normalization_enforced(self):
        # a law raises the package's one ValidationError, as a kernel does
        with pytest.raises(ValidationError, match="mixture weights sum"):
            ConditionalInputLaw(((0.5, PointMass(0.0)), (0.4, PointMass(1.0))))

    def test_moments(self):
        law = ConditionalInputLaw(((0.25, PointMass(2.0)), (0.75, GaussianAtom(1.0, 4.0))))
        assert abs(law.second_moment() - (0.25 * 4.0 + 0.75 * 5.0)) < 1e-15

    def test_mix_flattens(self):
        a = ConditionalInputLaw.point_masses([0.0], [1.0])
        b = ConditionalInputLaw.gaussian(0.0, 1.0)
        law = ConditionalInputLaw.mix([(0.76, a), (0.24, b)])
        assert len(law.components) == 2
        assert abs(sum(w for w, _ in law.components) - 1.0) < 1e-12
