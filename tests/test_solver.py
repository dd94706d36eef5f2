import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from replica_markov import (
    ConditionalInputLaw,
    GaussMarkovPrior,
    MarkovPrior,
    ModelSpec,
    TransitionMatrix,
    ValidationError,
    binary_markov_kernel,
    fixed_point_residual,
    free_energies,
    free_energy,
    gauss_markov_eta,
    gauss_markov_free_energy,
    is_irreducible,
    solve_fixed_point,
    sparse_hmm_prior,
)
from replica_markov import solver
from replica_markov.single_symbol import QuadratureError
from replica_markov.solver import RESIDUAL_TOL, _first_roots, _root, _roots
from iid_reference import iid_replica
from oracles import LOG_2PIE, g_bar_binary, sparse_hmm_hand_path

BINARY_SYM = ModelSpec(prior=MarkovPrior(binary_markov_kernel(0.3, 0.3)))
GM_UNIT = ModelSpec(prior=GaussMarkovPrior(0.5, 1.0))


def states_0_10_model(sigma: float) -> ModelSpec:
    """iid true law 0.1 at 0 and 0.9 at 10, postulated 0.99 at 0: its xi equation has several roots."""
    states = (0.0, 10.0)
    true = MarkovPrior(TransitionMatrix(states, np.array([[0.1, 0.9], [0.1, 0.9]])))
    post = MarkovPrior(TransitionMatrix(states, np.array([[0.99, 0.01], [0.99, 0.01]])))
    return ModelSpec(prior=true, postulated_prior=post, sigma=sigma)


class TestFixedPoint:
    def test_vanishing_load_gives_unit_eta(self):
        sols = solve_fixed_point(BINARY_SYM, 1e-9)
        assert len(sols) == 1
        eta, xi = sols[0]
        assert abs(eta - 1.0) < 1e-8 and xi == eta

    def test_inner_xi_solve_halves_below_its_initial_bound(self):
        # iid true law 0.1 at 0 and 0.9 at 10, postulated 0.99 at 0: the min-F
        # point's xi lies below the initial bound 1/(sigma^2 + beta E_q X^2),
        # which the inner solve reaches by halving that bound.  Points recorded
        # before the eta and xi solves shared one bracket search.
        states = (0.0, 10.0)
        true = MarkovPrior(TransitionMatrix(states, np.array([[0.1, 0.9], [0.1, 0.9]])))
        post = MarkovPrior(TransitionMatrix(states, np.array([[0.99, 0.01], [0.99, 0.01]])))
        model = ModelSpec(prior=true, postulated_prior=post, sigma=1.5)
        sol = free_energy(model, 1.0)
        want = [(0.03460732455532391, 0.16436952076160802), (0.9969500779915212, 0.44242995911512084)]
        assert len(sol.all_solutions) == len(want)
        for (eta, xi, _), (w_eta, w_xi) in zip(sol.all_solutions, want):
            assert abs(eta - w_eta) < 1e-12 and abs(xi - w_xi) < 1e-12
        assert (sol.eta, sol.xi) == sol.all_solutions[0][:2]
        assert sol.xi < 1.0 / (1.5**2 + 1.0 * model._decoupled.post_s_moment)

    def test_gauss_markov_matches_quadratic_root(self):
        # oracle: positive root of a*eta^2 + ((beta-1)a+1)*eta - 1
        for beta, a in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7)):
            roots = np.roots([a, (beta - 1.0) * a + 1.0, -1.0])
            oracle = float(roots[roots > 0][0])
            model = ModelSpec(prior=GaussMarkovPrior(0.4, a))
            sols = solve_fixed_point(model, beta)
            assert len(sols) == 1
            assert abs(sols[0][0] - oracle) < 1e-9
            assert abs(gauss_markov_eta(beta, a) - oracle) < 1e-12

    def test_golden_ratio_point(self):
        assert abs(gauss_markov_eta(1.0, 1.0) - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-15

    def test_gauss_markov_eta_limits(self):
        assert abs(gauss_markov_eta(1e-12, 1.0) - 1.0) < 1e-11
        assert abs(gauss_markov_eta(1.0, 1e-12) - 1.0) < 1e-11
        eta = gauss_markov_eta(1.3, 0.9)
        assert abs(1.0 / eta - 1.0 - 1.3 * 0.9 / (eta * 0.9 + 1.0)) < 1e-12

    def test_eta_strictly_decreasing_in_beta(self):
        etas = [solve_fixed_point(BINARY_SYM, b)[0][0] for b in (0.5, 1.0, 2.0)]
        assert etas[0] > etas[1] > etas[2]

    def test_residuals_below_tolerance(self):
        for model in (BINARY_SYM, GM_UNIT, ModelSpec(prior=sparse_hmm_prior(0.3, 0.8))):
            for eta, xi in solve_fixed_point(model, 1.3):
                assert fixed_point_residual(model, 1.3, eta, xi) < 1e-8

    def test_mismatched_sigma_two_dimensional_system(self):
        model = ModelSpec(prior=MarkovPrior(binary_markov_kernel(0.3, 0.3)), sigma=1.5)
        sols = solve_fixed_point(model, 1.0)
        assert sols
        eta, xi = sols[0]
        assert eta != xi
        assert fixed_point_residual(model, 1.0, eta, xi) < 1e-8

    def test_mismatched_free_energy_tracks_exact_evidence(self):
        # no closed-form reference exists off the matched point, so the
        # evidence oracle is the check: same desk-scale agreement as matched
        from replica_markov.simulator import empirical_free_energy

        for sigma in (1.3, 0.8):
            model = ModelSpec(
                prior=MarkovPrior(binary_markov_kernel(0.3, 0.3)), sigma=sigma
            )
            sol = free_energy(model, 1.0)
            assert sol.mutual_info is None and sol.mmse is None
            emp, _se = empirical_free_energy(model, 12, 1.0, trials=150, seed=77)
            assert abs(sol.free_energy - emp) / abs(emp) < 0.05

    def test_mismatched_vanishing_load_limits(self):
        # beta -> 0: eta -> 1 and xi -> 1/sigma^2
        model = ModelSpec(prior=MarkovPrior(binary_markov_kernel(0.3, 0.3)), sigma=1.5)
        eta, xi = solve_fixed_point(model, 1e-9)[0]
        assert abs(eta - 1.0) < 1e-8
        assert abs(xi - 1.0 / 1.5**2) < 1e-8


class TestFreeEnergyTerm:
    def test_binary_matches_trapezoid_oracle(self):
        beta = 1.0
        sol = free_energy(BINARY_SYM, beta)
        g_minus, g_plus = solver._assess(BINARY_SYM, beta, sol.eta, sol.xi)[1]
        assert abs(g_minus - g_bar_binary(-1, sol.eta, 0.3, beta)) < 1e-7
        assert abs(g_plus - g_bar_binary(1, sol.eta, 0.3, beta)) < 1e-7

    def test_gauss_markov_term_is_closed_form(self):
        beta = 1.0
        eta = gauss_markov_eta(beta, 1.0)
        (term,) = solver._assess(GM_UNIT, beta, eta, eta)[1]
        assert abs(term - gauss_markov_free_energy(beta, 1.0)) < 1e-10

    def test_matched_cross_entropy_is_output_entropy(self):
        # with p = q the integral term is the differential entropy of U
        beta, eta = 1.0, 0.7
        (term,) = solver._assess(GM_UNIT, beta, eta, eta)[1]
        entropy = 0.5 * math.log(2.0 * math.pi * math.e * (1.0 + 1.0 / eta))
        const = (
            ((eta - 1.0) - math.log(eta)) / (2.0 * beta)
            - 0.5 * math.log(2.0 * math.pi / eta)
            - 0.5
            + math.log(2.0 * math.pi) / (2.0 * beta)
            + 1.0 / (2.0 * beta)
        )
        assert abs(term - (entropy + const)) < 1e-9


class TestFreeEnergy:
    def test_iid_reduction_matches_reference_path(self):
        model = ModelSpec(prior=MarkovPrior(binary_markov_kernel(0.5, 0.5)))
        law = ConditionalInputLaw.point_masses([-1.0, 1.0], [0.5, 0.5])
        for beta in (0.2, 1.0, 2.4):
            sol = free_energy(model, beta)
            ref = iid_replica(law, 1.0, beta)
            assert abs(sol.free_energy - ref.free_energy) < 1e-9
            assert abs(sol.mutual_info - ref.mutual_info) < 1e-9
            assert abs(sol.mmse - ref.mmse) < 1e-9

    def test_iid_reduction_any_equal_rows_prior(self):
        kern = TransitionMatrix((-1.0, 0.0, 2.0), np.tile([0.2, 0.5, 0.3], (3, 1)))
        model = ModelSpec(prior=MarkovPrior(kern))
        law = ConditionalInputLaw.point_masses([-1.0, 0.0, 2.0], [0.2, 0.5, 0.3])
        sol = free_energy(model, 1.0)
        ref = iid_replica(law, 1.0, 1.0)
        assert abs(sol.free_energy - ref.free_energy) < 1e-9
        assert abs(sol.mmse - ref.mmse) < 1e-9

    def test_gauss_markov_quadrature_equals_closed_form(self):
        for beta in np.arange(0.2, 3.01, 0.2):
            sol = free_energy(GM_UNIT, float(beta))
            assert abs(sol.free_energy - gauss_markov_free_energy(float(beta), 1.0)) < 1e-6

    def test_gauss_markov_free_energy_has_no_nu(self):
        vals = {
            nu: free_energy(ModelSpec(prior=GaussMarkovPrior(nu, 1.0)), 1.0).free_energy
            for nu in (0.1, 0.5, 0.8)
        }
        assert vals[0.1] == vals[0.5] == vals[0.8]

    def test_minimizer_is_argmin_of_candidates(self):
        sol = free_energy(BINARY_SYM, 1.0)
        assert all(sol.free_energy <= g + 1e-15 for _, _, g in sol.all_solutions)

    def test_snr_distribution_is_accepted(self):
        model = ModelSpec(
            prior=MarkovPrior(binary_markov_kernel(0.3, 0.3)),
            snr=((0.5, 0.5), (2.0, 0.5)),
        )
        sol = free_energy(model, 1.0)
        assert np.isfinite(sol.free_energy)
        assert fixed_point_residual(model, 1.0, sol.eta, sol.xi) < 1e-8


class TestMutualInformation:
    def test_point_mass_prior_learns_nothing(self):
        kern = TransitionMatrix((0.5,), np.array([[1.0]]))
        model = ModelSpec(prior=MarkovPrior(kern))
        for beta in (0.5, 1.0):
            sol = free_energy(model, beta)
            assert abs(sol.free_energy - LOG_2PIE / (2.0 * beta)) < 1e-10
            assert abs(sol.mutual_info) < 1e-10
            assert abs(sol.mmse) < 1e-10

    def test_mismatched_model_rejected(self):
        # the mutual-information and MMSE identities hold for matched models only
        model = ModelSpec(prior=MarkovPrior(binary_markov_kernel(0.3, 0.3)), sigma=2.0)
        sol = free_energy(model, 1.0)
        assert sol.mutual_info is None and sol.mmse is None

    def test_monotone_nonincreasing_in_beta(self):
        vals = [free_energy(BINARY_SYM, float(b)).mutual_info for b in np.arange(0.2, 3.01, 0.4)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestReplicaMmse:
    def test_sparse_hmm_iid_case_rows_agree(self):
        # kappa=0.5, gamma=1: both hidden rows are (0.5, 0.5), so the two
        # per-state conditional laws coincide and MMSE = kappa - R
        from replica_markov import effective_states

        eff = effective_states(sparse_hmm_prior(0.5, 1.0))
        assert eff.laws[0] == eff.laws[1]
        model = ModelSpec(prior=sparse_hmm_prior(0.5, 1.0))
        eta, free_ref, mmse_ref = sparse_hmm_hand_path(0.5, 1.0, 1.0)
        sol = free_energy(model, 1.0)
        assert abs(sol.mmse - mmse_ref) < 1e-7
        assert abs(sol.eta - eta) < 1e-7

    def test_hand_specialized_sparse_path_grid(self):
        for kappa, gamma, beta in (
            (0.3, 0.8, 0.5),
            (0.3, 0.8, 1.5),
            (0.5, 1.0, 1.0),
            (0.6, 0.5, 0.8),
        ):
            model = ModelSpec(prior=sparse_hmm_prior(kappa, gamma))
            sol = free_energy(model, beta)
            _, free_ref, mmse_ref = sparse_hmm_hand_path(kappa, gamma, beta)
            assert abs(sol.free_energy - free_ref) < 1e-7
            assert abs(sol.mmse - mmse_ref) < 1e-7

    def test_low_load_limit_matches_scalar_channel(self):
        # beta -> 0: eta -> 1 and the MMSE is the scalar-channel value
        model = BINARY_SYM
        mmse = free_energy(model, 1e-6).mmse
        u = np.linspace(-12, 12, 200_001)
        c = 1.0 / math.sqrt(2.0 * math.pi)
        f = 0.7 * c * np.exp(-0.5 * (u + 1) ** 2) + 0.3 * c * np.exp(-0.5 * (u - 1) ** 2)
        ratio = (0.7 / 0.3) * np.exp(-2.0 * u)
        g = (1.0 - ratio) / (1.0 + ratio)
        scalar = 1.0 - np.trapezoid(f * g * g, u)
        assert abs(mmse - scalar) < 1e-6

    def test_bounds(self):
        for model, m2 in ((BINARY_SYM, 1.0), (ModelSpec(prior=sparse_hmm_prior(0.3, 0.8)), 0.3)):
            for beta in (0.4, 1.0, 2.5):
                val = free_energy(model, beta).mmse
                assert 0.0 <= val <= m2 + 1e-12


class TestValidation:
    def test_snr_probabilities_must_sum_to_one(self):
        with pytest.raises(Exception):
            ModelSpec(prior=GaussMarkovPrior(0.5, 1.0), snr=((1.0, 0.5), (2.0, 0.6)))

    def test_sigma_positive(self):
        with pytest.raises(Exception):
            ModelSpec(prior=GaussMarkovPrior(0.5, 1.0), sigma=0.0)

    def test_matched_detection_with_explicit_equal_prior(self):
        prior = MarkovPrior(binary_markov_kernel(0.3, 0.3))
        same = MarkovPrior(binary_markov_kernel(0.3, 0.3))
        assert ModelSpec(prior=prior, postulated_prior=same).is_matched
        other = MarkovPrior(binary_markov_kernel(0.3, 0.4))
        assert not ModelSpec(prior=prior, postulated_prior=other).is_matched

    @pytest.mark.parametrize(
        "true,postulated", [("discrete", "gauss"), ("discrete", "hmm"), ("gauss", "discrete"),
                            ("gauss", "hmm"), ("hmm", "discrete"), ("hmm", "gauss")]
    )
    def test_postulated_prior_of_another_family_is_rejected(self, true, postulated):
        priors = {
            "discrete": MarkovPrior(binary_markov_kernel(0.3, 0.3)),
            "gauss": GaussMarkovPrior(0.5, 1.0),
            "hmm": sparse_hmm_prior(0.3, 0.5),
        }
        with pytest.raises(ValidationError, match="same kind"):
            ModelSpec(prior=priors[true], postulated_prior=priors[postulated])


class TestGoldenValues:
    # (eta, xi, F, MI, MMSE) recorded from the damped-iteration solver this
    # scan-and-bracket solver replaced, on a fixed grid of models and loads.
    GOLDEN = (
        (("binary_sym", 0.75), (0.7363008255955203, 0.7363008255955203, 2.154575917434907, 0.26265787316201017, 0.4775207184121679)),
        (("binary_sym", 1.5), (0.549561342868032, 0.549561342868032, 1.1820240598661569, 0.23606503772970844, 0.5464220545803563)),
        (("binary_asym", 0.75), (0.7566721659818225, 0.7566721659818225, 2.1311935032611866, 0.23927545898828972, 0.4287683974778209)),
        (("binary_asym", 1.5), (0.5784963088835979, 0.5784963088835979, 1.162836177198424, 0.21687715506197547, 0.4857463330862999)),
        (("sparse_hmm", 0.75), (0.8720920899781797, 0.8720920899781797, 2.002505091924049, 0.11058704765115213, 0.1955571917103666)),
        (("sparse_hmm", 1.5), (0.7655568315030652, 0.7655568315030652, 1.050837916952314, 0.10487889481586565, 0.20415916785392435)),
        (("gauss_markov", 0.75), (0.6930004681646122, 0.6930004681646122, 2.194985949043086, 0.30306790477018897, 0.5906672908862826)),
        (("gauss_markov", 1.5), (0.4999999999998783, 0.4999999999998783, 1.2130739697105124, 0.26711494757406395, 0.6666666666667205)),
        (("binary_two_snr", 0.75), (0.7522200683690407, 0.7522200683690407, 2.173002779450139, 0.2810847351772421, 0.45283828518169356)),
        (("binary_two_snr", 1.5), (0.553860530133111, 0.553860530133111, 1.2024599821987176, 0.2565009600622692, 0.5202431709889246)),
        (("mismatched", 0.75), (0.7221249140329313, 0.52094682656944, 2.1958474432751687, None, None)),
        (("mismatched", 1.5), (0.5318373674501584, 0.4018476539919269, 1.202720473022489, None, None)),
    )

    @staticmethod
    def model(name: str) -> ModelSpec:
        binary = MarkovPrior(binary_markov_kernel(0.3, 0.3))
        postulated = MarkovPrior(
            TransitionMatrix((-1.0, 1.0), np.array([[0.62, 0.38], [0.45, 0.55]]))
        )
        return {
            "binary_sym": ModelSpec(prior=binary),
            "binary_asym": ModelSpec(prior=MarkovPrior(binary_markov_kernel(0.2, 0.4))),
            "sparse_hmm": ModelSpec(prior=sparse_hmm_prior(0.3, 0.3)),
            "gauss_markov": ModelSpec(prior=GaussMarkovPrior(0.5, 1.0)),
            "binary_two_snr": ModelSpec(prior=binary, snr=((0.5, 0.5), (2.0, 0.5))),
            "mismatched": ModelSpec(prior=binary, postulated_prior=postulated, sigma=1.2),
        }[name]

    @pytest.mark.parametrize("key,want", GOLDEN, ids=[f"{n}-{b}" for (n, b), _ in GOLDEN])
    def test_recorded_values(self, key, want):
        name, beta = key
        sol = free_energy(self.model(name), beta)
        got = (sol.eta, sol.xi, sol.free_energy, sol.mutual_info, sol.mmse)
        assert len(sol.all_solutions) == 1
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert abs(g - w) < 1e-10


class TestRootHelpers:
    def test_scan_finds_all_three_sign_changes(self):
        (roots,), points, brackets = _roots(lambda x, _: (x - 0.1) * (x - 0.3) * (x - 0.7), [0.05], [1.0], 16)
        assert (points.tolist(), brackets.tolist()) == ([16], [3])
        assert np.allclose(roots, [0.1, 0.3, 0.7], rtol=0.0, atol=1e-14)

    def test_brackets_refined_in_lockstep(self):
        sizes = []

        def f(x, _):
            sizes.append(np.size(x))
            return (x - 0.1) * (x - 0.3) * (x - 0.7)

        (roots,), _, brackets = _roots(f, [0.05], [1.0], 16)
        assert brackets.tolist() == [3]
        # one call per step over the brackets still open: solved ones drop out
        assert sizes[0] == 16 and sizes[1] == 3 and sizes[-1] < 3
        assert all(a >= b for a, b in zip(sizes[1:], sizes[2:]))
        assert np.allclose(roots, [0.1, 0.3, 0.7], rtol=0.0, atol=1e-14)

    def test_only_active_brackets_are_evaluated(self):
        # f(x, idx) gets the points of the brackets idx only; each root sits
        # at its own target, so a point handed to the wrong bracket misses it
        targets = np.array([0.2, 0.5, 0.9, 0.6])
        calls = []

        def f(x, idx):
            calls.append(idx.tolist())
            return np.expm1(3.0 * (x - targets[idx]))

        lo, hi = np.array([0.0, 0.0, 0.0, 0.6 - 4e-15]), np.array([1.0, 1.0, 1.0, 0.6 + 4e-15])
        roots = _root(f, lo, hi, np.expm1(3.0 * (lo - targets)), np.expm1(3.0 * (hi - targets)))
        assert np.allclose(roots, targets, rtol=0.0, atol=1e-14)
        assert calls[0] == [0, 1, 2] and 3 not in sum(calls, [])  # bracket 3 starts narrower than 1e-14
        assert len(calls[-1]) < 3 and all(set(b) <= set(a) for a, b in zip(calls, calls[1:]))

    def test_root_at_bracket_end(self):
        for root, lo in ((1.0, 0.5), (0.5, 0.5)):
            (roots,), _, brackets = _roots(lambda x, _, r=root: x - r, [lo], [1.0], 16)
            assert roots.tolist() == [root] and brackets.tolist() == [0]

    def test_left_end_is_lowered_until_the_sign_holds(self):
        (roots,), points, brackets = _roots(lambda x, _: x - 0.01, [0.1], [1.0], 16)
        assert points.tolist() == [16 + 4] and brackets.tolist() == [1]
        assert abs(roots[0] - 0.01) < 1e-14

    def test_rows_are_halved_and_refined_on_their_own(self):
        # row 0 needs 4 halvings, row 1 has its root on a grid point, and row 2
        # (f > 0 everywhere) has none: it is halved the full 60 times
        calls = []

        def f(x, rows):
            calls.append((np.shape(x), rows.tolist()))
            return np.select([rows == 0, rows == 1], [x - 0.01, x - 0.5], 1.0 + x)

        roots, points, brackets = _roots(f, [0.1, 0.5, 0.1], [1.0, 1.0, 1.0], 3)
        assert abs(roots[0][0] - 0.01) < 1e-14 and len(roots[0]) == 1
        assert roots[1].tolist() == [0.5] and roots[2].size == 0
        assert points.tolist() == [3 + 4, 3, 3 + 60] and brackets.tolist() == [1, 0, 0]
        assert calls[0] == ((3, 3), [[0] * 3, [1] * 3, [2] * 3])
        # each halving step evaluates only the rows still positive at their lowest point
        assert [rows for _, rows in calls[1:61]] == [[0, 2]] * 4 + [[2]] * 56
        assert len(calls) > 61 and all(set(rows) == {0} for _, rows in calls[61:])

    def test_illinois_converges_to_width(self):
        root = _root(lambda x, _: np.cos(x), [1.0], [2.0], [math.cos(1.0)], [math.cos(2.0)])
        assert abs(root[0] - math.pi / 2.0) < 1e-14

    # Evaluations of one _root: once the secant point rounds onto an end this
    # call evaluated, the bracket stops there instead of halving its far end
    # down to a width of 1e-14.
    @pytest.mark.parametrize(
        ("fn", "lo", "hi", "root", "evaluations"),
        [
            (lambda x: x**3 - 0.2, 0.0, 1.0, 0.2 ** (1.0 / 3.0), 9),
            (np.cos, 1.0, 2.0, math.pi / 2.0, 5),
            (lambda x: np.expm1(3.0 * (x - 0.2)), 0.0, 1.0, 0.2, 8),
        ],
        ids=["cube", "cos", "expm1"],
    )
    def test_endgame_stops_on_an_evaluated_end(self, fn, lo, hi, root, evaluations):
        points = []
        got = _root(lambda x, _: points.extend(np.ravel(x).tolist()) or fn(x), [lo], [hi], [fn(lo)], [fn(hi)])
        assert len(points) == evaluations and got[0] in points
        assert abs(got[0] - root) < 1e-14

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "Known stall (CHANGES.md, FOUND on solver._root spending all 200 steps on a bracket "
            "where f is flat at one end): the Illinois factor m = 1 - fc/fa is about 1e-9 at the "
            "flat end, the bracket swaps ends without shrinking, and _root returns 0.000851 with "
            "no error.  The check is at full strength and fails honestly."
        ),
    )
    def test_flat_end_bracket_converges(self):
        def fn(x):
            return np.expm1(24.99 * (x - 0.5193))

        got = _root(lambda x, _: fn(x), [0.0], [1.0], [fn(0.0)], [fn(1.0)])
        assert abs(got[0] - 0.5193) < 1e-9

    @staticmethod
    def random_batch(rng) -> tuple:
        """(f, a, b, fa, fb) of 1-40 brackets, each with its own root function.

        Kind 0 is a smooth exponential, 1 a cubic, 2 a line through a dyadic
        root on a dyadic bracket (its first secant point is the root, where f
        is exactly 0), 3 a steep tanh whose secant points overshoot (the stale
        end's Illinois factor m goes <= 0 and is halved), 4 a bracket
        narrower than 1e-14 from the start and 5 a sinh so steep that the
        first secant point rounds onto the end nearer the root, which the
        caller passed in and so does not stop the bracket.
        """
        n = int(rng.integers(1, 41))
        kind = rng.integers(0, 6, n)
        target = rng.uniform(0.1, 0.9, n)
        target[kind == 2] = rng.integers(1, 16, (kind == 2).sum()) / 16.0
        rate = rng.uniform(0.5, 40.0, n)
        a, b = np.zeros(n), np.ones(n)
        a[kind == 4], b[kind == 4] = target[kind == 4] - 3e-15, target[kind == 4] + 3e-15

        def f(x, idx):
            k, t, r = kind[idx], target[idx] + np.zeros_like(x), rate[idx]
            d = x - t
            with np.errstate(over="ignore"):
                return np.select(
                    [k == 0, k == 1, k == 2, k == 3, k == 5],
                    [np.expm1(r * d), d**3 + 1e-3 * d, d, np.tanh(20.0 * r * d), np.sinh(80.0 * d)],
                    np.expm1(d),
                )

        every = np.arange(n)
        return f, a, b, f(a, every), f(b, every)

    @staticmethod
    def endgames(calls, a, b, fb, roots) -> set:
        """The stops and fallbacks a batch shows, read off the points f was given and the values it returned."""
        seen, evaluated = set(), [[] for _ in a]
        for xs, idx, ys in calls:
            for x, i, y in zip(xs, idx, ys):
                evaluated[i].append((x, y))
        for i, points in enumerate(evaluated):
            # the same end moves twice running (f keeps its sign) and |f| does not fall: m <= 0
            if any((y > 0.0) == (z > 0.0) and z / y >= 1.0 for (_, y), (_, z) in zip(points, points[1:])):
                seen.add("halved")
            if any(y == 0.0 for _, y in points):
                seen.add("zero")
            lo, hi = a[i], b[i]
            for x, y in points:
                lo, hi = (lo, x) if (y > 0.0) == (fb[i] > 0.0) else (x, hi)
            if not points and hi - lo < 1e-14:
                seen.add("narrow")
            elif points and hi - lo >= 1e-14 and points[-1][1] != 0.0 and roots[i] in (lo, hi):
                seen.add("on_end")
        return seen

    def test_root_matches_the_array_form_bit_for_bit(self):
        from oracles import reference_root

        rng = np.random.default_rng(20260)
        seen = set()
        for _ in range(40):
            f, a, b, fa, fb = self.random_batch(rng)
            logs = [], []

            def logged(log):
                def g(x, idx):
                    y = f(x, idx)
                    log.append((x.tolist(), idx.tolist(), y.tolist()))
                    return y

                return g

            with np.errstate(all="ignore"):
                want = reference_root(logged(logs[0]), a, b, fa, fb)
            got = _root(logged(logs[1]), a, b, fa, fb)
            assert np.array_equal(got, want)
            assert [len(x) for x, _, _ in logs[1]] == [len(x) for x, _, _ in logs[0]]
            assert logs[1] == logs[0]  # the same points, brackets and values, call by call
            seen |= self.endgames(logs[1], a, b, fb, got)
        assert seen == {"halved", "zero", "narrow", "on_end"}

    def test_root_overflow_and_zero_division_match_the_array_form(self):
        # products overflowing to inf, a secant inf/inf and denormal f values
        # give numpy's inf and NaN, not an exception, and the array form's
        # points; a bracket with an end at f = 0 is not a sign change, so
        # _roots never hands one to _root
        from oracles import reference_root

        a, b = np.array([0.5, 0.0]), np.array([2.0, 1.0])
        fa, fb = np.array([-1e308, -1.0]), np.array([1e308, 5e-324])

        def f(x, idx):
            return np.where(idx == 1, (x - 0.999) * 1e-320, 1e308 * (x - 1.0))

        logs = [], []
        with np.errstate(all="ignore"):
            want = reference_root(lambda x, idx: logs[0].append(x.tolist()) or f(x, idx), a, b, fa, fb)
            got = _root(lambda x, idx: logs[1].append(x.tolist()) or f(x, idx), a, b, fa, fb)
        assert np.array_equal(got, want, equal_nan=True) and logs[1] == logs[0]

    def test_root_keeps_the_side_of_an_end_scaled_to_zero(self):
        # f is the smallest denormal, -5e-324, left of its sign change: the
        # midpoints there move a twice running, so fb is halved to +0.  Later
        # points with f < 0 must still move a, not b, or the two ends share a
        # sign and the bracket loses its root (it stopped at 0.6125)
        from oracles import reference_root

        r0 = 0.6469080561386775

        def f(x, idx):
            return np.where(x < r0, -5e-324, 5e-324 * (1.0 + (x - r0)))

        logs = [], []
        args = np.array([0.5]), np.array([0.8]), np.array([-5e-324]), np.array([5e-324])
        want = reference_root(lambda x, idx: logs[0].append(x.tolist()) or f(x, idx), *args)
        got = _root(lambda x, idx: logs[1].append(x.tolist()) or f(x, idx), *args)
        assert abs(got[0] - r0) < 1e-14
        assert np.array_equal(got, want) and logs[1] == logs[0]

    def test_first_roots_warm_bracket_and_fallback(self):
        # h(xi) = xi - (0.3 + 0.1 eta) on each row (group, eta).  Row (0, 0.3)
        # lies between solved rows of its group whose roots 0.32 and 0.34
        # bracket its root 0.33: it is solved there alone.  The neighbours of
        # row (0, 0.5) have roots 0.34 and 0.30, and h < 0 at both (its root
        # is 0.35): it falls back to the range [0.2, 1], as do rows (0, 0.1)
        # and (0, 0.8), which have a neighbour on one side only, and row
        # (1, 0.05), whose neighbours (0, 0.6) and (1, 0.1) are of two groups.
        # All rows are refined in one lockstep search.
        rows = [(0, 0.1), (0, 0.3), (0, 0.5), (0, 0.8), (1, 0.05)]
        etas = np.array([eta for _, eta in rows])
        seen = []

        def h(xi, r):
            seen.append((np.array(xi), np.array(r)))
            return xi - (0.3 + 0.1 * etas[r])

        solved = {(0, 0.2): 0.32, (0, 0.4): 0.34, (0, 0.6): 0.30, (1, 0.1): 0.31}
        xi = _first_roots(h, rows, solved, 0.2, 1.0)
        assert np.allclose(xi, 0.3 + 0.1 * etas, rtol=0.0, atol=1e-14)
        # one call tries the warm brackets of the two rows between solved ones of their group
        assert seen[0][0].tolist() == [[0.32, 0.34], [0.30, 0.34]]
        assert seen[0][1].tolist() == [[1, 1], [2, 2]]
        points = [(x, rows[r]) for xs, rs in seen for x, r in zip(np.ravel(xs), np.ravel(rs))]
        assert {row for x, row in points if x in (0.2, 1.0)} == {(0, 0.1), (0, 0.5), (0, 0.8), (1, 0.05)}
        assert all(0.32 <= x <= 0.34 for x, row in points if row == (0, 0.3))  # never halved, never the range


class TestIMmse:
    # dC/ds = eta * mmse / 2 (Guo-Shamai-Verdu): the derivative of the mutual
    # information in the SNR is fixed by the solution at that SNR, so a
    # solve that lands on a wrong root breaks it.
    @pytest.mark.parametrize(
        "prior",
        [
            MarkovPrior(binary_markov_kernel(0.3, 0.3)),
            MarkovPrior(binary_markov_kernel(0.2, 0.4)),
            sparse_hmm_prior(0.3, 0.3),
            GaussMarkovPrior(0.5, 1.0),
        ],
        ids=["binary", "binary-asym", "sparse-hmm", "gauss-markov"],
    )
    @pytest.mark.parametrize("beta", [0.8, 1.5])
    def test_mi_derivative_is_half_eta_mmse(self, prior, beta):
        s, h = 1.3, 1e-4

        def solve(snr):
            return free_energy(ModelSpec(prior=prior, snr=snr), beta)

        sol = solve(s)
        slope = (solve(s + h).mutual_info - solve(s - h).mutual_info) / (2.0 * h)
        assert abs(slope - sol.eta * sol.mmse / 2.0) < 1e-7


class TestDiagnostics:
    def test_solution_reports_how_it_was_found(self):
        diag = free_energy(BINARY_SYM, 1.0).diagnostics
        assert diag.scan_points == 16 and diag.brackets == 1
        assert diag.evaluations > diag.scan_points
        assert diag.max_nodes in (2**k + 1 for k in range(7, 14))
        assert 0.0 <= diag.residual < 1e-8

    def test_fixed_points_carry_diagnostics(self):
        model = ModelSpec(prior=MarkovPrior(binary_markov_kernel(0.3, 0.3)), sigma=1.5)
        sol = free_energy(model, 1.0)
        sols = solve_fixed_point(model, 1.0)
        assert sols == [(e, x) for e, x, _ in sol.all_solutions] == sorted(sols)
        diag = sol.diagnostics
        # each eta evaluation runs an inner xi solve with its own evaluations
        assert diag.evaluations > 3 * diag.scan_points
        assert diag.residual == max(fixed_point_residual(model, 1.0, e, x) for e, x in sols)

    # mixture_expectation calls of one solve when every channel at
    # every evaluated point was a call of its own, nested xi solves included
    PARENT_KERNEL_CALLS = {
        ("mismatched", 0.75): 370,
        ("mismatched", 1.5): 392,
        ("binary_two_snr", 0.75): 92,
        ("binary_two_snr", 1.5): 92,
    }

    @pytest.mark.parametrize("key", PARENT_KERNEL_CALLS, ids=[f"{n}-{b}" for n, b in PARENT_KERNEL_CALLS])
    def test_kernel_calls_counted_and_cut_to_a_third(self, key, monkeypatch):
        from replica_markov import single_symbol

        name, beta = key
        calls = []
        orig = single_symbol.mixture_expectation
        monkeypatch.setattr(single_symbol, "mixture_expectation", lambda *a: calls.append(1) or orig(*a))
        # free_energy reads its scores and MMSE off the solve's assessment: no call of its own
        diag = free_energy(TestGoldenValues.model(name), beta).diagnostics
        assert diag.kernel_calls == len(calls)
        assert 3 * diag.kernel_calls <= self.PARENT_KERNEL_CALLS[key]

    # Kernel calls of one solve that evaluates each (eta, xi) point once,
    # warm-starts its xi solves and stops each bracket once its secant point
    # rounds onto an end it evaluated (24, 29, 427 and 123 when pinned).
    # States-{0, 10} at sigma 1.5, beta 1 spends most of its calls on a
    # bracket where the cold xi solve switches roots, so eta jumps; no warm
    # bracket holds there.
    KERNEL_CALL_BOUNDS = {
        ("mismatched", 0.75): 30,
        ("mismatched", 1.5): 35,
        ("states_0_10", 1.0): 450,
        ("states_0_10", 1.5): 130,
    }

    @pytest.mark.parametrize("key", KERNEL_CALL_BOUNDS, ids=[f"{n}-{b}" for n, b in KERNEL_CALL_BOUNDS])
    def test_kernel_call_bounds(self, key):
        name, beta = key
        model = states_0_10_model(1.5) if name == "states_0_10" else TestGoldenValues.model(name)
        assert free_energy(model, beta).diagnostics.kernel_calls <= self.KERNEL_CALL_BOUNDS[key]

    # Kernel calls of one lockstep solve over several betas, which every beta
    # of the batch reports (5, 34 and 6 when pinned).  One by one, the two
    # betas take 4 + 5 calls on binary_sym and 24 + 29 on mismatched, and the
    # 20 betas of linspace(0.25, 4, 20) take 91 on binary_sym.
    BATCH_KERNEL_CALL_BOUNDS = {
        ("binary_sym", (0.75, 1.5)): 5,
        ("mismatched", (0.75, 1.5)): 52,
        ("binary_sym", tuple(np.linspace(0.25, 4.0, 20).tolist())): 6,
    }

    @pytest.mark.parametrize("key", BATCH_KERNEL_CALL_BOUNDS, ids=lambda key: f"{key[0]}-{len(key[1])}")
    def test_batch_kernel_call_bounds(self, key, monkeypatch):
        from replica_markov import single_symbol

        name, betas = key
        calls = []
        orig = single_symbol.mixture_expectation
        monkeypatch.setattr(single_symbol, "mixture_expectation", lambda *a: calls.append(1) or orig(*a))
        sols = free_energies(TestGoldenValues.model(name), betas)
        assert {sol.diagnostics.kernel_calls for sol in sols} == {len(calls)}
        assert len(calls) <= self.BATCH_KERNEL_CALL_BOUNDS[key]

    @pytest.mark.parametrize("name", ["binary_sym", "mismatched", "binary_two_snr"])
    def test_one_assessment_per_solve(self, name, monkeypatch):
        from replica_markov import solver

        calls = []
        orig = solver._assess
        monkeypatch.setattr(solver, "_assess", lambda *a: calls.append(np.size(a[2])) or orig(*a))
        free_energy(TestGoldenValues.model(name), 1.0)
        assert calls == [1]

    @pytest.mark.parametrize("name", ["binary_sym", "mismatched", "binary_two_snr"])
    def test_solve_scores_equal_the_public_views(self, name):
        model, beta = TestGoldenValues.model(name), 0.75
        sol = free_energy(model, beta)
        terms = solver._assess(model, beta, sol.eta, sol.xi)[1]
        assert abs(sol.free_energy - model._decoupled.weights @ terms) <= 1e-15 * abs(sol.free_energy)
        residual = fixed_point_residual(model, beta, sol.eta, sol.xi)
        assert abs(sol.diagnostics.residual - residual) <= 1e-15 * abs(residual)


class TestDecoupleOnce:
    DERIVATIONS = ("stationary_distribution", "effective_states")

    @pytest.mark.parametrize("name", ["binary_sym", "sparse_hmm", "mismatched"])
    def test_built_model_is_not_decoupled_again(self, name, monkeypatch):
        from replica_markov import markov_core, solver

        model = TestGoldenValues.model(name)
        calls = []
        for module in (markov_core, solver):
            for fn in self.DERIVATIONS:
                if hasattr(module, fn):
                    orig = getattr(module, fn)
                    monkeypatch.setattr(module, fn, lambda *a, _f=orig, _n=fn: calls.append(_n) or _f(*a))
        sol = free_energy(model, 1.0)
        fixed_point_residual(model, 1.0, sol.eta, sol.xi)
        assert calls == []
        ModelSpec(prior=model.prior, postulated_prior=model.postulated_prior, sigma=model.sigma)
        assert "stationary_distribution" in calls  # the counters see a new model's derivation


@st.composite
def small_models(draw) -> ModelSpec:
    """Irreducible 2-3 state chains with zero entries: matched, or at sigma 0.8 or 1.2 with the
    true kernel or another one postulated."""
    k = draw(st.integers(2, 3))
    values = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    states = tuple(draw(st.lists(values, min_size=k, max_size=k, unique=True)))

    def prior() -> MarkovPrior:
        row = st.lists(st.integers(0, 3), min_size=k, max_size=k)
        counts = np.array(draw(st.lists(row, min_size=k, max_size=k)), dtype=float)
        assume(counts.sum(axis=1).all() and is_irreducible(counts))
        return MarkovPrior(TransitionMatrix(states, counts / counts.sum(axis=1, keepdims=True)))

    true = prior()
    sigma = draw(st.sampled_from([1.0, 0.8, 1.2]))
    postulated = prior() if sigma != 1.0 and draw(st.booleans()) else None
    return ModelSpec(prior=true, postulated_prior=postulated, sigma=sigma)


class TestSolveCache:
    # A solve reads every channel moment it reports from the points it
    # evaluated; fresh kernel calls at its fixed points must agree.
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(model=small_models(), beta=st.sampled_from([0.5, 1.0, 2.0]))
    def test_reported_points_agree_with_fresh_kernel_calls(self, model, beta):
        def recording_root(f, a, b, fa, fb):
            passed = [set() for _ in range(np.size(a))]

            def g(x, idx):
                for i, point in zip(idx.tolist(), np.ravel(x).tolist()):
                    passed[i].add(point)
                return f(x, idx)

            roots = _root(g, a, b, fa, fb)
            for root, seen, lo, hi in zip(roots.tolist(), passed, np.ravel(a), np.ravel(b)):
                # a bracket narrower than 1e-14 from the start returns an end its caller evaluated
                assert root in seen or (not seen and hi - lo < 1e-14 and root in (lo, hi))
            return roots

        with mock.patch.object(solver, "_root", recording_root):
            sol = free_energy(model, beta)
        weights = model._decoupled.weights
        for eta, xi, reported in sol.all_solutions:
            assert fixed_point_residual(model, beta, eta, xi) < RESIDUAL_TOL
            fresh = sum(w * g for w, g in zip(weights, solver._assess(model, beta, eta, xi)[1]))
            assert abs(fresh - reported) <= 1e-12


class TestLockstep:
    # The 72-solve grid: 12 models at six loads, solved one beta at a time
    # and as one batch per model.  The states-{0, 10} models have several
    # fixed points and a steep xi equation.
    BETAS = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
    MODELS = (
        "binary_sym", "binary_asym", "sparse_hmm", "gauss_markov", "binary_two_snr", "mismatched",
        "binary_sigma_0.8", "binary_sigma_1.5", "steep", "sparse_hmm_mismatched", "states_0_10_1.5", "states_0_10_1",
    )

    @staticmethod
    def model(name: str) -> ModelSpec:
        binary = MarkovPrior(binary_markov_kernel(0.3, 0.3))
        if name.startswith("binary_sigma_"):
            return ModelSpec(prior=binary, sigma=float(name.rsplit("_", 1)[1]))
        if name.startswith("states_0_10_"):
            return states_0_10_model(float(name.rsplit("_", 1)[1]))
        if name == "steep":  # the postulated row [1, 0] of the steep CI document
            rows = [[0.5, 0.5], [0.25, 0.75]], [[0.5, 0.5], [1.0, 0.0]]
            true, post = (MarkovPrior(TransitionMatrix((-1.0, 1.0), np.array(r))) for r in rows)
            return ModelSpec(prior=true, postulated_prior=post, sigma=0.8, snr=2.0)
        if name == "sparse_hmm_mismatched":
            return ModelSpec(prior=sparse_hmm_prior(0.3, 0.3), postulated_prior=sparse_hmm_prior(0.4, 0.5), sigma=1.1)
        return TestGoldenValues.model(name)

    @staticmethod
    def assert_same(got, want):
        assert got.beta == want.beta and len(got.all_solutions) == len(want.all_solutions)
        pairs = list(zip(got.all_solutions, want.all_solutions))
        pairs += [((got.eta, got.xi, got.free_energy), (want.eta, want.xi, want.free_energy))]
        matched = ((got.mutual_info, want.mutual_info), (got.mmse, want.mmse))
        pairs += [((v,), (w,)) for v, w in matched if w is not None]
        for g, w in pairs:
            assert all(abs(a - b) <= 1e-13 * abs(b) for a, b in zip(g, w))

    @pytest.mark.parametrize("name", MODELS)
    def test_batch_equals_one_beta_at_a_time(self, name):
        model = self.model(name)
        for got, beta in zip(free_energies(model, self.BETAS), self.BETAS):
            self.assert_same(got, free_energy(model, beta))

    @pytest.mark.parametrize("name", ["binary_sym", "mismatched"])
    def test_unsorted_betas_with_a_duplicate_come_back_in_order(self, name):
        model, betas = self.model(name), [1.5, 0.5, 3.0, 0.5, 0.75]
        sols = free_energies(model, betas)
        assert [sol.beta for sol in sols] == betas
        for got, beta in zip(sols, betas):
            self.assert_same(got, free_energy(model, beta))
        assert sols[1] == sols[3]

    @pytest.mark.parametrize("fault", ["quadrature", "xi"])
    def test_survivors_of_a_failed_batch_equal_their_own_solves(self, fail_below_eta, fault):
        # Below eta=0.4, which only the scan of beta=2 reaches, every kernel
        # call fails or no xi solves the postulated-noise equation.  The
        # batch then solves each beta alone: the others come back exactly as
        # their own solves, kernel calls included.
        model, betas = self.model("mismatched"), [0.5, 1.0, 2.0]
        fail_below_eta(fault, 0.4)
        *survivors, failed = free_energies(model, betas)
        for got, beta in zip(survivors, betas):
            assert got == free_energy(model, beta)
        error = QuadratureError if fault == "quadrature" else solver.SolverError
        assert isinstance(failed, error)
        with pytest.raises(error) as alone:
            free_energy(model, 2.0)
        assert str(alone.value) == str(failed)
