import itertools

import numpy as np
import pytest

from effsynth.model import Mdp, UtilityFn, induce_chain
from effsynth.chain import analyze, average_utility, efficiency
from effsynth.lp import (DegenerateDecoding, LpProblem, NotCommunicating,
                         decode_avg_policy, decode_ratio_policy, solve_lp,
                         solve_avg_reward_lp, solve_ratio_lfp)

from conftest import (amecs_of, brute_force_best_gain, brute_force_best_ratio,
                      random_communicating_mdp, random_mdp, random_utilities,
                      rule_of)


def pair_table(m, vals):
    """A vector over m's pairs as a {(state, action): value} table."""
    return dict(zip(m.state_action_pairs(), vals.tolist()))


def enumerate_vertices_best(c, a_eq, b_eq):
    """Oracle: best objective over basic feasible solutions."""
    m, n = a_eq.shape
    best = None
    for cols in itertools.combinations(range(n), min(m, n)):
        sub = a_eq[:, cols]
        try:
            x_b = np.linalg.solve(sub, b_eq)
        except np.linalg.LinAlgError:
            continue
        if np.any(x_b < -1e-9):
            continue
        x = np.zeros(n)
        x[list(cols)] = x_b
        val = float(c @ x)
        if best is None or val > best:
            best = val
    return best


def test_lp_single_variable():
    res = solve_lp(LpProblem(c=np.array([1.0]),
                             a_eq=np.array([[1.0]]),
                             b_eq=np.array([1.0])))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.0)
    assert res.value == pytest.approx(1.0)


def test_lp_two_variables_sum_one():
    res = solve_lp(LpProblem(c=np.array([1.0, 1.0]),
                             a_eq=np.array([[1.0, 1.0]]),
                             b_eq=np.array([1.0])))
    assert res.status == "optimal"
    assert res.value == pytest.approx(1.0)


def test_lp_infeasible():
    res = solve_lp(LpProblem(c=np.array([1.0]),
                             a_eq=np.array([[1.0]]),
                             b_eq=np.array([-1.0])))
    assert res.status == "infeasible"


def test_lp_unbounded():
    res = solve_lp(LpProblem(c=np.array([1.0, 0.0]),
                             a_eq=np.array([[0.0, 1.0]]),
                             b_eq=np.array([1.0])))
    assert res.status == "unbounded"


def test_lp_redundant_rows():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    res = solve_lp(LpProblem(c=np.array([3.0, 1.0]), a_eq=a,
                             b_eq=np.array([1.0, 2.0])))
    assert res.status == "optimal"
    assert res.value == pytest.approx(3.0)


def test_lp_matches_vertex_enumeration(rng):
    """Random feasible LPs: simplex value equals the best basic solution."""
    for trial in range(30):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 9))
        a = rng.normal(size=(m, n))
        x0 = rng.uniform(0.0, 1.0, size=n)  # feasibility by construction
        b = a @ x0
        c = rng.normal(size=n)
        res = solve_lp(LpProblem(c=c, a_eq=a, b_eq=b))
        oracle = enumerate_vertices_best(c, a, b)
        if res.status == "unbounded":
            continue
        assert res.status == "optimal"
        assert res.value == pytest.approx(oracle, abs=1e-8)
        assert np.max(np.abs(a @ res.x - b)) <= 1e-9 * max(1, np.abs(b).max())


def test_lp_degenerate_cycling_guard():
    """Beale's cycling instance (slacks added) terminates under Bland."""
    a = np.array([[0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
                  [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([0.75, -150.0, 0.02, -6.0, 0.0, 0.0, 0.0])
    res = solve_lp(LpProblem(c=c, a_eq=a, b_eq=b))
    assert res.status == "optimal"
    assert res.value == pytest.approx(enumerate_vertices_best(c, a, b),
                                      abs=1e-10)
    assert res.value == pytest.approx(0.05)


def single_state_two_loops():
    m = Mdp(["s"], ["a", "b"], 0, {(0, 0): {0: 1.0}, (0, 1): {0: 1.0}})
    r = UtilityFn({(0, 0): 2.0, (0, 1): 5.0}, "reward").pair_values(m)
    c = UtilityFn({(0, 0): 1.0, (0, 1): 1.0}, "cost").pair_values(m)
    return m, r, c


def test_lfp_single_state_picks_better_loop():
    m, r, c = single_state_two_loops()
    sol = solve_ratio_lfp(m, r, c)
    assert sol.value == pytest.approx(5.0)
    gamma = pair_table(m, sol.gamma)
    assert gamma[(0, 1)] == pytest.approx(1.0)
    assert gamma[(0, 0)] == pytest.approx(0.0)


def test_lfp_rejects_noncommunicating():
    m = Mdp(["x", "y"], ["a"], 0, {(0, 0): {0: 1.0}, (1, 0): {1: 1.0}})
    r = np.full(m.n_pairs, 1.0)
    c = np.full(m.n_pairs, 1.0)
    with pytest.raises(NotCommunicating):
        solve_ratio_lfp(m, r, c)


def test_lfp_unit_cost_agrees_with_average_reward_lp(rng):
    for trial in range(10):
        m = random_communicating_mdp(rng, int(rng.integers(2, 6)), 2)
        r, _ = random_utilities(rng, m)
        ones = np.full(m.n_pairs, 1.0)
        sol = solve_ratio_lfp(m, r, ones)
        avg = solve_avg_reward_lp(m, r)
        # communicating: the optimal gain is constant, so the weighted gain
        # equals the ratio-program value
        assert sol.value == pytest.approx(avg.gain, abs=1e-8)


def test_lfp_matches_policy_enumeration(rng):
    for trial in range(20):
        m = random_communicating_mdp(rng, int(rng.integers(2, 7)),
                                     int(rng.integers(2, 4)))
        r, c = random_utilities(rng, m)
        sol = solve_ratio_lfp(m, r, c)
        oracle = brute_force_best_ratio(m, r, c, m.initial)
        assert sol.value == pytest.approx(oracle, abs=1e-7)


def test_lfp_value_is_ratio_at_gamma(rng):
    """Charnes-Cooper consistency: the fractional objective evaluated at the
    returned weights reproduces the LP value."""
    for trial in range(15):
        m = random_communicating_mdp(rng, int(rng.integers(2, 6)), 2)
        r, c = random_utilities(rng, m)
        sol = solve_ratio_lfp(m, r, c)
        gamma = pair_table(m, sol.gamma)
        r_tab, c_tab = pair_table(m, r), pair_table(m, c)
        num = sum(g * r_tab[sa] for sa, g in gamma.items())
        den = sum(g * c_tab[sa] for sa, g in gamma.items())
        assert num / den == pytest.approx(sol.value, abs=1e-10)
        assert sum(gamma.values()) == pytest.approx(1.0, abs=1e-9)


def test_decode_concentrated_gamma_is_deterministic():
    m, r, c = single_state_two_loops()
    sol = solve_ratio_lfp(m, r, c)
    policy, _ = decode_ratio_policy(m, sol)
    assert rule_of(m, policy)[0] == {1: 1.0}


def test_decode_split_gamma_keeps_proportions():
    from effsynth.lp import LfpSolution
    m = Mdp(["s"], ["a", "b"], 0, {(0, 0): {0: 1.0}, (0, 1): {0: 1.0}})
    sol = LfpSolution(gamma=np.array([0.5, 0.5]), value=0.0)
    policy, _ = decode_ratio_policy(m, sol)
    assert rule_of(m, policy)[0][0] == pytest.approx(0.5)
    assert rule_of(m, policy)[0][1] == pytest.approx(0.5)


def test_decode_support_state_with_no_pair_above_threshold():
    """State 0 carries support mass 1.2e-9 in two pairs of 0.6e-9 each, both
    at or below the 1e-9 threshold: it keeps its first largest pair alone,
    as the average-reward decoder does, instead of an empty row."""
    from effsynth.lp import LfpSolution
    m = Mdp(["s", "t"], ["a", "b"], 0,
            {(0, 0): {1: 1.0}, (0, 1): {1: 1.0},
             (1, 0): {0: 1.0}, (1, 1): {1: 1.0}})
    sol = LfpSolution(gamma=np.array([0.6e-9, 0.6e-9, 0.5, 0.5 - 1.2e-9]),
                      value=0.0)
    policy, ca = decode_ratio_policy(m, sol)
    rule = rule_of(m, policy)
    assert rule[0] == {0: 1.0}
    assert rule[1][0] == pytest.approx(0.5)
    assert rule[1][1] == pytest.approx(0.5)
    assert ca.recurrent_classes == ((0, 1),)


def test_decode_is_unichain_and_achieves_value(rng):
    for trial in range(20):
        m = random_communicating_mdp(rng, int(rng.integers(2, 7)), 2)
        r, c = random_utilities(rng, m)
        sol = solve_ratio_lfp(m, r, c)
        policy, ca_decoded = decode_ratio_policy(m, sol)
        ca = analyze(induce_chain(m, policy))
        assert np.array_equal(ca_decoded.limit_matrix, ca.limit_matrix)
        assert ca.is_unichain()
        got = efficiency(ca, m, r, c, policy, m.initial)
        assert got == pytest.approx(sol.value, abs=1e-8)
        # the recurrent class stays inside the occupation support
        gamma = pair_table(m, sol.gamma)
        mass = {}
        for (s, a), g in gamma.items():
            mass[s] = mass.get(s, 0.0) + g
        for s in ca.recurrent_classes[0]:
            assert mass.get(s, 0.0) > 1e-9
        # no decoded mass on below-threshold weights
        for s, dist in rule_of(m, policy).items():
            if mass.get(s, 0.0) > 1e-9:
                for a, p in dist.items():
                    if p > 0:
                        assert gamma.get((s, a), 0.0) > 1e-9


def test_lfp_on_roundtripped_delivery_product():
    """Regression: the delivery-workspace product, after a write/parse round
    trip (12-significant-digit probabilities), once drove the simplex onto a
    numerically singular basis between reinversions."""
    from effsynth.casestudies import gen_case1
    from effsynth.parsers import parse_mdp, write_mdp, parse_dra, write_dra
    from effsynth.model import build_product, lift_utilities
    from effsynth.graph import restrict

    m, _, d2, reward, cost = gen_case1()
    m2 = parse_mdp(write_mdp(m))
    pm = build_product(m2, parse_dra(write_dra(d2)))
    r, c = lift_utilities(pm, reward, cost)
    amec = amecs_of(pm)[0]
    sub, ids = restrict(pm, amec)
    sol = solve_ratio_lfp(sub, r[sub.parent_pair], c[sub.parent_pair])
    assert sol.value == pytest.approx(0.117151, abs=1e-4)


def test_avg_lp_single_state():
    m = Mdp(["s"], ["a"], 0, {(0, 0): {0: 1.0}})
    sol = solve_avg_reward_lp(m, UtilityFn({(0, 0): 7.0},
                                           "reward").pair_values(m))
    assert sol.gain == pytest.approx(7.0)


def test_avg_lp_two_disconnected_loops():
    """Hand solution: the flow constraints force x(s) = alpha(s) = 1/2 on each
    self-loop, so the gain is the plain average of the two rewards."""
    m = Mdp(["x", "y"], ["a"], 0, {(0, 0): {0: 1.0}, (1, 0): {1: 1.0}})
    sol = solve_avg_reward_lp(m, UtilityFn({(0, 0): 1.0, (1, 0): 9.0},
                                           "reward").pair_values(m))
    assert sol.gain == pytest.approx(5.0)
    x = pair_table(m, sol.x)
    assert x[(0, 0)] == pytest.approx(0.5)
    assert x[(1, 0)] == pytest.approx(0.5)


def test_avg_lp_matches_policy_enumeration(rng):
    """The LP gain is the alpha-weighted per-state optimal average reward."""
    for trial in range(15):
        m = random_mdp(rng, int(rng.integers(2, 6)), 2)
        r, _ = random_utilities(rng, m)
        sol = solve_avg_reward_lp(m, r)
        best = brute_force_best_gain(m, r)
        assert sol.gain == pytest.approx(float(best.mean()), abs=1e-7)


def test_decode_avg_policy_achieves_gain(rng):
    for trial in range(15):
        m = random_mdp(rng, int(rng.integers(2, 6)), 2)
        r, _ = random_utilities(rng, m)
        sol = solve_avg_reward_lp(m, r)
        policy = decode_avg_policy(m, sol)
        ca = analyze(induce_chain(m, policy))
        weighted = np.mean([average_utility(ca, m, r, policy, s)
                            for s in range(m.n_states)])
        assert weighted == pytest.approx(sol.gain, abs=1e-7)
        for s, dist in rule_of(m, policy).items():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_decode_avg_policy_concentrated_is_deterministic():
    m = Mdp(["s"], ["a", "b"], 0, {(0, 0): {0: 1.0}, (0, 1): {0: 1.0}})
    sol = solve_avg_reward_lp(m, UtilityFn({(0, 0): 1.0, (0, 1): 4.0},
                                           "reward").pair_values(m))
    assert rule_of(m, decode_avg_policy(m, sol))[0] == {1: 1.0}


def test_decode_avg_policy_degenerate_rows_rejected():
    from effsynth.lp import AvgLpSolution
    m = Mdp(["s"], ["a"], 0, {(0, 0): {0: 1.0}})
    sol = AvgLpSolution(x=np.zeros(1), y=np.zeros(1), gain=0.0)
    with pytest.raises(DegenerateDecoding):
        decode_avg_policy(m, sol)


def test_decode_avg_policy_optimal_from_every_state(rng):
    for trial in range(10):
        m = random_mdp(rng, int(rng.integers(2, 5)), 2)
        r, _ = random_utilities(rng, m)
        sol = solve_avg_reward_lp(m, r)
        policy = decode_avg_policy(m, sol)
        ca = analyze(induce_chain(m, policy))
        best = brute_force_best_gain(m, r)
        for s in range(m.n_states):
            assert average_utility(ca, m, r, policy, s) == pytest.approx(
                best[s], abs=1e-7)
