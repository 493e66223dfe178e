import importlib.util
import itertools
import os

import numpy as np
import pytest

from effsynth import lp
from effsynth.model import Mdp, UtilityFn
from effsynth.chain import analyze, average_utility, efficiency
from effsynth.lp import (DegenerateDecoding, LpProblem, NotCommunicating,
                         decode_avg_policy, decode_ratio_policy, solve_lp,
                         solve_avg_reward_lp, solve_ratio_lfp)
from effsynth.synthesis import synth_general

from conftest import (amecs_of, brute_force_best_gain, brute_force_best_ratio,
                      delivery_grid_product, limit_matrix,
                      random_communicating_mdp,
                      random_mdp, random_product, random_utilities, rule_of)


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


# The generic LP contract holds for both solvers: solve_lp (HiGHS) and the
# dense tableau the average-reward LP runs on.  Each test runs every case on
# both, so the tableau's Bland guard stays pinned.
SOLVERS = (solve_lp, lp._solve_tableau)


def test_lp_single_variable():
    for solve in SOLVERS:
        res = solve(LpProblem(c=np.array([1.0]),
                              a_eq=np.array([[1.0]]),
                              b_eq=np.array([1.0])))
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(1.0)
        assert res.value == pytest.approx(1.0)


def test_lp_two_variables_sum_one():
    for solve in SOLVERS:
        res = solve(LpProblem(c=np.array([1.0, 1.0]),
                              a_eq=np.array([[1.0, 1.0]]),
                              b_eq=np.array([1.0])))
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0)


INFEASIBLE = LpProblem(c=np.array([1.0]), a_eq=np.array([[1.0]]),
                       b_eq=np.array([-1.0]))
UNBOUNDED = LpProblem(c=np.array([1.0, 0.0]), a_eq=np.array([[0.0, 1.0]]),
                      b_eq=np.array([1.0]))


def test_lp_infeasible():
    for solve in SOLVERS:
        assert solve(INFEASIBLE).status == "infeasible"


def test_lp_unbounded():
    for solve in SOLVERS:
        assert solve(UNBOUNDED).status == "unbounded"


def test_lp_rejects_malformed_data():
    for solve in SOLVERS:
        with pytest.raises(ValueError, match="inconsistent LP dimensions"):
            solve(LpProblem(c=np.array([1.0, 2.0]), a_eq=np.array([[1.0]]),
                            b_eq=np.array([1.0])))
        with pytest.raises(ValueError, match="LP data must be finite"):
            solve(LpProblem(c=np.array([1.0]), a_eq=np.array([[np.nan]]),
                            b_eq=np.array([1.0])))


def test_lp_redundant_rows():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    for solve in SOLVERS:
        res = solve(LpProblem(c=np.array([3.0, 1.0]), a_eq=a,
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
        oracle = enumerate_vertices_best(c, a, b)
        for solve in SOLVERS:
            res = solve(LpProblem(c=c, a_eq=a, b_eq=b))
            if res.status == "unbounded":
                continue
            assert res.status == "optimal"
            assert res.value == pytest.approx(oracle, abs=1e-8)
            assert np.max(np.abs(a @ res.x - b)) <= \
                1e-9 * max(1, np.abs(b).max())


def test_lp_degenerate_cycling_guard():
    """Beale's cycling instance (slacks added) terminates under Bland."""
    a = np.array([[0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
                  [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([0.75, -150.0, 0.02, -6.0, 0.0, 0.0, 0.0])
    for solve in SOLVERS:
        res = solve(LpProblem(c=c, a_eq=a, b_eq=b))
        assert res.status == "optimal"
        assert res.value == pytest.approx(enumerate_vertices_best(c, a, b),
                                          abs=1e-10)
        assert res.value == pytest.approx(0.05)


def seed7_products(trials):
    """(pm, r, c) for the first trials of one seeded draw of small random
    products with rewards and costs."""
    rng = np.random.default_rng(7)
    for _ in range(trials):
        n, k, p = (int(rng.integers(lo, hi)) for lo, hi in ((6, 30), (2, 4),
                                                             (1, 3)))
        pm = random_product(rng, n, k, n_pairs=p)
        r = rng.uniform(0.1, 2.0, pm.n_pairs)
        yield pm, r, rng.uniform(0.5, 2.0, pm.n_pairs)


def test_highs_answers_pass_the_backward_error_checks():
    """Two small random products of one seeded draw whose ratio programs
    HiGHS, at its default feasibility tolerance of 1e-7, answered outside
    solve_lp's 1e-9 checks (trial 247 by its residual, trial 267 by a
    negative basic value): each synthesis now certifies."""
    for trial, (pm, r, c) in enumerate(seed7_products(268)):
        if trial in (247, 267):
            assert synth_general(pm, r, c, 0.01, "es").certificate.accepted


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
        ca = analyze(m, policy)
        assert np.array_equal(limit_matrix(ca_decoded), limit_matrix(ca))
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
        ca = analyze(m, policy)
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
        ca = analyze(m, policy)
        best = brute_force_best_gain(m, r)
        for s in range(m.n_states):
            assert average_utility(ca, m, r, policy, s) == pytest.approx(
                best[s], abs=1e-7)


# --- the sparse pivot update --------------------------------------------------

def dense_pivot(t, row, col):
    """The rank-1 pivot update over the whole tableau through one
    np.outer: the reference the sparse update must match."""
    piv = t.tab[row, col]
    if abs(piv) < 1e-11:
        raise lp.NumericalFailure(f"pivot element {piv:g} too small")
    t.tab[row, :] /= piv
    colv = t.tab[:, col].copy()
    colv[row] = 0.0
    t.tab -= np.outer(colv, t.tab[row, :])
    t.obj -= t.obj[col] * t.tab[row, :]
    t.in_basis[t.basis[row]] = False
    t.in_basis[col] = True
    t.basis[row] = col


def random_tableau(rng, m, n, density):
    """A _Tableau of m rows over n columns with a sparse random tab (its
    last column the right-hand side), an objective row and a basis."""
    t = lp._Tableau(np.zeros((m, n)), np.zeros(m), np.zeros(n))
    t.tab = rng.standard_normal((m, n + 1))
    t.tab[rng.random((m, n + 1)) >= density] = 0.0
    t.obj = rng.standard_normal(n + 1)
    t.basis = [int(j) for j in rng.choice(n, m, replace=False)]
    t.in_basis = np.zeros(n, dtype=bool)
    t.in_basis[t.basis] = True
    return t


def pivot_both(t, row, col):
    """t after the sparse pivot and after the dense reference, each on its
    own copy."""
    out = []
    for update in (lp._Tableau.pivot, dense_pivot):
        u = lp._Tableau(t.a, t.b, t.cost)
        u.tab, u.obj = t.tab.copy(), t.obj.copy()
        u.basis, u.in_basis = list(t.basis), t.in_basis.copy()
        update(u, row, col)
        out.append(u)
    return out


def assert_same_pivot(new, ref):
    """Equal tableaus, bit for bit on every nonzero cell (a zero may differ
    only in its sign), a bitwise-equal objective row and the same basis."""
    assert np.array_equal(new.tab, ref.tab)
    nz = ref.tab != 0.0
    assert np.array_equal(new.tab.view(np.uint64)[nz],
                          ref.tab.view(np.uint64)[nz])
    assert new.obj.tobytes() == ref.obj.tobytes()
    assert new.basis == ref.basis
    assert np.array_equal(new.in_basis, ref.in_basis)


@pytest.mark.parametrize("shape", [(20, 60), (300, 1200)])
@pytest.mark.parametrize("density", [0.05, 0.3, 1.0])
def test_pivot_matches_dense_update(rng, shape, density):
    m, n = shape
    for _ in range(4):
        t = random_tableau(rng, m, n, density)
        row = int(rng.integers(m))
        col = int(rng.choice(np.flatnonzero(~t.in_basis)))
        t.tab[row, col] = rng.uniform(0.5, 2.0)
        assert_same_pivot(*pivot_both(t, row, col))


def test_pivot_special_columns_and_rows(rng):
    m, n = 40, 120
    # a pivot column whose only nonzero is the pivot: nothing else changes
    t = random_tableau(rng, m, n, 0.2)
    t.tab[:, 7] = 0.0
    t.tab[5, 7] = 3.0
    new, ref = pivot_both(t, 5, 7)
    assert_same_pivot(new, ref)
    assert np.array_equal(np.delete(new.tab, 5, axis=0),
                          np.delete(t.tab, 5, axis=0))
    # a fully dense pivot row
    t = random_tableau(rng, m, n, 0.2)
    t.tab[9] = rng.uniform(0.5, 1.5, n + 1)
    assert_same_pivot(*pivot_both(t, 9, 11))
    # explicit negative zeros in the pivot row, the pivot column and the
    # cells they span
    t = random_tableau(rng, m, n, 0.3)
    t.tab[rng.random((m, n + 1)) < 0.2] = -0.0
    t.tab[3, 20] = -1.25
    assert_same_pivot(*pivot_both(t, 3, 20))
    # a pivot on the last structural column, next to the right-hand side
    t = random_tableau(rng, m, n, 0.3)
    t.tab[m - 1, n - 1] = 0.75
    assert_same_pivot(*pivot_both(t, m - 1, n - 1))


def test_pivot_allocates_no_tableau_sized_array(rng):
    """A pivot whose row and column are sparse allocates far less than the
    tableau: only the block the update touches."""
    import tracemalloc
    m, n = 400, 1500
    t = random_tableau(rng, m, n, 1.0)
    t.tab[:, 100] = 0.0
    t.tab[rng.choice(m, m // 10, replace=False), 100] = 1.0
    t.tab[17] = 0.0
    t.tab[17, rng.choice(n + 1, (n + 1) // 10, replace=False)] = 2.0
    t.tab[17, 100] = 4.0
    tracemalloc.start()
    try:
        t.pivot(17, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < t.tab.nbytes / 4


def posed_ratio_lp(m, r, c):
    """The LpProblem that solve_ratio_lfp(m, r, c) poses."""
    posed = []

    def record(p):
        posed.append(p)
        return solve_lp(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve_lp", record)
        solve_ratio_lfp(m, r, c)
    return posed[0]


def dense(p):
    """p with its constraint matrix as a dense array, for the tableau."""
    return LpProblem(c=p.c, a_eq=p.a_eq.toarray(), b_eq=p.b_eq)


def largest_maec_program(n):
    """(sub, r, c): the largest MAEC of the case-1 task-2 grid-n product,
    with its reward and cost."""
    from effsynth.graph import maec_decompose, restrict

    pm, r, c = delivery_grid_product(n)
    sub, _ = restrict(pm, max(maec_decompose(pm), key=np.count_nonzero))
    return sub, r[sub.parent_pair], c[sub.parent_pair]


@pytest.fixture(scope="module")
def grid9_ratio_lp():
    """The ratio LP of the largest MAEC of the case-1 grid-9 product with
    task 2, posed as a dense two-phase LpProblem."""
    return dense(posed_ratio_lp(*largest_maec_program(9)))


def traced_solve(monkeypatch, p, pivot=lp._Tableau.pivot,
                 refresh=lp._Tableau.refresh):
    """p solved by _solve_tableau with the given pivot and refresh in the
    tableau's place: (the LpResult, or the NumericalFailure raised, and the
    (leave, enter) path of every pivot)."""
    path = []

    def traced(t, row, col, update=True):
        path.append((row, col))
        pivot(t, row, col, update)
    monkeypatch.setattr(lp._Tableau, "pivot", traced)
    monkeypatch.setattr(lp._Tableau, "refresh", refresh)
    try:
        return lp._solve_tableau(p), path
    except lp.NumericalFailure as e:
        return e, path


def every_pivot_dense(t, row, col, update=True):
    """dense_pivot whatever update says."""
    dense_pivot(t, row, col)


def test_ratio_lp_pivots_match_dense_update(monkeypatch, grid9_ratio_lp):
    """On the grid-9 ratio LP (both phases), the sparse pivot takes the same
    (leave, enter) path as the dense update and gives a bitwise-equal
    solution."""
    new, new_path = traced_solve(monkeypatch, grid9_ratio_lp)
    ref, ref_path = traced_solve(monkeypatch, grid9_ratio_lp,
                                 pivot=every_pivot_dense)
    assert len(new_path) > 100
    assert new_path == ref_path
    assert new.status == ref.status == "optimal"
    assert new.x.tobytes() == ref.x.tobytes()
    assert new.value == ref.value


# --- the safe-mode retry -----------------------------------------------------

def full_refresh(t, full=True):
    """The full reinversion whatever full says, every column of
    B^-1 [A | b] solved: the reference for safe mode's partial one."""
    bmat = t.a[:, t.basis]
    try:
        t.tab = np.linalg.solve(bmat, np.hstack([t.a, t.b.reshape(-1, 1)]))
    except np.linalg.LinAlgError as e:
        raise lp.NumericalFailure(f"singular basis on reinversion: {e}") \
            from e
    rhs = t.tab[:, -1]
    if np.any(rhs < -1e-7):
        raise lp.NumericalFailure(
            f"lost primal feasibility (min rhs {rhs.min():g})")
    np.clip(rhs, 0.0, None, out=rhs)
    t.obj = t.cost[t.basis] @ t.tab
    t.obj[:-1] -= t.cost


@pytest.fixture(scope="module")
def bench_instances():
    """perfbench/instances.py, loaded by path."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "instances.py")
    spec = importlib.util.spec_from_file_location("instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Posed(Exception):
    pass


def posed_avg_reward_lp(monkeypatch, inst):
    """The average-reward LpProblem that synthesize --method es poses on
    the instance's files."""
    from effsynth import parsers
    from effsynth.model import build_product, lift_utilities
    m = parsers.parse_mdp(inst.files["model.mdp"])
    pm = build_product(m, parsers.parse_dra(inst.files["task.hoa"]))
    reward, cost = parsers.parse_utilities(inst.files["utilities.txt"], m)
    r, c = lift_utilities(pm, reward, cost)
    posed = []

    def record(p):
        posed.append(p)
        raise _Posed
    with monkeypatch.context() as mp:
        mp.setattr(lp, "_solve_tableau", record)
        with pytest.raises(_Posed):
            synth_general(pm, r, c, 0.01, "es")
    return posed[0]


def test_safe_retry_matches_full_reinversion(monkeypatch, bench_instances):
    """On the average-reward LPs of multichain_batch's mc02, mc05 and mc00
    the tableau takes the (leave, enter) path of a reference that pivots
    densely and reinverts every column, and ends the same: a bitwise-equal
    x, or the same NumericalFailure.  With one BLAS thread the fast attempt
    fails on all three, and the safe retry solves mc02, loses a singular
    basis on mc05 and primal feasibility on mc00; with two, mc00's fast
    attempt stops at "unbounded" and never retries."""
    shipped = lp._Tableau.refresh
    retried = {}
    for index in (2, 5, 0):
        p = posed_avg_reward_lp(
            monkeypatch, bench_instances.multichain_instance(index))
        partial = []

        def counted(t, full=True):
            partial.append(not full)
            shipped(t, full)
        new, new_path = traced_solve(monkeypatch, p, refresh=counted)
        ref, ref_path = traced_solve(monkeypatch, p, pivot=every_pivot_dense,
                                     refresh=full_refresh)
        retried[index] = any(partial)
        assert new_path == ref_path
        assert type(new) is type(ref)
        if isinstance(ref, lp.NumericalFailure):
            assert str(new) == str(ref)
        else:
            assert new.status == ref.status
            assert (new.x is None) == (ref.x is None)
            if ref.x is not None:
                assert new.x.tobytes() == ref.x.tobytes()
    assert retried[2] and retried[5]


def ratio_lp_on_both(m, r, c):
    """The ratio LP of (m, r, c) solved by solve_lp and by the tableau:
    [(value, decoded policy's efficiency)] for each."""
    from effsynth.lp import LfpSolution
    p = posed_ratio_lp(m, r, c)
    out = []
    for res in (solve_lp(p), lp._solve_tableau(dense(p))):
        assert res.status == "optimal"
        sol = LfpSolution(gamma=res.x / res.x.sum(), value=res.value)
        policy, ca = decode_ratio_policy(m, sol)
        out.append((res.value, efficiency(ca, m, r, c, policy, m.initial)))
    return out


def assert_same_optimum(both):
    (highs_val, highs_eff), (tab_val, tab_eff) = both
    assert highs_val == pytest.approx(tab_val, rel=1e-9)
    assert highs_eff == pytest.approx(tab_eff, rel=1e-9)


def test_ratio_lp_highs_agrees_with_tableau(rng):
    """The ratio LP solved by HiGHS and by the two-phase tableau: both
    optimal, with values and decoded-policy efficiencies equal to 1e-9
    relative, on 40 random communicating models."""
    for trial in range(40):
        m = random_communicating_mdp(rng, int(rng.integers(2, 9)),
                                     int(rng.integers(1, 4)), p_avail=0.6)
        r, c = random_utilities(rng, m)
        assert_same_optimum(ratio_lp_on_both(m, r, c))


@pytest.mark.parametrize("n", [9, 11])
def test_ratio_lp_highs_agrees_with_tableau_on_grid(n):
    """The same on the largest MAEC of the case-1 task-2 grids 9 and 11."""
    assert_same_optimum(ratio_lp_on_both(*largest_maec_program(n)))


def test_ratio_lfp_forms_no_dense_matrix():
    """On grid 17's largest MAEC (1106 states, 4060 pairs) the ratio
    program's traced peak stays below a quarter of one (n+1) x k float
    array: no dense constraint matrix is formed."""
    import scipy.optimize  # noqa: F401  (imported first: not in the peak)
    import tracemalloc
    m, r, c = largest_maec_program(17)
    tracemalloc.start()
    try:
        sol = solve_ratio_lfp(m, r, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.value == pytest.approx(0.1171506882895, abs=1e-9)
    assert peak < (m.n_states + 1) * m.n_pairs * 8 / 4


def linprog_answer(p):
    """p solved by scipy's linprog with solve_lp's HIGHS_METHOD and
    HIGHS_OPTIONS: (status, x cleaned as solve_lp cleans it)."""
    from scipy.optimize import linprog
    res = linprog(-np.asarray(p.c, dtype=float), A_eq=p.a_eq, b_eq=p.b_eq,
                  bounds=(0, None), method=lp.HIGHS_METHOD,
                  options=lp.HIGHS_OPTIONS)
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    return status, None if res.x is None else lp._cleaned(res.x)


def random_maec_programs(trials):
    """(sub, r, c) for every MAEC of the first trials of seed7_products."""
    from effsynth.graph import maec_decompose, restrict
    for pm, r, c in seed7_products(trials):
        for mask in maec_decompose(pm):
            sub, _ = restrict(pm, mask)
            yield sub, r[sub.parent_pair], c[sub.parent_pair]


def test_solve_lp_returns_linprogs_vertex():
    """solve_lp runs the HiGHS solve that linprog runs for HIGHS_METHOD
    and HIGHS_OPTIONS: bitwise the same x on the ratio LPs of grids 9 and
    17 and of random products' MAECs, and the same status on an
    infeasible and an unbounded LP."""
    programs = [largest_maec_program(9), largest_maec_program(17),
                *random_maec_programs(16)]
    assert len(programs) == 18
    for program in programs:
        p = posed_ratio_lp(*program)
        status, x = linprog_answer(p)
        res = solve_lp(p)
        assert res.status == status == "optimal"
        assert res.x.tobytes() == x.tobytes()
    for p in (INFEASIBLE, UNBOUNDED):
        assert solve_lp(p).status == linprog_answer(p)[0]


# --- HiGHS statuses and solution checks ---------------------------------------

ONE_VAR = LpProblem(c=np.array([1.0]), a_eq=np.array([[1.0]]),
                    b_eq=np.array([1.0]))


def fake_highs(monkeypatch, status, x=None, message="fake message"):
    """Make lp._highs return the given HiGHS model status (its number; 7 is
    kOptimal), a status string and column values."""
    from scipy.optimize._highspy._core import HighsModelStatus
    answer = (HighsModelStatus(status), message, x)
    monkeypatch.setattr(lp, "_highs", lambda a, b, c: answer)


@pytest.mark.parametrize("status, message", [
    (14, "Iteration limit reached"),
    (4, "Solve error"),
    (9, "Primal infeasible or unbounded")])
def test_non_optimal_highs_status_is_numerical_failure(monkeypatch, status,
                                                       message):
    """HiGHS's kIterationLimit, kSolveError and kUnboundedOrInfeasible."""
    fake_highs(monkeypatch, status, message=message)
    with pytest.raises(lp.NumericalFailure,
                       match=f"HiGHS status {status}: {message}"):
        solve_lp(ONE_VAR)


def test_option_highs_rejects_is_value_error(monkeypatch):
    """A HIGHS_OPTIONS key HiGHS does not know is not silently dropped."""
    monkeypatch.setattr(lp, "HIGHS_OPTIONS",
                        dict(lp.HIGHS_OPTIONS, primal_feasibility_tol=1e-10))
    with pytest.raises(ValueError, match="HiGHS rejects option "
                                         "primal_feasibility_tol"):
        solve_lp(ONE_VAR)


def test_negative_highs_solution_is_numerical_failure(monkeypatch):
    fake_highs(monkeypatch, 7, x=[-1e-6])
    with pytest.raises(lp.NumericalFailure, match="negative basic value"):
        solve_lp(ONE_VAR)


def test_highs_solution_beyond_backward_error_is_numerical_failure(
        monkeypatch):
    """x = 1 + 1e-8 against b = 1: residual 1e-8 above the bound
    1e-9 (|A| |x| + |b|), about 2e-9."""
    fake_highs(monkeypatch, 7, x=[1.0 + 1e-8])
    with pytest.raises(lp.NumericalFailure, match="backward-error"):
        solve_lp(ONE_VAR)


def test_highs_solution_dust_cleared(monkeypatch):
    """Entries within FEAS_TOL below zero are clipped and dust cleared."""
    p = LpProblem(c=np.array([1.0, 0.0, 0.0]), a_eq=np.array([[1.0, 1.0,
                                                                1.0]]),
                  b_eq=np.array([1.0]))
    fake_highs(monkeypatch, 7, x=[1.0, -1e-12, 5e-15])
    res = solve_lp(p)
    assert res.status == "optimal"
    assert res.x.tolist() == [1.0, 0.0, 0.0]
