import math

import numpy as np
import pytest

from effsynth.model import Mdp, ModelError, UtilityFn, blend, csr_arrays, \
    induce_chain, uniform_policy
from effsynth.chain import (NotUnichain, analyze, average_utility, certify,
                            efficiency, limit_distribution,
                            potential_vector, ratio_deviation,
                            utility_vector)
from effsynth.graph import maec_decompose, restrict
from effsynth.lp import decode_ratio_policy, solve_ratio_lfp

from conftest import (chain_model, delivery_grid_product, dense_p,
                      deterministic, deviation_vector, limit_matrix,
                      random_mdp, random_policy, random_unichain_policy,
                      random_utilities, ratio_perturbation_identity_check,
                      stationary_distribution)


def random_chain(rng, n_states=None):
    """A random model and policy, whose chain the tests analyze."""
    n = n_states or int(rng.integers(2, 9))
    m = random_mdp(rng, n, 2)
    return m, random_policy(rng, m)


def test_identity_chain():
    ca = analyze(*chain_model(np.eye(3)))
    assert len(ca.recurrent_classes) == 3
    assert ca.transient == frozenset()
    assert np.array_equal(limit_matrix(ca), np.eye(3))


def test_two_state_swap():
    ca = analyze(*chain_model([[0, 1], [1, 0]]))
    assert ca.recurrent_classes == ((0, 1),)
    assert np.allclose(limit_matrix(ca), 0.5)


def test_stationary_is_solved_once_on_first_read(rng, monkeypatch):
    """analyze solves no class's stationary system; the first read of the
    stationary vectors solves each class once, and a second read, the
    efficiency and the potentials reuse those solves and factors."""
    from effsynth import chain
    solved = []
    stationary = chain._stationary

    def recorded(mc):
        solved.append(mc.n_states)
        return stationary(mc)

    monkeypatch.setattr(chain, "_stationary", recorded)
    done = 0
    while done < 10:
        m, p = random_chain(rng)
        ca = analyze(m, p)
        if ca.is_unichain():
            continue
        assert solved == []
        first = ca.stationary
        assert solved == [len(comp) for comp in ca.recurrent_classes]
        r, c = random_utilities(rng, m)
        efficiency(ca, m, r, c, p, m.initial)
        potential_vector(ca, m, r, p)
        assert ca.stationary is first
        assert len(solved) == len(ca.recurrent_classes)
        solved.clear()
        done += 1


def test_20000_state_path_classifies_without_recursion():
    """The SCC pass walks a path of 20000 states into an absorbing one,
    far deeper than the interpreter's recursion limit: one recurrent class,
    reached with probability one from every transient state."""
    n = 20_000
    src = np.arange(n)
    m = Mdp.from_arrays([f"s{i}" for i in range(n)], ["a"], 0,
                        *csr_arrays(n, src, np.zeros(n, dtype=np.int64),
                                    np.minimum(src + 1, n - 1), np.ones(n)))
    ca = analyze(m, np.ones(m.n_pairs))
    assert ca.recurrent_classes == ((n - 1,),)
    assert ca.transient == frozenset(range(n - 1))
    assert np.array_equal(ca.absorb, np.ones((n, 1)))


def test_analyze_bounds_row_sums_by_the_validation_tolerance():
    """A chain row may be off 1 by what a validated model row times a
    validated policy row allows, (1 + 1e-9)^2 - 1, and not by more; the
    rejection is a model error, which the CLI maps to exit 2."""
    assert analyze(*chain_model([[0.5, 0.5 + 2e-9], [1, 0]])).is_unichain()
    with pytest.raises(ModelError, match="off 1 by 2.1e-09"):
        analyze(*chain_model([[0.5, 0.5 + 2.1e-9], [1, 0]]))


def thresholded_classes(P, eps=1e-12):
    """Recurrent classes of the edges P > eps, from their boolean
    transitive closure: s is recurrent iff every state it reaches reaches it
    back, and its class is the set of states it reaches."""
    n = len(P)
    reach = (P > eps) | np.eye(n, dtype=bool)
    while True:
        grown = reach | (reach.astype(int) @ reach.astype(int) > 0)
        if np.array_equal(grown, reach):
            break
        reach = grown
    return tuple(sorted({tuple(np.flatnonzero(reach[s]).tolist())
                         for s in range(n) if reach[reach[s], s].all()}))


def test_classes_match_a_thresholded_reference(rng):
    """On chains without entries in (0, 1e-12], the exact support graph and
    a 1e-12 threshold on P give the same classes."""
    done = 0
    while done < 40:
        m, p = random_chain(rng)
        P = dense_p(induce_chain(m, p))
        if P[P > 0.0].min() <= 1e-12:
            continue
        assert analyze(m, p).recurrent_classes == thresholded_classes(P)
        done += 1


@pytest.mark.parametrize("delta", [1e-14, 1e-12])
def test_tiny_blend_on_the_grid9_maec_is_one_class(delta):
    """The blend of the case-1 grid-9 MAEC's optimal policy with the
    uniform one puts positive weight on every pair of the communicating
    MAEC, so its chain is irreducible for any delta > 0, however small the
    products delta * p: one recurrent class, no transient state, and the
    whole-chain stationary solve of the ex probes succeeds."""
    pm, r, c = delivery_grid_product(9)
    sub, _ = restrict(pm, maec_decompose(pm)[0])
    pp = sub.parent_pair
    mu_opt, _ = decode_ratio_policy(sub, solve_ratio_lfp(sub, r[pp], c[pp]))
    w = blend(mu_opt, uniform_policy(sub), delta)
    ca = analyze(sub, w)
    assert [len(comp) for comp in ca.recurrent_classes] == \
        [sub.n_states] == [274]
    assert ca.transient == frozenset()
    pi = stationary_distribution(induce_chain(sub, w))
    assert pi.sum() == pytest.approx(1.0)


def test_certify_reads_only_the_classes_start_reaches():
    """0 -> 1 absorbing, and 2 absorbing: from 0 only the class {1} is
    reached, from 2 only {2}; the pair (B, G) = ({2}, {1}) accepts {1}.
    The classes and their witnesses are the same from every start."""
    ca = analyze(*chain_model([[0, 1, 0], [0, 1, 0], [0, 0, 1]]))
    assert ca.recurrent_classes == ((1,), (2,))
    pairs = [(frozenset({2}), frozenset({1}))]
    certs = [certify(ca, pairs, start) for start in range(3)]
    assert [cert.accepted for cert in certs] == [True, True, False]
    for cert in certs:
        assert cert.recurrent_classes == ((1,), (2,))
        assert cert.witness_pairs == (0, None)
        assert cert.absorption_defect == 0.0


def cesaro_average(P, n):
    acc = np.zeros_like(P)
    power = np.eye(P.shape[0])
    for k in range(n):
        acc += power
        power = power @ P
    return acc / n


def test_limit_matrix_matches_power_averaging(rng):
    """Cesaro averages of the powers converge to the assembled limit matrix.

    Convergence is O(absorption time / n), so the draws are dense rows (fast
    mixing) plus one structured multichain with quick absorption.
    """
    for trial in range(4):
        P = rng.dirichlet(np.ones(6), size=6)
        ca = analyze(*chain_model(P))
        assert np.max(np.abs(cesaro_average(P, 100000) - limit_matrix(ca))) \
            <= 1e-4
    P = np.array([[0.0, 1.0, 0.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.4, 0.6, 0.0],
                  [0.0, 0.0, 0.7, 0.3, 0.0],
                  [0.3, 0.2, 0.3, 0.1, 0.1]])
    ca = analyze(*chain_model(P))
    assert len(ca.recurrent_classes) == 2 and ca.transient == {4}
    assert np.max(np.abs(cesaro_average(P, 100000) - limit_matrix(ca))) <= 1e-4


def test_transient_column_is_zero(rng):
    for trial in range(10):
        ca = analyze(*random_chain(rng))
        for s in ca.transient:
            assert np.all(limit_matrix(ca)[:, s] == 0.0)
        rec = [s for comp in ca.recurrent_classes for s in comp]
        for s in rec:
            assert limit_matrix(ca)[s, s] > 0.0


def test_limit_matrix_algebra(rng):
    for trial in range(25):
        ca = analyze(*random_chain(rng))
        P, star = dense_p(ca.chain), limit_matrix(ca)
        for prod in (P @ star, star @ P, star @ star):
            assert np.max(np.abs(prod - star)) <= 1e-9
        assert np.max(np.abs(star.sum(axis=1) - 1.0)) <= 1e-9


def test_average_utility_single_state():
    m = Mdp(["s"], ["a"], 0, {(0, 0): {0: 1.0}})
    u = UtilityFn({(0, 0): 3.0}, "reward").pair_values(m)
    p = deterministic(m, {0: 0})
    ca = analyze(m, p)
    assert average_utility(ca, m, u, p, 0) == pytest.approx(3.0)


def test_average_utility_two_cycle():
    m = Mdp(["x", "y"], ["a"], 0, {(0, 0): {1: 1.0}, (1, 0): {0: 1.0}})
    u = UtilityFn({(0, 0): 1.0, (1, 0): 3.0}, "reward").pair_values(m)
    p = deterministic(m, {0: 0, 1: 0})
    ca = analyze(m, p)
    assert average_utility(ca, m, u, p, 0) == pytest.approx(2.0)


def test_average_utility_matches_monte_carlo(rng):
    """Long simulated averages agree with the analytic value within 3 sigma."""
    m = random_mdp(rng, 4, 2)
    p = random_unichain_policy(rng, m)
    u, _ = random_utilities(rng, m)
    ca = analyze(m, p)
    chain = ca.chain
    analytic = average_utility(ca, m, u, p, m.initial)
    n = 200000
    cum = np.cumsum(dense_p(chain), axis=1)
    draws = rng.random(n)
    s = m.initial
    total = 0.0
    v = utility_vector(m, u, p)
    samples = []
    for t in range(n):
        total += v[s]
        samples.append(v[s])
        s = int(np.searchsorted(cum[s], draws[t]))
        s = min(s, m.n_states - 1)
    est = total / n
    # batch-mean standard error to absorb autocorrelation
    batches = np.array(samples).reshape(100, -1).mean(axis=1)
    sigma = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(est - analytic) <= max(3 * sigma, 5e-3)


def test_efficiency_reduces_to_mean_payoff_with_unit_cost(rng):
    for trial in range(10):
        m = random_mdp(rng, int(rng.integers(2, 7)), 2)
        p = random_policy(rng, m)
        u, _ = random_utilities(rng, m)
        ones = np.full(m.n_pairs, 1.0)
        ca = analyze(m, p)
        assert efficiency(ca, m, u, ones, p, m.initial) == pytest.approx(
            average_utility(ca, m, u, p, m.initial), abs=1e-12)


def test_efficiency_single_state():
    m = Mdp(["s"], ["a"], 0, {(0, 0): {0: 1.0}})
    r = UtilityFn({(0, 0): 2.0}, "reward").pair_values(m)
    c = UtilityFn({(0, 0): 4.0}, "cost").pair_values(m)
    p = deterministic(m, {0: 0})
    ca = analyze(m, p)
    assert efficiency(ca, m, r, c, p, 0) == pytest.approx(0.5)


def test_efficiency_mixes_class_ratios_by_absorption():
    """Start splits 1/4 vs 3/4 into two absorbing loops with ratios 1 and 3."""
    m = Mdp(["t", "u", "v"], ["a"], 0,
            {(0, 0): {1: 0.25, 2: 0.75},
             (1, 0): {1: 1.0},
             (2, 0): {2: 1.0}})
    r = UtilityFn({(0, 0): 0.0, (1, 0): 1.0, (2, 0): 6.0},
                  "reward").pair_values(m)
    c = UtilityFn({(0, 0): 1.0, (1, 0): 1.0, (2, 0): 2.0},
                  "cost").pair_values(m)
    p = deterministic(m, {0: 0, 1: 0, 2: 0})
    ca = analyze(m, p)
    assert efficiency(ca, m, r, c, p, 0) == pytest.approx(
        0.25 * 1.0 + 0.75 * 3.0)


def test_potential_single_state():
    m = Mdp(["s"], ["a"], 0, {(0, 0): {0: 1.0}})
    u = UtilityFn({(0, 0): 5.0}, "reward").pair_values(m)
    p = deterministic(m, {0: 0})
    ca = analyze(m, p)
    g = potential_vector(ca, m, u, p)
    assert g[0] == pytest.approx(5.0)


def test_potential_zero_utility(rng):
    m = random_mdp(rng, 5, 2)
    p = random_policy(rng, m)
    u = np.full(m.n_pairs, 0.0)
    ca = analyze(m, p)
    assert np.max(np.abs(potential_vector(ca, m, u, p))) <= 1e-12


def test_potential_contracts_to_average(rng):
    """pi' g = pi' v = the long-run average on unichains."""
    for trial in range(10):
        m = random_mdp(rng, int(rng.integers(2, 7)), 2)
        p = random_unichain_policy(rng, m)
        u, _ = random_utilities(rng, m)
        ca = analyze(m, p)
        pi = limit_distribution(ca)
        g = potential_vector(ca, m, u, p)
        v = utility_vector(m, u, p)
        w = average_utility(ca, m, u, p, m.initial)
        assert float(pi @ g) == pytest.approx(w, abs=1e-8)
        assert float(pi @ v) == pytest.approx(w, abs=1e-8)


def test_potential_vector_solves_utilities_together():
    """Stacked as rows, reward and cost get the potentials of two single
    solves to 1e-15 relative (max norm), on the case-1 grid-9 optimal
    policy (an 11-state class, solved dense, and 263 transient states,
    solved by SuperLU) and its blend (one class of 274 states)."""
    pm, r, c = delivery_grid_product(9)
    mu_opt, _ = decode_ratio_policy(pm, solve_ratio_lfp(pm, r, c))
    for w in (mu_opt, blend(mu_opt, uniform_policy(pm), 0.003)):
        ca = analyze(pm, w)
        for u, g in zip((r, c), potential_vector(ca, pm, np.stack((r, c)),
                                                 w)):
            ref = potential_vector(ca, pm, u, w)
            assert np.max(np.abs(g - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_potential_residual(rng):
    """potential_vector, which never forms P*, solves (I - P + P*) g = v on
    random multichain chains with transient states too."""
    for trial in range(20):
        m, p = random_chain(rng)
        ca = analyze(m, p)
        u = rng.normal(size=m.n_pairs)
        g = potential_vector(ca, m, u, p)
        a = np.eye(m.n_states) - dense_p(ca.chain) + limit_matrix(ca)
        assert np.max(np.abs(a @ g - utility_vector(m, u, p))) <= 1e-8


def test_deviation_zero_for_equal_policies(rng):
    m = random_mdp(rng, 4, 2)
    p = random_policy(rng, m)
    u, _ = random_utilities(rng, m)
    assert np.max(np.abs(deviation_vector(m, p, p, u))) == 0.0


def test_deviation_zero_for_constant_cost(rng):
    """With unit cost the utility vectors agree and the potential is constant
    on the recurrent structure, so the deviation vanishes."""
    m = random_mdp(rng, 5, 2)
    mu = random_unichain_policy(rng, m)
    mu_p = random_policy(rng, m)
    ones = np.full(m.n_pairs, 1.0)
    d = deviation_vector(m, mu, mu_p, ones)
    assert np.max(np.abs(d)) <= 1e-9


def test_deviation_reproduces_average_difference(rng):
    """The classical first-order identity, evaluated at delta in {0.1, 0.5}."""
    done = 0
    while done < 10:
        m = random_mdp(rng, int(rng.integers(2, 7)), 2)
        try:
            mu = random_unichain_policy(rng, m, tries=50)
        except RuntimeError:
            continue
        mu_p = random_policy(rng, m)
        u, _ = random_utilities(rng, m)
        d = deviation_vector(m, mu, mu_p, u)
        ca = analyze(m, mu)
        w_mu = average_utility(ca, m, u, mu, m.initial)
        for delta in (0.1, 0.5):
            mu_d = blend(mu, mu_p, delta)
            ca_d = analyze(m, mu_d)
            w_d = average_utility(ca_d, m, u, mu_d, m.initial)
            pi_d = limit_distribution(ca_d)
            assert w_d - w_mu == pytest.approx(delta * float(pi_d @ d),
                                               abs=1e-8)
        done += 1


def test_identity_check_zero_delta(rng):
    m = random_mdp(rng, 4, 2)
    mu = random_unichain_policy(rng, m)
    mu_p = random_policy(rng, m)
    r, c = random_utilities(rng, m)
    lhs, rhs = ratio_perturbation_identity_check(m, mu, mu_p, r, c, 0.0)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_identity_check_unit_cost_degenerates_to_classical(rng):
    m = random_mdp(rng, 5, 2)
    mu = random_unichain_policy(rng, m)
    mu_p = random_policy(rng, m)
    u, _ = random_utilities(rng, m)
    ones = np.full(m.n_pairs, 1.0)
    delta = 0.3
    lhs, rhs = ratio_perturbation_identity_check(m, mu, mu_p, u, ones, delta)
    d = deviation_vector(m, mu, mu_p, u)
    mu_d = blend(mu, mu_p, delta)
    pi_d = limit_distribution(analyze(m, mu_d))
    classical = delta * float(pi_d @ d)
    assert rhs == pytest.approx(classical, abs=1e-10)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_identity_check_random_instances(rng):
    done = 0
    while done < 15:
        m = random_mdp(rng, int(rng.integers(2, 8)), 2)
        try:
            mu = random_unichain_policy(rng, m, tries=50)
        except RuntimeError:
            continue
        mu_p = random_policy(rng, m)
        r, c = random_utilities(rng, m)
        lhs, rhs = ratio_perturbation_identity_check(m, mu, mu_p, r, c, 0.3)
        assert lhs == pytest.approx(rhs, abs=1e-8)
        done += 1


def test_identity_check_rejects_multichain():
    m = Mdp(["x", "y"], ["a"], 0, {(0, 0): {0: 1.0}, (1, 0): {1: 1.0}})
    p = deterministic(m, {0: 0, 1: 0})
    r = np.full(m.n_pairs, 1.0)
    c = np.full(m.n_pairs, 1.0)
    with pytest.raises(NotUnichain):
        ratio_perturbation_identity_check(m, p, p, r, c, 0.1)


def test_ratio_deviation_matches_deviation_vectors(rng):
    """Given mu's analysis, ratio_deviation gives bit for bit mu's efficiency
    and d_r - j d_c, the deviation vectors built on mu's potentials for r
    and c as potential_vector solves them together; d lies within 1e-12
    (relative, max norm, at least 1) of the same built from two single
    potential solves."""
    done = 0
    while done < 15:
        m = random_mdp(rng, int(rng.integers(2, 8)), 2)
        try:
            mu = random_unichain_policy(rng, m, tries=50)
        except RuntimeError:
            continue
        mu_p = random_policy(rng, m)
        r, c = random_utilities(rng, m)
        ca = analyze(m, mu)
        j, d = ratio_deviation(ca, m, mu, mu_p, r, c)
        g_r, g_c = potential_vector(ca, m, np.stack((r, c)), mu)
        assert j == efficiency(ca, m, r, c, mu, m.initial)
        assert np.array_equal(d, deviation_vector(m, mu, mu_p, r, g_r)
                              - j * deviation_vector(m, mu, mu_p, c, g_c))
        single = deviation_vector(m, mu, mu_p, r) \
            - j * deviation_vector(m, mu, mu_p, c)
        assert np.max(np.abs(d - single)) <= \
            1e-12 * max(1.0, np.max(np.abs(single)))
        done += 1


def test_ratio_deviation_rejects_multichain():
    m = Mdp(["x", "y"], ["a"], 0, {(0, 0): {0: 1.0}, (1, 0): {1: 1.0}})
    p = deterministic(m, {0: 0, 1: 0})
    r = np.full(m.n_pairs, 1.0)
    c = np.full(m.n_pairs, 1.0)
    with pytest.raises(NotUnichain):
        ratio_deviation(analyze(m, p), m, p, p, r, c)


def test_mixture_preserves_unichain(rng):
    """If mu induces a unichain, every positive mixture with any policy does."""
    done = 0
    while done < 15:
        m = random_mdp(rng, int(rng.integers(2, 7)), 2)
        try:
            mu = random_unichain_policy(rng, m, tries=50)
        except RuntimeError:
            continue
        mu_p = random_policy(rng, m)
        for delta in (0.01, 0.5, 1.0):
            ca = analyze(m, blend(mu, mu_p, delta))
            assert ca.is_unichain()
        done += 1


def test_analyze_peak_memory_on_grid13_es_chain(monkeypatch):
    """analyze on the chain of the case-1 task-2 grid-13 es policy (one
    recurrent class of all 626 states) peaks below 1.5 n x n float arrays
    beyond the induced chain, which is induced here before tracing starts:
    the stationary system is built from the chain's CSR arrays and solved
    by SuperLU (whose own C allocations are not traced), and the support
    graph comes from the model's successor entries, with no n x n mask."""
    import tracemalloc
    from effsynth import chain
    from effsynth.synthesis import synth_general
    pm, r, c = delivery_grid_product(13)
    policy = synth_general(pm, r, c, 0.01, "es").policy
    mc = induce_chain(pm, policy)
    monkeypatch.setattr(chain, "induce_chain", lambda m, w: mc)
    n = mc.n_states
    tracemalloc.start()
    try:
        ca = analyze(pm, policy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ca.chain is mc
    assert [len(comp) for comp in ca.recurrent_classes] == [n] == [626]
    assert peak < 1.5 * n * n * 8


def chain_results(m, w, r, c):
    """analyze's classes, transient states, stationary vectors and
    absorption matrix, the potential of r and the efficiency r / c."""
    ca = analyze(m, w)
    return (ca.recurrent_classes, ca.transient, ca.stationary, ca.absorb,
            potential_vector(ca, m, r, w),
            efficiency(ca, m, r, c, w, m.initial))


def assert_same_results(got, want):
    """Equal structure; every number equal to 1e-12 relative (max norm)."""
    assert got[:2] == want[:2]
    pairs = [*zip(got[2], want[2]), *zip(got[3:], want[3:])]
    for x, ref in pairs:
        x, ref = np.asarray(x), np.asarray(ref)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_sparse_solves_match_dense_on_multichain_chains(rng, monkeypatch):
    """With DENSE_MAX at 0 every system goes to SuperLU: on random chains
    with several classes and transient states, the results match the dense
    LU's."""
    from effsynth import chain
    done = 0
    while done < 20:
        m, p = random_chain(rng, int(rng.integers(4, 9)))
        ca = analyze(m, p)
        if ca.is_unichain() or not ca.transient:
            continue
        r, c = random_utilities(rng, m)
        dense = chain_results(m, p, r, c)
        with monkeypatch.context() as mp:
            mp.setattr(chain, "DENSE_MAX", 0)
            assert_same_results(chain_results(m, p, r, c), dense)
        done += 1


def test_sparse_solves_match_dense_on_the_grid9_maec(monkeypatch):
    """The case-1 grid-9 MAEC's blend chain (274 states) lies above the cut,
    so it is solved by SuperLU; with the cut raised to its size, dense LU gives
    the same results."""
    from effsynth import chain
    pm, r, c = delivery_grid_product(9)
    sub, _ = restrict(pm, maec_decompose(pm)[0])
    r, c = r[sub.parent_pair], c[sub.parent_pair]
    mu_opt, _ = decode_ratio_policy(sub, solve_ratio_lfp(sub, r, c))
    w = blend(mu_opt, uniform_policy(sub), 0.05)
    assert chain.DENSE_MAX < sub.n_states == 274
    sparse = chain_results(sub, w, r, c)
    monkeypatch.setattr(chain, "DENSE_MAX", sub.n_states)
    assert_same_results(sparse, chain_results(sub, w, r, c))


def test_cycle_stationary_solve_fills_linearly(monkeypatch):
    """A 2000-state cycle with self-loops (0.5 each) lies above DENSE_MAX;
    SuperLU's factors of its bordered stationary system hold at most 10
    entries per state (COLAMD with partial pivoting fills about n^2/2),
    and pi is uniform to 1e-12."""
    import scipy.sparse.linalg
    from effsynth import chain
    splu = scipy.sparse.linalg.splu
    fill = []

    def recorded(*args, **kwargs):
        lu = splu(*args, **kwargs)
        fill.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recorded)
    n = 2000
    src = np.repeat(np.arange(n), 2)
    dst = np.stack((np.arange(n), (np.arange(n) + 1) % n), axis=1).ravel()
    m = Mdp.from_arrays([f"s{i}" for i in range(n)], ["a"], 0,
                        *csr_arrays(n, src, np.zeros(2 * n, dtype=np.int64),
                                    dst, np.full(2 * n, 0.5)))
    assert n > chain.DENSE_MAX
    pi = stationary_distribution(induce_chain(m, np.ones(m.n_pairs)))
    assert len(fill) == 1 and fill[0] <= 10 * n
    assert np.max(np.abs(pi - 1.0 / n)) <= 1e-12


@pytest.mark.parametrize("dense_max", [0, 250])
def test_singular_system_is_typed_on_both_paths(monkeypatch, dense_max):
    """A singular system raises SingularSystem whether dense LU or SuperLU
    (whose RuntimeError it replaces) factors it."""
    from effsynth import chain
    monkeypatch.setattr(chain, "DENSE_MAX", dense_max)
    system = (np.array([0, 1]), np.array([0, 0]), np.array([1.0, 1.0]))
    with pytest.raises(chain.SingularSystem):
        chain._solve(2, system, np.ones(2), "test")
