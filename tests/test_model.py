import numpy as np
import pytest

from effsynth.model import (AlphabetMismatch, Dra, Mdp, ModelError,
                            PolicyMismatch, UtilityFn, alphabet, blend,
                            build_product, induce_chain, uniform_policy,
                            validate_mdp)

from conftest import dense_p, deterministic, example1_mdp, random_mdp, \
    random_policy, rule_policy
from test_exact import AP, random_dra


def test_alphabet_numbers_symbols_by_bits():
    """Symbol b holds proposition i iff bit i of b is set."""
    assert alphabet(("a", "b")) == [frozenset(), {"a"}, {"b"}, {"a", "b"}]
    assert alphabet(()) == [frozenset()]


def accept_everything_dra(ap=("g",)):
    return Dra(1, 0, ap, [[0] * 2 ** len(ap)], [(set(), {0})])


def test_validate_example1_clean():
    assert validate_mdp(example1_mdp()) == []


def test_validate_flags_substochastic_row():
    m = Mdp(["x", "y"], ["a"], 0, {(0, 0): {1: 0.9}, (1, 0): {1: 1.0}})
    kinds = [v.kind for v in validate_mdp(m)]
    assert kinds == ["stochasticity"]


def test_validate_flags_actionless_state():
    m = Mdp(["x", "y"], ["a"], 0, {(0, 0): {0: 1.0}})
    kinds = [v.kind for v in validate_mdp(m)]
    assert "no_action" in kinds


def test_empty_distribution_is_rejected():
    """A pair has at least one successor entry: the dict constructor builds
    pairs from transition entries, so an empty row cannot become one."""
    with pytest.raises(ModelError, match=r"pair \(0, 1\) has an empty"):
        Mdp(["x"], ["a", "b"], 0, {(0, 0): {0: 1.0}, (0, 1): {}})


def test_validate_flags_out_of_range_probability():
    """Also a negative entry however small: PROB_TOL bounds the row sum and
    the upper end only."""
    m = Mdp(["x"], ["a"], 0, {(0, 0): {0: 1.1}})
    kinds = {v.kind for v in validate_mdp(m)}
    assert "prob_range" in kinds and "stochasticity" in kinds
    m = Mdp(["x", "y"], ["a"], 0, {(0, 0): {0: 1.0000000005, 1: -1e-15},
                                   (1, 0): {1: 1.0}})
    assert [(v.kind, v.detail) for v in validate_mdp(m)] == \
        [("prob_range", "P(1|0,0)=-1e-15")]


def test_pair_lookups_agree_with_a_linear_scan():
    """Mdp.pair_index and a UtilityFn over the same pairs find exactly the
    listed pairs: not a missing pair, a negative or unknown action, a state
    past the last, or anything in an empty table."""
    m = Mdp(["x", "y", "z"], ["a", "b", "c"], 0,
            {(0, 1): {0: 1.0}, (1, 0): {2: 1.0}, (1, 2): {0: 1.0},
             (2, 1): {1: 1.0}})
    pairs = list(m.state_action_pairs())
    fn = UtilityFn({sa: float(j) for j, sa in enumerate(pairs)}, "reward")
    queries = [(s, a) for s in range(-1, 5) for a in range(-2, 5)]
    states, actions = (np.array(q) for q in zip(*queries))
    idx, found = m.pair_index(states, actions)
    assert found.tolist() == [q in pairs for q in queries]
    assert idx[found].tolist() == [pairs.index(q) for q in queries
                                   if q in pairs]
    for q in queries:
        if q in pairs:
            assert fn(*q) == pairs.index(q)
        else:
            with pytest.raises(KeyError):
                fn(*q)
    with pytest.raises(KeyError):
        UtilityFn({}, "reward")(0, 0)


def test_product_identity_case():
    m = Mdp(["s"], ["a"], 0, {(0, 0): {0: 1.0}}, ("g",), [frozenset()])
    pm = build_product(m, accept_everything_dra())
    assert pm.n_states == 1
    assert pm.acc_pairs == ((frozenset(), frozenset({0})),)
    assert pm.trans[(0, 0)] == {0: 1.0}


def three_state_dra():
    """Tracks whether the last symbol contained g (q1) or was empty after a
    b (dead q2): enough structure to exercise the product."""
    ap = ("g", "b")
    move = [2 if "b" in sym else (1 if "g" in sym else 0)
            for sym in alphabet(ap)]
    return Dra(3, 0, ap, [move, move, [2] * 4], [({2}, {1})])


def test_product_obeys_transition_rule_exhaustively(rng):
    """Every positive product transition matches the base probability and the
    automaton step on the successor's label; everything else is absent."""
    d = three_state_dra()
    for trial in range(10):
        m = random_mdp(rng, 4, 2)
        labels = [frozenset(p for p in ("g", "b") if rng.random() < 0.3)
                  for _ in range(4)]
        m = Mdp(m.state_names, m.action_names, m.initial, m.trans,
                ("g", "b"), labels)
        pm = build_product(m, d)
        assert pm.n_states <= 4 * 3
        assert pm.components[0] == (m.initial, d.step(d.initial,
                                                      labels[m.initial]))
        for i, (s, q) in enumerate(pm.components):
            assert pm.labels[i] == labels[s]
            for a in pm.available[i]:
                assert set(pm.available[i]) == set(m.available[s])
                dist = pm.trans[(i, a)]
                base = m.trans[(s, a)]
                for j, p in dist.items():
                    t, q2 = pm.components[j]
                    assert q2 == d.step(q, labels[t])
                    assert p == pytest.approx(base[t], abs=1e-15)
                # no mass lost: every base successor shows up exactly once
                assert sum(dist.values()) == pytest.approx(
                    sum(base.values()), abs=1e-12)


def test_product_acceptance_pairs_lifted():
    d = three_state_dra()
    m = example1_mdp()
    m = Mdp(m.state_names, m.action_names, 0, m.trans, ("g", "b"),
            [frozenset(), frozenset({"g"}), frozenset(), frozenset({"g"})])
    pm = build_product(m, d)
    b, g = pm.acc_pairs[0]
    for i, (s, q) in enumerate(pm.components):
        assert (i in b) == (q == 2)
        assert (i in g) == (q == 1)


def test_dra_table_is_checked_and_read_by_symbol_number():
    """The constructor takes an (n_states, 2^|AP|) table of states, a
    state as initial and at least one pair; symbol numbers a set of
    propositions as alphabet does, and step reads the table."""
    ap = ("g", "b")
    table = [[0, 1, 1, 0], [1, 1, 0, 1]]
    d = Dra(2, 1, ap, table, [({0}, {1})])
    assert d.table.dtype == np.int64 and not d.table.flags.writeable
    assert [d.symbol(sym) for sym in alphabet(ap)] == [0, 1, 2, 3]
    assert [d.step(1, sym) for sym in alphabet(ap)] == table[1]
    bad = [("shape", 2, 0, [[0, 1, 1], [0, 1, 1]], [({0}, {1})]),
           ("shape", 3, 0, table, [({0}, {1})]),
           ("shape", 1, 0, [0, 1, 0, 0], [({0}, {1})]),
           ("outside 0..1", 2, 0, [[0, 1, 2, 1], [1, 1, 0, 1]],
            [({0}, {1})]),
           ("outside 0..1", 2, 0, [[0, -1, 1, 1], [1, 1, 0, 1]],
            [({0}, {1})]),
           ("at least one pair", 2, 0, table, []),
           ("initial state 2", 2, 2, table, [({0}, {1})]),
           ("initial state -1", 2, -1, table, [({0}, {1})])]
    for match, n, initial, tab, pairs in bad:
        with pytest.raises(ModelError, match=match):
            Dra(n, initial, ap, tab, pairs)


def dict_dra_delta(n_states, ap, delta):
    """The {(state, frozenset): state} dict a Dra built from a delta dict
    stored, with the totality check it made."""
    out = {(int(q), frozenset(sym)): int(q2) for (q, sym), q2 in delta.items()}
    assert len(out) == n_states * 2 ** len(ap)
    return out


def test_delta_view_is_the_dict_form_of_random_automata(rng):
    """random_dra's table, drawn as the delta dict once was (state by
    state, symbol by symbol), reads back as that dict, in its key order."""
    for trial in range(30):
        seed, n = int(rng.integers(2 ** 32)), int(rng.integers(1, 5))
        d = random_dra(np.random.default_rng(seed), n)
        draw = np.random.default_rng(seed)
        want = dict_dra_delta(n, AP, {
            (q, frozenset(p for i, p in enumerate(AP) if bits & (1 << i))):
                int(draw.integers(n))
            for q in range(n) for bits in range(2 ** len(AP))})
        assert list(d.delta.items()) == list(want.items())


def test_product_rejects_unknown_label():
    m = Mdp(["s"], ["a"], 0, {(0, 0): {0: 1.0}}, ("x",), [frozenset({"x"})])
    with pytest.raises(AlphabetMismatch):
        build_product(m, accept_everything_dra(ap=("g",)))


def test_induce_chain_deterministic_is_zero_one():
    m = example1_mdp()
    p = deterministic(m, {0: 0, 1: 0, 2: 0, 3: 0})
    chain = induce_chain(m, p)
    assert set(np.unique(dense_p(chain))) <= {0.0, 1.0}
    assert chain.pi0[m.initial] == 1.0


def test_induce_chain_uniform_on_example1_state4():
    m = example1_mdp()
    p = uniform_policy(m)
    chain = induce_chain(m, p)
    # state "4" mixes its two actions: half to "3", half back to itself
    P = dense_p(chain)
    assert P[3, 2] == pytest.approx(0.5)
    assert P[3, 3] == pytest.approx(0.5)


def test_induce_chain_rejects_unavailable_action():
    m = example1_mdp()
    rule = {0: {1: 1.0}, 1: {1: 1.0}, 2: {0: 1.0}, 3: {0: 1.0}}
    with pytest.raises(PolicyMismatch):
        induce_chain(m, rule_policy(m, rule))


def test_mixture_linearity(rng):
    """Chains of policy mixtures are the entrywise mixtures of the chains."""
    for trial in range(20):
        m = random_mdp(rng, int(rng.integers(2, 6)), 3)
        pa = random_policy(rng, m)
        pb = random_policy(rng, m)
        delta = float(rng.uniform(0.05, 0.95))
        mixed = dense_p(induce_chain(m, blend(pa, pb, delta)))
        direct = (1 - delta) * dense_p(induce_chain(m, pa)) + \
            delta * dense_p(induce_chain(m, pb))
        assert np.max(np.abs(mixed - direct)) <= 1e-12


def test_mixture_quarter_weight():
    m = example1_mdp()
    pa = deterministic(m, {0: 0, 1: 0, 2: 0, 3: 0})
    pb = deterministic(m, {0: 1, 1: 0, 2: 0, 3: 1})
    chain = induce_chain(m, blend(pa, pb, 0.25))
    expect = 0.75 * dense_p(induce_chain(m, pa)) + \
        0.25 * dense_p(induce_chain(m, pb))
    assert np.array_equal(dense_p(chain), expect)


def test_row_stochasticity_of_random_chains(rng):
    for trial in range(20):
        m = random_mdp(rng, int(rng.integers(2, 8)), 3)
        chain = induce_chain(m, random_policy(rng, m))
        assert np.max(np.abs(dense_p(chain).sum(axis=1) - 1.0)) <= 1e-9


def test_cost_utility_must_be_positive():
    with pytest.raises(Exception):
        UtilityFn({(0, 0): 0.0}, "cost")


def test_utility_completeness_check():
    m = example1_mdp()
    fn = UtilityFn({(0, 0): 1.0}, "reward")
    with pytest.raises(Exception, match="missing"):
        fn.pair_values(m)
