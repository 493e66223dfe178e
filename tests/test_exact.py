"""The flat state-action arrays against per-pair loops over the dict form.

Each reference below walks {successor: probability} dicts pair by pair, in
(state, action) order, as the model layer did before it stored arrays.  The
array code must give bitwise the same numbers (np.array_equal, ==), not
merely close ones: every output of the program is expected to stay
byte-identical.
"""

from bisect import bisect_left

import numpy as np
import pytest

from effsynth import cli, lp, sim
from effsynth.chain import analyze, efficiency, utility_vector
from effsynth.graph import mec_decompose
from effsynth.model import (Dra, Mdp, PolicyMismatch, ProductMdp,
                            StationaryPolicy, UtilityFn, build_product,
                            induce_chain, lift_utilities)

from conftest import (random_communicating_mdp, random_mdp, random_policy,
                      random_utilities)

AP = ("g", "b")


def random_dra(rng, n_states):
    symbols = [frozenset(p for i, p in enumerate(AP) if bits & (1 << i))
               for bits in range(2 ** len(AP))]
    delta = {(q, sym): int(rng.integers(n_states))
             for q in range(n_states) for sym in symbols}

    def some(lo, hi):
        k = min(int(rng.integers(lo, hi)), n_states)
        return {int(q) for q in rng.choice(n_states, size=k, replace=False)}

    pairs = [(some(0, 2), some(1, 3)) for _ in range(int(rng.integers(1, 3)))]
    return Dra(n_states, int(rng.integers(n_states)), AP, delta, pairs)


def labeled_mdp(rng, n_states, n_actions):
    m = random_mdp(rng, n_states, n_actions)
    labels = [frozenset(p for p in AP if rng.random() < 0.35)
              for _ in range(n_states)]
    return Mdp(m.state_names, m.action_names, m.initial, m.trans, AP, labels)


def trans_of(m):
    """The dict form of any model, read through the succ accessor."""
    return {(s, a): m.succ(s, a) for s, a in m.state_action_pairs()}


# --- references: loops over the dict form --------------------------------

def product_reference(m, d):
    """Breadth-first product over (state, automaton state) keys, interning
    each successor in pair-then-successor order."""
    index = {}
    order = []

    def intern(s, q):
        if (s, q) not in index:
            index[(s, q)] = len(order)
            order.append((s, q))
        return index[(s, q)]

    intern(m.initial, d.step(d.initial, m.labels[m.initial]))
    trans = {}
    i = 0
    while i < len(order):
        s, q = order[i]
        for a in m.available[s]:
            dist = {}
            for t, p in m.trans[(s, a)].items():
                j = intern(t, d.step(q, m.labels[t]))
                dist[j] = dist.get(j, 0.0) + p
            trans[(i, a)] = dict(sorted(dist.items()))
        i += 1
    acc = [(frozenset(i for i, (s, q) in enumerate(order) if q in b),
            frozenset(i for i, (s, q) in enumerate(order) if q in g))
           for b, g in d.pairs]
    return order, trans, acc


def chain_reference(trans, n, rule):
    P = np.zeros((n, n))
    for s in range(n):
        for a, w in rule[s].items():
            if w == 0.0:
                continue
            for t, prob in trans[(s, a)].items():
                P[s, t] += w * prob
    return P


def utility_reference(values, n, rule):
    v = np.zeros(n)
    for s in range(n):
        v[s] = sum(w * values[(s, a)] for a, w in rule[s].items() if w != 0.0)
    return v


def restrict_reference(trans, n, dom):
    """Closed restriction onto dom, as (local trans, ids)."""
    ids = sorted(dom)
    local = {g: i for i, g in enumerate(ids)}
    out = {}
    for (s, a), dist in sorted(trans.items()):
        if s in local and all(t in local for t, p in dist.items() if p > 0.0):
            out[(local[s], a)] = {local[t]: p for t, p in dist.items()}
    return out, ids


def rows_reference(trans, n, rule, r, c):
    rows = []
    for s in range(n):
        if s not in rule:
            rows.append(None)
            continue
        cum, nxt, rinc, cinc = [], [], [], []
        total = 0.0
        for a, w in rule[s].items():
            if w <= 0.0:
                continue
            for t, prob in trans[(s, a)].items():
                if prob <= 0.0:
                    continue
                total += w * prob
                cum.append(total)
                nxt.append(t)
                rinc.append(r[(s, a)])
                cinc.append(c[(s, a)])
        rows.append((cum, nxt, rinc, cinc))
    return rows


def rollout_reference(rows, initial, steps, gen):
    """The sampler with numpy-indexed draws and an explicit clamp."""
    u = gen.random(steps)
    counts = [0] * len(rows)
    total_r = 0.0
    total_c = 0.0
    s = initial
    for t in range(steps):
        counts[s] += 1
        if rows[s] is None:
            raise PolicyMismatch(f"rollout reached undefined state {s}")
        cum, nxt, rinc, cinc = rows[s]
        j = bisect_left(cum, u[t])
        if j >= len(cum):
            j = len(cum) - 1
        total_r += rinc[j]
        total_c += cinc[j]
        s = nxt[j]
    return counts, total_r, total_c


# --- tests ------------------------------------------------------------------

def test_product_matches_dict_bfs(rng):
    for trial in range(25):
        m = labeled_mdp(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
        d = random_dra(rng, int(rng.integers(1, 4)))
        order, trans, acc = product_reference(m, d)
        pm = build_product(m, d)
        assert list(pm.components) == order
        assert pm.state_names == tuple(f"{m.state_names[s]}&q{q}"
                                       for s, q in order)
        assert pm.labels == tuple(m.labels[s] for s, _ in order)
        assert pm.acc_pairs == tuple(acc)
        assert pm.available == tuple(
            tuple(a for (i, a) in sorted(trans) if i == k)
            for k in range(len(order)))
        assert trans_of(pm) == trans
        assert all(list(trans_of(pm)[sa]) == list(trans[sa]) for sa in trans)
        for j, (i, a) in enumerate(pm.state_action_pairs()):
            assert int(pm.base_pair[j]) == list(m.state_action_pairs()).index(
                (order[i][0], a))


def test_induce_chain_and_utility_vector_match_loops(rng):
    """Few states and many actions, so that three or more terms meet in
    one entry, where the order of the sum shows in its rounding."""
    for trial in range(25):
        m = random_mdp(rng, int(rng.integers(2, 5)), int(rng.integers(3, 6)),
                       p_avail=0.9)
        r, _ = random_utilities(rng, m)
        p = random_policy(rng, m)
        n = m.n_states
        assert np.array_equal(induce_chain(m, p).P,
                              chain_reference(m.trans, n, p.rule))
        assert np.array_equal(utility_vector(m, r, p),
                              utility_reference(r.values, n, p.rule))


def test_deterministic_rules_skip_zero_weights(rng):
    """Rules listing an available action with weight zero, and negative
    utilities, still sum like the loop (which skips those terms)."""
    m = random_mdp(rng, 6, 3, p_avail=1.0)
    r = UtilityFn({sa: -1.5 for sa in m.state_action_pairs()}, "reward")
    rule = {s: {a: (1.0 if k == 0 else 0.0) for k, a in enumerate(acts)}
            for s, acts in enumerate(m.available)}
    p = StationaryPolicy(rule)
    assert np.array_equal(induce_chain(m, p).P,
                          chain_reference(m.trans, m.n_states, p.rule))
    assert np.array_equal(utility_vector(m, r, p),
                          utility_reference(r.values, m.n_states, p.rule))


def test_weight_blend_is_the_rule_mix(rng):
    """The exact degree's probes blend weight vectors; chain, utilities and
    efficiency equal those of the mixed rule."""
    for trial in range(10):
        m = random_communicating_mdp(rng, int(rng.integers(3, 7)), 2)
        r, c = random_utilities(rng, m)
        mu, mu_p = random_policy(rng, m), StationaryPolicy.uniform(m)
        for delta in (1e-6, 0.3, 0.999999):
            w = (1.0 - delta) * mu.weights(m) + delta * mu_p.weights(m)
            mixed = mu.mix(mu_p, delta)
            assert np.array_equal(w, mixed.weights(m))
            assert np.array_equal(induce_chain(m, w).P,
                                  chain_reference(m.trans, m.n_states,
                                                  mixed.rule))
            assert np.array_equal(utility_vector(m, c, w),
                                  utility_reference(c.values, m.n_states,
                                                    mixed.rule))
            ca = analyze(induce_chain(m, w))
            assert efficiency(ca, m, r, c, w, m.initial) == \
                efficiency(ca, m, r, c, mixed, m.initial)


def test_partial_policy_scope_matches_loops(rng):
    """A policy defined on one end component only: the CLI's scope restricts
    the product to it, and the restricted chain, utilities and sampling
    tables equal loops over the dict restriction."""
    done = 0
    while done < 8:
        base = random_mdp(rng, int(rng.integers(4, 9)), 2)
        mecs = [ec for ec in mec_decompose(base) if len(ec.state_set) > 1]
        if not mecs or len(mecs[0].state_set) == base.n_states:
            continue
        ec = mecs[0]
        pm = ProductMdp(base.state_names, base.action_names,
                        min(ec.state_set), base.trans, [(set(), ec.state_set)])
        r, c = random_utilities(rng, pm)
        rule = {s: {a: 1.0 / len(acts) for a in sorted(acts)}
                for s, acts in ec.act}
        policy = StationaryPolicy(rule)
        sub, local, r_sub, c_sub = cli._policy_scope(pm, policy, r, c)
        trans, ids = restrict_reference(pm.trans, pm.n_states, ec.state_set)
        assert trans_of(sub) == trans
        rule_local = {ids.index(s): d for s, d in rule.items()}
        n = len(ids)
        assert np.array_equal(induce_chain(sub, local).P,
                              chain_reference(trans, n, rule_local))
        r_local = {(ids.index(s), a): v for (s, a), v in r.values.items()
                   if s in ids}
        c_local = {(ids.index(s), a): v for (s, a), v in c.values.items()
                   if s in ids}
        assert np.array_equal(utility_vector(sub, r_sub, local),
                              utility_reference(r_local, n, rule_local))
        rows = sim._compound_rows(sub, local, r_sub, c_sub)
        ref = rows_reference(trans, n, rule_local, r_local, c_local)
        assert [row[:4] for row in rows] == ref
        done += 1


def test_lp_data_match_loop_assembly(rng, monkeypatch):
    """a_eq, b_eq and c of the ratio program and of the average-reward
    program equal the per-pair assembly."""
    seen = []
    solve = lp.solve_lp

    def kept(problem):
        seen.append(problem)
        return solve(problem)

    monkeypatch.setattr(lp, "solve_lp", kept)
    for trial in range(8):
        m = random_communicating_mdp(rng, int(rng.integers(2, 6)), 2)
        r, c = random_utilities(rng, m)
        pairs = list(m.state_action_pairs())
        n, k = m.n_states, len(pairs)

        flow = np.zeros((n, k))
        for j, (s, a) in enumerate(pairs):
            flow[s, j] += 1.0
            for t, prob in m.trans[(s, a)].items():
                flow[t, j] -= prob

        seen.clear()
        lp.solve_ratio_lfp(m, r, c)
        a_eq = np.vstack([flow, [c.values[sa] for sa in pairs]])
        b_eq = np.zeros(n + 1)
        b_eq[n] = 1.0
        (got,) = seen
        assert np.array_equal(got.a_eq, a_eq)
        assert np.array_equal(got.b_eq, b_eq)
        assert np.array_equal(got.c, [r.values[sa] for sa in pairs])

        seen.clear()
        lp.solve_avg_reward_lp(m, r)
        a_eq = np.zeros((2 * n, 2 * k))
        a_eq[:n, :k] = flow
        for j, (s, a) in enumerate(pairs):
            a_eq[n + s, j] += 1.0
        a_eq[n:, k:] = flow
        cobj = np.zeros(2 * k)
        cobj[:k] = [r.values[sa] for sa in pairs]
        (got,) = seen
        assert np.array_equal(got.a_eq, a_eq)
        assert np.array_equal(got.b_eq, np.concatenate(
            [np.zeros(n), np.full(n, 1.0 / n)]))
        assert np.array_equal(got.c, cobj)


def test_rollout_matches_numpy_indexed_loop(rng):
    for trial in range(10):
        m = random_communicating_mdp(rng, int(rng.integers(2, 7)), 2)
        r, c = random_utilities(rng, m)
        p = random_policy(rng, m)
        rows = sim._compound_rows(m, p, r, c)
        ref = rows_reference(m.trans, m.n_states, p.rule, r.values, c.values)
        assert [row[:4] for row in rows] == ref
        for i in range(3):
            assert sim._one_rollout(rows, m.initial, 2000,
                                    sim._stream(trial, i)) == \
                rollout_reference(ref, m.initial, 2000,
                                  sim._stream(trial, i))


def test_rollout_clamps_draws_above_the_row_total():
    """A row whose cumulative total ends below some draws (rounding in a
    real table) takes its last outcome for them, as the clamp does."""
    ref = [([0.25, 0.5], [1, 0], [1.0, 2.0], [1.0, 1.0]),
           ([0.3], [0], [0.5], [2.0])]
    rows = [(*row, len(row[0]) - 1) for row in ref]
    gen = sim._stream(5, 0)
    got = sim._one_rollout(rows, 0, 5000, gen)
    want = rollout_reference(ref, 0, 5000, sim._stream(5, 0))
    assert got == want
    # about half the draws at state 0 lie above its total of 0.5 and keep
    # it there (without the clamp they would index past the row)
    assert got[0][0] > 2 * got[0][1]


def test_rollout_reports_undefined_state():
    rows = [([1.0], [1], [1.0], [1.0], 0), None]
    with pytest.raises(PolicyMismatch, match="undefined state 1"):
        sim._one_rollout(rows, 0, 10, sim._stream(0, 0))


def test_utilities_lift_as_a_gather(rng):
    """lift_utilities equals the per-pair lookup of the base value."""
    for trial in range(10):
        m = labeled_mdp(rng, int(rng.integers(2, 6)), 2)
        d = random_dra(rng, 2)
        pm = build_product(m, d)
        reward, cost = random_utilities(rng, m)
        r, c = lift_utilities(pm, reward, cost)
        for i, a in pm.state_action_pairs():
            base = pm.components[i][0]
            assert r(i, a) == reward(base, a)
            assert c(i, a) == cost(base, a)
