"""The flat state-action arrays against per-pair loops over the dict form.

Each reference below walks {successor: probability} dicts and
{state: {action: probability}} policy rules pair by pair, in (state, action)
order, as the program did before models, policies, utilities and LP
solutions became arrays.  The array code must give bitwise the same numbers
(np.array_equal, ==), not merely close ones: every output of the program is
expected to stay byte-identical.
"""

from bisect import bisect_left

import numpy as np
import pytest

from effsynth import cli, lp, sim
from effsynth.chain import analyze, efficiency, utility_vector
from effsynth.graph import (Unreachable, almost_sure_region, attractor_policy,
                            closed_pairs, mec_decompose, restrict)
from effsynth.lp import (AvgLpSolution, DegenerateDecoding, LfpSolution,
                         decode_avg_policy, decode_ratio_policy,
                         solve_avg_reward_lp)
from effsynth.model import (Dra, Mdp, PolicyMismatch, UtilityFn, blend,
                            build_product, induce_chain, lift_utilities,
                            uniform_policy)
from effsynth import synthesis
from effsynth.synthesis import build_reward_k, synth_general

from conftest import (amecs_of, chain_model, dense_p, ec_parts,
                      random_communicating_mdp,
                      random_mdp, random_product, random_rule,
                      random_utilities, random_utility_tables, rule_of,
                      rule_policy, utility_dict)
from test_synthesis import random_multichain_product

AP = ("g", "b")


def random_dra(rng, n_states):
    table = [[int(rng.integers(n_states)) for _ in range(2 ** len(AP))]
             for _ in range(n_states)]

    def some(lo, hi):
        k = min(int(rng.integers(lo, hi)), n_states)
        return {int(q) for q in rng.choice(n_states, size=k, replace=False)}

    pairs = [(some(0, 2), some(1, 3)) for _ in range(int(rng.integers(1, 3)))]
    return Dra.from_table(n_states, int(rng.integers(n_states)), AP, table,
                          pairs)


def labeled_mdp(rng, n_states, n_actions):
    m = random_mdp(rng, n_states, n_actions)
    labels = [frozenset(p for p in AP if rng.random() < 0.35)
              for _ in range(n_states)]
    return Mdp(m.state_names, m.action_names, m.initial, m.trans, AP, labels)


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


def mix_reference(rule, other, delta):
    """(1-delta) rule + delta other, both over the same states."""
    out = {}
    for s in rule:
        d = {}
        for a, p in rule[s].items():
            d[a] = d.get(a, 0.0) + (1.0 - delta) * p
        for a, p in other[s].items():
            d[a] = d.get(a, 0.0) + delta * p
        out[s] = d
    return out


def weights_reference(m, rule):
    """A rule as a weight vector over m's pairs, pair by pair."""
    return np.array([rule.get(s, {}).get(a, 0.0)
                     for s, a in m.state_action_pairs()])


def attractor_reference(m, target, rule):
    """Breadth-first layers over the dict form: each state outside the grown
    region with an action into it takes its lowest such action, and the
    layer's rows replace whatever rule gave those states."""
    grown = set(target)
    rule = {s: dict(d) for s, d in rule.items()}
    while len(grown) < m.n_states:
        layer = {}
        for s in range(m.n_states):
            if s in grown:
                continue
            for a in m.available[s]:
                if any(t in grown and p > 0.0
                       for t, p in m.trans[(s, a)].items()):
                    layer[s] = a
                    break
        if not layer:
            raise Unreachable("stuck")
        for s, a in layer.items():
            rule[s] = {a: 1.0}
        grown |= set(layer)
    return rule


def classes_reference(m, rule):
    """The recurrent classes of the loop-built chain of rule, analyzed as a
    one-action model whose entries are that chain's positive entries."""
    P = chain_reference(m.trans, m.n_states, rule)
    return analyze(*chain_model(P, m.initial)).recurrent_classes


def decode_ratio_reference(m, gamma, support_threshold=1e-9):
    """The ratio program's decoder over a {(state, action): weight} dict."""
    mass = {}
    for (s, a), g in gamma.items():
        mass[s] = mass.get(s, 0.0) + g
    q_set = {s for s, tot in mass.items() if tot > support_threshold}
    rule = {}
    for s in q_set:
        dist = {a: gamma[(s, a)] / mass[s] for a in m.available[s]
                if gamma.get((s, a), 0.0) > support_threshold}
        if not dist:
            best = max(m.available[s], key=lambda a: gamma.get((s, a), 0.0))
            dist = {best: gamma[(s, best)] / mass[s]}
        total = sum(dist.values())
        rule[s] = {a: p / total for a, p in dist.items()}
    rule = attractor_reference(m, q_set, rule)
    classes = classes_reference(m, rule)
    if len(classes) > 1:
        chosen = min(classes, key=lambda comp: comp[0])
        kept = {s: rule[s] for s in chosen}
        rule = attractor_reference(m, set(chosen), kept)
    return rule, len(classes)


def decode_avg_reference(m, x, y, support_threshold=1e-9):
    """The average-reward decoder over {(state, action): value} dicts."""
    rule = {}
    for s in range(m.n_states):
        x_row = {a: x.get((s, a), 0.0) for a in m.available[s]}
        y_row = {a: y.get((s, a), 0.0) for a in m.available[s]}
        if sum(x_row.values()) > support_threshold:
            row = x_row
        elif sum(y_row.values()) > support_threshold:
            row = y_row
        else:
            raise DegenerateDecoding(f"state {m.state_names[s]}")
        kept = {a: v for a, v in row.items() if v > support_threshold}
        if not kept:
            best = max(row, key=row.get)
            kept = {best: row[best]}
        total = sum(kept.values())
        rule[s] = {a: v / total for a, v in kept.items()}
    return rule


def general_reference(pm, r, c, epsilon):
    """synth_general's policy as a rule, assembled over dicts from end
    components recomputed on every sub-model: a sub-model's rule returns to
    the parent by re-keying its states, and the component rules overwrite
    whole rows of the basic policy wherever it is recurrent."""
    amecs = amecs_of(pm)
    region = almost_sure_region(pm, amecs)
    if not region.all():
        rm, rids = restrict(pm, closed_pairs(pm, region), pm.initial)
        rule = general_reference(rm, r[rm.parent_pair], c[rm.parent_pair],
                                 epsilon)
        return {rids[s]: d for s, d in rule.items()}
    subs = []
    for amec in amecs:
        sub_m, ids = restrict(pm, amec)
        rep = synth_general(sub_m, r[sub_m.parent_pair],
                            c[sub_m.parent_pair], epsilon)
        sub_rule = rule_of(sub_m, rep.policy)
        subs.append(({ids[s]: d for s, d in sub_rule.items()}, rep.value))
    if len(amecs) == 1 and len(ec_parts(pm, amecs[0])[0]) == pm.n_states:
        return subs[0][0]
    rk, _ = build_reward_k(pm, amecs, [v for _, v in subs], r, c)
    rule = rule_of(pm, decode_avg_policy(pm, solve_avg_reward_lp(pm, rk)))
    recurrent = {s for comp in classes_reference(pm, rule) for s in comp}
    for amec, (sub_rule, _) in zip(amecs, subs):
        if ec_parts(pm, amec)[0] & recurrent:
            rule.update(sub_rule)
    return rule


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

def acc_sets(pm):
    """pm's Rabin pairs, each a (B, G) pair of state masks, read back as
    frozensets of state indices."""
    return tuple(tuple(frozenset(np.flatnonzero(x).tolist()) for x in pair)
                 for pair in pm.acc_pairs)


def test_product_matches_dict_bfs(rng):
    several_with_b = 0
    for trial in range(25):
        m = labeled_mdp(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
        d = random_dra(rng, int(rng.integers(1, 4)))
        order, trans, acc = product_reference(m, d)
        pm = build_product(m, d)
        assert list(pm.components) == order
        assert pm.parent is m
        assert pm.state_names == tuple(f"{m.state_names[s]}&q{q}"
                                       for s, q in order)
        assert pm.labels == tuple(m.labels[s] for s, _ in order)
        assert acc_sets(pm) == tuple(acc)
        assert all(x.dtype == bool and x.shape == (pm.n_states,)
                   and not x.flags.writeable
                   for pair in pm.acc_pairs for x in pair)
        several_with_b += len(acc) > 1 and any(b for b, _ in acc)
        assert pm.available == tuple(
            tuple(a for (i, a) in sorted(trans) if i == k)
            for k in range(len(order)))
        assert pm.trans == trans
        assert all(list(pm.trans[sa]) == list(trans[sa]) for sa in trans)
        for j, (i, a) in enumerate(pm.state_action_pairs()):
            assert int(pm.parent_pair[j]) == list(
                m.state_action_pairs()).index((order[i][0], a))
    assert several_with_b > 0


def test_induce_chain_and_utility_vector_match_loops(rng):
    """Few states and many actions, so that three or more terms meet in
    one entry, where the order of the sum shows in its rounding."""
    for trial in range(25):
        m = random_mdp(rng, int(rng.integers(2, 5)), int(rng.integers(3, 6)),
                       p_avail=0.9)
        r, _ = random_utilities(rng, m)
        rule = random_rule(rng, m)
        p = rule_policy(m, rule)
        n = m.n_states
        assert np.array_equal(dense_p(induce_chain(m, p)),
                              chain_reference(m.trans, n, rule))
        assert np.array_equal(utility_vector(m, r, p),
                              utility_reference(utility_dict(m, r), n,
                                                rule))


def test_deterministic_rules_skip_zero_weights(rng):
    """Rules listing an available action with weight zero, and negative
    utilities, still sum like the loop (which skips those terms)."""
    m = random_mdp(rng, 6, 3, p_avail=1.0)
    r = UtilityFn({sa: -1.5 for sa in m.state_action_pairs()},
                  "reward").pair_values(m)
    rule = {s: {a: (1.0 if k == 0 else 0.0) for k, a in enumerate(acts)}
            for s, acts in enumerate(m.available)}
    p = rule_policy(m, rule)
    assert np.array_equal(dense_p(induce_chain(m, p)),
                          chain_reference(m.trans, m.n_states, rule))
    assert np.array_equal(utility_vector(m, r, p),
                          utility_reference(utility_dict(m, r), m.n_states,
                                            rule))


def test_weight_blend_is_the_rule_mix(rng):
    """The exact degree's probes blend weight vectors; chain, utilities and
    efficiency equal those of the mixed rule."""
    for trial in range(10):
        m = random_communicating_mdp(rng, int(rng.integers(3, 7)), 2)
        r, c = random_utilities(rng, m)
        rule = random_rule(rng, m)
        rule_p = {s: {a: 1.0 / len(acts) for a in acts}
                  for s, acts in enumerate(m.available)}
        mu, mu_p = rule_policy(m, rule), uniform_policy(m)
        assert np.array_equal(mu_p, rule_policy(m, rule_p))
        for delta in (1e-6, 0.3, 0.999999):
            w = blend(mu, mu_p, delta)
            mixed = mix_reference(rule, rule_p, delta)
            assert np.array_equal(w, rule_policy(m, mixed))
            assert np.array_equal(dense_p(induce_chain(m, w)),
                                  chain_reference(m.trans, m.n_states, mixed))
            assert np.array_equal(utility_vector(m, c, w),
                                  utility_reference(utility_dict(m, c),
                                                    m.n_states, mixed))
            ca = analyze(m, w)
            assert efficiency(ca, m, r, c, w, m.initial) == \
                efficiency(ca, m, r, c, rule_policy(m, mixed),
                           m.initial)


def test_partial_policy_scope_matches_loops(rng):
    """A policy defined on one end component only: the CLI's scope restricts
    the product to it, and the restricted chain, utilities and sampling
    tables equal loops over the dict restriction."""
    done = 0
    while done < 8:
        base = random_mdp(rng, int(rng.integers(4, 9)), 2)
        mecs = [ec_parts(base, ec) for ec in mec_decompose(base)]
        mecs = [(states, acts) for states, acts in mecs if len(states) > 1]
        if not mecs or len(mecs[0][0]) == base.n_states:
            continue
        states, ec_acts = mecs[0]
        pm = Mdp(base.state_names, base.action_names, min(states),
                 base.trans, acc_pairs=[(set(), states)])
        r, c = random_utilities(rng, pm)
        rule = {s: {a: 1.0 / len(acts) for a in sorted(acts)}
                for s, acts in ec_acts.items()}
        policy = rule_policy(pm, rule)
        sub, local, r_sub, c_sub = cli._policy_scope(pm, policy, r, c)
        trans, ids = restrict_reference(pm.trans, pm.n_states, states)
        assert sub.trans == trans
        rule_local = {ids.index(s): d for s, d in rule.items()}
        n = len(ids)
        assert np.array_equal(dense_p(induce_chain(sub, local)),
                              chain_reference(trans, n, rule_local))
        r_local = {(ids.index(s), a): v
                   for (s, a), v in utility_dict(pm, r).items() if s in ids}
        c_local = {(ids.index(s), a): v
                   for (s, a), v in utility_dict(pm, c).items() if s in ids}
        assert np.array_equal(utility_vector(sub, r_sub, local),
                              utility_reference(r_local, n, rule_local))
        rows = sim._compound_rows(sub, local, r_sub, c_sub)
        ref = rows_reference(trans, n, rule_local, r_local, c_local)
        assert [row[:4] for row in rows] == ref
        done += 1


def test_lp_data_match_loop_assembly(rng, monkeypatch):
    """a_eq, b_eq and c of the ratio program (a csr_array, seen at solve_lp)
    and of the average-reward program (dense, seen at the tableau) equal
    the per-pair assembly."""
    seen = []

    def keeping(solve):
        def kept(problem):
            seen.append(problem)
            return solve(problem)
        return kept

    monkeypatch.setattr(lp, "solve_lp", keeping(lp.solve_lp))
    monkeypatch.setattr(lp, "_solve_tableau", keeping(lp._solve_tableau))
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

        r_tab, c_tab = utility_dict(m, r), utility_dict(m, c)
        seen.clear()
        lp.solve_ratio_lfp(m, r, c)
        a_eq = np.vstack([flow, [c_tab[sa] for sa in pairs]])
        b_eq = np.zeros(n + 1)
        b_eq[n] = 1.0
        (got,) = seen
        assert np.array_equal(got.a_eq.toarray(), a_eq)
        assert np.array_equal(got.b_eq, b_eq)
        assert np.array_equal(got.c, [r_tab[sa] for sa in pairs])

        seen.clear()
        lp.solve_avg_reward_lp(m, r)
        a_eq = np.zeros((2 * n, 2 * k))
        a_eq[:n, :k] = flow
        for j, (s, a) in enumerate(pairs):
            a_eq[n + s, j] += 1.0
        a_eq[n:, k:] = flow
        cobj = np.zeros(2 * k)
        cobj[:k] = [r_tab[sa] for sa in pairs]
        (got,) = seen
        assert np.array_equal(got.a_eq, a_eq)
        assert np.array_equal(got.b_eq, np.concatenate(
            [np.zeros(n), np.full(n, 1.0 / n)]))
        assert np.array_equal(got.c, cobj)


def test_rollout_matches_numpy_indexed_loop(rng):
    for trial in range(10):
        m = random_communicating_mdp(rng, int(rng.integers(2, 7)), 2)
        r, c = random_utilities(rng, m)
        rule = random_rule(rng, m)
        rows = sim._compound_rows(m, rule_policy(m, rule), r, c)
        ref = rows_reference(m.trans, m.n_states, rule, utility_dict(m, r),
                             utility_dict(m, c))
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
        reward, cost = random_utility_tables(rng, m)
        r, c = lift_utilities(pm, reward, cost)
        for j, (i, a) in enumerate(pm.state_action_pairs()):
            base = pm.components[i][0]
            assert r[j] == reward(base, a)
            assert c[j] == cost(base, a)


def pair_table(m, vals):
    return dict(zip(m.state_action_pairs(), vals.tolist()))


def random_weights(rng, m, tiny=1e-10):
    """Nonnegative pair weights summing to one: about a third of them zero
    and a tenth below the support threshold."""
    u = rng.random(m.n_pairs)
    vals = np.where(u < 0.35, 0.0, np.where(u < 0.45, tiny,
                                            rng.random(m.n_pairs)))
    if not vals.any():
        vals[0] = 1.0
    return vals / vals.sum()


def with_self_loops(m):
    """m with one more action, a self-loop at every state."""
    k = m.n_actions
    trans = dict(m.trans)
    trans.update({(s, k): {s: 1.0} for s in range(m.n_states)})
    return Mdp(m.state_names, m.action_names + ("stay",), m.initial, trans)


def test_decode_ratio_policy_matches_dict_decoder(rng):
    """Random occupation weights; in every other instance some of them sit
    on self-loops of a few states, which splits the support into several
    recurrent classes that the decoder steers into one.  In every third
    instance one state's pairs all lie just at or below the support
    threshold while their sum passes it, so that support state keeps its
    first largest pair alone."""
    steered = 0
    done = 0
    while done < 60:
        m = with_self_loops(random_communicating_mdp(
            rng, int(rng.integers(2, 8)), int(rng.integers(1, 3))))
        gamma = random_weights(rng, m)
        if done % 2:
            stay = m.pair_action == m.n_actions - 1
            anchors = rng.random(m.n_states) < 0.4
            anchors[m.initial] |= not anchors.any()  # keep some weight
            gamma[stay] = 0.0
            gamma[anchors[m.pair_state]] = 0.0
            gamma[stay & anchors[m.pair_state]] = rng.random(anchors.sum())
            gamma /= gamma.sum()
        if done % 3 == 2:
            s = int(rng.integers(m.n_states))
            lo, hi = m.state_ptr[s], m.state_ptr[s + 1]
            gamma[lo:hi] = rng.uniform(0.55e-9, 1e-9, size=hi - lo)
        rule, n_classes = decode_ratio_reference(m, pair_table(m, gamma))
        policy, ca = decode_ratio_policy(m, LfpSolution(gamma=gamma,
                                                        value=0.0))
        assert np.array_equal(policy, weights_reference(m, rule))
        assert ca.recurrent_classes == classes_reference(m, rule)
        steered += n_classes > 1
        done += 1
    assert steered >= 5


def test_decode_avg_policy_matches_dict_decoder(rng):
    """x rows, y rows where x vanishes, and rows whose entries all lie at or
    below the threshold (ties included), which keep their first maximum."""
    cases = {"x": 0, "y": 0, "fallback": 0}
    for trial in range(60):
        m = random_mdp(rng, int(rng.integers(2, 8)), int(rng.integers(1, 4)))
        x, y = np.zeros(m.n_pairs), np.zeros(m.n_pairs)
        for s in range(m.n_states):
            lo, hi = m.state_ptr[s], m.state_ptr[s + 1]
            kind = ("x", "y", "fallback")[int(rng.integers(3))]
            cases[kind] += 1
            if kind == "x":
                x[lo:hi] = random_weights(rng, m)[:hi - lo] + \
                    rng.choice([0.0, 0.5]) * rng.random(hi - lo)
                x[lo] += 1e-3
            elif kind == "y":
                x[lo:hi] = rng.choice([0.0, 2e-10], size=hi - lo)
                y[lo:hi] = rng.random(hi - lo) * (rng.random(hi - lo) < 0.7)
                y[lo] += 2e-3
            else:
                x[lo:hi] = rng.choice([0.0, 1e-10], size=hi - lo)
                y[lo:hi] = rng.choice([0.0, 6e-10, 9e-10], size=hi - lo)
                y[lo] = 9e-10
                y[hi - 1] = 9e-10
                if hi - lo == 1:
                    y[lo] = 1e-8
        sol = AvgLpSolution(x=x, y=y, gain=0.0)
        rule = decode_avg_reference(m, pair_table(m, x), pair_table(m, y))
        assert np.array_equal(decode_avg_policy(m, sol),
                              weights_reference(m, rule))
    assert min(cases.values()) >= 20


def test_decode_avg_policy_names_the_first_vanishing_state():
    m = random_mdp(np.random.default_rng(3), 4, 2)
    x = np.full(m.n_pairs, 0.5)
    y = np.zeros(m.n_pairs)
    for s in (2, 3):
        x[m.state_ptr[s]:m.state_ptr[s + 1]] = 0.0
    with pytest.raises(DegenerateDecoding, match="state s2:"):
        decode_avg_policy(m, AvgLpSolution(x=x, y=y, gain=0.0))


def test_attractor_policy_matches_dict_layers(rng):
    """Random targets, with rows inside the target that are kept and rows
    outside it that the layers replace."""
    done = unreachable = 0
    while done < 40:
        m = random_mdp(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
        target = {int(s) for s in rng.choice(m.n_states,
                                             size=int(rng.integers(1, 3)),
                                             replace=False)}
        full = random_rule(rng, m)
        rule = {s: d for s, d in full.items()
                if s in target or rng.random() < 0.5}
        try:
            ref = attractor_reference(m, target, rule)
        except Unreachable:
            with pytest.raises(Unreachable):
                attractor_policy(m, target, rule_policy(m, rule))
            unreachable += 1
            continue
        got = attractor_policy(m, target, rule_policy(m, rule))
        assert np.array_equal(got, weights_reference(m, ref))
        assert not got.flags.writeable
        done += 1
    assert unreachable > 0


def test_synth_general_lift_and_patch_matches_dict_rules(rng):
    """The component policies scattered into the basic policy, and the
    region's policy scattered into the product, against re-keyed rules
    that overwrite whole rows."""
    patched = restricted = 0
    while patched < 6 or restricted < 6:
        if patched < 6:
            inst = random_multichain_product(rng)
            if inst is None:
                continue
            pm, r, c = inst
        else:
            pm = random_product(rng, int(rng.integers(3, 7)), 2)
            r, c = random_utilities(rng, pm)
        try:
            rep = synth_general(pm, r, c, 0.01)
        except Exception:
            continue
        ref = general_reference(pm, r, c, 0.01)
        assert np.array_equal(rep.policy, weights_reference(pm, ref))
        region = almost_sure_region(pm, amecs_of(pm))
        restricted += not region.all()
        patched += rep.avg_gain is not None and region.all()


def test_lift_replaces_whole_rows(rng):
    """A sub-model's policy lifted onto a parent policy: the rows of the
    sub-model's states are replaced whole, including the parent's weight on
    actions the sub-model dropped, as a re-keyed rule overwrites them."""
    dropped = 0
    for trial in range(30):
        m = random_mdp(rng, int(rng.integers(3, 8)), 3)
        base_rule = random_rule(rng, m)
        for ec in mec_decompose(m):
            sub, ids = restrict(m, ec)
            sub_rule = random_rule(rng, sub)
            ref = dict(base_rule)
            ref.update({ids[s]: d for s, d in sub_rule.items()})
            onto = rule_policy(m, base_rule)
            got = synthesis._lift(sub, ids, rule_policy(sub, sub_rule),
                                  onto=onto)
            assert np.array_equal(got, weights_reference(m, ref))
            alone = {ids[s]: d for s, d in sub_rule.items()}
            assert np.array_equal(
                synthesis._lift(sub, ids, rule_policy(sub, sub_rule)),
                weights_reference(m, alone))
            dropped += sub.n_pairs < sum(len(m.available[g]) for g in ids)
    assert dropped > 0


def check_parent_pairs(parent, sub, ids):
    """Sub pair j copies parent pair sub.parent_pair[j]: its state, action
    and successor distribution, mapped through ids."""
    pp = sub.parent_pair
    assert len(pp) == sub.n_pairs
    assert np.all(np.diff(pp) > 0)
    assert np.array_equal(parent.pair_state[pp],
                          np.asarray(ids)[sub.pair_state])
    assert np.array_equal(parent.pair_action[pp], sub.pair_action)
    for j, (s, a) in enumerate(sub.state_action_pairs()):
        assert {ids[t]: p for t, p in sub.trans[(s, a)].items()} == \
            parent.trans[(ids[s], a)]


def test_parent_pair_records_where_sub_pairs_come_from(rng):
    done = 0
    while done < 15:
        m = labeled_mdp(rng, int(rng.integers(3, 8)), int(rng.integers(1, 4)))
        pm = build_product(m, random_dra(rng, 2))
        mecs = mec_decompose(pm)
        size = min(int(rng.integers(1, 4)), pm.n_states)
        region = np.zeros(pm.n_states, dtype=bool)
        region[rng.choice(pm.n_states, size=size, replace=False)] = True
        region[pm.initial] = True
        for ec in mecs:
            region[pm.pair_state[ec]] = True
        sub, ids = restrict(pm, closed_pairs(pm, region))
        check_parent_pairs(pm, sub, ids)
        assert sub.parent is pm
        for ec in mec_decompose(sub):
            sub2, ids2 = restrict(sub, ec)
            check_parent_pairs(sub, sub2, ids2)
            assert sub2.parent is sub
            done += 1
        for ec in mecs:
            sub3, ids3 = restrict(pm, ec)
            check_parent_pairs(pm, sub3, ids3)
            assert sub3.parent is pm
    assert m.parent is None and m.parent_pair is None
