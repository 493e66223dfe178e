"""Independent reference solver for the benchmark's output checks.

It rebuilds the product, its end components and almost-sure region with its
own graph code, solves each accepting component's reward-to-cost program by
its own Charnes-Cooper assembly handed to HiGHS (scipy's dual simplex), and
evaluates policies analytically from their policy files.  It shares no
algorithm with the program under test, only the in-memory instance data the
generators produce.

Run as a script to rewrite the committed reference file:

    python3 perfbench/oracle.py
"""

import json
import os
import sys
from collections import namedtuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
SUPPORT_EPS = 1e-12


class Product:
    """Product of an instance's MDP and automaton, in the program's state
    order: breadth-first from the initial state, actions and successors in
    index order, the automaton moving on the successor's label."""

    def __init__(self, inst):
        m, d = inst.mdp, inst.dra
        index = {}
        order = []

        def intern(s, q):
            if (s, q) not in index:
                index[(s, q)] = len(order)
                order.append((s, q))
            return index[(s, q)]

        intern(m.initial, d.delta[(d.initial, m.labels[m.initial])])
        self.trans = {}
        i = 0
        while i < len(order):
            s, q = order[i]
            for a in m.available[s]:
                dist = {}
                for t, p in sorted(m.trans[(s, a)].items()):
                    j = intern(t, d.delta[(q, m.labels[t])])
                    dist[j] = dist.get(j, 0.0) + p
                self.trans[(i, a)] = dist
            i += 1
        self.n = len(order)
        self.names = [f"{m.state_names[s]}&q{q}" for s, q in order]
        self.action_index = {name: a for a, name in enumerate(m.action_names)}
        self.pairs = [({i for i, (s, q) in enumerate(order) if q in b},
                       {i for i, (s, q) in enumerate(order) if q in g})
                      for b, g in d.pairs]
        self.reward = {(i, a): inst.reward(order[i][0], a)
                       for (i, a) in self.trans}
        self.cost = {(i, a): inst.cost(order[i][0], a)
                     for (i, a) in self.trans}
        self.acts = {i: set() for i in range(self.n)}
        for (i, a) in self.trans:
            self.acts[i].add(a)


def _sccs(states, edges):
    """Strongly connected components of the digraph on `states`."""
    states = sorted(states)
    pos = {s: k for k, s in enumerate(states)}
    rows, cols = [], []
    for s, t in edges:
        rows.append(pos[s])
        cols.append(pos[t])
    g = csr_matrix((np.ones(len(rows)), (rows, cols)),
                   shape=(len(states), len(states)))
    _, lab = connected_components(g, directed=True, connection="strong")
    comps = {}
    for s in states:
        comps.setdefault(int(lab[pos[s]]), set()).add(s)
    return list(comps.values())


def end_components(prod, states):
    """Maximal end components inside `states`, each as (states, actions)."""
    states = set(states)
    acts = {s: {a for a in prod.acts[s]
                if set(prod.trans[(s, a)]) <= states} for s in states}
    while True:
        states = {s for s in states if acts[s]}
        comps = _sccs(states, [(s, t) for s in states for a in acts[s]
                               for t in prod.trans[(s, a)]])
        comp_of = {s: k for k, comp in enumerate(comps) for s in comp}
        changed = False
        for s in states:
            keep = {a for a in acts[s]
                    if all(comp_of.get(t) == comp_of[s]
                           for t in prod.trans[(s, a)])}
            changed |= keep != acts[s]
            acts[s] = keep
        if not changed and all(acts[s] for s in states):
            return [(comp, {s: acts[s] for s in comp}) for comp in comps]


def ratio_value(prod, states, acts):
    """Optimal long-run reward-to-cost ratio inside a communicating end
    component: max r.y subject to flow balance and c.y = 1, y >= 0."""
    cols = [(s, a) for s in sorted(states) for a in sorted(acts[s])]
    row = {s: k for k, s in enumerate(sorted(states))}
    a_eq = np.zeros((len(row) + 1, len(cols)))
    for j, (s, a) in enumerate(cols):
        a_eq[row[s], j] += 1.0
        for t, p in prod.trans[(s, a)].items():
            a_eq[row[t], j] -= p
        a_eq[-1, j] = prod.cost[(s, a)]
    b_eq = np.zeros(len(row) + 1)
    b_eq[-1] = 1.0
    obj = np.array([-prod.reward[sa] for sa in cols])
    res = linprog(obj, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


def almost_sure_region(prod, target):
    """States with a policy that reaches `target` with probability one."""
    u = set(range(prod.n))
    while True:
        r = target & u
        grew = True
        while grew:
            grew = False
            for s in sorted(u - r):
                for a in prod.acts[s]:
                    succ = set(prod.trans[(s, a)])
                    if succ <= u and succ & r:
                        r.add(s)
                        grew = True
                        break
        if r == u:
            return u
        u = r


def component_values(inst):
    """The optimal value of every accepting maximal end component, ordered by
    lowest product state, or None when the initial state cannot satisfy the
    task with probability one."""
    prod = Product(inst)
    mecs = end_components(prod, range(prod.n))
    best = {}
    for b, g in prod.pairs:
        for states, acts in end_components(prod, set(range(prod.n)) - b):
            if not states & g:
                continue
            k = next(k for k, (ms, _) in enumerate(mecs) if states <= ms)
            best[k] = max(best.get(k, -np.inf),
                          ratio_value(prod, states, acts))
    if not best:
        return None
    target = set().union(*(mecs[k][0] for k in best))
    if 0 not in almost_sure_region(prod, target):
        return None
    order = sorted(best, key=lambda k: min(mecs[k][0]))
    return [best[k] for k in order]


def parse_policy(prod, text):
    """Policy file -> {state: {action: prob}} over product indices."""
    state = {name: i for i, name in enumerate(prod.names)}
    rule = {}
    for line in text.splitlines():
        tok = line.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] != "rule" or len(tok) != 4:
            raise ValueError(f"bad policy line {line!r}")
        rule.setdefault(state[tok[1]], {})[prod.action_index[tok[2]]] = \
            float(tok[3])
    return rule


Evaluation = namedtuple("Evaluation", "efficiency accepted class_ratios")


def evaluate_policy(prod, rule):
    """Analytic efficiency from the initial state, whether every recurrent
    class reached from it witnesses some Rabin pair (with total absorption
    probability one), and the reward-to-cost ratio of each such class."""
    reach = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        if s not in rule:
            raise ValueError(f"policy undefined at reachable state "
                             f"{prod.names[s]}")
        for a, w in rule[s].items():
            for t, p in prod.trans[(s, a)].items():
                if w * p > SUPPORT_EPS and t not in reach:
                    reach.add(t)
                    frontier.append(t)
    states = sorted(reach)
    pos = {s: k for k, s in enumerate(states)}
    n = len(states)
    P = np.zeros((n, n))
    vr = np.zeros(n)
    vc = np.zeros(n)
    for s in states:
        for a, w in rule[s].items():
            vr[pos[s]] += w * prod.reward[(s, a)]
            vc[pos[s]] += w * prod.cost[(s, a)]
            for t, p in prod.trans[(s, a)].items():
                P[pos[s], pos[t]] += w * p
    edges = [(states[i], states[j])
             for i, j in zip(*np.nonzero(P > SUPPORT_EPS))]
    comps = _sccs(states, edges)
    comp_of = {s: k for k, comp in enumerate(comps) for s in comp}
    leaky = {comp_of[s] for s, t in edges if comp_of[s] != comp_of[t]}
    bottom = [sorted(comp) for k, comp in enumerate(comps)
              if k not in leaky]
    recurrent = {s for comp in bottom for s in comp}
    transient = [pos[s] for s in states if s not in recurrent]
    eff = 0.0
    mass = 0.0
    accepted = True
    ratios = []
    for comp in bottom:
        idx = [pos[s] for s in comp]
        a = P[np.ix_(idx, idx)].T - np.eye(len(idx))
        a[-1, :] = 1.0
        rhs = np.zeros(len(idx))
        rhs[-1] = 1.0
        pi = np.linalg.solve(a, rhs)
        if pos[0] in idx:
            w = 1.0
        else:
            tt = np.eye(len(transient)) - P[np.ix_(transient, transient)]
            into = P[np.ix_(transient, idx)].sum(axis=1)
            w = float(np.linalg.solve(tt, into)[transient.index(pos[0])])
        ratio = float(pi @ vr[idx]) / float(pi @ vc[idx])
        ratios.append(ratio)
        mass += w
        eff += w * ratio
        cs = set(comp)
        accepted &= any(not (cs & b) and bool(cs & g) for b, g in prod.pairs)
    return Evaluation(eff, accepted and abs(mass - 1.0) <= 1e-9,
                      tuple(ratios))


def build_reference():
    """Component values of every instance of every workload."""
    from instances import workload_instances  # script use: same directory
    ref = {}
    for workload in ("delivery_ladder", "multichain_batch"):
        for inst in workload_instances(workload):
            if inst.name not in ref:
                ref[inst.name] = component_values(inst)
    return ref


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    with open(REFERENCE_FILE, "w") as f:
        json.dump(build_reference(), f, indent=1, sort_keys=True)
        f.write("\n")
