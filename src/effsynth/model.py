"""Core domain types: labeled MDPs, Rabin automata, products, policies, chains.

States and actions are dense integer indices; names are kept only for I/O and
error messages.  All containers are immutable after construction so models can
be shared freely across workers.
"""

from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-9      # validation tolerance for distributions
ALGEBRA_TOL = 1e-12  # recorded in the run manifest; no check reads it


class ModelError(Exception):
    """Base class for model-layer failures."""


class AlphabetMismatch(ModelError):
    """A state label has no transition in the automaton."""


class PolicyMismatch(ModelError):
    """A policy references actions that are not available."""


@dataclass(frozen=True)
class Violation:
    """One broken invariant, as data.  kind is one of 'stochasticity',
    'no_action', 'prob_range', 'bad_initial', 'bad_label'."""
    kind: str
    state: int | None = None
    action: int | None = None
    detail: str = ""


class Mdp:
    """Finite labeled MDP.

    trans maps (state, action) -> {successor: probability}.  An action is
    available at s exactly when (s, a) is a key of trans; rows must sum to 1.
    """

    def __init__(self, state_names, action_names, initial, trans,
                 atomic_props=(), labels=None):
        self.state_names = tuple(state_names)
        self.action_names = tuple(action_names)
        self.initial = int(initial)
        self.trans = {
            (int(s), int(a)): dict(sorted((int(t), float(p)) for t, p in dist.items()))
            for (s, a), dist in trans.items()
        }
        self.atomic_props = tuple(atomic_props)
        if labels is None:
            labels = [frozenset() for _ in self.state_names]
        self.labels = tuple(frozenset(l) for l in labels)
        avail = [[] for _ in self.state_names]
        for (s, a) in self.trans:
            avail[s].append(a)
        self.available = tuple(tuple(sorted(acts)) for acts in avail)

    @property
    def n_states(self):
        return len(self.state_names)

    @property
    def n_actions(self):
        return len(self.action_names)

    def succ(self, s, a):
        return self.trans[(s, a)]

    def state_action_pairs(self):
        for s in range(self.n_states):
            for a in self.available[s]:
                yield s, a

    def edges(self):
        """Digraph edges s -> t induced by positive-probability transitions."""
        out = [set() for _ in range(self.n_states)]
        for (s, a), dist in self.trans.items():
            for t, p in dist.items():
                if p > 0.0:
                    out[s].add(t)
        return [sorted(ts) for ts in out]

    def __repr__(self):
        return (f"Mdp(|S|={self.n_states}, |A|={self.n_actions}, "
                f"initial={self.state_names[self.initial]!r})")


class ProductMdp(Mdp):
    """MDP carrying Rabin acceptance pairs over its own state space.

    components[i] = (base_state, aut_state) when the instance was built by
    build_product; synthetic instances may leave it None.
    """

    def __init__(self, state_names, action_names, initial, trans, acc_pairs,
                 atomic_props=(), labels=None, components=None):
        super().__init__(state_names, action_names, initial, trans,
                         atomic_props, labels)
        self.acc_pairs = tuple((frozenset(b), frozenset(g)) for b, g in acc_pairs)
        self.components = tuple(components) if components is not None else None

    def __repr__(self):
        return (f"ProductMdp(|S|={self.n_states}, pairs={len(self.acc_pairs)})")


class Dra:
    """Deterministic Rabin automaton over the alphabet 2^AP.

    delta maps (aut_state, frozenset-of-props) -> aut_state and must be total.
    pairs is a nonempty list of (B, G) state sets.
    """

    def __init__(self, n_states, initial, ap, delta, pairs):
        self.n_states = int(n_states)
        self.initial = int(initial)
        self.ap = tuple(ap)
        self.delta = {(int(q), frozenset(sym)): int(q2)
                      for (q, sym), q2 in delta.items()}
        self.pairs = tuple((frozenset(b), frozenset(g)) for b, g in pairs)
        if not self.pairs:
            raise ModelError("a Rabin automaton needs at least one pair")
        n_syms = 2 ** len(self.ap)
        if len(self.delta) != self.n_states * n_syms:
            raise ModelError(
                f"delta is not total: {len(self.delta)} entries, "
                f"expected {self.n_states * n_syms}")

    def step(self, q, symbol):
        key = (q, frozenset(symbol))
        if key not in self.delta:
            raise AlphabetMismatch(f"no transition from {q} on {set(symbol)!r}")
        return self.delta[key]

    def accepts_lasso(self, prefix, cycle):
        """Rabin acceptance of the ultimately periodic word prefix.cycle^w."""
        q = self.initial
        for sym in prefix:
            q = self.step(q, sym)
        # run the cycle until the (state, position) pair repeats
        seen = {}
        trace = []
        pos = 0
        while (q, pos) not in seen:
            seen[(q, pos)] = len(trace)
            q = self.step(q, cycle[pos])
            trace.append(q)
            pos = (pos + 1) % len(cycle)
        inf = set(trace[seen[(q, pos)]:])
        return rabin_witness(inf, self.pairs) is not None


class StationaryPolicy:
    """State-indexed distributions over available actions.

    rule maps state -> {action: probability}.  A policy may be partial (defined
    on a state subset) while being assembled; validity against a model is
    checked by validate().
    """

    def __init__(self, rule):
        self.rule = {int(s): dict(sorted((int(a), float(p)) for a, p in d.items()))
                     for s, d in rule.items()}

    def dist(self, s):
        return self.rule[s]

    def validate(self, m: Mdp):
        """Raise PolicyMismatch unless every rule is a distribution over A(s)."""
        for s, d in self.rule.items():
            avail = set(m.available[s])
            for a, p in d.items():
                if a not in avail and p != 0.0:
                    raise PolicyMismatch(
                        f"state {m.state_names[s]}: action {m.action_names[a]} "
                        f"not available")
                if p < -PROB_TOL or p > 1 + PROB_TOL:
                    raise PolicyMismatch(
                        f"state {m.state_names[s]}: probability {p} out of range")
            mass = sum(p for a, p in d.items() if a in avail)
            if abs(mass - 1.0) > PROB_TOL:
                raise PolicyMismatch(
                    f"state {m.state_names[s]}: probabilities sum to {mass}")

    def mix(self, other, delta):
        """(1-delta)*self + delta*other; both policies must cover the same
        states, otherwise the blend would not be a distribution everywhere."""
        if set(self.rule) != set(other.rule):
            raise PolicyMismatch("cannot mix policies over different domains")
        rule = {}
        for s in self.rule:
            d = {}
            for a, p in self.rule[s].items():
                d[a] = d.get(a, 0.0) + (1.0 - delta) * p
            for a, p in other.rule[s].items():
                d[a] = d.get(a, 0.0) + delta * p
            rule[s] = d
        return StationaryPolicy(rule)

    def extended(self, more_rules):
        """Copy with extra state rules merged in (overwrites on collision)."""
        rule = {s: dict(d) for s, d in self.rule.items()}
        for s, d in more_rules.items():
            rule[s] = dict(d)
        return StationaryPolicy(rule)

    @staticmethod
    def deterministic(assignment):
        return StationaryPolicy({s: {a: 1.0} for s, a in assignment.items()})

    @staticmethod
    def uniform(m: Mdp, states=None):
        states = range(m.n_states) if states is None else states
        return StationaryPolicy(
            {s: {a: 1.0 / len(m.available[s]) for a in m.available[s]}
             for s in states})

    def __eq__(self, other):
        return isinstance(other, StationaryPolicy) and self.rule == other.rule

    def __repr__(self):
        return f"StationaryPolicy(on {len(self.rule)} states)"


class UtilityFn:
    """Per state-action utility.  kind is 'reward' or 'cost'; costs must be
    strictly positive."""

    def __init__(self, values, kind):
        if kind not in ("reward", "cost"):
            raise ValueError(f"unknown utility kind {kind!r}")
        self.kind = kind
        self.values = {(int(s), int(a)): float(v) for (s, a), v in values.items()}
        if kind == "cost":
            for (s, a), v in self.values.items():
                if v <= 0.0:
                    raise ModelError(
                        f"cost must be strictly positive, got {v} at "
                        f"state {s}, action {a}")

    def __call__(self, s, a):
        return self.values[(s, a)]

    def check_complete(self, m: Mdp):
        missing = [(s, a) for s, a in m.state_action_pairs()
                   if (s, a) not in self.values]
        if missing:
            s, a = missing[0]
            raise ModelError(
                f"{self.kind} table missing {len(missing)} entries, first: "
                f"({m.state_names[s]}, {m.action_names[a]})")

    def restricted(self, ids):
        """Re-key onto a sub-MDP whose local state i is state ids[i] here."""
        id_of = {g: i for i, g in enumerate(ids)}
        vals = {(id_of[s], a): v for (s, a), v in self.values.items()
                if s in id_of}
        return UtilityFn(vals, self.kind)

    @staticmethod
    def constant(m: Mdp, value, kind):
        return UtilityFn({(s, a): value for s, a in m.state_action_pairs()}, kind)


def lift_utilities(pm: "ProductMdp", reward, cost):
    """Reward and cost of the base model, lifted onto a product built by
    build_product: product state i takes the values of its base state."""
    rv, cv = {}, {}
    for i, (s, q) in enumerate(pm.components):
        for a in pm.available[i]:
            rv[(i, a)] = reward(s, a)
            cv[(i, a)] = cost(s, a)
    return UtilityFn(rv, "reward"), UtilityFn(cv, "cost")


def rabin_witness(states, pairs):
    """Index of the first Rabin pair (B, G) whose condition a set of states
    visited infinitely often meets (it misses B and meets G), else None."""
    for k, (b, g) in enumerate(pairs):
        if b.isdisjoint(states) and not g.isdisjoint(states):
            return k
    return None


@dataclass(frozen=True)
class Mc:
    """Finite Markov chain: row-stochastic matrix P and initial distribution."""
    P: np.ndarray
    pi0: np.ndarray

    @property
    def n_states(self):
        return self.P.shape[0]


def validate_mdp(m: Mdp):
    """All Mdp invariants, reported as data.  Empty list means valid."""
    out = []
    if not (0 <= m.initial < m.n_states):
        out.append(Violation("bad_initial", detail=f"initial={m.initial}"))
    for s in range(m.n_states):
        if not m.available[s]:
            out.append(Violation("no_action", state=s,
                                 detail=f"state {m.state_names[s]} has no action"))
    for (s, a), dist in m.trans.items():
        total = 0.0
        for t, p in dist.items():
            total += p
            if p < -PROB_TOL or p > 1 + PROB_TOL:
                out.append(Violation("prob_range", state=s, action=a,
                                     detail=f"P({t}|{s},{a})={p}"))
        if abs(total - 1.0) > PROB_TOL:
            out.append(Violation("stochasticity", state=s, action=a,
                                 detail=f"row sum {total}"))
    props = set(m.atomic_props)
    for s, lab in enumerate(m.labels):
        if not lab <= props:
            out.append(Violation("bad_label", state=s,
                                 detail=f"unknown props {sorted(lab - props)}"))
    return out


def build_product(m: Mdp, d: Dra) -> ProductMdp:
    """Synchronous product of an MDP with a DRA, pruned to reachable states.

    The automaton moves on the label of the *successor* base state, and the
    initial product state is (s0, delta(q0, label(s0))).  Acceptance pairs are
    lifted to product state sets.
    """
    for s in range(m.n_states):
        if not m.labels[s] <= set(d.ap):
            raise AlphabetMismatch(
                f"state {m.state_names[s]} labeled {set(m.labels[s])!r} "
                f"outside automaton alphabet {d.ap!r}")
    q_init = d.step(d.initial, m.labels[m.initial])
    index = {}
    order = []

    def intern(s, q):
        key = (s, q)
        if key not in index:
            index[key] = len(order)
            order.append(key)
        return index[key]

    intern(m.initial, q_init)
    trans = {}
    i = 0
    while i < len(order):
        s, q = order[i]
        si = index[(s, q)]
        for a in m.available[s]:
            dist = {}
            for t, p in m.succ(s, a).items():
                q2 = d.step(q, m.labels[t])
                dist[intern(t, q2)] = dist.get(intern(t, q2), 0.0) + p
            trans[(si, a)] = dist
        i += 1
    names = [f"{m.state_names[s]}&q{q}" for s, q in order]
    labels = [m.labels[s] for s, q in order]
    acc = []
    for b, g in d.pairs:
        bx = frozenset(i for i, (s, q) in enumerate(order) if q in b)
        gx = frozenset(i for i, (s, q) in enumerate(order) if q in g)
        acc.append((bx, gx))
    return ProductMdp(names, m.action_names, 0, trans, acc,
                      m.atomic_props, labels, components=order)


def induce_chain(m: Mdp, p: StationaryPolicy) -> Mc:
    """Markov chain induced by a stationary policy: P[i,j] = sum_a mu(i,a)P(j|i,a)."""
    p.validate(m)
    n = m.n_states
    P = np.zeros((n, n))
    for s in range(n):
        if s not in p.rule:
            raise PolicyMismatch(f"policy undefined at state {m.state_names[s]}")
        for a, w in p.dist(s).items():
            if w == 0.0:
                continue
            for t, prob in m.succ(s, a).items():
                P[s, t] += w * prob
    pi0 = np.zeros(n)
    pi0[m.initial] = 1.0
    return Mc(P=P, pi0=pi0)
