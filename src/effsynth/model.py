"""Core domain types: labeled MDPs, Rabin automata, products, policies, chains.

States and actions are dense integer indices; names are kept only for I/O and
error messages.  Transitions are stored in one flat state-action (CSR) form
that every layer reads: the available (state, action) pairs are numbered in
(state, action) order, each with a slice of successor entries.  csr_arrays
builds that form from transition entries.  A stationary policy is a
read-only weight vector over those pairs (policy_from_entries reads one
from (state, action, probability) entries, as a policy file lists them);
its domain is the set of states whose row has positive mass.  A utility is
likewise a value vector over a model's pairs (UtilityFn is the table it is
read from at the input edge).  A Rabin automaton (Dra) keeps its edges,
each a guard over the propositions, and is read only on the symbols asked
for (Dra.transitions): build_product asks for the labels its model's
states carry, and determinism and completeness are checked on those.  The
dict forms (the Mdp constructor's trans and index-set acc_pairs, Mdp.trans,
Mdp.available, UtilityFn(dict) and the Dra.delta view) are adapters over
the same builders and arrays: no module of the package calls them; they
serve in-memory callers such as the tests.  A product (an Mdp with Rabin
pairs, each a (B, G) pair of boolean state masks) and a sub-model each take
their share of any such vector or mask by one gather through parent_pair or
their states' indices in their parent.
Inducing a chain or a per-state utility is one scatter over the entries,
summed in the same order as a loop over the pairs would sum; an induced
chain (Mc) keeps its matrix in CSR form, with an entry exactly on each
edge of its support graph.  All containers are immutable after
construction so models can be shared freely across workers.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_TOL = 1e-9  # validation tolerance of a row sum and of an entry above 1


class InputError(Exception):
    """The program rejects its input: the CLI exits 2."""


class SolverError(Exception):
    """A solve broke down or its result failed its check: the CLI exits 4."""


class ModelError(InputError):
    """Base class for model-layer failures."""


class AlphabetMismatch(ModelError):
    """A state label has no transition in the automaton."""


class PolicyMismatch(ModelError):
    """A policy references actions that are not available."""


class NondeterminismError(ModelError):
    """Two edges of an automaton state admit a symbol that is read."""

    def __init__(self, msg, line=None):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line else msg)


class IncompletenessError(ModelError):
    """No edge of an automaton state admits a symbol that is read."""


@dataclass(frozen=True)
class Violation:
    """One broken invariant, as data.  kind is one of 'stochasticity',
    'no_action', 'prob_range', 'bad_initial', 'bad_label'."""
    kind: str
    state: int | None = None
    action: int | None = None
    detail: str = ""


def csr_arrays(n_states, src, act, dst, prob):
    """The flat arrays (state_ptr, pair_action, succ_ptr, succ_state,
    succ_prob) of the transition entries (src[i], act[i]) -> dst[i] with
    probability prob[i], given in any order, each (src, act, dst) once:
    pairs ascend by (state, action) and successors ascend within a pair."""
    order = np.lexsort((dst, act, src))
    src, act = src[order], act[order]
    start = np.flatnonzero(np.diff(src, prepend=-1) | np.diff(act, prepend=-1))
    return (np.searchsorted(src[start], np.arange(n_states + 1)), act[start],
            np.append(start, len(src)), dst[order], prob[order])


def _find_pairs(keys, width, states, actions):
    """Positions in keys, the ascending codes state * width + action of
    some pairs, of the pairs (states[i], actions[i]), by binary search, and
    a mask of those found (elsewhere the position is meaningless)."""
    actions = np.asarray(actions, dtype=np.int64)
    want = np.asarray(states, dtype=np.int64) * width + actions
    idx = np.searchsorted(keys, want)
    found = (idx < len(keys)) & (actions >= 0) & (actions < width)
    found[found] = keys[idx[found]] == want[found]
    return idx, found


def _ranges(starts, lens):
    """The concatenation of arange(starts[i], starts[i] + lens[i])."""
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(
        ends[-1] if len(ends) else 0)


class Mdp:
    """Finite labeled MDP in flat state-action form.

    The pairs (s, a) with a available at s are numbered in (state, action)
    order: state s owns pairs state_ptr[s]:state_ptr[s + 1], pair j takes
    action pair_action[j], and its successor entries k in
    succ_ptr[j]:succ_ptr[j + 1] lead to succ_state[k], ascending, with
    probability succ_prob[k].  Rows must sum to 1.

    The constructor takes trans, a map (state, action) -> {successor:
    probability}, and acc_pairs as (B, G) sets of states, and converts
    both once; trans reads the arrays back as such a map.  The package
    itself builds every model from arrays (from_arrays).  acc_pairs holds
    the Rabin pairs (B, G) as read-only boolean state masks, () on a plain
    model; components[i] is a product state's (base state, automaton
    state), None on other models.  A product (build_product) and a
    sub-model (graph.restrict) record the model they copy as parent, and
    in parent_pair[j] the parent pair that their pair j copies; other
    models leave both None.
    """

    def __init__(self, state_names, action_names, initial, trans,
                 atomic_props=(), labels=None, *, acc_pairs=()):
        dists = list(trans.values())
        lens = [len(d) for d in dists]
        if 0 in lens:
            s, a = list(trans)[lens.index(0)]
            raise ModelError(f"pair ({s}, {a}) has an empty distribution")
        n, k = sum(lens), len(state_names)
        self._set(state_names, action_names, initial, *csr_arrays(
            k, np.repeat(np.fromiter((s for s, _ in trans), np.int64), lens),
            np.repeat(np.fromiter((a for _, a in trans), np.int64), lens),
            np.fromiter((t for d in dists for t in d), np.int64, n),
            np.fromiter((p for d in dists for p in d.values()), float, n)),
            atomic_props, labels, [tuple(np.isin(np.arange(k), list(x))
                                         for x in pair) for pair in acc_pairs])

    @classmethod
    def from_arrays(cls, *args, **kw):
        """The model of the given arrays and attributes, as _set takes them."""
        m = cls.__new__(cls)
        m._set(*args, **kw)
        return m

    def _set(self, state_names, action_names, initial, state_ptr,
             pair_action, succ_ptr, succ_state, succ_prob, atomic_props=(),
             labels=None, acc_pairs=(), components=None, parent=None,
             parent_pair=None):
        self.state_names = tuple(state_names)
        self.action_names = tuple(action_names)
        self.initial = int(initial)
        self.atomic_props = tuple(atomic_props)
        if labels is None:
            labels = [frozenset() for _ in self.state_names]
        self.labels = tuple(frozenset(l) for l in labels)
        self.acc_pairs = tuple((b, g) for b, g in acc_pairs)
        for b, g in self.acc_pairs:
            b.flags.writeable = g.flags.writeable = False
        self.components = None if components is None else tuple(components)
        self.parent, self.parent_pair = parent, parent_pair
        self.state_ptr = np.asarray(state_ptr, dtype=np.int64)
        self.pair_action = np.asarray(pair_action, dtype=np.int64)
        self.succ_ptr = np.asarray(succ_ptr, dtype=np.int64)
        self.succ_state = np.asarray(succ_state, dtype=np.int64)
        self.succ_prob = np.asarray(succ_prob, dtype=float)

    @property
    def n_states(self):
        return len(self.state_names)

    @property
    def n_actions(self):
        return len(self.action_names)

    @property
    def n_pairs(self):
        return len(self.pair_action)

    @cached_property
    def pair_state(self):
        """The state of each pair."""
        return np.repeat(np.arange(self.n_states), np.diff(self.state_ptr))

    @cached_property
    def succ_pair(self):
        """The pair of each successor entry."""
        return np.repeat(np.arange(self.n_pairs), np.diff(self.succ_ptr))

    @cached_property
    def succ_src(self):
        """The state each successor entry leaves."""
        return self.pair_state[self.succ_pair]

    @cached_property
    def available(self):
        acts = self.pair_action.tolist()
        ptr = self.state_ptr.tolist()
        return tuple(tuple(acts[ptr[s]:ptr[s + 1]])
                     for s in range(self.n_states))

    def pair_index(self, states, actions):
        """Pair numbers of the pairs (states[i], actions[i]), and a mask of
        those that exist (elsewhere the number is meaningless)."""
        return _find_pairs(self._pair_key, self.n_actions, states, actions)

    @cached_property
    def _pair_key(self):
        """state * n_actions + action per pair: ascending, so pairs are
        found by binary search."""
        return self.pair_state * self.n_actions + self.pair_action

    def state_action_pairs(self):
        return zip(self.pair_state.tolist(), self.pair_action.tolist())

    @cached_property
    def trans(self):
        """{(state, action): {successor: probability}} in pair order."""
        succ, prob = self.succ_state.tolist(), self.succ_prob.tolist()
        ptr = self.succ_ptr.tolist()
        return {sa: dict(zip(succ[ptr[j]:ptr[j + 1]], prob[ptr[j]:ptr[j + 1]]))
                for j, sa in enumerate(self.state_action_pairs())}

    def __repr__(self):
        return (f"Mdp(|S|={self.n_states}, |A|={self.n_actions}, "
                f"initial={self.state_names[self.initial]!r})")


class Dra:
    """Deterministic Rabin automaton over the alphabet 2^AP, kept as its
    edges.

    edges[q] lists state q's edges as (guard, destination, line) triples,
    line being where the edge was read (None for one built in memory).  A
    guard is a proposition index (an int; one at or beyond len(ap) never
    holds), "t", "f", ("!", g), or an n-ary ("&", g1, g2, ...) or
    ("|", g1, g2, ...).  pairs is a nonempty list of (B, G) state sets.
    Determinism and completeness are checked on the symbols read, where
    transitions reads them.
    """

    def __init__(self, n_states, initial, ap, edges, pairs):
        self.n_states = int(n_states)
        self.initial = int(initial)
        self.ap = tuple(ap)
        self.edges = tuple(tuple(row) for row in edges)
        self.pairs = tuple((frozenset(b), frozenset(g)) for b, g in pairs)
        if not self.pairs:
            raise ModelError("a Rabin automaton needs at least one pair")
        if not 0 <= self.initial < self.n_states:
            raise ModelError(f"initial state {self.initial} is not one of "
                             f"the {self.n_states} states")

    @classmethod
    def from_table(cls, n_states, initial, ap, table, pairs):
        """The automaton that enters table[q][b] from q on symbol b, the
        symbols numbered as alphabet(ap) numbers them: one edge per symbol,
        whose guard names every proposition, as write_dra prints it."""
        table = np.asarray(table, dtype=np.int64)
        shape = (int(n_states), 2 ** len(ap))
        if table.shape != shape:
            raise ModelError(f"table has shape {table.shape}, "
                             f"expected {shape}")
        if table.size and (table.min() < 0 or table.max() >= n_states):
            raise ModelError(f"table enters a state outside 0..{n_states - 1}")
        neg = [("!", i) for i in range(len(ap))]
        guards = []
        for b in range(shape[1]):
            lits = [i if b >> i & 1 else neg[i] for i in range(len(ap))]
            guards.append(("&", *lits) if len(lits) > 1 else
                          lits[0] if lits else "t")
        return cls(n_states, initial, ap,
                   [[(g, dest, None) for g, dest in zip(guards, row)]
                    for row in table.tolist()], pairs)

    def transitions(self, labels):
        """The (n_states, len(labels)) array of the states entered from
        each state on each of labels, sets of propositions of ap.  Each
        distinct guard is evaluated once, on the truth vectors of the
        propositions over the distinct labels in symbol-number order (as
        alphabet numbers them): the columns of a labels x AP matrix.

        Raises NondeterminismError (at the line of the second edge) or
        IncompletenessError at the first state, and its first label in
        that order, that does not match exactly one edge.
        """
        index = {p: i for i, p in enumerate(self.ap)}
        code = {lab: sum(1 << index[p] for p in lab) for lab in set(labels)}
        syms = sorted(code, key=code.get)
        truth = {i: np.array([p in lab for lab in syms], dtype=bool)
                 for i, p in enumerate(self.ap)}
        truth["t"], truth["f"] = (np.full(len(syms), v) for v in (True, False))
        out = np.empty((self.n_states, len(syms)), dtype=np.int64)
        for q, row in enumerate(self.edges):
            hits = np.array([_truth(g, truth) for g, _, _ in row],
                            dtype=bool).reshape(len(row), len(syms))
            count = hits.sum(axis=0)
            bad = np.flatnonzero(count != 1)
            if bad.size:
                j = bad[0]
                sym = {p for p in self.ap if p in syms[j]} or "{}"
                if count[j]:
                    raise NondeterminismError(
                        f"state {q}: symbol {sym} matches {count[j]} edges",
                        row[np.flatnonzero(hits[:, j])[1]][2])
                raise IncompletenessError(f"state {q}: no edge for symbol "
                                          f"{sym}")
            out[q] = [row[e][1] for e in hits.argmax(axis=0).tolist()]
        col = {lab: j for j, lab in enumerate(syms)}
        return out[:, [col[lab] for lab in labels]]

    def step(self, q, props):
        """The state entered from q on the symbol that holds props."""
        return int(self.transitions([frozenset(props)])[q, 0])

    @cached_property
    def delta(self):
        """The transitions as a {(q, frozenset of props): q'} dict, q-major
        and then by symbol number; perfbench/oracle.py reads it."""
        syms = alphabet(self.ap)
        return {(q, sym): dest
                for q, row in enumerate(self.transitions(syms).tolist())
                for sym, dest in zip(syms, row)}


def _truth(g, memo):
    """Where guard g holds, as a boolean vector over the labels: memo holds
    the vectors of t, f and each proposition index, and gains each guard
    evaluated, so that each is evaluated once; any other index never
    holds."""
    if g not in memo:
        if not isinstance(g, tuple):
            return memo["f"]
        args = [_truth(a, memo) for a in g[1:]]
        memo[g] = ~args[0] if g[0] == "!" else (
            np.logical_and if g[0] == "&" else np.logical_or).reduce(args)
    return memo[g]


def alphabet(ap):
    """The symbols of 2^AP in their numbering: symbol b holds ap[i] iff
    bit i of b is set."""
    return [frozenset(p for i, p in enumerate(ap) if b >> i & 1)
            for b in range(2 ** len(ap))]


def policy_from_entries(m: Mdp, states, actions, probs) -> np.ndarray:
    """The policy that puts probs[i] on action actions[i] at states[i], as a
    read-only weight vector over m's pairs; pairs of unlisted states weigh
    zero.  Each (state, action) is listed at most once, in any order.

    Raises PolicyMismatch unless every listed state's entries are a
    distribution over its available actions.  States are checked in the
    order they are first listed and each state's entries by action: the
    first entry that puts mass on an unavailable action, is negative or
    exceeds 1 + PROB_TOL, else a mass off 1 by more than PROB_TOL, summed
    in action order.
    """
    idx, found = m.pair_index(states, actions)
    _, first, group = np.unique(states, return_index=True,
                                return_inverse=True)
    order = np.lexsort((actions, first[group]))
    bad = (~found & (probs != 0.0)) | (probs < 0.0) | (probs > 1 + PROB_TOL)
    kept = order[found[order]]
    mass = np.bincount(group[kept], weights=probs[kept],
                       minlength=len(first))
    bad_state = np.bincount(group, weights=bad, minlength=len(first)) > 0
    bad_state |= np.abs(mass - 1.0) > PROB_TOL
    if bad_state.any():
        g = min(np.flatnonzero(bad_state), key=lambda g: first[g])
        name = m.state_names[states[first[g]]]
        for i in order[group[order] == g].tolist():
            p = float(probs[i])
            if not found[i] and p != 0.0:
                raise PolicyMismatch(
                    f"state {name}: action {m.action_names[actions[i]]} "
                    f"not available")
            if bad[i]:
                raise PolicyMismatch(
                    f"state {name}: probability {p} out of range")
        total = float(mass[g]) if found[group == g].any() else 0
        raise PolicyMismatch(f"state {name}: probabilities sum to {total}")
    keep = found & (probs != 0.0)
    w = np.zeros(m.n_pairs)
    w[idx[keep]] = probs[keep]
    w.flags.writeable = False
    return w


def uniform_policy(m: Mdp) -> np.ndarray:
    """Every available action equally likely, at every state."""
    w = 1.0 / np.diff(m.state_ptr)[m.pair_state]
    w.flags.writeable = False
    return w


def blend(w, w_prime, delta):
    """The policy (1 - delta) w + delta w_prime."""
    return (1.0 - delta) * w + delta * w_prime


def policy_domain(m: Mdp, w) -> np.ndarray:
    """The states where policy w is defined (its row has positive mass), as
    a boolean mask."""
    return np.bincount(m.pair_state, weights=w, minlength=m.n_states) > 0.0


class UtilityFn:
    """Per state-action utility table, the input-edge form of a reward or
    cost.  kind is 'reward' or 'cost'; costs must be strictly positive.

    Built from a {(state, action): value} dict, or by from_entries from
    (state, action, value) arrays as parse_utilities and the case studies
    build them, and stored as those arrays sorted by (state, action), tied
    to no model.  Inside the
    program a utility is the vector pair_values(m) over the pairs of a model
    the table covers; a sub-model gathers it through its parent_pair.
    """

    def __init__(self, values, kind):
        n = len(values)
        self._set(np.fromiter((s for s, _ in values), np.int64, n),
                  np.fromiter((a for _, a in values), np.int64, n),
                  np.fromiter(values.values(), float, n), kind)

    @classmethod
    def from_entries(cls, states, actions, vals, kind):
        """The table of the entries (states[i], actions[i]) -> vals[i], each
        pair listed once, in any order."""
        fn = cls.__new__(cls)
        fn._set(states, actions, vals, kind)
        return fn

    def _set(self, states, actions, vals, kind):
        if kind not in ("reward", "cost"):
            raise ValueError(f"unknown utility kind {kind!r}")
        if kind == "cost":
            bad = np.flatnonzero(vals <= 0.0)
            if bad.size:
                j = bad[0]
                raise ModelError(
                    f"cost must be strictly positive, got {float(vals[j])} "
                    f"at state {int(states[j])}, action {int(actions[j])}")
        order = np.lexsort((actions, states))
        self.kind = kind
        self.states, self.actions, self.vals = \
            states[order], actions[order], vals[order]
        for arr in (self.states, self.actions, self.vals):
            arr.flags.writeable = False
        self._width = int(actions.max()) + 1 if actions.size else 1
        self._keys = self.states * self._width + self.actions  # ascending

    def __call__(self, s, a):
        (i,), (ok,) = _find_pairs(self._keys, self._width, [s], [a])
        if not ok:
            raise KeyError((s, a))
        return float(self.vals[i])

    def pair_values(self, m: Mdp) -> np.ndarray:
        """The utility as a vector over m's pairs; raises ModelError when it
        lacks one of them."""
        idx, found = _find_pairs(self._keys, self._width, m.pair_state,
                                 m.pair_action)
        if not found.all():
            missing = np.flatnonzero(~found)
            j = missing[0]
            s, a = int(m.pair_state[j]), int(m.pair_action[j])
            raise ModelError(
                f"{self.kind} table missing {len(missing)} entries, first: "
                f"({m.state_names[s]}, {m.action_names[a]})")
        return self.vals[idx]


def lift_utilities(pm: Mdp, reward, cost):
    """Reward and cost tables of the base model as value vectors over the
    pairs of a product built by build_product: each product pair takes the
    value of the parent pair it copies."""
    out = tuple(u.pair_values(pm.parent)[pm.parent_pair]
                for u in (reward, cost))
    for v in out:
        v.flags.writeable = False
    return out


def rabin_witness(states, pairs):
    """Index of the first Rabin pair (B, G) of state masks whose condition
    the listed states, visited infinitely often, meet (they miss B and meet
    G), else None."""
    idx = list(states)
    return next((k for k, (b, g) in enumerate(pairs)
                 if not b[idx].any() and g[idx].any()), None)


@dataclass(frozen=True)
class Mc:
    """Finite Markov chain: its row-stochastic matrix P in CSR form and its
    initial distribution pi0.  Row s of P holds P[s, indices[k]] = data[k]
    for k in indptr[s]:indptr[s + 1], columns ascending and each at most
    once; no n x n array is kept.  A block of a chain (a recurrent class,
    renumbered) is an Mc too, with pi0 None."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    pi0: np.ndarray | None

    @property
    def n_states(self):
        return len(self.indptr) - 1

    @cached_property
    def row(self):
        """The row of each entry."""
        return np.repeat(np.arange(self.n_states), np.diff(self.indptr))

    def matvec(self, x):
        """P @ x, each row summed in entry order."""
        return np.bincount(self.row, weights=self.data * x[self.indices],
                           minlength=self.n_states)


def validate_mdp(m: Mdp):
    """All Mdp invariants, reported as data.  Empty list means valid.

    Violations come in a fixed order: the initial state; states without an
    action; pair by pair in (state, action) order, each entry out of range
    (negative, or above 1 + PROB_TOL) in entry order, then the row sum
    (added up in entry order) off 1 by more than PROB_TOL; labels."""
    out = []
    if not (0 <= m.initial < m.n_states):
        out.append(Violation("bad_initial", detail=f"initial={m.initial}"))
    for s in np.flatnonzero(np.diff(m.state_ptr) == 0).tolist():
        out.append(Violation("no_action", state=s,
                             detail=f"state {m.state_names[s]} has no action"))
    total = np.bincount(m.succ_pair, weights=m.succ_prob,
                        minlength=m.n_pairs)
    bad_entry = (m.succ_prob < 0.0) | (m.succ_prob > 1 + PROB_TOL)
    bad_row = np.abs(total - 1.0) > PROB_TOL
    bad_pair = bad_row | (np.bincount(m.succ_pair, weights=bad_entry,
                                      minlength=m.n_pairs) > 0)
    for j in np.flatnonzero(bad_pair).tolist():
        s, a = int(m.pair_state[j]), int(m.pair_action[j])
        for k in range(m.succ_ptr[j], m.succ_ptr[j + 1]):
            if bad_entry[k]:
                out.append(Violation(
                    "prob_range", state=s, action=a,
                    detail=f"P({int(m.succ_state[k])}|{s},{a})="
                           f"{float(m.succ_prob[k])}"))
        if bad_row[j]:
            out.append(Violation("stochasticity", state=s, action=a,
                                 detail=f"row sum {float(total[j])}"))
    props = set(m.atomic_props)
    for s, lab in enumerate(m.labels):
        if not lab <= props:
            out.append(Violation("bad_label", state=s,
                                 detail=f"unknown props {sorted(lab - props)}"))
    return out


def gather_pairs(m: Mdp, pairs):
    """The rows of the listed pairs of m, in that order: their actions,
    their successor pointers, and the indices in m of their successor
    entries."""
    lens = np.diff(m.succ_ptr)[pairs]
    entries = _ranges(m.succ_ptr[pairs], lens)
    return (m.pair_action[pairs], np.concatenate(([0], np.cumsum(lens))),
            entries)


def build_product(m: Mdp, d: Dra) -> Mdp:
    """Synchronous product of an MDP with a DRA, pruned to reachable states.

    The automaton moves on the label of the *successor* base state, and the
    initial product state is (s0, delta(q0, label(s0))).  Product states are
    numbered in breadth-first order over the base pairs' successors, and
    components[i] is product state i's (base state, automaton state).  The
    product's parent is m, and product pair j copies the base pair
    parent_pair[j], with its successors renumbered and sorted.
    """
    for s in range(m.n_states):
        if not m.labels[s] <= set(d.ap):
            raise AlphabetMismatch(
                f"state {m.state_names[s]} labeled {set(m.labels[s])!r} "
                f"outside automaton alphabet {d.ap!r}")
    # step[q, t]: the automaton state after entering base state t from q
    step = d.transitions(m.labels)
    rows = step.tolist()
    succ, ptr, sptr = (m.succ_state.tolist(), m.succ_ptr.tolist(),
                       m.state_ptr.tolist())
    # each base state's successors, in first-seen pair-then-successor order
    targets = [list(dict.fromkeys(succ[ptr[sptr[s]]:ptr[sptr[s + 1]]]))
               for s in range(m.n_states)]
    start = (m.initial, rows[d.initial][m.initial])
    index = {start: 0}
    order = [start]
    i = 0
    while i < len(order):
        s, q = order[i]
        row = rows[q]
        for t in targets[s]:
            key = (t, row[t])
            if key not in index:
                index[key] = len(order)
                order.append(key)
        i += 1

    base_s = np.array([s for s, _ in order], dtype=np.int64)
    base_q = np.array([q for _, q in order], dtype=np.int64)
    counts = np.diff(m.state_ptr)[base_s]
    parent_pair = _ranges(m.state_ptr[base_s], counts)
    pair_action, succ_ptr, entries = gather_pairs(m, parent_pair)
    number = np.full((m.n_states, d.n_states), -1, dtype=np.int64)
    number[base_s, base_q] = np.arange(len(order))
    t = m.succ_state[entries]
    q_from = np.repeat(np.repeat(base_q, counts), np.diff(succ_ptr))
    succ_state = number[t, step[q_from, t]]
    perm = np.lexsort((succ_state, np.repeat(np.arange(len(parent_pair)),
                                             np.diff(succ_ptr))))
    names = [f"{m.state_names[s]}&q{q}" for s, q in order]
    labels = [m.labels[s] for s, q in order]
    acc = [tuple(np.isin(base_q, list(x)) for x in pair) for pair in d.pairs]
    return Mdp.from_arrays(
        names, m.action_names, 0, np.concatenate(([0], np.cumsum(counts))),
        pair_action, succ_ptr, succ_state[perm], m.succ_prob[entries][perm],
        atomic_props=m.atomic_props, labels=labels, acc_pairs=acc,
        components=order, parent=m, parent_pair=parent_pair)


def support_csr(n, src, dst):
    """CSR arrays (indptr, indices) of the digraph on 0..n-1 with the edges
    src[k] -> dst[k], each node's distinct targets ascending, and slot[k],
    edge k's position in indices."""
    code, slot = np.unique(src * n + dst, return_inverse=True)
    return np.searchsorted(code, np.arange(n + 1) * n), code % n, slot


def induce_chain(m: Mdp, w) -> Mc:
    """Markov chain induced by a stationary policy, a weight vector over m's
    pairs defined at every state: P[i,j] = sum_a mu(i,a)P(j|i,a).  An entry
    is stored exactly where some pair of i with positive weight has an entry
    at j with positive probability (the support graph's edges, however small
    the products), and one bincount over those successor entries adds each
    entry's terms in action order, as a loop would.
    """
    n = m.n_states
    undefined = np.flatnonzero(~policy_domain(m, w))
    if undefined.size:
        raise PolicyMismatch(
            f"policy undefined at state {m.state_names[undefined[0]]}")
    keep = (w[m.succ_pair] > 0.0) & (m.succ_prob > 0.0)
    indptr, indices, slot = support_csr(n, m.succ_src[keep],
                                        m.succ_state[keep])
    data = np.bincount(slot, weights=w[m.succ_pair[keep]] * m.succ_prob[keep],
                       minlength=len(indices))
    pi0 = np.zeros(n)
    pi0[m.initial] = 1.0
    return Mc(indptr=indptr, indices=indices, data=data, pi0=pi0)
