"""Qualitative structure of MDPs: end components, accepting decompositions,
almost-sure regions, and target-seeking action assignment.

End components are plain SubMdp values: the SCC refinement in mec_decompose
makes them strongly connected, and no walk witness is stored.
almost_sure_region takes the AMECs its caller has already computed, so each
synthesis level decomposes the product once.

All algorithms are deterministic: ties break on the lowest state index, then
the lowest action index.
"""

from dataclasses import dataclass

from .model import Mdp, ProductMdp, StationaryPolicy


class Unreachable(Exception):
    """The peeling loop stalled before every state was assigned."""


@dataclass(frozen=True)
class SubMdp:
    """A closed sub-MDP: state set plus a nonempty action restriction per state.

    Closure: every successor under a kept action stays inside state_set.
    """
    state_set: frozenset
    act: tuple  # tuple of (state, frozenset-of-actions), sorted by state

    @staticmethod
    def make(state_set, act_map):
        return SubMdp(frozenset(state_set),
                      tuple(sorted((s, frozenset(acts))
                                   for s, acts in act_map.items())))

    def act_map(self):
        return dict(self.act)

    def is_closed(self, m: Mdp):
        for s, acts in self.act:
            if not acts:
                return False
            for a in acts:
                if any(t not in self.state_set and p > 0.0
                       for t, p in m.succ(s, a).items()):
                    return False
        return True

    def contains(self, other):
        if not other.state_set <= self.state_set:
            return False
        mine = self.act_map()
        return all(acts <= mine.get(s, frozenset()) for s, acts in other.act)


def _successors(m, act_map):
    """Induced digraph adjacency restricted to an action map."""
    adj = {}
    for s, acts in act_map.items():
        nxt = set()
        for a in acts:
            for t, p in m.succ(s, a).items():
                if p > 0.0:
                    nxt.add(t)
        adj[s] = sorted(nxt)
    return adj


def strongly_connected_components(nodes, adj):
    """Tarjan's algorithm, iterative.  Returns a list of sorted node lists."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def mec_decompose(m: Mdp, state_set=None):
    """All maximal end components, by iterative SCC refinement.

    Starting from state_set (default: the whole MDP) and the actions that
    stay inside it, repeatedly drop state-action pairs whose successors leave
    the pair's SCC, and states left without actions, until stable.  The
    surviving SCCs are the MECs, returned as SubMdp values sorted by lowest
    state: each is closed, and the digraph induced by its kept actions is
    strongly connected.
    """
    state_set = set(range(m.n_states) if state_set is None else state_set)
    act_map = _closed_actions(m, state_set)
    for s in [s for s in state_set if not act_map[s]]:
        state_set.discard(s)
        del act_map[s]

    while True:
        if not state_set:
            return []
        sccs = strongly_connected_components(state_set, _successors(m, act_map))
        comp_of = {}
        for i, comp in enumerate(sccs):
            for s in comp:
                comp_of[s] = i
        changed = False
        for s in sorted(state_set):
            keep = set()
            for a in act_map[s]:
                ok = all(t in state_set and comp_of[t] == comp_of[s]
                         for t, p in m.succ(s, a).items() if p > 0.0)
                if ok:
                    keep.add(a)
                else:
                    changed = True
            if keep:
                act_map[s] = keep
            else:
                state_set.discard(s)
                del act_map[s]
                changed = True
        if not changed:
            break

    mecs = [SubMdp.make(comp, {s: act_map[s] for s in comp}) for comp in sccs]
    mecs.sort(key=lambda ec: min(ec.state_set))
    return mecs


def maec_decompose(pm: ProductMdp):
    """All maximal accepting end components.

    Per Rabin pair (B, G): decompose the MDP restricted to states outside B
    into MECs and keep those meeting G; then discard candidates contained in
    another candidate (states and actions).
    """
    candidates = []
    for b, g in pm.acc_pairs:
        keep = set(range(pm.n_states)) - set(b)
        for ec in mec_decompose(pm, state_set=keep):
            if ec.state_set & g:
                candidates.append(ec)
    out = []
    for i, c in enumerate(candidates):
        dominated = any(
            (j != i and candidates[j].contains(c) and
             (not c.contains(candidates[j]) or j < i))
            for j in range(len(candidates)))
        if not dominated:
            out.append(c)
    out.sort(key=lambda ec: min(ec.state_set))
    return out


def amec_filter(pm: ProductMdp):
    """The MECs of pm containing at least one MAEC, with full MEC action sets."""
    maecs = maec_decompose(pm)
    out = []
    for mec in mec_decompose(pm):
        if any(mec.contains(ma) for ma in maecs):
            out.append(mec)
    return out


def almost_sure_region(pm: ProductMdp, amecs):
    """Product states from which some policy reaches the union of amecs
    (the result of amec_filter(pm)) w.p.1.

    Classic double fixpoint: shrink the candidate set U until every state in U
    can reach the target through actions whose successors never leave U.
    """
    target = set()
    for amec in amecs:
        target |= amec.state_set
    u = set(range(pm.n_states))
    while True:
        r = target & u
        frontier = True
        while frontier:
            frontier = False
            for s in sorted(u - r):
                for a in pm.available[s]:
                    succ = [t for t, p in pm.succ(s, a).items() if p > 0.0]
                    if all(t in u for t in succ) and any(t in r for t in succ):
                        r.add(s)
                        frontier = True
                        break
        if r == u:
            return u
        u = r


def attractor_policy(m: Mdp, target, p: StationaryPolicy) -> StationaryPolicy:
    """Extend p from target to all states so target is reached w.p.1.

    Breadth-first layers: every state outside the grown region that has an
    action with positive one-step probability into it takes its lowest such
    action, and the whole layer joins the region at once.  Each fixed action
    thus moves at least one layer closer to the target, which keeps expected
    hitting times short.
    """
    grown = set(target)
    todo = set(range(m.n_states)) - grown
    extra = {}
    while todo:
        layer = {}
        for s in sorted(todo):
            for a in m.available[s]:
                if any(t in grown and prob > 0.0
                       for t, prob in m.succ(s, a).items()):
                    layer[s] = a
                    break
        if not layer:
            raise Unreachable(f"states {sorted(todo)} cannot reach the target")
        for s, a in layer.items():
            extra[s] = {a: 1.0}
        todo.difference_update(layer)
        grown.update(layer)
    return p.extended(extra)


def restrict(m: Mdp, sub: SubMdp, initial=None):
    """Extract a sub-MDP as a standalone model.

    Returns (model, global_ids) where global_ids[i] is the original index of
    local state i.  Acceptance pairs of products are intersected and re-keyed.
    The local initial state maps the given global one, defaulting to the
    lowest index in the subset (fine for callers that never depend on it).
    """
    ids = sorted(sub.state_set)
    local = {g: i for i, g in enumerate(ids)}
    acts = sub.act_map()
    trans = {}
    for g in ids:
        for a in sorted(acts[g]):
            trans[(local[g], a)] = {local[t]: p for t, p in m.succ(g, a).items()}
    names = [m.state_names[g] for g in ids]
    labels = [m.labels[g] for g in ids]
    init = local[initial] if initial is not None else 0
    if isinstance(m, ProductMdp):
        acc = [(frozenset(local[s] for s in b if s in local),
                frozenset(local[s] for s in g if s in local))
               for b, g in m.acc_pairs]
        comps = ([m.components[g] for g in ids]
                 if m.components is not None else None)
        sub_m = ProductMdp(names, m.action_names, init, trans, acc,
                           m.atomic_props, labels, components=comps)
    else:
        sub_m = Mdp(names, m.action_names, init, trans, m.atomic_props,
                    labels)
    return sub_m, ids


def _closed_actions(m: Mdp, region):
    """Per state of region, the actions whose successors all stay inside."""
    return {s: {a for a in m.available[s]
                if all(t in region for t, p in m.succ(s, a).items() if p > 0.0)}
            for s in region}


def restrict_closed(m: Mdp, region):
    """restrict() onto region, keeping the actions whose successors all stay
    inside it; the initial state, which must lie in region, carries over."""
    return restrict(m, SubMdp.make(region, _closed_actions(m, region)),
                    initial=m.initial)


def is_communicating(m: Mdp):
    """Every state can reach every other under some policy: the full induced
    digraph is one strongly connected component."""
    adj = {s: ts for s, ts in enumerate(m.edges())}
    return len(strongly_connected_components(range(m.n_states), adj)) == 1
