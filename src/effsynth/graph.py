"""Qualitative structure of MDPs: end components, accepting decompositions,
almost-sure regions, and target-seeking action assignment.

Every algorithm reads the model's flat state-action arrays (see model.Mdp):
action sets are boolean masks over the pairs, and each round of a fixpoint
is a few array operations over all successor entries at once.  An end
component is what a policy is, a read-only array over its model's pairs:
the boolean mask of its kept pairs, whose states are those owning a kept
pair.  A region is a boolean state mask.  A support digraph is only ever
the CSR arrays (indptr, indices) that model.support_csr builds, and
strongly_connected_components labels its nodes on them: an iterative
Tarjan in Python up to chain.DENSE_MAX nodes, so that small runs load no
scipy, and scipy's compiled kernel above it, with the same labels.  The
SCC refinement in mec_decompose makes each component strongly connected,
and no walk witness is stored.  amec_filter takes the MECs and MAECs, and
almost_sure_region the AMECs, that the caller has already computed, so a
synthesis decomposes the product once; a sub-model cut by restrict keeps
the Rabin pairs re-keyed and gathers its share of those masks through its
parent_pair.

All algorithms are deterministic: ties break on the lowest state index, then
the lowest action index.
"""

import numpy as np

from .model import Mdp, gather_pairs, support_csr


class Unreachable(Exception):
    """The peeling loop stalled before every state was assigned."""


def _state_mask(m, states):
    mask = np.zeros(m.n_states, dtype=bool)
    mask[list(states)] = True
    return mask


def _entering(m, target):
    """Pairs with a positive-probability successor inside the boolean state
    mask `target`."""
    out = np.zeros(m.n_pairs, dtype=bool)
    out[m.succ_pair[(m.succ_prob > 0.0) & target[m.succ_state]]] = True
    return out


def _with_pair(m, pairs):
    """States owning at least one pair of the boolean pair mask."""
    out = np.zeros(m.n_states, dtype=bool)
    out[m.pair_state[pairs]] = True
    return out


def _successors(m, keep):
    """The support digraph of the kept pairs (a boolean mask) as CSR arrays
    (indptr, indices): s -> t iff a kept pair of s can move to t."""
    e = keep[m.succ_pair] & (m.succ_prob > 0.0)
    return support_csr(m.n_states, m.succ_src[e], m.succ_state[e])[:2]


def strongly_connected_components(indptr, indices, roots=None):
    """The strongly connected components of the digraph whose node v has
    the successors indices[indptr[v]:indptr[v + 1]].

    Returns each node's component label: the nodes reached from roots
    (default: every node) are labelled 0, 1, ... in the order of their
    components' lowest nodes, and the nodes no root reaches read -1.  A
    graph of at most chain.DENSE_MAX nodes is labelled by _tarjan, in
    Python, so that small runs load no scipy; a larger one by _pearce, in
    compiled code.  Both give the same labels once renumbered here.
    """
    from .chain import DENSE_MAX  # read at call time: chain imports graph
    label = (_tarjan if len(indptr) - 1 <= DENSE_MAX else _pearce)(
        indptr, indices, roots)
    # renumber the components in the order of their lowest nodes
    seen = label >= 0
    _, first, inv = np.unique(label[seen], return_index=True,
                              return_inverse=True)
    label[seen] = np.argsort(np.argsort(first))[inv]
    return label


def _tarjan(indptr, indices, roots):
    """Tarjan's algorithm (SIAM J. Comput. 1972), iterative: a component
    label per node reached from roots (None: every node), -1 elsewhere.
    A visited node is on Tarjan's stack exactly while it has no label."""
    n = len(indptr) - 1
    ptr, succ = indptr.tolist(), indices.tolist()
    nxt = ptr[:-1]          # each node's next edge to scan
    index, low, label = [-1] * n, [0] * n, [-1] * n
    stack, path = [], []
    count = n_comp = 0
    for root in range(n) if roots is None else np.asarray(roots).tolist():
        if index[root] < 0:
            path.append(root)
        while path:
            v = path[-1]
            if index[v] < 0:
                index[v] = low[v] = count
                count += 1
                stack.append(v)
            for k in range(nxt[v], ptr[v + 1]):
                w = succ[k]
                if index[w] < 0:
                    nxt[v] = k + 1
                    path.append(w)
                    break
                if label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
                if low[v] == index[v]:
                    while label[v] < 0:
                        label[stack.pop()] = n_comp
                    n_comp += 1
    return np.array(label, dtype=np.int64)


def _pearce(indptr, indices, roots):
    """_tarjan's labels up to numbering, from scipy's compiled components
    (Pearce, "An improved algorithm for finding the strongly connected
    components of a directed graph", 2005).  A component holding a node
    reached from roots is reached whole, so the other nodes are masked to
    -1: those that one breadth-first search misses from an extra node whose
    edges lead to every root."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import breadth_first_order, \
        connected_components
    n = len(indptr) - 1
    graph = csr_array((np.ones(len(indices)), indices, indptr), shape=(n, n))
    label = connected_components(graph, connection="strong")[1].astype(
        np.int64)
    if roots is not None:
        roots = np.asarray(roots, dtype=indices.dtype)
        graph = csr_array(
            (np.ones(len(indices) + len(roots)),
             np.concatenate((indices, roots)),
             np.append(indptr, indptr[-1] + len(roots))), shape=(n + 1, n + 1))
        reached = np.zeros(n + 1, dtype=bool)
        reached[breadth_first_order(graph, n,
                                    return_predecessors=False)] = True
        label[~reached[:n]] = -1
    return label


def mec_decompose(m: Mdp, states=None):
    """All maximal end components, by iterative SCC refinement.

    Starting from the boolean state mask states (default: the whole MDP) and
    the actions that stay inside it, repeatedly drop state-action pairs whose
    successors leave the pair's SCC, and states left without actions, until
    stable.  The surviving SCCs are the MECs, returned as pair masks sorted
    by lowest state: each is closed, and the digraph induced by its kept
    actions is strongly connected.
    """
    keep = closed_pairs(m, np.ones(m.n_states, dtype=bool) if states is None
                        else states)
    pos = m.succ_prob > 0.0
    while True:
        alive = _with_pair(m, keep)
        if not alive.any():
            return []
        # a state left without pairs has no edge out: its own component
        comp = strongly_connected_components(*_successors(m, keep),
                                             roots=np.flatnonzero(alive))
        cut = pos & (comp[m.succ_state] != comp[m.succ_src])
        dropped = keep.copy()
        dropped[m.succ_pair[cut]] = False
        if (dropped == keep).all():
            break
        keep = dropped

    # stable, no kept pair leaves its component, so only alive states are
    # labelled, in the order of their lowest states: one MEC per label
    mecs = np.where(keep, comp[m.pair_state], -1) == \
        np.arange(comp.max() + 1)[:, None]
    mecs.flags.writeable = False
    return list(mecs)


def within(inner, outer):
    """Every pair of the mask inner is a pair of the mask outer."""
    return not (inner & ~outer).any()


def maec_decompose(pm: Mdp):
    """All maximal accepting end components.

    Per Rabin pair (B, G): decompose the MDP restricted to states outside B
    into MECs and keep those meeting G; then discard candidates contained in
    another candidate (all of their pairs kept by it).
    """
    candidates = []
    for b, g in pm.acc_pairs:
        meets_g = _state_mask(pm, g)[pm.pair_state]
        for ec in mec_decompose(pm, ~_state_mask(pm, b)):
            if (ec & meets_g).any():
                candidates.append(ec)
    out = []
    for i, c in enumerate(candidates):
        dominated = any(
            (j != i and within(c, candidates[j]) and
             (not within(candidates[j], c) or j < i))
            for j in range(len(candidates)))
        if not dominated:
            out.append(c)
    # pairs ascend by state: a mask's first kept pair has its lowest state
    out.sort(key=lambda ec: pm.pair_state[np.argmax(ec)])
    return out


def amec_filter(mecs, maecs):
    """The MECs (from mec_decompose) containing at least one of the MAECs
    (from maec_decompose), with full MEC action sets."""
    return [mec for mec in mecs if any(within(ma, mec) for ma in maecs)]


def almost_sure_region(pm: Mdp, amecs):
    """The boolean mask of product states from which some policy reaches
    the states of amecs (the result of amec_filter) w.p.1.

    Classic double fixpoint: shrink the candidate set U until every state in U
    can reach the target through actions whose successors never leave U.
    """
    covered = np.zeros(pm.n_pairs, dtype=bool)
    for amec in amecs:
        covered |= amec
    target = _with_pair(pm, covered)
    u = np.ones(pm.n_states, dtype=bool)
    while True:
        stays = closed_pairs(pm, u)
        r = target & u
        while True:
            grown = r | _with_pair(pm, stays & _entering(pm, r))
            if (grown == r).all():
                break
            r = grown
        if (r == u).all():
            return u
        u = r


def attractor_policy(m: Mdp, target, w) -> np.ndarray:
    """Extend policy w from target to all states so target is reached w.p.1.

    Breadth-first layers: every state outside the grown region that has an
    action with positive one-step probability into it takes its lowest such
    action, and the whole layer joins the region at once.  Each fixed action
    thus moves at least one layer closer to the target, which keeps expected
    hitting times short.  A state so assigned loses whatever row w gave it.
    """
    grown = _state_mask(m, target)
    out = np.array(w, dtype=float)
    out[~grown[m.pair_state]] = 0.0
    while not grown.all():
        pairs = np.flatnonzero(_entering(m, grown) & ~grown[m.pair_state])
        if not pairs.size:
            raise Unreachable(f"states {np.flatnonzero(~grown).tolist()} "
                              f"cannot reach the target")
        # pairs ascend by (state, action): each state's first is its lowest
        layer, first = np.unique(m.pair_state[pairs], return_index=True)
        out[pairs[first]] = 1.0
        grown[layer] = True
    out.flags.writeable = False
    return out


def restrict(m: Mdp, pairs, initial=None):
    """The sub-model with the pairs of the boolean mask pairs, on the states
    owning one of them; returns (model, ids), where ids[i] is the index in m
    of local state i.

    The kept pairs must stay inside those states.  The sub-model's parent
    is m and its parent_pair lists the kept pairs, so a policy on it lifts
    to m by a scatter and one on m scopes to it by a gather.  Acceptance
    pairs are intersected and re-keyed.  The local initial state maps the
    given global one, defaulting to the lowest kept state (fine for callers
    that never depend on it).
    """
    ids = np.flatnonzero(_with_pair(m, pairs)).tolist()
    local = np.full(m.n_states, -1, dtype=np.int64)
    local[ids] = np.arange(len(ids))
    kept = np.flatnonzero(pairs)
    pair_action, succ_ptr, entries = gather_pairs(m, kept)
    state_ptr = np.concatenate(([0], np.cumsum(np.bincount(
        local[m.pair_state[kept]], minlength=len(ids)))))
    succ_state = local[m.succ_state[entries]]
    if (succ_state < 0).any():
        raise ValueError("the sub-MDP is not closed")
    init = int(local[initial]) if initial is not None else 0
    if init < 0:
        raise KeyError(initial)
    loc = local.tolist()
    acc = [(frozenset(loc[s] for s in b if loc[s] >= 0),
            frozenset(loc[s] for s in g if loc[s] >= 0))
           for b, g in m.acc_pairs]
    sub_m = Mdp.from_arrays(
        [m.state_names[g] for g in ids], m.action_names, init, state_ptr,
        pair_action, succ_ptr, succ_state, m.succ_prob[entries],
        atomic_props=m.atomic_props, labels=[m.labels[g] for g in ids],
        acc_pairs=acc, parent=m, parent_pair=kept)
    return sub_m, ids


def closed_pairs(m: Mdp, region):
    """The pairs of the boolean state mask region's states whose
    positive-probability successors all stay inside region, as a boolean
    mask over m's pairs."""
    return region[m.pair_state] & ~_entering(m, ~region)


def is_communicating(m: Mdp):
    """Every state can reach every other under some policy: the full induced
    digraph is one strongly connected component."""
    return not strongly_connected_components(
        *_successors(m, np.ones(m.n_pairs, dtype=bool))).any()
