"""Input generators for the benchmark workloads.

Every instance is a labeled MDP, a Rabin automaton and a utility table,
rendered to the program's text formats.  Generation is deterministic: the
same arguments give byte-identical files.
"""

import os

import numpy as np

from effsynth import casestudies, parsers
from effsynth.model import Mdp, UtilityFn

LADDER = (9, 11, 13)
MULTICHAIN_BATCH_SEED = 20240318
MULTICHAIN_COUNT = 12

BLOCKS = 4
BLOCK_SIZE = 20
FEEDERS = 20


class Instance:
    """One generated problem: its file texts plus the in-memory objects the
    oracle reads (the oracle never parses the files)."""

    def __init__(self, name, mdp, dra, reward, cost):
        self.name = name
        self.mdp = mdp
        self.dra = dra
        self.reward = reward
        self.cost = cost
        self.files = {
            "model.mdp": parsers.write_mdp(mdp),
            "task.hoa": parsers.write_dra(dra),
            "utilities.txt": parsers.write_utilities(mdp, reward, cost),
        }

    def write(self, root):
        """Write the three files under root/<name>/ and return that path."""
        d = os.path.join(root, self.name)
        os.makedirs(d, exist_ok=True)
        for fname, text in self.files.items():
            with open(os.path.join(d, fname), "w") as f:
                f.write(text)
        return d


def grid_params(n):
    """Case-1 parameters for an n x n grid.  Grid 9 is the paper's default;
    larger grids move the destinations and the charging cell to the scaled
    corners and charge 1.0 per move beyond the default cost table's reach."""
    if n == 9:
        return casestudies.Case1Params()
    cost = dict(casestudies.COST_BY_DISTANCE)
    cost.update({d: 1.0 for d in range(max(cost) + 1, 2 * n)})
    return casestudies.Case1Params(size=n,
                                   destinations={(n, 1): 2.0, (1, n): 1.0},
                                   charging=(n - 1, 1), cost_table=cost)


def delivery_instance(n):
    """Case-1 delivery grid of size n with task 2 (d and c infinitely often,
    never b)."""
    m, _, task2, reward, cost = casestudies.gen_case1(grid_params(n))
    return Instance(f"grid{n}", m, task2, reward, cost)


def _split(rng):
    """A two-way probability split with three decimals, so the written
    rows sum to one exactly."""
    p = int(rng.integers(100, 901)) / 1000.0
    return p, round(1.0 - p, 3)


def multichain_instance(index, batch_seed=MULTICHAIN_BATCH_SEED):
    """Random labeled multichain MDP number `index` of the batch.

    Four closed blocks of twenty states each carry a ring action and a random
    two-successor action that stay inside the block; twenty transient
    feeders, each with two actions, lead forward into later feeders and the
    blocks.  Every block has two d-states and one block also has a b-state.
    """
    rng = np.random.default_rng([batch_seed, index])
    names = []
    trans = {}
    labels = []
    for k in range(BLOCKS):
        base = k * BLOCK_SIZE
        for i in range(BLOCK_SIZE):
            s = base + i
            names.append(f"b{k}s{i}")
            trans[(s, 0)] = {base + (i + 1) % BLOCK_SIZE: 1.0}
            t, u = rng.choice(BLOCK_SIZE, size=2, replace=False)
            p, q = _split(rng)
            trans[(s, 1)] = {base + int(t): p, base + int(u): q}
        labs = [set() for _ in range(BLOCK_SIZE)]
        for i in rng.choice(BLOCK_SIZE, size=2, replace=False):
            labs[int(i)].add("d")
        labels.extend(labs)
    bad_block = int(rng.integers(BLOCKS))
    free = [i for i in range(BLOCK_SIZE)
            if not labels[bad_block * BLOCK_SIZE + i]]
    labels[bad_block * BLOCK_SIZE + int(rng.choice(free))].add("b")
    n_block = BLOCKS * BLOCK_SIZE
    for j in range(FEEDERS):
        s = n_block + j
        names.append(f"f{j}")
        labels.append(set())
        later = list(range(s + 1, n_block + FEEDERS))
        for a in (0, 1):
            t = int(rng.integers(n_block))
            u = int(rng.choice(later)) if later and rng.random() < 0.5 \
                else int(rng.integers(n_block))
            if t == u:
                trans[(s, a)] = {t: 1.0}
            else:
                p, q = _split(rng)
                trans[(s, a)] = {t: p, u: q}
    m = Mdp(names, ("ring", "jump"), n_block, trans, ("d", "b", "c"), labels)
    reward = {}
    cost = {}
    for s, a in m.state_action_pairs():
        reward[(s, a)] = int(rng.integers(0, 1001)) / 1000.0
        cost[(s, a)] = int(rng.integers(500, 1501)) / 1000.0
    return Instance(f"mc{index:02d}", m, casestudies.dra_recurrence_avoid(),
                    UtilityFn(reward, "reward"), UtilityFn(cost, "cost"))


def workload_instances(workload):
    """The instance set a workload runs, in its canonical order."""
    if workload == "delivery_ladder":
        return [delivery_instance(n) for n in LADDER]
    if workload == "multichain_batch":
        return [multichain_instance(i) for i in range(MULTICHAIN_COUNT)]
    raise ValueError(f"unknown workload {workload!r}")
