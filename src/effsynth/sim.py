"""Seeded Monte-Carlo execution of stationary policies.

Each rollout draws from its own counter-based stream keyed by (seed, rollout
index), so results are reproducible and independent of evaluation order.
Aggregation uses fsum in rollout order, keeping reruns bitwise identical.
Every rollout is drawn once: the ratios, the visit frequencies and the
integer per-state visit counts (which callers total over the G and B sets of
the Rabin pairs) all come from that one pass.  The per-state sampling tables
are read off the model's pair arrays, and the rollout loop works on plain
Python lists and floats: its draws are the generator's doubles as Python
floats, so each step's bisection and every total are bitwise those of a
numpy-indexed loop.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .model import Mdp, PolicyMismatch, policy_domain


@dataclass(frozen=True)
class RolloutConfig:
    steps: int
    rollouts: int
    seed: int

    def __post_init__(self):
        if self.steps < 1 or self.rollouts < 1:
            raise ValueError("steps and rollouts must be positive")


@dataclass(frozen=True)
class RolloutStats:
    mean_ratio: float
    stderr: float
    visit_freq: tuple   # per-state time-average, averaged over rollouts
    label_freq: dict    # prop -> long-run frequency
    ratios: tuple       # per-rollout pathwise ratios
    visit_counts: tuple  # per-state visits, summed over rollouts


def _compound_rows(m: Mdp, p, r, c):
    """Per-state sampling tables for the chain of (policy, transition) draws,
    read off the pair arrays: each positive (action, successor) draw of a
    state in pair-then-successor order, its cumulative weight (summed one
    draw after another, from zero at each state), its successor, and the
    reward and cost it earns, plus the index of the state's last draw.

    Partial policies are fine as long as their domain is closed: undefined
    states get no table, and reaching one raises.
    """
    defined = policy_domain(m, p).tolist()
    w = p[m.succ_pair]
    draw = np.flatnonzero((w > 0.0) & (m.succ_prob > 0.0))
    mass = (w[draw] * m.succ_prob[draw]).tolist()
    nxt = m.succ_state[draw].tolist()
    rinc = r[m.succ_pair[draw]].tolist()
    cinc = c[m.succ_pair[draw]].tolist()
    bounds = np.searchsorted(m.succ_src[draw],
                             np.arange(m.n_states + 1)).tolist()
    rows = []
    for s in range(m.n_states):
        if not defined[s]:
            rows.append(None)
            continue
        lo, hi = bounds[s], bounds[s + 1]
        rows.append((list(accumulate(mass[lo:hi])), nxt[lo:hi],
                     rinc[lo:hi], cinc[lo:hi], hi - lo - 1))
    return rows


# doubles drawn at a time: a rollout's memory does not grow with its steps,
# and Philox hands out the same doubles in chunks as in one draw
CHUNK = 1 << 16


def _stream(seed, rollout):
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1),
                                                      rollout]))


def _one_rollout(rows, initial, steps, gen):
    counts = [0] * len(rows)
    total_r = 0.0
    total_c = 0.0
    s = initial
    for done in range(0, steps, CHUNK):
        # Python floats: the same doubles as the generator's array, compared
        # by bisect without making a numpy scalar per step
        for x in gen.random(min(CHUNK, steps - done)).tolist():
            counts[s] += 1
            row = rows[s]
            if row is None:
                raise PolicyMismatch(f"rollout reached undefined state {s}")
            cum, nxt, rinc, cinc, last = row
            # a draw above the row's total (rounding) takes the last outcome
            j = bisect_left(cum, x, 0, last)
            total_r += rinc[j]
            total_c += cinc[j]
            s = nxt[j]
    return counts, total_r, total_c


def simulate(m: Mdp, p, r, c, cfg: RolloutConfig) -> RolloutStats:
    """Pathwise reward-over-cost ratios at the horizon, plus visit
    statistics; r and c are value vectors over m's pairs."""
    rows = _compound_rows(m, p, r, c)
    ratios = []
    freq_acc = [[] for _ in range(m.n_states)]
    totals = [0] * m.n_states
    for i in range(cfg.rollouts):
        counts, tr, tc = _one_rollout(rows, m.initial, cfg.steps,
                                      _stream(cfg.seed, i))
        ratios.append(tr / tc)
        for s in range(m.n_states):
            freq_acc[s].append(counts[s] / cfg.steps)
            totals[s] += counts[s]
    mean = math.fsum(ratios) / cfg.rollouts
    if cfg.rollouts > 1:
        var = math.fsum((x - mean) ** 2 for x in ratios) / (cfg.rollouts - 1)
        stderr = math.sqrt(var / cfg.rollouts)
    else:
        stderr = 0.0
    visit = tuple(math.fsum(f) / cfg.rollouts for f in freq_acc)
    label = {prop: math.fsum(visit[s] for s in range(m.n_states)
                             if prop in m.labels[s])
             for prop in m.atomic_props}
    return RolloutStats(mean_ratio=mean, stderr=stderr, visit_freq=visit,
                        label_freq=label, ratios=tuple(ratios),
                        visit_counts=tuple(totals))
