"""Seeded Monte-Carlo execution of stationary policies.

Each rollout draws from its own counter-based stream keyed by (seed, rollout
index), so results are reproducible and independent of evaluation order.
Aggregation uses fsum in rollout order, keeping reruns bitwise identical.
Every rollout is drawn once: the ratios, the visit frequencies and the
integer per-state visit counts (which callers total over the G and B sets of
the Rabin pairs) all come from that one pass.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import Mdp, PolicyMismatch, StationaryPolicy, UtilityFn


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


def _compound_rows(m: Mdp, p: StationaryPolicy, r=None, c=None):
    """Per-state sampling tables for the chain of (policy, transition) draws.

    Partial policies are fine as long as their domain is closed: undefined
    states get no table, and reaching one raises.
    """
    rows = []
    for s in range(m.n_states):
        if s not in p.rule:
            rows.append(None)
            continue
        cum = []
        nxt = []
        rinc = []
        cinc = []
        total = 0.0
        for a, w in p.dist(s).items():
            if w <= 0.0:
                continue
            for t, prob in m.succ(s, a).items():
                if prob <= 0.0:
                    continue
                total += w * prob
                cum.append(total)
                nxt.append(t)
                rinc.append(r(s, a) if r is not None else 0.0)
                cinc.append(c(s, a) if c is not None else 0.0)
        rows.append((cum, nxt, rinc, cinc))
    return rows


def _stream(seed, rollout):
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1),
                                                      rollout]))


def _one_rollout(rows, initial, steps, gen):
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


def simulate(m: Mdp, p: StationaryPolicy, r: UtilityFn, c: UtilityFn,
             cfg: RolloutConfig) -> RolloutStats:
    """Pathwise reward-over-cost ratios at the horizon, plus visit statistics."""
    p.validate(m)
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
