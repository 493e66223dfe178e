"""Grid-world benchmark generators.

Case 1 is a 9x9 delivery workspace: a robot roams the grid, picks up items
that appear probabilistically, and delivers them to one of two destination
corners while avoiding obstacle cells; a charging variant additionally forces
recurring visits to a charging cell.  Case 2 is a 7x7 factory of three nested
one-way rings with hop cells between them; a command cell grants permission
and a material cell pays a pickup bonus whenever permission is held.

Both figures in the source material carry per-cell numeric fields that were
published only as pictures, so the generators take the fields as parameters
and ship documented defaults that reproduce the qualitative structure (item
probability grows with distance from the paying destination; the middle ring
is the efficient-but-nonaccepting loop).

Like the parsers, the generators collect transition entries and build the
model's arrays from them (model.csr_arrays), and read each utility from
(state, action, value) entries (UtilityFn.from_entries).
"""

from dataclasses import dataclass, field

import numpy as np

from .model import Dra, Mdp, UtilityFn, alphabet, csr_arrays


class ParamError(Exception):
    pass


# largest grid either generator builds (case 1 at 64 has 16 334 states)
MAX_SIZE = 64


def _check_grid(size, cells):
    """ParamError unless size is an int in 1..MAX_SIZE and each (name,
    cell) of cells lies on the size x size grid, so size is at least the
    smallest grid holding them."""
    if type(size) is not int or not 1 <= size <= MAX_SIZE:
        raise ParamError(f"size {size!r} is not an int in 1..{MAX_SIZE}")
    for name, cell in cells:
        if len(cell) != 2 or \
                any(type(x) is not int or not 1 <= x <= size for x in cell):
            raise ParamError(f"{name} cell {cell} is off the {size}x{size} "
                             f"grid")


# cost of moving, keyed by Manhattan distance to the nearest destination
COST_BY_DISTANCE = {0: 3.2, 1: 3.0, 2: 2.7, 3: 2.5, 4: 1.5,
                    5: 1.0, 6: 1.0, 7: 1.0, 8: 1.0}

CASE1_OBSTACLES = frozenset({(2, 2), (2, 3), (3, 2), (3, 3),
                             (7, 3), (7, 4), (8, 3), (8, 4),
                             (4, 7), (4, 8), (5, 7), (5, 8)})

MOVES = {"left": (0, -1), "right": (0, 1), "up": (-1, 0), "down": (1, 0)}


def _distance(cell, dests):
    """Manhattan distance from cell to the nearest of dests."""
    return min(abs(cell[0] - r) + abs(cell[1] - c) for r, c in dests)


def _default_item_field(size, dests):
    """Item probability grows with the distance to the nearest destination
    (cells right next to a delivery point rarely hold items), with a small
    eastward tilt so the efficient excursion runs along the bottom row rather
    than its mirror image up the west column."""
    out = {}
    for row in range(1, size + 1):
        for col in range(1, size + 1):
            d = _distance((row, col), dests)
            out[(row, col)] = min(0.02 + 0.10 * d + 0.01 * (col - 1), 0.9)
    return out


@dataclass
class Case1Params:
    size: int = 9
    obstacles: frozenset = CASE1_OBSTACLES
    initial: tuple = (1, 1)
    destinations: dict = field(default_factory=lambda: {(9, 1): 2.0, (1, 9): 1.0})
    charging: tuple = (8, 1)
    item_prob: dict | None = None  # cell -> probability; None = default field
    cost_table: dict = field(default_factory=lambda: dict(COST_BY_DISTANCE))

    def resolved_field(self):
        return self.item_prob or _default_item_field(self.size,
                                                     set(self.destinations))

    def validate(self):
        _check_grid(self.size, [("destination", d) for d in self.destinations]
                    + [("initial", self.initial), ("charging", self.charging)])
        if not self.destinations:
            raise ParamError("no destination cell")
        for d, v in self.cost_table.items():
            if v <= 0.0:
                raise ParamError(f"cost table entry {d} -> {v} not positive")
        for cell in self.destinations:
            if cell in self.obstacles:
                raise ParamError(f"destination {cell} is an obstacle")
        if self.initial in self.obstacles or self.charging in self.obstacles:
            raise ParamError("initial/charging cell is an obstacle")
        for cell, p in (self.item_prob or {}).items():
            if not 0.0 <= p <= 1.0:
                raise ParamError(f"item probability {p} at {cell} out of [0,1]")
        for cell in _free_cells(self) if self.item_prob else ():
            if cell not in self.item_prob:
                raise ParamError(f"item_prob lacks cell {cell}")


def _free_cells(params):
    return [(r, c) for r in range(1, params.size + 1)
            for c in range(1, params.size + 1)
            if (r, c) not in params.obstacles]


def gen_case1(params: Case1Params | None = None):
    """Returns (mdp, dra_phi1, dra_phi2, reward, cost).

    State space: (cell, carry) over the obstacle-free grid.  An action exists
    when the move stays on the board and off obstacles (obstacle avoidance is
    structural; the automata still track the obstacle proposition).  Finding
    an item is resolved at the *successor* cell, and a delivery frees the robot
    to pick up again in the same step.
    """
    params = params or Case1Params()
    params.validate()
    prob = params.resolved_field()
    cells = _free_cells(params)

    states = [(cell, carry) for cell in cells for carry in (0, 1)]
    sidx = {st: i for i, st in enumerate(states)}
    names = [f"r{cell[0]}c{cell[1]}_{carry}" for cell, carry in states]
    actions = list(MOVES)
    aidx = {a: i for i, a in enumerate(actions)}

    dest_cells = set(params.destinations)

    def moves_from(cell):
        for a, (dr, dc) in MOVES.items():
            tgt = (cell[0] + dr, cell[1] + dc)
            if 1 <= tgt[0] <= params.size and 1 <= tgt[1] <= params.size \
                    and tgt not in params.obstacles:
                yield a, tgt

    # transition entries: a carried item stays found, so it is found with
    # probability 1; a successor of probability 0 is left out
    src, act, dst, probs = [], [], [], []
    labels, reward_s, cost_s = [], [], []
    for si, (cell, carry) in enumerate(states):
        delivers = carry == 1 and cell in dest_cells
        for a, tgt in moves_from(cell):
            p_found = prob[tgt] if carry == 0 or delivers else 1.0
            for found, p in ((1, p_found), (0, 1.0 - p_found)):
                if p > 0.0:
                    src.append(si)
                    act.append(aidx[a])
                    dst.append(sidx[(tgt, found)])
                    probs.append(p)
        labels.append(frozenset(
            prop for prop, holds in (("d", delivers),
                                     ("c", cell == params.charging)) if holds))
        dist = _distance(cell, dest_cells)
        if dist not in params.cost_table:
            raise ParamError(f"cost table lacks distance {dist}")
        cost_s.append(params.cost_table[dist])
        reward_s.append(params.destinations[cell] if delivers else 0.0)
    m = Mdp.from_arrays(
        names, actions, sidx[(params.initial, 0)],
        *csr_arrays(len(states), *(np.array(x, dtype=np.int64)
                                   for x in (src, act, dst)),
                    np.array(probs, dtype=float)),
        atomic_props=("d", "b", "c"), labels=labels)
    # a state's utilities hold on each of its pairs
    reward, cost = (UtilityFn.from_entries(
        m.pair_state, m.pair_action, np.array(v, dtype=float)[m.pair_state],
        kind) for v, kind in ((reward_s, "reward"), (cost_s, "cost")))
    return m, dra_recurrence_avoid(), dra_recurrence_avoid_charge(), reward, cost


def dra_recurrence_avoid() -> Dra:
    """3-state automaton: visit d-states infinitely often, never touch b.

    q0 waits for d, q1 flags a d-visit, q2 is the absorbing failure state.
    """
    ap = ("d", "b", "c")
    wait = [2 if "b" in sym else 1 if "d" in sym else 0
            for sym in alphabet(ap)]
    return Dra(3, 0, ap, [wait, wait, [2] * len(wait)], [({2}, {1})])


def dra_recurrence_avoid_charge() -> Dra:
    """5-state automaton: d and c each infinitely often, never b.

    Round-robin obligation: q0/q1 wait for d, q2 waits for c, q3 flags a
    completed d-then-c round, q4 is the absorbing failure state.
    """
    ap = ("d", "b", "c")
    wait_d = [4 if "b" in sym else 2 if "d" in sym else 1
              for sym in alphabet(ap)]
    wait_c = [4 if "b" in sym else 3 if "c" in sym else 2
              for sym in alphabet(ap)]
    return Dra(5, 0, ap, [wait_d, wait_d, wait_c, wait_d, [4] * len(wait_d)],
               [({4}, {3})])


# --- case 2: nested-ring factory ------------------------------------------

def _ring(top, left, bottom, right):
    """Clockwise ring path (up the left side from mid-left, across the top,
    down the right, back along the bottom), as cell -> successor."""
    cells = []
    for r in range(bottom, top - 1, -1):
        cells.append((r, left))
    for c in range(left + 1, right + 1):
        cells.append((top, c))
    for r in range(top + 1, bottom + 1):
        cells.append((r, right))
    for c in range(right - 1, left, -1):
        cells.append((bottom, c))
    return {cells[i]: cells[(i + 1) % len(cells)] for i in range(len(cells))}


@dataclass
class Case2Params:
    size: int = 7
    command: tuple = (3, 4)    # label g, on the inner ring
    material: tuple = (7, 7)   # label r, on the outer ring
    initial: tuple = (4, 1)
    ring_reward: dict = field(default_factory=lambda: {
        "outer": 0.25, "middle": 1.1, "inner": 0.25})
    cell_cost: float = 1.0

    def validate(self):
        _check_grid(self.size, [("command", self.command),
                                ("material", self.material),
                                ("initial", self.initial)])
        if self.cell_cost <= 0.0:
            raise ParamError("cell cost must be positive")
        missing = {"outer", "middle", "inner"} - set(self.ring_reward)
        if missing:
            raise ParamError(f"ring_reward lacks {sorted(missing)}")


def gen_case2(params: Case2Params | None = None):
    """Returns (mdp, dra, reward_family, cost).

    Three concentric one-way rings with bidirectional hop actions between
    them on the middle row; a permission bit is set at the command cell and
    consumed at the material cell.  reward_family(bonus) builds the reward
    that adds `bonus` on permission-holding arrivals at the material cell.
    """
    params = params or Case2Params()
    params.validate()
    n = params.size
    rings = {"outer": _ring(1, 1, n, n),
             "middle": _ring(2, 2, n - 1, n - 1),
             "inner": _ring(3, 3, n - 2, n - 2)}
    ring_of = {}
    follow = {}
    for name, ring in rings.items():
        for cell, nxt in ring.items():
            ring_of[cell] = name
            follow[cell] = nxt
    mid = (n + 1) // 2
    hops = {((mid, 1), "in"): (mid, 2), ((mid, 2), "out"): (mid, 1),
            ((mid, 2), "in"): (mid, 3), ((mid, 3), "out"): (mid, 2)}
    for cell in (params.command, params.material, params.initial):
        if cell not in ring_of:
            raise ParamError(f"cell {cell} is not on a ring")

    def moves(cell):
        """(action, cell entered) of each move from cell."""
        return [("go", follow[cell])] + [(a, tgt) for (hc, a), tgt
                                         in hops.items() if hc == cell]

    def perm_after(perm, tgt):
        if tgt == params.command:
            return 1
        if tgt == params.material and perm == 1:
            return 0
        return perm

    # some (cell, perm) pairs can never be entered (arriving at the command
    # cell forces the permission bit); keep the reachable part so the model
    # is communicating
    cells = sorted(ring_of)
    reach = {(params.initial, 0)}
    frontier = [(params.initial, 0)]
    while frontier:
        cell, perm = frontier.pop()
        for _, tgt in moves(cell):
            nxt = (tgt, perm_after(perm, tgt))
            if nxt not in reach:
                reach.add(nxt)
                frontier.append(nxt)
    states = [(cell, perm) for cell in cells for perm in (0, 1)
              if (cell, perm) in reach]
    sidx = {st: i for i, st in enumerate(states)}
    names = [f"r{c[0]}c{c[1]}_{perm}" for c, perm in states]
    actions = ["go", "in", "out"]
    aidx = {a: i for i, a in enumerate(actions)}

    # each pair is one deterministic move: its entry, the ring reward of
    # the cell it enters (none at the command and material cells), and
    # whether it arrives at the material cell holding permission
    src, act, dst, ring, paid = [], [], [], [], []
    labels = []
    for si, (cell, perm) in enumerate(states):
        for a, tgt in moves(cell):
            src.append(si)
            act.append(aidx[a])
            dst.append(sidx[(tgt, perm_after(perm, tgt))])
            ring.append(0.0 if tgt in (params.command, params.material)
                        else params.ring_reward[ring_of[tgt]])
            paid.append(tgt == params.material and perm == 1)
        labels.append(frozenset(
            prop for prop, holds in (("g", cell == params.command),
                                     ("r", cell == params.material)) if holds))
    src, act, dst = (np.array(x, dtype=np.int64) for x in (src, act, dst))
    ring, paid = np.array(ring, dtype=float), np.array(paid)
    m = Mdp.from_arrays(names, actions, sidx[(params.initial, 0)],
                        *csr_arrays(len(states), src, act, dst,
                                    np.ones(len(src))),
                        atomic_props=("g", "r"), labels=labels)

    cost = UtilityFn.from_entries(
        src, act, np.full(len(src), params.cell_cost, dtype=float), "cost")

    def reward_family(bonus):
        return UtilityFn.from_entries(
            src, act, np.where(paid, ring + bonus, ring), "reward")

    return m, dra_command_then_material(), reward_family, cost


def dra_command_then_material() -> Dra:
    """3-state automaton for: infinitely often, a command visit followed by a
    material visit (round-robin over g then r)."""
    ap = ("g", "r")
    wait_g = [1 if "g" in sym else 0 for sym in alphabet(ap)]
    wait_r = [2 if "r" in sym else 1 for sym in alphabet(ap)]
    return Dra(3, 0, ap, [wait_g, wait_r, wait_g], [(set(), {2})])
