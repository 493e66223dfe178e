import hashlib
import re

import numpy as np
import pytest

from effsynth.model import (alphabet, build_product, induce_chain,
                            lift_utilities, validate_mdp)
from effsynth.graph import is_communicating
from effsynth.chain import analyze, efficiency
from effsynth.lp import decode_ratio_policy, solve_ratio_lfp
from effsynth.casestudies import (COST_BY_DISTANCE, MAX_SIZE, Case1Params,
                                  Case2Params, ParamError,
                                  dra_command_then_material,
                                  dra_recurrence_avoid,
                                  dra_recurrence_avoid_charge, gen_case1,
                                  gen_case2)

from effsynth.parsers import parse_dra, write_dra, write_mdp, write_utilities

from conftest import accepts_lasso, delivery_grid, dense_p
from test_model import dict_dra_delta


def cell_of(m, s):
    tag = m.state_names[s].split("_")[0][1:]
    row, col = tag.split("c")
    return int(row), int(col)


def carry_of(m, s):
    return int(m.state_names[s].split("_")[1])


def test_cost_table_entries():
    assert COST_BY_DISTANCE == {0: 3.2, 1: 3.0, 2: 2.7, 3: 2.5, 4: 1.5,
                                5: 1.0, 6: 1.0, 7: 1.0, 8: 1.0}


def case_study_files(case):
    """The text files of a case study: its model, its utilities and its
    automata, as the casestudy command writes them."""
    if case == "case2":
        m, d, reward_family, cost = gen_case2()
        return [write_mdp(m), write_utilities(m, reward_family(0.0), cost),
                write_utilities(m, reward_family(40.0), cost), write_dra(d)]
    if case == "grid9":
        m, d1, d2, reward, cost = gen_case1()
        return [write_mdp(m), write_utilities(m, reward, cost),
                write_dra(d1), write_dra(d2)]
    m, d2, reward, cost = delivery_grid(13)
    return [write_mdp(m), write_utilities(m, reward, cost), write_dra(d2)]


# sha256 of each case_study_files text
CASE_STUDY_DIGESTS = {
    "grid9": (
        "46ed8239c59f802017dd7987c37e6914ecf90eaa773fb45b1be02f4d43ab5807",
        "fcf2f45dfbe32634244e67527ad213a035a42af03ebc33bcaea7c9725d139784",
        "a8564bb8b10af95e12f140c71b32600755507562be4cda798eecf80ad38d1798",
        "ccd9d4d5625c2a408a66572f753c36b137ab2fbfc66079e659514d5d9e651e9d"),
    "grid13": (
        "60ab522bd93b061ca98c9cba24a4f185db04b648a3446ecc77b25f89b2d4045e",
        "58a1c81f8f1902f9622c492b93529423d0c9e88aa2a0498df145d7ae8a839527",
        "ccd9d4d5625c2a408a66572f753c36b137ab2fbfc66079e659514d5d9e651e9d"),
    "case2": (
        "f0285277b970dd3d1e74f2751a4f779dc6439562dba16698a25f034fd7ae9f4d",
        "3f772f7ebdbee8f5a6173f74a1cb2710f639f29e5175e81eed06c0d122315f06",
        "8b61fc94e0ccf9cb44693dcda0a52fdbb0bddbdea7ef3f4c8fadf6dae8632f15",
        "35a2c2493fbd6792dd05b1cbc43f3d222be9f0b82c42661dc7b305164cecbc87"),
}


@pytest.mark.parametrize("case", list(CASE_STUDY_DIGESTS))
def test_case_study_files_are_byte_stable(case):
    """The generated case-study files keep their bytes (sha256): the
    default grid 9 with both tasks, grid 13 as the benchmark scales it, and
    case 2 with bonus 0 and 40.  The benchmark's reference values rest on
    these texts."""
    assert tuple(hashlib.sha256(t.encode()).hexdigest()
                 for t in case_study_files(case)) == CASE_STUDY_DIGESTS[case]


def test_case1_shape_and_validity():
    m, d1, d2, reward, cost = gen_case1()
    # 81 cells minus 12 obstacles, doubled by the carry flag
    assert m.n_states == (81 - 12) * 2
    assert validate_mdp(m) == []
    assert is_communicating(m)
    assert d1.n_states == 3 and d2.n_states == 5
    reward.pair_values(m)
    cost.pair_values(m)


def test_case1_cost_is_table_at_nearest_destination_distance():
    params = Case1Params()
    m, _, _, _, cost = gen_case1(params)
    for s in range(m.n_states):
        row, col = cell_of(m, s)
        dist = min(abs(row - dr) + abs(col - dc)
                   for dr, dc in params.destinations)
        for a in m.available[s]:
            assert cost(s, a) == COST_BY_DISTANCE[dist]


def test_case1_transition_law_exhaustive():
    """Every transition obeys the pickup/carry/delivery case split, with the
    item resolved at the successor cell."""
    params = Case1Params()
    m, _, _, _, _ = gen_case1(params)
    prob = params.resolved_field()
    dests = set(params.destinations)
    moves = {"left": (0, -1), "right": (0, 1), "up": (-1, 0), "down": (1, 0)}
    idx = {(cell_of(m, s), carry_of(m, s)): s for s in range(m.n_states)}
    for s in range(m.n_states):
        cell, carry = cell_of(m, s), carry_of(m, s)
        for ai, aname in enumerate(m.action_names):
            dr, dc = moves[aname]
            tgt = (cell[0] + dr, cell[1] + dc)
            on_board = (1 <= tgt[0] <= 9 and 1 <= tgt[1] <= 9
                        and tgt not in params.obstacles)
            if not on_board:
                assert ai not in m.available[s]
                continue
            dist = m.trans[(s, ai)]
            p = prob[tgt]
            if carry == 1 and cell not in dests:
                expect = {idx[(tgt, 1)]: 1.0}
            else:
                # empty robot, or delivering robot freed for a new pickup
                expect = {}
                if p > 0.0:
                    expect[idx[(tgt, 1)]] = p
                if p < 1.0:
                    expect[idx[(tgt, 0)]] = 1.0 - p
            assert dist == pytest.approx(expect)


def test_case1_carrying_moves_deterministically():
    m, _, _, _, _ = gen_case1()
    for s in range(m.n_states):
        if carry_of(m, s) == 1 and "d" not in m.labels[s]:
            for a in m.available[s]:
                (t, p), = m.trans[(s, a)].items()
                assert p == 1.0 and carry_of(m, t) == 1


def test_case1_labels():
    params = Case1Params()
    m, _, _, _, _ = gen_case1(params)
    for s in range(m.n_states):
        cell, carry = cell_of(m, s), carry_of(m, s)
        expect = set()
        if carry == 1 and cell in params.destinations:
            expect.add("d")
        if cell == params.charging:
            expect.add("c")
        assert m.labels[s] == frozenset(expect)


def test_case1_zero_field_never_finds_items():
    params = Case1Params(item_prob={(r, c): 0.0 for r in range(1, 10)
                                    for c in range(1, 10)})
    m, _, _, reward, cost = gen_case1(params)
    for s in range(m.n_states):
        if carry_of(m, s) == 0:
            for a in m.available[s]:
                assert all(carry_of(m, t) == 0 for t in m.trans[(s, a)])
    # reward is only available while carrying: efficiency is zero
    from effsynth.graph import mec_decompose, restrict
    reachable = [s for s in range(m.n_states) if carry_of(m, s) == 0]
    sub = next(ec for ec in mec_decompose(m)
               if all(carry_of(m, g) == 0 for g in m.pair_state[ec]))
    sub_m, ids = restrict(m, sub)
    sol = solve_ratio_lfp(sub_m, reward.pair_values(m)[sub_m.parent_pair],
                          cost.pair_values(m)[sub_m.parent_pair])
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def test_case1_rejects_bad_params():
    with pytest.raises(ParamError):
        gen_case1(Case1Params(item_prob={(r, c): 1.5 for r in range(1, 10)
                                         for c in range(1, 10)}))
    with pytest.raises(ParamError):
        gen_case1(Case1Params(cost_table={d: 0.0 for d in range(9)}))


@pytest.mark.parametrize("params, phrase", [
    (Case1Params(size=200000), "size 200000 is not an int in 1..64"),
    (Case1Params(size=65), "size 65 is not"),
    (Case1Params(size=9.0), "size 9.0 is not"),
    (Case1Params(size=True), "size True is not"),
    (Case1Params(size=8), "destination cell (9, 1) is off the 8x8 grid"),
    (Case1Params(initial=(0, 1)), "initial cell (0, 1) is off"),
    (Case1Params(charging=(10, 1)), "charging cell (10, 1) is off"),
    (Case1Params(destinations={(9, 1): 2.0, (1, -9): 1.0}),
     "destination cell (1, -9) is off"),
    (Case2Params(size=0), "size 0 is not"),
    (Case2Params(size=6), "material cell (7, 7) is off the 6x6 grid"),
    (Case2Params(command=(3, 4, 1)), "command cell (3, 4, 1) is off"),
    (Case2Params(initial=(4, 0)), "initial cell (4, 0) is off"),
    (Case1Params(size=13), "cost table lacks distance 9"),
    (Case2Params(command=(4, 4)), "cell (4, 4) is not on a ring"),
], ids=["case1-huge", "case1-above-cap", "case1-float", "case1-bool",
        "case1-below-cells", "case1-initial", "case1-charging",
        "case1-destination", "case2-zero", "case2-below-cells",
        "case2-command", "case2-initial", "case1-cost-table",
        "case2-off-ring"])
def test_params_bound_size_and_keep_cells_on_grid(params, phrase):
    """A size that is not an int from the smallest grid holding the named
    cells up to MAX_SIZE, a named cell off the grid, a case-1 cost table
    that misses a distance of the grid (the first one in row-major order)
    and a case-2 cell off the rings fail validation, before any model is
    built."""
    with pytest.raises(ParamError, match=re.escape(phrase)):
        params.validate()


def test_params_accept_the_largest_size():
    """The largest grids validate: case 1 given a cost table that covers
    its distances (as perfbench/instances.grid_params builds one), case 2
    with the material cell moved to the outer ring's corner."""
    cost = dict(COST_BY_DISTANCE)
    cost.update({d: 1.0 for d in range(max(cost) + 1, 2 * MAX_SIZE)})
    Case1Params(size=MAX_SIZE, cost_table=cost).validate()
    Case2Params(size=MAX_SIZE, material=(MAX_SIZE, MAX_SIZE)).validate()


def word(*syms):
    return [frozenset(s) for s in syms]


def test_case1_dra_phi1_words():
    d = dra_recurrence_avoid()
    # d forever: accepted; empty forever: rejected; b once: rejected forever
    assert accepts_lasso(d, word(), word({"d"}))
    assert not accepts_lasso(d, word(), word(set()))
    assert not accepts_lasso(d, word({"b"}), word({"d"}))
    assert accepts_lasso(d, word(set(), set()), word({"d"}, set(), set()))
    assert not accepts_lasso(d, word({"d"}, {"d"}), word(set()))
    # c alone never helps phi1
    assert not accepts_lasso(d, word(), word({"c"}))


def test_case1_dra_phi2_words():
    d = dra_recurrence_avoid_charge()
    assert accepts_lasso(d, word(), word({"d"}, {"c"}))
    assert accepts_lasso(d, word(), word({"d"}, set(), {"c"}, set()))
    assert not accepts_lasso(d, word(), word({"d"}))      # no charging
    assert not accepts_lasso(d, word(), word({"c"}))      # no delivery
    assert not accepts_lasso(d, word({"b"}), word({"d"}, {"c"}))
    assert accepts_lasso(d, word({"c"}, {"c"}), word({"c"}, {"d"}))


def dict_built_automata():
    """The delta dicts the three case-study automata were once built from,
    as (automaton, n_states, ap, delta)."""
    ap1, ap2 = ("d", "b", "c"), ("g", "r")
    phi1, phi2, task2 = {}, {}, {}
    for sym in alphabet(ap1):
        for q in (0, 1):
            phi1[(q, sym)] = 2 if "b" in sym else 1 if "d" in sym else 0
        phi1[(2, sym)] = 2
        for q in (0, 1, 3):
            phi2[(q, sym)] = 4 if "b" in sym else 2 if "d" in sym else 1
        phi2[(2, sym)] = 4 if "b" in sym else 3 if "c" in sym else 2
        phi2[(4, sym)] = 4
    for sym in alphabet(ap2):
        task2[(0, sym)] = 1 if "g" in sym else 0
        task2[(1, sym)] = 2 if "r" in sym else 1
        task2[(2, sym)] = 1 if "g" in sym else 0
    return [(dra_recurrence_avoid(), 3, ap1, phi1),
            (dra_recurrence_avoid_charge(), 5, ap1, phi2),
            (dra_command_then_material(), 3, ap2, task2)]


def test_case_study_tables_are_the_dict_built_automata():
    """Each case-study automaton's table, read through the delta view, is
    the mapping its dict form stored, and it round-trips through the HOA
    writer."""
    for d, n, ap, delta in dict_built_automata():
        assert (d.n_states, d.ap) == (n, ap)
        assert d.delta == dict_dra_delta(n, ap, delta)
        back = parse_dra(write_dra(d))
        assert back.delta == d.delta and write_dra(back) == write_dra(d)
        assert (back.initial, back.pairs) == (d.initial, d.pairs)


def test_case1_dra_brute_force_language_check(rng):
    """Random lasso words: automaton verdicts equal a direct evaluation of
    'no b ever, d infinitely often (and c infinitely often for the charge
    variant)' on the periodic structure."""
    d1 = dra_recurrence_avoid()
    d2 = dra_recurrence_avoid_charge()
    syms = [frozenset(), frozenset({"d"}), frozenset({"b"}),
            frozenset({"c"}), frozenset({"d", "c"})]
    for trial in range(200):
        prefix = [syms[int(rng.integers(len(syms)))]
                  for _ in range(int(rng.integers(0, 4)))]
        cycle = [syms[int(rng.integers(len(syms)))]
                 for _ in range(int(rng.integers(1, 5)))]
        no_b = all("b" not in s for s in prefix + cycle)
        d_io = any("d" in s for s in cycle)
        c_io = any("c" in s for s in cycle)
        assert accepts_lasso(d1, prefix, cycle) == (no_b and d_io)
        assert accepts_lasso(d2, prefix, cycle) == (no_b and d_io and c_io)


def test_case2_shape_and_determinism():
    m, dra, reward_family, cost = gen_case2()
    assert validate_mdp(m) == []
    assert is_communicating(m)
    assert dra.n_states == 3
    for (s, a), dist in m.trans.items():
        assert list(dist.values()) == [1.0]
    reward_family(0.0).pair_values(m)
    cost.pair_values(m)


def test_case2_dra_words():
    d = dra_command_then_material()
    assert accepts_lasso(d, word(), word({"g"}, {"r"}))
    assert accepts_lasso(d, word(), word({"r"}, {"g"}))   # both recur
    assert not accepts_lasso(d, word(), word({"g"}))
    assert not accepts_lasso(d, word(), word({"r"}))
    assert not accepts_lasso(d, word({"g"}, {"r"}), word(set()))


def test_case2_permission_bit_dynamics():
    params = Case2Params()
    m, _, _, _ = gen_case2(params)
    states = {m.state_names[s]: s for s in range(m.n_states)}
    for s in range(m.n_states):
        cell, perm = cell_of(m, s), carry_of(m, s)
        for a in m.available[s]:
            (t, _), = m.trans[(s, a)].items()
            tcell, tperm = cell_of(m, t), carry_of(m, t)
            if tcell == params.command:
                assert tperm == 1
            elif tcell == params.material and perm == 1:
                assert tperm == 0
            else:
                assert tperm == perm


def test_case2_bonus_zero_baseline():
    m, _, reward_family, cost = gen_case2()
    r0 = reward_family(0.0)
    r5 = reward_family(5.0)
    bumped = [key for key in zip(r0.states.tolist(), r0.actions.tolist())
              if r5(*key) != pytest.approx(r0(*key))]
    # only permission-holding arrivals at the material cell gain the bonus
    params = Case2Params()
    for (s, a) in bumped:
        assert carry_of(m, s) == 1
        (t, _), = m.trans[(s, a)].items()
        assert cell_of(m, t) == params.material
        assert r5(s, a) - r0(s, a) == pytest.approx(5.0)
    assert bumped


def test_case2_threshold_structure():
    """Sweeping the pickup bonus flips the optimal loop exactly once, from the
    middle ring (never commanded) to the command-then-material cycle."""
    m, dra, reward_family, cost = gen_case2()
    grid = [0.0, 5.0, 15.0, 25.0, 35.0, 45.0, 60.0, 80.0]
    accepting = []
    values = []
    for bonus in grid:
        sol = solve_ratio_lfp(m, reward_family(bonus).pair_values(m),
                              cost.pair_values(m))
        policy, _ = decode_ratio_policy(m, sol)
        ca = analyze(m, policy)
        labs = set()
        for s in ca.recurrent_classes[0]:
            labs |= m.labels[s]
        accepting.append("g" in labs and "r" in labs)
        values.append(sol.value)
    assert accepting[0] is False
    assert accepting[-1] is True
    flips = sum(1 for a, b in zip(accepting, accepting[1:]) if a != b)
    assert flips == 1
    assert all(v2 >= v1 - 1e-9 for v1, v2 in zip(values, values[1:]))


def test_case1_task2_decoded_policy_reaches_support_quickly():
    """On the default grid the task-2 product is one accepting component, so
    its ratio program is decoded on the whole product.  From every state the
    decoded policy must reach the occupation support in few expected steps;
    long detours there inflate the deviation bound and starve the es degree."""
    m, _, task2, reward, cost = gen_case1()
    pm = build_product(m, task2)
    r, c = lift_utilities(pm, reward, cost)
    sol = solve_ratio_lfp(pm, r, c)
    policy, _ = decode_ratio_policy(pm, sol)
    support = {s for (s, a), g in zip(pm.state_action_pairs(), sol.gamma)
               if g > 1e-9}
    outside = sorted(set(range(pm.n_states)) - support)
    P = dense_p(induce_chain(pm, policy))
    steps = np.linalg.solve(np.eye(len(outside)) - P[np.ix_(outside, outside)],
                            np.ones(len(outside)))
    assert steps.max() <= 50.0
