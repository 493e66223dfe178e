import numpy as np
import pytest

from effsynth.graph import mec_decompose, restrict
from effsynth.model import (Dra, IncompletenessError, Mdp, ModelError,
                            NondeterminismError, UtilityFn, alphabet,
                            build_product, uniform_policy, validate_mdp)
from effsynth.parsers import (ParseError, ValidationError, parse_dra,
                              parse_mdp, parse_policy, parse_utilities,
                              write_dra, write_mdp, write_policy,
                              write_utilities)

from conftest import (accepts_lasso, example1_mdp, random_mdp, random_policy,
                      rule_of)


EXAMPLE1_TEXT = """\
# four states, two actions
mdp
states: 1 2 3 4
actions: a1 a2
initial: 1
trans 1 a1 2 1.0
trans 1 a2 3 1.0
trans 2 a1 2 1.0
trans 3 a1 4 1.0
trans 4 a1 3 1.0
trans 4 a2 4 1.0
"""

INF_OFTEN_G = """\
HOA: v1
States: 2
Start: 0
AP: 1 "g"
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0
[!0] 0
[0] 1
State: 1 {1}
[!0] 0
[0] 1
--END--
"""


def test_parse_example1():
    m = parse_mdp(EXAMPLE1_TEXT)
    assert m.state_names == ("1", "2", "3", "4")
    assert m.action_names == ("a1", "a2")
    assert m.initial == 0
    ref = example1_mdp()
    assert m.trans == ref.trans
    assert m.available == ref.available


def test_parse_empty_document():
    with pytest.raises(ParseError):
        parse_mdp("")


def test_parse_rejects_probability_above_one():
    text = EXAMPLE1_TEXT.replace("trans 2 a1 2 1.0", "trans 2 a1 2 1.1")
    with pytest.raises(ValidationError):
        parse_mdp(text)


def test_parse_rejects_duplicate_transition():
    text = EXAMPLE1_TEXT + "trans 4 a2 4 0.5\n"
    with pytest.raises(ParseError, match="duplicate") as err:
        parse_mdp(text)
    assert err.value.line == 12
    assert str(err.value) == "line 12: duplicate transition 4 a2 4"


def test_parse_rejects_bad_literal():
    text = EXAMPLE1_TEXT.replace("trans 2 a1 2 1.0", "trans 2 a1 2 one")
    with pytest.raises(ParseError, match="decimal"):
        parse_mdp(text)


LABELED = """\
mdp
states: 1 2
actions: a
props: g
initial: 1
label 2: g
trans 1 a 2 1.0
trans 2 a 1 1.0
"""


@pytest.mark.parametrize("after, repeat, message", [
    (5, "initial: 2", "duplicate initial: line"),
    (6, "label 2:", "duplicate label of '2'"),
])
def test_a_repeated_model_line_fails_at_the_repeat(after, repeat, message):
    """A second initial: line, or a second label line for one state, is an
    error at its own line rather than a silent replacement of the first."""
    lines = LABELED.splitlines()
    assert parse_mdp(LABELED).initial == 0
    lines.insert(after, repeat)
    with pytest.raises(ParseError) as err:
        parse_mdp("\n".join(lines))
    assert err.value.line == after + 1
    assert str(err.value) == f"line {after + 1}: {message}"


def test_nonpositive_cost_fails_at_its_line_with_names():
    """A cost of 0 or below is a parse error at its line, naming the state
    and action; an earlier faulty line is reported first and a later one
    after it, whichever check finds either.  UtilityFn keeps the check for
    tables built in memory."""
    m = parse_mdp(EXAMPLE1_TEXT)
    lines = [f"cost {s} {a} 1.5" for s, a in
             (("1", "a1"), ("1", "a2"), ("2", "a1"), ("3", "a1"),
              ("4", "a1"), ("4", "a2"))]
    assert parse_utilities("\n".join(lines), m)[1](0, 0) == 1.5
    for value in ("0", "-0.0", "-1"):
        bad = lines[:2] + [f"cost 2 a1 {value}"] + lines[3:]
        with pytest.raises(ParseError) as err:
            parse_utilities("\n".join(bad), m)
        assert str(err.value) == (f"line 3: cost entry 2 a1 must be strictly "
                                  f"positive, got {float(value)}")
        for later in ("cost 1 a1 1.5", "cost 1 a1 inf", "cost 9 a1 1"):
            with pytest.raises(ParseError, match="line 3: cost entry 2 a1"):
                parse_utilities("\n".join(bad + [later]), m)
        for earlier in ("cost 1 a1 1_0", "cost 9 a1 1"):
            with pytest.raises(ParseError, match="line 1: "):
                parse_utilities("\n".join([earlier] + bad[1:]), m)
    with pytest.raises(ParseError, match="line 3: duplicate cost entry 1 a1"):
        parse_utilities("\n".join(lines[:2] + ["cost 1 a1 0"]), m)
    with pytest.raises(ModelError, match="at state 1, action 0"):
        UtilityFn({(1, 0): 0.0}, "cost")


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError, match="line 7"):
        parse_mdp(EXAMPLE1_TEXT.replace("trans 1 a2 3 1.0",
                                        "trans 1 a2 zz 1.0"))


def test_mdp_roundtrip(rng):
    for trial in range(10):
        m = random_mdp(rng, int(rng.integers(2, 7)), 3)
        m2 = parse_mdp(write_mdp(m))
        assert m2.state_names == m.state_names
        assert m2.initial == m.initial
        assert set(m2.trans) == set(m.trans)
        for key, dist in m.trans.items():
            for t, p in dist.items():
                assert m2.trans[key][t] == pytest.approx(p, abs=1e-12)


def test_products_and_submodels_write_and_validate(rng):
    """Models built from arrays (a product, its end components) validate,
    read back as trans, and round-trip through the writer, which prints
    12 significant digits."""
    d = Dra.from_table(2, 0, ("g",), [[0, 1], [0, 1]], [(set(), {1})])
    for trial in range(5):
        m = random_mdp(rng, 5, 2)
        m = Mdp(m.state_names, m.action_names, m.initial, m.trans, ("g",),
                [frozenset({"g"}) if rng.random() < 0.4 else frozenset()
                 for _ in range(5)])
        pm = build_product(m, d)
        models = [pm] + [restrict(pm, ec)[0] for ec in mec_decompose(pm)]
        for x in models:
            assert validate_mdp(x) == []
            assert list(x.trans) == list(x.state_action_pairs())
            x2 = parse_mdp(write_mdp(x))
            assert x2.trans.keys() == x.trans.keys()
            for key, dist in x.trans.items():
                assert x2.trans[key] == pytest.approx(dist, abs=1e-12)
            assert write_mdp(x2) == write_mdp(x)


def test_parser_determinism(rng):
    m = random_mdp(rng, 5, 2)
    text = write_mdp(m)
    assert write_mdp(parse_mdp(text)) == text


def test_parse_utilities_inline_and_missing_entry():
    text = EXAMPLE1_TEXT + "\n".join(
        f"cost {s} {a} 1.5" for s in "1234" for a in ("a1", "a2")
        if not (s in "23" and a == "a2")) + "\n"
    m = parse_mdp(text)
    reward, cost = parse_utilities(text, m)
    assert reward is None
    assert cost(0, 0) == 1.5
    # drop one required line: completeness must fail
    broken = "\n".join(text.splitlines()[:-1])
    with pytest.raises(Exception, match="missing"):
        parse_utilities(broken, m)


def test_utilities_roundtrip(rng):
    m = random_mdp(rng, 4, 2)
    r_vals = {(s, a): float(rng.normal()) for s, a in m.state_action_pairs()}
    c_vals = {(s, a): float(rng.uniform(0.5, 2)) for s, a in
              m.state_action_pairs()}
    r = UtilityFn(r_vals, "reward")
    c = UtilityFn(c_vals, "cost")
    r2, c2 = parse_utilities(write_utilities(m, r, c), m)
    for key in r_vals:
        assert r2(*key) == pytest.approx(r(*key), rel=1e-11)
        assert c2(*key) == pytest.approx(c(*key), rel=1e-11)


def test_parse_accept_everything_dra():
    text = """\
HOA: v1
States: 1
Start: 0
AP: 1 "g"
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0 {1}
[t] 0
--END--
"""
    d = parse_dra(text)
    assert d.n_states == 1
    assert d.pairs == ((frozenset(), frozenset({0})),)
    assert d.step(0, frozenset()) == 0
    assert d.step(0, frozenset({"g"})) == 0


def test_parse_infinitely_often_g_and_run_words():
    """Lasso words checked against a direct statement of the acceptance:
    accepted iff the cycle contains a g-symbol."""
    d = parse_dra(INF_OFTEN_G)
    g = frozenset({"g"})
    e = frozenset()
    assert d.pairs == ((frozenset(), frozenset({1})),)
    cases = [
        ((), (g,), True),
        ((), (e,), False),
        ((g, g), (e,), False),        # finitely many g
        ((e,), (e, e, g), True),      # g recurs with gaps
        ((g,), (e, g, e), True),
    ]
    for prefix, cycle, expect in cases:
        assert accepts_lasso(d, prefix, cycle) is expect


def test_parse_dra_rejects_overlapping_guards():
    """Once a symbol is read: here every symbol, by the delta view."""
    text = INF_OFTEN_G.replace("[0] 1\nState: 1", "[0] 1\n[t] 0\nState: 1")
    with pytest.raises(NondeterminismError):
        parse_dra(text).delta


def test_parse_dra_rejects_incomplete_guards():
    """Once a symbol is read: here every symbol, by the delta view."""
    text = INF_OFTEN_G.replace("[!0] 0\n[0] 1\nState: 1", "[0] 1\nState: 1")
    with pytest.raises(IncompletenessError):
        parse_dra(text).delta


def test_parse_dra_rejects_non_rabin_acceptance():
    text = INF_OFTEN_G.replace("Acceptance: 2 Fin(0) & Inf(1)",
                               "Acceptance: 1 Inf(0)")
    with pytest.raises(ParseError):
        parse_dra(text)


def test_parse_dra_rejects_a_start_outside_the_states():
    """A Start: beyond the States: count fails as the automaton is built,
    before any product reads its table."""
    with pytest.raises(ModelError, match="initial state 2 is not one of"):
        parse_dra(INF_OFTEN_G.replace("Start: 0", "Start: 2"))


def hoa(n_states, n_ap, body):
    """An automaton text with n_ap propositions p0, p1, ... and the given
    body lines."""
    names = " ".join(f'"p{i}"' for i in range(n_ap))
    return "\n".join(["HOA: v1", f"States: {n_states}", "Start: 0",
                      f"AP: {n_ap} {names}", "Acceptance: 2 Fin(0) & Inf(1)",
                      "--BODY--", *body, "--END--"]) + "\n"


def test_parse_dra_counts_states_before_building_them():
    """A States: count the body does not meet fails before anything is
    built for the declared states; States: 0 with an empty body reaches
    the automaton, which has no initial state."""
    with pytest.raises(ModelError, match="initial state 0 is not one of "
                                         "the 0 states"):
        parse_dra(hoa(0, 1, []))
    import tracemalloc
    text = hoa(2_000_000, 1, ["State: 0 {1}", "[t] 0"])
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="body does not define every "
                                             "state exactly once"):
            parse_dra(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("header, repeat", [
    ("States:", "States: 2"), ("Start:", "Start: 1"),
    ("AP:", 'AP: 1 "h"'), ("Acceptance:", "Acceptance: 2 Fin(1) & Inf(0)"),
])
def test_a_repeated_automaton_header_fails_at_the_repeat(header, repeat):
    """A second States:, Start:, AP: or Acceptance: header is an error at
    its own line, even where it agrees with the first, rather than a silent
    replacement of it (a swapped Acceptance: would yield the pair
    ({1}, {}) that no run meets)."""
    lines = INF_OFTEN_G.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(header))
    for text in (repeat, lines[at]):
        bad = lines[:at + 1] + [text] + lines[at + 1:]
        with pytest.raises(ParseError) as err:
            parse_dra("\n".join(bad))
        assert str(err.value) == f"line {at + 2}: duplicate {header} header"


def test_parse_dra_keeps_no_guard_past_its_state():
    """No guard is kept as more than its parsed tree, and nothing is kept
    per symbol, so the traced peak stays within a fixed multiple of the
    text (a short line costs a few hundred bytes of objects): on
    write_dra's one-state automaton over 12 APs (4096 guards of 12
    literals) and on a 1000-state automaton over 40 APs with one [t] edge
    per state, whose table of symbols would hold 2^50 entries."""
    import tracemalloc
    n_ap = 12
    texts = [write_dra(Dra.from_table(1, 0, [f"p{i}" for i in range(n_ap)],
                                      np.zeros((1, 2 ** n_ap), dtype=int),
                                      [({0}, set())])),
             hoa(1000, 40, [line for q in range(1000)
                            for line in (f"State: {q} {{1}}", "[t] 0")])]
    for text in texts:
        tracemalloc.start()
        try:
            d = parse_dra(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.step(0, set(d.ap[::2])) == 0
        assert peak < 40 * len(text)


def test_written_automaton_parses_to_its_table(rng):
    """write_dra's one guard per symbol, over enough APs and states that
    the symbols span many bytes and the destinations many bits."""
    n_states, n_ap = 11, 9
    table = rng.integers(n_states, size=(n_states, 2 ** n_ap))
    d = Dra.from_table(n_states, 3, [f"p{i}" for i in range(n_ap)], table,
                       [({0}, {1, 2})])
    d2 = parse_dra(write_dra(d))
    assert (d2.transitions(alphabet(d.ap)) == table).all()
    assert d2.pairs == d.pairs


def test_dra_roundtrip():
    d = parse_dra(INF_OFTEN_G)
    d2 = parse_dra(write_dra(d))
    assert d2.n_states == d.n_states
    assert d2.delta == d.delta
    assert d2.pairs == d.pairs


def test_write_policy_deterministic_bytes():
    m = parse_mdp(EXAMPLE1_TEXT)
    p = uniform_policy(m)
    assert write_policy(m, p) == write_policy(m, p)
    lines = write_policy(m, p).splitlines()
    assert lines[1] == "rule 1 a1 0.5"


def test_policy_roundtrip_within_tolerance(rng):
    for trial in range(10):
        m = random_mdp(rng, int(rng.integers(2, 7)), 3)
        p = random_policy(rng, m)
        p2 = rule_of(m, parse_policy(write_policy(m, p), m))
        for s, dist in rule_of(m, p).items():
            for a, prob in dist.items():
                assert p2[s].get(a, 0.0) == pytest.approx(prob, abs=1e-12)


def test_parse_policy_rejects_unavailable_mass():
    m = parse_mdp(EXAMPLE1_TEXT)
    with pytest.raises(Exception, match="not available"):
        parse_policy("rule 2 a2 1.0\n", m)


def test_parse_policy_rejects_duplicate_rule():
    """A repeated (state, action) is an error, not a silent overwrite that
    would hide a row summing to 1.5."""
    m = parse_mdp(EXAMPLE1_TEXT)
    with pytest.raises(ParseError, match="line 2: duplicate rule 1 a1"):
        parse_policy("rule 1 a1 0.5\nrule 1 a1 0.5\nrule 1 a2 0.5\n", m)
