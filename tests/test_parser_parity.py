"""The one-pass parsers against the line-by-line parsers they replace.

Each reference below is the earlier reader, kept as it was: it walks a file
line by line into per-pair dicts ({(state, action): {successor:
probability}}, {(state, action): value}, {state: {action: probability}}),
checks each decimal token as it meets it, builds the arrays from the dicts,
evaluates every automaton guard once per (edge, symbol) and checks a
model's invariants pair by pair.  The parsers that fill the arrays straight
from the text must give bitwise the same arrays, names and labels on every
valid text and, on every malformed one, the same exception class, message
and line: the first bad line in file order wins.  A malformed automaton is
compared through the product with a model whose states carry every symbol:
the parser leaves determinism and completeness to the product, which checks
them on the symbols it reads, where the reference checks every symbol as
it parses.
"""

import re

import numpy as np
import pytest

from effsynth.model import (Dra, IncompletenessError, Mdp, ModelError,
                            NondeterminismError, PolicyMismatch, PROB_TOL,
                            Violation, alphabet, build_product, validate_mdp)
from effsynth.parsers import (ParseError, ValidationError, parse_dra,
                              parse_mdp, parse_policy, parse_utilities,
                              write_dra, write_mdp, write_policy,
                              write_utilities)

from conftest import random_mdp, random_rule, random_utility_tables, \
    rule_policy
from test_exact import random_dra

AP = ("g", "b")


# --- references: the line-by-line parsers ---------------------------------

def ref_lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


REF_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def ref_prob(tok, ln):
    if not REF_DECIMAL.fullmatch(tok):
        raise ParseError(f"bad decimal literal {tok!r}", ln)
    return float(tok)


def ref_first_index(names):
    idx = {}
    for i, name in enumerate(names):
        idx.setdefault(name, i)
    return idx


def ref_csr(n_states, trans):
    """The flat arrays of a {(state, action): {successor: probability}} map,
    built row by row from the sorted dict."""
    rows = sorted(((int(s), int(a)),
                   sorted((int(t), float(p)) for t, p in dist.items()))
                  for (s, a), dist in trans.items())
    pair_state = np.array([s for (s, _), _ in rows], dtype=np.int64)
    lens = np.array([len(d) for _, d in rows], dtype=np.int64)
    return (np.searchsorted(pair_state, np.arange(n_states + 1)),
            np.array([a for (_, a), _ in rows], dtype=np.int64),
            np.concatenate(([0], np.cumsum(lens))).astype(np.int64),
            np.fromiter((t for _, d in rows for t, _ in d), dtype=np.int64),
            np.fromiter((p for _, d in rows for _, p in d), dtype=float))


def ref_validate_mdp(m):
    out = []
    if not (0 <= m.initial < m.n_states):
        out.append(Violation("bad_initial", detail=f"initial={m.initial}"))
    for s in range(m.n_states):
        if not m.available[s]:
            out.append(Violation("no_action", state=s,
                                 detail=f"state {m.state_names[s]} has no action"))
    total = np.bincount(m.succ_pair, weights=m.succ_prob,
                        minlength=m.n_pairs).tolist()
    succ, prob, ptr = (m.succ_state.tolist(), m.succ_prob.tolist(),
                       m.succ_ptr.tolist())
    for j, (s, a) in enumerate(m.state_action_pairs()):
        for k in range(ptr[j], ptr[j + 1]):
            if prob[k] < 0.0 or prob[k] > 1 + PROB_TOL:
                out.append(Violation("prob_range", state=s, action=a,
                                     detail=f"P({succ[k]}|{s},{a})={prob[k]}"))
        if abs(total[j] - 1.0) > PROB_TOL:
            out.append(Violation("stochasticity", state=s, action=a,
                                 detail=f"row sum {total[j]}"))
    props = set(m.atomic_props)
    for s, lab in enumerate(m.labels):
        if not lab <= props:
            out.append(Violation("bad_label", state=s,
                                 detail=f"unknown props {sorted(lab - props)}"))
    return out


def ref_parse_mdp(text):
    states, actions, props = [], [], []
    initial = None
    labels, trans, sidx, aidx, pidx = {}, {}, {}, {}, {}
    for ln, line in ref_lines(text):
        tok = line.split()
        head = tok[0]
        if head == "mdp":
            continue
        elif head == "states:":
            for name in tok[1:]:
                if name in sidx:
                    raise ParseError(f"duplicate state {name!r}", ln)
                sidx[name] = len(states)
                states.append(name)
        elif head == "actions:":
            for name in tok[1:]:
                if name in aidx:
                    raise ParseError(f"duplicate action {name!r}", ln)
                aidx[name] = len(actions)
                actions.append(name)
        elif head == "props:":
            for name in tok[1:]:
                if name in pidx:
                    raise ParseError(f"duplicate prop {name!r}", ln)
                pidx[name] = len(props)
                props.append(name)
        elif head == "initial:":
            if initial is not None:
                raise ParseError("duplicate initial: line", ln)
            if len(tok) != 2 or tok[1] not in sidx:
                raise ParseError("initial: needs one declared state", ln)
            initial = sidx[tok[1]]
        elif head == "label":
            if len(tok) < 2 or not tok[1].endswith(":"):
                raise ParseError("label <state>: <props...>", ln)
            name = tok[1][:-1]
            if name not in sidx:
                raise ParseError(f"unknown state {name!r}", ln)
            if sidx[name] in labels:
                raise ParseError(f"duplicate label of {name!r}", ln)
            for prop in tok[2:]:
                if prop not in pidx:
                    raise ParseError(f"unknown prop {prop!r}", ln)
            labels[sidx[name]] = frozenset(tok[2:])
        elif head == "trans":
            if len(tok) != 5:
                raise ParseError("trans <s> <a> <s'> <prob>", ln)
            _, s, a, t, prob = tok
            for name, table in ((s, sidx), (t, sidx)):
                if name not in table:
                    raise ParseError(f"unknown state {name!r}", ln)
            if a not in aidx:
                raise ParseError(f"unknown action {a!r}", ln)
            row = trans.setdefault((sidx[s], aidx[a]), {})
            if sidx[t] in row:
                raise ParseError(f"duplicate transition {s} {a} {t}", ln)
            row[sidx[t]] = ref_prob(prob, ln)
        elif head in ("reward", "cost"):
            continue
        else:
            raise ParseError(f"unknown directive {head!r}", ln)
    if not states:
        raise ParseError("no states declared")
    if initial is None:
        raise ParseError("no initial state")
    m = Mdp.from_arrays(states, actions, initial,
                        *ref_csr(len(states), trans), atomic_props=props,
                        labels=[labels.get(s, frozenset())
                                for s in range(len(states))])
    violations = ref_validate_mdp(m)
    if violations:
        raise ValidationError(violations)
    return m


def ref_utility(values, kind, m):
    """A {(state, action): value} table as sorted (state, action, value)
    arrays, checked for covering m's pairs."""
    states = np.array([int(s) for s, _ in values], dtype=np.int64)
    actions = np.array([int(a) for _, a in values], dtype=np.int64)
    vals = np.array([float(v) for v in values.values()], dtype=float)
    missing = [(s, a) for s, a in m.state_action_pairs()
               if (s, a) not in values]
    if missing:
        s, a = missing[0]
        raise ModelError(
            f"{kind} table missing {len(missing)} entries, first: "
            f"({m.state_names[s]}, {m.action_names[a]})")
    order = np.lexsort((actions, states))
    return states[order], actions[order], vals[order]


def ref_parse_utilities(text, m):
    entries = {"reward": {}, "cost": {}}
    sidx = ref_first_index(m.state_names)
    aidx = ref_first_index(m.action_names)
    for ln, line in ref_lines(text):
        tok = line.split()
        if tok[0] not in ("reward", "cost"):
            continue
        if len(tok) != 4:
            raise ParseError(f"{tok[0]} <state> <action> <value>", ln)
        _, s, a, val = tok
        if s not in sidx:
            raise ParseError(f"unknown state {s!r}", ln)
        if a not in aidx:
            raise ParseError(f"unknown action {a!r}", ln)
        key = (sidx[s], aidx[a])
        if key in entries[tok[0]]:
            raise ParseError(f"duplicate {tok[0]} entry {s} {a}", ln)
        entries[tok[0]][key] = ref_prob(val, ln)
        if tok[0] == "cost" and entries["cost"][key] <= 0.0:
            raise ParseError(f"cost entry {s} {a} must be strictly positive, "
                             f"got {entries['cost'][key]}", ln)
    return tuple(ref_utility(entries[kind], kind, m) if entries[kind]
                 else None for kind in ("reward", "cost"))


def ref_policy_from_rule(m, rule):
    states, actions, probs = [], [], []
    for s, d in rule.items():
        s = int(s)
        d = sorted((int(a), float(p)) for a, p in d.items())
        avail = set(m.available[s])
        for a, p in d:
            if a not in avail and p != 0.0:
                raise PolicyMismatch(
                    f"state {m.state_names[s]}: action {m.action_names[a]} "
                    f"not available")
            if p < 0.0 or p > 1 + PROB_TOL:
                raise PolicyMismatch(
                    f"state {m.state_names[s]}: probability {p} out of range")
        mass = sum(p for a, p in d if a in avail)
        if abs(mass - 1.0) > PROB_TOL:
            raise PolicyMismatch(
                f"state {m.state_names[s]}: probabilities sum to {mass}")
        states.extend([s] * len(d))
        actions.extend(a for a, _ in d)
        probs.extend(p for _, p in d)
    idx, found = m.pair_index(states, actions)
    probs = np.array(probs, dtype=float)
    keep = found & (probs != 0.0)
    w = np.zeros(m.n_pairs)
    w[idx[keep]] = probs[keep]
    return w


def ref_parse_policy(text, m):
    rule = {}
    sidx = ref_first_index(m.state_names)
    aidx = ref_first_index(m.action_names)
    for ln, line in ref_lines(text):
        tok = line.split()
        if tok[0] != "rule":
            raise ParseError(f"unknown directive {tok[0]!r}", ln)
        if len(tok) != 4:
            raise ParseError("rule <state> <action> <prob>", ln)
        _, s, a, prob = tok
        if s not in sidx:
            raise ParseError(f"unknown state {s!r}", ln)
        if a not in aidx:
            raise ParseError(f"unknown action {a!r}", ln)
        row = rule.setdefault(sidx[s], {})
        if aidx[a] in row:
            raise ParseError(f"duplicate rule {s} {a}", ln)
        row[aidx[a]] = ref_prob(prob, ln)
    return ref_policy_from_rule(m, rule)


REF_ACC_PAIR = re.compile(r"Fin\s*\(\s*(\d+)\s*\)\s*&\s*Inf\s*\(\s*(\d+)\s*\)")


class RefGuardParser:
    def __init__(self, text, ln):
        self.toks = re.findall(r"\d+|[!&|()tf]", text)
        if "".join(self.toks).replace(" ", "") != text.replace(" ", ""):
            raise ParseError(f"bad guard {text!r}", ln)
        self.pos = 0
        self.ln = ln

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self):
        node = self._expr()
        if self._peek() is not None:
            raise ParseError(f"trailing guard tokens", self.ln)
        return node

    def _expr(self):
        node = self._term()
        while self._peek() == "|":
            self._next()
            node = ("or", node, self._term())
        return node

    def _term(self):
        node = self._factor()
        while self._peek() == "&":
            self._next()
            node = ("and", node, self._factor())
        return node

    def _factor(self):
        tok = self._next()
        if tok == "!":
            return ("not", self._factor())
        if tok == "(":
            node = self._expr()
            if self._next() != ")":
                raise ParseError("unbalanced parenthesis in guard", self.ln)
            return node
        if tok == "t":
            return ("true",)
        if tok == "f":
            return ("false",)
        if tok is not None and tok.isdigit():
            return ("ap", int(tok))
        raise ParseError(f"unexpected guard token {tok!r}", self.ln)


def ref_eval_guard(node, present):
    op = node[0]
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "ap":
        return node[1] in present
    if op == "not":
        return not ref_eval_guard(node[1], present)
    if op == "and":
        return ref_eval_guard(node[1], present) and \
            ref_eval_guard(node[2], present)
    return ref_eval_guard(node[1], present) or \
        ref_eval_guard(node[2], present)


def ref_parse_dra(text):
    n_states = start = ap = pairs_idx = None
    body = []
    in_body = False
    seen = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("/*"):
            continue
        if line == "--BODY--":
            in_body = True
            continue
        if line == "--END--":
            in_body = False
            continue
        if in_body:
            body.append((ln, line))
            continue
        if line.startswith("HOA:"):
            continue
        for head in ("States:", "Start:", "AP:", "Acceptance:"):
            if line.startswith(head):
                if head in seen:
                    raise ParseError(f"duplicate {head} header", ln)
                seen.add(head)
        if line.startswith(("States:", "Start:")) and \
                len(line.split()) != 2:
            raise ParseError(f"bad header line {line!r}", ln)
        if line.startswith("States:"):
            n_states = int(line.split()[1])
        elif line.startswith("Start:"):
            start = int(line.split()[1])
        elif line.startswith("AP:"):
            if not re.fullmatch(r'AP:\s+\d+(\s+"[^"]*")*', line):
                raise ParseError(f"bad header line {line!r}", ln)
            names = re.findall(r'"([^"]*)"', line)
            count = int(line.split()[1])
            if count != len(names):
                raise ParseError("AP count disagrees with names", ln)
            dup = next((p for i, p in enumerate(names) if p in names[:i]),
                       None)
            if dup is not None:
                raise ParseError(f"duplicate AP {dup!r}", ln)
            ap = names
        elif line.startswith("Acceptance:"):
            rest = line.split(":", 1)[1].strip()
            mo = re.match(r"(\d+)\s+(.*)$", rest)
            if not mo:
                raise ParseError("bad Acceptance header", ln)
            n_acc_sets = int(mo.group(1))
            terms = [t.strip() for t in mo.group(2).split("|")]
            pairs_idx = []
            for t in terms:
                pm = REF_ACC_PAIR.fullmatch(t)
                if not pm:
                    raise ParseError(
                        f"acceptance term {t!r} is not Fin(b)&Inf(g)", ln)
                pairs_idx.append((int(pm.group(1)), int(pm.group(2))))
            if any(i >= n_acc_sets or j >= n_acc_sets for i, j in pairs_idx):
                raise ParseError("acceptance set index out of range", ln)
        elif line.startswith(("acc-name:", "name:", "tool:", "properties:")):
            continue
        else:
            raise ParseError(f"unknown header line {line!r}", ln)
    if None in (n_states, start, ap, pairs_idx):
        raise ParseError("missing required HOA headers")

    state_re = re.compile(r"State:\s*(\d+)\s*(\{([\d\s]*)\})?\s*$")
    edge_re = re.compile(r"\[(.*)\]\s*(\d+)\s*$")
    memberships, edges = {}, {}
    current = None
    for ln, line in body:
        mo = state_re.match(line)
        if mo:
            current = int(mo.group(1))
            if current in edges:
                raise ParseError(f"duplicate State: {current}", ln)
            sets = [int(x) for x in (mo.group(3) or "").split()]
            memberships[current] = sets
            edges[current] = []
            continue
        mo = edge_re.match(line)
        if mo and current is not None:
            guard = RefGuardParser(mo.group(1), ln).parse()
            edges[current].append((guard, int(mo.group(2)), ln))
            continue
        raise ParseError(f"bad body line {line!r}", ln)
    if set(edges) != set(range(n_states)):
        raise ParseError("body does not define every state exactly once")
    for q, sets in memberships.items():
        for idx in sets:
            if idx >= n_acc_sets:
                raise ParseError(f"state {q} references acceptance set {idx} "
                                 "beyond the declared count")
    for q in range(n_states):
        for guard, dest, ln in edges[q]:
            if not (0 <= dest < n_states):
                raise ParseError(f"edge to unknown state {dest}")
    symbols = []
    n_ap = len(ap)
    for bits in range(2 ** n_ap):
        present = {i for i in range(n_ap) if bits & (1 << i)}
        symbols.append((present, frozenset(ap[i] for i in present)))
    delta = {}
    for q in range(n_states):
        for present, sym in symbols:
            hits = [(dest, ln) for guard, dest, ln in edges[q]
                    if ref_eval_guard(guard, present)]
            if len(hits) > 1:
                raise NondeterminismError(
                    f"state {q}: symbol {set(sym) or '{}'} matches "
                    f"{len(hits)} edges", hits[1][1])
            if not hits:
                raise IncompletenessError(
                    f"state {q}: no edge for symbol {set(sym) or '{}'}")
            delta[(q, sym)] = hits[0][0]
    pairs = []
    for fin_i, inf_i in pairs_idx:
        b = {q for q, sets in memberships.items() if fin_i in sets}
        g = {q for q, sets in memberships.items() if inf_i in sets}
        pairs.append((b, g))
    return Dra.from_table(n_states, start, ap,
                          [[delta[(q, sym)] for _, sym in symbols]
                           for q in range(n_states)], pairs)


# --- comparing outcomes --------------------------------------------------

def _run(fn, *args):
    try:
        return fn(*args), None
    except Exception as e:  # the failure itself is what is compared
        return None, e


def same_model(a, b):
    assert (a.state_names, a.action_names, a.initial, a.atomic_props,
            a.labels) == (b.state_names, b.action_names, b.initial,
                          b.atomic_props, b.labels)
    for name in ("state_ptr", "pair_action", "succ_ptr", "succ_state",
                 "succ_prob"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def same_utilities(got, ref):
    for fn, arrays in zip(got, ref):
        assert (fn is None) == (arrays is None)
        if fn is not None:
            for x, y in zip((fn.states, fn.actions, fn.vals), arrays):
                assert x.dtype == y.dtype and np.array_equal(x, y)


def same_policy(got, ref):
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert not got.flags.writeable


def same_dra(got, ref):
    assert (got.n_states, got.initial, got.ap, got.pairs) == \
        (ref.n_states, ref.initial, ref.ap, ref.pairs)
    assert list(got.delta.items()) == list(ref.delta.items())


def every_symbol_product(parse):
    """The text -> product function of parse on a model whose four states
    carry the four symbols over AP, so that the product reads every
    automaton state on every symbol."""
    syms = alphabet(AP)
    n = len(syms)
    m = Mdp([f"s{i}" for i in range(n)], ["a"], 0,
            {(i, 0): {j: 1 / n for j in range(n)} for i in range(n)}, AP,
            syms)
    return lambda text: build_product(m, parse(text))


def same_product(got, ref):
    same_model(got, ref)
    assert got.components == ref.components
    for x, y in zip(got.acc_pairs, ref.acc_pairs, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(x, y))


def check_parity(new, ref, same, *args):
    """new(*args) and ref(*args) agree: equal results, or the same
    exception class, message and line.  Returns the reference's error."""
    got, err = _run(new, *args)
    want, ref_err = _run(ref, *args)
    if ref_err is None:
        assert err is None, f"{type(err).__name__}: {err}"
        same(got, want)
        return None
    assert err is not None, f"accepted; the reference raised {ref_err}"
    assert type(err) is type(ref_err), (err, ref_err)
    assert str(err) == str(ref_err)
    assert getattr(err, "line", None) == getattr(ref_err, "line", None)
    if isinstance(ref_err, ValidationError):
        assert err.violations == ref_err.violations
    return ref_err


# --- valid texts -----------------------------------------------------------

def labeled_model(rng):
    m = random_mdp(rng, int(rng.integers(2, 8)), int(rng.integers(2, 5)),
                   p_avail=0.6)
    props = AP + ("c",) if rng.random() < 0.5 else AP
    labels = [frozenset(p for p in props if rng.random() < 0.35)
              for _ in range(m.n_states)]
    return Mdp(m.state_names, m.action_names, m.initial, m.trans, props,
               labels)


def odd_spelling(rng, x):
    """Another decimal spelling of x, with the same value."""
    spellings = [repr(x), f"{x:.17e}", f"{x:.17E}", f"{x:.20f}".rstrip("0")]
    if x >= 0:
        spellings.append(f"+{x!r}")
    if x < 1:
        spellings.append(f"{x!r}".replace("0.", ".", 1))
    return spellings[int(rng.integers(len(spellings)))]


def decorate(text, rng, shuffle_from=None):
    """The same document with comments, blank lines, tabs, runs of spaces,
    odd decimal spellings and, from line shuffle_from on, its lines in a
    random order."""
    lines = text.splitlines()
    if shuffle_from is not None:
        head, tail = lines[:shuffle_from], lines[shuffle_from:]
        tail = [tail[i] for i in rng.permutation(len(tail))]
        lines = head + tail
    out = []
    for line in lines:
        tok = line.split()
        if tok and tok[0] in ("trans", "rule", "reward", "cost") and \
                rng.random() < 0.3:
            tok[-1] = odd_spelling(rng, float(tok[-1]))
        sep = (" ", "\t", "  ", " \t ")[int(rng.integers(4))]
        line = sep.join(tok) if tok else line
        if rng.random() < 0.2:
            line = "\t" + line
        if rng.random() < 0.2:
            line += "   # trailing note"
        out.append(line)
        if rng.random() < 0.15:
            extra = ("", "# comment", "   ", "\t# x y")
            out.append(extra[int(rng.integers(len(extra)))])
    return "\n".join(out) + ("\n" if rng.random() < 0.8 else "")


def model_text(rng, m, r=None, c=None):
    """m's text, decorated, its trans lines shuffled, and with inline
    reward and cost lines when r and c are given."""
    lines = write_mdp(m).splitlines()
    first_trans = next(i for i, l in enumerate(lines) if l.startswith("trans"))
    if r is not None:
        lines += write_utilities(m, r, c).splitlines()[1:]
    return decorate("\n".join(lines), rng, shuffle_from=first_trans)


def test_mdp_constructor_arrays_match_reference(rng):
    """The dict constructor flattens into the entries builder and gives the
    arrays the row-by-row build gave."""
    for trial in range(40):
        m = random_mdp(rng, int(rng.integers(1, 9)), int(rng.integers(1, 4)))
        items = list(m.trans.items())
        trans = {k: items[i][1] for i in rng.permutation(len(items))
                 for k in [items[i][0]]}
        got = Mdp(m.state_names, m.action_names, m.initial, trans)
        want = Mdp.from_arrays(m.state_names, m.action_names, m.initial,
                               *ref_csr(m.n_states, trans))
        same_model(got, want)


def test_valid_models_parse_to_the_same_arrays(rng):
    for trial in range(60):
        m = labeled_model(rng)
        r, c = random_utility_tables(rng, m)
        text = model_text(rng, m, *((r, c) if rng.random() < 0.5 else ()))
        assert check_parity(parse_mdp, ref_parse_mdp, same_model, text) \
            is None


def test_valid_utilities_parse_to_the_same_tables(rng):
    for trial in range(60):
        m = labeled_model(rng)
        r, c = random_utility_tables(rng, m)
        kinds = [(r, c), (r, None), (None, c)][int(rng.integers(3))]
        text = decorate(write_utilities(m, *kinds), rng, shuffle_from=1)
        if rng.random() < 0.3:   # a model file with its utilities inline
            text = model_text(rng, m, r, c)
        assert check_parity(parse_utilities, ref_parse_utilities,
                            same_utilities, text, m) is None


def test_valid_policies_parse_to_the_same_vector(rng):
    for trial in range(60):
        m = labeled_model(rng)
        rule = random_rule(rng, m)
        if rng.random() < 0.5:   # a partial policy, some rules deterministic
            for s in list(rule):
                if rng.random() < 0.4:
                    del rule[s]
                elif rng.random() < 0.3:
                    rule[s] = {m.available[s][0]: 1.0}
        text = decorate(write_policy(m, rule_policy(m, rule)), rng,
                        shuffle_from=1)
        assert check_parity(parse_policy, ref_parse_policy, same_policy,
                            text, m) is None


def compact_guards(text, rng):
    """write_dra's text with the edges of a state that share a destination
    merged, in a random order, into one disjunction."""
    out, edges = [], []

    def flush():
        by_dest = {}
        for guard, dest in edges:
            by_dest.setdefault(dest, []).append(guard)
        items = list(by_dest.items())
        for i in rng.permutation(len(items)):
            dest, guards = items[i]
            out.append(f"[{' | '.join(f'({g})' for g in guards)}] {dest}")
        edges.clear()

    for line in text.splitlines():
        mo = re.fullmatch(r"\[(.*)\] (\d+)", line)
        if mo:
            edges.append((mo.group(1), mo.group(2)))
            continue
        flush()
        out.append(line)
    return "\n".join(out) + "\n"


def dra_text(rng, d):
    text = write_dra(d)
    if rng.random() < 0.5:
        text = compact_guards(text, rng)
    lines = text.splitlines()
    lines.insert(1, "/* a comment line */")
    lines.insert(2, 'name: "random"')
    return "\n".join(lines) + "\n"


def test_valid_automata_parse_to_the_same_transitions(rng):
    for trial in range(60):
        d = random_dra(rng, int(rng.integers(1, 5)))
        assert check_parity(parse_dra, ref_parse_dra, same_dra,
                            dra_text(rng, d)) is None


def test_validate_mdp_reports_the_same_violations(rng):
    for trial in range(100):
        m = random_mdp(rng, int(rng.integers(1, 7)), 3)
        trans = {k: dict(v) for k, v in m.trans.items()}
        for (s, a), dist in trans.items():
            for t in dist:
                x = rng.random()
                if x < 0.1:
                    dist[t] += 1e-6
                elif x < 0.15:
                    dist[t] = -dist[t]
                elif x < 0.2:
                    dist[t] = 1.5
        if rng.random() < 0.3:   # a state loses its every action
            s = int(rng.integers(m.n_states))
            trans = {k: v for k, v in trans.items() if k[0] != s}
        labels = [frozenset({"g"}) if rng.random() < 0.3 else frozenset()
                  for _ in range(m.n_states)]
        x = Mdp(m.state_names, m.action_names,
                m.initial if rng.random() < 0.9 else m.n_states, trans,
                ("g",) if rng.random() < 0.7 else (), labels)
        assert validate_mdp(x) == ref_validate_mdp(x)


def test_policy_from_entries_reports_the_same_fault(rng):
    """A rule's entries, read by policy_from_entries, fail as the reference
    reads the rule; a state left with no entry at all is not listed."""
    seen = set()
    for trial in range(300):
        m = labeled_model(rng)
        rule = random_rule(rng, m)
        for s in list(rule):
            x = rng.random()
            a = int(rng.integers(m.n_actions))
            if x < 0.1:     # mass above 1
                rule[s][a] = rule[s].get(a, 0.0) + 0.25
            elif x < 0.15:  # a zero, maybe on an unavailable action
                rule[s][a] = 0.0
            elif x < 0.2:   # maybe an unavailable action
                rule[s] = {a: 1.0}
            elif x < 0.25:  # out of range
                rule[s][a] = -0.5
            elif x < 0.3:   # no available action, maybe no action at all
                rule[s] = {a: 0.0 for a in range(m.n_actions)
                           if a not in m.available[s]}
        rule = {s: d for s, d in rule.items() if d}
        err = check_parity(rule_policy, ref_policy_from_rule,
                           same_policy, m, rule)
        seen.add(str(err).split(": ")[-1].split()[0] if err else None)
    assert {None, "action", "probability", "probabilities"} <= seen


# --- malformed texts ---------------------------------------------------------

MODEL = """\
# a hand-written model
mdp
states: s0 s1 s2
actions: a b c
props: g h
initial: s0
label s1: g
label s2: g h
trans s0 a s1 0.5
trans s0 a s2 0.5
trans s0 b s0 1.0
trans s1 a s2 1
trans s2 a s0 .25
trans s2 a s2 7.5e-1
reward s0 a 1.0
"""

BAD_DECIMALS = ("1e", "inf", "nan", "1_0", "-inf", "Infinity", "NaN", "+",
                ".", "e5", "0x1", "1.0.0", "1,5", "½", "--1", "1e+")


def _replace(text, n, new):
    """text with line n (1-based) replaced by new."""
    lines = text.split("\n")
    lines[n - 1] = new
    return "\n".join(lines)


MODEL_CASES = {
    "unknown source state": (9, "trans zz a s1 0.5"),
    "unknown successor": (9, "trans s0 a zz 0.5"),
    "unknown action": (9, "trans s0 zz s1 0.5"),
    "unknown prop": (7, "label s1: zz"),
    "label without colon": (7, "label s1 g"),
    "unknown label state": (7, "label zz: g"),
    "short trans": (9, "trans s0 a s1"),
    "long trans": (9, "trans s0 a s1 0.5 0.5"),
    "unknown directive": (9, "transition s0 a s1 0.5"),
    "duplicate transition": (10, "trans s0 a s1 0.5"),
    "duplicate state": (3, "states: s0 s1 s2 s1"),
    "duplicate action": (4, "actions: a b a"),
    "duplicate prop": (5, "props: g h g"),
    "unknown initial": (6, "initial: zz"),
    "two initials": (6, "initial: s0 s1"),
    "row sum off by 1e-6": (9, "trans s0 a s1 0.500001"),
    "row sum off within tolerance": (9, "trans s0 a s1 0.5000000001"),
    "decimal in other digits": (9, "trans s0 a s1 \u0660.\u0665"),
    "probability above one": (11, "trans s0 b s0 1.5"),
    "negative probability": (12, "trans s1 a s2 -1"),
    "a state without action": (13, "trans s0 c s2 0.25"),
    "no initial": (6, "# initial: s0"),
    "repeated initial": (6, "initial: s0\ninitial: s1"),
    "repeated label": (8, "label s2: g h\nlabel s2: g"),
    **{f"bad decimal {tok}": (9, f"trans s0 a s1 {tok}")
       for tok in BAD_DECIMALS},
}


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
def test_malformed_model_fails_the_same_way(case):
    n, line = MODEL_CASES[case]
    text = _replace(MODEL, n, line)
    err = check_parity(parse_mdp, ref_parse_mdp, same_model, text)
    assert (err is None) == (case in ("row sum off within tolerance",
                                      "decimal in other digits"))


# Corruptions of one line, keyed by what they do.  The structural ones stop
# the line loop; a repeat and a bad literal are found in bulk after it.
def _structural(n, text):
    return _replace(text, n, "trans s0 zz s1 0.5")


def _deferred_decimal(n, text):
    return _replace(text, n, "trans s0 a s1 1_0")


def _deferred_repeat(n, text):
    line = text.split("\n")[n - 1]
    return _replace(text, n, line.replace("s2 a s2", "s2 a s0")
                    .replace("s0 a s2", "s0 a s1"))


@pytest.mark.parametrize("first", [_structural, _deferred_decimal,
                                   _deferred_repeat])
@pytest.mark.parametrize("second", [_structural, _deferred_decimal,
                                    _deferred_repeat])
def test_first_bad_line_wins(first, second):
    """Two faults, on lines 10 and 14 or the other way round: the earlier
    line's is reported, whichever check finds it."""
    for a, b in ((10, 14), (14, 10)):
        text = second(b, first(a, MODEL))
        err = check_parity(parse_mdp, ref_parse_mdp, same_model, text)
        assert err.line == min(a, b)


def test_repeat_and_bad_literal_on_one_line():
    """A repeated transition whose literal is bad too is reported as the
    repeat, as the line-by-line check saw it first."""
    text = _replace(MODEL, 10, "trans s0 a s1 inf")
    err = check_parity(parse_mdp, ref_parse_mdp, same_model, text)
    assert str(err) == "line 10: duplicate transition s0 a s1"


def _corrupt_line(rng, line, names):
    """One random corruption of a line, from a menu that covers every
    check of the line-level parsers."""
    tok = line.split()
    if not tok:
        return "zz"
    kind = int(rng.integers(7))
    if kind == 0 and len(tok) > 1:    # an unknown name
        i = int(rng.integers(1, len(tok)))
        tok[i] = "zz" + tok[i] if rng.random() < 0.5 else \
            names[int(rng.integers(len(names)))]
    elif kind == 1:                   # a bad or odd decimal
        tok[-1] = (BAD_DECIMALS + ("1.", "+.5", "0.0", "-0.0", "1e0"))[
            int(rng.integers(len(BAD_DECIMALS) + 5))]
    elif kind == 2 and len(tok) > 1:  # wrong arity
        del tok[int(rng.integers(1, len(tok)))]
    elif kind == 3:
        tok.append(tok[-1])
    elif kind == 4:                   # unknown directive
        tok[0] = tok[0] + "s"
    elif kind == 5:                   # a value nudged
        try:
            tok[-1] = repr(float(tok[-1]) + float(rng.choice([1e-6, 1e-10,
                                                               0.5, -2.0])))
        except ValueError:
            tok[-1] = "0.5"
    else:                             # the line is repeated below
        return line + "\n" + " ".join(tok)
    return " ".join(tok)


def corrupted(rng, text, names, lines=None):
    """text with one or two of its lines (from `lines`, default any)
    corrupted."""
    out = text.split("\n")
    pool = lines if lines is not None else range(len(out) - 1)
    for _ in range(int(rng.integers(1, 3))):
        i = int(rng.choice(pool))
        out[i] = _corrupt_line(rng, out[i], names)
    return "\n".join(out)


def test_random_model_corruptions_fail_the_same_way(rng):
    failures = 0
    for trial in range(400):
        m = labeled_model(rng)
        r, c = random_utility_tables(rng, m)
        text = model_text(rng, m, r, c)
        names = list(m.state_names + m.action_names + m.atomic_props)
        bad = corrupted(rng, text, names)
        failures += check_parity(parse_mdp, ref_parse_mdp, same_model,
                                 bad) is not None
    assert failures > 250


UTILITIES = """\
# costs and rewards
reward s0 a 1.0
reward s0 b 2
cost s0 a 0.5
reward s1 a -1.5
cost s0 b .5
reward s2 a 0
cost s1 a 1e0
cost s2 a 3
"""

UTILITY_CASES = {
    "unknown state": (2, "reward zz a 1.0"),
    "unknown action": (3, "reward s0 zz 2"),
    "short line": (4, "cost s0 a"),
    "long line": (4, "cost s0 a 0.5 1"),
    "duplicate entry": (5, "reward s0 a 1.0"),
    "zero cost": (6, "cost s0 b 0"),
    "negative cost": (8, "cost s1 a -1"),
    "missing entry": (7, "# reward s2 a 0"),
    **{f"bad decimal {tok}": (4, f"cost s0 a {tok}") for tok in BAD_DECIMALS},
}


@pytest.mark.parametrize("case", sorted(UTILITY_CASES))
def test_malformed_utilities_fail_the_same_way(case):
    m = ref_parse_mdp(MODEL)
    n, line = UTILITY_CASES[case]
    assert check_parity(parse_utilities, ref_parse_utilities, same_utilities,
                        _replace(UTILITIES, n, line), m) is not None


def test_random_utility_corruptions_fail_the_same_way(rng):
    failures = 0
    for trial in range(400):
        m = labeled_model(rng)
        r, c = random_utility_tables(rng, m)
        text = decorate(write_utilities(m, r, c), rng, shuffle_from=1)
        names = list(m.state_names + m.action_names) + ["reward", "cost"]
        failures += check_parity(parse_utilities, ref_parse_utilities,
                                 same_utilities, corrupted(rng, text, names),
                                 m) is not None
    assert failures > 250


POLICY = """\
# policy
rule s2 a 1.0
rule s0 b 0.25
rule s0 a 0.75
rule s1 a 1
"""

POLICY_CASES = {
    "unknown directive": (3, "rules s0 b 0.25"),
    "short rule": (3, "rule s0 b"),
    "unknown state": (3, "rule zz b 0.25"),
    "unknown action": (3, "rule s0 zz 0.25"),
    "duplicate rule": (4, "rule s0 b 0.75"),
    "action not available": (5, "rule s1 b 1"),
    "zero on an unavailable action": (5, "rule s1 b 0"),
    "mass off": (4, "rule s0 a 0.7"),
    "out of range": (4, "rule s0 a 1.75"),
    **{f"bad decimal {tok}": (3, f"rule s0 b {tok}") for tok in BAD_DECIMALS},
}


@pytest.mark.parametrize("case", sorted(POLICY_CASES))
def test_malformed_policy_fails_the_same_way(case):
    m = ref_parse_mdp(MODEL)
    n, line = POLICY_CASES[case]
    assert check_parity(parse_policy, ref_parse_policy, same_policy,
                        _replace(POLICY, n, line), m) is not None


def test_policy_faults_are_reported_in_listing_order():
    """Two faulty states: the one listed first is reported, whatever the
    state numbers."""
    m = ref_parse_mdp(MODEL)
    text = "rule s2 a 0.5\nrule s0 a 0.5\nrule s2 b 0.5\n"
    err = check_parity(parse_policy, ref_parse_policy, same_policy, text, m)
    assert "state s2" in str(err)


def test_random_policy_corruptions_fail_the_same_way(rng):
    failures = 0
    for trial in range(400):
        m = labeled_model(rng)
        if rng.random() < 0.3:   # a product's names and actions
            m = build_product(
                Mdp(m.state_names, m.action_names, m.initial, m.trans, AP,
                    [lab & set(AP) for lab in m.labels]),
                random_dra(rng, 2))
        text = decorate(write_policy(m, rule_policy(
            m, random_rule(rng, m))), rng, shuffle_from=1)
        names = list(m.state_names[:4] + m.action_names) + ["rule"]
        failures += check_parity(parse_policy, ref_parse_policy, same_policy,
                                 corrupted(rng, text, names), m) is not None
    assert failures > 250


AUTOMATON = """\
HOA: v1
States: 2
Start: 0
AP: 2 "g" "b"
Acceptance: 4 Fin(0) & Inf(1) | Fin(2) & Inf(3)
--BODY--
State: 0 {0}
[!0 & !1] 0
[0 & !1] 1
[1] 1
State: 1 {1 3}
[t] 0
--END--
"""

DRA_CASES = {
    "guard overlap": (10, "[0] 1"),
    "guard overlap at the empty symbol": (9, "[t] 1"),
    "guard gap": (10, "[f] 1"),
    "guard gap at the empty symbol": (8, "[0 & 1] 0"),
    "AP index beyond AP:": (10, "[2] 1"),
    "negated AP index beyond AP: always holds": (8, "[!0 & !1 & !5] 0"),
    "edge to an unknown state": (10, "[1] 7"),
    "bad guard token": (10, "[1 ^ 0] 1"),
    "unbalanced parenthesis": (10, "[(1] 1"),
    "trailing guard tokens": (10, "[1 0] 1"),
    "empty guard": (10, "[] 1"),
    "bad body line": (10, "1 1"),
    "duplicate State:": (11, "State: 0"),
    "missing state": (11, "State: 2 {1 3}"),
    "acceptance set beyond the count": (11, "State: 1 {1 4}"),
    "unknown header": (4, 'APs: 2 "g" "b"'),
    "AP count mismatch": (4, 'AP: 3 "g" "b"'),
    "duplicate AP": (4, 'AP: 2 "g" "g"'),
    "bad Acceptance header": (5, "Acceptance: Fin(0) & Inf(1)"),
    "non-Rabin term": (5, "Acceptance: 2 Inf(1)"),
    "acceptance index out of range": (5, "Acceptance: 2 Fin(0) & Inf(3)"),
    "missing header": (3, "name: x"),
    "edge before any State:": (7, "[t] 0"),
    "repeated States:": (2, "States: 2\nStates: 2"),
    "repeated Start:": (3, "Start: 0\nStart: 1"),
    "repeated AP:": (4, 'AP: 2 "g" "b"\nAP: 2 "b" "g"'),
    "repeated Acceptance:": (5, "Acceptance: 2 Fin(0) & Inf(1)\n"
                                "Acceptance: 2 Fin(1) & Inf(0)"),
    "extra States: token": (2, "States: 2 7"),
    "Start: conjunction": (3, "Start: 0 & 1"),
    "stray AP: token": (4, 'AP: 2 x "g" "b"'),
}


@pytest.mark.parametrize("case", sorted(DRA_CASES))
def test_malformed_automaton_fails_the_same_way(case):
    """Parsed and read by the product on every symbol, as the reference
    checks each state on every symbol as it parses."""
    n, line = DRA_CASES[case]
    err = check_parity(every_symbol_product(parse_dra),
                       every_symbol_product(ref_parse_dra), same_product,
                       _replace(AUTOMATON, n, line))
    assert (err is None) == case.endswith("always holds")


def test_random_guard_corruptions_fail_the_same_way(rng):
    """Guards rewritten at random (literals dropped, negated, widened to t
    or f, pointed past the APs): overlaps, gaps and bad destinations are
    reported for the same symbol and line once the product has read every
    symbol."""
    kinds = set()
    for trial in range(300):
        d = random_dra(rng, int(rng.integers(1, 4)))
        lines = dra_text(rng, d).split("\n")
        edges = [i for i, l in enumerate(lines) if l.startswith("[")]
        for _ in range(int(rng.integers(1, 3))):
            i = int(rng.choice(edges))
            guard, dest = re.fullmatch(r"\[(.*)\] (\d+)", lines[i]).groups()
            x = rng.random()
            if x < 0.2:
                guard = "t"
            elif x < 0.35:
                guard = "f"
            elif x < 0.55:
                guard = f"!({guard})"
            elif x < 0.7:
                guard = re.sub(r"\d+", lambda mo: str(int(rng.integers(4))),
                               guard)
            elif x < 0.85:
                guard = guard.split("&")[0].split("|")[0].strip("() ") or "t"
            else:
                dest = str(int(rng.integers(d.n_states + 2)))
            lines[i] = f"[{guard}] {dest}"
        err = check_parity(every_symbol_product(parse_dra),
                           every_symbol_product(ref_parse_dra),
                           same_product, "\n".join(lines))
        kinds.add(type(err).__name__)
    assert {"NondeterminismError", "IncompletenessError", "ParseError",
            "NoneType"} <= kinds
