"""Deterministic readers and writers for the four text formats: model files,
Rabin automata (a HOA-style subset), utility tables, and policy files.

Grammars live in docs/formats.md.  Parsing is bit-exact and order-preserving:
identical bytes produce identical structures, and writers emit canonical text
(sorted keys, 12 significant digits) so write-then-parse is the identity
within 1e-12.
"""

import re

import numpy as np

from .model import (Dra, Mdp, UtilityFn, policy_domain, policy_from_rule,
                    validate_mdp)


class ParseError(Exception):
    def __init__(self, msg, line=None):
        self.line = line
        super().__init__(f"line {line}: {msg}" if line else msg)


class ValidationError(Exception):
    def __init__(self, violations):
        self.violations = list(violations)
        first = self.violations[0]
        super().__init__(
            f"{len(self.violations)} violation(s), first: {first.kind} "
            f"({first.detail})")


class NondeterminismError(ParseError):
    pass


class IncompletenessError(ParseError):
    pass


def _lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def _parse_prob(tok, ln):
    if not _DECIMAL.fullmatch(tok):
        raise ParseError(f"bad decimal literal {tok!r}", ln)
    return float(tok)


def _first_index(names):
    """name -> index of its first occurrence, as tuple.index would give."""
    idx = {}
    for i, name in enumerate(names):
        idx.setdefault(name, i)
    return idx


def parse_mdp(text) -> Mdp:
    """Line-oriented model format; indices follow declaration order."""
    states = []
    actions = []
    props = []
    initial = None
    labels = {}
    trans = {}
    sidx = {}
    aidx = {}
    pidx = {}
    for ln, line in _lines(text):
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
            if len(tok) != 2 or tok[1] not in sidx:
                raise ParseError("initial: needs one declared state", ln)
            initial = sidx[tok[1]]
        elif head == "label":
            if len(tok) < 2 or not tok[1].endswith(":"):
                raise ParseError("label <state>: <props...>", ln)
            name = tok[1][:-1]
            if name not in sidx:
                raise ParseError(f"unknown state {name!r}", ln)
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
            row[sidx[t]] = _parse_prob(prob, ln)
        elif head in ("reward", "cost"):
            continue  # utility lines are read by parse_utilities
        else:
            raise ParseError(f"unknown directive {head!r}", ln)
    if not states:
        raise ParseError("no states declared")
    if initial is None:
        raise ParseError("no initial state")
    m = Mdp(states, actions, initial, trans, props,
            [labels.get(s, frozenset()) for s in range(len(states))])
    violations = validate_mdp(m)
    if violations:
        raise ValidationError(violations)
    return m


def parse_utilities(text, m: Mdp):
    """Reward/cost lines from a model file or a standalone table.

    Returns (reward, cost); a kind missing entirely comes back as None, but a
    kind that is present must cover every available state-action pair.
    """
    entries = {"reward": {}, "cost": {}}
    sidx = _first_index(m.state_names)
    aidx = _first_index(m.action_names)
    for ln, line in _lines(text):
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
        entries[tok[0]][key] = _parse_prob(val, ln)
    out = []
    for kind in ("reward", "cost"):
        if not entries[kind]:
            out.append(None)
            continue
        fn = UtilityFn(entries[kind], kind)
        fn.pair_values(m)  # raises unless every pair has a value
        out.append(fn)
    return tuple(out)


# --- HOA-subset Rabin automata ------------------------------------------

_ACC_PAIR = re.compile(r"Fin\s*\(\s*(\d+)\s*\)\s*&\s*Inf\s*\(\s*(\d+)\s*\)")


class _GuardParser:
    """Boolean guards over AP indices: literals, !, &, |, parentheses, t/f."""

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


def _eval_guard(node, present):
    op = node[0]
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "ap":
        return node[1] in present
    if op == "not":
        return not _eval_guard(node[1], present)
    if op == "and":
        return _eval_guard(node[1], present) and _eval_guard(node[2], present)
    return _eval_guard(node[1], present) or _eval_guard(node[2], present)


def parse_dra(text) -> Dra:
    """HOA-subset automata: Rabin acceptance only, state-based membership,
    one deterministic and complete guard set per state."""
    n_states = None
    start = None
    ap = None
    pairs_idx = None
    body = []
    in_body = False
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
        if line.startswith("States:"):
            n_states = int(line.split()[1])
        elif line.startswith("Start:"):
            start = int(line.split()[1])
        elif line.startswith("AP:"):
            names = re.findall(r'"([^"]*)"', line)
            count = int(line.split()[1])
            if count != len(names):
                raise ParseError("AP count disagrees with names", ln)
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
                pm = _ACC_PAIR.fullmatch(t)
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
    memberships = {}
    edges = {}
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
            guard = _GuardParser(mo.group(1), ln).parse()
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

    symbols = []
    n_ap = len(ap)
    for bits in range(2 ** n_ap):
        present = {i for i in range(n_ap) if bits & (1 << i)}
        symbols.append((present, frozenset(ap[i] for i in present)))

    delta = {}
    for q in range(n_states):
        for present, sym in symbols:
            hits = [(dest, ln) for guard, dest, ln in edges[q]
                    if _eval_guard(guard, present)]
            if len(hits) > 1:
                raise NondeterminismError(
                    f"state {q}: symbol {set(sym) or '{}'} matches "
                    f"{len(hits)} edges", hits[1][1])
            if not hits:
                raise IncompletenessError(
                    f"state {q}: no edge for symbol {set(sym) or '{}'}")
            dest = hits[0][0]
            if not (0 <= dest < n_states):
                raise ParseError(f"edge to unknown state {dest}")
            delta[(q, sym)] = dest

    pairs = []
    for fin_i, inf_i in pairs_idx:
        b = {q for q, sets in memberships.items() if fin_i in sets}
        g = {q for q, sets in memberships.items() if inf_i in sets}
        pairs.append((b, g))
    return Dra(n_states, start, ap, delta, pairs)


# --- canonical writers ----------------------------------------------------

def _fmt(x):
    return f"{x:.12g}"


def write_mdp(m: Mdp) -> str:
    out = ["mdp"]
    out.append("states: " + " ".join(m.state_names))
    out.append("actions: " + " ".join(m.action_names))
    if m.atomic_props:
        out.append("props: " + " ".join(m.atomic_props))
    out.append(f"initial: {m.state_names[m.initial]}")
    for s in range(m.n_states):
        if m.labels[s]:
            out.append(f"label {m.state_names[s]}: " +
                       " ".join(sorted(m.labels[s])))
    succ, prob, ptr = (m.succ_state.tolist(), m.succ_prob.tolist(),
                       m.succ_ptr.tolist())
    for j, (s, a) in enumerate(m.state_action_pairs()):
        for k in range(ptr[j], ptr[j + 1]):
            out.append(f"trans {m.state_names[s]} {m.action_names[a]} "
                       f"{m.state_names[succ[k]]} {_fmt(prob[k])}")
    return "\n".join(out) + "\n"


def write_utilities(m: Mdp, reward=None, cost=None) -> str:
    out = ["# utility table"]
    for kind, fn in (("reward", reward), ("cost", cost)):
        if fn is None:
            continue
        for s, a, v in zip(fn.states.tolist(), fn.actions.tolist(),
                           fn.vals.tolist()):
            out.append(f"{kind} {m.state_names[s]} {m.action_names[a]} "
                       f"{_fmt(v)}")
    return "\n".join(out) + "\n"


def write_dra(d: Dra) -> str:
    """Canonical HOA-subset text with one fully expanded guard per symbol."""
    out = ["HOA: v1",
           f"States: {d.n_states}",
           f"Start: {d.initial}",
           f'AP: {len(d.ap)} ' + " ".join(f'"{p}"' for p in d.ap),
           "Acceptance: " + f"{2 * len(d.pairs)} " +
           " | ".join(f"Fin({2 * i}) & Inf({2 * i + 1})"
                      for i in range(len(d.pairs))),
           "--BODY--"]
    for q in range(d.n_states):
        sets = []
        for i, (b, g) in enumerate(d.pairs):
            if q in b:
                sets.append(2 * i)
            if q in g:
                sets.append(2 * i + 1)
        suffix = (" {" + " ".join(str(x) for x in sets) + "}") if sets else ""
        out.append(f"State: {q}{suffix}")
        for bits in range(2 ** len(d.ap)):
            present = {i for i in range(len(d.ap)) if bits & (1 << i)}
            sym = frozenset(d.ap[i] for i in present)
            lits = [(str(i) if i in present else f"!{i}")
                    for i in range(len(d.ap))] or ["t"]
            out.append(f"[{' & '.join(lits)}] {d.delta[(q, sym)]}")
    out.append("--END--")
    return "\n".join(out) + "\n"


def write_policy(m: Mdp, p, meta=None) -> str:
    """Canonical policy text for the weight vector p over m's pairs: states
    of its domain and their actions sorted by name, zero weights skipped, 12
    significant digits.  meta (a SynthesisReport) is embedded as comments."""
    out = ["# policy"]
    if meta is not None:
        out.append(f"# value: {_fmt(meta.value)}")
        out.append(f"# epsilon: {_fmt(meta.epsilon)}")
        if meta.plan is not None:
            out.append(f"# delta: {_fmt(meta.plan.delta)}")
            out.append(f"# method: {meta.plan.method}")
        out.append(f"# no_perturbation: {meta.no_perturbation}")
    ptr, acts, w = m.state_ptr.tolist(), m.pair_action.tolist(), p.tolist()
    domain = np.flatnonzero(policy_domain(m, p)).tolist()
    for s in sorted(domain, key=lambda s: m.state_names[s]):
        row = sorted(range(ptr[s], ptr[s + 1]),
                     key=lambda j: m.action_names[acts[j]])
        for j in row:
            if w[j] != 0.0:
                out.append(f"rule {m.state_names[s]} "
                           f"{m.action_names[acts[j]]} {_fmt(w[j])}")
    return "\n".join(out) + "\n"


def parse_policy(text, m: Mdp) -> np.ndarray:
    """A policy file as a weight vector over m's pairs (policy_from_rule)."""
    rule = {}
    sidx = _first_index(m.state_names)
    aidx = _first_index(m.action_names)
    for ln, line in _lines(text):
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
        row[aidx[a]] = _parse_prob(prob, ln)
    return policy_from_rule(m, rule)
