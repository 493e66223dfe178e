"""Deterministic readers and writers for the four text formats: model files,
Rabin automata (a HOA-style subset), utility tables, and policy files.

Grammars live in docs/formats.md.  Parsing is bit-exact and order-preserving:
identical bytes produce identical structures, and writers emit canonical text
(sorted keys, 12 significant digits) so write-then-parse is the identity
within 1e-12.

Each reader makes one pass over the lines and fills the arrays the program
uses, with no per-pair dict: a model's transition entries go to csr_arrays,
utility entries to UtilityFn.from_entries, policy rules to
policy_from_entries; utility and rule lines share one reader
(_entry_lines).  The pass checks each line's shape and names; the decimal
literals and repeated keys of all entries are checked in bulk after it
(_entry_values), and a malformed file is reported at its first bad line
whichever check finds it.  An automaton guard is evaluated once, as the
bitset of the symbols it admits.
"""

import re

import numpy as np

from .model import (Dra, Mdp, UtilityFn, alphabet, csr_arrays,
                    policy_domain, policy_from_entries, validate_mdp)


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
    """(line number, tokens) of each line with a token, comments cut."""
    return [(i, tok) for i, raw in enumerate(text.splitlines(), start=1)
            if (tok := raw.split("#", 1)[0].split())]


_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def _decimals(tokens):
    """The values of decimal literal tokens, or None unless every token is
    one (matches _DECIMAL).  float() accepts every such literal, and all it
    accepts besides carries an underscore or is an inf or nan spelling,
    each of which holds an n; so one float pass and one character scan
    decide what a match per token would."""
    joined = "".join(tokens)
    if "_" in joined or "n" in joined or "N" in joined:
        return None
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        return None


def _entry_values(tokens, lines, keys, duplicate):
    """The values of the entries read from a file, one decimal token per
    entry in file order, at lines[i], with keys[i] naming what it sets.

    Raises the ParseError of the first line, in file order, whose key an
    earlier entry already set (worded by duplicate(i)) or whose token is
    not a decimal literal; on one line the repeat is reported first.
    """
    keys = np.asarray(keys, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    again = order[1:][keys[order[1:]] == keys[order[:-1]]]
    first = int(again.min()) if again.size else len(tokens)
    vals = _decimals(tokens)
    if vals is None:
        bad = next(i for i, tok in enumerate(tokens)
                   if not _DECIMAL.fullmatch(tok))
        if bad < first:
            raise ParseError(f"bad decimal literal {tokens[bad]!r}",
                             lines[bad])
    if first < len(tokens):
        raise ParseError(duplicate(first), lines[first])
    return vals


def _first_index(names):
    """name -> index of its first occurrence, as tuple.index would give."""
    return dict(zip(reversed(names), range(len(names) - 1, -1, -1)))


def parse_mdp(text) -> Mdp:
    """Line-oriented model format; indices follow declaration order.  Each
    trans line becomes one (state, action, successor, probability) entry,
    and the model's arrays are built from the entries (csr_arrays)."""
    states = []
    actions = []
    props = []
    initial = None
    labels = {}
    sidx = {}
    aidx = {}
    pidx = {}
    # each declaration line's names, their index and what they name
    declare = {"states:": (states, sidx, "state"),
               "actions:": (actions, aidx, "action"),
               "props:": (props, pidx, "prop")}
    src, act, dst, probs, where = [], [], [], [], []
    error = None
    try:
        for ln, tok in _lines(text):
            head = tok[0]
            if head == "trans":
                if len(tok) != 5:
                    raise ParseError("trans <s> <a> <s'> <prob>", ln)
                _, s, a, t, prob = tok
                for name in (s, t):
                    if name not in sidx:
                        raise ParseError(f"unknown state {name!r}", ln)
                if a not in aidx:
                    raise ParseError(f"unknown action {a!r}", ln)
                src.append(sidx[s])
                act.append(aidx[a])
                dst.append(sidx[t])
                probs.append(prob)
                where.append(ln)
            elif head in ("mdp", "reward", "cost"):
                continue  # utility lines are read by parse_utilities
            elif head in declare:
                names, index, kind = declare[head]
                for name in tok[1:]:
                    if name in index:
                        raise ParseError(f"duplicate {kind} {name!r}", ln)
                    index[name] = len(names)
                    names.append(name)
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
            else:
                raise ParseError(f"unknown directive {head!r}", ln)
    except ParseError as e:
        error = e
    src, act, dst = (np.array(x, dtype=np.int64) for x in (src, act, dst))

    def duplicate(i):
        return (f"duplicate transition {states[src[i]]} {actions[act[i]]} "
                f"{states[dst[i]]}")

    # an entry's fault lies on a line before the one that stopped the loop
    probs = _entry_values(probs, where,
                          (src * len(actions) + act) * len(states) + dst,
                          duplicate)
    if error is not None:
        raise error
    if not states:
        raise ParseError("no states declared")
    if initial is None:
        raise ParseError("no initial state")
    m = Mdp.from_arrays(states, actions, initial,
                        *csr_arrays(len(states), src, act, dst, probs),
                        atomic_props=props,
                        labels=[labels.get(s, frozenset())
                                for s in range(len(states))])
    violations = validate_mdp(m)
    if violations:
        raise ValidationError(violations)
    return m


def _entry_lines(text, m: Mdp, heads, value, strict=False):
    """(head, state, action, value) arrays, in file order, of the lines
    `<head> <state> <action> <value>` with a head in heads (an index into
    heads; value names the last token in shape errors).  Other lines are
    skipped, or with strict unknown directives.  Repeats are worded
    "duplicate <head> entry", or "duplicate <head>" for a single head."""
    sidx = _first_index(m.state_names)
    aidx = _first_index(m.action_names)
    hidx = {head: i for i, head in enumerate(heads)}
    found, states, actions, vals, where = [], [], [], [], []
    error = None
    try:
        for ln, tok in _lines(text):
            head = tok[0]
            if head not in hidx:
                if strict:
                    raise ParseError(f"unknown directive {head!r}", ln)
                continue
            if len(tok) != 4:
                raise ParseError(f"{head} <state> <action> <{value}>", ln)
            _, s, a, val = tok
            if s not in sidx:
                raise ParseError(f"unknown state {s!r}", ln)
            if a not in aidx:
                raise ParseError(f"unknown action {a!r}", ln)
            found.append(hidx[head])
            states.append(sidx[s])
            actions.append(aidx[a])
            vals.append(val)
            where.append(ln)
    except ParseError as e:
        error = e
    found, states, actions = (np.array(x, dtype=np.int64)
                              for x in (found, states, actions))

    def duplicate(i):
        entry = " entry" if len(heads) > 1 else ""
        return (f"duplicate {heads[found[i]]}{entry} "
                f"{m.state_names[states[i]]} {m.action_names[actions[i]]}")

    vals = _entry_values(
        vals, where, (found * m.n_states + states) * m.n_actions + actions,
        duplicate)
    if error is not None:
        raise error
    return found, states, actions, vals


def parse_utilities(text, m: Mdp):
    """Reward/cost lines from a model file or a standalone table.

    Returns (reward, cost); a kind missing entirely comes back as None, but a
    kind that is present must cover every available state-action pair.  The
    entries of each kind go straight into its table (UtilityFn.from_entries).
    """
    kinds = ("reward", "cost")
    found, states, actions, vals = _entry_lines(text, m, kinds, "value")
    out = [None, None]
    for i, kind in enumerate(kinds):
        rows = found == i
        if rows.any():
            out[i] = UtilityFn.from_entries(states[rows], actions[rows],
                                            vals[rows], kind)
            out[i].pair_values(m)  # raises unless every pair has a value
    return tuple(out)


# --- HOA-subset Rabin automata ------------------------------------------

_ACC_PAIR = re.compile(r"Fin\s*\(\s*(\d+)\s*\)\s*&\s*Inf\s*\(\s*(\d+)\s*\)")


class _GuardParser:
    """Boolean guards over AP indices: literals, !, &, |, parentheses, t/f.

    A guard is evaluated while it is parsed, as the bitset of the symbols
    (numbered as model.alphabet numbers them) that satisfy it; an index
    beyond the declared APs is a proposition that never holds."""

    def __init__(self, text, ln, lit, full):
        self.toks = re.findall(r"\d+|[!&|()tf]", text)
        if "".join(self.toks).replace(" ", "") != text.replace(" ", ""):
            raise ParseError(f"bad guard {text!r}", ln)
        self.pos = 0
        self.ln = ln
        self.lit = lit    # lit[i]: the symbols that hold AP i
        self.full = full  # every symbol

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self):
        try:
            bits = self._expr()
        except RecursionError:
            raise ParseError("guard nested too deeply", self.ln) from None
        if self._peek() is not None:
            raise ParseError(f"trailing guard tokens", self.ln)
        return bits

    def _expr(self):
        bits = self._term()
        while self._peek() == "|":
            self._next()
            bits |= self._term()
        return bits

    def _term(self):
        bits = self._factor()
        while self._peek() == "&":
            self._next()
            bits &= self._factor()
        return bits

    def _factor(self):
        tok = self._next()
        if tok == "!":
            return self.full ^ self._factor()
        if tok == "(":
            bits = self._expr()
            if self._next() != ")":
                raise ParseError("unbalanced parenthesis in guard", self.ln)
            return bits
        if tok == "t":
            return self.full
        if tok == "f":
            return 0
        if tok is not None and tok.isdigit():
            i = int(tok)
            return self.lit[i] if i < len(self.lit) else 0
        raise ParseError(f"unexpected guard token {tok!r}", self.ln)


def _header_int(line, ln):
    """The integer that follows a header's name."""
    try:
        return int(line.split()[1])
    except (IndexError, ValueError):
        raise ParseError(f"bad header line {line!r}", ln) from None


def parse_dra(text) -> Dra:
    """HOA-subset automata: Rabin acceptance only, state-based membership,
    one deterministic and complete guard set per state.  Symbols are
    numbered as model.alphabet numbers them; each guard is evaluated once,
    as the bitset of the symbols it admits, and a state's faults are read
    off the overlaps and gaps of its guards' bitsets, first symbol first."""
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
            n_states = _header_int(line, ln)
        elif line.startswith("Start:"):
            start = _header_int(line, ln)
        elif line.startswith("AP:"):
            names = re.findall(r'"([^"]*)"', line)
            if _header_int(line, ln) != len(names):
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
    n_sym = 2 ** len(ap)
    full = (1 << n_sym) - 1
    lit = [sum(1 << b for b in range(n_sym) if b >> i & 1)
           for i in range(len(ap))]
    guards = {}  # guard text -> its bitset; states repeat their guards
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
            guard = mo.group(1)
            if guard not in guards:
                guards[guard] = _GuardParser(guard, ln, lit, full).parse()
            edges[current].append((guards[guard], int(mo.group(2)), ln))
            continue
        raise ParseError(f"bad body line {line!r}", ln)
    if set(edges) != set(range(n_states)):
        raise ParseError("body does not define every state exactly once")
    for q, sets in memberships.items():
        for idx in sets:
            if idx >= n_acc_sets:
                raise ParseError(f"state {q} references acceptance set {idx} "
                                 "beyond the declared count")

    table = []
    for q in range(n_states):
        covered = overlap = wrong = 0
        row = [0] * n_sym
        for bits, dest, _ in edges[q]:
            overlap |= covered & bits
            covered |= bits
            if not 0 <= dest < n_states:
                wrong |= bits
            for b in range(n_sym):
                if bits >> b & 1:
                    row[b] = dest
        fault = overlap | wrong | full & ~covered
        if fault:
            b = (fault & -fault).bit_length() - 1
            sym = alphabet(ap)[b]
            hits = [(dest, ln) for bits, dest, ln in edges[q] if bits >> b & 1]
            if len(hits) > 1:
                raise NondeterminismError(
                    f"state {q}: symbol {set(sym) or '{}'} matches "
                    f"{len(hits)} edges", hits[1][1])
            if not hits:
                raise IncompletenessError(
                    f"state {q}: no edge for symbol {set(sym) or '{}'}")
            raise ParseError(f"edge to unknown state {hits[0][0]}")
        table.append(row)

    pairs = []
    for fin_i, inf_i in pairs_idx:
        b = {q for q, sets in memberships.items() if fin_i in sets}
        g = {q for q, sets in memberships.items() if inf_i in sets}
        pairs.append((b, g))
    return Dra(n_states, start, ap, table, pairs)


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
    for q, row in enumerate(d.table.tolist()):
        sets = []
        for i, (b, g) in enumerate(d.pairs):
            if q in b:
                sets.append(2 * i)
            if q in g:
                sets.append(2 * i + 1)
        suffix = (" {" + " ".join(str(x) for x in sets) + "}") if sets else ""
        out.append(f"State: {q}{suffix}")
        for sym, dest in enumerate(row):
            lits = [(str(i) if sym >> i & 1 else f"!{i}")
                    for i in range(len(d.ap))] or ["t"]
            out.append(f"[{' & '.join(lits)}] {dest}")
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
    """A policy file as a weight vector over m's pairs, filled straight from
    its rule lines (policy_from_entries); no other line is allowed."""
    _, states, actions, probs = _entry_lines(text, m, ("rule",), "prob",
                                         strict=True)
    return policy_from_entries(m, states, actions, probs)
