"""Print the line budget of a tree's package, module by module.

    python3 tools/line_count.py [<tree>]

<tree> is a checkout of this repository (default: the one holding this
script).  Each line of each `src/effsynth/*.py` is counted once, as the
first of these that holds:
- docstring: inside a module, class or function docstring (from `ast`);
- code: holds a token other than a comment (from `tokenize`; a string
  spread over several lines marks each of them);
- comment: holds a comment and nothing else;
- blank: the rest.
The table is in Markdown, largest module first, with a total row.
"""

import ast
import io
import os
import sys
import tokenize

PARTS = ("code", "docstring", "comment", "blank")
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def classify(source):
    """Each line of a Python source, 1-based, mapped to one of PARTS."""
    n = len(source.splitlines())
    doc, code, comment = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return {ln: "docstring" if ln in doc else "code" if ln in code else
            "comment" if ln in comment else "blank"
            for ln in range(1, n + 1)}


def count(path):
    """The line count of one file: its total and each of PARTS."""
    with open(path, encoding="utf-8") as f:
        kinds = list(classify(f.read()).values())
    return {"total": len(kinds), **{p: kinds.count(p) for p in PARTS}}


def table(tree):
    """The Markdown table of tree's package modules."""
    pkg = os.path.join(tree, "src", "effsynth")
    rows = {name: count(os.path.join(pkg, name))
            for name in os.listdir(pkg) if name.endswith(".py")}
    order = sorted(rows, key=lambda name: (-rows[name]["total"], name))
    cols = ("total",) + PARTS
    out = ["| module | " + " | ".join(cols) + " |",
           "| --- |" + " --- |" * len(cols)]
    out += [f"| `{name}` | " + " | ".join(str(rows[name][c]) for c in cols)
            + " |" for name in order]
    out.append("| **total** | " + " | ".join(
        f"**{sum(r[c] for r in rows.values())}**" for c in cols) + " |")
    return "\n".join(out)


def main(argv):
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    print(table(argv[0] if argv else here))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
