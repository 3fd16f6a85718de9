"""Count the code-only lines of each module of the package.

    python3 tools/codelines.py [REV]

Prints, per module under ``src/synclouvain``, the lines that hold code,
and their total.  A line holds code if some token on it is neither a
comment nor part of a docstring (the first statement of a module, class
or function, when it is a string); blank lines hold none.  With REV, it
also counts ``src/`` at that revision, extracted with ``git archive`` as
``equivalence.py`` does, and prints REV's counts beside this checkout's,
per module and in total, with the net change of the total.
"""

import ast, sys, tempfile, tokenize
from pathlib import Path

from equivalence import ROOT, extract_src

_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The number of lines of the module at ``path`` that hold code."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            doc = node.body[0]
            docstrings.add((doc.lineno, doc.col_offset))
    lines = set()
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type in _NO_CODE or (tok.type == tokenize.STRING
                                        and tok.start in docstrings):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def counts(src):
    """Code lines per module file name of the package under ``src``."""
    return {path.name: code_lines(path)
            for path in sorted((src / "synclouvain").glob("*.py"))}


def main(args):
    here = counts(ROOT / "src")
    if not args:
        for name, count in here.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(here.values()):6d}  total")
        return
    with tempfile.TemporaryDirectory() as tmp:
        then = counts(extract_src(args[0], tmp))
    print(f"{args[0][:6]:>6}  {'this':>6}  module")
    for name in sorted(then.keys() | here.keys()):
        print(f"{then.get(name, 0):6d}  {here.get(name, 0):6d}  {name}")
    old, new = sum(then.values()), sum(here.values())
    print(f"{old:6d}  {new:6d}  total")
    print(f"net change: {new - old:+d}")


if __name__ == "__main__":
    main(sys.argv[1:])
