"""Count the code-only lines of each module of the package.

    python3 tools/codelines.py [REV]

Prints, per module under ``src/synclouvain``, the lines that hold code,
and their total.  A line holds code if some token on it is neither a
comment nor part of a docstring (the first statement of a module, class
or function, when it is a string); blank lines hold none.  With REV, it
counts ``src/`` at that revision, extracted with ``git archive`` as
``equivalence.py`` does, instead of this checkout.
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


def main(args):
    with tempfile.TemporaryDirectory() as tmp:
        src = extract_src(args[0], tmp) if args else ROOT / "src"
        total = 0
        for path in sorted((src / "synclouvain").glob("*.py")):
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path.name}")
        print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
