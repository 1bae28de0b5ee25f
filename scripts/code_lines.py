"""Print the code, docstring, comment and blank line counts of each module.

A line is a docstring line if it lies in the docstring of a module, class or
function (found by ``ast``); otherwise a code line if a token other than a
comment covers it (found by ``tokenize``, so a multi-line string counts on
every line it spans); otherwise a comment line if it holds a comment; and
otherwise blank. A line with code and a trailing comment counts as code.

Usage: python scripts/code_lines.py [DIR]   (DIR defaults to src/jdrcap)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def line_kinds(source):
    """The count of each of KINDS in the Python ``source``."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if number in docstring else "code" if number in code
                else "comment" if number in comment else "blank")
        counts[kind] += 1
    return counts


def main(argv):
    root = Path(argv[0] if argv else "src/jdrcap")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<24}" + "".join(f"{kind:>10}" for kind in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = line_kinds(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<24}" + "".join(f"{counts[kind]:>10}" for kind in KINDS))
    print(f"{'total':<24}" + "".join(f"{total[kind]:>10}" for kind in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
