"""Print physical and code lines per file of src/sixstate, and the total.

Run from anywhere as ``python tools/count_lines.py``; it takes no options.

A code line is a line that holds a token other than a comment or a
newline (found with `tokenize`; a token spanning several lines counts on
each of them), minus the lines of docstrings: a string constant that is
the first statement of a module, class or function (found with `ast`).
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sixstate"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text):
    """(physical, code) lines of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(text))
    return len(text.splitlines()), len(code)


def main():
    total_physical = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        physical, code = count(path.read_text())
        total_physical += physical
        total_code += code
        print(f"{path.name:16} {physical:6} {code:6}")
    print(f"{'total':16} {total_physical:6} {total_code:6}")


if __name__ == "__main__":
    main()
