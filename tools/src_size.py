"""Print the size of each module of a package: physical lines and code lines.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the first statement of a module, class or function
when it is a string).  Standard library only.

    python tools/src_size.py [package_dir]    # default: src/cvsim
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def sizes(path: Path) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source file."""
    text = path.read_text()
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE and tok.type != tokenize.ENCODING:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/cvsim")
    total_physical = total_code = 0
    for path in sorted(root.glob("*.py")):
        physical, code = sizes(path)
        total_physical += physical
        total_code += code
        print(f"{path.name:24} {physical:6} {code:6}")
    print(f"{str(root):24} {total_physical:6} {total_code:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
