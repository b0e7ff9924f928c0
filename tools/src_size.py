"""Print the size of each module of a package: physical lines, code lines
and public top-level names.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the first statement of a module, class or function
when it is a string).  A public top-level name is one that a module's own
statements bind, by def, class, assignment or an import from within the
package, and that does not start with an underscore; importing numpy or
the standard library does not count.  Standard library only.

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


def _public_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.ImportFrom) and node.level:  # a relative import: the package's own name
            names.update(alias.asname or alias.name for alias in node.names)
    return {name for name in names if not name.startswith("_")}


def sizes(path: Path) -> tuple[int, int, int]:
    """(physical lines, code lines, public top-level names) of one Python source file."""
    text = path.read_text()
    tree = ast.parse(text)
    docstrings = _docstring_lines(tree)
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE and tok.type != tokenize.ENCODING:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings), len(_public_names(tree))


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/cvsim")
    totals = [0, 0, 0]
    print(f"{'module':24} {'lines':>6} {'code':>6} {'public':>6}")
    for path in sorted(root.glob("*.py")):
        counts = sizes(path)
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:24} " + " ".join(f"{c:6}" for c in counts))
    print(f"{str(root):24} " + " ".join(f"{t:6}" for t in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
