"""Size of the freesb package: lines, defaulted parameters, numeric constants.

    python tools/srcstats.py [--per-file] [--rev REV] [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/freesb`` beside this script's parent.  With
``--rev``, the package is counted as git revision REV holds it, exported
with ``git archive`` from the repository around PACKAGE_DIR, so one
command quotes a revision's numbers beside those of the working tree.
The four numbers, one per line, are:

- physical lines: what ``wc -l`` counts over the package's ``*.py``;
- code lines: lines that hold a token other than a comment, and are not
  part of a docstring (a string that is the first statement of a module,
  class or function);
- parameters with defaults: over every ``def`` (``__init__`` included),
  positional and keyword-only, not lambdas;
- numeric constants: module-level names bound to an expression of numeric
  literals alone, such as ``X = 0.78`` or ``Y = 2 << 20`` (not
  ``Z = 2 * Y``, which is derived from another name).

With ``--per-file``, a table instead: the four numbers of each module, one
row each, and a ``total`` row of the same four numbers as above.

Standard library and git only.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tarfile
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _numeric(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float, complex)
    if isinstance(node, ast.UnaryOp):
        return _numeric(node.operand)
    return isinstance(node, ast.BinOp) and _numeric(node.left) and _numeric(node.right)


def file_stats(source: str) -> tuple[int, int, int, int]:
    """(physical lines, code lines, parameters with defaults, numeric
    constants) of one file."""
    tree = ast.parse(source)
    docs = _docstring_lines(tree)
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    defaults = sum(len(node.args.defaults)
                   + sum(d is not None for d in node.args.kw_defaults)
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    constants = sum(isinstance(target, ast.Name)
                    for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
                    and _numeric(node.value)
                    for target in (node.targets if isinstance(node, ast.Assign) else [node.target]))
    return source.count("\n"), len(code - docs), defaults, constants


def sources(root: Path, rev: str | None) -> list[tuple[str, str]]:
    """(file name, text) of each ``*.py`` directly in ``root``, in name
    order: from the working tree, or as revision ``rev`` holds them."""
    if rev is None:
        return [(path.name, path.read_text()) for path in sorted(root.glob("*.py"))]
    # run in root, git archive holds root's subtree alone, named relative to root
    tar = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        return sorted((m.name, archive.extractfile(m).read().decode()) for m in archive
                      if m.isfile() and "/" not in m.name and m.name.endswith(".py"))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--per-file", action="store_true", help="one row per module")
    ap.add_argument("--rev", help="count the package as this git revision holds it")
    ap.add_argument("package_dir", nargs="?",
                    default=Path(__file__).resolve().parent.parent / "src" / "freesb")
    args = ap.parse_args(argv)
    try:
        rows = [(name, file_stats(text)) for name, text in sources(Path(args.package_dir), args.rev)]
    except subprocess.CalledProcessError as e:
        print(f"srcstats: git archive failed: {e.stderr.decode().strip()}", file=sys.stderr)
        return 1
    totals = [sum(stats[i] for _, stats in rows) for i in range(4)]
    if args.per_file:
        for name, stats in [("file", ("physical", "code", "defaults", "constants")),
                            *rows, ("total", totals)]:
            print(f"{name:<16}" + "".join(f"{x:>10}" for x in stats))
        return 0
    print(f"physical lines: {totals[0]}")
    print(f"code lines: {totals[1]}")
    print(f"parameters with defaults: {totals[2]}")
    print(f"numeric constants: {totals[3]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
