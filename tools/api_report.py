"""Report the package's size and its public names that nothing uses.

Prints, from the source alone (stdlib ``ast`` and ``tokenize``; the
package is not imported):

* the code lines of each module under ``src/``: lines that are not
  blank, not comment-only and not inside a docstring, and their total;
* every name in a module's ``__all__`` that no code under ``src/``,
  ``demos/`` or ``bench/`` uses, as a name or an attribute that is read
  (an import, an assignment or the ``__all__`` entry itself is no use).

Exits 1 when it lists such a name, else 0.  Run it from anywhere:

    python tools/api_report.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USERS = ("src", "demos", "bench")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines that carry a token other than a comment, outside docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def public_names(tree: ast.Module) -> list[str]:
    """The names listed in a module's ``__all__``, if it has one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def used_names(tree: ast.AST) -> set[str]:
    """Names and attributes that the code reads."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def main() -> int:
    modules = sorted((ROOT / "src").rglob("*.py"))
    print("code lines under src/ (not blank, comment-only or docstring):")
    total = 0
    for path in modules:
        count = code_lines(path.read_text())
        total += count
        print(f"  {path.relative_to(ROOT / 'src')!s:40} {count:5d}")
    print(f"  {'total':40} {total:5d}")

    used = set()
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            used |= used_names(ast.parse(path.read_text()))
    unused = [f"{path.relative_to(ROOT / 'src')}: {name}" for path in modules
              for name in public_names(ast.parse(path.read_text())) if name not in used]
    print(f"public names that no code under {', '.join(USERS)} uses:")
    print("\n".join(f"  {line}" for line in unused) or "  (none)")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
