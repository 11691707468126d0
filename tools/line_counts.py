"""Print the line counts of a package's Python files: total, code,
docstring, comment and blank, one line per module and then the package's,
always the last line.

A docstring line is any line of a module, class or function docstring, as
``ast`` finds it; of the rest, a line is blank if it holds only
whitespace, a comment if it starts with ``#``, and code otherwise.

    python tools/line_counts.py src/proploc
"""

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


KINDS = ("total", "code", "docstring", "comment", "blank")


def module_counts(source: str) -> dict[str, int]:
    counts = dict.fromkeys(KINDS, 0)
    docs = docstring_lines(source)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        kind = ("docstring" if number in docs else "blank" if not text
                else "comment" if text.startswith("#") else "code")
        counts["total"] += 1
        counts[kind] += 1
    return counts


def formatted(counts: dict[str, int]) -> str:
    return " ".join(f"{key} {value}" for key, value in counts.items())


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python tools/line_counts.py PACKAGE_DIR", file=sys.stderr)
        sys.exit(2)
    package = dict.fromkeys(KINDS, 0)
    for path in sorted(Path(sys.argv[1]).glob("*.py")):
        counts = module_counts(path.read_text())
        print(f"{path.name}: {formatted(counts)}")
        for key, value in counts.items():
            package[key] += value
    print(formatted(package))
