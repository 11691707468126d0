"""Run the committed mutants against the tests that must kill them.

Each entry of ``tools/mutants.json`` names a file, one line of it (``old``,
matched whole and exactly once), the line that replaces it (``new``), the
reason the change is wrong, and the test files that must notice it. For
each mutant the runner copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, applies the mutant there and runs
``pytest -x`` on the named files. It prints one line per mutant:

- KILLED: a named test failed;
- SURVIVED: every named test passed. An entry with an ``equivalent``
  reason (a mutant that cannot change behaviour) is allowed to survive;
- STALE: the old line is not in the file exactly once;
- ERROR: pytest could not run the tests (a collection or usage error).

It exits 1 if any mutant survives without an ``equivalent`` reason, is
stale or errs, and 0 otherwise.

    python tools/mutants.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


def apply(tree: Path, mutant: dict) -> int:
    """Replace the mutant's old line in ``tree``; the number of matches."""
    path = tree / mutant["file"]
    lines = path.read_text().split("\n")
    matches = [i for i, line in enumerate(lines) if line == mutant["old"]]
    if len(matches) == 1:
        lines[matches[0]] = mutant["new"]
        path.write_text("\n".join(lines))
    return len(matches)


def run(mutant: dict) -> str:
    """The mutant's outcome: KILLED, SURVIVED, STALE or ERROR."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        # No __pycache__ is copied, so no cached bytecode can hide the mutant.
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy(source, tree / name)
        if apply(tree, mutant) != 1:
            return "STALE"
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant["tests"]]
        code = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "SURVIVED", 1: "KILLED"}.get(code, "ERROR")


def main() -> int:
    failed = 0
    for mutant in json.loads((ROOT / "tools" / "mutants.json").read_text()):
        outcome = run(mutant)
        note = ""
        if outcome == "SURVIVED" and mutant.get("equivalent"):
            note = f" (equivalent: {mutant['equivalent']})"
        elif outcome != "KILLED":
            failed += 1
        print(f"{outcome:8} {mutant['name']}: {' '.join(mutant['tests'])}{note}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
