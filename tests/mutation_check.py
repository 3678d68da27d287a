"""Mutation check: every listed fault in the source must fail its tests.

Run it from anywhere, with pytest and hypothesis installed:

    python tests/mutation_check.py

The unmutated tree must first pass every test file the list names.  Then,
for each mutant, the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, replaces the mutant's old
text, which must occur exactly once in its file, and runs ``pytest -x``
on the mutant's test files there.  A mutant is killed when pytest reports
a failing test (exit code 1).  A mutant that survives, whose old text is
stale, or that stops pytest before any test fails (a collection error)
fails the script, so the list stays a gate as the code moves.  Exit code
0 when every mutant is killed, 1 otherwise.

pytest does not collect this file, as its name does not start with
``test_``.  Removing a mutant, or accepting one as a survivor, is a change
to the tests like any other.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


NUMTHEORY = "src/kendallcodes/numtheory.py"
SPLIT_TESTS = ("tests/test_numtheory.py",)

MUTANTS = (
    Mutant(
        "factorize's walk keeps a sieve-prime remainder of the gcd above the bound",
        NUMTHEORY,
        "                if h > bound:\n                    break\n",
        "",
        SPLIT_TESTS,
    ),
    Mutant(
        "factorize's walk stops at the first prime it finds, without dividing the gcd by it",
        NUMTHEORY,
        "            h //= p\n            if h == 1:\n                break\n",
        "            break\n",
        SPLIT_TESTS,
    ),
    Mutant(
        "factorize's walk tests its block's primes past the bound",
        NUMTHEORY,
        "_PRIMES[start : min(stop, count)]",
        "_PRIMES[start:stop]",
        SPLIT_TESTS,
    ),
    Mutant(
        "factorize stops when the first prime squared equals what is left",
        NUMTHEORY,
        "first_square > v:",
        "first_square >= v:",
        SPLIT_TESTS,
    ),
    Mutant(
        "is_rough skips the bound's own block",
        NUMTHEORY,
        "    h = math.gcd(product, value)\n",
        "    h = 1\n",
        SPLIT_TESTS,
    ),
    Mutant(
        "is_rough leaves out the last prime up to the bound",
        NUMTHEORY,
        "_PRIMES[start:count])",
        "_PRIMES[start : count - 1])",
        SPLIT_TESTS,
    ),
    Mutant(
        "is_rough starts from the running product one block too early",
        NUMTHEORY,
        "math.gcd(_RUNNING_PRODUCTS[k], value)",
        "math.gcd(_RUNNING_PRODUCTS[max(k - 1, 0)], value)",
        SPLIT_TESTS,
    ),
)


def _copy_tree(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", into / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(where: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for ``tests`` in the tree copied to ``where``."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(
        command, cwd=where, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=900
    ).returncode


def run_mutant(mutant: Mutant) -> str:
    """``killed``, ``survived``, ``stale`` or ``error`` (pytest exit code 2 or more)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        where = Path(tmp)
        _copy_tree(where)
        target = where / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new))
        code = _pytest(where, mutant.tests)
    return {0: "survived", 1: "killed"}.get(code, "error")


def main() -> int:
    tests = tuple(sorted({name for mutant in MUTANTS for name in mutant.tests}))
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        _copy_tree(Path(tmp))
        if _pytest(Path(tmp), tests) != 0:
            print(f"FAIL the unmutated tree does not pass {' '.join(tests)}")
            return 1
    print(f"ok   the unmutated tree passes {' '.join(tests)}")
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome = run_mutant(mutant)
        failed += outcome != "killed"
        tag = "ok  " if outcome == "killed" else "FAIL"
        print(f"{tag} {outcome:8} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
