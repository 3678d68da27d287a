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
fails the script, so the list stays a gate as the code moves.

A mutant marked ``survives`` is an expected survivor: a fault that its
tests are known not to catch yet, such as a wrong ball route that the
checker cannot see while it recomputes the ball with the same engine.  It
must survive; once it is killed the script fails, so that the mark is
dropped when the tests learn to catch it.  Exit code 0 when every mutant
has its expected outcome, 1 otherwise.

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
    survives: bool = False


NUMTHEORY = "src/kendallcodes/numtheory.py"
SPLIT_TESTS = ("tests/test_numtheory.py",)
ORACLE = "src/kendallcodes/oracle.py"
SEARCH_TESTS = ("tests/test_oracle.py",)
MAHONIAN = "src/kendallcodes/mahonian.py"
BALL_TESTS = ("tests/test_ball_engine.py",)
# the checker recomputes each ball with ball_count, the engine certify
# used, so a wrong route passes it until the checker has a ball of its own
CHECKER_TEST = ("tests/test_certifier.py::test_every_emitted_certificate_passes_the_checker",)
BALL_ROUTES = (
    ("the ball's pentagonal route serves one radius past 2n + 1", "if r <= 2 * n + 1:", "if r <= 2 * n + 2:"),
    ("the ball's complement route reflects the radius one too far", "diameter - 1 - r)", "diameter - r)"),
    (
        "the ball's pentagonal route shifts the S_(n+1) sum by n, not n + 1",
        "_euler_sum(n + 1, r - n - 1)",
        "_euler_sum(n + 1, r - n)",
    ),
)

MUTANTS = (
    Mutant(
        "factorize takes the whole block product for the bound's own block",
        NUMTHEORY,
        "math.gcd(product if stop <= count else _BLOCK_PREFIXES[count - 1], v)",
        "math.gcd(product, v)",
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
        "factorize stops when the first prime squared equals what is left",
        NUMTHEORY,
        "first_square > v:",
        "first_square >= v:",
        SPLIT_TESTS,
    ),
    Mutant(
        "is_rough's prefix product stops one prime short of the bound",
        NUMTHEORY,
        "math.gcd(_BLOCK_PREFIXES[count - 1], value)",
        "math.gcd(_BLOCK_PREFIXES[count - 2], value)",
        SPLIT_TESTS,
    ),
    Mutant(
        "is_rough takes the running product one block early",
        NUMTHEORY,
        "_RUNNING_PRODUCTS[(count - 1) // _BLOCK]",
        "_RUNNING_PRODUCTS[max((count - 1) // _BLOCK - 1, 0)]",
        SPLIT_TESTS,
    ),
    Mutant(
        "is_rough leaves out the prefix gcd",
        NUMTHEORY,
        "\n        and math.gcd(_BLOCK_PREFIXES[count - 1], value) == 1\n",
        "\n",
        SPLIT_TESTS,
    ),
    Mutant(
        "numtheory imports re",
        NUMTHEORY,
        "import math\n",
        "import math\nimport re\n",
        ("tests/test_package.py::test_only_the_checker_imports_re",),
    ),
    Mutant(
        "the cover no longer counts none and one admissible centers alike",
        ORACLE,
        'folded = counts.replace(b"\\0", b"\\1")\n        for fewest in range(1, covered):',
        "folded = counts\n        for fewest in range(covered):",
        SEARCH_TESTS,
    ),
    Mutant(
        "the cover's smallest-count scan skips count 2",
        ORACLE,
        "for fewest in range(1, covered):",
        "for fewest in (1, *range(3, covered)):",
        SEARCH_TESTS,
    ),
    Mutant(
        "the cover leaves each open choice unsorted",
        ORACLE,
        "iter(sorted([c for c in balls[point] if alive[c]]))",
        "iter([c for c in balls[point] if alive[c]])",
        SEARCH_TESTS,
    ),
    Mutant(
        "the cover's deselect skips the re-increment",
        ORACLE,
        "counts[other] += 1",
        "counts[other] += 0",
        SEARCH_TESTS,
    ),
    Mutant(
        "the cover takes an uncovered count of 255 for covered",
        ORACLE,
        "    if counts.count(covered) != len(balls[0]):\n",
        "    if False:\n",
        SEARCH_TESTS,
    ),
    Mutant(
        "the translates' rank weighs position i by (n - i)!",
        ORACLE,
        "factorial(n - 1 - i)",
        "factorial(n - i)",
        SEARCH_TESTS,
    ),
    Mutant(
        "the translates' rank comparison drops the | H guard",
        ORACLE,
        "(((a | high) - b) & high) >> 15",
        "((a - b) & high) >> 15",
        SEARCH_TESTS,
    ),
    Mutant(
        "the inversion kernel drops the | H guard, so borrows cross lanes",
        ORACLE,
        "left = entries[i] | high",
        "left = entries[i]",
        SEARCH_TESTS,
    ),
    Mutant(
        "the inversion kernel's inner pair loop stops one position short",
        ORACLE,
        "for j in range(i + 1, n):",
        "for j in range(i + 1, n - 1):",
        SEARCH_TESTS,
    ),
    Mutant(
        "the inversion kernel takes its prefixes in reverse order",
        ORACLE,
        "for prefix in itertools.permutations(range(n), n - size):",
        "for prefix in reversed([*itertools.permutations(range(n), n - size)]):",
        SEARCH_TESTS,
    ),
    *(Mutant(name, MAHONIAN, old, new, BALL_TESTS) for name, old, new in BALL_ROUTES),
    *(
        Mutant(f"{name}, against the checker", MAHONIAN, old, new, CHECKER_TEST, survives=True)
        for name, old, new in BALL_ROUTES
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
        expected = "survived" if mutant.survives else "killed"
        failed += outcome != expected
        tag = "ok  " if outcome == expected else "FAIL"
        mark = " (expected survivor)" if mutant.survives else ""
        seconds = time.perf_counter() - start
        print(f"{tag} {outcome:8} {mutant.name}{mark} ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
