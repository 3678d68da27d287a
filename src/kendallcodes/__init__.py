"""Exact counting and divisibility certificates for permutation codes
under the Kendall tau metric.

The package answers two questions about the symmetric group S_n with the
adjacent-transposition (Kendall tau) distance, in exact integer
arithmetic throughout:

* how many permutations lie at distance i from a center, or within
  radius r (``mahonian``), and
* when does the sphere-packing identity already rule out a perfect
  t-error-correcting code (``certifier``).

``numtheory`` supplies the n-smooth split of a ball size, sieve
primality and factorial divisibility without n! (``math.factorial``
serves the few places that need n! itself), and ``oracle`` brute-force
ground truth for small n: the Kendall distance between permutations in
one-line notation, distance histograms of S_n and an exhaustive
perfect-code search.  ``oracle`` is imported the first time one of its
names is read from the package, so a process that never asks for it
never loads it.  The package exports the ``__all__`` of ``certifier``,
``mahonian`` and ``numtheory``, then the six names of ``oracle``.
"""

from . import certifier, mahonian, numtheory
from .certifier import *  # noqa: F403
from .mahonian import *  # noqa: F403
from .numtheory import *  # noqa: F403

# oracle's brute force serves only cross-checks, so it loads on first use
# (PEP 562); `from kendallcodes import *` resolves these through __getattr__
_ORACLE_EXPORTS = (
    "CodeSearchResult",
    "ball_census",
    "inversion_histogram",
    "kendall_distance",
    "search_perfect_code",
    "verify_min_distance",
)


def __getattr__(name: str):
    if name in _ORACLE_EXPORTS:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.14.2"

__all__ = [*certifier.__all__, *mahonian.__all__, *numtheory.__all__, *_ORACLE_EXPORTS]
