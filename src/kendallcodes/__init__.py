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
perfect-code search.

A one-shot record needs little of this, so what it does not run loads on
first use: ``table`` (the inversion-count rows and everything that reads
them), ``checker`` (reading records back and re-checking them) and
``oracle``.  The package binds the ``__all__`` of ``certifier``,
``mahonian`` and ``numtheory`` at import, and resolves the exports of
the other three through a module ``__getattr__`` (PEP 562) and one map
from each name to its module: the first read imports that module and
binds the name here, so later reads are plain lookups.  ``dir()`` lists
them from the same map and imports nothing.  ``certifier`` and
``mahonian`` forward a few such names the same way, for the benchmark
only.
"""

from . import certifier, mahonian, numtheory
from .certifier import *  # noqa: F403
from .mahonian import *  # noqa: F403
from .numtheory import *  # noqa: F403

# each export of a module that loads on first use, with that module
_LAZY_HOMES = {
    "check_certificate": "checker",
    "parse_certificate": "checker",
    "BallSize": "table",
    "SphereTable": "table",
    "ball_closed_form": "table",
    "ball_size": "table",
    "build_table": "table",
    "sphere_closed_form": "table",
    "sphere_size": "table",
    "sphere_size_large_radius": "table",
    "sphere_size_small_radius": "table",
    "table_tsv_lines": "table",
    "CodeSearchResult": "oracle",
    "ball_census": "oracle",
    "inversion_histogram": "oracle",
    "kendall_distance": "oracle",
    "search_perfect_code": "oracle",
    "verify_min_distance": "oracle",
}


def __getattr__(name: str):
    home = _LAZY_HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_HOMES})


__version__ = "0.16.6"

__all__ = [*certifier.__all__, *mahonian.__all__, *numtheory.__all__, *_LAZY_HOMES]
