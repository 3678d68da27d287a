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
``oracle``.  The package exports the ``__all__`` of ``certifier``,
``mahonian`` and ``numtheory``, then the six names of ``oracle``, and
resolves each through a module ``__getattr__`` (PEP 562): the first read
takes it from the module that lists it, which may in turn load its home,
and binds it here, so later reads are plain lookups.
"""

from . import certifier, mahonian, numtheory

_ORACLE_EXPORTS = (
    "CodeSearchResult",
    "ball_census",
    "inversion_histogram",
    "kendall_distance",
    "search_perfect_code",
    "verify_min_distance",
)


def __getattr__(name: str):
    for module in (certifier, mahonian, numtheory):
        if name in module.__all__:
            break
    else:
        if name not in _ORACLE_EXPORTS:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        from . import oracle as module
    value = globals()[name] = getattr(module, name)
    return value


__version__ = "0.14.4"

__all__ = [*certifier.__all__, *mahonian.__all__, *numtheory.__all__, *_ORACLE_EXPORTS]
