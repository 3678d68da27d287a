"""Per-layer timing of kendallcodes from outside the package.

Each public function is wrapped where its callers look it up: the module
attribute that ``cli`` reads (``certifier.certify``), the name another
module imported (``certifier.factorial``, ``oracle.kendall_distance``),
and the defining module's own global for calls inside it
(``numtheory.is_probable_prime``).  A wrapper records one span per call:
calls, inclusive time and self time (inclusive time minus the time of
the spans it caused).  Spans are aggregated in memory, never written
per call, and every wrapper is removed again when tracing stops.

Layer self times are also summed per region: ``run`` (the CLI
invocations and library calls that make up ``run_s``) and ``recheck``
(parsing and re-checking the emitted records).  Within a region the layer
self times add up to the region's traced wall time, minus the few
instructions of harness code between the spans.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

# (module, attribute, span key).  The span key's first component is the
# layer.  One key may be installed at several lookup sites.
SITES = (
    ("cli", "main", "cli.main"),
    ("cli", "factorial", "numtheory.factorial"),
    ("certifier", "scan", "certifier.scan"),
    ("certifier", "certify", "certifier.certify"),
    ("certifier", "ball_value", "certifier.ball_value"),
    ("certifier", "format_certificate", "certifier.format"),
    ("certifier", "parse_certificate", "certifier.parse"),
    ("certifier", "check_certificate", "certifier.check"),
    ("certifier", "build_table", "mahonian.build_table"),
    ("certifier", "ball_size", "mahonian.ball_size"),
    ("certifier", "ball_closed_form", "mahonian.closed_form"),
    ("certifier", "factorial", "numtheory.factorial"),
    ("certifier", "factorize", "numtheory.factorize"),
    ("certifier", "is_probable_prime", "numtheory.is_probable_prime"),
    ("certifier", "factorial_valuation", "numtheory.factorial_valuation"),
    ("certifier", "divides_factorial", "numtheory.divides_factorial"),
    ("certifier", "format_factorization", "numtheory.format_factorization"),
    ("certifier", "parse_factorization", "numtheory.parse_factorization"),
    ("mahonian", "build_table", "mahonian.build_table"),
    ("mahonian", "ball_size", "mahonian.ball_size"),
    ("numtheory", "is_probable_prime", "numtheory.is_probable_prime"),
    ("numtheory", "factorial_valuation", "numtheory.factorial_valuation"),
    ("oracle", "inversion_histogram", "oracle.inversion_histogram"),
    ("oracle", "ball_census", "oracle.ball_census"),
    ("oracle", "search_perfect_code", "oracle.search_perfect_code"),
    ("oracle", "factorial", "numtheory.factorial"),
    ("oracle", "kendall_distance", "perms.kendall_distance"),
)

LAYERS = ("cli", "certifier", "mahonian", "numtheory", "oracle", "perms")


class Tracer:
    """Aggregated spans and result counters for one traced stretch of work."""

    def __init__(self) -> None:
        # key -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.regions: dict[str, dict[str, float]] = {
            "run": dict.fromkeys(LAYERS, 0.0),
            "recheck": dict.fromkeys(LAYERS, 0.0),
        }
        self.region = self.regions["run"]
        self._stack: list[float] = []
        self._installed: list[tuple[object, str, object]] = []

    def set_region(self, name: str) -> None:
        self.region = self.regions[name]

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, key: str, fn: Callable) -> Callable:
        span = self.spans.setdefault(key, [0, 0.0, 0.0])
        layer = key.partition(".")[0]
        stack = self._stack
        observe = _OBSERVERS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                span[0] += 1
                span[1] += elapsed
                span[2] += own
                tracer.region[layer] += own
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every lookup site in ``modules`` (name -> module object)."""
        for module_name, attr, key in SITES:
            module = modules[module_name]
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(key, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


_VERDICT_COUNTERS = {
    "NONEXISTENT_PRIME_FACTOR": "certifier.verdict.prime_factor",
    "NONEXISTENT_NOT_DIVIDING": "certifier.verdict.not_dividing",
    "INCONCLUSIVE": "certifier.verdict.inconclusive",
}


def _observe_certify(tracer: Tracer, args, cert) -> None:
    tracer.count(_VERDICT_COUNTERS[cert.verdict])
    tracer.count("certifier.degraded", cert.degraded)


def _observe_build_table(tracer: Tracer, args, table) -> None:
    # rows[0] is the seed row for n = 2; every later entry was computed
    tracer.count("mahonian.build_table.cells", sum(len(row) for row in table.rows[1:]))


def _observe_factorial(tracer: Tracer, args, value) -> None:
    tracer.count("numtheory.factorial.bits", value.bit_length())


def _observe_factorize(tracer: Tracer, args, factors) -> None:
    # reached only when factoring completed; a budget error skips it
    tracer.count("numtheory.factorize.complete")


def _observe_search(tracer: Tracer, args, result) -> None:
    tracer.count("oracle.search.nodes", result.nodes_explored)


_OBSERVERS = {
    "certifier.certify": _observe_certify,
    "mahonian.build_table": _observe_build_table,
    "numtheory.factorial": _observe_factorial,
    "numtheory.factorize": _observe_factorize,
    "oracle.search_perfect_code": _observe_search,
}
