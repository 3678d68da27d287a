"""Property tests: records round-trip, and the checker rejects every forgery.

Each certificate is mutated in one field at a time: the ball, the
witness and either exponent by one, the verdict swapped for each other
verdict, one smooth exponent bumped, one smooth prime dropped.  The
checker must reject every such record, and accept the genuine one.
Fields are also replaced by values of any shape, which the checker must
judge without raising.  Record lines, arbitrary or with one field's text
replaced, are parsed: the parser raises only ValueError and prints back
every line it accepts.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kendallcodes.certifier import (  # noqa: E402
    MAX_BALL_WORK,
    RECORD_FIELDS,
    Certificate,
    VERDICTS,
    certify,
    check_certificate,
    format_certificate,
    parse_certificate,
)
from kendallcodes.mahonian import max_distance  # noqa: E402
from kendallcodes.numtheory import MAX_GROUP_N  # noqa: E402


@st.composite
def group_and_radius(draw):
    """Radii up to 5 anywhere in the served range; up to 60 within the table cap."""
    if draw(st.booleans()):
        return draw(st.integers(2, MAX_GROUP_N)), draw(st.integers(0, 5))
    return draw(st.integers(2, 128)), draw(st.integers(0, 60))


def largest_served_radius(n):
    """The largest t with min(n, t) * t within the work bound (t clamps at D)."""
    if n * n > MAX_BALL_WORK:
        return math.isqrt(MAX_BALL_WORK)
    return min(max_distance(n), MAX_BALL_WORK // n)


@st.composite
def past_n_128(draw):
    """Radii above 5 for n above 128, up to the work bound."""
    n = draw(st.integers(129, MAX_GROUP_N))
    return n, draw(st.integers(6, largest_served_radius(n)))


# Exponent verdicts are rare among random draws; these are all of them for
# n <= 128 and t <= 60.
EXPONENT_VERDICTS = [
    (4, 2), (7, 2), (7, 5), (11, 6), (13, 3), (13, 4), (19, 5), (26, 3), (49, 6), (74, 3)
]


def with_exponent_verdicts(test):
    for case in EXPONENT_VERDICTS:
        test = example(case)(test)
    return test


def single_field_mutations(cert):
    replace = cert._replace
    for delta in (1, -1):
        yield replace(ball=cert.ball + delta)
        if cert.witness is not None:
            yield replace(witness=cert.witness + delta)
        if cert.witness_exponents is not None:
            in_ball, allowed = cert.witness_exponents
            yield replace(witness_exponents=(in_ball + delta, allowed))
            yield replace(witness_exponents=(in_ball, allowed + delta))
    for verdict in VERDICTS:
        if verdict != cert.verdict:
            yield replace(verdict=verdict)
    smooth = cert.factorization
    for i, (p, e) in enumerate(smooth):
        yield replace(factorization=smooth[:i] + ((p, e + 1),) + smooth[i + 1 :])
        yield replace(factorization=smooth[:i] + smooth[i + 1 :])


@settings(max_examples=150, deadline=None)
@with_exponent_verdicts
@example((129, largest_served_radius(129)))
@example((10000, largest_served_radius(10000)))
@given(st.one_of(group_and_radius(), past_n_128()))
def test_record_roundtrip(case):
    cert = certify(*case)
    line = format_certificate(cert)
    assert "\n" not in line
    assert parse_certificate(line) == cert
    assert format_certificate(parse_certificate(line)) == line


@settings(max_examples=150, deadline=None)
@with_exponent_verdicts
@given(group_and_radius())
def test_checker_rejects_every_single_field_mutation(case):
    cert = certify(*case)
    assert check_certificate(cert)
    for forged in single_field_mutations(cert):
        assert not check_certificate(forged), forged


# what a field could be mistyped as: numbers of every kind, None, verdict
# names, and tuples of them at any depth and arity
SHAPES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(19, 5000).map(lambda digits: 10**digits),  # past 4300 digits, too
        st.floats(),
        st.sampled_from(VERDICTS),
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)
FIELDS = list(Certificate._fields)


def exactly(a, b):
    """Equal with the same types throughout, so 441.0 and True do not pass for ints."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(exactly, a, b))
    return a == b


def made_by_certify(cert):
    if type(cert.n) is not int or type(cert.t) is not int:
        return False
    try:
        genuine = certify(cert.n, cert.t)
    except ValueError:
        return False
    return exactly(tuple(cert), tuple(genuine))


@settings(max_examples=300, deadline=None)
@example((13, 3), {"factorization": ((3, 2, 1), (7, 2))})
@example((13, 3), {"witness_exponents": 5})
@example((13, 3), {})
@given(group_and_radius(), st.dictionaries(st.sampled_from(FIELDS), SHAPES, max_size=3))
def test_checker_never_raises_and_accepts_only_what_certify_makes(case, changes):
    forged = certify(*case)._replace(**changes)
    assert check_certificate(forged) == made_by_certify(forged)


# text near the record syntax, so mutations reach past the field split
RECORD_TEXT = st.text(alphabet="0123456789+-_ ,^*=\t\n" + "".join(VERDICTS), max_size=40)


def parsed_back(line):
    """Parse ``line``; if accepted, it must be the canonical record it holds.

    The parser drops one trailing newline, so a line read with its
    terminator is accepted; everything before it must print back byte for
    byte.
    """
    try:
        cert = parse_certificate(line)
    except ValueError:
        return
    assert format_certificate(cert) == line.removesuffix("\n")


@settings(max_examples=300, deadline=None)
@example("")
@example("n=13")
@example(format_certificate(certify(13, 3)) + "\n")
@example(format_certificate(certify(13, 3)) + "\n\n")  # a blank line after it
@given(st.one_of(st.text(), RECORD_TEXT))
def test_parser_raises_only_value_error_on_any_string(line):
    parsed_back(line)


@settings(max_examples=300, deadline=None)
@example((13, 3), 0, "013")
@example((13, 3), 2, "441.0")
@example((13, 3), 3, "3^2*7^2")
@example((13, 3), 6, "2,1\n")
@given(
    group_and_radius(),
    st.integers(0, len(RECORD_FIELDS) - 1),
    st.one_of(st.text(), RECORD_TEXT),
)
def test_parser_round_trips_every_record_it_accepts(case, index, value):
    fields = format_certificate(certify(*case)).split("\t")
    name = fields[index].partition("=")[0]
    fields[index] = f"{name}={value}"
    parsed_back("\t".join(fields))
