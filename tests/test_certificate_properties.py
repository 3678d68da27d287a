"""Property tests: records round-trip, and the checker rejects every forgery.

Each certificate is mutated in one field at a time: the ball, the
witness and either exponent by one, the verdict swapped for each other
verdict, one smooth exponent bumped, one smooth prime dropped.  The
checker must reject every such record, and accept the genuine one.
Fields are also replaced by values of any shape, which the checker must
judge without raising.  Record lines, arbitrary or with one field's text
replaced, are parsed: the parser raises only ValueError and prints back
every line it accepts.  Mutated record lines, and factorization texts,
are parsed both by the parser and by the reference it replaced, which
must agree on every one.
"""

import math
from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kendallcodes.certifier import (
    MAX_BALL_WORK,
    RECORD_FIELDS,
    Certificate,
    VERDICTS,
    certificate_values,
    certify,
    format_certificate,
    format_factorization,
)
from kendallcodes.checker import check_certificate, parse_certificate, parse_factorization
from kendallcodes.mahonian import max_distance
from kendallcodes.numtheory import MAX_GROUP_N


@st.composite
def group_and_radius(draw):
    """Radii up to 5 anywhere in the served range; up to 60 within the table cap."""
    if draw(st.booleans()):
        return draw(st.integers(2, MAX_GROUP_N)), draw(st.integers(0, 5))
    return draw(st.integers(2, 128)), draw(st.integers(0, 60))


def largest_served_radius(n):
    """A radius up to which every radius is served: a lower bound, not the edge.

    It is the largest t with min(n, t) * t within the work bound (t stops
    at D).  From the midpoint on the bound measures the reflected radius,
    floored at n, so larger radii may be served too.
    """
    if n * n > MAX_BALL_WORK:
        return math.isqrt(MAX_BALL_WORK)
    return min(max_distance(n), MAX_BALL_WORK // n)


@st.composite
def past_n_128(draw):
    """Radii above 5 for n above 128, up to the work bound."""
    n = draw(st.integers(129, MAX_GROUP_N))
    return n, draw(st.integers(6, largest_served_radius(n)))


@st.composite
def near_the_diameter(draw):
    """Radii from the diameter D on, and reflected ones up to 2n + 1, for n in 129..1019.

    Radii at or past D give n!; from the midpoint on the ball is n! minus
    the reflected ball of radius D - 1 - t, which is served while
    n * (D - 1 - t) is within the work bound.
    """
    n = draw(st.integers(129, 1019))
    d = max_distance(n)
    return n, draw(st.integers(d - 1 - min(2 * n + 1, MAX_BALL_WORK // n), d + 2))


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
@example((1019, max_distance(1019)))
@example((1019, max_distance(1019) - 1021))
@given(st.one_of(group_and_radius(), past_n_128(), near_the_diameter()))
def test_record_roundtrip(case):
    cert = certify(*case)
    line = format_certificate(cert)
    assert "\n" not in line
    assert parse_certificate(line) == cert
    assert format_certificate(parse_certificate(line)) == line


@settings(max_examples=150, deadline=None)
@with_exponent_verdicts
@example((129, max_distance(129)))
@example((1019, max_distance(1019) - 1021))
@given(st.one_of(group_and_radius(), near_the_diameter()))
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


def reference_parse_factorization(text):
    """The reference factorization parser: a lenient reading, then printed back.

    It strips the text and each factor and reads each base and exponent
    with int(), which also takes signs, zeros, `_`, spaces and other
    digits.  The text is canonical when every integer read is positive
    and format_factorization prints what was read back as the text; only
    then are the primes compared.
    """
    not_canonical = ValueError(f"factorization {text!r} is not in canonical form")
    stripped = text.strip()
    factors = []
    if stripped != "1":
        for part in stripped.split("*"):
            base, sep, exponent = part.strip().partition("^")
            if not sep:
                raise not_canonical
            try:
                factors.append((int(base), int(exponent)))
            except ValueError:
                raise not_canonical from None
    if format_factorization(factors) != text or any(p < 1 or e < 1 for p, e in factors):
        raise not_canonical
    primes = [p for p, _ in factors]
    if primes and (primes[0] < 2 or primes != sorted(set(primes))):
        raise ValueError(f"primes must be at least 2 and ascending in {text!r}")
    return tuple(factors)


def roundtrip_parse_certificate(line):
    """The reference parser: split the fields, convert them, then print them back.

    A line is accepted when the printed values equal the ones read, so
    the record is canonical without a grammar of its own.
    """
    line = line.removesuffix("\n")
    names, values = [], []
    for part in line.split("\t"):
        name, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed record field {part!r}")
        names.append(name)
        values.append(value)
    if tuple(names) != RECORD_FIELDS:
        raise ValueError(f"record fields {names} are not {list(RECORD_FIELDS)}")
    n, t, ball, factorization, verdict, witness, exponents_text = values
    if verdict not in VERDICTS:
        raise ValueError(f"unknown verdict {verdict!r}")
    exponents: Optional[tuple[int, int]] = None
    if exponents_text:
        first, sep, second = exponents_text.partition(",")
        if not sep:
            raise ValueError(f"malformed exponent pair {exponents_text!r}")
        exponents = (int(first), int(second))
    cert = Certificate(
        int(n),
        int(t),
        int(ball),
        reference_parse_factorization(factorization),
        verdict,
        int(witness) if witness else None,
        exponents,
    )
    if certificate_values(cert) != tuple(values):
        raise ValueError(f"record {line!r} is not in canonical form")
    return cert


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))
# a field's text with a sign, zero padding, `_`, other digits, spaces or a
# second newline, or as an empty, zero or negative zero field
FIELD_EDITS = [
    lambda v: "+" + v,
    lambda v: "-" + v,
    lambda v: "0" + v,
    lambda v: "00",
    lambda v: "-0",
    lambda v: v[:1] + "_" + v[1:],
    lambda v: v.translate(ARABIC_INDIC),
    lambda v: v.translate(FULLWIDTH),
    lambda v: " " + v,
    lambda v: v + " ",
    lambda v: v.replace(" * ", "*"),
    lambda v: v.replace(",", " , "),
    lambda v: v + "\n",
    lambda v: "",
]
# record syntax, digits of every kind and whitespace
MUTATION_CHARS = st.sampled_from("0123456789-+_ ,^*=\t\n\r\u0661\uff11\u00a0")


@st.composite
def mutated_record(draw):
    """A genuine record line after one to three edits of its characters or field texts."""
    line = format_certificate(certify(*draw(group_and_radius())))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "replace", "field"]))
        if kind == "field":
            fields = line.split("\t")
            index = draw(st.integers(0, len(fields) - 1))
            name, sep, value = fields[index].partition("=")
            fields[index] = name + sep + draw(st.sampled_from(FIELD_EDITS))(value)
            line = "\t".join(fields)
            continue
        at = draw(st.integers(0, len(line) if kind == "insert" else len(line) - 1))
        new = draw(MUTATION_CHARS) if kind != "delete" else ""
        line = line[:at] + new + line[at + (kind != "insert") :]
    return line


def parsed_or_none(parse, line):
    try:
        return parse(line)
    except ValueError:
        return None


@settings(max_examples=600, deadline=None)
@example(format_certificate(certify(13, 3)))
@example(format_certificate(certify(13, 3)).replace("ball=441", "ball=541"))
@example(format_certificate(certify(13, 3)).replace("=2,1", "=2,-1") + "\n")
@example(format_certificate(certify(13, 3)).replace("n=13", "n=-0"))
@example(format_certificate(certify(13, 3)).replace("3^2", "1^2"))
@example(format_certificate(certify(5, 2)).replace("witness=7", "witness=0"))
@example(format_certificate(certify(2, 0)).replace("factorization=1", "factorization= 1"))
@given(mutated_record())
def test_parser_accepts_what_the_reference_accepts(line):
    expected = parsed_or_none(roundtrip_parse_certificate, line)
    parsed = parsed_or_none(parse_certificate, line)
    assert (parsed is None) == (expected is None)
    if parsed is not None:
        assert type(parsed) is Certificate
        assert exactly(tuple(parsed), tuple(expected))


def outcome(parse, text):
    """What ``parse`` returns, or the message of the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


FACTOR_TEXT = st.text(alphabet="0123456789 *^-+_\t\n\u0661", max_size=30)


@st.composite
def factorization_text(draw):
    """A factorization as printed, with spaces and signs spliced in, or any nearby text."""
    if draw(st.booleans()):
        return draw(FACTOR_TEXT)
    factors = draw(st.lists(st.tuples(st.integers(-2, 60), st.integers(-1, 4)), max_size=4))
    text = format_factorization(factors)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(" *^+-_0\u0661")) + text[at:]
    return text


@settings(max_examples=600, deadline=None)
@example("  3^2   *  7^2 ")
@example("7^2 * 3^2 * x^1")
@example("2^1 * 2^1")
@example(" 3 ^ 2 * 7^ 2")
@given(factorization_text())
def test_factorization_parser_matches_the_reference(text):
    assert outcome(parse_factorization, text) == outcome(reference_parse_factorization, text)
