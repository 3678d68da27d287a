"""Divisibility certificates, scans, the independent checker, and records.

The checker is adversarial: every tampered certificate in the suite must
be rejected, and every certificate the certifier emits must pass.
"""

import math
import sys

import pytest

from kendallcodes.certifier import (
    INCONCLUSIVE,
    NONEXISTENT_NOT_DIVIDING,
    NONEXISTENT_PRIME_FACTOR,
    VERDICTS,
    Certificate,
    ball_value,
    certificate_values,
    certify,
    format_certificate,
    format_certificate_pretty,
    scan,
    witness_factor_families,
)
from kendallcodes.checker import check_certificate, parse_certificate
from kendallcodes.mahonian import max_distance
from kendallcodes.numtheory import _BLOCKS, MAX_GROUP_N, is_probable_prime


def test_certify_prime_factor_verdict():
    cert = certify(5, 2)
    assert cert.ball == 14
    assert cert.factorization == ((2, 1),)  # the 5-smooth part only
    assert cert.verdict == NONEXISTENT_PRIME_FACTOR
    assert cert.witness == cert.cofactor == 7
    assert cert.witness_exponents is None
    assert not cert.degraded

    # the cofactor is never split: here it is the product of two primes > n
    cert = certify(5, 6)
    assert cert.ball == 91 == 7 * 13
    assert cert.factorization == ()
    assert cert.witness == 91

    cert = certify(6, 4)
    assert cert.ball == 98
    assert (cert.factorization, cert.witness) == (((2, 1),), 49)

    cert = certify(128, 30)
    assert math.prod(p**e for p, e in cert.factorization) * cert.witness == cert.ball
    assert all(p <= 128 for p, _ in cert.factorization)
    assert all(cert.witness % p for p in range(2, 129))


def test_certify_exponent_verdicts():
    cert = certify(13, 3)
    assert cert.ball == 441
    assert cert.factorization == ((3, 2), (7, 2))
    assert cert.verdict == NONEXISTENT_NOT_DIVIDING
    assert cert.witness == 7
    assert cert.witness_exponents == (2, 1)
    assert cert.cofactor == 1

    cert = certify(26, 3)
    assert cert.ball == 3249
    assert cert.factorization == ((3, 2), (19, 2))
    assert cert.verdict == NONEXISTENT_NOT_DIVIDING
    assert cert.witness == 19
    assert cert.witness_exponents == (2, 1)

    cert = certify(13, 4)
    assert cert.ball == 1715
    assert cert.factorization == ((5, 1), (7, 3))
    assert cert.verdict == NONEXISTENT_NOT_DIVIDING
    assert cert.witness == 7
    assert cert.witness_exponents == (3, 1)


def test_certify_inconclusive_verdicts():
    cert = certify(4, 6)  # radius reaches the diameter: the ball is the group
    assert cert.ball == 24
    assert cert.verdict == INCONCLUSIVE
    assert cert.factorization == ((2, 3), (3, 1))
    assert cert.witness is None and cert.witness_exponents is None

    for n in (2, 3, 7, 12, 30):
        cert = certify(n, 1)  # ball size n always divides n!
        assert cert.ball == n
        assert cert.verdict == INCONCLUSIVE
        assert cert.cofactor == 1

        cert = certify(n, 0)
        assert cert.ball == 1
        assert cert.verdict == INCONCLUSIVE
        assert cert.factorization == ()

    cert = certify(2, 2)  # radius past the tiny group's diameter clamps
    assert cert.ball == 2
    assert cert.verdict == INCONCLUSIVE

    # past n = 1560 the old quotient n!/B no longer printed; nothing big is stored now
    cert = certify(MAX_GROUP_N, 2)
    assert cert.verdict == INCONCLUSIVE
    assert len(format_certificate(cert)) < 200


def test_certify_validates_arguments():
    with pytest.raises(ValueError):
        certify(1, 1)
    with pytest.raises(ValueError):
        certify(10001, 1)
    with pytest.raises(ValueError):
        certify(5, -1)


@pytest.mark.parametrize(
    "n, t", [(5, True), (2, False), (True, 2), (5, 2.0), (13.0, 3), (5, "2")], ids=repr
)
def test_group_size_and_radius_must_be_exact_ints(n, t):
    # a bool or float equals the int it stands for, but its record prints otherwise
    for call in (certify, ball_value):
        with pytest.raises(ValueError, match=rf"must be ints, got n={n!r}, t={t!r}"):
            call(n, t)


@pytest.mark.parametrize("t", [True, False, 2.0, "2"], ids=repr)
def test_scan_radius_must_be_an_exact_int(t):
    with pytest.raises(ValueError, match=rf"must be ints, got n=3, t={t!r}"):
        scan(t, 2, 3)


@pytest.mark.parametrize("n_from", [True, False, 2.0, "2", None], ids=repr)
def test_scan_first_group_size_must_be_an_exact_int(n_from):
    with pytest.raises(ValueError, match=rf"must be an int, got n_from={n_from!r}"):
        scan(2, n_from, 5)


@pytest.mark.parametrize("n_to", [True, False, 5.0, "5", None], ids=repr)
def test_scan_last_group_size_must_be_an_exact_int(n_to):
    # checked before n_to is compared with n_from: a str or None raised TypeError
    with pytest.raises(ValueError, match=rf"must be an int, got n_to={n_to!r}"):
        scan(2, 2, n_to)


def test_every_emitted_certificate_passes_the_checker():
    cases = [(5, 2), (13, 3), (26, 3), (13, 4), (4, 6), (7, 1), (9, 0), (2, 2)]
    for n, t in cases:
        assert check_certificate(certify(n, t)), (n, t)


def test_scan_radius_3_rules_out_every_group_size():
    certs = list(scan(3, 4, 33))
    assert len(certs) == 30
    assert [c.n for c in certs] == list(range(4, 34))
    assert all(c.verdict != INCONCLUSIVE for c in certs)
    exponent_cases = {c.n for c in certs if c.verdict == NONEXISTENT_NOT_DIVIDING}
    assert exponent_cases == {13, 26}
    assert all(check_certificate(c) for c in certs)


def test_scan_radius_4_rules_out_every_group_size():
    certs = list(scan(4, 5, 19))
    assert len(certs) == 15
    assert all(c.verdict != INCONCLUSIVE for c in certs)
    exponent_cases = {c.n for c in certs if c.verdict == NONEXISTENT_NOT_DIVIDING}
    assert exponent_cases == {13}
    assert all(check_certificate(c) for c in certs)


def test_scan_radius_2_prime_family():
    certs = {c.n: c for c in scan(2, 2, 500)}
    assert len(certs) == 499
    for n in range(5, 501):
        if is_probable_prime(n + 2):
            cert = certs[n]
            assert cert.verdict == NONEXISTENT_PRIME_FACTOR, n
            assert cert.witness == n + 2, n
    # whatever divisibility left open really divides n!
    for cert in certs.values():
        if cert.verdict == INCONCLUSIVE:
            assert math.factorial(cert.n) % cert.ball == 0


def test_scan_radius_5_prime_family():
    certs = {c.n: c for c in scan(5, 2, 500)}
    for n in range(5, 501):
        if is_probable_prime(n + 7):
            cert = certs[n]
            assert cert.verdict == NONEXISTENT_PRIME_FACTOR, n
            assert cert.ball % (n + 7) == 0, n


def test_scan_at_radius_7_past_the_closed_forms():
    certs = list(scan(7, 2, 6))
    assert [c.n for c in certs] == [2, 3, 4, 5, 6]
    by_n = {c.n: c for c in certs}
    # tiny groups clamp to the whole group
    assert by_n[2].ball == 2 and by_n[2].verdict == INCONCLUSIVE
    assert by_n[3].ball == 6 and by_n[3].verdict == INCONCLUSIVE
    assert by_n[4].ball == 24 and by_n[4].verdict == INCONCLUSIVE
    assert by_n[5].ball == 106
    assert by_n[5].verdict == NONEXISTENT_PRIME_FACTOR
    assert by_n[5].witness == 53
    assert by_n[6].ball == 360
    assert by_n[6].verdict == INCONCLUSIVE
    assert all(check_certificate(c) for c in certs)


def test_scan_validates_arguments():
    with pytest.raises(ValueError):
        scan(3, 1, 5)
    with pytest.raises(ValueError):
        scan(3, 7, 6)
    with pytest.raises(ValueError):
        scan(3, 2, 10001)
    with pytest.raises(ValueError):
        scan(-1, 2, 5)
    with pytest.raises(ValueError):
        scan(1020, 9999, 10000)  # min(n, r) * r = 1020^2 at n=10000, past the work bound


def test_verdicts_match_factorial_residues():
    # independent oracle: a perfect code is ruled out exactly when B does not
    # divide n!, decided here by a running product of n! modulo B
    for t in range(9):
        for cert in scan(t, 2, 300):
            residue = 1
            for k in range(2, cert.n + 1):
                residue = residue * k % cert.ball
            assert (cert.verdict != INCONCLUSIVE) == (residue != 0), (cert.n, t)


# INCONCLUSIVE records per radius over n = 2..MAX_GROUP_N.  This is data, not
# proof: divisibility leaves these open, and at t = 6 the group sizes 2, 3
# and 4 have t >= D, where a one-word code is perfect.
INCONCLUSIVE_CENSUS = {2: 8770, 3: 1871, 4: 1843, 5: 333, 6: 57}
INCONCLUSIVE_T6_UP_TO_2000 = [2, 3, 4, 80, 288, 302, 441, 902, 1081, 1190, 1227, 1340, 1695, 1936]


def test_inconclusive_census():
    # counted as scan makes them, so one certificate is held at a time
    for t, count in INCONCLUSIVE_CENSUS.items():
        open_ns = [c.n for c in scan(t, 2, MAX_GROUP_N) if c.verdict == INCONCLUSIVE]
        assert len(open_ns) == count, t
    assert [n for n in open_ns if n <= 2000] == INCONCLUSIVE_T6_UP_TO_2000


def test_ball_value_routes():
    assert ball_value(13, 3) == 441
    assert ball_value(4, 600) == 24  # clamps at the diameter
    assert ball_value(6, 7) == 360
    assert ball_value(1000, 5) == 8416791081700
    with pytest.raises(ValueError):
        ball_value(10001, 2)  # past the group sizes served
    with pytest.raises(ValueError):
        ball_value(10000, 1020)  # past the work bound
    with pytest.raises(ValueError):
        ball_value(1, 1)
    with pytest.raises(ValueError):
        ball_value(5, -1)


# --- the adversarial checker -------------------------------------------------


def test_checker_rejects_tampered_witness():
    base = certify(13, 3)
    assert not check_certificate(base._replace(witness=11))
    assert not check_certificate(base._replace(witness=3))  # fits in 13!
    assert not check_certificate(base._replace(witness=None))
    assert not check_certificate(
        base._replace(witness_exponents=(1, 2))
    )
    assert not check_certificate(
        base._replace(witness_exponents=None)
    )

    prime = certify(5, 2)  # ball 14 = 2 * 7, cofactor 7
    assert not check_certificate(prime._replace(witness=14))
    assert not check_certificate(prime._replace(witness=None))
    assert not check_certificate(prime._replace(witness_exponents=(1, 0)))
    # a cofactor with a prime factor <= n is not n-rough
    assert not check_certificate(
        prime._replace(factorization=(), witness=14)
    )
    # a prime cofactor that is not above n
    assert not check_certificate(
        Certificate(13, 3, 441, ((3, 2),), NONEXISTENT_PRIME_FACTOR, witness=49)
    )
    assert not check_certificate(
        Certificate(4, 6, 24, ((2, 3),), NONEXISTENT_PRIME_FACTOR, witness=3)
    )


def test_checker_rejects_tampered_ball_and_factors():
    base = certify(13, 3)
    assert not check_certificate(base._replace(ball=442))
    assert not check_certificate(
        base._replace(factorization=((3, 2), (7, 1)))
    )
    assert not check_certificate(
        base._replace(factorization=((9, 1), (7, 2)))
    )
    assert not check_certificate(
        base._replace(factorization=((7, 2), (3, 2)))
    )
    assert not check_certificate(base._replace(factorization=()))
    # an exponent far past the ball is refused before p**e is built
    assert not check_certificate(
        base._replace(factorization=((3, 10**12), (7, 2)))
    )
    # a smooth prime above n belongs in the cofactor
    prime = certify(5, 2)
    assert not check_certificate(
        prime._replace(factorization=((2, 1), (7, 1)), witness=1)
    )


def test_checker_rejects_every_other_split_of_the_same_product():
    # each multiplies out to the ball 441 = 3^2 * 7^2 and keeps its verdict
    base = certify(13, 3)
    for smooth in (
        ((3, 1), (3, 1), (7, 2)),  # a prime repeated
        ((3, 2), (5, 0), (7, 2)),  # a prime to the power 0
        ((1, 1), (3, 2), (7, 2)),  # a factor 1
        ((7, 2), (9, 1)),  # a composite base, in ascending order
    ):
        assert not check_certificate(base._replace(factorization=smooth)), smooth


def test_checker_rejects_forged_verdicts():
    base = certify(13, 3)
    assert not check_certificate(base._replace(verdict="RULED_OUT"))
    assert not check_certificate(
        base._replace(verdict=NONEXISTENT_PRIME_FACTOR)
    )
    forged = base._replace(verdict=INCONCLUSIVE, witness=None, witness_exponents=None)
    assert not check_certificate(forged)

    prime_base = certify(5, 2)
    assert not check_certificate(prime_base._replace(witness=11))
    assert not check_certificate(prime_base._replace(witness=2))
    downgraded = prime_base._replace(
        verdict=NONEXISTENT_NOT_DIVIDING,
        witness=7,
        witness_exponents=(1, 0),
    )
    assert not check_certificate(downgraded)  # stronger verdict was skipped
    assert not check_certificate(
        prime_base._replace(verdict=INCONCLUSIVE, witness=None)
    )

    inconclusive = certify(4, 6)
    assert not check_certificate(inconclusive._replace(witness=3))
    assert not check_certificate(
        inconclusive._replace(witness_exponents=(1, 1))
    )
    assert not check_certificate(
        inconclusive._replace(verdict=NONEXISTENT_PRIME_FACTOR)
    )

    # 1715 = 5 * 7^3: the prime 5 fits inside 13! and witnesses nothing
    exponent = certify(13, 4)
    assert not check_certificate(
        exponent._replace(witness=5, witness_exponents=(1, 2))
    )


def test_checker_rejects_underived_witness_free_claims():
    # an exponent verdict always names its prime
    fake = Certificate(
        n=7,
        t=1,
        ball=7,
        factorization=((7, 1),),
        verdict=NONEXISTENT_NOT_DIVIDING,
    )
    assert not check_certificate(fake)  # 7 divides 7!, and no witness is named
    assert check_certificate(fake._replace(verdict=INCONCLUSIVE))


@pytest.mark.parametrize(
    "n, t, p, where",
    [
        (1007, 2, 503, "full block"),  # the 96th prime, inside the second block
        (1029, 2, 257, "full block"),
        (2962, 3, 2909, "tail"),
        (9973, 5, 9973, "tail"),  # p = n, the last prime of the sieve
    ],
)
def test_checker_rejects_a_smooth_prime_moved_into_the_cofactor(n, t, p, where):
    # the forged split still multiplies to the ball and keeps the verdict and
    # witness certify's rule derives from it, so only the roughness test is left
    cert = certify(n, t)
    assert cert.verdict == NONEXISTENT_PRIME_FACTOR and (p, 1) in cert.factorization
    assert check_certificate(cert)
    primes = [q for q in range(2, n + 1) if is_probable_prime(q)]
    # is_rough tests the blocks before the one holding the first prime past n
    # (or the last block) with one gcd, and that block's primes up to n apart
    tail_start = max(start for start, _, _, _ in _BLOCKS if start <= len(primes))
    assert ("full block" if primes.index(p) < tail_start else "tail") == where
    forged = cert._replace(
        factorization=tuple(pair for pair in cert.factorization if pair[0] != p),
        witness=cert.witness * p,
    )
    assert p <= min(n, math.isqrt(forged.witness))
    assert not check_certificate(forged)


@pytest.mark.parametrize(
    "n, t, field, value",
    [
        (13, 3, "n", 13.0),
        (13, 3, "t", 3.0),
        (13, 3, "factorization", ((3.0, 2), (7, 2))),
        (5, 2, "witness", 7.0),
        (13, 3, "ball", 441.0),
        (13, 3, "witness", 7.0),
        (13, 3, "witness_exponents", (2.0, 1)),
        (13, 3, "factorization", ((3, 2), (7, 2.0))),
        (13, 1, "t", True),
    ],
)
def test_checker_accepts_only_int_fields(n, t, field, value):
    # each value equals the int it stands for; the checker neither raises nor accepts
    cert = certify(n, t)
    assert check_certificate(cert)
    assert check_certificate(cert._replace(**{field: value})) is False


@pytest.mark.parametrize(
    "field, value",
    [
        ("factorization", ((3, 2, 1), (7, 2))),
        ("factorization", ((3,), (7, 2))),
        ("factorization", None),
        ("factorization", 5),
        ("witness_exponents", 5),
    ],
)
def test_checker_rejects_malformed_shapes(field, value):
    cert = certify(13, 3)
    assert check_certificate(cert._replace(**{field: value})) is False


@pytest.mark.parametrize("n, t", [(5, 2), (13, 3), (4, 6)])
def test_checker_reads_a_plain_tuple_or_list(n, t):
    # a Certificate equals the plain tuple of its seven fields, so both check alike
    cert = certify(n, t)
    for plain in (tuple(cert), list(cert)):
        assert check_certificate(plain) is True
    forged = list(cert)
    forged[5] = 11  # a witness the split does not give
    assert check_certificate(forged) is False
    assert check_certificate(tuple(forged)) is False


def test_checker_refuses_anything_but_seven_fields():
    # the checker never raises: what does not unpack into seven fields is False
    cert = tuple(certify(13, 3))
    for bad in (cert[:6], (*cert, None), (), None, 7, "abc", "abcdefg", iter(cert[:6])):
        assert check_certificate(bad) is False, bad
    assert check_certificate(iter(cert)) is True


def test_checker_rejects_records_past_the_work_bound():
    # certify never makes such a record, so the checker refuses it unrecomputed
    cert = certify(10000, 1019)
    assert check_certificate(cert)
    for t in (1020, 1021, 10**100):
        assert not check_certificate(cert._replace(t=t)), t
    assert not check_certificate(cert._replace(n=200, t=max_distance(200)))


def test_checker_rejects_records_outside_the_served_ranges():
    base = certify(13, 3)
    assert not check_certificate(base._replace(n=1))
    assert not check_certificate(base._replace(n=MAX_GROUP_N + 1))
    assert not check_certificate(base._replace(t=-1))


# --- serialization -----------------------------------------------------------


GOLDEN_RECORDS = {
    (13, 3): (
        "n=13\tt=3\tball=441\tfactorization=3^2 * 7^2"
        "\tverdict=NONEXISTENT_NOT_DIVIDING\twitness=7\twitness_exponents=2,1"
    ),
    (5, 2): (
        "n=5\tt=2\tball=14\tfactorization=2^1"
        "\tverdict=NONEXISTENT_PRIME_FACTOR\twitness=7\twitness_exponents="
    ),
    (4, 6): (
        "n=4\tt=6\tball=24\tfactorization=2^3 * 3^1"
        "\tverdict=INCONCLUSIVE\twitness=\twitness_exponents="
    ),
    (5, 106): (
        "n=5\tt=106\tball=120\tfactorization=2^3 * 3^1 * 5^1"
        "\tverdict=INCONCLUSIVE\twitness=\twitness_exponents="
    ),
    (2, 0): (
        "n=2\tt=0\tball=1\tfactorization=1"
        "\tverdict=INCONCLUSIVE\twitness=\twitness_exponents="
    ),
}


def test_record_serialization_golden():
    for (n, t), expected in GOLDEN_RECORDS.items():
        assert format_certificate(certify(n, t)) == expected


def test_record_roundtrip():
    cases = [(5, 2), (13, 3), (26, 3), (13, 4), (4, 6), (7, 1), (2, 2), (2, 0), (5, 6)]
    for n, t in cases:
        cert = certify(n, t)
        line = format_certificate(cert)
        assert parse_certificate(line) == cert
        assert parse_certificate(line + "\n") == cert
        with pytest.raises(ValueError):
            parse_certificate(line + "\n\n")


def test_certificate_is_an_immutable_named_tuple():
    cert = certify(13, 3)
    assert repr(cert) == (
        "Certificate(n=13, t=3, ball=441, factorization=((3, 2), (7, 2)),"
        " verdict='NONEXISTENT_NOT_DIVIDING', witness=7, witness_exponents=(2, 1))"
    )
    with pytest.raises(AttributeError):
        cert.witness = 3
    # degraded is read by the benchmark's tracer but is not part of a record
    assert Certificate._fields == (
        "n",
        "t",
        "ball",
        "factorization",
        "verdict",
        "witness",
        "witness_exponents",
    )
    assert "degraded" not in Certificate._fields and Certificate.degraded is False
    values = (13, 3, 441, ((3, 2), (7, 2)), NONEXISTENT_NOT_DIVIDING, 7, (2, 1))
    assert len(cert) == 7 and cert == values
    n, t, *_ = cert
    assert (n, t) == (13, 3)
    assert certificate_values(cert) == (
        "13",
        "3",
        "441",
        "3^2 * 7^2",
        "NONEXISTENT_NOT_DIVIDING",
        "7",
        "2,1",
    )


def test_parse_certificate_rejects_malformed_lines():
    good = format_certificate(certify(13, 3))
    with pytest.raises(ValueError):
        parse_certificate("not a record")
    with pytest.raises(ValueError):
        parse_certificate(good.replace("\twitness_exponents=2,1", ""))  # missing field
    with pytest.raises(ValueError):
        parse_certificate(good.replace("NONEXISTENT_NOT_DIVIDING", "MAYBE"))
    with pytest.raises(ValueError):
        parse_certificate(good.replace("witness=7", "witness=seven"))
    with pytest.raises(ValueError):
        parse_certificate(good.replace("witness_exponents=2,1", "witness_exponents=21"))
    with pytest.raises(ValueError):
        parse_certificate(good.replace("3^2 * 7^2", "7^2 * 3^2"))
    # a v1 record names its witness witness_prime
    v1 = good.replace("witness=", "witness_prime=") + "\tquotient=\tdegraded=false"
    with pytest.raises(ValueError):
        parse_certificate(v1)
    # only the record fields, in order, each once: a leading n=14 used to be
    # overwritten by the record's own n=13, and the line checked as valid
    for line in (
        "n=14\t" + good,
        good + "\twitness_exponents=2,1",
        good + "\tnote=",
        good.replace("\tverdict=", "\tnote=x\tverdict="),
        good.replace("n=13\tt=3", "t=3\tn=13"),
        good.replace(
            "witness=7\twitness_exponents=2,1", "witness_exponents=2,1\twitness=7"
        ),
    ):
        with pytest.raises(ValueError, match="record fields"):
            parse_certificate(line)


@pytest.mark.parametrize(
    "good, bad",
    [
        ("n=13", "n=1_3"),
        ("n=13", "n= 13"),
        ("n=13", "n=+13"),
        ("n=13", "n=013"),
        ("n=13", "n=\u0661\u0663"),  # Arabic-Indic digits
        ("ball=441", "ball=4_41"),
        ("witness=7", "witness=0_7"),
        ("3^2 * 7^2", "3^2*7^2"),
    ],
)
def test_parse_certificate_accepts_only_the_canonical_record(good, bad):
    # int() reads every one of these as the genuine value, which made one
    # record parse, and then check, from many byte forms
    line = format_certificate(certify(13, 3))
    assert line.count(good) == 1
    with pytest.raises(ValueError, match="canonical"):
        parse_certificate(line.replace(good, bad))


@pytest.fixture
def default_digit_limit():
    """Python's default limit on int() string conversions, restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "field, template",
    [
        ("n", "{}"),
        ("t", "{}"),
        ("ball", "{}"),
        ("witness", "{}"),
        ("witness_exponents", "{},1"),
        ("witness_exponents", "2,{}"),
        ("factorization", "{}^1"),
        ("factorization", "2^{}"),
    ],
)
def test_parse_certificate_refuses_integers_past_the_digit_limit(
    default_digit_limit, field, template
):
    # format_certificate cannot print a field past the limit, so the
    # parser refuses it as it refuses any other byte form
    digits = "1" * (default_digit_limit + 1)
    fields = format_certificate(certify(13, 3)).split("\t")
    index = Certificate._fields.index(field)
    fields[index] = f"{field}={template.format(digits)}"
    line = "\t".join(fields)
    with pytest.raises(ValueError, match="not in canonical form"):
        parse_certificate(line)
    # the line is canonical, so without the limit it parses
    sys.set_int_max_str_digits(0)
    parsed = parse_certificate(line)
    assert certificate_values(parsed)[index] == template.format(digits)


# --- annotation and pretty output --------------------------------------------


def test_witness_factor_families():
    assert witness_factor_families(certify(5, 2)) == ["n+2"]
    assert witness_factor_families(certify(13, 3)) == ["n+1", "n^2+2n-6"]
    assert witness_factor_families(certify(26, 3)) == ["n^2+2n-6"]
    assert witness_factor_families(certify(13, 4)) == ["n+1", "n^2+3n-12"]
    assert witness_factor_families(certify(4, 6)) == []  # no witness at all
    assert witness_factor_families(certify(5, 106)) == []
    assert witness_factor_families(certify(5, 5)) == ["n^3+3n^2-6n-28"]  # ball 71
    # at n = 4 the radius-5 factors multiply to 11 * 4 * 60 / 5!, not B(4, 5)
    assert witness_factor_families(certify(4, 5)._replace(witness=5)) == []


def test_a_verdict_outside_the_table_has_no_pretty_line():
    assert VERDICTS == (NONEXISTENT_PRIME_FACTOR, NONEXISTENT_NOT_DIVIDING, INCONCLUSIVE)
    for verdict in ("FOO", "inconclusive", ""):
        with pytest.raises(KeyError):
            format_certificate_pretty(certify(13, 3)._replace(verdict=verdict))


def test_format_certificate_pretty():
    text = format_certificate_pretty(certify(13, 3))
    assert "ball size 441" in text
    assert "13-smooth part 3^2 * 7^2, cofactor 1" in text
    assert "prime 7 divides the ball size 2 times but 13! only 1 times" in text
    assert "polynomial factors n+1 and n^2+2n-6" in text

    text = format_certificate_pretty(certify(5, 2))
    assert "5-smooth part 2^1, cofactor 7" in text
    assert "cofactor 7 divides the ball size" in text
    assert "no prime factor up to n = 5" in text
    assert "polynomial factor n+2" in text

    text = format_certificate_pretty(certify(4, 6))
    assert "the ball size divides 4!" in text
