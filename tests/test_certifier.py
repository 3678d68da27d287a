"""Divisibility certificates, scans, the independent checker, and records.

The checker is adversarial: every tampered certificate in the suite must
be rejected, and every certificate the certifier emits must pass.
"""

import dataclasses
import math

import pytest

from kendallcodes import certifier
from kendallcodes.certifier import (
    INCONCLUSIVE,
    NONEXISTENT_NOT_DIVIDING,
    NONEXISTENT_PRIME_FACTOR,
    Certificate,
    ball_value,
    certify,
    check_certificate,
    format_certificate,
    format_certificate_pretty,
    parse_certificate,
    scan,
    witness_factor_families,
)
from kendallcodes.numtheory import FactorizationBudgetError, is_probable_prime


def test_certify_prime_factor_verdict():
    cert = certify(5, 2)
    assert cert.ball == 14
    assert cert.factorization == ((2, 1), (7, 1))
    assert cert.verdict == NONEXISTENT_PRIME_FACTOR
    assert cert.witness_prime == 7
    assert cert.witness_exponents is None
    assert cert.quotient is None
    assert not cert.degraded


def test_certify_exponent_verdicts():
    cert = certify(13, 3)
    assert cert.ball == 441
    assert cert.factorization == ((3, 2), (7, 2))
    assert cert.verdict == NONEXISTENT_NOT_DIVIDING
    assert cert.witness_prime == 7
    assert cert.witness_exponents == (2, 1)

    cert = certify(26, 3)
    assert cert.ball == 3249
    assert cert.factorization == ((3, 2), (19, 2))
    assert cert.verdict == NONEXISTENT_NOT_DIVIDING
    assert cert.witness_prime == 19
    assert cert.witness_exponents == (2, 1)

    cert = certify(13, 4)
    assert cert.ball == 1715
    assert cert.factorization == ((5, 1), (7, 3))
    assert cert.verdict == NONEXISTENT_NOT_DIVIDING
    assert cert.witness_prime == 7
    assert cert.witness_exponents == (3, 1)


def test_certify_inconclusive_verdicts():
    cert = certify(4, 6)  # radius reaches the diameter: the ball is the group
    assert cert.ball == 24
    assert cert.verdict == INCONCLUSIVE
    assert cert.quotient == 1

    for n in (2, 3, 7, 12, 30):
        cert = certify(n, 1)  # ball size n always divides n!
        assert cert.ball == n
        assert cert.verdict == INCONCLUSIVE
        assert cert.quotient == math.factorial(n - 1)

        cert = certify(n, 0)
        assert cert.ball == 1
        assert cert.verdict == INCONCLUSIVE
        assert cert.quotient == math.factorial(n)

    cert = certify(2, 2)  # radius past the tiny group's diameter clamps
    assert cert.ball == 2
    assert cert.verdict == INCONCLUSIVE
    assert cert.quotient == 1


def test_certify_validates_arguments():
    with pytest.raises(ValueError):
        certify(1, 1)
    with pytest.raises(ValueError):
        certify(10001, 1)
    with pytest.raises(ValueError):
        certify(5, -1)


def test_every_emitted_certificate_passes_the_checker():
    cases = [(5, 2), (13, 3), (26, 3), (13, 4), (4, 6), (7, 1), (9, 0), (2, 2)]
    for n, t in cases:
        assert check_certificate(certify(n, t)), (n, t)


def test_scan_radius_3_rules_out_every_group_size():
    certs = scan(3, 4, 33)
    assert len(certs) == 30
    assert [c.n for c in certs] == list(range(4, 34))
    assert all(c.verdict != INCONCLUSIVE for c in certs)
    exponent_cases = {c.n for c in certs if c.verdict == NONEXISTENT_NOT_DIVIDING}
    assert exponent_cases == {13, 26}
    assert all(check_certificate(c) for c in certs)


def test_scan_radius_4_rules_out_every_group_size():
    certs = scan(4, 5, 19)
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
            assert cert.witness_prime == n + 2, n
    # quotient bookkeeping on whatever divisibility left open
    for cert in certs.values():
        if cert.verdict == INCONCLUSIVE:
            assert cert.quotient * cert.ball == math.factorial(cert.n)


def test_scan_radius_5_prime_family():
    certs = {c.n: c for c in scan(5, 2, 500)}
    for n in range(5, 501):
        if is_probable_prime(n + 7):
            cert = certs[n]
            assert cert.verdict == NONEXISTENT_PRIME_FACTOR, n
            assert cert.ball % (n + 7) == 0, n


def test_scan_beyond_closed_forms_uses_shared_table():
    certs = scan(7, 2, 6)
    assert [c.n for c in certs] == [2, 3, 4, 5, 6]
    by_n = {c.n: c for c in certs}
    # tiny groups clamp to the whole group
    assert by_n[2].ball == 2 and by_n[2].quotient == 1
    assert by_n[3].ball == 6 and by_n[3].quotient == 1
    assert by_n[4].ball == 24 and by_n[4].quotient == 1
    assert by_n[5].ball == 106
    assert by_n[5].verdict == NONEXISTENT_PRIME_FACTOR
    assert by_n[5].witness_prime == 53
    assert by_n[6].ball == 360
    assert by_n[6].verdict == INCONCLUSIVE and by_n[6].quotient == 2
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
        scan(3, 2, 5, jobs=0)
    with pytest.raises(ValueError):
        scan(6, 2, 200, table_cap=128)  # table route cannot reach n=200


def test_scan_parallel_matches_serial():
    serial = scan(3, 4, 20)
    parallel = scan(3, 4, 20, jobs=2)
    assert parallel == serial


def test_scan_parallel_beyond_closed_forms_matches_serial():
    assert scan(6, 2, 40, jobs=2) == scan(6, 2, 40)


def test_ball_value_routes():
    assert ball_value(13, 3) == 441
    assert ball_value(4, 600) == 24  # clamps at the diameter
    assert ball_value(6, 7) == 360  # table route, built on demand
    assert ball_value(1000, 5) == 8416791081700  # closed form, far past any table
    with pytest.raises(ValueError):
        ball_value(200, 6, table_cap=128)
    with pytest.raises(ValueError):
        ball_value(1, 1)
    with pytest.raises(ValueError):
        ball_value(5, -1)


# --- degraded path -----------------------------------------------------------


def _forced_budget_failure(known, cofactor_of):
    def fake_factorize(value, *, rho_budget=0):
        raise FactorizationBudgetError(value, known, cofactor_of(value))

    return fake_factorize


def test_degraded_oversized_prime(monkeypatch):
    monkeypatch.setattr(
        certifier, "factorize", _forced_budget_failure(((7, 1),), lambda v: v // 7)
    )
    cert = certify(5, 2)
    assert cert.degraded
    assert cert.factorization is None
    assert cert.verdict == NONEXISTENT_PRIME_FACTOR
    assert cert.witness_prime == 7
    assert check_certificate(cert)


def test_degraded_exponent_witness_uses_exact_valuations(monkeypatch):
    # the partial factorization understates the exponent of 7; the witness
    # must still carry the true count of 2
    monkeypatch.setattr(
        certifier, "factorize", _forced_budget_failure(((7, 1),), lambda v: v // 7)
    )
    cert = certify(13, 3)
    assert cert.degraded
    assert cert.verdict == NONEXISTENT_NOT_DIVIDING
    assert cert.witness_prime == 7
    assert cert.witness_exponents == (2, 1)
    assert check_certificate(cert)


def test_degraded_remainder_test_without_witness(monkeypatch):
    monkeypatch.setattr(
        certifier, "factorize", _forced_budget_failure((), lambda v: v)
    )
    cert = certify(13, 3)
    assert cert.degraded
    assert cert.verdict == NONEXISTENT_NOT_DIVIDING
    assert cert.witness_prime is None
    assert cert.witness_exponents is None
    assert check_certificate(cert)


def test_degraded_inconclusive_keeps_quotient(monkeypatch):
    monkeypatch.setattr(
        certifier, "factorize", _forced_budget_failure((), lambda v: v)
    )
    cert = certify(4, 6)
    assert cert.degraded
    assert cert.verdict == INCONCLUSIVE
    assert cert.quotient == 1
    assert check_certificate(cert)


def test_degraded_certificates_arise_from_real_budgets():
    # large table-route balls genuinely defeat a zero splitting budget
    cert = certify(20, 63, factor_budget=0)
    assert cert.degraded
    assert cert.factorization is None
    assert cert.ball == 48368691114249227
    assert cert.verdict == NONEXISTENT_PRIME_FACTOR
    assert cert.witness_prime == 23
    assert check_certificate(cert)

    cert = certify(20, 72, factor_budget=0)
    assert cert.degraded
    assert cert.verdict == NONEXISTENT_NOT_DIVIDING
    assert cert.witness_prime is None  # remainder test, no witness available
    assert check_certificate(cert)

    # with the default budget the same inputs factor completely
    assert not certify(20, 63).degraded


# --- the adversarial checker -------------------------------------------------


def test_checker_rejects_tampered_witness():
    base = certify(13, 3)
    assert not check_certificate(dataclasses.replace(base, witness_prime=11))
    assert not check_certificate(dataclasses.replace(base, witness_prime=None))
    assert not check_certificate(
        dataclasses.replace(base, witness_exponents=(1, 2))
    )
    assert not check_certificate(
        dataclasses.replace(base, witness_exponents=None)
    )


def test_checker_rejects_tampered_ball_and_factors():
    base = certify(13, 3)
    assert not check_certificate(dataclasses.replace(base, ball=442))
    assert not check_certificate(
        dataclasses.replace(base, factorization=((3, 2), (7, 1)))
    )
    assert not check_certificate(
        dataclasses.replace(base, factorization=((9, 1), (7, 2)))
    )
    assert not check_certificate(
        dataclasses.replace(base, factorization=((7, 2), (3, 2)))
    )
    assert not check_certificate(dataclasses.replace(base, factorization=None))
    assert not check_certificate(dataclasses.replace(base, degraded=True))


def test_checker_rejects_forged_verdicts():
    base = certify(13, 3)
    assert not check_certificate(dataclasses.replace(base, verdict="RULED_OUT"))
    assert not check_certificate(
        dataclasses.replace(base, verdict=NONEXISTENT_PRIME_FACTOR)
    )
    forged = dataclasses.replace(
        base,
        verdict=INCONCLUSIVE,
        witness_prime=None,
        witness_exponents=None,
        quotient=math.factorial(13) // base.ball,
    )
    assert not check_certificate(forged)

    prime_base = certify(5, 2)
    assert not check_certificate(
        dataclasses.replace(prime_base, witness_prime=11)
    )
    assert not check_certificate(dataclasses.replace(prime_base, witness_prime=2))
    downgraded = dataclasses.replace(
        prime_base,
        verdict=NONEXISTENT_NOT_DIVIDING,
        witness_prime=7,
        witness_exponents=(1, 0),
    )
    assert not check_certificate(downgraded)  # stronger verdict was skipped

    inconclusive = certify(4, 6)
    assert not check_certificate(dataclasses.replace(inconclusive, quotient=2))
    assert not check_certificate(dataclasses.replace(inconclusive, quotient=None))
    assert not check_certificate(
        dataclasses.replace(inconclusive, witness_prime=3)
    )


def test_checker_rejects_underived_witness_free_claims():
    # witness-free exponent verdicts are acceptable only as degraded output
    fake = Certificate(
        n=7,
        t=1,
        ball=7,
        factorization=None,
        verdict=NONEXISTENT_NOT_DIVIDING,
        degraded=True,
    )
    assert not check_certificate(fake)  # 7 divides 7!, remainder test fails


# --- serialization -----------------------------------------------------------


GOLDEN_RECORDS = {
    (13, 3): (
        "n=13\tt=3\tball=441\tfactorization=3^2 * 7^2"
        "\tverdict=NONEXISTENT_NOT_DIVIDING\twitness_prime=7"
        "\twitness_exponents=2,1\tquotient=\tdegraded=false"
    ),
    (5, 2): (
        "n=5\tt=2\tball=14\tfactorization=2^1 * 7^1"
        "\tverdict=NONEXISTENT_PRIME_FACTOR\twitness_prime=7"
        "\twitness_exponents=\tquotient=\tdegraded=false"
    ),
    (4, 6): (
        "n=4\tt=6\tball=24\tfactorization=2^3 * 3^1"
        "\tverdict=INCONCLUSIVE\twitness_prime="
        "\twitness_exponents=\tquotient=1\tdegraded=false"
    ),
}


def test_record_serialization_golden():
    for (n, t), expected in GOLDEN_RECORDS.items():
        assert format_certificate(certify(n, t)) == expected


def test_record_roundtrip():
    cases = [(5, 2), (13, 3), (26, 3), (13, 4), (4, 6), (7, 1), (2, 2)]
    for n, t in cases:
        cert = certify(n, t)
        assert parse_certificate(format_certificate(cert)) == cert
    degraded = certify(20, 72, factor_budget=0)
    line = format_certificate(degraded)
    assert "factorization=unfactored" in line
    assert "degraded=true" in line
    assert parse_certificate(line) == degraded
    assert parse_certificate(line + "\n") == degraded


def test_parse_certificate_rejects_malformed_lines():
    good = format_certificate(certify(13, 3))
    with pytest.raises(ValueError):
        parse_certificate("not a record")
    with pytest.raises(ValueError):
        parse_certificate(good.replace("\tquotient=", ""))  # missing field
    with pytest.raises(ValueError):
        parse_certificate(good.replace("NONEXISTENT_NOT_DIVIDING", "MAYBE"))
    with pytest.raises(ValueError):
        parse_certificate(good.replace("degraded=false", "degraded=no"))
    with pytest.raises(ValueError):
        parse_certificate(good.replace("witness_exponents=2,1", "witness_exponents=21"))


# --- annotation and pretty output --------------------------------------------


def test_witness_factor_families():
    assert witness_factor_families(certify(5, 2)) == ["n+2"]
    assert witness_factor_families(certify(13, 3)) == ["n+1", "n^2+2n-6"]
    assert witness_factor_families(certify(26, 3)) == ["n^2+2n-6"]
    assert witness_factor_families(certify(13, 4)) == ["n+1", "n^2+3n-12"]
    assert witness_factor_families(certify(4, 6)) == []  # no witness at all
    assert witness_factor_families(certify(5, 106)) == []


def test_format_certificate_pretty():
    text = format_certificate_pretty(certify(13, 3))
    assert "ball size 441" in text
    assert "3^2 * 7^2" in text
    assert "prime 7 divides the ball size 2 times but 13! only 1 times" in text
    assert "polynomial factors n+1 and n^2+2n-6" in text

    text = format_certificate_pretty(certify(5, 2))
    assert "prime 7" in text and "exceeds n = 5" in text
    assert "polynomial factor n+2" in text

    text = format_certificate_pretty(certify(4, 6))
    assert "quotient 1" in text

    text = format_certificate_pretty(certify(20, 72, factor_budget=0))
    assert "unfactored" in text
    assert "degraded evidence" in text
