"""The pinned worked-example run and its tamper sensitivity.

The passing report's check names, order and JSON keys are pinned byte
for byte by tests/golden/verify.txt and verify.json, which
tests/decode_corpus.py compares with `verify` and `verify --json`.
"""

import sys

from bladebind import cartan, codec, multivector, verify


def test_tampered_encode_sign_fails_first_check(monkeypatch):
    monkeypatch.setattr(codec, "product_sign", lambda a, b: 1)
    report = verify.run_verification()
    assert not report.passed
    assert report.first_failure.name == "bound-pair-signs"


def test_tampered_product_sign_fails_decode_check(monkeypatch):
    # encode still uses the real sign; the multivector product's int kernel does not
    monkeypatch.setattr(multivector, "_masked_sign", lambda b, mask: -_real_sign(b, mask))
    report = verify.run_verification()
    assert not report.passed
    assert report.first_failure.name == "name-decode-terms"


def test_tampered_decode_sign_fails_cleanup_check(monkeypatch):
    # the decode scores each filler hit with the bind sign; negate it there only
    real = codec.product_sign

    def decode_negated(a, b):
        sign = real(a, b)
        return -sign if sys._getframe(1).f_code.co_name == "ga_decode" else sign

    monkeypatch.setattr(codec, "product_sign", decode_negated)
    report = verify.run_verification()
    assert not report.passed
    assert report.first_failure.name == "cleanup-winners"


def test_tampered_pauli_table_fails_oracle_check(monkeypatch):
    # sigma1 sigma2 is +i sigma3; the codec checks before this one never read the table
    assert cartan._SLOT_PRODUCT[cartan.SIGMA1, cartan.SIGMA2] == (1, cartan.SIGMA3)
    monkeypatch.setitem(cartan._SLOT_PRODUCT, (cartan.SIGMA1, cartan.SIGMA2), (3, cartan.SIGMA3))
    report = verify.run_verification()
    assert not report.passed
    assert report.first_failure.name == "matrix-oracle-agreement"


def _real_sign(b, mask):
    from bladebind.blades import _masked_sign

    return _masked_sign(b, mask)


def test_fixture_table_is_the_worked_assignment():
    t = verify.fixture_table()
    assert t.n == 4 and t.k == 2
    assert t.roles["name"].bits == "1010"
    assert t.fillers["Pat"].bits == "1100"
    assert t.fillers["66"].bits == "0100"


def test_format_text_reports_failure_diff(monkeypatch):
    monkeypatch.setattr(codec, "product_sign", lambda a, b: 1)
    text = verify.run_verification().format_text()
    assert "FAIL" in text and "bound-pair-signs" in text and "expected" in text
