"""The pinned worked-example run and its tamper sensitivity."""

from bladebind import cartan, codec, multivector, verify


def test_verification_passes():
    report = verify.run_verification()
    assert report.passed
    assert report.first_failure is None
    assert [c.name for c in report.checks] == [
        "bound-pair-signs",
        "encoded-record",
        "name-decode-terms",
        "trace-scalar-product",
        "matrix-oracle-agreement",
        "generator-product-diagonal",
        "cleanup-winners",
    ]


def test_report_json_shape():
    obj = verify.run_verification().to_json()
    assert obj["passed"] is True
    assert len(obj["checks"]) == 7
    assert all({"name", "passed", "expected", "actual"} <= c.keys() for c in obj["checks"])


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
    # the decode signs each relabelled record term itself, with no product
    monkeypatch.setattr(codec, "_masked_sign", lambda b, mask: -_real_sign(b, mask))
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
