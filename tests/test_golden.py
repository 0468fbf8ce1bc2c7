"""Pinned SHA-256 digests of byte-stable command-line artifacts.

The digests were taken from a tree whose outputs had been checked by
hand, and they are the same under PYTHONHASHSEED 0, 1 and 12345.  A
refactor that changes any of these bytes fails here, so "identical
artifacts" needs no manual diff.
"""

import hashlib

import pytest

from kcforbits.cli import main

GOLDEN = [
    (("graph", "4", "4", "--json"), 0,
     "907340395b69aac51bed9279b466781615a10c25d49ac66360bb91a9c607cf70"),
    (("verify", "3", "3", "--checks", "dim,rules", "--json"), 0,
     "2eb348b1167d2ce65fa924edf4b0a4a55df231f2b7bae35df3e25e9c924feec1"),
    (("verify", "3", "3", "--checks", "dim,rules", "--json", "--no-infinity"), 0,
     "ad140d12d71877e49cd2db0402729d8d0df7e3fc7620319bc62dae603afb42d1"),
    (("graph", "3", "4", "--dot"), 0,
     "664620b87bde654422f0e6f81359f950d0f2f0494dbf3c96931a14b7ca3f6d48"),
    # the all-pairs closure relation at the sizes the benchmark runs
    (("graph", "6", "6", "--json"), 0,
     "94b4b68fd2ce1b41474b3b51bae340c78388c029865398dadb95ef545224cd87"),
    (("graph", "5", "5", "--dot"), 0,
     "aa2f2dfe8f498d2939251ad08cc6cf33f0ee9a27359b3564e4b75f613f19772d"),
    (("verify", "5", "5", "--checks", "dim", "--json"), 0,
     "1eb18b27f07b6cd9f32e6c9ef0e940ec644ceecffbd1ae1947c7248678ea8008"),
    (("verify", "4", "5", "--checks", "rules", "--json"), 0,
     "a35101b4fe3021934b38063e913feaed636167b1a2177fa46fbeb55e68145662"),
    # the e1 condition fails, the e2 condition holds
    (("closure", "J(1;e1) + L(1)", "J(1;e2) + L(1)"), 3,
     "8790150620560fe7fe332ea39866a40c89bb76fb9fe77238498fd7bc436c2072"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_artifact_digest(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
