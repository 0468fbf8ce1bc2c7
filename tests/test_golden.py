"""Pinned SHA-256 digests of byte-stable command-line artifacts.

The digests were taken from a tree whose outputs had been checked by
hand, and they are the same under PYTHONHASHSEED 0, 1 and 12345: every
command is checked in the test process, and three cheap ones again in
fresh interpreters under seeds 1 and 12345.  A refactor that changes any
of these bytes fails here, so "identical artifacts" needs no manual diff.
"""

import hashlib
import os
import subprocess
import sys

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
    # the rule graph: the suite at 4x4, and path answers with rule-6 steps,
    # without pruning, in text form, and with no path at all
    (("verify", "4", "4", "--checks", "rules", "--json"), 0,
     "4c222eb7f5efd7ffe1bafd60b2d01d8df776a779d1eaf5ca30f2bfcb1d4f631d"),
    (("path", "L(0) + L(1) + LT(0) + LT(1)", "J(2;e1) + J(1;e2) + J(1;inf)", "--json"), 0,
     "e619c70f0aa1261a2d30913fdfaa5440a2f83b0601759fa0ea62dee2f8ff8476"),
    (("path", "L(0) + L(0) + LT(1) + LT(1) + J(1;e1)",
      "J(2;e1) + J(1;e2) + J(1;e3) + J(1;inf)", "--no-prune", "--json"), 0,
     "ebd2e0e74d4f1f275289ed05c96e262f94f4be5269c738bbf10f401c0f9dc4ae"),
    (("path", "L(0) + L(0) + LT(1) + LT(1) + J(1;e1)",
      "J(2;e1) + J(1;e2) + J(1;e3) + J(1;inf)"), 0,
     "7deedd1de5fe8861c53ce6d2f255a2b459dbafad45bbd204b90ea47c02e24d4b"),
    (("path", "J(1;e1) + J(1;e1) + J(1;inf) + L(0) + LT(0)",
      "J(1;e3) + J(2;e3) + J(1;e4)", "--json"), 3,
     "f09e440b8269d4ecf31ea03ec62c8b619cc16503d6382634626d71c5088a69e3"),
    (("path", "J(1;e1) + J(1;e1) + J(1;inf) + L(0) + LT(0)",
      "J(1;e3) + J(2;e3) + J(1;e4)", "--no-prune", "--json"), 3,
     "f09e440b8269d4ecf31ea03ec62c8b619cc16503d6382634626d71c5088a69e3"),
    # a pruned 5x5 path across a codimension gap of 27
    (("path", "L(0) + L(0) + L(0) + LT(0) + LT(0) + LT(0) + J(2;e1)",
      "J(3;e1) + J(2;e2)", "--json"), 0,
     "75b2537c5ca7a5f92e9b9374e32ba2ba12deed857d32e63bcf30c1cb7ddfc41c"),
    # a 6x6 path with rule-6 steps at fresh labels (375 expansions)
    (("path", "J(1;inf) + J(2;inf) + L(0) + L(1) + LT(0) + LT(0)", "J(5;e3) + J(1;e4)",
      "--json"), 0,
     "0b386db422d978a2f81f624c9bfa51117149651f2ef35fe6655b6ee1ad1c5db7"),
    # the verifier's encoded label matchings: the rules suite at 5x5, and
    # both pair suites without infinity and with a one-label pool
    (("verify", "5", "5", "--checks", "rules", "--json"), 0,
     "f1393a930147125a594227189207a886777cbe7e46cc41b58feeed4fba54592a"),
    (("verify", "4", "4", "--checks", "dim,rules", "--no-infinity", "--json"), 0,
     "a586d8e2080c22bdd2a200bdac62c077923e5c275df9767a404a87b61c478625"),
    (("verify", "4", "5", "--checks", "dim,rules", "--pool", "1", "--json"), 0,
     "e654711dfab3cc0631f17370cad936c9f759603ada8822af6f08a186237b191d"),
    # an exact pencil with every kind of block, at rational eigenvalues
    (("realize", "J(2;e1) + J(1;e1) + J(3;e2) + J(2;inf) + L(1) + L(0) + LT(2) + LT(0)",
      "--assign", "e1=7/2,e2=-2/3", "--json"), 0,
     "a506c339e9afe9a919074fd64c89008ce7fa5d87760e4954b5531e71ed0cc556"),
    # the formulas suite at one of the sizes the benchmark runs
    (("verify", "4", "5", "--checks", "formulas", "--seed", "0", "--json"), 0,
     "5cd9d3f20e92a8c50ed488b8a60129e5e12babe07aaf45b7b60347f8403c85ab"),
    # the closure graph above 6x6 and without infinity, and the dim suite
    # with a one-label pool
    (("graph", "7", "7", "--json"), 0,
     "9cc94c3800ea08a4481f65d4037780cf3a0b0f3cde35a22f8730c4e3bb78fb5f"),
    (("graph", "5", "5", "--no-infinity", "--dot"), 0,
     "96474371d3ccc7d21c37a1a329a28912af37a58638be343cbff2c2ad0adc6e84"),
    (("verify", "5", "5", "--checks", "dim", "--pool", "1", "--json"), 0,
     "42ae6f2afb2025aa366b7bbf1642599bb11a39c9d2ede5ba3f538af7af6d3604"),
    # the dim suite's node-first route at 7x7 (1 365 nodes, 7 642 591
    # label-matched pairs) and without infinity at 6x6
    (("verify", "7", "7", "--checks", "dim", "--json"), 0,
     "af5c6694e15b431ab8d8fc2f67a9b27d845eacb6c85badab9741f26771f12654"),
    (("verify", "6", "6", "--checks", "dim", "--no-infinity", "--json"), 0,
     "5d4b70c2bff647b56bf5d32a20af8ffb0fa75022edf4eaa683ff560a1a85ae15"),
    # the enumerator: square, tall, and wide with a one-label pool and no
    # infinity
    (("enumerate", "6", "6", "--json"), 0,
     "4d3765252973a928a8841d1384434a1ab4d5efc729498888d7afc2a41c2cc136"),
    (("enumerate", "6", "3", "--json"), 0,
     "4b3babea4335e256893439b6f298e3b4ea3594761c0ee44b5fc418f3cfe91340"),
    (("enumerate", "3", "7", "--pool", "1", "--no-infinity", "--json"), 0,
     "76bc7522e07c13d9d0c033656fac6b24ec7b78d5af07cb183a38ccb6fee58eda"),
    # the 2.2 MB closure graph at 8x8, the largest indented JSON the
    # command line writes in the test suite
    (("graph", "8", "8", "--json"), 0,
     "2181c64d161f94f2035c97f1198937cd054301448f92b87384bc7dc63ac4734c"),
    # the e1 condition fails, the e2 condition holds
    (("closure", "J(1;e1) + L(1)", "J(1;e2) + L(1)"), 3,
     "8790150620560fe7fe332ea39866a40c89bb76fb9fe77238498fd7bc436c2072"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_artifact_digest(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# structures, rule moves and both pair suites, each in its own interpreter
SEEDED = [g for g in GOLDEN if g[0] in {
    ("verify", "3", "3", "--checks", "dim,rules", "--json"),
    ("graph", "3", "4", "--dot"),
    ("path", "L(0) + L(1) + LT(0) + LT(1)", "J(2;e1) + J(1;e2) + J(1;inf)", "--json"),
}]


@pytest.mark.parametrize("seed", ["1", "12345"])
def test_artifact_digest_under_hash_seed(seed):
    assert len(SEEDED) == 3
    env = dict(os.environ, PYTHONHASHSEED=seed)
    for argv, code, digest in SEEDED:
        done = subprocess.run([sys.executable, "-m", "kcforbits.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == code, done.stderr
        assert hashlib.sha256(done.stdout).hexdigest() == digest, argv
