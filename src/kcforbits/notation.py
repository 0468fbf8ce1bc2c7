"""Text and JSON forms of Kronecker structures.

Grammar (whitespace insignificant):

    structure := term ('+' term)*
    term      := 'J(' size ';' eig ')' | 'L(' size ')' | 'LT(' size ')'
    eig       := 'inf' | 'e' digits
    size      := decimal integer   (J needs size >= 1, L/LT need >= 0)

Integers (sizes and eigenvalue ids) longer than ``MAX_DIGITS`` significant
digits raise :class:`NotationLimitExceededError` before conversion, and so
does a pencil with a dimension above 10**``MAX_DIGITS``, before the
structure is built.

``parse_structure`` and ``format_structure`` round-trip on canonical
structures; the formatter emits Jordan terms first, then L, then LT,
each in sorted order.
"""

import re

from .core import INFINITY, EigenvalueLabel, KroneckerStructure, finite, size_from_blocks
from .errors import DomainError, NotationLimitExceededError, ParseError

__all__ = [
    "parse_structure",
    "format_structure",
    "parse_eigenvalue",
    "structure_to_json_dict",
]

MAX_DIGITS = 6  # invariants take time and memory linear in the pencil size

_TOKEN = re.compile(r"\s*(?:(?P<word>[A-Za-z]+[0-9]*)|(?P<int>[0-9]+)|(?P<punct>[();+]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at,
                             expected={"'J'", "'L'", "'LT'", "integer", "punctuation"})
        kind = match.lastgroup
        value = match.group(kind)
        tokens.append((kind, value, match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _integer(digits: str) -> int:
    significant = digits.lstrip("0")
    if len(significant) > MAX_DIGITS:
        raise NotationLimitExceededError(f"integer of {len(significant)} digits in "
                                         f"structure notation (at most {MAX_DIGITS} allowed)")
    return int(significant or "0")


def parse_eigenvalue(text: str) -> EigenvalueLabel:
    """Parse an eigenvalue written as ``inf`` or ``e<digits>``."""
    if text == "inf":
        return INFINITY
    match = re.fullmatch(r"e([0-9]+)", text)
    if match is None:
        raise ParseError(f"bad eigenvalue {text!r}", 0, expected={"'inf'", "'e<digits>'"})
    return finite(_integer(match.group(1)))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.at = 0

    def peek(self):
        return self.tokens[self.at]

    def take(self, kind, value=None, expected=None):
        tok_kind, tok_value, pos = self.tokens[self.at]
        if tok_kind != kind or (value is not None and tok_value != value):
            raise ParseError(
                f"unexpected {tok_value!r}" if tok_kind != "end" else "unexpected end of input",
                pos,
                expected=expected or {repr(value) if value else kind},
            )
        self.at += 1
        return tok_value

    def parse(self) -> KroneckerStructure:
        jordan, right, left = [], [], []
        self.term(jordan, right, left)
        while self.peek()[0] == "punct" and self.peek()[1] == "+":
            self.take("punct", "+")
            self.term(jordan, right, left)
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {value!r}", pos, expected={"'+'", "end of input"})
        K = KroneckerStructure(jordan, right, left)
        m, n = size_from_blocks(K.jordan, K.right, K.left)
        if max(m, n) > 10 ** MAX_DIGITS:
            raise NotationLimitExceededError(f"pencil of size {m}x{n} in structure notation "
                                             f"(at most 10^{MAX_DIGITS} per dimension allowed)")
        return K

    def term(self, jordan, right, left):
        kind, value, pos = self.peek()
        if kind != "word" or value not in ("J", "L", "LT"):
            raise ParseError(
                f"unexpected {value!r}" if kind != "end" else "unexpected end of input",
                pos,
                expected={"'J'", "'L'", "'LT'"},
            )
        self.take("word")
        self.take("punct", "(", expected={"'('"})
        size = _integer(self.take("int", expected={"integer"}))
        if value == "J":
            self.take("punct", ";", expected={"';'"})
            eig_kind, eig_text, eig_pos = self.peek()
            if eig_kind != "word":
                raise ParseError("expected an eigenvalue", eig_pos,
                                 expected={"'inf'", "'e<digits>'"})
            try:
                mu = parse_eigenvalue(eig_text)
            except ParseError:
                raise ParseError(f"bad eigenvalue {eig_text!r}", eig_pos,
                                 expected={"'inf'", "'e<digits>'"}) from None
            self.take("word")
            self.take("punct", ")", expected={"')'"})
            if size < 1:
                raise DomainError(f"Jordan blocks need size >= 1, got J({size};{mu})")
            jordan.append((mu, size))
        else:
            self.take("punct", ")", expected={"')'"})
            (right if value == "L" else left).append(size)


def parse_structure(text: str) -> KroneckerStructure:
    """Parse structure notation like ``"J(3;e1) + L(2) + LT(0)"``."""
    return _Parser(text).parse()


def format_structure(K: KroneckerStructure) -> str:
    """Canonical text form; inverse of :func:`parse_structure`."""
    return str(K)


def structure_to_json_dict(K: KroneckerStructure) -> dict:
    return {
        "jordan": [{"eig": str(lbl), "size": s} for lbl, s in K.jordan],
        "right": list(K.right),
        "left": list(K.left),
    }
