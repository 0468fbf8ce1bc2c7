import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import structures
from kcforbits.core import INFINITY, KroneckerStructure, finite
from kcforbits.errors import DomainError, NotationLimitExceededError, ParseError
from kcforbits.notation import (
    MAX_DIGITS,
    _Parser,
    format_structure,
    parse_eigenvalue,
    parse_structure,
    structure_to_json_dict,
)
from kcforbits.verify import enumerate_structures

e1 = finite(1)


def S(jordan=(), right=(), left=()):
    return KroneckerStructure(jordan, right, left)


class TestParse:
    def test_mixed_terms(self):
        K = parse_structure("J(3;e1) + L(2) + LT(0)")
        assert K == S(jordan=[(e1, 3)], right=[2], left=[0])

    def test_infinity(self):
        assert parse_structure("J(1;inf)") == S(jordan=[(INFINITY, 1)])

    def test_whitespace_insignificant(self):
        assert parse_structure("  J( 3 ; e1 )+L(2)  ") == parse_structure("J(3;e1) + L(2)")

    def test_jordan_size_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            parse_structure("J(0;e1)")

    def test_l_zero_allowed(self):
        assert parse_structure("L(0) + LT(0)") == S(right=[0], left=[0])

    def test_repeated_blocks(self):
        K = parse_structure("J(1;e1) + J(1;e1) + L(0) + L(0)")
        assert K == S(jordan=[(e1, 1), (e1, 1)], right=[0, 0])


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(ParseError):
            parse_structure("")

    def test_position_and_expected(self):
        with pytest.raises(ParseError) as err:
            parse_structure("J(2;")
        assert err.value.position == 4
        assert err.value.expected

    def test_unknown_block(self):
        with pytest.raises(ParseError) as err:
            parse_structure("K(2)")
        assert "'J'" in err.value.expected

    def test_bad_eigenvalue(self):
        with pytest.raises(ParseError):
            parse_structure("J(2;x9)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse_structure("L(1) L(2)")
        assert err.value.position == 5

    def test_stray_character(self):
        with pytest.raises(ParseError):
            parse_structure("L(1) + L(-2)")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_structure("J(2,e1)")


class TestIntegerLimit:
    @pytest.mark.parametrize("text", ["J(1234567;e1)", "L(1234567)", "LT(1234567)",
                                      "J(1;e1234567)"])
    def test_too_many_digits(self, text):
        with pytest.raises(NotationLimitExceededError):
            parse_structure(text)

    def test_eigenvalue_name_alone(self):
        with pytest.raises(NotationLimitExceededError):
            parse_eigenvalue("e" + "9" * (MAX_DIGITS + 1))

    def test_leading_zeros_do_not_count(self):
        zeros = "0" * 5000
        assert parse_structure(f"J({zeros}2;e{zeros}1) + L({zeros})") == S(
            jordan=[(e1, 2)], right=[0]
        )

    def test_largest_allowed(self):
        assert parse_structure("L(999999)") == S(right=[999999])

    def test_pencil_size_bound(self):
        # both dimensions of L(999999) + LT(0) are 10^6, the largest allowed
        assert parse_structure("L(999999) + LT(0)") == S(right=[999999], left=[0])
        for text in ("L(999999) + L(0)", "J(1;e1) + LT(999999)", "J(500000;e1) + J(500001;e2)"):
            with pytest.raises(NotationLimitExceededError):
                parse_structure(text)


class TestEigenvalueNames:
    def test_round_trip(self):
        assert parse_eigenvalue("inf") is not None
        assert parse_eigenvalue("e42") == finite(42)
        with pytest.raises(ParseError):
            parse_eigenvalue("infinity")


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("n", range(1, 5))
def test_round_trip_all_canonical_structures(m, n):
    for K in enumerate_structures(m, n):
        assert parse_structure(format_structure(K)) == K


def test_format_examples():
    assert format_structure(S(jordan=[(e1, 3)], right=[2], left=[0])) == "J(3;e1) + L(2) + LT(0)"
    assert format_structure(S(right=[0], left=[0])) == "L(0) + LT(0)"


def test_json_shape():
    K = S(jordan=[(e1, 3)], right=[2], left=[0])
    assert structure_to_json_dict(K) == {
        "jordan": [{"eig": "e1", "size": 3}],
        "right": [2],
        "left": [0],
    }


def _outcome(parse, text):
    """The structure ``parse`` returns, or its error's type, text, position and expected set."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None), getattr(exc, "expected", None)


def _same_as_token_parser(text):
    assert _outcome(parse_structure, text) == _outcome(lambda t: _Parser(t).parse(), text)


_ATOMS = st.sampled_from(["J", "L", "LT", "T", "e", "inf", "(", ")", ";", "+", "x", "@",
                          "\t", "\xa0", " ", "\u0661"])
_DIGITS = st.sampled_from("0123456789")
_NUMBERS = st.one_of(st.lists(_DIGITS, min_size=1, max_size=3).map("".join),
                     st.just("0000001"), st.just("1234567"), st.just("999999"))
_SPACE = st.sampled_from(["", "", " ", "\t", "\xa0", "  "])
_STRAY = st.sampled_from(["", "", "+", "+ ", "+L(1", ")", "@", "x", "\u0661", "0"])


@st.composite
def _spaced(draw, structure):
    """``structure`` rendered with whitespace drawn around every token."""
    text = draw(_SPACE)
    for token in re.findall(r"[A-Za-z]+[0-9]*|[0-9]+|[();+]", str(structure)):
        text += token + draw(_SPACE)
    return text


@st.composite
def _near_valid(draw):
    """A spaced rendering of a structure, with one stray piece of text inserted, or none."""
    text = draw(_spaced(draw(structures())))
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(_STRAY) + text[at:]


class TestTermPatternMatchesTokenParser:
    """``parse_structure`` reads valid text by a term pattern and hands the
    rest to ``_Parser``; both must agree on every string."""

    @pytest.mark.parametrize("text", [
        "J(1;e0)", "J(01;e000)", "L (0)", "J(1;e1x)", "J(\u0661;e1)", "J(0;e1)",
        "J(1;e9999999)", "L(999999)+LT(999999)", "J(1;e1)+", "J(1;e1)@", "", "  ",
        "L(\u0661)", "LT(0) + ",
    ])
    def test_fixed_cases(self, text):
        _same_as_token_parser(text)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.one_of(_ATOMS, _NUMBERS), max_size=12).map("".join))
    def test_token_soup(self, text):
        _same_as_token_parser(text)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(_near_valid())
    def test_near_valid_text(self, text):
        _same_as_token_parser(text)
