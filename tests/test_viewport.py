"""Viewport paging, clamped navigation, and windowless search."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentos.errors import EmptyInputError, NoPriorSearchError
from agentos.viewport import Viewport, open_view


def make_text(pages: float, page_size: int = 10) -> str:
    n = int(pages * page_size)
    return "".join(chr(ord("a") + (i % 26)) for i in range(n))


def footer_of(rendered: str) -> str:
    return rendered.rsplit("\n", 1)[-1]


# ---------------------------------------------------------------------------
# paging
# ---------------------------------------------------------------------------

def test_page_count_rounding():
    assert Viewport("", 10).page_count == 1
    assert Viewport("x" * 9, 10).page_count == 1
    assert Viewport("x" * 10, 10).page_count == 1
    assert Viewport("x" * 11, 10).page_count == 2
    assert Viewport("x" * 30, 10).page_count == 3


def test_render_and_footer():
    view = Viewport(make_text(2.5, 10), 10)
    first = view.render()
    assert first == make_text(2.5, 10)[:10] + "\n=== page 1 of 3 ==="
    assert footer_of(view.next_page()) == "=== page 2 of 3 ==="
    assert footer_of(view.next_page()) == "=== page 3 of 3 ==="


def test_body_ending_in_newline_gets_no_extra():
    view = Viewport("abc\n", 10)
    assert view.render() == "abc\n=== page 1 of 1 ==="


def test_empty_text_is_one_page():
    view = Viewport("", 10)
    assert view.render() == "=== page 1 of 1 ==="
    assert "(at last page)" in view.next_page()
    assert "(at first page)" in view.prev_page()


def test_clamped_navigation():
    view = Viewport(make_text(3, 10), 10)
    assert footer_of(view.prev_page()) == "=== page 1 of 3 === (at first page)"
    view.goto(3)
    assert footer_of(view.next_page()) == "=== page 3 of 3 === (at last page)"
    assert footer_of(view.goto(99)) == "=== page 3 of 3 === (at last page)"
    assert footer_of(view.goto(0)) == "=== page 1 of 3 === (at first page)"
    assert footer_of(view.goto(2)) == "=== page 2 of 3 ==="


def test_concatenated_pages_reproduce_text():
    text = make_text(4.7, 10)
    view = Viewport(text, 10)
    pieces = []
    view.goto(1)
    for page in range(1, view.page_count + 1):
        rendered = view.goto(page)
        body = rendered.rsplit("\n=== page", 1)[0]
        pieces.append(body)
    assert "".join(pieces) == text


def test_page_size_validation():
    with pytest.raises(ValueError):
        Viewport("x", 0)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_find_is_case_insensitive_and_jumps():
    text = "zzzzzzzzzz" + "needleXXXX" + "zzzzzzzzzz"
    view = Viewport(text, 10)
    result = view.find("NEEDLE")
    assert footer_of(result) == '=== page 2 of 3 === (match "NEEDLE" at offset 10)'
    assert view.page == 2


def test_find_starts_at_current_page_top():
    text = "needle" + "z" * 14 + "needle" + "z" * 14  # offsets 0 and 20
    view = Viewport(text, 10)
    view.goto(2)
    assert 'at offset 20' in view.find("needle")
    view.goto(1)
    assert 'at offset 0' in view.find("needle")


def test_find_next_advances_monotonically():
    text = "ababababab" * 3
    view = Viewport(text, 10)
    offsets = []
    result = view.find("ab")
    while "no match" not in result:
        offsets.append(int(result.rsplit("offset ", 1)[1].rstrip(")")))
        result = view.find_next()
    assert offsets == [i for i in range(0, 30, 2)]
    # exhausted: stays wherever the last match put it, no wraparound
    assert 'no match for "ab"' in result


def test_find_reports_offsets_in_the_original_text():
    # "İ".lower() is two characters, so the lowered text is longer
    view = Viewport("İ" * 10 + "needle", 8)
    assert footer_of(view.find("NEEDLE")) == \
        '=== page 2 of 2 === (match "NEEDLE" at offset 10)'
    assert view.page == 2
    assert "needle" in view.render()


def search_oracle(text: str, needle: str, start: int) -> int:
    """Brute force: the character in whose lowercase form the first match
    at or after character ``start`` begins, or -1."""
    lowered, wanted = text.lower(), needle.lower()
    begin = len(text[:start].lower())
    for at in range(begin, len(lowered)):
        if lowered.startswith(wanted, at):
            return next(i for i in range(len(text)) if len(text[:i + 1].lower()) > at)
    return -1


def offsets_found(view: Viewport, needle: str) -> list[int]:
    offsets = []
    result = view.find(needle)
    while "no match" not in result:
        offsets.append(int(result.rsplit("offset ", 1)[1].rstrip(")")))
        result = view.find_next()
    return offsets


# letters whose lowercase form is longer (İ), context-dependent (Σ), or the same
LETTERS = st.sampled_from(list("aAbBiIİΣσςßẞ \u0307"))


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(text=st.text(LETTERS, max_size=40), needle=st.text(LETTERS, min_size=1, max_size=3),
       page_size=st.integers(1, 12))
def test_search_matches_brute_force_oracle(text, needle, page_size):
    view = Viewport(text, page_size)
    expected, start = [], 0
    while (at := search_oracle(text, needle, start)) >= 0:
        expected.append(at)
        start = at + 1
    assert offsets_found(view, needle) == expected
    if expected:
        view.goto(1)
        view.find(needle)
        assert view.page == expected[0] // page_size + 1


def test_find_no_match_notice():
    view = Viewport("plain text", 10)
    assert footer_of(view.find("absent")) == \
        '=== page 1 of 1 === (no match for "absent")'


def test_find_next_without_find():
    view = Viewport("text", 10)
    with pytest.raises(NoPriorSearchError):
        view.find_next()


def test_find_empty_needle():
    view = Viewport("text", 10)
    with pytest.raises(EmptyInputError):
        view.find("")


def test_open_view_helper():
    view = open_view("hello", 2)
    assert view.page_count == 3


# ---------------------------------------------------------------------------
# fuzz helpers reused by the acceptance suite
# ---------------------------------------------------------------------------

def fuzz_viewport_once(rng: random.Random) -> None:
    """One randomized session; raises AssertionError on any broken invariant."""
    page_size = rng.randint(1, 50)
    text = "".join(rng.choice("abcdef \n") for _ in range(rng.randint(0, 400)))
    view = Viewport(text, page_size)

    expected_pages = max(1, -(-len(text) // page_size))
    assert view.page_count == expected_pages

    for _ in range(rng.randint(1, 8)):
        move = rng.choice(("next", "prev", "goto", "find", "find_next"))
        if move == "next":
            view.next_page()
        elif move == "prev":
            view.prev_page()
        elif move == "goto":
            view.goto(rng.randint(-2, expected_pages + 2))
        elif move == "find":
            view.find(rng.choice("abcdef"))
        else:
            try:
                view.find_next()
            except NoPriorSearchError:
                pass
        assert 1 <= view.page <= expected_pages

    # search offsets are strictly increasing until exhaustion
    needle = rng.choice("abcdef")
    view.goto(1)
    result = view.find(needle)
    last = -1
    while "no match" not in result:
        offset = int(result.rsplit("offset ", 1)[1].rstrip(")"))
        assert offset > last
        assert text.lower().startswith(needle, offset)
        last = offset
        result = view.find_next()

    # page bodies concatenate back to the exact text
    pieces = []
    for page in range(1, view.page_count + 1):
        rendered = view.goto(page)
        footer_at = rendered.rfind("=== page")
        body = rendered[:footer_at]
        if body.endswith("\n") and not text[(page - 1) * page_size:
                                            page * page_size].endswith("\n"):
            body = body[:-1]
        pieces.append(body)
    assert "".join(pieces) == text


def test_fuzz_sessions():
    rng = random.Random(20260816)
    for _ in range(300):
        fuzz_viewport_once(rng)
