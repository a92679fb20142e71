"""Paginated text viewport.

Long tool output is read page by page instead of flooding a context window.
Pages are fixed character slices; every render ends with a footer line
``=== page i of N ===``, optionally followed by a parenthesized notice
(clamped navigation, search results). Search is case-insensitive and never
wraps past the end of the document; match offsets index the original text,
even where lowercasing changes its length.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from .errors import EmptyInputError, NoPriorSearchError

DEFAULT_PAGE_SIZE = 4096


class Viewport:
    def __init__(self, text: str, page_size: int = DEFAULT_PAGE_SIZE):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.text = text
        self.page_size = page_size
        self.page = 1
        self._needle: str | None = None
        self._search_from = 0
        self._lowered: tuple[str, str, list[int] | None] | None = None

    @property
    def page_count(self) -> int:
        if not self.text:
            return 1
        return (len(self.text) + self.page_size - 1) // self.page_size

    def _render(self, notice: str = "") -> str:
        start = (self.page - 1) * self.page_size
        body = self.text[start:start + self.page_size]
        footer = f"=== page {self.page} of {self.page_count} ==="
        if notice:
            footer += f" {notice}"
        return body + ("\n" if body and not body.endswith("\n") else "") + footer

    # -- navigation: every move clamps through goto, also after a new text ----

    def render(self) -> str:
        return self.goto(self.page)

    def next_page(self) -> str:
        return self.goto(self.page + 1)

    def prev_page(self) -> str:
        return self.goto(self.page - 1)

    def goto(self, page: int) -> str:
        if page < 1:
            self.page = 1
            return self._render("(at first page)")
        if page > self.page_count:
            self.page = self.page_count
            return self._render("(at last page)")
        self.page = page
        return self._render()

    # -- search ----------------------------------------------------------------

    def find(self, needle: str) -> str:
        """Search forward from the top of the current page; jump to the match."""
        if not needle:
            raise EmptyInputError("search needle must be nonempty")
        self._needle = needle
        return self._search(None)

    def find_next(self) -> str:
        """Continue past the previous match; no wraparound."""
        if self._needle is None:
            raise NoPriorSearchError("find_next without a prior find")
        return self._search(self._search_from)

    def _lowercase(self) -> tuple[str, list[int] | None]:
        """``text.lower()`` and, when lowering changed its length, where the
        lowercase form of each character starts in it (``None``: unchanged)."""
        if self._lowered is None or self._lowered[0] is not self.text:
            lowered = self.text.lower()
            starts = None
            if len(lowered) != len(self.text):
                starts = list(accumulate((len(c.lower()) for c in self.text), initial=0))
            self._lowered = (self.text, lowered, starts)
        return self._lowered[1], self._lowered[2]

    def _search(self, start: int | None) -> str:
        """Match in the lowercase text from ``start`` (None: the top of the
        current page); report the character the match begins in."""
        assert self._needle is not None
        self.page = min(self.page, self.page_count)  # the text may have been replaced
        start = (self.page - 1) * self.page_size if start is None else start
        lowered, starts = self._lowercase()
        if starts is None:
            index = lowered.find(self._needle.lower(), start)
        else:
            index = lowered.find(self._needle.lower(), starts[min(start, len(self.text))])
            if index >= 0:
                index = bisect_right(starts, index) - 1
        if index < 0:
            return self._render(f'(no match for "{self._needle}")')
        self._search_from = index + 1
        self.page = index // self.page_size + 1
        return self._render(f'(match "{self._needle}" at offset {index})')


def open_view(text: str, page_size: int = DEFAULT_PAGE_SIZE) -> Viewport:
    return Viewport(text, page_size)
