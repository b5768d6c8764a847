"""Hypothesis strategies that damage the text of a file format."""

from __future__ import annotations

import re

from hypothesis import strategies as st

# integers of any size, floats and the keywords of every format
TOKENS = (st.integers(-2**70, 2**70).map(str)
          | st.floats().map(repr)
          | st.sampled_from(["", "#", "-0", "1e999", "nan", "ccmax", "ug", "labeling", "v1",
                             "c", "e", "u", "v", "left", "card", "x+", "oo", "cut", "2sat"]))


@st.composite
def cut_short(draw, text: str) -> str:
    """`text` cut at a character after its header line."""
    return text[:draw(st.integers(text.index("\n") + 1, len(text) - 1))]


@st.composite
def one_token_replaced(draw, text: str, tokens: st.SearchStrategy[str] = TOKENS) -> str:
    """`text` with one whitespace-separated token replaced by a drawn one."""
    parts = re.split(r"(\s+)", text)  # tokens at even positions, a trailing "" last
    i = 2 * draw(st.integers(0, len(parts) // 2 - 1))
    parts[i] = draw(tokens)
    return "".join(parts)
