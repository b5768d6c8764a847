"""Hypothesis strategies that decorate or damage the text of a file format."""

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
    return text[:draw(st.integers(len(text.splitlines(True)[0]), len(text) - 1))]


@st.composite
def one_token_replaced(draw, text: str, tokens: st.SearchStrategy[str] = TOKENS) -> str:
    """`text` with one whitespace-separated token replaced by a drawn one."""
    parts = re.split(r"(\s+)", text)  # tokens at even positions, a trailing "" last
    i = 2 * draw(st.integers(0, len(parts) // 2 - 1))
    parts[i] = draw(tokens)
    return "".join(parts)


FILLER_LINES = st.sampled_from(["", "   ", "\t", "# a comment", "  #", "## e 1 1 1 # x"])
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t "])
COMMENTS = st.sampled_from(["", "#", " # note", "\t# 1 2 3", "#v1"])


@st.composite
def decorated(draw, text: str) -> str:
    """`text` with comment and blank lines, trailing comments and extra
    spaces and tabs drawn in: the same file to every reader."""
    out = []
    for line in text.splitlines():
        out += draw(st.lists(FILLER_LINES, max_size=2))
        sep = draw(SEPARATORS)
        out.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(line.split())
                   + draw(st.sampled_from(["", " ", "\t "])) + draw(COMMENTS))
    end = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"]))
    return end.join(out + draw(st.lists(FILLER_LINES, max_size=2))) + end
