"""Text shared by every file format: comment lines and rows of floats.

Every writer emits its comments with comment_lines, so a comment stays
one '#' line of valid UTF-8 whatever text it stamps.

Score and label matrix files are decimal text, like GML, because people
read them.  A 2-D block is printed one row per line with '%.17g', which
round-trips every float64 bit-exactly, and read back as a
whitespace-separated token stream in which '#' lines are comments.  The
reader accepts any line layout: a block may span lines or share a line
with its header.  (Model files carry binary rows instead; see
glocal.model.)
"""

from __future__ import annotations

import math
import re

import numpy as np

# every character str.splitlines breaks a line at, and the lone
# surrogates (how undecodable bytes of a path arrive) UTF-8 cannot encode
_UNSAFE_IN_COMMENT = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029\ud800-\udfff]")


def comment_lines(comments):
    """'# <comment>' lines, one per comment, each a single UTF-8 line.

    Characters that would break the line or fail to encode are written
    as their backslash escapes ('\\n', '\\x85', '\\udcff'); other text,
    backslashes included, is kept as it is.
    """
    return [
        "# " + _UNSAFE_IN_COMMENT.sub(lambda m: ascii(m.group())[1:-1], str(c))
        for c in comments
    ]


# tokens converted per numpy call: short rows are batched across lines
_BATCH = 4096


def format_rows(block):
    """Lines of a 2-D array, one per row, each value printed with '%.17g'."""
    row_format = " ".join(["%.17g"] * block.shape[1])
    return [row_format % tuple(row.tolist()) for row in block]


class TokenStream:
    """Whitespace-separated tokens of text lines, skipping '#' comment lines.

    Holds at most one line's unread tokens and one batch of values at a
    time, never the whole text's tokens, and converts each batch with
    one numpy call.
    """

    def __init__(self, lines):
        self._rows = (line.split() for line in lines if not line.startswith("#"))
        self._unread = []  # tokens of the current line not yet taken

    def words(self, count):
        """The next `count` tokens as strings; fewer only at the end of input."""
        while len(self._unread) < count:
            more = next(self._rows, None)
            if more is None:
                break
            self._unread += more
        out, self._unread = self._unread[:count], self._unread[count:]
        return out

    def floats(self, count=None):
        """The next `count` tokens, or all that remain, as a float64 array.

        Values are read as float() reads them.  Returns fewer than `count`
        values only at the end of input.

        Raises:
            ValueError: for the first token that is not a number, with
                float()'s message.
        """
        want = math.inf if count is None else count
        parts, batch, done = [], self._unread, 0
        self._unread = []
        if len(batch) < want:
            for tokens in self._rows:
                batch += tokens
                if done + len(batch) >= want:
                    break
                if len(batch) >= _BATCH:
                    parts.append(np.array(batch, dtype=np.float64))
                    done += len(batch)
                    batch = []
        if done + len(batch) > want:  # the rest of the line is read next
            cut = want - done
            batch, self._unread = batch[:cut], batch[cut:]
        parts.append(np.array(batch, dtype=np.float64))
        return np.concatenate(parts)
