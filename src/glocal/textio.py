"""Text shared by every file format: comment lines and rows of floats.

Every writer emits its comments with comment_lines, so a comment stays
one '#' line of valid UTF-8 whatever text it stamps.

Score and label matrix files are decimal text, like GML, because people
read them.  A 2-D block is printed one row per line with '%.17g', which
round-trips every float64 bit-exactly; its reader (glocal.cli.read_matrix)
accepts any line layout.  (Model files carry binary rows instead; see
glocal.model.)
"""

from __future__ import annotations

import re

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


# tokens, or sidecar lines, converted per numpy call: short rows are
# batched across lines
_BATCH = 4096


def format_rows(block):
    """Lines of a 2-D array, one per row, each value printed with '%.17g'."""
    row_format = " ".join(["%.17g"] * block.shape[1])
    return [row_format % tuple(row.tolist()) for row in block]
