"""Text shared by every file format: comment lines, and reading and
writing a file in bounded batches of lines.

Every writer emits its comments with comment_lines, so a comment stays
one '#' line of valid UTF-8 whatever text it stamps.

Files are read with line_batches and written with write_lines, so no
file's full text is held in memory: a reader holds one batch of lines
(about _CHUNK characters plus the rest of the line they end in) and a
writer one line at a time.  The lines line_batches yields are exactly
those of Path.read_text().splitlines(), so a decoder given a file's
batches sees what it would see given the file's text.
"""

from __future__ import annotations

import contextlib
import re

# every character str.splitlines breaks a line at
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"

# the line breaks, and the lone surrogates (how undecodable bytes of a
# path arrive) UTF-8 cannot encode
_UNSAFE_IN_COMMENT = re.compile(f"[{_BREAKS}\ud800-\udfff]")


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

# characters read from a file per call; a batch holds the lines that end
# in one such chunk
_CHUNK = 1 << 14


def _opened(file, mode):
    """A text file object as it is, or a path opened as UTF-8 in mode."""
    if hasattr(file, "read" if mode == "r" else "write"):
        return contextlib.nullcontext(file)
    return open(file, mode, encoding="utf-8")


def line_batches(source):
    """Yield the lines of a UTF-8 text file as lists, a chunk at a time.

    Joined, the lists are exactly Path(source).read_text().splitlines():
    every str.splitlines break ends a line and a '\\r\\n' pair is one
    break.  Each batch is a chunk of _CHUNK characters finished by the
    stream's readline(), so a line that crosses the chunk edge arrives
    whole, and so does a '\\r\\n' pair.  This holds for a path (opened
    with universal newlines, as read_text does), for an io.StringIO in
    any newline mode, and for a file opened with newline set to None,
    '', '\\n' or '\\r\\n'; a file opened with newline='\\r' may split a
    '\\r\\n' pair between batches.

    Args:
        source: path, or text file object read from where it stands.
    """
    with _opened(source, "r") as stream:
        while chunk := stream.read(_CHUNK):
            yield (chunk + stream.readline()).splitlines()


def write_lines(sink, lines):
    """Write each line followed by '\\n', so the file holds '\\n'.join(lines) + '\\n'.

    Args:
        sink: path, or text file object written where it stands.
        lines: iterable of strings without their line ends; one may hold
            several lines joined by '\\n'.
    """
    with _opened(sink, "w") as stream:
        for line in lines:
            stream.write(line + "\n")

