"""Text shared by every file format: comment lines, and reading and
writing a file a line at a time.

Every writer emits its comments with comment_lines, so a comment stays
one '#' line of valid UTF-8 whatever text it stamps.

Files are read with lines and written with write_lines, so no file's
full text is held in memory: a reader holds one line and a writer one
line, or the lines of one block its format makes, at a time.  The lines
that lines yields are exactly those of Path.read_text().splitlines(), so
a decoder given a file's lines sees what it would see given its text.

Whether two paths name one file is decided here too, by file_key: the
CLI checks a run's paths with it and save_gml keys its files by it.
"""

import contextlib
import re
from pathlib import Path

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


def _opened(file, mode):
    """A text file object as it is, or a path opened as UTF-8 in mode."""
    if hasattr(file, "read" if mode == "r" else "write"):
        return contextlib.nullcontext(file)
    return open(file, mode, encoding="utf-8")


def lines(source):
    """Yield the lines of a UTF-8 text file, one at a time.

    They are exactly Path(source).read_text().splitlines(): every
    str.splitlines break ends a line and a '\\r\\n' pair is one break.
    This holds for a path (opened with universal newlines, as read_text
    does), for an io.StringIO in any newline mode, and for a file opened
    with any newline setting.  Each line the stream itself yields is
    split at the breaks it holds; a stream opened with newline='\\r' ends
    a line at every '\\r', so a line after one that ends in '\\r' drops
    its leading '\\n', the rest of that '\\r\\n' pair.

    Args:
        source: path, or text file object read from where it stands.
    """
    with _opened(source, "r") as stream:
        after_cr = False
        for line in stream:
            if after_cr and line.startswith("\n"):
                line = line[1:]
            yield from line.splitlines()
            after_cr = line.endswith("\r")


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


def file_key(path):
    """What path names: two paths name one file exactly when their keys are equal.

    For an existing file, the (st_ino, st_dev) of its resolved path, so
    every spelling of it, symbolic or hard link included, has one key;
    for any other path, the resolved path, which is what a file written
    there would be named.
    """
    target = Path(path).resolve()
    return target.stat()[1:3] if target.is_file() else target  # (st_ino, st_dev)
