"""Text shared by every file format: comment lines, and reading and
writing a file a line at a time.

Every writer emits its comments with comment_lines, so a comment stays
one '#' line of valid UTF-8 whatever text it stamps.

Every file is read with lines and written with line_writer (or
write_lines, which goes through it), so no file's full text is held in
memory: a reader and a writer each hold one line at a time.  A path is
read and written in binary, a line's bytes at a time, and a hashlib
object given to either gets the bytes moved, which is what keys an
array cache (see glocal.data).  The lines that lines yields are exactly
those of Path.read_text().splitlines(), so a decoder given a file's
lines sees what it would see given its text.

Whether two paths name one file is decided here too, by file_key: the
CLI checks a run's paths with it and save_gml keys its files by it.
"""

import contextlib
import os
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


def lines(source, sha=None):
    """Yield the lines of a UTF-8 text file, one at a time.

    They are exactly Path(source).read_text().splitlines(): every
    str.splitlines break ends a line and a '\\r\\n' pair is one break.
    A path is opened in binary and read a line of bytes at a time: each
    line's bytes are added to sha, when one is given, then decoded and
    split at the breaks they hold, so a decoding error counts its
    position from the start of the line.  A text stream (an io.StringIO
    in any newline mode, or a file opened with any newline setting)
    gives the same lines and no hash: each line it yields is split at
    the breaks it holds, and a stream opened with newline='\\r' ends a
    line at every '\\r', so a line after one that ends in '\\r' drops
    its leading '\\n', the rest of that '\\r\\n' pair.

    Args:
        source: path, or text file object read from where it stands.
        sha: optional hashlib object that gets a path's bytes as read.
    """
    if hasattr(source, "read"):
        after_cr = False
        for line in source:
            if after_cr and line.startswith("\n"):
                line = line[1:]
            yield from line.splitlines()
            after_cr = line.endswith("\r")
        return
    with open(source, "rb") as file:
        for raw in file:  # a b'\n' ends a line, and no other UTF-8 sequence holds one
            if sha is not None:
                sha.update(raw)
            yield from raw.decode("utf-8").splitlines()


@contextlib.contextmanager
def line_writer(sink, sha=None):
    """Yield write(line), which writes line followed by '\\n'.

    A path is opened in binary and truncated, and each line is encoded
    as UTF-8 and its bytes added to sha, when one is given, as they are
    written, so sha holds the file's bytes once the block ends.  A text
    file object is written where it stands, and sha gets nothing.

    Args:
        sink: path, or text file object written where it stands.
        sha: optional hashlib object that gets a path's bytes as written.
    """
    if hasattr(sink, "write"):
        yield lambda line: sink.write(line + "\n")
        return
    with open(sink, "wb") as file:
        def write(line):
            raw = (line + "\n").encode("utf-8")
            if sha is not None:
                sha.update(raw)
            file.write(raw)

        yield write


def write_lines(sink, lines, sha=None):
    """Write each line followed by '\\n', so the file holds '\\n'.join(lines) + '\\n'.

    Args:
        sink: path, or text file object written where it stands.
        lines: iterable of strings without their line ends; one may hold
            several lines joined by '\\n'.
        sha: optional hashlib object that gets a path's bytes as written
            (see line_writer).
    """
    with line_writer(sink, sha) as write:
        for line in lines:
            write(line)


def file_key(path):
    """What path names: two paths name one file exactly when their keys are equal.

    For an existing file, the (st_ino, st_dev) of its resolved path, so
    every spelling of it, symbolic or hard link included, has one key;
    for any other path, the resolved path, which is what a file written
    there would be named.
    """
    target = Path(os.path.realpath(path))  # Path.resolve raises on a link loop before 3.13
    return target.stat()[1:3] if target.is_file() else target  # (st_ino, st_dev)
