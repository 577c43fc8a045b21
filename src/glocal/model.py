"""Model container, prediction, and the model file format.

A trained model holds the label factor U (l x k), the latent instance
representation V (k x n, kept for inspecting recovered training
labels), the feature map W (d x k), and one correlation factor Z per
instance group (each l x k with unit-norm rows).  Prediction for a new
instance x is sign(U W' x).

A model file is text: the magic line, an `l d k g` dimension line, then
the U, W, V and Z_1..Z_g blocks, each a `name rows cols` header and one
line per row.  A row line is the padded base64 (RFC 4648) of the row's
values as little-endian IEEE-754 float64, so a load reproduces every
float bit-exactly.  '#' comment lines may appear anywhere after the
magic.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .data import check_integer, check_real, check_reals
from .textio import comment_lines, line_batches, write_lines

MODEL_MAGIC = "GLOCAL-MODEL v2"

# a provenance entry as its header comment line
_PROVENANCE = re.compile(r"# ([A-Za-z_][A-Za-z0-9_]*)=(\S+)")


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs.

    lambda_ weighs the latent-to-feature coupling, lambda2 the ridge
    on U/V/W, lambda3 the global correlation term, lambda4 the local
    ones.  inner_steps steps are taken per block per outer iteration:
    linear conjugate-gradient steps on H(x) = b for U, V and W, with H
    the block's Hessian action (one system per instance for V, so V is
    exact when k <= inner_steps), and majorize-minimize steps of length
    1 / (2 lambda_max) for the correlation factors.  warm_iters
    alternating iterations are run without the correlation terms before
    the full objective takes over.
    k, inner_steps, outer_iters, warm_iters and seed are integers
    (numbers.Integral, so numpy integers too, but not bools); k,
    inner_steps and outer_iters must be >= 1, warm_iters and seed >= 0.
    The lambdas and tol are ints or floats (numpy's too, not bools,
    Fractions or Decimals) that are finite as float64 and non-negative;
    they are stored as floats.  A count that is not an integer, a real
    that is not a real number, or a value outside its field's range,
    raises a ValueError that names the field.
    """

    k: int
    lambda_: float = 1.0
    lambda2: float = 0.01
    lambda3: float = 0.1
    lambda4: float = 0.1
    inner_steps: int = 5
    outer_iters: int = 50
    warm_iters: int = 20
    tol: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        for name, floor in (("k", 1), ("inner_steps", 1), ("outer_iters", 1),
                            ("warm_iters", 0), ("seed", 0)):
            check_integer(name, getattr(self, name), floor)
        # each message names the field as its command-line flag does:
        # lambda_ is --lambda
        for name in ("lambda_", "lambda2", "lambda3", "lambda4", "tol"):
            object.__setattr__(self, name, check_real(name.rstrip("_"), getattr(self, name), 0))


@dataclass(frozen=True, eq=False)
class GlocalModel:
    """Trained parameter blocks; treated as immutable once fitted."""

    U: np.ndarray  # l x k
    V: np.ndarray  # k x n
    W: np.ndarray  # d x k
    factors: tuple  # g arrays, each l x k with unit-norm rows
    # how the model was made, e.g. {"seed": "0"}: identifier keys mapped
    # to values without whitespace, kept as strings
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        provenance = {key: str(value) for key, value in self.provenance.items()}
        for key, value in provenance.items():
            entry = _PROVENANCE.fullmatch(f"# {key}={value}")
            if not (entry and entry[1] == key):  # reads back as written
                raise ValueError(f"bad provenance entry {key!r}={value!r}")
        object.__setattr__(self, "provenance", provenance)
        for name in ("U", "V", "W"):
            block = np.asarray(check_reals(name, getattr(self, name)), dtype=np.float64)
            if block.ndim != 2:
                raise ValueError(f"{name} must be 2-D, got {block.ndim}-D")
            object.__setattr__(self, name, block)
        factors = tuple(np.asarray(check_reals(f"factor {m}", Z), dtype=np.float64)
                        for m, Z in enumerate(self.factors, start=1))
        object.__setattr__(self, "factors", factors)
        U, V, W = self.U, self.V, self.W
        l, k = U.shape
        if V.shape[0] != k:
            raise ValueError(f"V has {V.shape[0]} rows, expected k={k}")
        if W.shape[1] != k:
            raise ValueError(f"W has {W.shape[1]} cols, expected k={k}")
        if len(factors) < 1:
            raise ValueError("need at least one correlation factor")
        for m, Z in enumerate(factors, start=1):
            if Z.shape != (l, k):
                raise ValueError(f"factor {m} has shape {Z.shape}, expected ({l}, {k})")
        blocks = [("U", U), ("V", V), ("W", W),
                  *((f"factor {m}", Z) for m, Z in enumerate(factors, start=1))]
        for name, block in blocks:
            if not np.all(np.isfinite(block)):
                raise ValueError(f"{name} contains non-finite values")

    @property
    def l(self):
        return self.U.shape[0]

    @property
    def k(self):
        return self.U.shape[1]

    @property
    def d(self):
        return self.W.shape[0]

    @property
    def g(self):
        return len(self.factors)

    @property
    def n(self):
        return self.V.shape[1]


def score(model, features):
    """Real-valued label scores U (W' X) for each instance column.

    Args:
        model: GlocalModel.
        features: FeatureMatrix with d matching the model.

    Returns:
        l x n float64 score matrix.
    """
    if features.d != model.d:
        raise ValueError(
            f"feature dimension {features.d} does not match model d={model.d}"
        )
    return model.U @ (model.W.T @ features.values)


def predict(model, features):
    """Hard labels sign(U W' x) in {-1, +1}; a zero score maps to -1."""
    return np.where(score(model, features) > 0.0, 1, -1).astype(np.int8)


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed."""


def _block_lines(name, block):
    rows, cols = block.shape
    yield f"{name} {rows} {cols}"
    for row in np.ascontiguousarray(block, dtype="<f8"):
        yield base64.b64encode(row.tobytes()).decode("ascii")


def save_model(model, sink, comments=()):
    """Write a model file: magic, comments, dims, then U, W, V, Z_1..Z_g blocks.

    Each block row is one line holding the base64 of its little-endian
    float64 values, so a load reproduces every float bit-exactly.  The
    model's provenance follows the comments as '# key=value' lines.  The
    lines are encoded as they are written, so no file text is held
    beyond one row's.

    Args:
        model: GlocalModel to write.
        sink: path or text file object.
        comments: optional strings emitted as '#' lines after the magic.
    """
    head = [MODEL_MAGIC, *comment_lines(comments),
            *(f"# {key}={value}" for key, value in model.provenance.items()),
            f"{model.l} {model.d} {model.k} {model.g}"]
    blocks = [("U", model.U), ("W", model.W), ("V", model.V),
              *((f"Z_{m}", Z) for m, Z in enumerate(model.factors, start=1))]
    write_lines(sink, chain(head, *(_block_lines(name, B) for name, B in blocks)))


def _next_tokens(lines):
    """Tokens of the next non-blank line, or None at the end of the file."""
    for line in lines:
        tokens = line.split()
        if tokens:
            return tokens
    return None


def _read_block(lines, name, rows, cols):
    header = _next_tokens(lines)
    if header is None:
        raise ModelFormatError(f"unexpected end of file: wanted block {name}")
    if header[0] != name:
        raise ModelFormatError(f"expected block {name!r}, found {header[0]!r}")
    try:
        got_rows, got_cols = (int(t) for t in header[1:])
    except ValueError:
        raise ModelFormatError(f"bad shape header for block {name}") from None
    if got_rows != rows:
        raise ModelFormatError(f"block {name}: expected {rows} rows, found {got_rows}")
    if cols is not None and got_cols != cols:
        raise ModelFormatError(f"block {name}: expected {cols} cols, found {got_cols}")
    if got_cols < 0:  # V's column count is the one the dimension line leaves free
        raise ModelFormatError(f"bad shape header for block {name}")
    width = 8 * got_cols
    # the rows' bytes, appended as they are read; the header's row count
    # is not trusted to size a buffer before the rows are there
    payload = bytearray()
    for r in range(1, got_rows + 1):
        line = next(lines, None)
        if line is None:
            raise ModelFormatError(
                f"unexpected end of file: block {name} has {r - 1} of {got_rows} rows"
            )
        try:
            row = base64.b64decode(line.strip(), validate=True)
        except ValueError:  # binascii.Error, or a non-ASCII character
            raise ModelFormatError(f"block {name} row {r}: not base64") from None
        if len(row) != width:
            raise ModelFormatError(
                f"block {name} row {r}: expected {width} bytes, found {len(row)}"
            )
        payload += row
    # a writable view of the bytearray, copied only where native order
    # is not little-endian
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64, copy=False)
    if not np.isfinite(flat).all():
        raise ModelFormatError(f"block {name}: non-finite value")
    return flat.reshape(got_rows, got_cols)


def load_model(source):
    """Read a model file written by save_model.

    '#' comment lines may appear anywhere after the magic line; those of
    the form '# key=value' before the dimension line are the provenance.
    Blank lines are skipped outside the block rows.  The file is read in
    batches of lines (textio.line_batches) and each block's rows are
    decoded as they arrive, so what it holds besides the blocks is one
    batch of lines, never the file's text.

    Args:
        source: path, or text file object read from where it stands.

    Returns:
        GlocalModel.

    Raises:
        FileNotFoundError: if a path names no file.
        ModelFormatError: on version mismatch or any malformed content.
    """
    lines = chain.from_iterable(line_batches(source))
    magic = next(lines, None)
    if magic is None:
        raise ModelFormatError("empty model file")
    magic = magic.strip()
    if magic != MODEL_MAGIC:
        if magic.startswith("GLOCAL-MODEL"):
            raise ModelFormatError(f"unsupported model version {magic!r}")
        raise ModelFormatError("not a GLOCAL model file")

    provenance, dims = {}, None
    for line in lines:
        if line.startswith("#") or not line.strip():
            entry = _PROVENANCE.fullmatch(line)
            if entry:
                provenance[entry[1]] = entry[2]
            continue
        dims = line.split()
        break
    lines = (line for line in lines if not line.startswith("#"))
    if dims is None:
        raise ModelFormatError("unexpected end of file: wanted the dimension line")
    try:
        l, d, k, g = (int(t) for t in dims)
    except ValueError:
        raise ModelFormatError(f"bad dimension line {' '.join(dims)!r}") from None
    if min(l, d, k, g) < 1:
        raise ModelFormatError(f"bad dimensions l={l} d={d} k={k} g={g}")
    U = _read_block(lines, "U", l, k)
    W = _read_block(lines, "W", d, k)
    V = _read_block(lines, "V", k, None)
    factors = tuple(_read_block(lines, f"Z_{m}", l, k) for m in range(1, g + 1))
    if _next_tokens(lines) is not None:
        raise ModelFormatError("trailing content after the last block")
    return GlocalModel(U=U, V=V, W=W, factors=factors, provenance=provenance)

