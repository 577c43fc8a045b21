"""Model container, prediction, and the model file format.

A trained model holds the label factor U (l x k), the latent instance
representation V (k x n, kept for inspecting recovered training
labels), the feature map W (d x k), and one correlation factor Z per
instance group (each l x k with unit-norm rows).  Prediction for a new
instance x is sign(U W' x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .textio import TokenStream, format_rows

MODEL_MAGIC = "GLOCAL-MODEL v1"


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs.

    lambda_ weighs the latent-to-feature coupling, lambda2 the ridge
    on U/V/W, lambda3 the global correlation term, lambda4 the local
    ones.  inner_steps steps are taken per block per outer iteration:
    exact line-minimizing gradient steps for U and W (and for V when
    k > 256), majorize-minimize steps of length 1 / (2 lambda_max) for
    the correlation factors.  warm_iters alternating iterations are run
    without the correlation terms before the full objective takes over.
    The lambdas and tol must be finite and non-negative.
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
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for name in ("lambda_", "lambda2", "lambda3", "lambda4", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("lambda_", "lambda2", "lambda3", "lambda4"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.inner_steps < 1 or self.outer_iters < 1:
            raise ValueError("inner_steps and outer_iters must be >= 1")
        if self.warm_iters < 0:
            raise ValueError("warm_iters must be >= 0")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")


@dataclass(frozen=True, eq=False)
class GlocalModel:
    """Trained parameter blocks; treated as immutable once fitted."""

    U: np.ndarray  # l x k
    V: np.ndarray  # k x n
    W: np.ndarray  # d x k
    factors: tuple  # g arrays, each l x k with unit-norm rows

    def __post_init__(self):
        U = np.asarray(self.U, dtype=np.float64)
        V = np.asarray(self.V, dtype=np.float64)
        W = np.asarray(self.W, dtype=np.float64)
        factors = tuple(np.asarray(Z, dtype=np.float64) for Z in self.factors)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "factors", factors)
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
        for name, block in (("U", U), ("V", V), ("W", W)):
            if not np.all(np.isfinite(block)):
                raise ValueError(f"{name} contains non-finite values")
        for m, Z in enumerate(factors, start=1):
            if not np.all(np.isfinite(Z)):
                raise ValueError(f"factor {m} contains non-finite values")

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


def _format_block(name, block):
    rows, cols = block.shape
    return [f"{name} {rows} {cols}", *format_rows(block)]


def save_model(model, sink, comments=()):
    """Write a model as text: magic, dims, then U, W, V, Z_1..Z_g blocks.

    Values are printed with 17 significant digits, so a load reproduces
    every float bit-exactly.

    Args:
        model: GlocalModel to write.
        sink: path or text file object.
        comments: optional strings emitted as '#' lines after the magic.
    """
    lines = [MODEL_MAGIC]
    lines.extend(f"# {c}" for c in comments)
    lines.append(f"{model.l} {model.d} {model.k} {model.g}")
    lines.extend(_format_block("U", model.U))
    lines.extend(_format_block("W", model.W))
    lines.extend(_format_block("V", model.V))
    for m, Z in enumerate(model.factors, start=1):
        lines.extend(_format_block(f"Z_{m}", Z))
    text = "\n".join(lines) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        Path(sink).write_text(text, encoding="utf-8")


def _words(tokens, count):
    out = tokens.words(count)
    if len(out) < count:
        raise ModelFormatError(
            f"unexpected end of file: wanted {count} more tokens, found {len(out)}"
        )
    return out


def _read_block(tokens, name, rows, cols):
    header = _words(tokens, 3)
    if header[0] != name:
        raise ModelFormatError(f"expected block {name!r}, found {header[0]!r}")
    try:
        got_rows, got_cols = int(header[1]), int(header[2])
    except ValueError:
        raise ModelFormatError(f"bad shape header for block {name}") from None
    if rows is not None and got_rows != rows:
        raise ModelFormatError(f"block {name}: expected {rows} rows, found {got_rows}")
    if cols is not None and got_cols != cols:
        raise ModelFormatError(f"block {name}: expected {cols} cols, found {got_cols}")
    if got_cols < 0:  # V's column count is the one the dimension line leaves free
        raise ModelFormatError(f"bad shape header for block {name}")
    count = got_rows * got_cols
    try:
        flat = tokens.floats(count)
    except ValueError as exc:
        raise ModelFormatError(f"block {name}: non-numeric value ({exc})") from None
    if flat.size < count:
        raise ModelFormatError(
            f"unexpected end of file: wanted {count} more tokens, found {flat.size}"
        )
    if not np.isfinite(flat).all():
        raise ModelFormatError(f"block {name}: non-finite value")
    return flat.reshape(got_rows, got_cols)


def parse_model(text):
    """Parse model file contents written by save_model.

    Args:
        text: the file contents as a string.

    Returns:
        GlocalModel.

    Raises:
        ModelFormatError: on version mismatch or any malformed content.
    """
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError("empty model file")
    magic = lines[0].strip()
    if magic != MODEL_MAGIC:
        if magic.startswith("GLOCAL-MODEL"):
            raise ModelFormatError(f"unsupported model version {magic!r}")
        raise ModelFormatError("not a GLOCAL model file")

    # comment lines are allowed anywhere after the magic line
    tokens = TokenStream(lines[1:])
    dims = _words(tokens, 4)
    try:
        l, d, k, g = (int(t) for t in dims)
    except ValueError:
        raise ModelFormatError(f"bad dimension line {' '.join(dims)!r}") from None
    if min(l, d, k, g) < 1:
        raise ModelFormatError(f"bad dimensions l={l} d={d} k={k} g={g}")
    U = _read_block(tokens, "U", l, k)
    W = _read_block(tokens, "W", d, k)
    V = _read_block(tokens, "V", k, None)
    factors = tuple(_read_block(tokens, f"Z_{m}", l, k) for m in range(1, g + 1))
    if tokens.words(1):
        raise ModelFormatError("trailing content after the last block")
    return GlocalModel(U=U, V=V, W=W, factors=factors)


def load_model(source):
    """Read a model file written by save_model.

    Args:
        source: path or text file object.

    Returns:
        GlocalModel.

    Raises:
        FileNotFoundError: if a path names no file.
        ModelFormatError: on version mismatch or any malformed content.
    """
    if hasattr(source, "read"):
        return parse_model(source.read())
    return parse_model(Path(source).read_text(encoding="utf-8"))
