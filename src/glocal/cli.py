"""Command-line interface.

Subcommands: cluster, train, predict, eval, mask, split, synth.  Every
subcommand is deterministic given its flags; seeds are echoed into the
output files as '#' comment lines.  Paths are validated before any
work starts and errors exit with status 1 and a one-line diagnostic.
Every file is read and written a batch of lines at a time (see
glocal.textio), through the load_* and save_* functions of its format.

File formats owned here (all others live with their module):
  * scores/labels files: comments, a "l n" header line, then l rows of
    n whitespace-separated values.  They are decimal text, like GML,
    because people read them: each row is one line of '%.17g' values,
    which round-trip every float64 bit-exactly, and the reader accepts
    any line layout (model files carry binary rows instead; see
    glocal.model);
  * hidden-entry sidecar: "label_idx instance_idx value" lines, 1-based,
    strictly increasing by label_idx, then instance_idx;
  * report CSV: header rkl,auc,cvg,ap,skipped_instances,skipped_labels.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .clustering import kmeans, load_partition, save_partition
from .data import (
    Dataset,
    FeatureMatrix,
    LabelMatrix,
    MaskSpec,
    _adopt,
    apply_mask,
    load_gml,
    save_gml,
    split,
)
from .metrics import evaluate
from .model import Hyperparams, load_model, predict, save_model, score
from .solver import fit, grid_search
from .textio import _BATCH, comment_lines, line_batches, write_lines


def make_synthetic(l, n, d, k_true, noise, seed):
    """Planted multi-label dataset: labels sign(U* W*' X + noise).

    X is standard gaussian, the planted factors are scaled so the clean
    scores are O(1), and `noise` is the std of gaussian score noise.
    With noise=0 the labels are exactly the sign of the planted scores.
    """
    if l < 2 or n < 1 or d < 1 or k_true < 1:
        raise ValueError("need l >= 2, n >= 1, d >= 1, k >= 1")
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n))
    W_true = rng.standard_normal((d, k_true)) / np.sqrt(d)
    U_true = rng.standard_normal((l, k_true)) / np.sqrt(k_true)
    scores = U_true @ (W_true.T @ X)
    if noise > 0:
        # a huge noise may overflow to +-inf; the sign is still right
        with np.errstate(over="ignore"):
            scores = scores + noise * rng.standard_normal((l, n))
    Y = np.where(scores > 0.0, np.int8(1), np.int8(-1))
    # X and Y are made here, so the containers take them uncopied
    return Dataset(_adopt(FeatureMatrix, X), _adopt(LabelMatrix, Y))


def _hidden_lines(block):
    """The '\n'-joined sidecar lines of a block of checked 0-based entries.

    Each distinct instance_idx of the block is formatted once, as the
    text of its (instance_idx, -1) and (instance_idx, 1) pairs, and each
    run of entries with one label_idx is one join after that label's
    text.  The distinct indices come from a set, not np.unique: its
    int64 sort would page in numpy code that no other stage before
    training runs, which adds to the process's peak RSS.
    """
    inst = (block[:, 1] + 1).tolist()
    pairs = {i: ("%d -1" % i, "%d 1" % i) for i in set(inst)}
    entries = [pairs[i][positive] for i, positive in zip(inst, (block[:, 2] > 0).tolist())]
    labels = block[:, 0]
    cut = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist(), len(block)]
    runs = []
    for s, e in zip(cut, cut[1:]):
        prefix = "%d " % (labels[s] + 1)
        runs.append(prefix + ("\n" + prefix).join(entries[s:e]))
    return "\n".join(runs)


def _increasing(j, i):
    """Whether the (j, i) pairs strictly increase, by j, then i.

    Compared, not differenced, so the temporaries are booleans only.
    """
    return bool(((j[1:] > j[:-1]) | ((j[1:] == j[:-1]) & (i[1:] > i[:-1]))).all())


def save_hidden(hidden, path, comments=()):
    """Write hidden entries as 1-based 'label_idx instance_idx value' lines.

    The entries are checked before the file is opened, so every file
    written loads back (see load_hidden).  The lines are made and written
    a block of _BATCH entries at a time: a block holds its 1-based
    instance indices, the text of each distinct one's (instance_idx,
    value) pairs, formatted once, and its lines.

    Args:
        hidden: (m, 3) integer array, or rows of three, of 0-based
            (label_idx, instance_idx, value) entries strictly increasing
            by label_idx, then instance_idx, as apply_mask returns them;
            [] is no entries.
        path: path, or text file object written where it stands.
        comments: optional strings emitted as leading '#' lines.

    Raises:
        ValueError: if the entries are not (m, 3), an index is negative
            or too large to write as a 1-based int64, a value is not -1
            or +1, or an entry does not follow the one before it.
    """
    rows = np.asarray(hidden, dtype=np.int64)
    if rows.shape == (0,):
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"hidden entries must be an (m, 3) array, got shape {rows.shape}")
    if len(rows):
        idx, vals = rows[:, :2], rows[:, 2]
        if idx.min() < 0 or idx.max() >= np.iinfo(np.int64).max:
            raise ValueError("hidden entry indices must lie in 0..2**63 - 2")
        if vals.min() < -1 or vals.max() > 1 or np.count_nonzero(vals) < len(vals):
            raise ValueError("hidden entry values must be -1 or +1")
        if not _increasing(rows[:, 0], rows[:, 1]):
            raise ValueError("hidden entries must strictly increase by label_idx, then instance_idx")
    head = comment_lines(comments)
    blocks = (rows[start : start + _BATCH] for start in range(0, len(rows), _BATCH))
    write_lines(path, chain(head, map(_hidden_lines, blocks)))


def _hidden_error(lines, line_no, prev):
    """Raise the error for a chunk of sidecar lines the array decode rejected.

    Checks the chunk's entries one at a time, by the rules load_hidden
    applies, from its first line's number line_no and the 1-based key
    prev of the entry before it (() before the first), and names the
    line of the first offending one.
    """
    for line_no, raw in enumerate(lines, start=line_no):
        if raw.startswith("#") or raw.strip() == "":
            continue
        parts = raw.split()
        if len(parts) != 3:
            raise ValueError(f"line {line_no}: expected 'label_idx instance_idx value'")
        try:
            j, i, v = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {line_no}: expected three integers") from None
        # the int64 bound: no score matrix has that many rows or columns
        if not (1 <= j < 2**63 and 1 <= i < 2**63 and v in (-1, 1)):
            raise ValueError(f"line {line_no}: bad hidden entry {raw!r}")
        if (j, i) <= prev:
            fault = "duplicate" if (j, i) == prev else "out-of-order"
            raise ValueError(f"line {line_no}: {fault} hidden entry {raw!r}")
        prev = (j, i)
    raise ValueError("malformed hidden-entry sidecar")


def load_hidden(path):
    """Read a hidden-entry sidecar back to 0-based entries.

    The entries must strictly increase by (label_idx, instance_idx), as
    save_hidden writes them.  The file is read once, in batches of lines
    (textio.line_batches), and decoded a chunk of _BATCH lines at a time:
    the lines are joined and split once and converted with one numpy
    call; comment and blank lines are filtered out line by line only in
    a chunk that holds a '#' or the wrong token count.  Each chunk's
    entries are range-checked at once, checked to increase from the
    entry before the chunk on, and appended to one buffer, so the
    entries are held once.  A chunk that fails a check is read again
    alone, one line at a time, to name its first bad line.

    Args:
        path: path, or text file object read from where it stands; an
            io.StringIO decodes text held in a string.

    Returns:
        (m, 3) int64 array of (label_idx, instance_idx, value) rows in
        file order.

    Raises:
        ValueError: naming the line of the first malformed entry, or of
            the first one not following the entry before it: a repeat of
            it is a duplicate, a smaller one out of order.
    """
    payload = bytearray()
    prev = ()  # the 1-based key of the entry before the chunk
    line_no = 1  # of the chunk's first line
    for batch in line_batches(path):
        for start in range(0, len(batch), _BATCH):
            chunk = lines = batch[start : start + _BATCH]
            first, line_no = line_no, line_no + len(lines)
            # ';' ends each line; it sits at every fourth token only when
            # every line holds exactly three tokens
            joined = " ; ".join(chunk)
            tokens = joined.split()
            # a comment may hold three tokens, so a '#' alone calls for the filter
            if "#" in joined or len(tokens) != 4 * len(chunk) - 1:
                chunk = [ln for ln in chunk if not ln.startswith("#") and ln.strip()]
                if not chunk:
                    continue
                tokens = " ; ".join(chunk).split()
            if len(tokens) != 4 * len(chunk) - 1 or tokens[3::4] != [";"] * (len(chunk) - 1):
                _hidden_error(lines, first, prev)
            del tokens[3::4]
            try:
                block = np.array(tokens, dtype=np.int64).reshape(-1, 3)
            except (ValueError, OverflowError):
                _hidden_error(lines, first, prev)
            j, i, v = block.T
            # in range, and (label_idx, instance_idx) strictly increasing from prev on
            if not (((j >= 1) & (i >= 1) & (np.abs(v) == 1)).all()
                    and (j[0], i[0]) > prev and _increasing(j, i)):
                _hidden_error(lines, first, prev)
            prev = (int(j[-1]), int(i[-1]))
            block[:, :2] -= 1
            payload += memoryview(block)
    return np.frombuffer(payload, dtype=np.int64).reshape(-1, 3)


def read_hidden(text):
    """load_hidden of a sidecar's contents held in a string.

    Kept only for bench/run.py's check_rep, until ROADMAP item 1 moves
    it to load_hidden and deletes this.
    """
    return load_hidden(io.StringIO(text))


def save_matrix(A, path, comments=()):
    """Write a 2-D matrix with a 'rows cols' header, one row per line.

    Each value is printed with '%.17g', so the file reads back bit-exactly.
    The rows are formatted as they are written; the row format is fixed
    at the call, so a block that is not 2-D is refused before the file
    is opened.

    Args:
        A: 2-D float array.
        path: path, or text file object written where it stands.
        comments: optional strings emitted as leading '#' lines.
    """
    head = [*comment_lines(comments), f"{A.shape[0]} {A.shape[1]}"]
    row_format = " ".join(["%.17g"] * A.shape[1])
    write_lines(path, chain(head, (row_format % tuple(row.tolist()) for row in A)))


def load_matrix(path):
    """Read a matrix file.

    The values are a whitespace-separated token stream in which '#'
    lines are comments, so a header or a row may span lines or share
    them.  The file is read in batches of lines (textio.line_batches)
    and the values are converted in batches of at most _BATCH.

    Args:
        path: path, or text file object read from where it stands; an
            io.StringIO decodes text held in a string.

    Raises:
        ValueError: on a missing, non-integer or negative 'rows cols'
            header or one with a side numpy cannot hold, a non-numeric
            value (with float()'s message), or a value count other than
            rows * cols.
    """
    lines = (line.split() for line in chain.from_iterable(line_batches(path))
             if not line.startswith("#"))
    batch = []
    for tokens in lines:
        batch += tokens
        if len(batch) >= 2:
            break
    header, batch = batch[:2], batch[2:]
    if len(header) < 2:
        raise ValueError("matrix file needs a 'rows cols' header")
    bad_header = f"bad matrix header {' '.join(header)!r}, expected 'rows cols'"
    try:
        rows, cols = int(header[0]), int(header[1])
        if rows < 0 or cols < 0:
            raise ValueError
    except ValueError:
        raise ValueError(bad_header) from None
    # each batch's values appended as bytes to one buffer, so the matrix
    # is held once; the header's count is not trusted to size it
    payload = bytearray()
    for tokens in lines:
        batch += tokens
        while len(batch) >= _BATCH:
            payload += memoryview(np.array(batch[:_BATCH], dtype=np.float64))
            del batch[:_BATCH]
    payload += memoryview(np.array(batch, dtype=np.float64))
    vals = np.frombuffer(payload, dtype=np.float64)
    if vals.size != rows * cols:
        raise ValueError(f"expected {rows * cols} values, found {vals.size}")
    try:  # an empty matrix may still name a side numpy cannot hold
        return vals.reshape(rows, cols)
    except ValueError:
        raise ValueError(bad_header) from None


def read_matrix(text):
    """load_matrix of a matrix file's contents held in a string.

    Kept only for bench/run.py's check_rep, until ROADMAP item 1 moves
    it to load_matrix and deletes this.
    """
    return load_matrix(io.StringIO(text))


def _require_file(path, what):
    if not Path(path).is_file():
        raise ValueError(f"{what} file not found: {path}")


def _require_parent(path, what):
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise ValueError(f"directory for {what} does not exist: {parent}")


def _with_bias(features):
    return FeatureMatrix(
        np.vstack([features.values, np.ones((1, features.n))])
    )


def _load_dataset(path, add_bias=False):
    data = load_gml(path)
    if add_bias:
        data = Dataset(_with_bias(data.features), data.labels)
    return data


_GRID_AXES = ("lambda", "lambda2", "lambda3", "lambda4", "k", "g")


def parse_grid(spec):
    """Parse a grid like 'lambda3=0.1,1;lambda4=0.1,1;k=3,5;g=2,4'."""
    axes = {}
    for part in spec.split(";"):
        name, eq, vals = part.partition("=")
        name = name.strip()
        if not eq or name not in _GRID_AXES:
            raise ValueError(
                f"bad grid axis {part!r}; axes are {', '.join(_GRID_AXES)}"
            )
        if name in axes:
            raise ValueError(f"duplicate grid axis {name!r}")
        try:
            if name in ("k", "g"):
                values = [int(v) for v in vals.split(",")]
            else:
                values = [float(v) for v in vals.split(",")]
        except ValueError:
            raise ValueError(f"bad grid values for axis {name!r}: {vals!r}") from None
        if name == "g" and min(values) < 1:
            raise ValueError(f"grid axis 'g' needs values >= 1, got {min(values)}")
        axes[name] = values
    if not axes:
        raise ValueError("empty grid")
    return axes


def _hp_from_args(args, axes):
    """Hyperparams from the train flags; a grid axis's first value stands
    in for its flag, so a flag the grid replaces is not validated."""
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(Hyperparams)}
    fields.update((name, values[0]) for name, values in axes.items() if name != "g")
    return Hyperparams(**fields)


def _cmd_synth(args):
    for name in ("out_full", "out_masked", "out_hidden"):
        _require_parent(getattr(args, name), name.replace("_", "-"))
    data = make_synthetic(
        args.labels, args.instances, args.features, args.latent_k,
        args.noise, args.seed,
    )
    stamp = (
        f"glocal synth seed={args.seed} noise={args.noise} rho={args.rho}"
        f" l={args.labels} n={args.instances} d={args.features} k={args.latent_k}"
    )
    masked, hidden = apply_mask(data, MaskSpec(rho=args.rho, seed=args.seed))
    # one pass over the shared features writes both files
    save_gml({args.out_full: data, args.out_masked: masked}, comments=[stamp])
    save_hidden(hidden, args.out_hidden, comments=[stamp])
    print(f"synth: wrote {args.out_full}, {args.out_masked}, {args.out_hidden}")
    return 0


def _cmd_mask(args):
    _require_file(args.input, "input")
    _require_parent(args.out, "out")
    _require_parent(args.hidden_out, "hidden-out")
    data = _load_dataset(args.input)
    masked, hidden = apply_mask(data, MaskSpec(rho=args.rho, seed=args.seed))
    stamp = f"glocal mask seed={args.seed} rho={args.rho} input={args.input}"
    save_gml({args.out: masked}, comments=[stamp])
    save_hidden(hidden, args.hidden_out, comments=[stamp])
    observed = np.count_nonzero(masked.labels.values)
    print(f"mask: {observed} observed positions kept, {len(hidden)} entries hidden")
    return 0


def _cmd_split(args):
    _require_file(args.input, "input")
    _require_parent(args.train_out, "train-out")
    _require_parent(args.test_out, "test-out")
    data = _load_dataset(args.input)
    train, test = split(data, args.fraction, args.seed)
    stamp = f"glocal split seed={args.seed} fraction={args.fraction} input={args.input}"
    save_gml({args.train_out: train}, comments=[stamp + " side=train"])
    save_gml({args.test_out: test}, comments=[stamp + " side=test"])
    print(f"split: {train.n} train / {test.n} test instances")
    return 0


def _cmd_cluster(args):
    _require_file(args.input, "input")
    _require_parent(args.out, "out")
    data = _load_dataset(args.input)
    part = kmeans(data.features, args.groups, args.seed, max_iter=args.max_iter)
    stamp = f"glocal cluster seed={args.seed} groups={args.groups} input={args.input}"
    save_partition(part, args.out, comments=[stamp])
    sizes = " ".join(str(int(s)) for s in part.sizes)
    print(f"cluster: {part.g} groups with sizes {sizes}")
    return 0


def _cmd_train(args):
    _require_file(args.input, "input")
    _require_parent(args.model_out, "model-out")
    if args.trace:
        _require_parent(args.trace, "trace")
    if args.partition:
        _require_file(args.partition, "partition")
    data = _load_dataset(args.input, add_bias=args.add_bias)
    part = None
    if args.partition:
        part = load_partition(args.partition, data.features)

    axes = parse_grid(args.grid) if args.grid else {}
    fields = {{"lambda": "lambda_"}.get(a, a): v for a, v in axes.items()}
    hp, g, grid_note = _hp_from_args(args, fields), args.groups, None
    if axes:
        groups = g if part is None else part
        loss, chosen, g, hp = grid_search(data, hp, fields, groups)
        grid_note = ", ".join(f"{a}={v}" for a, v in zip(axes, chosen.values()))
        print(f"grid: selected {grid_note} (cv ranking loss {loss:.4f})")
    if part is None:
        part = kmeans(data.features, g, args.seed)

    model, trace = fit(data, part, hp)
    provenance = {**dataclasses.asdict(hp), "add_bias": args.add_bias,
                  "n": data.n, "d": data.d, "l": data.l, "g": part.g}
    model = dataclasses.replace(model, provenance=provenance)
    stamp = (
        f"glocal train seed={args.seed} k={hp.k} g={part.g}"
        f" lambda={hp.lambda_} lambda2={hp.lambda2}"
        f" lambda3={hp.lambda3} lambda4={hp.lambda4}"
    )
    comments = ["glocal train"]  # the provenance lines carry the settings
    if grid_note:
        comments.append(f"grid selection: {grid_note}")
    save_model(model, args.model_out, comments=comments)
    if args.trace:
        write_lines(args.trace, trace.to_csv(comments=[stamp]).splitlines())
    final = trace.records[-1]
    print(
        f"train: objective {final.objective:.6g} after {final.iteration} iterations"
        f" (converged={trace.converged})"
    )
    return 0


def _cmd_predict(args):
    _require_file(args.model, "model")
    _require_file(args.input, "input")
    _require_parent(args.scores_out, "scores-out")
    if args.labels_out:
        _require_parent(args.labels_out, "labels-out")
    model = load_model(args.model)
    trained = model.provenance.get("add_bias")
    if trained is not None and trained != str(args.add_bias):
        raise ValueError(
            f"model was trained with add_bias={trained} but predict got"
            f" add_bias={args.add_bias}; pass --add-bias exactly when train did"
        )
    data = _load_dataset(args.input, add_bias=args.add_bias)
    S = score(model, data.features)
    stamp = f"glocal predict model={args.model} input={args.input}"
    save_matrix(S, args.scores_out, comments=[stamp])
    if args.labels_out:
        L = predict(model, data.features)
        save_matrix(L.astype(np.float64), args.labels_out, comments=[stamp])
    print(f"predict: scored {data.n} instances over {model.l} labels")
    return 0


def _hidden_truth(path, shape):
    """The label matrix of a sidecar's entries: their values at their
    positions, 0 elsewhere.  The entries are freed on return, before
    anything is ranked."""
    j, i, v = load_hidden(path).T
    outside = np.flatnonzero((j >= shape[0]) | (i >= shape[1]))
    if outside.size:
        e = outside[0]
        raise ValueError(
            f"hidden entry ({j[e] + 1}, {i[e] + 1}) outside score matrix {shape}"
        )
    truth = np.zeros(shape, dtype=np.int8)
    truth[j, i] = v
    return truth


def _cmd_eval(args):
    _require_file(args.scores, "scores")
    _require_parent(args.out, "out")
    if (args.truth is None) == (args.hidden is None):
        raise ValueError("pass exactly one of --truth or --hidden")
    S = load_matrix(args.scores)
    if args.truth:
        _require_file(args.truth, "truth")
        truth = load_gml(args.truth).labels.values
    else:
        _require_file(args.hidden, "hidden")
        truth = _hidden_truth(args.hidden, S.shape)
    report = evaluate(S, truth)
    stamp = f"glocal eval scores={args.scores}"
    write_lines(args.out, report.to_csv(comments=[stamp]).splitlines())
    print(
        f"eval: rkl={report.rkl:.4f} auc={report.auc:.4f}"
        f" cvg={report.cvg:.4f} ap={report.ap:.4f}"
    )
    return 0


_TRAIN_HELP = {
    "lambda_": "latent-to-feature coupling weight",
    "lambda2": "ridge weight",
    "lambda3": "global correlation weight",
    "lambda4": "local correlation weight",
}


def _add_train_flags(p):
    # one flag per Hyperparams field, named and defaulted after it; only k
    # has no default there, and the group count is no Hyperparams field
    p.add_argument("--latent-k", dest="k", metavar="LATENT_K", type=int, default=3,
                   help="latent dimension")
    p.add_argument("--groups", type=int, default=1, help="instance groups")
    for f in dataclasses.fields(Hyperparams):
        if f.name != "k":
            name = f.name.rstrip("_")
            p.add_argument("--" + name.replace("_", "-"), dest=f.name,
                           metavar=name.upper(), type=type(f.default),
                           default=f.default, help=_TRAIN_HELP.get(f.name))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="glocal",
        description="Multi-label learning with global and local label correlations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="k-means instance grouping")
    p.add_argument("--input", required=True)
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("train", help="fit a model")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", help="partition file overriding k-means")
    p.add_argument("--model-out", required=True)
    p.add_argument("--trace", help="write iter,objective CSV here")
    p.add_argument("--grid", help="e.g. 'lambda3=0.1,1;lambda4=0.1,1;k=3,5;g=2,4'")
    p.add_argument("--add-bias", action="store_true",
                   help="append a constant feature before training")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score instances with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--scores-out", required=True)
    p.add_argument("--labels-out")
    p.add_argument("--add-bias", action="store_true",
                   help="append a constant feature (match the train flag)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="ranking metrics for a score matrix")
    p.add_argument("--scores", required=True)
    p.add_argument("--truth", help="GML file with ground-truth labels")
    p.add_argument("--hidden", help="hidden-entry sidecar as ground truth")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("mask", help="hide label entries")
    p.add_argument("--input", required=True)
    p.add_argument("--rho", type=float, required=True,
                   help="percentage of positions kept observed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--hidden-out", required=True)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("split", help="train/test split over instances")
    p.add_argument("--input", required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("synth", help="generate a planted dataset")
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--instances", type=int, required=True)
    p.add_argument("--features", type=int, required=True)
    p.add_argument("--latent-k", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--rho", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-full", required=True)
    p.add_argument("--out-masked", required=True)
    p.add_argument("--out-hidden", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
