"""Command-line interface.

Subcommands: cluster, train, predict, eval, mask, split, synth.  Every
subcommand is deterministic given its flags; seeds are echoed into the
output files as '#' comment lines.  Paths are validated before any
work starts and errors exit with status 1 and a one-line diagnostic.

File formats owned here (all others live with their module):
  * scores/labels files: comments, a "l n" header line, then l rows of
    n whitespace-separated values;
  * hidden-entry sidecar: "label_idx instance_idx value" lines, 1-based;
  * report CSV: header rkl,auc,cvg,ap,skipped_instances,skipped_labels.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from .clustering import kmeans, read_partition, write_partition
from .data import (
    Dataset,
    FeatureMatrix,
    LabelMatrix,
    MaskSpec,
    apply_mask,
    parse_gml,
    split,
    take_instances,
    write_gml,
)
from .metrics import evaluate, ranking_loss
from .model import Hyperparams, load_model, predict, save_model, score
from .solver import fit
from .textio import TokenStream, comment_lines, format_rows


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
    Y = np.where(scores > 0.0, 1, -1).astype(np.int8)
    return Dataset(FeatureMatrix(X), LabelMatrix(Y))


_HIDDEN_CHUNK = 4096  # sidecar lines formatted or converted per call


def write_hidden(hidden, comments=()):
    """Serialize hidden entries as 1-based 'label_idx instance_idx value' lines.

    Args:
        hidden: (m, 3) integer array, or rows, of 0-based
            (label_idx, instance_idx, value) entries.
        comments: optional strings emitted as leading '#' lines.
    """
    rows = np.asarray(hidden, dtype=np.int64).reshape(-1, 3) + (1, 1, 0)
    lines = comment_lines(comments)
    for start in range(0, len(rows), _HIDDEN_CHUNK):
        block = rows[start : start + _HIDDEN_CHUNK]
        lines.append(("%d %d %d\n" * len(block))[:-1] % tuple(block.ravel().tolist()))
    return "\n".join(lines) + "\n"


def _hidden_error(text):
    """Raise the error for a sidecar that read_hidden's array decode rejected.

    Reads the entries one at a time, in file order, and names the line of
    the first offending one.
    """
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
        if (j, i) in seen:
            raise ValueError(f"line {line_no}: duplicate hidden entry {raw!r}")
        seen.add((j, i))
    raise ValueError("malformed hidden-entry sidecar")


def read_hidden(text):
    """Parse a hidden-entry sidecar back to 0-based entries.

    Per chunk of _HIDDEN_CHUNK lines, the lines are joined and split
    once and converted with one numpy call; comment and blank lines are
    filtered out line by line only in a chunk that holds a '#' or the
    wrong token count.  Per file, the entries are range-checked at once
    and checked for repeats: by one pass when (label_idx, instance_idx)
    strictly increases, as write_hidden writes it, and by a lexsort
    otherwise.

    Returns:
        (m, 3) int64 array of (label_idx, instance_idx, value) rows in
        file order.

    Raises:
        ValueError: naming the line of the first malformed entry, or of
            the first one repeating an earlier (label_idx, instance_idx).
    """
    lines = text.splitlines()
    blocks = []
    for start in range(0, len(lines), _HIDDEN_CHUNK):
        chunk = lines[start : start + _HIDDEN_CHUNK]
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
            _hidden_error(text)
        del tokens[3::4]
        try:
            blocks.append(np.array(tokens, dtype=np.int64).reshape(-1, 3))
        except (ValueError, OverflowError):
            _hidden_error(text)
    hidden = np.concatenate(blocks) if blocks else np.empty((0, 3), dtype=np.int64)
    j, i, v = hidden.T
    if not ((j >= 1) & (i >= 1) & (np.abs(v) == 1)).all():
        _hidden_error(text)
    dj, di = np.diff(j), np.diff(i)
    if not ((dj > 0) | ((dj == 0) & (di > 0))).all():
        order = np.lexsort((i, j))
        if ((np.diff(j[order]) == 0) & (np.diff(i[order]) == 0)).any():
            _hidden_error(text)
    return hidden - (1, 1, 0)


def write_matrix(A, comments=()):
    """Serialize a matrix with a 'rows cols' header, full precision."""
    lines = comment_lines(comments)
    lines.append(f"{A.shape[0]} {A.shape[1]}")
    lines.extend(format_rows(A))
    return "\n".join(lines) + "\n"


def read_matrix(text):
    """Parse a matrix written by write_matrix.

    Raises:
        ValueError: on a missing, non-integer or negative 'rows cols'
            header or one with a side numpy cannot hold, a non-numeric
            value, or a value count other than rows * cols.
    """
    tokens = TokenStream(text.splitlines())
    header = tokens.words(2)
    if len(header) < 2:
        raise ValueError("matrix file needs a 'rows cols' header")
    bad_header = f"bad matrix header {' '.join(header)!r}, expected 'rows cols'"
    try:
        rows, cols = int(header[0]), int(header[1])
        if rows < 0 or cols < 0:
            raise ValueError
    except ValueError:
        raise ValueError(bad_header) from None
    vals = tokens.floats()
    if vals.size != rows * cols:
        raise ValueError(f"expected {rows * cols} values, found {vals.size}")
    try:  # an empty matrix may still name a side numpy cannot hold
        return vals.reshape(rows, cols)
    except ValueError:
        raise ValueError(bad_header) from None


def _require_file(path, what):
    if not Path(path).is_file():
        raise ValueError(f"{what} file not found: {path}")


def _require_parent(path, what):
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise ValueError(f"directory for {what} does not exist: {parent}")


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def _write(path, text):
    Path(path).write_text(text, encoding="utf-8")


def _with_bias(features):
    return FeatureMatrix(
        np.vstack([features.values, np.ones((1, features.n))])
    )


def _load_dataset(path, add_bias=False):
    data = parse_gml(_read(path))
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
        if not values:
            raise ValueError(f"empty grid axis {name!r}")
        axes[name] = values
    if not axes:
        raise ValueError("empty grid")
    return axes


def _hp_from_args(args, **overrides):
    fields = dict(
        k=args.latent_k,
        lambda_=args.lam,
        lambda2=args.lambda2,
        lambda3=args.lambda3,
        lambda4=args.lambda4,
        inner_steps=args.inner_steps,
        outer_iters=args.outer_iters,
        warm_iters=args.warm_iters,
        tol=args.tol,
        seed=args.seed,
    )
    fields.update(overrides)
    return Hyperparams(**fields)


def _cv_folds(n, seed, folds=5):
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(f) for f in np.array_split(perm, folds) if f.size]


def _grid_search(data, args, axes):
    """5-fold CV over the grid; selection criterion is mean ranking loss."""
    folds = _cv_folds(data.n, args.seed)
    if len(folds) < 2:
        raise ValueError("grid search needs at least 2 instances")
    combos = list(itertools.product(*axes.values()))
    names = list(axes.keys())
    best = None
    for combo in combos:
        chosen = dict(zip(names, combo))
        g = chosen.pop("g", args.groups)
        overrides = {
            {"lambda": "lambda_"}.get(k, k): v for k, v in chosen.items()
        }
        hp = _hp_from_args(args, **overrides)
        losses = []
        usable = True
        for f, val_idx in enumerate(folds):
            train_idx = np.sort(np.concatenate(folds[:f] + folds[f + 1 :]))
            sub = take_instances(data, train_idx)
            try:
                part = kmeans(sub.features, g, args.seed)
                model, _ = fit(sub, part, hp)
                val = take_instances(data, val_idx)
                losses.append(
                    ranking_loss(score(model, val.features), val.labels.values)
                )
            except (ValueError, np.linalg.LinAlgError):
                # degenerate fold for this combination; skip the combo
                usable = False
                break
        if not usable:
            continue
        mean_loss = float(np.mean(losses))
        if best is None or mean_loss < best[0]:
            best = (mean_loss, dict(zip(names, combo)), g, hp)
    if best is None:
        raise ValueError("no grid combination produced a usable CV score")
    return best


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
    _write(args.out_full, write_gml(data, comments=[stamp]))
    _write(args.out_masked, write_gml(masked, comments=[stamp]))
    _write(args.out_hidden, write_hidden(hidden, comments=[stamp]))
    print(f"synth: wrote {args.out_full}, {args.out_masked}, {args.out_hidden}")
    return 0


def _cmd_mask(args):
    _require_file(args.input, "input")
    _require_parent(args.out, "out")
    _require_parent(args.hidden_out, "hidden-out")
    data = _load_dataset(args.input)
    masked, hidden = apply_mask(data, MaskSpec(rho=args.rho, seed=args.seed))
    stamp = f"glocal mask seed={args.seed} rho={args.rho} input={args.input}"
    _write(args.out, write_gml(masked, comments=[stamp]))
    _write(args.hidden_out, write_hidden(hidden, comments=[stamp]))
    observed = int(masked.labels.indicator.sum())
    print(f"mask: {observed} observed positions kept, {len(hidden)} entries hidden")
    return 0


def _cmd_split(args):
    _require_file(args.input, "input")
    _require_parent(args.train_out, "train-out")
    _require_parent(args.test_out, "test-out")
    data = _load_dataset(args.input)
    train, test = split(data, args.fraction, args.seed)
    stamp = f"glocal split seed={args.seed} fraction={args.fraction} input={args.input}"
    _write(args.train_out, write_gml(train, comments=[stamp + " side=train"]))
    _write(args.test_out, write_gml(test, comments=[stamp + " side=test"]))
    print(f"split: {train.n} train / {test.n} test instances")
    return 0


def _cmd_cluster(args):
    _require_file(args.input, "input")
    _require_parent(args.out, "out")
    data = _load_dataset(args.input)
    part = kmeans(data.features, args.groups, args.seed, max_iter=args.max_iter)
    stamp = f"glocal cluster seed={args.seed} groups={args.groups} input={args.input}"
    _write(args.out, write_partition(part, comments=[stamp]))
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

    grid_note = None
    if args.grid:
        axes = parse_grid(args.grid)
        if args.partition and "g" in axes:
            raise ValueError("cannot vary g in --grid while --partition is fixed")
        loss, chosen, g, hp = _grid_search(data, args, axes)
        grid_note = ", ".join(f"{k}={v}" for k, v in chosen.items())
        print(f"grid: selected {grid_note} (cv ranking loss {loss:.4f})")
    else:
        hp = _hp_from_args(args)
        g = args.groups

    if args.partition:
        part = read_partition(_read(args.partition), data.features)
    else:
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
        _write(args.trace, trace.to_csv(comments=[stamp]))
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
    _write(args.scores_out, write_matrix(S, comments=[stamp]))
    if args.labels_out:
        L = predict(model, data.features)
        _write(args.labels_out, write_matrix(L.astype(np.float64), comments=[stamp]))
    print(f"predict: scored {data.n} instances over {model.l} labels")
    return 0


def _cmd_eval(args):
    _require_file(args.scores, "scores")
    _require_parent(args.out, "out")
    if (args.truth is None) == (args.hidden is None):
        raise ValueError("pass exactly one of --truth or --hidden")
    S = read_matrix(_read(args.scores))
    if args.truth:
        _require_file(args.truth, "truth")
        truth = parse_gml(_read(args.truth)).labels.values
    else:
        _require_file(args.hidden, "hidden")
        j, i, v = read_hidden(_read(args.hidden)).T
        outside = np.flatnonzero((j >= S.shape[0]) | (i >= S.shape[1]))
        if outside.size:
            e = outside[0]
            raise ValueError(
                f"hidden entry ({j[e] + 1}, {i[e] + 1}) outside score matrix {S.shape}"
            )
        truth = np.zeros(S.shape, dtype=np.int8)
        truth[j, i] = v
    report = evaluate(S, truth)
    _write(args.out, report.to_csv(comments=[f"glocal eval scores={args.scores}"]))
    print(
        f"eval: rkl={report.rkl:.4f} auc={report.auc:.4f}"
        f" cvg={report.cvg:.4f} ap={report.ap:.4f}"
    )
    return 0


def _add_train_flags(p):
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="latent-to-feature coupling weight")
    p.add_argument("--lambda2", type=float, default=0.01, help="ridge weight")
    p.add_argument("--lambda3", type=float, default=0.1,
                   help="global correlation weight")
    p.add_argument("--lambda4", type=float, default=0.1,
                   help="local correlation weight")
    p.add_argument("--latent-k", type=int, default=3, help="latent dimension")
    p.add_argument("--groups", type=int, default=1, help="instance groups")
    p.add_argument("--inner-steps", type=int, default=5)
    p.add_argument("--outer-iters", type=int, default=50)
    p.add_argument("--warm-iters", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)


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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
