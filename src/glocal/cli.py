"""Command-line interface.

Subcommands: cluster, train, predict, eval, mask, split, synth.  Every
subcommand is deterministic given its flags, and every file it writes
opens with the same '#' stamp: the command and each setting it ran with,
which main builds from the parsed flags (see _stamp).  Each subcommand
declares its path flags with its other flags, as input files and output
paths, and main checks every path given in one pass before the command
runs.  A missing input file or output directory, an output that names a
directory, and an output that names the file of any other path of the
run, input or output (through a link too, as glocal.textio.file_key
decides), are reported before any work starts; two inputs may name one
file.  Errors exit with status 1 and a one-line diagnostic.  Every file
is read a line at a time and written a line, or one bounded batch of
lines, at a time (see glocal.textio), through the load_* and save_*
functions of its format, which live with their modules.  A GML or matrix path has its array cache,
'.<name>.glocal-cache' beside it (see glocal.data): the arrays its
decoder would return, keyed by the file's bytes.  save_gml and
save_matrix write it with the file, and load_gml and load_matrix read
it, or decode the file and write it, so no command decodes text another
wrote.  The cache is the one file a run writes without a stamp.
"""

import argparse
import dataclasses
import io
import sys
from pathlib import Path

import numpy as np

from .clustering import kmeans, load_partition, save_partition
from .data import (
    Dataset,
    LabelMatrix,
    apply_mask,
    load_gml,
    load_matrix,
    make_synthetic,
    save_gml,
    save_matrix,
    split,
)
from .metrics import evaluate
from .model import Hyperparams, load_model, predict, save_model, score
from .solver import fit, grid_search
from .textio import file_key, write_lines


def read_matrix(text):
    """load_matrix of text held in a string, for bench/run.py (ROADMAP item 1a)."""
    return load_matrix(io.StringIO(text))


def read_hidden(text):
    """The hidden labels of a matrix held in a string, as 0-based
    (label, instance, value) int64 rows in row-major order, for
    bench/run.py (ROADMAP item 1a)."""
    truth = LabelMatrix(read_matrix(text)).values
    return np.column_stack((np.argwhere(truth), truth[truth != 0]))


def _load_dataset(path, add_bias=False):
    data = load_gml(path)
    if add_bias:
        data = Dataset(data.features.with_bias(), data.labels)
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
        axes[name] = values
    return axes


def _hp_from_args(args, axes):
    """Hyperparams from the train flags; a grid axis's first value stands
    in for its flag, so a flag the grid replaces is not validated."""
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(Hyperparams)}
    fields.update((name, values[0]) for name, values in axes.items() if name != "g")
    return Hyperparams(**fields)


def _cmd_synth(args, stamp):
    data = make_synthetic(
        args.labels, args.instances, args.features, args.latent_k,
        args.noise, args.seed,
    )
    masked = apply_mask(data, args.rho, args.seed)
    # one pass over the shared features writes both files
    save_gml({args.out_full: data, args.out_masked: masked}, comments=[stamp])
    # the labels the mask hid, 0 at every other position
    save_matrix(data.labels.values - masked.labels.values, args.out_hidden, comments=[stamp])
    print(f"synth: wrote {args.out_full}, {args.out_masked}, {args.out_hidden}")
    return 0


def _cmd_mask(args, stamp):
    data = _load_dataset(args.input)
    masked = apply_mask(data, args.rho, args.seed)
    save_gml({args.out: masked}, comments=[stamp])
    hidden = data.labels.values - masked.labels.values
    save_matrix(hidden, args.hidden_out, comments=[stamp])
    observed = np.count_nonzero(masked.labels.values)
    print(f"mask: {observed} observed positions kept, {np.count_nonzero(hidden)} entries hidden")
    return 0


def _cmd_split(args, stamp):
    data = _load_dataset(args.input)
    train, test = split(data, args.fraction, args.seed)
    save_gml({args.train_out: train}, comments=[stamp + " side=train"])
    save_gml({args.test_out: test}, comments=[stamp + " side=test"])
    print(f"split: {train.n} train / {test.n} test instances")
    return 0


def _cmd_cluster(args, stamp):
    data = _load_dataset(args.input)
    part = kmeans(data.features, args.groups, args.seed, max_iter=args.max_iter)
    save_partition(part, args.out, comments=[stamp])
    sizes = " ".join(str(int(s)) for s in part.sizes)
    print(f"cluster: {part.g} groups with sizes {sizes}")
    return 0


def _cmd_train(args, stamp):
    data = _load_dataset(args.input, add_bias=args.add_bias)
    part = None
    if args.partition:
        part = load_partition(args.partition, data.features)

    axes = parse_grid(args.grid) if args.grid else {}
    fields = {{"lambda": "lambda_"}.get(a, a): v for a, v in axes.items()}
    hp, g = _hp_from_args(args, fields), args.groups
    if axes:
        groups = g if part is None else part
        loss, chosen, g, hp = grid_search(data, hp, fields, groups)
        picked = ", ".join(f"{a}={v}" for a, v in zip(axes, chosen.values()))
        print(f"grid: selected {picked} (cv ranking loss {loss:.4f})")
    if part is None:
        part = kmeans(data.features, g, args.seed)

    model, trace = fit(data, part, hp)
    provenance = {**dataclasses.asdict(hp), "add_bias": args.add_bias,
                  "n": data.n, "d": data.d, "l": data.l, "g": part.g}
    model = dataclasses.replace(model, provenance=provenance)
    # the stamp records what was asked for, the provenance what was fitted
    save_model(model, args.model_out, comments=[stamp])
    if args.trace:
        # the model file's header lines: the stamp, then the provenance
        comments = [stamp, *(f"{key}={value}" for key, value in model.provenance.items())]
        write_lines(args.trace, trace.to_csv(comments=comments).splitlines())
    final = trace.records[-1]
    print(
        f"train: objective {final.objective:.6g} after {final.iteration} iterations"
        f" (converged={trace.converged})"
    )
    return 0


def _cmd_predict(args, stamp):
    model = load_model(args.model)
    # the features are built as train built them; a model with no add_bias
    # entry (saved from the library) is scored on the features as given
    add_bias = model.provenance.get("add_bias", "False")
    if add_bias not in ("True", "False"):
        raise ValueError(f"model provenance has add_bias={add_bias}; expected True or False")
    data = _load_dataset(args.input, add_bias=add_bias == "True")
    S = score(model, data.features)
    save_matrix(S, args.scores_out, comments=[stamp])
    if args.labels_out:
        save_matrix(predict(model, data.features), args.labels_out, comments=[stamp])
    print(f"predict: scored {data.n} instances over {model.l} labels")
    return 0


def _cmd_eval(args, stamp):
    if (args.truth is None) == (args.hidden is None):
        raise ValueError("pass exactly one of --truth or --hidden")
    S = load_matrix(args.scores)
    if args.truth:
        truth = _load_dataset(args.truth).labels.values
    else:
        truth = LabelMatrix(load_matrix(args.hidden)).values
    report = evaluate(S, truth)
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
    p.set_defaults(func=_cmd_cluster, inputs=("input",), outputs=("out",))

    p = sub.add_parser("train", help="fit a model")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", help="partition file overriding k-means")
    p.add_argument("--model-out", required=True)
    p.add_argument("--trace", help="write iter,objective CSV here, under the"
                   " model file's header lines")
    p.add_argument("--grid", help="e.g. 'lambda3=0.1,1;lambda4=0.1,1;k=3,5;g=2,4'")
    p.add_argument("--add-bias", action="store_true",
                   help="append a constant feature; predict follows the model")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train, inputs=("input", "partition"),
                   outputs=("model_out", "trace"))

    p = sub.add_parser("predict", help="score instances with a model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--scores-out", required=True)
    p.add_argument("--labels-out")
    p.set_defaults(func=_cmd_predict, inputs=("model", "input"),
                   outputs=("scores_out", "labels_out"))

    p = sub.add_parser("eval", help="ranking metrics for a score matrix")
    p.add_argument("--scores", required=True)
    p.add_argument("--truth", help="GML file with ground-truth labels")
    p.add_argument("--hidden", help="matrix of the labels a mask hid, as synth"
                   " --out-hidden and mask --hidden-out write it, as ground truth")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval, inputs=("scores", "truth", "hidden"), outputs=("out",))

    p = sub.add_parser("mask", help="hide label entries")
    p.add_argument("--input", required=True)
    p.add_argument("--rho", type=float, required=True,
                   help="percentage of positions kept observed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--hidden-out", required=True)
    p.set_defaults(func=_cmd_mask, inputs=("input",), outputs=("out", "hidden_out"))

    p = sub.add_parser("split", help="train/test split over instances")
    p.add_argument("--input", required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.set_defaults(func=_cmd_split, inputs=("input",), outputs=("train_out", "test_out"))

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
    p.set_defaults(func=_cmd_synth, inputs=(),
                   outputs=("out_full", "out_masked", "out_hidden"))

    return parser


def _stamp(args):
    """The header line of every file a run writes: 'glocal <command>',
    then name=value for each flag given or defaulted, in the parser's
    order.  The output paths are left out, since each names the file
    itself, and so are argparse's own entries and unset flags."""
    skip = {"command", "func", "inputs", "outputs", *args.outputs}
    settings = (f"{name.rstrip('_')}={value}" for name, value in vars(args).items()
                if name not in skip and value is not None)
    return " ".join([f"glocal {args.command}", *settings])


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        # every path flag the subcommand declared and was given, before any
        # work: an output may share its file with no other path of the run
        seen = {}  # file_key -> (flag, resolved path) of the first path naming it
        for name in (*args.inputs, *args.outputs):
            path, flag = getattr(args, name), name.replace("_", "-")
            if path is None:
                continue
            target, key = Path(path).resolve(), file_key(path)
            if name in args.inputs:
                if not Path(path).is_file():
                    raise ValueError(f"{name} file not found: {path}")
            elif target.is_dir():  # the empty path too: it names the working directory
                raise ValueError(f"--{flag} names a directory: {target}")
            elif not target.parent.is_dir():
                raise ValueError(f"directory for {flag} does not exist: {target.parent}")
            elif key in seen:
                raise ValueError(f"--{seen[key][0]} and --{flag} name the same file: {seen[key][1]}")
            seen.setdefault(key, (flag, target))
        return args.func(args, _stamp(args))
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
