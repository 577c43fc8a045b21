"""End-to-end and per-layer benchmark of the glocal command-line pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload corel-pipeline --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 1

One run drives the real CLI in-process through `glocal.cli.main` on one
workload: `synth` writes the inputs (set-up), then `cluster`, `train`,
`predict` and `eval --hidden` run on the files on disk.  That repetition is made again until `--seconds` have passed and
at least MIN_REPS times; timings are medians over the repetitions.  The
workload seed goes to every subcommand's `--seed`; the program sees only
the generated files.

Every repetition checks its outputs (see `check_rep`).  A failed check is
counted in `failed` and makes the run exit 1.

With `--trace 1` one more repetition runs with every public function of
the seven glocal modules wrapped (bench/spans.py), and the per-layer
metrics are reported instead of the end-to-end ones, together with the
tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--workload all` runs
each workload in its own child process, one after the other, so that
each reports the peak RSS of its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3
AUC_FLOOR = 0.80  # the floor of acceptance criterion 8


@dataclass(frozen=True)
class Shape:
    """One workload at one size: synth flags, cluster groups, train flags."""

    labels: int
    instances: int
    features: int
    latent_k: int
    groups: int  # `cluster --groups`
    train: tuple


# Why each workload exists is written down in bench/README.md.  The toy
# shapes keep every code path of the full ones (k > 256 included) and
# exist for the smoke test only.
WORKLOADS = {
    "corel-pipeline": (
        Shape(374, 400, 499, 5, 8,
              ("--latent-k", "5", "--warm-iters", "5", "--outer-iters", "3",
               "--tol", "0")),
        Shape(40, 200, 10, 3, 3,
              ("--latent-k", "5", "--warm-iters", "2", "--outer-iters", "2",
               "--tol", "0")),
    ),
    "large-k": (
        Shape(200, 400, 30, 5, 4,
              ("--latent-k", "300", "--warm-iters", "1", "--outer-iters", "1",
               "--tol", "0")),
        Shape(30, 150, 10, 3, 2,
              ("--latent-k", "260", "--warm-iters", "1", "--outer-iters", "1",
               "--tol", "0")),
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("train_s", "s"),
    ("peak_rss_mb", "MB"),
    ("hidden_auc", "ratio"),
)

_CMDS = ("synth", "cluster", "train", "predict", "eval")
PER_LAYER = (
    *((f"cli.{c}.{stat}", "s") for c in _CMDS for stat in ("s", "self_s")),
    *((f"cli.{f}.s", "s") for f in ("write_matrix", "read_matrix", "write_hidden",
                                    "read_hidden", "make_synthetic")),
    ("data.parse_gml.s", "s"),
    ("data.parse_gml.calls", "count"),
    ("data.parse_gml.mb_per_s", "MB/s"),
    ("data.write_gml.s", "s"),
    ("data.apply_mask.s", "s"),
    ("data.take_instances.calls", "count"),
    ("clustering.kmeans.s", "s"),
    ("clustering.kmeans.calls", "count"),
    ("clustering.kmeans.useful_ratio", "ratio"),
    ("clustering.write_partition.s", "s"),
    ("clustering.read_partition.s", "s"),
    ("correlation.factored_trace.s", "s"),
    ("correlation.factored_trace.calls", "count"),
    ("correlation.project_unit_rows.s", "s"),
    ("correlation.project_unit_rows.calls", "count"),
    ("solver.fit.s", "s"),
    ("solver.fit.calls", "count"),
    ("solver.warm_start.s", "s"),
    ("solver.warm_start.calls", "count"),
    ("solver.warm_start.useful_ratio", "ratio"),
    ("solver.sweeps", "count"),
    ("solver.outer_sweep_s", "s"),
    *((f"solver.steps_accepted.{b}", "count") for b in "ZVUW"),
    ("solver.z_accept_ratio", "ratio"),
    ("solver.final_objective", "value"),
    ("solver.objective.s", "s"),
    ("solver.gradients.s", "s"),
    ("model.save_model.s", "s"),
    ("model.load_model.s", "s"),
    ("model.score.s", "s"),
    ("model.file_mb", "MB"),
    ("metrics.evaluate.s", "s"),
    ("metrics.ranking_loss.s", "s"),
    ("metrics.average_auc.s", "s"),
    ("metrics.coverage.s", "s"),
    ("metrics.average_precision.s", "s"),
    ("metrics.hidden_rkl", "ratio"),
    ("tracing.overhead_s", "s"),
)

# files a repetition writes; all must be byte-identical across repetitions
OUTPUTS = ("full.gml", "train.gml", "hidden.txt", "groups.txt", "model.txt",
           "trace.csv", "scores.txt", "report.csv")


def import_glocal():
    """Import glocal from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import glocal
        import glocal.cli
        import glocal.clustering
        import glocal.data
        import glocal.metrics
        import glocal.model
        import glocal.solver
    except ImportError as exc:
        raise SystemExit(f"error: cannot import glocal from {src}: {exc}") from None
    if Path(glocal.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: glocal imported from {glocal.__file__}, not {src}")
    return glocal


class Checks:
    """Counts attempted and failed output checks and CLI subcommands."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def commands(shape, seed):
    """The synth command and the pipeline commands of one repetition.

    File names are relative to the repetition's directory, so the comment
    lines the CLI stamps into its outputs are the same in every repetition.
    """
    s = str(seed)
    synth = ["synth", "--labels", str(shape.labels), "--instances", str(shape.instances),
             "--features", str(shape.features), "--latent-k", str(shape.latent_k),
             "--noise", "0.3", "--rho", "30", "--seed", s,
             "--out-full", "full.gml", "--out-masked", "train.gml",
             "--out-hidden", "hidden.txt"]
    pipeline = [
        ["cluster", "--input", "train.gml", "--groups", str(shape.groups),
         "--seed", s, "--out", "groups.txt"],
        ["train", "--input", "train.gml", "--partition", "groups.txt", *shape.train,
         "--seed", s, "--model-out", "model.txt", "--trace", "trace.csv"],
        ["predict", "--model", "model.txt", "--input", "train.gml",
         "--scores-out", "scores.txt"],
        ["eval", "--scores", "scores.txt", "--hidden", "hidden.txt", "--out", "report.csv"],
    ]
    return synth, pipeline


def run_cli(glocal, argv, checks):
    """Run one subcommand in-process; returns (ok, wall seconds)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = glocal.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the flags
        rc = exc.code
    except Exception:  # an uncaught error is a failed subcommand, not a crash
        traceback.print_exc()
        rc = "exception"
    dt = time.perf_counter() - t0
    return checks.check(rc == 0, f"glocal {argv[0]} exited {rc}"), dt


def run_rep(glocal, shape, seed, d, checks):
    """One repetition; returns its timings, or None if a subcommand failed."""
    d.mkdir()
    synth, pipeline = commands(shape, seed)
    with contextlib.chdir(d):
        ok, setup_s = run_cli(glocal, synth, checks)
        if not ok:
            return None
        train_s = None
        t0 = time.perf_counter()
        for argv in pipeline:
            ok, dt = run_cli(glocal, argv, checks)
            if not ok:
                return None
            if argv[0] == "train":
                train_s = dt
        pipeline_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "pipeline_s": pipeline_s, "train_s": train_s}


def data_lines(path):
    return [ln for ln in path.read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")]


def digests(d):
    return {name: hashlib.blake2b((d / name).read_bytes()).hexdigest()
            for name in OUTPUTS}


def read_report(d):
    header, values = data_lines(d / "report.csv")
    return dict(zip(header.split(","), (float(v) for v in values.split(","))))


def check_rep(glocal, d, checks, thorough):
    """Output checks of one repetition; returns its report.

    Every repetition: the trace's objectives never increase and the
    hidden-entry AUC meets the criterion-8 floor.  `thorough` also
    recomputes the scores from the saved model and the metrics from the
    scores and the sidecar, and compares them with the files bit for bit;
    the other repetitions are compared byte for byte with that one.
    """
    objectives = [float(ln.split(",")[1]) for ln in data_lines(d / "trace.csv")[1:]]
    checks.check(all(b <= a for a, b in zip(objectives, objectives[1:])),
                 f"{d.name}: trace objectives increase")
    report = read_report(d)
    checks.check(report["auc"] >= AUC_FLOOR,
                 f"{d.name}: hidden auc {report['auc']:.4f} below {AUC_FLOOR}")
    if thorough:
        cli = glocal.cli
        model = glocal.model.load_model(str(d / "model.txt"))
        features = glocal.data.parse_gml((d / "train.gml").read_text()).features
        want = glocal.model.score(model, features)
        got = cli.read_matrix((d / "scores.txt").read_text())
        checks.check(got.shape == want.shape and got.tobytes() == want.tobytes(),
                     f"{d.name}: scores differ from score(load_model(model), features)")
        truth = np.zeros(got.shape, dtype=np.int8)
        for j, i, v in cli.read_hidden((d / "hidden.txt").read_text()):
            truth[j, i] = v
        recomputed = glocal.metrics.evaluate(got, truth).to_csv().splitlines()
        checks.check(recomputed == data_lines(d / "report.csv"),
                     f"{d.name}: report.csv differs from evaluate(scores, hidden)")
    return report


def _digest(*arrays):
    h = hashlib.blake2b()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class LayerProbe:
    """Hooks for the traced repetition: inputs, fit traces, last fit."""

    def __init__(self):
        self.parsed_bytes = 0
        self.kmeans_inputs = set()
        self.warm_inputs = set()
        self.fit_traces = []
        self.last_fit = None

    def on_parse(self, args, result):
        self.parsed_bytes += len(args["text"])

    def on_kmeans(self, args, result):
        self.kmeans_inputs.add(
            (_digest(args["features"].values), args["g"], args["seed"]))

    def on_warm_start(self, args, result):
        # everything warm_start's result depends on; lambda3 and lambda4
        # are zeroed inside it and the partition only sets the factor count
        ctx = args["ctx"]
        hp = ctx.hp
        self.warm_inputs.add((_digest(ctx.X, ctx.Y, ctx.J), len(ctx.groups), hp.k,
                              hp.lambda_, hp.lambda2, hp.inner_steps, hp.warm_iters,
                              hp.seed))

    def on_fit(self, args, result):
        model, trace = result
        self.fit_traces.append(trace)
        self.last_fit = (args["dataset"], args["partition"], args["hp"], model)

    def hooks(self):
        return {"data.parse_gml": self.on_parse, "clustering.kmeans": self.on_kmeans,
                "solver.warm_start": self.on_warm_start, "solver.fit": self.on_fit}


def layer_metrics(glocal, tracer, probe, d, overhead_s):
    """Per-layer values of the traced repetition, keyed like PER_LAYER."""
    st = tracer.stat
    v = {}
    for c in _CMDS:
        v[f"cli.{c}.s"] = st(f"cli.{c}").s
        v[f"cli.{c}.self_s"] = st(f"cli.{c}").self_s
    for f in ("write_matrix", "read_matrix", "write_hidden", "read_hidden", "make_synthetic"):
        v[f"cli.{f}.s"] = st(f"cli.{f}").s
    parse = st("data.parse_gml")
    v["data.parse_gml.s"] = parse.s
    v["data.parse_gml.calls"] = parse.calls
    v["data.parse_gml.mb_per_s"] = probe.parsed_bytes / 1e6 / parse.s if parse.s else 0.0
    v["data.write_gml.s"] = st("data.write_gml").s
    v["data.apply_mask.s"] = st("data.apply_mask").s
    v["data.take_instances.calls"] = st("data.take_instances").calls
    km = st("clustering.kmeans")
    v["clustering.kmeans.s"] = km.s
    v["clustering.kmeans.calls"] = km.calls
    v["clustering.kmeans.useful_ratio"] = len(probe.kmeans_inputs) / km.calls if km.calls else 0.0
    v["clustering.write_partition.s"] = st("clustering.write_partition").s
    v["clustering.read_partition.s"] = st("clustering.read_partition").s
    for f in ("factored_trace", "project_unit_rows"):
        v[f"correlation.{f}.s"] = st(f"correlation.{f}").s
        v[f"correlation.{f}.calls"] = st(f"correlation.{f}").calls
    fit, warm = st("solver.fit"), st("solver.warm_start")
    sweeps = sum(t.total_iterations for t in probe.fit_traces)
    v["solver.fit.s"] = fit.s
    v["solver.fit.calls"] = fit.calls
    v["solver.warm_start.s"] = warm.s
    v["solver.warm_start.calls"] = warm.calls
    v["solver.warm_start.useful_ratio"] = len(probe.warm_inputs) / warm.calls if warm.calls else 0.0
    v["solver.sweeps"] = sweeps
    v["solver.outer_sweep_s"] = (fit.s - warm.s) / sweeps if sweeps else 0.0
    accepted = {b: sum(len(r.steps.get(b, ())) for t in probe.fit_traces for r in t.records)
                for b in "ZVUW"}
    for b, count in accepted.items():
        v[f"solver.steps_accepted.{b}"] = count
    projections = st("correlation.project_unit_rows").calls
    v["solver.z_accept_ratio"] = accepted["Z"] / projections if projections else 0.0
    v["solver.final_objective"] = probe.fit_traces[-1].records[-1].objective

    # probes at the final model, made after the wrappers are removed
    dataset, partition, hp, model = probe.last_fit
    solver = glocal.solver
    ctx = solver.make_context(dataset, partition, hp)
    for name, fn in (("objective", solver.objective), ("gradients", solver.gradients)):
        t0 = time.perf_counter()
        fn(model, ctx)
        v[f"solver.{name}.s"] = time.perf_counter() - t0

    for f in ("save_model", "load_model", "score"):
        v[f"model.{f}.s"] = st(f"model.{f}").s
    v["model.file_mb"] = (d / "model.txt").stat().st_size / 1e6
    for f in ("evaluate", "ranking_loss", "average_auc", "coverage", "average_precision"):
        v[f"metrics.{f}.s"] = st(f"metrics.{f}").s
    v["metrics.hidden_rkl"] = read_report(d)["rkl"]
    v["tracing.overhead_s"] = overhead_s
    return v


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None where it cannot be read."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the library numpy already loaded
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def git_commit():
    """HEAD of the checkout read from .git, without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(),
    }


def run_workload(args):
    glocal = import_glocal()
    full, toy = WORKLOADS[args.workload]
    shape = toy if args.toy else full
    print("env " + json.dumps(environment(args.seed)))
    checks = Checks()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        reps, first_digests, first_report = [], None, None
        t_start = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - t_start < args.seconds:
            d = work / f"rep{len(reps)}"
            rep = run_rep(glocal, shape, args.seed, d, checks)
            if rep is None:
                break
            if not reps:
                # one pass of the pipeline, before the checks and the later
                # repetitions add their own allocations
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            report = check_rep(glocal, d, checks, thorough=not reps)
            # every output, the model and report.csv included, must repeat
            # byte for byte for the same seed
            if reps:
                checks.check(digests(d) == first_digests,
                             f"{d.name}: outputs differ from rep0 for the same seed")
                shutil.rmtree(d)
            else:
                first_digests, first_report = digests(d), report
            reps.append(rep)

        metrics = {}
        if len(reps) >= MIN_REPS:
            med = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
            values = {**med, "peak_rss_mb": peak_mb, "hidden_auc": first_report["auc"]}
            print(f"{args.workload}: seed {args.seed}, {len(reps)} repetitions")
            for k in reps[0]:
                print(f"  {k} per repetition: " + " ".join(f"{r[k]:.4g}" for r in reps))
            if not args.trace:
                metrics = {name: {"value": values[name], "unit": unit}
                           for name, unit in END_TO_END}
            else:
                probe = LayerProbe()
                tracer = Tracer(hooks=probe.hooks(),
                                labels={"cli.main": lambda a: f"cli.{a['argv'][0]}"})
                tracer.install()
                try:
                    d = work / "traced"
                    traced = run_rep(glocal, shape, args.seed, d, checks)
                finally:
                    checks.check(tracer.remove(), "tracing wrappers left installed")
                if traced is not None:
                    checks.check(digests(d) == first_digests,
                                 "traced outputs differ from the untraced run's")
                    overhead = traced["pipeline_s"] - med["pipeline_s"]
                    layer = layer_metrics(glocal, tracer, probe, d, overhead)
                    metrics = {name: {"value": layer[name], "unit": unit}
                               for name, unit in PER_LAYER}
            for name, m in metrics.items():
                print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    correct = checks.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own child process, one at a time."""
    failed = []
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.toy:
            argv.append("--toy")
        if subprocess.run(argv, cwd=ROOT, check=False).returncode != 0:
            failed.append(name)
    print(f"all: {len(WORKLOADS)} workloads, failed: {', '.join(failed) or 'none'}")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep repeating the pipeline this long (at least 3 times)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from one extra traced repetition")
    parser.add_argument("--toy", action="store_true",
                        help="tiny shapes that run in seconds, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
