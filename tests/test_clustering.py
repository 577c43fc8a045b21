import io
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from glocal.clustering import (
    Partition,
    kmeans,
    load_partition,
    save_partition,
)
from glocal.data import FeatureMatrix


def wcss(points, assign0, g):
    # within-cluster sum of squares with group-mean centroids
    total = 0.0
    for m in range(g):
        pts = points[assign0 == m]
        if len(pts) == 0:
            return None
        total += float(((pts - pts.mean(axis=0)) ** 2).sum())
    return total


def brute_best_wcss(points, g):
    # exhaustive search over all assignments with no empty group
    best = np.inf
    for combo in itertools.product(range(g), repeat=len(points)):
        if len(set(combo)) < g:
            continue
        v = wcss(points, np.array(combo), g)
        if v is not None:
            best = min(best, v)
    return best


def test_two_point_clouds():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 2)) * 0.1
    b = np.array([10.0, 10.0]) + rng.standard_normal((5, 2)) * 0.1
    points = np.vstack([a, b])
    part = kmeans(FeatureMatrix(points.T), 2, seed=0)
    labels = part.assignment
    assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1
    assert labels[0] != labels[5]


def test_g_equals_one():
    rng = np.random.default_rng(1)
    points = rng.standard_normal((6, 3))
    part = kmeans(FeatureMatrix(points.T), 1, seed=0)
    assert np.array_equal(part.assignment, np.ones(6, dtype=int))


def test_g_equals_n_distinct_points():
    rng = np.random.default_rng(2)
    points = rng.standard_normal((5, 2))
    part = kmeans(FeatureMatrix(points.T), 5, seed=3)
    assert sorted(part.assignment.tolist()) == [1, 2, 3, 4, 5]
    assert wcss(points, part.assignment - 1, 5) == 0.0


def test_g_out_of_range():
    feats = FeatureMatrix(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        kmeans(feats, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans(feats, 5, seed=0)
    # a group count is an integer: a float or a bool one is refused by name
    for bad in (2.0, True):
        with pytest.raises(ValueError, match=f"^g must be an integer, got {bad}$"):
            kmeans(feats, bad, seed=0)


@pytest.mark.parametrize("max_iter", [0, -5])
def test_max_iter_below_one_is_rejected(max_iter):
    feats = FeatureMatrix(np.arange(8.0).reshape(2, 4))
    with pytest.raises(ValueError, match="^max_iter must be >= 1$"):
        kmeans(feats, 2, seed=0, max_iter=max_iter)
    assert kmeans(feats, 2, seed=0, max_iter=1).g == 2


def test_deterministic_per_seed():
    rng = np.random.default_rng(3)
    feats = FeatureMatrix(rng.standard_normal((4, 30)))
    a = kmeans(feats, 3, seed=7)
    b = kmeans(feats, 3, seed=7)
    assert np.array_equal(a.assignment, b.assignment)


def test_wcss_non_increasing_over_iterations():
    # the run is deterministic, so capping max_iter exposes each
    # iteration's assignment as a prefix of the full run
    rng = np.random.default_rng(4)
    points = rng.standard_normal((40, 3))
    feats = FeatureMatrix(points.T)
    values = []
    for cap in range(1, 12):
        part = kmeans(feats, 4, seed=5, max_iter=cap)
        values.append(wcss(points, part.assignment - 1, 4))
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def test_empty_cluster_repair_on_duplicates():
    # all points identical: only repair can populate every group
    points = np.ones((4, 2))
    part = kmeans(FeatureMatrix(points.T), 4, seed=0)
    assert sorted(part.assignment.tolist()) == [1, 2, 3, 4]
    # two distinct values, three groups
    points = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
    part = kmeans(FeatureMatrix(points.T), 3, seed=1)
    assert (part.sizes >= 1).all()


# instances where the single seeded run provably reaches the exhaustive
# optimum (verified once, then frozen); Lloyd is a local method, so the
# remaining instances only bound the oracle from above
_GLOBAL_OPT_TRIALS = (2, 3, 4, 5, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17,
                      18, 19, 20, 22, 23, 24, 26, 27, 30, 35, 37, 38, 39)


@pytest.mark.parametrize("trial", range(40))
def test_lloyd_vs_exhaustive_oracle(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(4, 9))
    d = int(rng.integers(1, 4))
    points = rng.standard_normal((n, d))
    part = kmeans(FeatureMatrix(points.T), 2, seed=trial)
    got = wcss(points, part.assignment - 1, 2)
    best = brute_best_wcss(points, 2)
    assert got >= best - 1e-9
    if trial in _GLOBAL_OPT_TRIALS:
        assert abs(got - best) < 1e-9


def test_partition_validation():
    part = Partition(2, [1, 1, 2, 2])
    assert part.g == 2
    assert part.sizes.tolist() == [2, 2]
    with pytest.raises(ValueError, match="empty"):
        Partition(3, [1, 1, 3, 3])
    with pytest.raises(ValueError):
        Partition(2, [0, 1, 1, 2])
    with pytest.raises(ValueError, match="^group 2 is empty$"):
        Partition(g=2, assignment=[1, 1])
    with pytest.raises(ValueError, match="^need at least one group$"):
        Partition(g=0, assignment=[])
    with pytest.raises(ValueError, match="^assignment values must lie in 1..g$"):
        Partition(g=2, assignment=[1, 3])
    # no instances make no group, refused by Partition, not by numpy's min
    with pytest.raises(ValueError, match="^need at least one group$"):
        load_partition(io.StringIO("1 0\n"), FeatureMatrix(np.zeros((2, 0))))
    # the values given are checked, not their int64 cast: a fraction, an
    # integral float or a bool is refused, not truncated
    for bad in ([1.9, 2.2], [1.0, 2.0], [True, True]):
        with pytest.raises(ValueError, match="^assignment values must be integers$"):
            Partition(2, bad)
    for bad in (True, 2.5, np.float64(2)):
        with pytest.raises(ValueError, match="^g must be an integer, got " + re.escape(repr(bad))):
            Partition(bad, [1, 2])
    # a g past the instance count names its first empty group, counting no
    # group beyond n + 1
    with pytest.raises(ValueError, match="^group 3 is empty$"):
        Partition(10**400, [1, 2, 1])


def test_groups_are_0_based_indices():
    part = Partition(2, [2, 1, 2, 1, 2])
    groups = part.groups()
    assert groups[0].tolist() == [1, 3]
    assert groups[1].tolist() == [0, 2, 4]


def test_partition_file_roundtrip():
    rng = np.random.default_rng(5)
    feats = FeatureMatrix(rng.standard_normal((3, 12)))
    part = kmeans(feats, 3, seed=9)
    buf = io.StringIO()
    save_partition(part, buf, comments=["seed=9"])
    assert buf.getvalue().startswith("# seed=9\n")
    back = load_partition(io.StringIO(buf.getvalue()), feats)
    assert np.array_equal(back.assignment, part.assignment)
    assert np.array_equal(back.sizes, part.sizes)


def test_read_partition_errors():
    feats = FeatureMatrix(np.zeros((2, 3)))

    def read_partition(text, features=feats):
        return load_partition(io.StringIO(text), features)

    # a partition is one row of n values, so an instance_idx group_idx
    # pair per line is refused: its value count is not its header's
    with pytest.raises(ValueError, match="^expected 1 values, found 4$"):
        read_partition("1 1\n2 1\n3 2\n")
    with pytest.raises(ValueError, match="^partition must be a 1 x 3 matrix, got 3 x 1$"):
        read_partition("3 1\n1\n1\n2\n")
    with pytest.raises(ValueError, match="^partition must be a 1 x 3 matrix, got 1 x 2$"):
        read_partition("1 2\n1 2\n")
    with pytest.raises(ValueError, match="^partition must be a 1 x 3 matrix, got 0 x 0$"):
        read_partition("0 0\n")
    for values in ("0 1 2", "-1 1 2", "1 2 4", "1 1.5 2", "1 nan 2", "1 inf 2", "1 2 1e300"):
        with pytest.raises(ValueError, match=r"^partition values must be integers in 1\.\.3$"):
            read_partition(f"1 3\n{values}\n")
    with pytest.raises(ValueError, match="^group 2 is empty$"):
        read_partition("1 3\n1 1 3\n")
    with pytest.raises(ValueError, match="^matrix file needs a 'rows cols' header$"):
        read_partition("")
    # integral values in any spelling float() reads are groups
    assert read_partition("1 3\n2 1.0 2e0\n").assignment.tolist() == [2, 1, 2]
    # an old two-instance file whose pairs read as one row names the same
    # groups: instance 1 in group 2, instance 2 in group 1
    two = FeatureMatrix(np.zeros((2, 2)))
    assert read_partition("1 2\n2 1\n", two).assignment.tolist() == [2, 1]
    with pytest.raises(ValueError, match="^expected 1 values, found 2$"):
        read_partition("1 1\n2 2\n", two)


def test_documented_partition_example_parses():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    # the fenced block under the File formats entry for partitions
    example = text.split("**Partition**", 1)[1].split("```\n", 2)[1]
    part = load_partition(io.StringIO(example), FeatureMatrix(np.zeros((1, 5))))
    assert part.g == 2 and part.assignment.tolist() == [1, 2, 1, 2, 1]
    # and the example is exactly what save_partition writes under the stamp
    stamp = example.splitlines()[0][2:]
    buf = io.StringIO()
    save_partition(part, buf, comments=[stamp])
    assert buf.getvalue() == example


def _draws(rng, d):
    # rows a thousandfold apart in scale, so rounding differs row to row
    for n in (1, 2, 3, 5, 8):
        yield rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, (n, 1))


# (d, rows per distance buffer): d = 1 and buffers of 1 to 3 rows put a
# chunk boundary inside every draw of _draws
_BLOCKS = list(itertools.product((1, 7, 64), (1, 2, 3)))


def test_chunked_distances_match_one_einsum_bitwise(monkeypatch):
    # g = 1 is also the k-means++ seeding's call: every point to one
    # chosen point
    import glocal.clustering as clustering

    rng = np.random.default_rng(0)
    for (d, rows_per_block), g in itertools.product(_BLOCKS, (1, 2, 64)):
        monkeypatch.setattr(clustering, "BLOCK_BYTES", 8 * d * rows_per_block)
        centers = rng.standard_normal((g, d))
        for points in _draws(rng, d):
            diff = points[:, None, :] - centers[None, :, :]
            want = np.einsum("ngd,ngd->ng", diff, diff)
            got = clustering._sq_dists(points, centers)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def reference_kmeans(points, g, seed, max_iter=100):
    """kmeans as its docstring describes it, in plain numpy: the same
    rng calls, every distance from one whole n x g x d einsum, and a
    reseed that computes the own-center distances afresh after each
    move.  Returns the 1-based assignment and the number of reseeds."""
    n = len(points)

    def sq_dists(centers):
        diff = points[:, None, :] - centers[None, :, :]
        return np.einsum("ngd,ngd->ng", diff, diff)

    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(n))]
    d2 = sq_dists(points[chosen])[:, 0]
    while len(chosen) < g:
        total = d2.sum()
        if total > 0.0:
            chosen.append(int(rng.choice(n, p=d2 / total)))
        else:
            chosen.append(int(rng.choice(np.setdiff1d(np.arange(n), chosen))))
        d2 = np.minimum(d2, sq_dists(points[chosen[-1:]])[:, 0])
    centers = points[chosen].copy()
    assign, reseeds = None, 0
    for _ in range(max_iter):
        new = np.argmin(sq_dists(centers), axis=1)
        for m in range(g):
            counts = np.bincount(new, minlength=g)
            if counts[m] > 0:
                continue
            own = sq_dists(centers)[np.arange(n), new]
            donors = np.flatnonzero(counts[new] >= 2)
            far = donors[np.argmax(own[donors])]
            new[far] = m
            centers[m] = points[far]
            reseeds += 1
        if assign is not None and np.array_equal(new, assign):
            break
        assign = new
        for m in range(g):
            centers[m] = points[assign == m].mean(axis=0)
    return assign + 1, reseeds


def test_kmeans_matches_a_plain_reference(monkeypatch):
    # rounded draws make distance ties and duplicate-heavy ones make
    # empty groups; buffers of 1 to 3 rows put chunk boundaries inside
    # the draws
    import glocal.clustering as clustering

    rng = np.random.default_rng(11)
    reseeded = 0
    for draw in range(600):
        n, d = int(rng.integers(1, 16)), int(rng.integers(1, 4))
        points = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4)
        if draw % 3 == 0:
            points = np.round(points)
        if draw % 7 == 0:
            points[: n // 2] = points[rng.integers(0, n, n // 2)]
        g, seed = int(rng.integers(1, n + 1)), int(rng.integers(1000))
        rows_per_block = (1, 2, 3, n)[draw % 4]
        monkeypatch.setattr(clustering, "BLOCK_BYTES", 8 * d * rows_per_block)
        want, reseeds = reference_kmeans(points, g, seed)
        got = kmeans(FeatureMatrix(points.T), g, seed=seed).assignment
        assert np.array_equal(got, want), f"draw {draw}"
        reseeded += reseeds > 0
    assert reseeded >= 50
