"""Instance clustering into local groups.

Groups are produced by seeded k-means (k-means++ initialization, Lloyd
iterations, Euclidean distance) or read from a partition file.  Group
indices are 1-based to match the file format; instance indices are
0-based in memory.
"""

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .data import check_integer, check_integers
from .textio import comment_lines, lines, write_lines


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of every instance to one of g nonempty groups; sizes
    is counted from the assignment."""

    g: int
    assignment: np.ndarray  # length n, values in 1..g
    sizes: np.ndarray = field(init=False)  # length g, all >= 1

    def __post_init__(self):
        given = check_integers("assignment values", self.assignment)
        assign = np.array(given, dtype=np.int64, copy=True)
        assign.setflags(write=False)
        object.__setattr__(self, "assignment", assign)
        if check_integer("g", self.g) < 1:
            raise ValueError("need at least one group")
        if assign.min(initial=1) < 1 or assign.max(initial=1) > self.g:
            raise ValueError("assignment values must lie in 1..g")
        # n instances leave one of groups 1..n+1 empty, so the groups past
        # n+1 share its count, and no count array outgrows the assignment
        # whatever g is
        n = assign.size
        top = min(self.g, n + 1)
        sizes = np.bincount(np.minimum(assign, top), minlength=top + 1)[1:].astype(np.int64)
        if (sizes < 1).any():
            empty = int(np.flatnonzero(sizes < 1)[0]) + 1
            raise ValueError(f"group {empty} is empty")
        sizes.setflags(write=False)
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self):
        return self.assignment.shape[0]

    def groups(self):
        """List of 0-based instance index arrays, one per group 1..g."""
        return [np.flatnonzero(self.assignment == m + 1) for m in range(self.g)]


# bytes of the (instances x d) difference buffer every distance in
# kmeans goes through
BLOCK_BYTES = 8 << 20


def _sq_dists(points, centers):
    # n x g matrix of squared euclidean distances, one center at a time
    # over row chunks of one n x d difference buffer of at most
    # BLOCK_BYTES (at least one row), whatever g is; each entry is
    # the same einsum reduction over a contiguous d as the whole
    # n x g x d block's, so results are bitwise unchanged
    n, d = points.shape
    chunk = max(1, min(n, BLOCK_BYTES // (8 * max(d, 1))))
    buf = np.empty((chunk, d))
    out = np.empty((n, centers.shape[0]))
    for start in range(0, n, chunk):
        rows = slice(start, min(start + chunk, n))
        diff = buf[: rows.stop - start]
        for m, center in enumerate(centers):
            np.subtract(points[rows], center, out=diff)
            np.einsum("nd,nd->n", diff, diff, out=out[rows, m])
    return out


def _plusplus_init(points, g, rng):
    # classic k-means++ D^2 seeding; falls back to uniform over the
    # not-yet-chosen points when all remaining distances are zero
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists(points, points[chosen])[:, 0]
    while len(chosen) < g:
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(n), chosen)
            idx = int(rng.choice(remaining))
        chosen.append(idx)
        np.minimum(d2, _sq_dists(points, points[[idx]])[:, 0], out=d2)
    return points[chosen].copy()


def kmeans(features, g, seed, max_iter=100):
    """Cluster instances into g groups with seeded k-means.

    k-means++ initialization, then Lloyd iterations until the
    assignment stops changing or max_iter is reached.  Distance ties go
    to the lowest group index.  A group left empty by an assignment
    step is reseeded with the point farthest from its own centroid
    (taken from a group that keeps at least 2 members); those distances
    are read from the assignment step's.  Every distance, in seeding
    and assignment, goes through one n x d buffer of at most
    BLOCK_BYTES, one center at a time, so what kmeans holds
    besides the features is an instance-major copy of them, the n x g
    distance matrix and, whatever g is, either that buffer or, while a
    centroid is updated, a copy of its group's rows.

    Args:
        features: FeatureMatrix of the instances to cluster.
        g: number of groups, an integer, 1 <= g <= n.
        seed: RNG seed, an integer >= 0; results are deterministic given
            (features, g, seed).
        max_iter: cap on Lloyd iterations, an integer, at least 1.

    Returns:
        Partition with 1-based group labels.
    """
    n = features.n
    check_integer("g", g, 1, n)
    check_integer("seed", seed, 0)
    check_integer("max_iter", max_iter, 1)
    points = features.values.T.copy()  # n x d
    rng = np.random.default_rng(seed)
    centers = _plusplus_init(points, g, rng)

    assign = np.full(n, -1, dtype=np.int64)  # 0-based during iteration
    for _ in range(max_iter):
        dists = _sq_dists(points, centers)
        new_assign = np.argmin(dists, axis=1)
        # reseed empty groups before declaring a fixpoint
        counts = np.bincount(new_assign, minlength=g)
        # a moved point is the one member of its new group, so it is no
        # donor again and its stale entry here is never read
        dist_own = dists[np.arange(n), new_assign]
        for m in np.flatnonzero(counts == 0):
            donors = np.flatnonzero(counts[new_assign] >= 2)
            far = donors[np.argmax(dist_own[donors])]
            counts[new_assign[far]] -= 1
            new_assign[far] = m
            counts[m] = 1
            centers[m] = points[far]
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for m in range(g):
            centers[m] = points[assign == m].mean(axis=0)

    return Partition(g, assign + 1)


def save_partition(partition, path, comments=()):
    """Write 'instance_idx group_idx' lines, 1-based, one per instance.

    Args:
        partition: Partition to write.
        path: path, or text file object written where it stands.
        comments: optional strings emitted as leading '#' lines.
    """
    head = comment_lines(comments)
    pairs = enumerate(partition.assignment.tolist(), start=1)
    write_lines(path, chain(head, (f"{i} {m}" for i, m in pairs)))


def load_partition(path, features):
    """Read a partition file and validate it against the instance count.

    Every instance 1..n must appear exactly once and every group up to
    the largest index must be nonempty, so no group index exceeds n.
    The file is read a line at a time.

    Args:
        path: path, or text file object read from where it stands.
        features: FeatureMatrix of the instances partitioned.
    """
    n = features.n
    assign = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for line_no, raw in enumerate(lines(path), start=1):
        if raw.startswith("#") or raw.strip() == "":
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ValueError(f"line {line_no}: expected 'instance_idx group_idx'")
        try:
            inst, grp = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {line_no}: expected two integers") from None
        if not 1 <= inst <= n:
            raise ValueError(f"line {line_no}: instance {inst} out of range 1..{n}")
        if seen[inst - 1]:
            raise ValueError(f"line {line_no}: instance {inst} assigned twice")
        if grp < 1:
            raise ValueError(f"line {line_no}: group indices are 1-based")
        if grp > n:  # some group would be empty; also bounds the arrays built
            raise ValueError(f"line {line_no}: group {grp} exceeds the instance count {n}")
        seen[inst - 1] = True
        assign[inst - 1] = grp
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0]) + 1
        raise ValueError(f"partition does not cover instance {missing}")
    return Partition(int(assign.max(initial=0)), assign)
