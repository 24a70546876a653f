"""Independent verification on the polytope itself, via exact LPs.

Three checks, each reduced to small exact linear programs:

  * is_face: a signed vertex subset S is the vertex set of a face iff some
    functional c attains 1 on S and at most 1 - t (t > 0) on every other
    vertex; the LP maximizes that margin t.

  * is_dominant: a subset I of the cs-transform points is dominant iff some
    sign pattern puts the corresponding weight-|I| vertex w of the signed
    cube section on or outside the boundary of the projected cube.  The
    membership LP maximizes t subject to w + X y lying in the cube shrunk to
    half-width 1/2 - t; on-or-outside means optimal t <= 0.

  * projection_containment: the same membership margin, swept over every
    vertex of the weight-k section; containment holds iff the minimum margin
    is >= 0 (strict if > 0).

Sweeps enumerate deterministically and run through sweep.ordered_map,
serially or on worker processes, and aggregate results in task order, so
reports do not depend on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .blocks import block_rows, total_row_count, unrank_support
from .construction import Construction
from .sampling import SplitMix64
from .simplex import LinearProgram, lp_max
from .sweep import ordered_map

HALF = Fraction(1, 2)


# -- face checks ---------------------------------------------------------------


@dataclass(frozen=True)
class FaceReport:
    """Outcome of one face check, self-verified by exact re-substitution."""

    subset: tuple                  # ((vertex index, sign), ...) sorted
    status: str                    # "face" | "not-face" | "antipodal-rejected"
    witness: tuple | None          # functional c with <c, x> = 1 on the subset
    margin: Fraction | None        # optimal t; face iff t > 0


def is_face(con: Construction, subset) -> FaceReport:
    """Decide whether the signed subset is the vertex set of a face.

    Subset members are (index, sign) pairs over the m vertex representatives;
    a subset containing an antipodal pair is rejected without solving.
    """
    members = tuple(sorted(set((int(i), int(s)) for i, s in subset)))
    if not members:
        raise ValueError("subset must be non-empty")
    if len(members) > con.d:
        raise ValueError(f"subset size {len(members)} exceeds d = {con.d}")
    for i, s in members:
        if not 0 <= i < con.m or s not in (1, -1):
            raise ValueError(f"bad subset member ({i}, {s})")
    indices = [i for i, _ in members]
    if len(set(indices)) < len(indices):
        return FaceReport(members, "antipodal-rejected", None, None)

    d = con.d
    member_set = set(members)
    eq = []
    for i, s in members:
        eq.append((con.vertex_representative(i, s) + (Fraction(0),), Fraction(1)))
    le = []
    for key, coords in con.signed_vertices():
        if key in member_set:
            continue
        le.append((coords + (Fraction(1),), Fraction(1)))
    le.append(((Fraction(0),) * d + (Fraction(1),), Fraction(1)))

    objective = (Fraction(0),) * d + (Fraction(1),)
    result = lp_max(LinearProgram.maximize(objective, eq=eq, le=le))
    if result.status == "infeasible":
        return FaceReport(members, "not-face", None, None)
    if result.status != "optimal":
        raise RuntimeError("face LP cannot be unbounded")
    witness = result.x[:d]
    margin = result.x[d]
    _recheck_face(con, member_set, witness, margin)
    status = "face" if margin > 0 else "not-face"
    return FaceReport(members, status, witness, margin)


def _recheck_face(con, member_set, witness, margin) -> None:
    """Exact re-substitution of the face witness over all 2m vertices."""
    for key, coords in con.signed_vertices():
        value = sum((c * v for c, v in zip(witness, coords)), Fraction(0))
        if key in member_set:
            if value != 1:
                raise RuntimeError("face witness misses a subset vertex")
        elif value > 1 - margin:
            raise RuntimeError("face witness violated by a non-subset vertex")


def canonical_subsets(m: int, k: int):
    """Antipode-free k-subsets, one per antipodal pair of subsets.

    Index combinations ascend lexicographically; sign patterns run through a
    binary counter with +1 before -1 and the first sign pinned to +1, which
    selects the lexicographically smaller of S and -S.
    """
    half_patterns = 1 << (k - 1)
    for idxs in combinations(range(m), k):
        for bits in range(half_patterns):
            signs = (1,) + tuple(
                -1 if (bits >> (k - 2 - p)) & 1 else 1 for p in range(k - 1)
            )
            yield tuple(zip(idxs, signs))


def _unrank_canonical_subset(m: int, k: int, comb_rank: int, bits: int):
    idxs = unrank_support(m, k, comb_rank)
    signs = (1,) + tuple(
        -1 if (bits >> (k - 2 - p)) & 1 else 1 for p in range(k - 1)
    )
    return tuple(zip(idxs, signs))


@dataclass(frozen=True)
class NeighborlinessReport:
    d: int
    k: int
    mode: str
    enumerated: int                # LPs actually solved (canonical subsets)
    checked: int                   # logical subsets covered (x2 by symmetry)
    passed: int
    failed: int
    min_margin: Fraction | None
    failures: tuple                # first few (subset, status, margin)
    seed: int | None = None

    @property
    def all_faces(self) -> bool:
        return self.failed == 0


def verify_k_neighborly(
    con: Construction,
    k: int | None = None,
    mode: str = "exhaustive",
    cap: int = 1_000_000,
    samples: int = 1_000,
    seed: int = 0,
    jobs: int = 1,
) -> NeighborlinessReport:
    """Sweep antipode-free k-subsets and check that each one is a face.

    Exhaustive mode enumerates one canonical representative per antipodal
    subset pair (global sign flip does not change face status, so reported
    logical counts are doubled); sample mode draws `samples` canonical
    subsets deterministically from the seed.
    """
    k = con.k if k is None else k
    if k < 1 or k > con.d:
        raise ValueError(f"subset size k={k} must be in 1..{con.d}")
    m = con.m
    logical_total = (1 << k) * comb(m, k)
    if mode == "exhaustive":
        if logical_total > cap:
            raise ValueError(
                f"{logical_total} subsets exceed the exhaustive cap {cap}; "
                "use sample mode"
            )
        tasks = list(canonical_subsets(m, k))
        used_seed = None
    elif mode == "sample":
        gen = SplitMix64((seed << 20) ^ (m << 8) ^ k)
        tasks = [
            _unrank_canonical_subset(
                m, k, gen.below(comb(m, k)), gen.below(1 << (k - 1))
            )
            for _ in range(samples)
        ]
        used_seed = seed
    else:
        raise ValueError(f"unknown mode {mode!r}")

    reports = list(ordered_map(is_face, con, tasks, jobs))

    passed = sum(1 for r in reports if r.status == "face")
    failures = tuple(
        (r.subset, r.status, r.margin)
        for r in reports
        if r.status != "face"
    )[:20]
    margins = [r.margin for r in reports if r.margin is not None]
    return NeighborlinessReport(
        d=con.d,
        k=k,
        mode=mode,
        enumerated=len(tasks),
        checked=2 * len(tasks),
        passed=2 * passed,
        failed=2 * (len(tasks) - passed),
        min_margin=min(margins) if margins else None,
        failures=failures,
        seed=used_seed,
    )


# -- membership margins (dominance and containment) ------------------------------


def membership_margin(con: Construction, point) -> tuple:
    """Margin of proj(point) inside the projected cube, with the cube witness.

    Maximizes t subject to point + X y lying in the cube of half-width
    1/2 - t; t > 0 means strictly inside, t = 0 on the boundary, t < 0
    outside.  Returns (t, y).
    """
    d, m = con.d, con.m
    if len(point) != m:
        raise ValueError(f"point must have length {m}")
    le = []
    for i in range(m):
        xrow = con.X[i]
        w_i = Fraction(point[i])
        le.append((xrow + (Fraction(1),), HALF - w_i))
        le.append((tuple(-v for v in xrow) + (Fraction(1),), HALF + w_i))
    objective = (Fraction(0),) * d + (Fraction(1),)
    result = lp_max(LinearProgram.maximize(objective, le=le))
    if result.status != "optimal":
        raise RuntimeError("membership LP must have a finite optimum")
    return result.objective, result.x[:d]


@dataclass(frozen=True)
class DominanceReport:
    indices: tuple
    pattern_margins: tuple         # ((signs, margin), ...) in binary order
    min_margin: Fraction
    dominant: bool                 # some pattern has margin <= 0


def is_dominant(con: Construction, indices) -> DominanceReport:
    """Check one index subset of the cs-transform points for dominance."""
    indices = tuple(sorted(set(int(i) for i in indices)))
    if not indices:
        raise ValueError("index subset must be non-empty")
    if any(not 0 <= i < con.m for i in indices):
        raise ValueError(f"indices must lie in 0..{con.m - 1}")
    size = len(indices)
    pattern_margins = []
    best = None
    for bits in range(1 << size):
        signs = tuple(
            -1 if (bits >> (size - 1 - p)) & 1 else 1 for p in range(size)
        )
        point = [0] * con.m
        for i, s in zip(indices, signs):
            point[i] = s
        margin, _ = membership_margin(con, point)
        pattern_margins.append((signs, margin))
        if best is None or margin < best:
            best = margin
    return DominanceReport(
        indices=indices,
        pattern_margins=tuple(pattern_margins),
        min_margin=best,
        dominant=best <= 0,
    )


@dataclass(frozen=True)
class DominanceSweepReport:
    d: int
    k: int
    mode: str
    subsets_checked: int
    patterns_checked: int
    dominant_found: int
    min_margin: Fraction
    first_dominant: tuple | None   # (indices, signs, margin)
    seed: int | None = None


def dominant_subset_sweep(
    con: Construction,
    k: int | None = None,
    mode: str = "exhaustive",
    cap: int = 1_000_000,
    samples: int = 1_000,
    seed: int = 0,
    jobs: int = 1,
) -> DominanceSweepReport:
    """Sweep size-k index subsets for dominance (no dominant subsets of size
    k means the construction is k-neighborly)."""
    k = con.k if k is None else k
    m = con.m
    if k < 1 or k > m:
        raise ValueError(f"subset size k={k} must be in 1..{m}")
    n_patterns = (1 << k) * comb(m, k)
    if mode == "exhaustive":
        if n_patterns > cap:
            raise ValueError(
                f"{n_patterns} sign patterns exceed the cap {cap}; "
                "use sample mode"
            )
        subsets = list(combinations(range(m), k))
        used_seed = None
    elif mode == "sample":
        gen = SplitMix64((seed << 20) ^ (m << 8) ^ k ^ 0x515)
        subsets = [
            unrank_support(m, k, gen.below(comb(m, k))) for _ in range(samples)
        ]
        used_seed = seed
    else:
        raise ValueError(f"unknown mode {mode!r}")

    reports = list(ordered_map(is_dominant, con, subsets, jobs))

    dominant_found = 0
    first = None
    best = None
    patterns = 0
    for rep in reports:
        patterns += len(rep.pattern_margins)
        if best is None or rep.min_margin < best:
            best = rep.min_margin
        if rep.dominant:
            dominant_found += 1
            if first is None:
                signs, margin = min(
                    rep.pattern_margins, key=lambda sm: (sm[1], sm[0])
                )
                first = (rep.indices, signs, margin)
    return DominanceSweepReport(
        d=con.d,
        k=k,
        mode=mode,
        subsets_checked=len(subsets),
        patterns_checked=patterns,
        dominant_found=dominant_found,
        min_margin=best,
        first_dominant=first,
        seed=used_seed,
    )


@dataclass(frozen=True)
class ContainmentReport:
    d: int
    k: int
    mode: str
    vertices_checked: int
    min_margin: Fraction
    min_at: tuple                  # (block l, row index)
    seed: int | None = None

    @property
    def contained(self) -> bool:
        return self.min_margin >= 0

    @property
    def strictly_contained(self) -> bool:
        return self.min_margin > 0


def projection_containment(
    con: Construction,
    k: int | None = None,
    mode: str = "exhaustive",
    cap: int = 1_000_000,
    samples: int = 1_000,
    seed: int = 0,
    jobs: int = 1,
) -> ContainmentReport:
    """Minimum membership margin over the vertices of the weight-k section.

    Containment of the projected section in the projected cube holds iff the
    minimum margin is >= 0.  Sample mode draws `samples` rows from each
    block with the deterministic per-block generator.
    """
    k = con.k if k is None else k
    d = con.d
    if k < 1 or k > con.m:
        raise ValueError(f"weight k={k} must be in 1..{con.m}")
    total = total_row_count(d, k)
    tasks = []                     # ((l, row index), point)
    if mode == "exhaustive":
        if total > cap:
            raise ValueError(
                f"{total} vertices exceed the exhaustive cap {cap}; "
                "use sample mode"
            )
        for l in range(k + 1):
            for index, (left, right) in enumerate(block_rows(d, k, l)):
                tasks.append(((l, index), left.dense() + right.dense()))
        used_seed = None
    elif mode == "sample":
        for l in range(k + 1):
            for index, (left, right) in block_rows(d, k, l).sample(samples, seed):
                tasks.append(((l, index), left.dense() + right.dense()))
        used_seed = seed
    else:
        raise ValueError(f"unknown mode {mode!r}")

    margins = ordered_map(_vertex_margin, con, (pt for _, pt in tasks), jobs)

    best = None
    best_at = None
    for (tag, _), margin in zip(tasks, margins):
        if best is None or margin < best:
            best = margin
            best_at = tag
    return ContainmentReport(
        d=d,
        k=k,
        mode=mode,
        vertices_checked=len(tasks),
        min_margin=best,
        min_at=best_at,
        seed=used_seed,
    )


def _vertex_margin(con, point):
    return membership_margin(con, point)[0]
