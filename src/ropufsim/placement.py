"""Group assignment, randomized placement and constraint emission.

The M selected oscillators are split into a lower and an upper comparison
group.  A randomness ratio controls how many of them are assigned by sorted
order (alternating ranks between the groups) versus uniformly at random.
Physical placement is then randomized within each group and written out as a
vendor-neutral constraint file.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chipmodel import DataError, FabricSite, SliceClass


def valid_kappas(m: int) -> list[float]:
    """Admissible randomness ratios for an M-oscillator design.

    With x = log2(M/2) the grid is {i / 2^(x-1) : i = 0..2^(x-1)}.
    """
    if m < 4 or m & (m - 1) != 0:
        raise ValueError(f"RO count must be a power of two >= 4, got {m}")
    x = int(math.log2(m // 2))
    denom = 2 ** (x - 1)
    return [i / denom for i in range(denom + 1)]


def _kappa_index(m: int, kappa: float) -> int:
    """Index of ``kappa`` in ``valid_kappas(m)``."""
    grid = valid_kappas(m)
    for i, k in enumerate(grid):
        if abs(k - kappa) < 1e-12:
            return i
    raise ValueError(f"randomness ratio {kappa} not on the admissible grid {grid}")


def _kappa_counts(m: int, kappa: float) -> tuple[int, int]:
    random_count = round(valid_kappas(m)[_kappa_index(m, kappa)] * m)
    return m - random_count, random_count


@dataclass(eq=False)
class GroupAssignment:
    """Disjoint lower/upper halves of the selected (site, frequency) pairs."""

    kappa: float
    lower: list[tuple[int, float]]
    upper: list[tuple[int, float]]
    ordered_count: int
    random_count: int

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ValueError("groups must be balanced")
        overlap = {r for r, _ in self.lower} & {r for r, _ in self.upper}
        if overlap:
            raise ValueError(f"groups share sites {sorted(overlap)}")

    @property
    def m(self) -> int:
        return len(self.lower) + len(self.upper)


def assign_groups(
    selected: Sequence[tuple[int, float]],
    kappa: float,
    rng: np.random.Generator | int | None = None,
) -> GroupAssignment:
    """Split M selections into two balanced groups.

    The (1-kappa)*M lowest frequencies alternate deterministically between
    the groups (even sorted rank -> lower, odd -> upper); the remaining
    kappa*M are shuffled and split to bring both groups to M/2.
    """
    m = len(selected)
    ordered_count, random_count = _kappa_counts(m, kappa)
    pairs = sorted(selected, key=lambda p: (p[1], p[0]))
    lower: list[tuple[int, float]] = []
    upper: list[tuple[int, float]] = []
    for rank in range(ordered_count):
        (lower if rank % 2 == 0 else upper).append(pairs[rank])
    if random_count:
        rng = np.random.default_rng(rng)
        tail = [pairs[ordered_count + int(i)] for i in rng.permutation(random_count)]
        need_lower = m // 2 - len(lower)
        lower.extend(tail[:need_lower])
        upper.extend(tail[need_lower:])
    lower.sort(key=lambda p: (p[1], p[0]))
    upper.sort(key=lambda p: (p[1], p[0]))
    return GroupAssignment(
        kappa=kappa,
        lower=lower,
        upper=upper,
        ordered_count=ordered_count,
        random_count=random_count,
    )


@dataclass(eq=False)
class PlacementPlan:
    """Logical oscillator indexing after in-group randomization.

    Logical indices 0..M/2-1 address the lower group, M/2..M-1 the upper
    group.  ``lower_order``/``upper_order`` hold (site_ref, frequency) in
    logical order; ``site_map`` the corresponding fabric sites.
    """

    assignment: GroupAssignment
    lower_order: list[tuple[int, float]]
    upper_order: list[tuple[int, float]]
    site_map: list[FabricSite]
    placement_seed: int

    def __post_init__(self) -> None:
        want = {r for r, _ in self.assignment.lower} | {r for r, _ in self.assignment.upper}
        got = {r for r, _ in self.lower_order} | {r for r, _ in self.upper_order}
        if want != got:
            raise ValueError("placement must be a bijection onto the selected sites")

    @property
    def m(self) -> int:
        return self.assignment.m

    @property
    def group_size(self) -> int:
        return self.m // 2


def randomize_placement(
    assignment: GroupAssignment,
    sites: Sequence[FabricSite],
    placement_seed: int,
) -> PlacementPlan:
    """Permute each group's logical index -> site mapping uniformly at random."""
    rng = np.random.default_rng(placement_seed)
    lower = [assignment.lower[int(i)] for i in rng.permutation(len(assignment.lower))]
    upper = [assignment.upper[int(i)] for i in rng.permutation(len(assignment.upper))]
    site_map = [sites[r] for r, _ in lower] + [sites[r] for r, _ in upper]
    for site in site_map:
        if site.excluded:
            raise ValueError(f"excluded site {site.key} cannot carry an oscillator")
    return PlacementPlan(
        assignment=assignment,
        lower_order=lower,
        upper_order=upper,
        site_map=site_map,
        placement_seed=placement_seed,
    )


def _slice_coords(site: FabricSite) -> tuple[int, int]:
    lr = 0 if site.corner in ("TL", "BL") else 1
    return 2 * site.clb_x + lr, site.clb_y


def emit_constraints(plan: PlacementPlan, path: str) -> None:
    """Write the placement as a deterministic line-oriented constraint file.

    One line per oscillator in logical order; byte-identical across runs for
    identical plans.
    """
    lines = [
        "# ropuf placement constraints",
        f"# placement_seed={plan.placement_seed} m={plan.m} kappa={plan.assignment.kappa}",
    ]
    half = plan.group_size
    for logical, site in enumerate(plan.site_map):
        x, y = _slice_coords(site)
        group = "LG" if logical < half else "UG"
        lines.append(
            f"set_loc RO{logical} SLICE_X{x}Y{y} CLASS={site.slice_class.value} GROUP={group}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# A constraint line's location; nine digits bound the coordinates far above
# any fabric and keep int() within its digit limit.
_LOCATION = re.compile(r"SLICE_X([0-9]{1,9})Y([0-9]{1,9})")


def parse_constraints(path: str) -> list[tuple[FabricSite, str]]:
    """Read a constraint file back as (site, group) in logical order.

    Every malformed line, one that is not UTF-8 text included, raises
    ``DataError`` naming the file and line.
    """
    out: list[tuple[FabricSite, str]] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise DataError(f"{path}:{lineno}: not UTF-8 text") from None
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 5 or parts[0] != "set_loc":
                raise DataError(f"{path}:{lineno}: malformed constraint line")
            loc = _LOCATION.fullmatch(parts[2])
            if loc is None:
                raise DataError(f"{path}:{lineno}: malformed location {parts[2]!r}")
            key, _, cls = parts[3].partition("=")
            if key != "CLASS" or cls not in SliceClass.__members__:
                raise DataError(
                    f"{path}:{lineno}: expected CLASS=L12, L3 or M, got {parts[3]!r}"
                )
            key, _, group = parts[4].partition("=")
            if key != "GROUP" or group not in ("LG", "UG"):
                raise DataError(f"{path}:{lineno}: expected GROUP=LG or UG, got {parts[4]!r}")
            # the class gives the corner's row (L12 slices are the top
            # ones) and the slice column's parity its side
            clb_x, lr = divmod(int(loc[1]), 2)
            corner = ("T" if cls == "L12" else "B") + ("L" if lr == 0 else "R")
            out.append((FabricSite(clb_x, int(loc[2]), corner, SliceClass[cls]), group))
    return out
