"""Group assignment, randomized placement and constraint emission.

The M selected oscillators are split into a lower and an upper comparison
group.  A randomness ratio controls how many of them are assigned by sorted
order (alternating ranks between the groups) versus uniformly at random.
Physical placement is then randomized within each group and written out as a
vendor-neutral constraint file.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chipmodel import CLASS_NAMES, DataError, FabricLayout, read_text


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
    """The M selected oscillators split into disjoint lower and upper halves.

    ``refs`` (site references) and ``freqs`` (MHz) hold the lower group in
    their first half and the upper group in the second, each half sorted by
    frequency.
    """

    kappa: float
    refs: np.ndarray
    freqs: np.ndarray
    ordered_count: int
    random_count: int

    def __post_init__(self) -> None:
        if self.refs.size % 2:
            raise ValueError("groups must be balanced")
        lower, upper = np.split(self.refs, 2)
        lower = np.sort(lower)
        shared = upper[np.searchsorted(lower, upper, "right") > np.searchsorted(lower, upper)]
        if shared.size:
            raise ValueError(f"groups share sites {sorted(set(shared.tolist()))}")

    @property
    def m(self) -> int:
        return self.refs.size


def assign_groups(
    refs: Sequence[int] | np.ndarray,
    freqs: Sequence[float] | np.ndarray,
    kappa: float,
    rng: np.random.Generator | int | None = None,
) -> GroupAssignment:
    """Split M selections, given as parallel site-reference and frequency
    arrays, into two balanced groups.

    The (1-kappa)*M lowest frequencies alternate deterministically between
    the groups (even sorted rank -> lower, odd -> upper); the remaining
    kappa*M are shuffled and split to bring both groups to M/2.  Equal
    frequencies rank by site reference.
    """
    refs = np.asarray(refs, dtype=np.intp)
    freqs = np.asarray(freqs, dtype=float)
    m = refs.size
    ordered_count, random_count = _kappa_counts(m, kappa)
    # groups as sorted ranks: sorting a group's ranks sorts it by frequency
    lower = np.arange(0, ordered_count, 2)
    upper = np.arange(1, ordered_count, 2)
    if random_count:
        rng = np.random.default_rng(rng)
        tail = ordered_count + rng.permutation(random_count)
        need_lower = m // 2 - lower.size
        lower = np.concatenate([lower, tail[:need_lower]])
        upper = np.concatenate([upper, tail[need_lower:]])
    pick = np.lexsort((refs, freqs))[np.concatenate([np.sort(lower), np.sort(upper)])]
    return GroupAssignment(
        kappa=kappa,
        refs=refs[pick],
        freqs=freqs[pick],
        ordered_count=ordered_count,
        random_count=random_count,
    )


@dataclass(eq=False)
class PlacementPlan:
    """Logical oscillator indexing after in-group randomization.

    Logical indices 0..M/2-1 address the lower group, M/2..M-1 the upper
    group.  ``refs`` and ``freqs`` hold the site reference into ``layout``
    and the frequency of each logical index.
    """

    assignment: GroupAssignment
    refs: np.ndarray
    freqs: np.ndarray
    layout: FabricLayout
    placement_seed: int

    def __post_init__(self) -> None:
        if not np.array_equal(np.sort(self.refs), np.sort(self.assignment.refs)):
            raise ValueError("placement must be a bijection onto the selected sites")

    @property
    def m(self) -> int:
        return self.assignment.m

    @property
    def group_size(self) -> int:
        return self.m // 2


def randomize_placement(
    assignment: GroupAssignment,
    layout: FabricLayout,
    placement_seed: int,
) -> PlacementPlan:
    """Permute each group's logical index -> site mapping uniformly at
    random; the sites are ``layout``'s and none may be excluded."""
    rng = np.random.default_rng(placement_seed)
    half = assignment.m // 2
    order = np.concatenate([rng.permutation(half), half + rng.permutation(half)])
    refs = assignment.refs[order]
    excluded = refs[layout.excluded[refs]]
    if excluded.size:
        raise ValueError(f"excluded site {layout.key(excluded[0])} cannot carry an oscillator")
    return PlacementPlan(
        assignment=assignment,
        refs=refs,
        freqs=assignment.freqs[order],
        layout=layout,
        placement_seed=placement_seed,
    )


def emit_constraints(plan: PlacementPlan, path: str) -> None:
    """Write the placement as a deterministic line-oriented constraint file.

    One line per oscillator in logical order; byte-identical across runs for
    identical plans.
    """
    lines = [
        "# ropuf placement constraints",
        f"# placement_seed={plan.placement_seed} m={plan.m} kappa={plan.assignment.kappa}",
    ]
    layout, refs = plan.layout, plan.refs
    # two slice columns per CLB column, the left one holding TL and BL
    xs = (2 * layout.clb_x[refs] + layout.corner[refs] % 2).tolist()
    ys, codes = layout.clb_y[refs].tolist(), layout.class_codes[refs].tolist()
    for logical, (x, y, code) in enumerate(zip(xs, ys, codes)):
        group = "LG" if logical < plan.group_size else "UG"
        lines.append(f"set_loc RO{logical} SLICE_X{x}Y{y} CLASS={CLASS_NAMES[code]} GROUP={group}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# A constraint line's location; nine digits bound the coordinates far above
# any fabric and keep int() within its digit limit.
_LOCATION = re.compile(r"SLICE_X([0-9]{1,9})Y([0-9]{1,9})")


def parse_constraints(path: str) -> tuple[FabricLayout, np.ndarray]:
    """Read a constraint file back as its sites, a ``FabricLayout`` in
    logical order with the file's classes, and each site's group (``LG`` or
    ``UG``).

    Constraint line i must name ``RO<i>`` and a site no earlier line names.
    Every malformed line, one that is not UTF-8 text included, raises
    ``DataError`` naming the file and line.
    """
    sites: list[tuple[int, int, int, int]] = []  # clb_x, clb_y, corner, class
    placed: dict[tuple[int, int, int], int] = {}  # site -> its line
    groups: list[str] = []
    with io.StringIO(read_text(path), newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 5 or parts[0] != "set_loc":
                raise DataError(f"{path}:{lineno}: malformed constraint line")
            loc = _LOCATION.fullmatch(parts[2])
            if loc is None:
                raise DataError(f"{path}:{lineno}: malformed location {parts[2]!r}")
            key, _, cls = parts[3].partition("=")
            if key != "CLASS" or cls not in CLASS_NAMES:
                raise DataError(
                    f"{path}:{lineno}: expected CLASS=L12, L3 or M, got {parts[3]!r}"
                )
            key, _, group = parts[4].partition("=")
            if key != "GROUP" or group not in ("LG", "UG"):
                raise DataError(f"{path}:{lineno}: expected GROUP=LG or UG, got {parts[4]!r}")
            if parts[1] != f"RO{len(sites)}":
                raise DataError(f"{path}:{lineno}: expected RO{len(sites)}, got {parts[1]!r}")
            # the class gives the corner's row (L12 slices are the top
            # ones) and the slice column's parity its side
            clb_x, lr = divmod(int(loc[1]), 2)
            site = (clb_x, int(loc[2]), lr + (0 if cls == "L12" else 2))
            if site in placed:
                raise DataError(f"{path}:{lineno}: {parts[1]} repeats the site of line "
                                f"{placed[site]}")
            placed[site] = lineno
            sites.append((*site, CLASS_NAMES.index(cls)))
            groups.append(group)
    x, y, corner, codes = np.array(sites, dtype=np.int64).reshape(-1, 4).T
    return FabricLayout(x, y, corner, codes), np.array(groups, dtype="<U2")
