"""Response-quality metrics: Hamming distance, reliability, uniqueness and
per-bit minimum entropy over a device population.

Every input is coerced by ``nist``'s checked bit-matrix reader, so a value
other than 0 or 1 raises ``ValueError`` naming its sequence rather than being
wrapped or counted as a one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nist import _as_matrix, _as_row


def _rows(rows) -> np.ndarray:
    """Checked (rows, k) bit matrix.  A bit string, or a 1-D array or list of
    0/1 numbers, is one row; anything else is a sequence of rows."""
    one = isinstance(rows, str) or (
        len(rows) > 0 and not isinstance(rows[0], str) and np.ndim(rows[0]) == 0
    )
    return _as_matrix([rows] if one else rows)


def hamming(a, b) -> int:
    """Number of differing positions between two equal-length bit sequences."""
    av, bv = _rows(a), _rows(b)
    if av.shape != bv.shape:
        raise ValueError(f"length mismatch: {av.shape} vs {bv.shape}")
    return int(np.count_nonzero(av != bv))


def reliability(golden, responses) -> float:
    """1 - mean fractional flip rate of e responses against the golden one."""
    g = _as_row(golden)[0]
    mat = _rows(responses)
    e = mat.shape[0]
    if mat.shape[1] != g.size:
        raise ValueError(f"length mismatch: golden {g.size} vs responses {mat.shape[1]}")
    hd_intra = float(np.count_nonzero(mat != g[None, :], axis=1).sum()) / g.size
    return 1.0 - hd_intra / e


def uniqueness(responses) -> dict:
    """Mean pairwise fractional Hamming distance over q >= 2 devices."""
    mat = _rows(responses)
    q, k = mat.shape
    if q < 2:
        raise ValueError(f"need at least 2 devices, got {q}")
    iu, ju = np.triu_indices(q, k=1)
    pairwise = np.count_nonzero(mat[iu] != mat[ju], axis=1) / k
    return {"u": float(pairwise.mean()), "pairwise_hd": pairwise}


def min_entropy(responses) -> dict:
    """Per-bit lower-bound entropy -log2(max(p1, p0)) and its average."""
    mat = _rows(responses)
    q = mat.shape[0]
    p1 = mat.sum(axis=0) / q
    p_max = np.maximum(p1, 1.0 - p1)
    per_bit = -np.log2(p_max)
    return {"per_bit": per_bit, "h_avg": float(per_bit.mean())}


@dataclass(eq=False)
class EvalReport:
    """Population evaluation summary for one run."""

    reliability_per_device: dict[str, float]
    r_min: float
    r_max: float
    r_avg: float
    u: float
    hd_inter: list[float]
    min_entropy_avg: float
    per_bit_entropy: list[float] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "reliability": {
                "per_device": {k: float(v) for k, v in self.reliability_per_device.items()},
                "r_min": float(self.r_min),
                "r_max": float(self.r_max),
                "r_avg": float(self.r_avg),
            },
            "uniqueness": {
                "u": float(self.u),
                "pairwise_hd": [float(x) for x in self.hd_inter],
            },
            "min_entropy": {
                "h_avg": float(self.min_entropy_avg),
                "per_bit": [float(x) for x in self.per_bit_entropy],
            },
        }


def evaluate_population(golden_rows, sweep_rows_per_device, device_ids) -> EvalReport:
    """Assemble the full report from golden responses and per-device sweeps.

    ``sweep_rows_per_device`` maps device index -> (e, k) bit matrix of
    responses under the swept conditions.  Reliability uses each device's
    golden row as the flip baseline; uniqueness and entropy use the golden
    rows across devices.
    """
    golden = _rows(golden_rows)
    rels: dict[str, float] = {}
    for i, dev in enumerate(device_ids):
        sweeps = sweep_rows_per_device[i]
        rels[dev] = reliability(golden[i], sweeps) if len(sweeps) else 1.0
    uniq = uniqueness(golden) if golden.shape[0] >= 2 else {"u": 0.0, "pairwise_hd": np.array([])}
    ent = min_entropy(golden)
    values = np.array(list(rels.values()))
    return EvalReport(
        reliability_per_device=rels,
        r_min=float(values.min()),
        r_max=float(values.max()),
        r_avg=float(values.mean()),
        u=uniq["u"],
        hd_inter=list(map(float, uniq["pairwise_hd"])),
        min_entropy_avg=ent["h_avg"],
        per_bit_entropy=list(map(float, ent["per_bit"])),
    )
