"""Rank statistics, score normalization, utility scalarization, cost accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from collections.abc import Sequence

import numpy as np

from .errors import DimensionError, MergeMixError, UndefinedCorrelationError


# ---------------------------------------------------------------------------
# Spearman rank correlation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationReport:
    rho: float
    n: int
    x_ranks: tuple[float, ...]
    y_ranks: tuple[float, ...]
    tie_note: str

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "n": self.n,
            "x_ranks": list(self.x_ranks),
            "y_ranks": list(self.y_ranks),
            "tie_note": self.tie_note,
        }


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; equal values share the average of their rank run."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.shape[0], dtype=np.float64)
    i = 0
    while i < arr.shape[0]:
        j = i
        while j + 1 < arr.shape[0] and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> CorrelationReport:
    """Spearman rho as the Pearson correlation of average ranks."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DimensionError(f"mismatched inputs: {xs.shape} vs {ys.shape}")
    n = xs.shape[0]
    if n < 2:
        raise DimensionError("need at least 2 paired samples")
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise UndefinedCorrelationError("zero rank variance: correlation undefined")
    rho = float(dx @ dy) / float(np.sqrt(vx * vy))
    has_ties = len(set(rx.tolist())) < n or len(set(ry.tolist())) < n
    note = "average ranks assigned to ties" if has_ties else "no ties"
    return CorrelationReport(rho, n, tuple(rx.tolist()), tuple(ry.tolist()), note)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormContext:
    """Min-max normalization bounds over a declared reference sample set."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise DimensionError(f"context min {self.lo} exceeds max {self.hi}")

    @classmethod
    def from_samples(cls, values: Sequence[float]) -> "NormContext":
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            raise DimensionError("cannot build a context from zero samples")
        return cls(float(arr.min()), float(arr.max()))

    @property
    def degenerate(self) -> bool:
        # A span at rounding-noise level carries no signal; normalizing it
        # would amplify last-bit differences to order one.
        span = self.hi - self.lo
        return span <= 1e-12 * max(1.0, abs(self.lo), abs(self.hi))

    def apply(self, x: float) -> float:
        """Map to [0, 1], clamped; a degenerate context maps everything to 0.5."""
        if self.degenerate:
            return 0.5
        return min(1.0, max(0.0, (float(x) - self.lo) / (self.hi - self.lo)))


def normalize(raw, contexts: Sequence[NormContext]) -> np.ndarray:
    """Normalize the last axis of a (..., M) array, entry m in contexts[m].

    Every entry is bit-identical to `contexts[m].apply`: the clamps are
    Python's `max(0.0, x)` and `min(1.0, x)`, so -0.0 and NaN become 0.0
    where `np.clip` would keep them.
    """
    x = np.asarray(raw, dtype=np.float64)
    if x.shape[-1:] != (len(contexts),):
        raise DimensionError(f"{len(contexts)} contexts for scores of shape {x.shape}")
    lo = np.array([c.lo for c in contexts], dtype=np.float64)
    hi = np.array([c.hi for c in contexts], dtype=np.float64)
    degenerate = np.array([c.degenerate for c in contexts], dtype=bool)
    out = (x - lo) / np.where(degenerate, 1.0, hi - lo)
    out = np.where(out > 0.0, out, 0.0)
    out = np.where(out < 1.0, out, 1.0)
    out[..., degenerate] = 0.5
    return out


# ---------------------------------------------------------------------------
# Utility scalarization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UtilitySpec:
    """How M capability scores collapse to one number.

    kind "macro" averages all capabilities; "weighted" takes fixed
    nonnegative weights summing to 1; "single" picks one capability index.
    """

    kind: str = "macro"
    weights: tuple[float, ...] | None = None
    index: int | None = None

    def __post_init__(self):
        if self.kind not in ("macro", "weighted", "single"):
            raise MergeMixError(f"unknown utility kind {self.kind!r}")
        if self.kind == "weighted":
            if not self.weights:
                raise MergeMixError("weighted utility needs weights")
            w = np.asarray(self.weights, dtype=np.float64)
            if (not np.all(np.isfinite(w)) or np.any(w < 0)
                    or abs(float(w.sum()) - 1.0) > 1e-9):
                raise MergeMixError(
                    "utility weights must be finite, >= 0 and sum to 1")
            object.__setattr__(self, "weights", tuple(float(x) for x in w))
        if self.kind == "single" and self.index is None:
            raise MergeMixError("single-capability utility needs an index")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.weights is not None:
            out["weights"] = list(self.weights)
        if self.index is not None:
            out["index"] = self.index
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "UtilitySpec":
        return cls(
            kind=data.get("kind", "macro"),
            weights=tuple(data["weights"]) if data.get("weights") else None,
            index=data.get("index"),
        )


def utilities(scores, spec: UtilitySpec) -> np.ndarray:
    """The utility of every row of an (n, M) score matrix.

    Row i is bit-identical to `y.mean()`, `w @ y` or `y[index]` on that row
    alone: a row mean reduces the row as a vector does, and each matmul row
    is one vector dot product.
    """
    s = np.ascontiguousarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise DimensionError(f"scores must be an (n, M) matrix, got shape {s.shape}")
    if spec.kind == "macro":
        return s.mean(axis=1)
    if spec.kind == "weighted":
        w = np.asarray(spec.weights, dtype=np.float64)
        if w.shape[0] != s.shape[1]:
            raise DimensionError(
                f"utility weights length {w.shape[0]} != scores length {s.shape[1]}"
            )
        return np.matmul(s[:, None, :], w[:, None])[:, 0, 0]
    if spec.index >= s.shape[1] or spec.index < 0:
        raise DimensionError(f"capability index {spec.index} out of range")
    return s[:, spec.index]


def utility(scores: Sequence[float], spec: UtilitySpec) -> float:
    """`utilities` of one score vector."""
    return float(utilities(np.asarray(scores, dtype=np.float64)[None, :], spec)[0])


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------

BASELINE_METHOD = "MergeMix"


@dataclass(frozen=True)
class CostEntry:
    """One strategy row: model size (B params), tokens per run (B), run count."""

    method: str
    model_size: Decimal
    tokens: Decimal
    runs: Decimal

    def __post_init__(self):
        for label, v in (("model_size", self.model_size),
                         ("tokens", self.tokens), ("runs", self.runs)):
            if Decimal(v) <= 0:
                raise MergeMixError(f"{label} must be positive, got {v}")

    @property
    def equivalent_cost(self) -> Decimal:
        return Decimal(self.model_size) * Decimal(self.tokens) * Decimal(self.runs)


@dataclass(frozen=True)
class CostModel:
    entries: tuple[CostEntry, ...]
    relative: tuple[Decimal, ...] = field(default=())

    def row(self, method: str) -> tuple[CostEntry, Decimal]:
        for entry, rel in zip(self.entries, self.relative):
            if entry.method == method:
                return entry, rel
        raise MergeMixError(f"no cost row named {method!r}")

    def to_dict(self) -> dict:
        rows = []
        for entry, rel in zip(self.entries, self.relative):
            rows.append({
                "method": entry.method,
                "model_size_b": _decimal_str(entry.model_size),
                "tokens_b": _decimal_str(entry.tokens),
                "runs": _decimal_str(entry.runs),
                "equivalent_cost": _decimal_str(entry.equivalent_cost),
                "relative_cost": _decimal_str(rel),
                "relative_label": format_relative(rel),
            })
        return {"baseline": BASELINE_METHOD, "rows": rows}


def _decimal_str(v: Decimal) -> str:
    text = format(v.normalize(), "f")
    return text


def format_relative(v: Decimal) -> str:
    """Human label for a cost ratio: 100 -> '100×', 9.8 -> '9.8×', 1 -> '1.0×'."""
    one_dp = v.quantize(Decimal("0.1"))
    if one_dp >= 10 and one_dp == one_dp.to_integral_value():
        return f"{one_dp.to_integral_value()}×"
    return f"{one_dp}×"


def cost_accounting(entries: Sequence[CostEntry]) -> CostModel:
    """Per-row equivalent cost and cost relative to the MergeMix row.

    Decimal arithmetic keeps published table cells exact (0.35 * 40 * 112
    must come out as 1568, not 1567.999...).
    """
    baseline = None
    for entry in entries:
        if entry.method == BASELINE_METHOD:
            baseline = entry.equivalent_cost
    if baseline is None:
        raise MergeMixError(f"missing {BASELINE_METHOD!r} row for relative costs")
    relative = tuple(e.equivalent_cost / baseline for e in entries)
    return CostModel(tuple(entries), relative)


def cost_entries_from_dicts(rows: Sequence[dict]) -> list[CostEntry]:
    entries = []
    for row in rows:
        entries.append(CostEntry(
            method=str(row["method"]),
            model_size=Decimal(str(row["model_size_b"])),
            tokens=Decimal(str(row["tokens_b"])),
            runs=Decimal(str(row["runs"])),
        ))
    return entries
