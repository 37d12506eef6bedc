"""Scenario specs: fit structural distributions, generate synthetic twins.

The paper's central claim is that the right SpMV kernel depends on the
matrix's *structure* — degree skew, bandedness, blocks, hubs (§5 picks
per-matrix).  The hand-written generators in :mod:`repro.graphs`
cover seven structural families; production means thousands.  This
module closes the gap with a declarative **scenario spec**:

* :func:`fit` estimates a :class:`ScenarioSpec` from any
  :class:`~repro.formats.base.SparseMatrix` or ``.mtx`` file — degree
  power-law exponents (via :func:`repro.graphs.stats.powerlaw_mle`),
  bandedness, disconnected components, symmetry, hub shares, skew;
* :func:`generate` turns a spec back into a seeded, bit-reproducible
  synthetic twin at any scale;
* specs serialise to JSON (:meth:`ScenarioSpec.to_json`) and load back
  with **loud validation** — a hand-edited or corrupt spec fails with
  :class:`~repro.errors.ValidationError` before a single entry is
  generated, never mid-generate.

The curated corpus in :mod:`repro.graphs.scenarios` is expressed
entirely as spec data; the differential/chaos/tuner sweeps and
``benchmarks/bench_scenarios.py`` run over generated twins.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ValidationError
from repro.formats.base import SparseMatrix
from repro.formats.coo import COOMatrix
from repro.graphs import stats

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioSpec",
    "fit",
    "generate",
    "spec_name",
    "spec_seed",
]

#: Bump when the spec field set changes incompatibly; loaders reject
#: unknown versions loudly instead of mis-generating.
SCHEMA_VERSION = 1

#: A fitted exponent only counts as "power-law" when the skew supports
#: it; below this Gini the degree sequence is effectively uniform and
#: the MLE value is noise.
_POWER_LAW_MIN_GINI = 0.35

#: Hub shares below this are ordinary skew, not a deliberate hub — a
#: heavy power-law head alone can reach ~0.12 of the entries.
_HUB_MIN_SHARE = 0.15

#: Fitted bandedness below this is indistinguishable from random
#: placement; the spec records "not banded".
_BANDED_MIN_FRACTION = 0.15


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative structural description of one sparse-matrix workload.

    Every field is generative: :func:`generate` realises the spec with
    a seeded RNG, and :func:`fit` estimates the same fields from a real
    matrix, so ``fit(generate(spec))`` recovers the spec within
    statistical tolerance.  ``row_gini``/``col_gini`` are fitted
    diagnostics carried for reporting; generation derives its skew from
    the exponents and hub shares.

    Parameters
    ----------
    name:
        Free-form label (corpus key / provenance).
    n_rows, n_cols, nnz:
        Target shape and stored-entry count at scale 1.
    row_exponent, col_exponent:
        Power-law exponent γ of the degree distribution on that axis,
        or ``None`` for a near-uniform (non-power-law) axis.
    bandedness:
        Fraction of entries placed within ``half_bandwidth`` of the
        (aspect-corrected) diagonal; 0 disables the band.
    half_bandwidth:
        Band half-width in column units at scale 1.
    n_components:
        Number of disconnected block-diagonal components.
    symmetry:
        Fraction of off-diagonal entries whose transposed partner is
        also stored (square matrices only).
    empty_row_fraction:
        Fraction of rows forced to hold no entries at all.
    hub_row_share, hub_col_share:
        Fraction of all entries deliberately concentrated in one hub
        row / column (on top of the exponent-driven skew).
    row_gini, col_gini:
        Fitted Gini coefficients of the degree sequences (diagnostic).
    tags:
        Free-form labels; the corpus marks ``"adversarial"`` here.
    """

    name: str
    n_rows: int
    n_cols: int
    nnz: int
    row_exponent: float | None = None
    col_exponent: float | None = None
    bandedness: float = 0.0
    half_bandwidth: int = 0
    n_components: int = 1
    symmetry: float = 0.0
    empty_row_fraction: float = 0.0
    hub_row_share: float = 0.0
    hub_col_share: float = 0.0
    row_gini: float | None = None
    col_gini: float | None = None
    tags: tuple = ()
    schema: int = SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ValidationError` on any inconsistent field."""
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("spec name must be a non-empty string")
        if self.schema != SCHEMA_VERSION:
            raise ValidationError(
                f"spec schema {self.schema!r} is not the supported "
                f"version {SCHEMA_VERSION}"
            )
        for field in ("n_rows", "n_cols", "nnz", "half_bandwidth",
                      "n_components"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(
                    f"{field} must be an integer, got {value!r}"
                )
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValidationError(
                f"shape must be positive, got "
                f"({self.n_rows}, {self.n_cols})"
            )
        if self.nnz < 0:
            raise ValidationError(f"nnz must be >= 0, got {self.nnz}")
        if self.half_bandwidth < 0:
            raise ValidationError("half_bandwidth must be >= 0")
        if not 1 <= self.n_components <= min(self.n_rows, self.n_cols):
            raise ValidationError(
                f"n_components must be in [1, min(shape)], got "
                f"{self.n_components}"
            )
        for field in ("bandedness", "symmetry", "empty_row_fraction",
                      "hub_row_share", "hub_col_share"):
            value = getattr(self, field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(
                    f"{field} must be a number, got {value!r}"
                )
            if not 0.0 <= float(value) <= 1.0:
                raise ValidationError(
                    f"{field} must be in [0, 1], got {value!r}"
                )
        for field in ("row_exponent", "col_exponent"):
            value = getattr(self, field)
            if value is None:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(
                    f"{field} must be a number or null, got {value!r}"
                )
            if not np.isfinite(value) or value <= 1.0:
                raise ValidationError(
                    f"{field} must be a finite exponent > 1, got {value!r}"
                )
        for field in ("row_gini", "col_gini"):
            value = getattr(self, field)
            if value is not None and not (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and 0.0 <= float(value) <= 1.0
            ):
                raise ValidationError(
                    f"{field} must be null or in [0, 1], got {value!r}"
                )
        if self.symmetry > 0 and self.n_rows != self.n_cols:
            raise ValidationError(
                "symmetry requires a square shape, got "
                f"({self.n_rows}, {self.n_cols})"
            )
        if self.bandedness > 0 and self.half_bandwidth < 1:
            raise ValidationError(
                "a banded spec needs half_bandwidth >= 1"
            )
        if self.empty_row_fraction >= 1.0 and self.nnz > 0:
            raise ValidationError(
                "empty_row_fraction 1.0 leaves no row for any entry"
            )
        if not isinstance(self.tags, (tuple, list)) or not all(
            isinstance(t, str) for t in self.tags
        ):
            raise ValidationError("tags must be a sequence of strings")
        object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def density(self) -> float:
        """Target stored-entry fraction (derived, not stored twice)."""
        return self.nnz / (self.n_rows * self.n_cols)

    @property
    def adversarial(self) -> bool:
        return "adversarial" in self.tags

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["tags"] = list(self.tags)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        """Build from a dict with **loud** rejection of unknown keys.

        A mistyped field name in a hand-edited spec would otherwise be
        silently dropped and generate the wrong structure.
        """
        if not isinstance(payload, dict):
            raise ValidationError(
                f"spec payload must be an object, got "
                f"{type(payload).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError(
                f"spec has unknown field(s) {unknown}; known fields: "
                f"{sorted(known)}"
            )
        data = dict(payload)
        if "tags" in data:
            tags = data["tags"]
            if not isinstance(tags, (list, tuple)):
                raise ValidationError(
                    f"tags must be a list, got {tags!r}"
                )
            data["tags"] = tuple(tags)
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValidationError(f"malformed spec: {exc}") from exc

    def to_json(self, path: str | Path | None = None) -> str:
        """Canonical JSON (sorted keys); optionally written to a file."""
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, text_or_path: str | Path) -> "ScenarioSpec":
        """Parse a spec from a JSON string or file path, loudly."""
        if isinstance(text_or_path, Path) or (
            isinstance(text_or_path, str)
            and not text_or_path.lstrip().startswith("{")
        ):
            try:
                text = Path(text_or_path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ValidationError(
                    f"cannot read spec file {text_or_path!r}: {exc}"
                ) from exc
        else:
            text = text_or_path
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ValidationError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def canonical_crc(self) -> int:
        """CRC32 of the canonical JSON — the spec's structural hash."""
        return zlib.crc32(
            json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        )

    def scaled(self, scale: float) -> tuple[int, int, int, int]:
        """``(n_rows, n_cols, nnz, half_bandwidth)`` at ``scale``."""
        if not np.isfinite(scale) or scale <= 0:
            raise ValidationError(f"scale must be positive, got {scale!r}")
        n_rows = max(self.n_components, int(round(self.n_rows * scale)))
        n_cols = max(self.n_components, int(round(self.n_cols * scale)))
        nnz = int(round(self.nnz * scale))
        hb = max(1, int(round(self.half_bandwidth * scale))) \
            if self.bandedness > 0 else 0
        return n_rows, n_cols, nnz, hb


def spec_seed(spec: ScenarioSpec, seed: int) -> list[int]:
    """Deterministic RNG seed material for one (spec, seed) pair.

    Mixing the spec's canonical CRC in means two different specs never
    share an entry stream even under the same user seed, while the same
    spec regenerates bit-identically across processes.
    """
    return [int(seed) & 0xFFFFFFFF, spec.canonical_crc()]


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------


def _axis_weights(
    n: int,
    exponent: float | None,
    hub_share: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-index sampling probabilities for one axis of one component."""
    if exponent is not None:
        ranks = np.arange(n, dtype=np.float64) + 1.0
        weights = ranks ** (-1.0 / (exponent - 1.0))
        # Shuffle labels: index must carry no degree information, like
        # real crawls (and like chung_lu_graph's shuffle_labels).
        rng.shuffle(weights)
    else:
        weights = np.ones(n, dtype=np.float64)
    if hub_share > 0 and n > 1:
        hub = int(rng.integers(0, n))
        weights *= (1.0 - hub_share) / weights.sum()
        weights[hub] += hub_share
    return weights / weights.sum()


def _draw(
    prob: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``size`` seeded draws from a categorical distribution."""
    cdf = np.cumsum(prob)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(size), side="right").astype(
        np.int64
    )


def _component_model(
    spec: ScenarioSpec,
    n_rows: int,
    n_cols: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen per-component sampling distributions.

    Built exactly once per component so the top-up rounds of
    :func:`generate` redraw *entries* from the same model — the hub
    index, the silenced rows and the shuffled power-law labels must not
    move between rounds or the structure dilutes.
    """
    row_prob = _axis_weights(
        n_rows, spec.row_exponent, spec.hub_row_share, rng
    )
    if spec.empty_row_fraction > 0 and n_rows > 1:
        n_empty = min(
            int(round(spec.empty_row_fraction * n_rows)), n_rows - 1
        )
        if n_empty:
            silenced = rng.choice(n_rows, size=n_empty, replace=False)
            row_prob[silenced] = 0.0
            row_prob /= row_prob.sum()
    col_prob = _axis_weights(
        n_cols, spec.col_exponent, spec.hub_col_share, rng
    )
    return row_prob, col_prob


def _component_entries(
    spec: ScenarioSpec,
    row_prob: np.ndarray,
    col_prob: np.ndarray,
    nnz: int,
    hb: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Entry coordinates for one component (local indices)."""
    n_rows, n_cols = row_prob.size, col_prob.size
    if nnz <= 0 or n_rows == 0 or n_cols == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty
    mirror_count = (
        int(round(nnz * spec.symmetry / 2.0)) if n_rows == n_cols else 0
    )
    base_count = max(1, nnz - mirror_count)

    rows = _draw(row_prob, base_count, rng)
    cols = _draw(col_prob, base_count, rng)
    if spec.bandedness > 0:
        in_band = rng.random(base_count) < spec.bandedness
        aspect = n_cols / n_rows
        centers = np.floor(rows[in_band] * aspect).astype(np.int64)
        offsets = rng.integers(-hb, hb + 1, size=int(in_band.sum()))
        cols[in_band] = np.clip(centers + offsets, 0, n_cols - 1)
    if mirror_count:
        off_diag = np.flatnonzero(rows != cols)
        if off_diag.size:
            picked = rng.choice(
                off_diag,
                size=min(mirror_count, off_diag.size),
                replace=False,
            )
            mirrored_rows = cols[picked].copy()
            mirrored_cols = rows[picked].copy()
            rows = np.concatenate([rows, mirrored_rows])
            cols = np.concatenate([cols, mirrored_cols])
    return rows, cols


def generate(
    spec: ScenarioSpec, *, scale: float = 1.0, seed: int = 0
) -> COOMatrix:
    """Realise a spec as a seeded, bit-reproducible COO matrix.

    The same ``(spec, scale, seed)`` triple yields a bit-identical
    matrix on every call and every host.  Coordinates are drawn from
    the spec's degree/band/hub model, deduplicated, topped up, and
    finally thinned uniformly — so the realised nnz tracks the target
    closely without biasing the structure.
    """
    spec.validate()
    n_rows, n_cols, nnz, hb = spec.scaled(scale)
    rng = np.random.default_rng(spec_seed(spec, seed) + [0])

    # Deal rows/cols/nnz over block-diagonal components.  Components
    # are contiguous index ranges, so disconnectedness is structural.
    k = min(spec.n_components, n_rows, n_cols)
    row_edges = np.linspace(0, n_rows, k + 1).astype(np.int64)
    col_edges = np.linspace(0, n_cols, k + 1).astype(np.int64)
    rows_parts, cols_parts = [], []
    for c in range(k):
        r0, r1 = int(row_edges[c]), int(row_edges[c + 1])
        c0, c1 = int(col_edges[c]), int(col_edges[c + 1])
        target = nnz // k + (1 if c < nnz % k else 0)
        capacity = (r1 - r0) * (c1 - c0)
        target = min(target, capacity)
        if target <= 0:
            continue
        row_prob, col_prob = _component_model(spec, r1 - r0, c1 - c0, rng)
        # Top-up loop: dedup shrinks skewed draws; redraw until the
        # unique count reaches the target, then thin uniformly to
        # exactly target.  Stopping is progress-based: only a round
        # that adds nothing new means the structure is saturated (a
        # narrow band, a lone hub) and the shortfall is honest.  A
        # fixed small round cap is not — heavy hub mass can collide
        # away most of every draw yet still creep toward the target,
        # so the cap is only a generous runaway guard.
        # All rounds draw from the SAME frozen model above.
        keys: np.ndarray = np.array([], dtype=np.int64)
        for _round in range(64):
            need = target - keys.size
            if need <= 0:
                break
            r, cc = _component_entries(
                spec, row_prob, col_prob, max(need, target // 4), hb, rng
            )
            fresh = r * np.int64(c1 - c0) + cc
            before = keys.size
            keys = np.unique(np.concatenate([keys, fresh]))
            if keys.size == before:  # saturated: stop honestly
                break
        if keys.size > target:
            keys = rng.choice(keys, size=target, replace=False)
        rows_parts.append(keys // (c1 - c0) + r0)
        cols_parts.append(keys % (c1 - c0) + c0)
    if rows_parts:
        rows = np.concatenate(rows_parts)
        cols = np.concatenate(cols_parts)
    else:
        rows = cols = np.array([], dtype=np.int64)
    data = rng.random(rows.size) + 0.5
    return COOMatrix.from_unsorted(
        rows, cols, data, (n_rows, n_cols), sum_duplicates=False
    )


# ----------------------------------------------------------------------
# Fitting
# ----------------------------------------------------------------------


def _fit_exponent(lengths: np.ndarray) -> tuple[float | None, float]:
    """(power-law exponent or None, Gini) for one degree sequence.

    The gate uses the Gini of the *positive* degrees: a matrix that is
    60% empty rows with uniform live rows has a high overall Gini but
    no power law, and an exponent fitted there would be noise.  The
    MLE cutoff tracks the median positive degree so the estimate comes
    from the tail, where the discrete power law actually holds — a
    fixed ``k_min=2`` drags the exponent toward the non-power-law head.
    """
    gini = stats.gini(lengths)
    positive = lengths[lengths > 0]
    if positive.size < 2:
        return None, gini
    skew = stats.gini(positive)
    k_min = max(2, int(np.median(positive)))
    alpha = stats.powerlaw_mle(lengths, k_min=k_min)
    if (
        np.isfinite(alpha)
        and 1.0 < alpha < 8.0
        and skew > _POWER_LAW_MIN_GINI
    ):
        return float(alpha), gini
    return None, gini


def _fit_band(
    matrix: SparseMatrix, n_components: int = 1
) -> tuple[float, int]:
    """(bandedness, half_bandwidth) of the aspect-corrected diagonal.

    ``2 * median(|offset|)`` estimates the half-width of a uniform band
    (uniform ``|offset|`` on ``[0, hb]`` has median ``hb/2``); the
    in-band fraction is then corrected for how much of it random
    placement would produce anyway, so an unbanded matrix fits to ~0.

    Block-diagonal matrices concentrate offsets near the diagonal too;
    when the fitted half-width is a sizeable fraction of a component's
    own column span, the "band" is just the blocks and is not recorded
    (a real band inside blocks — staircase — is much narrower).
    """
    coo = matrix.to_coo()
    if coo.nnz == 0 or matrix.n_cols < 2:
        return 0.0, 0
    aspect = matrix.n_cols / matrix.n_rows
    offsets = np.abs(
        coo.cols - np.floor(coo.rows * aspect).astype(np.int64)
    )
    hb = int(max(1, round(2.0 * float(np.median(offsets)))))
    if n_components > 1 and hb > 0.25 * (matrix.n_cols / n_components):
        return 0.0, 0
    in_band = float(np.mean(offsets <= hb))
    baseline = min(1.0, (2 * hb + 1) / matrix.n_cols)
    if baseline >= 0.999:
        return 0.0, 0
    banded = (in_band - baseline) / (1.0 - baseline)
    if banded < _BANDED_MIN_FRACTION:
        return 0.0, 0
    return float(min(1.0, banded)), hb


def _fit_components(matrix: SparseMatrix) -> int:
    """Structurally significant connected components.

    Union-find over the bipartite row/col edge list, counting only
    components that hold >= 5% of the entries: a power-law graph
    naturally sheds a few tiny disconnected islands, and reporting
    those as "block structure" would make every skewed matrix look
    block-diagonal.
    """
    coo = matrix.to_coo()
    if coo.nnz == 0:
        return 1
    n = matrix.n_rows + matrix.n_cols
    parent = np.arange(n, dtype=np.int64)

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    cols_off = coo.cols + np.int64(matrix.n_rows)
    for r, c in zip(coo.rows.tolist(), cols_off.tolist()):
        ra, ca = find(r), find(c)
        if ra != ca:
            parent[ca] = ra
    nnz_by_root: dict[int, int] = {}
    for r in coo.rows.tolist():
        root = find(r)
        nnz_by_root[root] = nnz_by_root.get(root, 0) + 1
    floor = 0.05 * coo.nnz
    significant = sum(1 for count in nnz_by_root.values() if count >= floor)
    return max(1, significant)


def _fit_symmetry(
    matrix: SparseMatrix, half_bandwidth: int = 0, n_components: int = 1
) -> float:
    """Deliberate symmetry: matched-transpose fraction, baseline-corrected.

    Inside a dense narrow band (or a dense diagonal block) a transposed
    position is often occupied *by chance* — a banded matrix with ~50%
    band occupancy would otherwise fit as ~50% "symmetric".  The
    coincidental rate is the occupancy of the region entries live in
    (band strip or component blocks, whole matrix otherwise); measured
    symmetry is rescaled against it so random structure fits to ~0.
    """
    if matrix.n_rows != matrix.n_cols:
        return 0.0
    coo = matrix.to_coo()
    off = coo.rows != coo.cols
    if not off.any():
        return 0.0
    n = np.int64(matrix.n_cols)
    keys = coo.rows[off] * n + coo.cols[off]
    mirrored = coo.cols[off] * n + coo.rows[off]
    matched = float(np.isin(mirrored, keys).mean())
    width = (
        min(matrix.n_cols, 2 * half_bandwidth + 1)
        if half_bandwidth > 0
        else matrix.n_cols
    )
    area = matrix.n_rows * width / max(1, n_components)
    baseline = min(0.999, coo.nnz / area)
    corrected = (matched - baseline) / (1.0 - baseline)
    return max(0.0, corrected)


def _hub_share(lengths: np.ndarray, nnz: int) -> float:
    """Deliberate single-hub share: the heaviest row/col's entry
    fraction, recorded only when it dominates (ordinary power-law
    heads are captured by the exponent instead)."""
    if nnz == 0 or lengths.size == 0:
        return 0.0
    share = float(lengths.max()) / nnz
    return share if share >= _HUB_MIN_SHARE else 0.0


def spec_name(path: str | Path) -> str:
    """The default name of a spec fitted from a matrix file: its stem."""
    return Path(path).stem or "fitted"


def fit(
    matrix: SparseMatrix | str | Path, *, name: str | None = None
) -> ScenarioSpec:
    """Estimate the :class:`ScenarioSpec` of a real matrix.

    Accepts any :class:`~repro.formats.base.SparseMatrix` or a path to
    a MatrixMarket ``.mtx`` file.  All estimators are deterministic,
    so fitting the same matrix twice yields the same spec.
    """
    if isinstance(matrix, (str, Path)):
        from repro.io.matrix_market import read_matrix_market

        source = Path(matrix)
        try:
            matrix = read_matrix_market(source)
        except OSError as exc:
            raise ValidationError(
                f"cannot read matrix file {str(source)!r}: {exc}"
            ) from exc
        if name is None:
            name = spec_name(source)
    if not isinstance(matrix, SparseMatrix):
        raise ValidationError(
            f"fit expects a SparseMatrix or a path, got "
            f"{type(matrix).__name__}"
        )
    row_lengths = matrix.row_lengths()
    col_lengths = matrix.col_lengths()
    hub_row = _hub_share(row_lengths, matrix.nnz)
    hub_col = _hub_share(col_lengths, matrix.nnz)
    # A deliberate hub is modelled by its share, not by the exponent:
    # leaving the hub in the MLE would read "uniform + one huge row" as
    # a power law.
    row_sample = (
        np.delete(row_lengths, int(np.argmax(row_lengths)))
        if hub_row > 0 and row_lengths.size > 1
        else row_lengths
    )
    col_sample = (
        np.delete(col_lengths, int(np.argmax(col_lengths)))
        if hub_col > 0 and col_lengths.size > 1
        else col_lengths
    )
    row_exponent, row_gini = _fit_exponent(row_sample)
    col_exponent, col_gini = _fit_exponent(col_sample)
    # Components first: the band and symmetry estimators must know the
    # block structure to avoid reading diagonal blocks as a band or
    # dense-band coincidences as deliberate symmetry.
    n_components = _fit_components(matrix)
    bandedness, half_bandwidth = _fit_band(matrix, n_components)
    symmetry = _fit_symmetry(matrix, half_bandwidth, n_components)
    empty_rows = (
        float(np.mean(row_lengths == 0)) if row_lengths.size else 0.0
    )
    return ScenarioSpec(
        name=name or "fitted",
        n_rows=matrix.n_rows,
        n_cols=matrix.n_cols,
        nnz=int(matrix.nnz),
        row_exponent=row_exponent,
        col_exponent=col_exponent,
        bandedness=bandedness,
        half_bandwidth=half_bandwidth,
        n_components=n_components,
        symmetry=round(symmetry, 6),
        empty_row_fraction=round(empty_rows, 6),
        hub_row_share=round(hub_row, 6),
        hub_col_share=round(hub_col, 6),
        row_gini=round(row_gini, 6),
        col_gini=round(col_gini, 6),
        tags=("fitted",),
    )
