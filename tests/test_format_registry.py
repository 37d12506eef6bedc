"""Format/kernel plugin registry: builtins, live views, entry points.

The registry is the single source of truth behind ``to_format``,
the tuner's model-pruned grid, the native backend's plan dispatch and
the multi-GPU memory accounting — these tests pin each derivation,
plus the ``repro.formats`` entry-point discovery contract (a broken
plugin is recorded, never raised).
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.exec import available_backends
from repro.formats import registry
from repro.formats.base import SparseMatrix
from repro.formats.convert import to_format
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.registry import (
    FormatSpec,
    discover_entry_points,
    entry_point_errors,
    format_names,
    get_format,
    model_kernel_map,
    register_format,
    spec_for,
    specs,
    unregister_format,
)

BUILTINS = [
    "hyb", "coo", "csr", "csc", "ell", "dia", "pkt",
    "cmrs", "rgcsr", "mpcsr",
]


def small_coo(seed: int = 0) -> COOMatrix:
    rng = np.random.default_rng(seed)
    return COOMatrix.from_unsorted(
        rng.integers(0, 30, 150), rng.integers(0, 30, 150),
        rng.standard_normal(150), (30, 30),
    )


class ToyMatrix(COOMatrix):
    """A 'third-party' format for registration tests."""


def toy_spec(name: str = "toyfmt", **overrides) -> FormatSpec:
    fields = dict(
        name=name,
        cls=ToyMatrix,
        build=lambda coo, **kw: ToyMatrix(
            coo.rows.copy(), coo.cols.copy(), coo.data.copy(), coo.shape
        ),
        description="toy plugin format",
        bitwise=True,
    )
    fields.update(overrides)
    return FormatSpec(**fields)


@pytest.fixture
def registered_toy():
    spec = register_format(toy_spec())
    try:
        yield spec
    finally:
        unregister_format(spec.name)


# ----------------------------------------------------------------------
# Builtins and core API
# ----------------------------------------------------------------------


def test_builtin_formats_registered_in_order():
    names = format_names()
    assert names[: len(BUILTINS)] == BUILTINS


def test_every_builtin_spec_is_buildable():
    coo = small_coo()
    for spec in specs():
        assert spec.name == spec.name.lower()
        assert spec.description
        try:
            built = spec.build(coo)
        except Exception:
            # DIA/PKT legitimately refuse unsuitable matrices.
            from repro.errors import FormatNotApplicableError

            with pytest.raises(FormatNotApplicableError):
                spec.build(coo)
            continue
        assert type(built) is spec.cls
        assert spec_for(built) is spec


def test_register_rejects_duplicates_and_bad_names(registered_toy):
    with pytest.raises(ValidationError):
        register_format(toy_spec())  # duplicate
    with pytest.raises(ValidationError):
        register_format(toy_spec(name="ToyFmt2"))  # not lower-case
    with pytest.raises(ValidationError):
        register_format("not a spec")


def test_unregister_unknown_raises():
    with pytest.raises(ValidationError):
        unregister_format("never-registered")


def test_get_format_unknown_raises():
    with pytest.raises(ValidationError) as err:
        get_format("nonesuch")
    assert "nonesuch" in str(err.value)


def test_model_kernel_map_covers_zoo():
    kernel_map = model_kernel_map()
    assert kernel_map["csr-vector"] == "csr"
    assert kernel_map["ell"] == "ell"
    assert kernel_map["tile-composite"] == "hyb"
    assert kernel_map["cmrs"] == "cmrs"
    assert kernel_map["rgcsr"] == "rgcsr"
    assert kernel_map["csr-mergepath"] == "mpcsr"


class ColumnBag(SparseMatrix):
    """A plugin that defines only ``nnz``, ``nbytes`` and ``to_coo``:
    its triples are kept in column order and it has no plan of its
    own."""

    def __init__(self, coo: COOMatrix) -> None:
        order = coo.column_order()
        self.shape = coo.shape
        self.rows = coo.rows[order]
        self.cols = coo.cols[order]
        self.data = coo.data[order]

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self._array_bytes(self.rows, self.cols, self.data)

    def to_coo(self) -> COOMatrix:
        return COOMatrix.from_unsorted(
            self.rows, self.cols, self.data, self.shape,
            sum_duplicates=False,
        )


@pytest.mark.parametrize(
    "backend", sorted({"numpy", "scipy"} & set(available_backends()))
)
def test_plugin_without_a_plan_runs_the_canonical_one(backend):
    coo = small_coo(seed=9)
    bag = ColumnBag(coo)
    reference = CSRMatrix.from_coo(coo)
    rng = np.random.default_rng(10)
    x = rng.standard_normal(coo.n_cols)
    X = rng.standard_normal((coo.n_cols, 3))
    plan = bag.spmv_plan(backend)
    want = reference.spmv_plan(backend)
    assert np.array_equal(plan.execute(x), want.execute(x))
    assert np.array_equal(plan.execute_many(X), want.execute_many(X))


# ----------------------------------------------------------------------
# Live derivations: to_format, tuner grid, multigpu
# ----------------------------------------------------------------------


def test_to_format_follows_the_live_registry(registered_toy):
    assert "toyfmt" in format_names()
    built = to_format(small_coo(), "toyfmt")
    assert type(built) is ToyMatrix
    unregister_format("toyfmt")
    try:
        assert "toyfmt" not in format_names()
        with pytest.raises(ValidationError):
            to_format(small_coo(), "toyfmt")
    finally:
        register_format(toy_spec())  # fixture teardown unregisters


def test_candidate_grid_picks_up_registered_format_without_tuner_change():
    """A registered ``tune_candidate`` predicate puts the new format in
    the measured grid — no edit to the tuner module required."""
    from repro.tuner.tuner import candidate_grid

    matrix = small_coo()
    spec = register_format(
        toy_spec(name="toytuned", tune_candidate=lambda m: True)
    )
    try:
        candidates, meta = candidate_grid(matrix)
        formats = {fmt for fmt, *_ in candidates}
        assert "toytuned" in formats
        assert "csr" in formats  # the baseline survives
    finally:
        unregister_format(spec.name)
    candidates, _ = candidate_grid(matrix)
    assert "toytuned" not in {fmt for fmt, *_ in candidates}


def test_candidate_grid_includes_zoo_predicates_on_skewed_matrix():
    """A hub-row matrix fires the mpcsr/rgcsr predicates."""
    rows = np.concatenate(
        [np.zeros(400, dtype=np.int64), np.arange(1, 50, dtype=np.int64)]
    )
    rng = np.random.default_rng(3)
    cols = rng.integers(0, 50, rows.size)
    matrix = COOMatrix.from_unsorted(
        rows, cols, rng.standard_normal(rows.size), (50, 50)
    )
    from repro.tuner.tuner import candidate_grid

    candidates, meta = candidate_grid(matrix)
    formats = {fmt for fmt, *_ in candidates}
    assert "mpcsr" in formats
    assert "rgcsr" in formats


def test_tuning_decision_accepts_registered_format(registered_toy):
    from repro.tuner.tuner import TuningDecision

    decision = TuningDecision.from_dict(
        {
            "fingerprint": "abc",
            "format": "toyfmt",
            "backend": "numpy",
            "n_shards": 1,
            "seconds": 1e-6,
        }
    )
    assert decision.format == "toyfmt"


def test_native_backend_dispatches_via_registry():
    from repro.exec.native import NativeBackend, native_available

    if not native_available():
        pytest.skip("numba not installed")
    from repro.exec.native import (
        NativeCMRSPlan,
        NativeCSRPlan,
        NativeMPCSRPlan,
        NativeRGCSRPlan,
    )

    backend = NativeBackend()
    coo = small_coo()
    for fmt, plan_cls in [
        ("csr", NativeCSRPlan),
        ("cmrs", NativeCMRSPlan),
        ("rgcsr", NativeRGCSRPlan),
        ("mpcsr", NativeMPCSRPlan),
    ]:
        plan = backend.build_plan(to_format(coo, fmt))
        assert type(plan) is plan_cls


# ----------------------------------------------------------------------
# Entry-point discovery
# ----------------------------------------------------------------------


class _FakeEntryPoint:
    def __init__(self, name, obj=None, error=None):
        self.name = name
        self._obj = obj
        self._error = error

    def load(self):
        if self._error is not None:
            raise self._error
        return self._obj


def test_entry_point_discovery_registers_and_tags_source(monkeypatch):
    import importlib.metadata as md

    eps = [
        _FakeEntryPoint("toyplug", toy_spec(name="epfmt")),
        _FakeEntryPoint(
            "toyfactory", lambda: [toy_spec(name="epfmt2")]
        ),
    ]
    monkeypatch.setattr(md, "entry_points", lambda group: eps)
    new = discover_entry_points(force=True)
    try:
        assert set(new) == {"epfmt", "epfmt2"}
        assert get_format("epfmt").source == "plugin:toyplug"
        assert get_format("epfmt2").source == "plugin:toyfactory"
        # discovered formats are first-class: convertible immediately
        assert type(to_format(small_coo(), "epfmt")) is ToyMatrix
    finally:
        for name in new:
            unregister_format(name)


def test_entry_point_failures_are_recorded_not_raised(monkeypatch):
    import importlib.metadata as md

    eps = [
        _FakeEntryPoint("broken", error=RuntimeError("boom")),
        _FakeEntryPoint("notaspec", obj=object()),
        _FakeEntryPoint("good", toy_spec(name="epok")),
    ]
    monkeypatch.setattr(md, "entry_points", lambda group: eps)
    before = len(entry_point_errors())
    new = discover_entry_points(force=True)
    try:
        assert new == ["epok"]
        errors = entry_point_errors()[before:]
        assert {e["entry_point"] for e in errors} == {"broken", "notaspec"}
        assert any("boom" in e["error"] for e in errors)
    finally:
        unregister_format("epok")


def test_discovery_runs_once_unless_forced(monkeypatch):
    import importlib.metadata as md

    calls = []

    def fake_entry_points(group):
        calls.append(group)
        return []

    monkeypatch.setattr(md, "entry_points", fake_entry_points)
    assert discover_entry_points() == []  # import-time scan already ran
    assert calls == []
    assert discover_entry_points(force=True) == []
    assert calls == [registry.ENTRY_POINT_GROUP]
