"""The HYB kernel prices its ELL/COO split without building it.

``HYBKernel.cost()`` reads the split off the COO (its ELL width and
head mask); the reference here prices a materialised
``HYBMatrix.from_coo`` the way the kernel once did, and the two reports
must agree field for field.  Pricing never builds the split; the
product of a HYB matrix is the format's own (``HYBMatrix.spmv``).
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.formats.coo import COOMatrix
from repro.formats.hyb import HYBMatrix, choose_ell_width, hyb_split
from repro.graphs import scenarios
from repro.graphs.rmat import rmat_graph
from repro.gpu.costs import CostReport
from repro.gpu.spec import DeviceSpec
from repro.kernels import create
from repro.kernels.coo import coo_cost_report
from repro.kernels.ell import ell_cost_report
from repro.kernels.xaccess import untiled_x_cost
from repro.mining.pagerank import pagerank
from tests.test_exec_engine import random_coo

DEVICE = DeviceSpec.tesla_c1060()


def materialised_cost(coo, ell_width=None, device=DEVICE) -> CostReport:
    """The HYB cost priced from the built split."""
    hyb = HYBMatrix.from_coo(coo, ell_width=ell_width)
    ell, tail = hyb.ell, hyb.coo
    reports = []
    if ell.width > 0 and ell.n_rows > 0:
        ell_cols = np.bincount(
            ell.indices[ell.valid], minlength=coo.n_cols
        ) if ell.nnz else np.zeros(coo.n_cols)
        reports.append(
            ell_cost_report(
                "hyb-ell", n_rows=ell.n_rows, width=ell.width,
                nnz=ell.nnz, x_cost=untiled_x_cost(ell_cols, device),
                device=device,
            )
        )
    if tail.nnz:
        reports.append(
            coo_cost_report(
                "hyb-coo", rows=tail.rows,
                nnz=tail.nnz, n_rows=tail.n_rows,
                x_cost=untiled_x_cost(tail.col_lengths(), device),
                device=device,
            )
        )
    if not reports:
        return CostReport.zero("hyb")
    return sum(reports, CostReport.zero()).relabel("hyb")


def empty_coo(n_rows=6, n_cols=5):
    e = np.zeros(0, dtype=np.int64)
    return COOMatrix(e, e, np.zeros(0), (n_rows, n_cols))


CASES = {
    "random": lambda: random_coo(n_rows=60, n_cols=50, nnz=400, seed=3),
    "rmat": lambda: rmat_graph(1 << 10, 12_000, seed=4).to_coo(),
    "empty": empty_coo,
    "no-rows": lambda: empty_coo(0, 4),
    "all-head": lambda: COOMatrix.from_unsorted(
        np.repeat(np.arange(20), 3), np.tile([1, 4, 9], 20),
        np.ones(60), (20, 12),
    ),
    "one-hub": lambda: COOMatrix.from_unsorted(
        np.zeros(40, dtype=np.int64), np.arange(40), np.ones(40), (8, 40)
    ),
}


@pytest.mark.parametrize("ell_width", [None, 0, 1, 2, 50])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cost_equals_the_materialised_split(case, ell_width):
    coo = CASES[case]()
    kernel = create("hyb", coo, ell_width=ell_width)
    assert kernel.cost() == materialised_cost(coo, ell_width)


@pytest.mark.parametrize("ell_width", [None, 0, 1, 2, 50])
@pytest.mark.parametrize("case", sorted(CASES))
def test_split_heads_are_the_first_k_entries_of_each_row(case, ell_width):
    coo = CASES[case]()
    width, head = hyb_split(coo, ell_width=ell_width)
    lengths = np.bincount(coo.rows, minlength=coo.n_rows)
    if ell_width is None:
        assert width == choose_ell_width(lengths)
    else:
        assert width == ell_width
    starts = np.concatenate([[0], np.cumsum(lengths)])
    slot = np.arange(coo.nnz) - starts[coo.rows]
    assert head.dtype == bool
    assert np.array_equal(head, slot < width)


@pytest.mark.parametrize("name", scenarios.scenario_names())
def test_cost_equals_the_materialised_split_on_the_corpus(name):
    coo = scenarios.generate_scenario(name, scale=0.15, seed=29)
    kernel = create("hyb", coo)
    assert kernel.cost() == materialised_cost(coo)


def test_pricing_never_builds_the_split(monkeypatch):
    calls = spy_from_coo(monkeypatch)
    coo = random_coo(seed=5)
    kernel = create("hyb", coo)
    kernel.cost()
    kernel.cost()
    assert calls == []


def test_negative_ell_width_is_rejected():
    with pytest.raises(ValidationError):
        create("hyb", random_coo(seed=7), ell_width=-1)


def spy_from_coo(monkeypatch) -> list:
    calls = []
    original = HYBMatrix.from_coo.__func__

    def spy(cls, coo, **options):
        calls.append(coo.shape)
        return original(cls, coo, **options)

    monkeypatch.setattr(HYBMatrix, "from_coo", classmethod(spy))
    return calls


def graph(seed):
    rng = np.random.default_rng(seed)
    return COOMatrix.from_edges(
        rng.integers(0, 200, size=1500), rng.integers(0, 200, size=1500),
        (200, 200),
    )


@pytest.mark.parametrize("n_shards", [None, 2])
def test_sharded_pagerank_never_builds_the_split(monkeypatch, n_shards):
    monkeypatch.delenv("REPRO_SPMV_SHARDS", raising=False)
    calls = spy_from_coo(monkeypatch)
    adjacency = graph(8)
    first = pagerank(adjacency, n_shards=n_shards)
    assert first.extra["n_shards"] == (n_shards or 1)
    second = pagerank(adjacency, n_shards=n_shards)
    assert second.total_cost == first.total_cost  # priced, not executed
    assert calls == []
    assert np.array_equal(first.vector, second.vector)
