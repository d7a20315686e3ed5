"""The benchmark's three workloads: their inputs, cells and checks.

A cell is one (graph, algorithm, variant) run on one path. Inputs are
made from the workload seed through the program's own graph layer
(``repro.graphs``); the algorithms receive only the generated inputs.
Graph sizes are scaled down from ``jobs/`` defaults so that a run,
Spark start included, stays well under a minute on 4 cores.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import verify
from repro.cc import connectivity
from repro.core import csr as csrmod
from repro.core import scc as scc_mod
from repro.graphs import generators as gen
from repro.graphs.suite import GraphSpec, lelists_suite, table2_suite
from repro.lelists import lelists as lelists_mod

CELL_BUDGET_S = 120.0  # a cell over this raises TimeoutError and fails
SCC_VARIANTS = ("gbbs", "plain", "vgc1", "final")
LE_VARIANTS = ("ours", "parlay")


@dataclass
class Graph:
    name: str
    n: int
    src: np.ndarray
    dst: np.ndarray
    csr: csrmod.CSR
    edges_df: object = None  # cached Spark edge DataFrame, when the cell needs it
    order: np.ndarray | None = None  # LE-lists priority order
    refs: dict = field(default_factory=dict)  # reference results, built on first check


@dataclass(frozen=True)
class Cell:
    graph: str
    algo: str  # "scc" | "cc" | "lelists"
    variant: str
    path: str  # "spark" | "driver"

    @property
    def tag(self) -> str:
        return f"{self.algo}:{self.graph}:{self.variant}:{self.path}"


@dataclass
class CellRun:
    cell: Cell
    seconds: float
    rounds: int = 0
    counters: object = None
    output: object = None  # canonical partition, or LE-lists
    error: str | None = None


@dataclass
class SetupTimes:
    generate_s: list[float] = field(default_factory=list)
    csr_s: list[float] = field(default_factory=list)
    edges_df_s: list[float] = field(default_factory=list)


USES_SPARK = {"scc-spark": True, "driver-ablation": False, "cc-spark-road": True}

SCC_SPARK_SCALE = 0.25
SCC_SPARK_GRAPHS = ("LAT-SQRp'",)
DRIVER_SCALE = 1.0
DRIVER_GRAPHS = ("KNN-GL2'", "LAT-SQRp'", "LAT-RECp'")
LE_SCALE = 1.0
LE_GRAPHS = ("LAT-SQR'-sym", "ROAD-GE'")
ROAD_SHAPE = (256, 512)


def cells(workload: str) -> list[Cell]:
    if workload == "scc-spark":
        return [Cell(g, "scc", "final", "spark") for g in SCC_SPARK_GRAPHS]
    if workload == "driver-ablation":
        return [Cell(g, "scc", v, "driver") for g in DRIVER_GRAPHS for v in SCC_VARIANTS] + [
            Cell(g, "lelists", v, "driver") for g in LE_GRAPHS for v in LE_VARIANTS
        ]
    if workload == "cc-spark-road":
        return [Cell("ROAD'", "cc", "ours", "spark")]
    raise KeyError(workload)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _giant_component(name: str, n: int, src: np.ndarray, dst: np.ndarray) -> GraphSpec:
    """The connected component holding more than half the vertices of a
    symmetric graph, with vertex ids renumbered densely.

    ``road`` drops 10% of the grid edges, which leaves a dozen or so tiny
    components. LDD reaches each only when its source batch is injected,
    so they add nearly empty rounds whose number depends on where they
    fall in the source order: 14 to 18 Spark-path rounds over seeds 1-5,
    against 7 or 8 for the giant component alone."""
    c = csrmod.from_arrays(n, src, dst)
    seen = np.zeros(n, dtype=bool)
    while True:
        root = int(np.argmin(seen))
        if seen[root]:
            raise ValueError(f"{name}: no component holds half the vertices")
        reached = verify.bfs_distances(c.indptr, c.indices, root) >= 0
        if 2 * reached.sum() > n:
            break
        seen |= reached
    new_id = np.cumsum(reached) - 1
    keep = reached[src]
    return GraphSpec(name, "road", int(reached.sum()), new_id[src[keep]], new_id[dst[keep]])


def build_inputs(workload: str, seed: int, spark, times: SetupTimes) -> dict[str, Graph]:
    """Generate the workload's graphs from ``seed``; appends one sample
    to each of ``times``' lists."""
    if workload == "scc-spark":
        specs, gen_s = _timed(lambda: [
            g for g in table2_suite(SCC_SPARK_SCALE, seed=seed) if g.name in SCC_SPARK_GRAPHS
        ])
    elif workload == "driver-ablation":
        def make():
            specs = [g for g in table2_suite(DRIVER_SCALE, seed=seed) if g.name in DRIVER_GRAPHS]
            return specs + [g for g in lelists_suite(LE_SCALE, seed=seed) if g.name in LE_GRAPHS]
        specs, gen_s = _timed(make)
    else:
        rows, cols = ROAD_SHAPE
        specs, gen_s = _timed(lambda: [
            _giant_component("ROAD'", rows * cols, *gen.road(rows, cols, seed=seed))
        ])
    graphs, csr_s = _timed(lambda: {
        s.name: Graph(s.name, s.n, s.src, s.dst, csrmod.from_arrays(s.n, s.src, s.dst))
        for s in specs
    })
    edf_s = 0.0
    if workload == "cc-spark-road":
        g = graphs["ROAD'"]

        def make_df():
            df = gen.to_df(spark, g.src, g.dst).cache()
            df.count()
            return df

        g.edges_df, edf_s = _timed(make_df)
    rng = np.random.default_rng(seed)
    for name in LE_GRAPHS:
        if name in graphs:
            graphs[name].order = rng.permutation(graphs[name].n).astype(np.int64)
    times.generate_s.append(gen_s)
    times.csr_s.append(csr_s)
    times.edges_df_s.append(edf_s)
    return graphs


def release_inputs(graphs: dict[str, Graph]) -> None:
    for g in graphs.values():
        if g.edges_df is not None:
            g.edges_df.unpersist()


def _call(cell: Cell, g: Graph, spark):
    spark_kw = dict(force_spark=True, spark_threshold=0) if cell.path == "spark" else {}
    session = spark if cell.path == "spark" else None
    if cell.algo == "scc":
        return scc_mod.bgss_scc(
            session, csr=g.csr, variant=cell.variant, time_budget_s=CELL_BUDGET_S, **spark_kw
        )
    if cell.algo == "cc":
        return connectivity.ldd_uf_jtb(
            session, edges_df=g.edges_df, csr=g.csr, variant=cell.variant,
            time_budget_s=CELL_BUDGET_S, **spark_kw,
        )
    return lelists_mod.le_lists(
        session, csr=g.csr, order=g.order, variant=cell.variant,
        time_budget_s=CELL_BUDGET_S, **spark_kw,
    )


def run_cell(cell: Cell, graphs: dict[str, Graph], spark, tracer=None) -> CellRun:
    g = graphs[cell.graph]
    sp = None
    if tracer is not None:
        tracer.cell_tag = cell.tag
        if spark is not None:
            spark.sparkContext.setJobGroup(cell.tag, cell.tag)
        sp = tracer.begin("cell")
    t0 = time.perf_counter()
    try:
        res = _call(cell, g, spark)
    except Exception as e:  # a raising or timed-out cell is a failed operation
        return CellRun(cell, time.perf_counter() - t0, error=f"{type(e).__name__}: {e}")
    finally:
        if sp is not None:
            tracer.end(sp)
    seconds = time.perf_counter() - t0
    output = res.lists if cell.algo == "lelists" else verify.canon(res.labels)
    return CellRun(cell, seconds, res.counters.rounds, res.counters, output)


def check(graphs: dict[str, Graph], runs: list[CellRun]) -> list[bool]:
    """Per cell run: True iff it finished and matched every independent
    check. SCC/CC partitions are compared with networkx, LE-lists with a
    BFS reference; all SCC variants of one graph must agree with each
    other, and a Spark-path SCC partition with the driver-path one."""
    def ref(kind: str, name: str):
        g = graphs[name]
        if kind not in g.refs:
            if kind == "scc":
                g.refs[kind] = verify.scc_reference(g.n, g.src, g.dst)
            elif kind == "cc":
                g.refs[kind] = verify.cc_reference(g.n, g.src, g.dst)
            elif kind == "lelists":
                g.refs[kind] = verify.lelists_reference(g.csr.indptr, g.csr.indices, g.order)
            else:  # driver-path partition of the Spark-path variant, "final"
                g.refs[kind] = verify.canon(scc_mod.bgss_scc(None, csr=g.csr).labels)
        return g.refs[kind]

    ok = []
    by_graph: dict[str, list[int]] = {}
    for i, r in enumerate(runs):
        c = r.cell
        if r.error is not None:
            ok.append(False)
            continue
        if c.algo == "lelists":
            good = r.output == ref("lelists", c.graph)
        else:
            good = verify.same_partition(r.output, ref(c.algo, c.graph))
            if c.algo == "scc" and c.path == "spark":
                good = good and verify.same_partition(r.output, ref("scc-driver", c.graph))
            if c.algo == "scc":
                by_graph.setdefault(c.graph, []).append(i)
        ok.append(bool(good))
    for idx in by_graph.values():
        first = runs[idx[0]].output
        for i in idx[1:]:
            if not verify.same_partition(runs[i].output, first):
                ok[i] = False
    return ok
