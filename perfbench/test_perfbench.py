"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads as wl  # noqa: E402
from repro.core import csr as csrmod  # noqa: E402
from repro.core import engine, hashbag, kernels, pairtable, scc  # noqa: E402
from repro.lelists.lelists import le_lists  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _two_cycles():
    # SCCs {0,1,2} and {3,4}, plus a bridge 2->3 and a sink 5.
    src = np.array([0, 1, 2, 3, 4, 2, 4], dtype=np.int64)
    dst = np.array([1, 2, 0, 4, 3, 3, 5], dtype=np.int64)
    return 6, src, dst


def _small_graphs() -> dict[str, wl.Graph]:
    n, src, dst = _two_cycles()
    g = wl.Graph("G", n, src, dst, csrmod.from_arrays(n, src, dst))
    g.order = np.random.default_rng(0).permutation(n).astype(np.int64)
    return {"G": g}


def test_checker_flags_corrupted_labels():
    graphs = _small_graphs()
    g = graphs["G"]
    res = scc.bgss_scc(None, csr=g.csr, variant="final")
    good = verify.canon(res.labels)
    assert verify.same_partition(good, verify.scc_reference(g.n, g.src, g.dst))
    bad_labels = res.labels.copy()
    bad_labels[0] = bad_labels[3]  # moves vertex 0 into the other SCC
    run = wl.CellRun(wl.Cell("G", "scc", "final", "driver"), 0.1, output=verify.canon(bad_labels))
    assert wl.check(graphs, [run]) == [False]
    run = wl.CellRun(wl.Cell("G", "scc", "final", "driver"), 0.1, output=good)
    assert wl.check(graphs, [run]) == [True]


def test_checker_flags_variant_disagreement():
    graphs = _small_graphs()
    g = graphs["G"]
    good = verify.scc_reference(g.n, g.src, g.dst)
    split = good.copy()
    split[1] = 1  # splits {0,1,2}: disagrees with networkx and with gbbs
    runs = [wl.CellRun(wl.Cell("G", "scc", v, "driver"), 0.1, output=o)
            for v, o in (("gbbs", good), ("final", split))]
    assert wl.check(graphs, runs) == [True, False]


def test_lelists_reference_matches_program_and_flags_corruption():
    graphs = _small_graphs()
    g = graphs["G"]
    sym_src = np.concatenate([g.src, g.dst])
    sym_dst = np.concatenate([g.dst, g.src])
    c = csrmod.from_arrays(g.n, sym_src, sym_dst)
    g = wl.Graph("G", g.n, sym_src, sym_dst, c, order=g.order)
    got = le_lists(None, csr=c, order=g.order).lists
    assert got == verify.lelists_reference(c.indptr, c.indices, g.order)
    cell = wl.Cell("G", "lelists", "ours", "driver")
    bad = [list(x) for x in got]
    bad[0][-1] = (bad[0][-1][0], bad[0][-1][1] + 1)
    assert wl.check({"G": g}, [wl.CellRun(cell, 0.1, output=got)]) == [True]
    assert wl.check({"G": g}, [wl.CellRun(cell, 0.1, output=bad)]) == [False]


def _entry_points():
    from repro.cc import connectivity
    from repro.lelists import lelists

    return {
        "Engine.round": engine.Engine.__dict__["round"],
        "single_reach": scc.single_reach,
        "multi_reach": scc.multi_reach,
        "label_batch": scc.label_batch,
        "bgss_scc": scc.bgss_scc,
        "ldd": connectivity.ldd,
        "cross": connectivity.cross_cluster_edges_df,
        "ldd_uf_jtb": connectivity.ldd_uf_jtb,
        "le_lists": lelists.le_lists,
        "PairTable.insert": pairtable.PairTable.__dict__["insert"],
        "HashBag.insert": hashbag.HashBag.__dict__["insert"],
        **{f"kernel.{k}": kernels.KERNELS[k] for k in kernels.KERNELS},
    }


def test_trace_wrappers_removed_and_per_layer_metrics_computed():
    before = _entry_points()
    graphs = _small_graphs()
    tracer = tracing.Tracer()
    tracer.install(None, driver_kernels=True)
    try:
        assert _entry_points()["Engine.round"] is not before["Engine.round"]
        sp = tracer.begin("pass")
        runs = [wl.run_cell(wl.Cell("G", "scc", v, "driver"), graphs, None, tracer)
                for v in wl.SCC_VARIANTS]
        tracer.end(sp)
    finally:
        tracer.uninstall()
    assert _entry_points() == before
    assert all(r.error is None for r in runs)
    names = {s.name for s in tracer.spans}
    assert {"cell", "bgss_scc", "single_reach", "Engine.round"} <= names
    assert any(n.startswith("kernel.") for n in names)
    metrics = run.with_units(tracing.per_layer_metrics(
        tracer, runs, wl.SetupTimes([0.1], [0.1], [0.0]), 0.0, 1.0, (0, 0, 0), None), "per_layer")
    assert metrics["engine.rounds"]["value"] == sum(r.rounds for r in runs)
    assert metrics["engine.params_bytes"]["value"] == 0  # driver rounds ship nothing


@pytest.mark.spark
def test_spark_wrappers_removed(spark):
    session_cls, df_cls = type(spark), type(spark.range(1))
    before = (session_cls.__dict__.get("createDataFrame"), df_cls.__dict__.get("toPandas"))
    tracer = tracing.Tracer()
    tracer.install(spark, driver_kernels=False)
    try:
        spark.createDataFrame([(1,)], "x long").toPandas()
    finally:
        tracer.uninstall()
    assert (session_cls.__dict__.get("createDataFrame"), df_cls.__dict__.get("toPandas")) == before
    assert [s.name for s in tracer.spans] == ["createDataFrame", "toPandas"]


def test_printed_end_to_end_names_match_benchmark_json():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "driver-ablation", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == 2 * len(wl.cells("driver-ablation"))  # warm-up and one timed pass
    assert list(out["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "scc-spark", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
