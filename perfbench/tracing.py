"""Span tracing installed from outside the program, for the traced run.

``Tracer.install`` replaces the program's public entry points with
wrappers, each looked up where its caller looks it up, and
``Tracer.uninstall`` puts every original back. A wrapper records
``(name, start, end, parent)`` in memory; calls too frequent to keep one
span each (``PairTable.insert``, ``HashBag.insert``) are summed per name
and per enclosing span instead, so self times stay exact. Untraced runs
never construct a Tracer.
"""
from __future__ import annotations

import functools
import json
import pickle
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

ENGINE_GROUP = ":round:"
_INHERITED = object()
KERNEL_NAMES = ("sparse_reach", "dense_reach", "multi_reach", "ldd_reach", "lelists_round")


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int | None] = [None]
        # name -> [calls, seconds, true_returns] for summed leaf calls
        self.leaf: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.leaf_time_in: dict[int | None, float] = defaultdict(float)
        # time the tracer itself spends inside an open span, kept out of its self time
        self.own_time_in: dict[int | None, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self.job_groups: list[str] = []
        self.cell_tag = ""

    # -- recording -------------------------------------------------------
    def begin(self, name: str) -> Span:
        sp = Span(len(self.spans), self._stack[-1], name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.sid)
        return sp

    def end(self, sp: Span) -> None:
        sp.t1 = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before else None
            sp = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(sp)
            if after:
                after(sp, args, kwargs, out, ctx)
            return out

        return wrapper

    def _leaf_wrapper(self, fn, name):
        stats = self.leaf[name]
        stack = self._stack
        leaf_time_in = self.leaf_time_in
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            stats[0] += 1
            stats[1] += dt
            if out is True:
                stats[2] += 1
            leaf_time_in[stack[-1]] += dt
            return out

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    # -- installation ----------------------------------------------------
    def install(self, spark, driver_kernels: bool) -> None:
        """Wrap the program's layer boundaries. ``driver_kernels`` wraps
        the ``KERNELS`` entries; leave it off when kernels run in Spark
        workers, which would otherwise receive the wrapper by pickle."""
        from repro.cc import connectivity
        from repro.core import engine, hashbag, kernels, pairtable, scc
        from repro.lelists import lelists

        def round_before(args, kwargs):
            eng, kernel_name = args[0], args[1]
            if eng.spark is None:
                return None
            group = f"{self.cell_tag}{ENGINE_GROUP}{kernel_name}:{len(self.job_groups)}"
            self.job_groups.append(group)
            eng.spark.sparkContext.setJobGroup(group, group)
            return group

        def round_after(sp, args, kwargs, out, group):
            eng, kernel_name, pdf_in, params = args[:4]
            shipped = 0
            if group is not None:
                eng.spark.sparkContext.setJobGroup(self.cell_tag, self.cell_tag)
                # only Spark rounds ship their params to the workers
                t0 = time.perf_counter()
                shipped = len(pickle.dumps(params, protocol=pickle.HIGHEST_PROTOCOL))
                self.own_time_in[self._stack[-1]] += time.perf_counter() - t0
            sp.attrs.update(
                kernel=kernel_name,
                rows_in=len(pdf_in),
                rows_out=len(out),
                params_bytes=shipped,
                spark=group is not None,
            )

        def label_after(sp, args, kwargs, out, ctx):
            (vin, _), (vout, _) = args[0], args[1]
            sp.attrs["pairs"] = len(vin) + len(vout)

        def cross_after(sp, args, kwargs, out, ctx):
            sp.attrs["rows"] = len(out)

        self._patch(engine.Engine, "round", self._span_wrapper(
            engine.Engine.round, "Engine.round", after=round_after, before=round_before))
        self._patch(scc, "single_reach",
                    self._span_wrapper(scc.single_reach, "single_reach"))
        self._patch(scc, "multi_reach", self._span_wrapper(scc.multi_reach, "multi_reach"))
        self._patch(scc, "label_batch",
                    self._span_wrapper(scc.label_batch, "label_batch", after=label_after))
        self._patch(scc, "bgss_scc", self._span_wrapper(scc.bgss_scc, "bgss_scc"))
        self._patch(connectivity, "ldd", self._span_wrapper(connectivity.ldd, "ldd"))
        self._patch(connectivity, "cross_cluster_edges_df", self._span_wrapper(
            connectivity.cross_cluster_edges_df, "cross_cluster_edges_df", after=cross_after))
        self._patch(connectivity, "ldd_uf_jtb",
                    self._span_wrapper(connectivity.ldd_uf_jtb, "ldd_uf_jtb"))
        self._patch(lelists, "le_lists", self._span_wrapper(lelists.le_lists, "le_lists"))
        self._patch(pairtable.PairTable, "insert",
                    self._leaf_wrapper(pairtable.PairTable.insert, "PairTable.insert"))
        self._patch(hashbag.HashBag, "insert",
                    self._leaf_wrapper(hashbag.HashBag.insert, "HashBag.insert"))
        if spark is not None:
            session_cls = type(spark)
            df_cls = type(spark.range(1))
            self._patch(session_cls, "createDataFrame", self._span_wrapper(
                session_cls.createDataFrame, "createDataFrame"))
            self._patch(df_cls, "toPandas", self._span_wrapper(df_cls.toPandas, "toPandas"))
        if driver_kernels:
            for name in KERNEL_NAMES:
                self._patch_kernel(kernels.KERNELS, name)

    def _patch_kernel(self, table: dict, name: str) -> None:
        self._patches.append((table, name, table[name]))
        table[name] = self._span_wrapper(table[name], f"kernel.{name}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            elif orig is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> np.ndarray:
        child = np.zeros(len(self.spans))
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.dur
        for times in (self.leaf_time_in, self.own_time_in):
            for sid, t in times.items():
                if sid is not None:
                    child[sid] += t
        return np.array([sp.dur for sp in self.spans]) - child

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps({
                    "id": sp.sid, "parent": sp.parent, "name": sp.name,
                    "start": sp.t0, "end": sp.t1, **sp.attrs,
                }) + "\n")
            for name, (calls, secs, trues) in self.leaf.items():
                f.write(json.dumps({
                    "leaf": name, "calls": calls, "seconds": secs, "true_returns": trues,
                }) + "\n")


def tail_ms(durations_ms: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it: the 11th
    largest value. With fewer than eleven samples there is no such
    percentile and the median is returned."""
    xs = sorted(durations_ms)
    if len(xs) < 11:
        return float(np.median(xs)) if xs else 0.0
    return float(xs[-11])


def spark_job_counts(sc, groups: list[str]) -> tuple[int, int, int]:
    st = sc.statusTracker()
    jobs = stages = tasks = 0
    for g in groups:
        for j in st.getJobIdsForGroup(g):
            info = st.getJobInfo(j)
            if info is None:
                continue
            jobs += 1
            for s in info.stageIds:
                stages += 1
                sinfo = st.getStageInfo(s)
                if sinfo is not None:
                    tasks += sinfo.numTasks
    return jobs, stages, tasks


def event_log_task_seconds(log_dir) -> float:
    """Sum of executor run time over tasks of engine-round jobs, read
    from Spark's event log."""
    stage_ok: set[int] = set()
    run_ms = 0
    for path in sorted(p for p in log_dir.rglob("*") if p.is_file() and p.name[0] != "."):
        with open(path) as f:
            for line in f:
                ev = json.loads(line)
                kind = ev.get("Event")
                if kind == "SparkListenerJobStart":
                    group = (ev.get("Properties") or {}).get("spark.jobGroup.id") or ""
                    if ENGINE_GROUP in group:
                        stage_ok.update(ev.get("Stage IDs", []))
                elif kind == "SparkListenerTaskEnd" and ev.get("Stage ID") in stage_ok:
                    run_ms += (ev.get("Task Metrics") or {}).get("Executor Run Time", 0)
    return run_ms / 1000.0


def per_layer_metrics(tracer, traced_runs, setup_times, spark_start_s, untraced_wall_s,
                      spark_counts, event_log_dir) -> dict:
    """Per-layer metric values of one traced pass, by name."""
    spans = tracer.spans
    selfs = tracer.self_times()
    names = [sp.name for sp in spans]
    kids: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            kids[sp.parent].append(sp)

    def named(name):
        return [sp for sp in spans if sp.name == name]

    def busy(name):
        return sum(sp.dur for sp in named(name))

    def outside_rounds(name):
        return sum(
            sp.dur - sum(k.dur for k in kids[sp.sid] if k.name == "Engine.round")
            for sp in named(name)
        )

    def under_round(name):
        return sum(sp.dur for sp in named(name)
                   if sp.parent is not None and spans[sp.parent].name == "Engine.round")

    ok_runs = [r for r in traced_runs if r.error is None]

    def counter_sum(attr, algo=None):
        return sum(getattr(r.counters, attr) for r in ok_runs if algo in (None, r.cell.algo))

    def phase(name):
        return sum(r.counters.phase_seconds.get(name, 0.0) for r in ok_runs)

    rounds = named("Engine.round")
    round_ms = [sp.dur * 1e3 for sp in rounds]
    jobs, stages, tasks = spark_counts
    pt_calls, pt_secs, pt_new = tracer.leaf["PairTable.insert"]
    cross_s = busy("cross_cluster_edges_df")
    pass_span = named("pass")[0]
    layer_self = sum(t for t, n in zip(selfs, names) if n not in ("pass", "cell"))
    v = {
        "setup.spark_start_s": spark_start_s,
        "setup.generate_s": float(np.median(setup_times.generate_s)),
        "setup.csr_s": float(np.median(setup_times.csr_s)),
        "setup.edges_df_s": float(np.median(setup_times.edges_df_s)),
        "engine.rounds": len(rounds),
        "engine.round_s": sum(sp.dur for sp in rounds),
        "engine.round_ms_p50": float(np.median(round_ms)) if round_ms else 0.0,
        "engine.round_ms_tail": tail_ms(round_ms),
        "engine.ship_s": under_round("createDataFrame"),
        "engine.job_collect_s": under_round("toPandas"),
        "engine.spark_jobs": jobs,
        "engine.spark_stages": stages,
        "engine.spark_tasks": tasks,
        "engine.task_run_s": event_log_task_seconds(event_log_dir) if event_log_dir else 0.0,
        "engine.rows_in": sum(sp.attrs["rows_in"] for sp in rounds),
        "engine.rows_out": sum(sp.attrs["rows_out"] for sp in rounds),
        "engine.params_bytes": sum(sp.attrs["params_bytes"] for sp in rounds),
    }
    for k in KERNEL_NAMES:
        v[f"kernels.{k}.calls"] = len(named(f"kernel.{k}"))
        v[f"kernels.{k}.busy_s"] = busy(f"kernel.{k}")
    v.update({
        "kernels.edge_visits": counter_sum("edge_visits"),
        "hashbag.inserts": tracer.leaf["HashBag.insert"][0],
        "reach.busy_s": busy("single_reach"),
        "reach.merge_s": outside_rounds("single_reach"),
        "multireach.busy_s": busy("multi_reach"),
        "multireach.merge_s": outside_rounds("multi_reach"),
        "pairtable.insert_calls": pt_calls,
        "pairtable.new_pairs": pt_new,
        "pairtable.useful_ratio": pt_new / pt_calls if pt_calls else 0.0,
        "pairtable.insert_s": pt_secs,
        "pairtable.rehash_slots": counter_sum("table_rehash_cost"),
        "labeling.calls": len(named("label_batch")),
        "labeling.pairs": sum(sp.attrs["pairs"] for sp in named("label_batch")),
        "labeling.busy_s": busy("label_batch"),
        "scc.trim_s": phase("trim"),
        "scc.first_scc_s": phase("first_scc"),
        "scc.multi_search_s": phase("multi_search"),
        "scc.labeling_s": phase("labeling"),
        "scc.dense_rounds": counter_sum("dense_rounds", "scc"),
        "cc.ldd_s": phase("ldd"),
        "cc.ldd_merge_s": outside_rounds("ldd"),
        "cc.cross_edges_s": cross_s,
        "cc.cross_edges": sum(sp.attrs["rows"] for sp in named("cross_cluster_edges_df")),
        "cc.union_find_s": phase("union_find") - cross_s,
        "lelists.busy_s": busy("le_lists"),
        "lelists.rounds": counter_sum("rounds", "lelists"),
        "lelists.pair_inserts": counter_sum("pair_inserts", "lelists"),
        "trace.wall_s": pass_span.dur,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead": pass_span.dur / untraced_wall_s - 1.0,
        "trace.attributed_share": layer_self / pass_span.dur,
    })
    return v
