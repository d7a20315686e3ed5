"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scc-spark --seed 1 --seconds 10 --trace 0

The run sets up its inputs from ``--seed``, runs one untimed warm-up
pass over the workload's cells, then runs whole passes over them for
``--seconds`` seconds (at least one pass). Every cell result is checked
after the timed passes. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` adds one traced pass, then one untraced pass to measure
the tracing overhead against, and prints the per-layer metrics.
All scratch output goes to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3
BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["scc-spark", "driver-ablation", "cc-spark-road"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def prepare_environment(root: Path, out: Path) -> None:
    """Pin what Spark and its Python workers inherit, and keep every file
    they write inside ``out``."""
    for sub in ("spark-local", "tmp"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(out / "tmp")
    # spark-submit's launcher JVM would otherwise leave its perf data in /tmp
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={out / 'tmp'}"
    os.environ["REPRO_RESULTS"] = str(out / "results.jsonl")
    for var in ("PYSPARK_SUBMIT_ARGS", "SPARK_LOCAL_DIRS", "SPARK_CONF_DIR"):
        os.environ.pop(var, None)
    sys.path.insert(0, src)


def start_spark(out: Path, trace: bool):
    from pyspark.sql import SparkSession

    cores = min(4, len(os.sched_getaffinity(0)))  # the CPUs this process may use, as nproc counts
    b = (
        SparkSession.builder.master(f"local[{cores}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions",
                f"-Djava.io.tmpdir={out / 'tmp'} -XX:-UsePerfData")
        .config("spark.local.dir", str(out / "spark-local"))
        .config("spark.sql.warehouse.dir", str(out / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.executorEnv.PYTHONHASHSEED", "0")
    )
    if trace:
        (out / "eventlog").mkdir(exist_ok=True)
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", (out / "eventlog").as_uri())
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then end the JVM and wait for it: the JVM exits
    when its stdin closes, which PySpark leaves to interpreter exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()
        gateway.proc.wait(timeout=120)
        SparkContext._gateway = SparkContext._jvm = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload: str, seed: int, spark, spark_start_s: float):
    """Build the inputs ``SETUP_REPEATS`` times; returns the last inputs,
    the per-part samples and ``setup_s``."""
    import workloads as wl

    times = wl.SetupTimes()
    graphs = None
    for _ in range(SETUP_REPEATS):
        if graphs is not None:
            wl.release_inputs(graphs)
        graphs = wl.build_inputs(workload, seed, spark, times)
    one = [g + c + e for g, c, e in zip(times.generate_s, times.csr_s, times.edges_df_s)]
    return graphs, times, spark_start_s + statistics.median(one)


def timed_passes(cells, graphs, spark, seconds: float) -> list[list]:
    """Whole passes over ``cells`` until ``seconds`` have gone by."""
    import workloads as wl

    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append([wl.run_cell(c, graphs, spark) for c in cells])
        print(f"perfbench: pass {len(passes)}: "
              + " ".join(f"{r.seconds:.3f}" for r in passes[-1]), file=sys.stderr)
        if time.perf_counter() - t_start >= seconds:
            return passes


def traced_pass(cells, graphs, spark, driver_kernels: bool):
    import workloads as wl
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(spark, driver_kernels)
    try:
        sp = tracer.begin("pass")
        runs = [wl.run_cell(c, graphs, spark, tracer) for c in cells]
        tracer.end(sp)
    finally:
        tracer.uninstall()
        if spark is not None:
            spark.sparkContext.setLocalProperty("spark.jobGroup.id", None)
    return tracer, runs


def check_all(graphs, passes) -> tuple[int, int, int]:
    """Returns (attempted, failed, mismatched) over every cell run."""
    import workloads as wl

    attempted = failed = mismatched = 0
    for runs in passes:
        for r, ok in zip(runs, wl.check(graphs, runs)):
            attempted += 1
            if not ok:
                failed += 1
                mismatched += r.error is None
                print(f"perfbench: FAILED {r.cell.tag}: {r.error or 'check mismatch'}",
                      file=sys.stderr)
    return attempted, failed, mismatched


def with_units(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under ``kind`` ("end_to_end" or
    "per_layer"), in its order and with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in BENCH[kind]}


def cell_medians(passes, attr: str) -> float:
    """Sum over cells of each cell's median ``attr`` over the passes."""
    return sum(
        statistics.median(getattr(p[i], attr) for p in passes) for i in range(len(passes[0]))
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("perfbench: run from the root of a checkout that holds src/repro",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    out = root / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    prepare_environment(root, out)

    import workloads as wl

    uses_spark = wl.USES_SPARK[args.workload]
    cells = wl.cells(args.workload)
    spark = None
    spark_start_s = 0.0
    try:
        if uses_spark:
            t0 = time.perf_counter()
            spark = start_spark(out, bool(args.trace))
            spark_start_s = time.perf_counter() - t0
        graphs, times, setup_s = set_up(args.workload, args.seed, spark, spark_start_s)
        # Untimed: the first Spark cells of a session pay for JVM and
        # Python-worker start-up that later cells do not.
        t0 = time.perf_counter()
        warm = [wl.run_cell(c, graphs, spark) for c in cells]
        print(f"perfbench: setup {setup_s:.3f} s, warm-up pass {time.perf_counter() - t0:.3f} s",
              file=sys.stderr)
        passes = timed_passes(cells, graphs, spark, args.seconds)
        if args.trace:
            import tracing

            tracer, traced = traced_pass(cells, graphs, spark, driver_kernels=not uses_spark)
            # the overhead baseline: an untraced pass in the same warm state
            control = [wl.run_cell(c, graphs, spark) for c in cells]
            job_counts = (0, 0, 0)
            if spark is not None:
                job_counts = tracing.spark_job_counts(spark.sparkContext, tracer.job_groups)
                stop_spark(spark)  # flushes the event log
                spark = None
            metrics = with_units(tracing.per_layer_metrics(
                tracer, traced, times, spark_start_s, sum(r.seconds for r in control),
                job_counts, out / "eventlog" if uses_spark else None,
            ), "per_layer")
            tracer.dump(out / "spans.jsonl")
            passes += [traced, control]
        else:
            metrics = with_units({
                "wall_s": cell_medians(passes, "seconds"),
                "setup_s": setup_s,
                "rounds": cell_medians(passes, "rounds"),
                "driver_peak_rss_mb": peak_rss_mb(),  # before the checks build their graphs
            }, "end_to_end")
        attempted, failed, mismatched = check_all(graphs, [warm, *passes])
    finally:
        if spark is not None:
            stop_spark(spark)
        for sub in ("spark-local", "tmp", "warehouse"):
            shutil.rmtree(out / sub, ignore_errors=True)

    print(json.dumps({
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
