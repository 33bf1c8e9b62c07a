"""The Spark process the benchmark drives: launch, peak memory, event log.

Session settings follow the test suite's ``conftest.py`` (64 shuffle
partitions, broadcast joins off, Arrow on) on ``local[4]``. Everything Spark
writes (shuffle files, checkpoints, temp files, the event log) goes under
``out_dir`` inside the checkout, which ``.gitignore`` excludes.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

CORES = 4
DRIVER_MEMORY = "2g"


def prepare_env(out_dir: Path) -> None:
    """Point the JVM launch and every temp directory at ``out_dir``.

    Must run before pyspark launches its JVM: ``PYSPARK_SUBMIT_ARGS`` is read
    once, at the first session start of the process.
    """
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    src = str(Path.cwd() / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    # the JVM keeps its performance counters under /tmp whatever its tmpdir;
    # without them it writes nothing outside out_dir
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '-Xms{DRIVER_MEMORY} -XX:-UsePerfData -Djava.io.tmpdir={tmp}' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )


def start_session(out_dir: Path, *, event_log: bool = False):
    """A fresh SparkSession (the JVM is launched by the first call only)."""
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.appName("perfbench")
        .config("spark.local.dir", str(out_dir / "spark-local"))
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
    )
    if event_log:
        log_dir = out_dir / "eventlog"
        log_dir.mkdir(parents=True, exist_ok=True)
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", log_dir.resolve().as_uri())
            # Spark 4 compresses with zstd by default; the Python zstandard
            # module is not available to read it back
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown(spark) -> None:
    """Stop the session, then end the JVM and wait until it has exited.

    The gateway JVM exits when its stdin closes; its Python workers exit
    with it.
    """
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    gateway.proc.stdin.close()
    gateway.proc.wait(timeout=60)
    SparkContext._gateway = SparkContext._jvm = None


def highest_job_id(spark) -> int:
    """The highest Spark job id submitted so far (-1 before the first job).

    Jobs run between two calls are the difference of the two results. The
    status tracker keeps only the most recent jobs, so counting the ids it
    lists would undercount; the highest id does not.
    """
    ids = spark.sparkContext.statusTracker().getJobIdsForGroup(None)
    return max(ids) if ids else -1


# ------------------------------------------------------------- peak memory
def _vm_hwm_kb(pid: int | str) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _children(pid: int) -> list[int]:
    out: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        kids = (task / "children").read_text().split()
        out.extend(int(k) for k in kids)
    return out


def jvm_pid() -> int | None:
    """Pid of the driver JVM: the first ``java`` process below this one."""
    todo = _children(os.getpid())
    while todo:
        pid = todo.pop(0)
        try:
            comm = Path(f"/proc/{pid}/comm").read_text().strip()
            if comm == "java":
                return pid
            todo.extend(_children(pid))
        except OSError:
            continue
    return None


def peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) of this Python driver plus its JVM, in MiB."""
    kb = _vm_hwm_kb("self")
    pid = jvm_pid()
    if pid is not None:
        kb += _vm_hwm_kb(pid)
    return kb / 1024.0


# --------------------------------------------------------------- event log
def engine_counters(log_file: Path, tag_key: str, tags: set[str]) -> dict:
    """Jobs, stages, tasks, shuffle bytes and task busy time of the jobs whose
    local property ``tag_key`` is in ``tags``, read from an uncompressed
    Spark event log."""
    stage_ids: set[int] = set()
    jobs = 0
    submitted: set[int] = set()
    tasks = 0
    busy_ms = 0
    shuffle = 0
    with open(log_file) as f:
        for line in f:
            ev = json.loads(line)
            kind = ev["Event"]
            if kind == "SparkListenerJobStart":
                if (ev.get("Properties") or {}).get(tag_key) in tags:
                    jobs += 1
                    stage_ids.update(ev["Stage IDs"])
            elif kind == "SparkListenerStageSubmitted":
                submitted.add(ev["Stage Info"]["Stage ID"])
            elif kind == "SparkListenerTaskEnd" and ev["Stage ID"] in stage_ids:
                tasks += 1
                m = ev.get("Task Metrics") or {}
                busy_ms += m.get("Executor Run Time", 0)
                shuffle += (m.get("Shuffle Write Metrics") or {}).get(
                    "Shuffle Bytes Written", 0
                )
    return {
        "jobs": jobs,
        "stages": len(stage_ids & submitted),
        "tasks": tasks,
        "shuffle_bytes": shuffle,
        "task_busy_s": busy_ms / 1000.0,
    }
