"""The totaldom benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS below, or ``all`` (the default) to run each in turn.
The program is measured from outside: search workloads start the CLI as a
user does (``python3 -m totaldom search ...``), and profile-mid calls
``totaldom.cli.main`` in a closed loop (profile_loop.py).  With ``--trace 1``
the same operations run once untraced and once under tracer.py, and only
per-layer metrics are reported.  See perfbench/README.md for every metric.

Human-readable results go to stderr.  Standard output carries a detail line
(provenance, sample counts, checks) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("search-n8", "search-n8-resume", "profile-mid")  # why each: BENCHMARK.json
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "query_p50_ms": "ms", "query_p99_ms": "ms"}

# OEIS A001349: connected graphs on n = 2..8 vertices
CONNECTED_CLASSES = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
ASSERTION_IDS = ("T12", "L12A", "L12B", "P7A", "T14", "HR97", "DIAM3", "T11EQ")
SETUP_SAMPLES = 7
MIN_QUERIES = 2000  # query_p99_ms then has at least 20 samples beyond it
CORPUS_SLOTS = 2400
DIGEST_QUERIES = 32
WATCH_PERIOD_S = 0.1


def child_timeout_s(seconds: float) -> float:
    """How long a measured process may run before it is killed."""
    return max(170.0, 2 * seconds + 60)


class Context:
    """Paths, environment and speed probe of one benchmark run in a checkout."""

    def __init__(self, root: str, probe: speed.SpeedProbe, seconds: float = 0.0):
        self.root = root
        self.probe = probe
        self.timeout = child_timeout_s(seconds)
        self.unscaled: list[str] = []  # why times of some measured process were left raw
        self.state = os.path.join(root, ".perfbench")
        self.work = os.path.join(self.state, "work", str(os.getpid()))
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


class Process(NamedTuple):
    rc: int
    wall: float  # seconds at nominal machine speed
    cpu: float  # user plus system CPU seconds at nominal speed
    rss_mb: float  # peak resident memory
    raw_wall: float  # seconds as the clock read them
    pace: float  # the factor that scaled its times to nominal speed; 1 if left unscaled
    scaled: bool


class Watch:
    """Polls a running process for a second thread or a child process.

    The speed probe shares the one CPU the benchmark is pinned to, so its
    block time measures the CPU's speed only while the measured process adds
    a single runnable task there.  A process that runs more is not scaled.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.reason: str | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while self.reason is None and not self._stop.wait(WATCH_PERIOD_S):
            try:
                with open(f"/proc/{self.pid}/stat", encoding="ascii") as fh:
                    threads = int(fh.read().rsplit(")", 1)[1].split()[17])  # field 20, num_threads
            except (OSError, IndexError, ValueError):
                return  # the process has been reaped
            try:
                with open(f"/proc/{self.pid}/task/{self.pid}/children", encoding="ascii") as fh:
                    children = len(fh.read().split())
            except OSError:
                children = 0  # a kernel without the children file: threads are still seen
            if threads > 1:
                self.reason = f"it ran {threads} threads"
            elif children:
                self.reason = f"it started {children} child process(es)"

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def spawn(ctx: Context, argv: list[str], stdout_path: str) -> Process:
    """Run one process to completion and measure it with wait4.

    The process inherits the benchmark's CPU pin, so the speed probe samples
    the CPU it runs on while it runs.  Its times are scaled to nominal speed
    only if it stayed single-threaded without children on that one CPU;
    otherwise they are reported raw and the reason is kept in ctx.unscaled.
    """
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ctx.env, cwd=ctx.root)
        timer = threading.Timer(ctx.timeout, proc.kill)
        timer.start()
        watch = Watch(proc.pid)
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
            reaped = True
        finally:
            timer.cancel()
            watch.stop()
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    raw_wall, raw_cpu = t1 - t0, usage.ru_utime + usage.ru_stime
    reason = watch.reason
    if reason is None and raw_cpu > 1.05 * raw_wall:
        reason = f"it used {raw_cpu / raw_wall:.2f} CPUs"
    if reason is None:
        pace = ctx.probe.speed(t0, t1)
    else:
        pace = 1.0
        ctx.unscaled.append(f"{' '.join(os.path.basename(a) for a in argv[1:4])}: {reason}")
    return Process(proc.returncode, raw_wall * pace, raw_cpu * pace, usage.ru_maxrss / 1024.0,
                   raw_wall, pace, reason is None)


def measure_setup(ctx: Context) -> float:
    """Median time of a fresh interpreter running `import totaldom`."""
    argv = [sys.executable, "-c", "import totaldom"]
    spawn(ctx, argv, ctx.path("setup.out"))  # fills the bytecode cache
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = spawn(ctx, argv, ctx.path("setup.out"))
        if proc.rc != 0:
            raise RuntimeError("`import totaldom` failed in a fresh interpreter")
        samples.append(proc.wall)
    return statistics.median(samples)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# output checks


def check_report(text: str) -> str | None:
    report = json.loads(text)
    if report["classified"] != sum(CONNECTED_CLASSES.values()):
        return f"classified {report['classified']}, expected {sum(CONNECTED_CLASSES.values())}"
    if tuple(report["assertions"]) != ASSERTION_IDS:
        return f"assertion ids {list(report['assertions'])}"
    for name, block in report["assertions"].items():
        if block["violations"]:
            return f"assertion {name} reports violations"
    return None


def _decode_graph6(text: str) -> tuple[int, list[int]]:
    data = [ord(c) - 63 for c in text]
    n = data[0]
    bits = "".join(format(x, "06b") for x in data[1:])
    adj = [0] * n
    pos = 0
    for v in range(1, n):
        for u in range(v):
            if bits[pos] == "1":
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pos += 1
    return n, adj


def _decode_key(key: bytes) -> list[int]:
    """Adjacency the canonical key spells out: row i holds i bits, j = 0 first."""
    n = key[0]
    total = n * (n - 1) // 2
    bits = format(int.from_bytes(key[1:], "big"), f"0{8 * (len(key) - 1)}b")[:total]
    adj = [0] * n
    pos = 0
    for i in range(1, n):
        for j in range(i):
            if bits[pos] == "1":
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return adj


def check_catalog(ctx: Context, path: str) -> str | None:
    """One line per class, per-order counts of A001349, graph6 matching key."""
    sys.path.insert(0, os.path.join(ctx.root, "src"))
    from totaldom.graphs import canonical_key

    per_order: dict[int, int] = {}
    keys = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            record = json.loads(line)
            key = bytes.fromhex(record["canonical_key"])
            n, adj = _decode_graph6(record["graph6"])
            if record["n"] != n or adj != _decode_key(key):
                return f"line {lineno}: graph6 and canonical key describe different graphs"
            if canonical_key(n, tuple(adj)) != key:
                return f"line {lineno}: key is not the canonical key of its graph"
            keys.add(key)
            per_order[n] = per_order.get(n, 0) + 1
    if per_order != CONNECTED_CLASSES:
        return f"per-order class counts {per_order} differ from OEIS A001349"
    if len(keys) != sum(per_order.values()):
        return "catalog repeats a class"
    return None


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(spans_file: str) -> tuple[dict[str, float], dict[str, int]]:
    """Calls and self seconds per layer, and the tracer's counters.

    A span's self time is its busy time minus the busy time of its children.
    """
    with open(spans_file, encoding="utf-8") as fh:
        dump = json.load(fh)
    spans = dump["spans"]
    child_busy = [0.0] * len(spans)
    for _, _, _, parent, busy, _ in spans:
        if parent >= 0:
            child_busy[parent] += busy
    totals: dict[str, float] = {}
    for index, (layer, _, _, _, busy, _) in enumerate(spans):
        name = dump["layers"][layer]
        totals[name + ".calls"] = totals.get(name + ".calls", 0) + 1
        totals[name + ".self_s"] = totals.get(name + ".self_s", 0.0) + busy - child_busy[index]
    return totals, dump["counters"]


def per_layer_metrics(spans_file: str, pace: float, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric; self times are scaled by the traced process's pace."""
    import tracer

    totals, counters = layer_metrics(spans_file)
    metrics: dict[str, float] = {}
    for layer in tracer.load_layers():
        metrics[layer["name"] + ".calls"] = totals.get(layer["name"] + ".calls", 0)
        metrics[layer["name"] + ".self_s"] = totals.get(layer["name"] + ".self_s", 0.0) * pace
    classes = counters.get("search.enumerate_graphs.items", 0)
    keys = metrics["graphs.canonical_key.calls"]
    metrics["search.keys_per_class"] = keys / classes if classes else 0.0
    metrics["hypergraph.transversals_out"] = counters.get("hypergraph.transversals_out", 0)
    metrics["trace.overhead_s"] = overhead_s
    return metrics


def trace_dir(ctx: Context, workload: str) -> str:
    """Where the spans of a workload's latest traced run are kept."""
    path = os.path.join(ctx.state, "traces", workload)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# workloads


def source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def prepared_catalog(ctx: Context, detail: dict) -> tuple[str, bytes]:
    """A complete n <= 8 catalog and its fresh report, made once per source tree."""
    cache = os.path.join(ctx.state, "cache", "resume-" + source_digest(ctx.root)[:16])
    catalog = os.path.join(cache, "catalog.jsonl")
    if not os.path.exists(catalog):
        tmp = ctx.path("prepare")
        os.makedirs(tmp)
        argv = [sys.executable, "-m", "totaldom", "search", "--n-max", "8",
                "--out", os.path.join(tmp, "catalog.jsonl")]
        rc = spawn(ctx, argv, os.path.join(tmp, "report.json")).rc
        with open(os.path.join(tmp, "report.json"), "rb") as fh:
            text = fh.read()
        problem = f"exit code {rc}" if rc != 0 else check_report(text) or check_catalog(ctx, os.path.join(tmp, "catalog.jsonl"))
        if problem:
            raise RuntimeError(f"preparing the resume catalog: {problem}")
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        os.replace(tmp, cache)
    detail["prepared_catalog"] = os.path.relpath(catalog, ctx.root)
    with open(os.path.join(cache, "report.json"), "rb") as fh:
        return catalog, fh.read()


def search_operation(ctx: Context, index: int, reference: tuple | None,
                     spans: str | None) -> tuple[Process, str | None]:
    """One search process and the reason it failed, if it did."""
    catalog = ctx.path(f"catalog{index}.jsonl")
    if reference is not None:
        shutil.copyfile(reference[0], catalog)
    args = ["search", "--n-max", "8", "--out", catalog]
    if spans is None:
        argv = [sys.executable, "-m", "totaldom"] + args
    else:
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), "--spans", spans, "--"] + args
    stdout = ctx.path(f"report{index}.json")
    proc = spawn(ctx, argv, stdout)
    with open(stdout, "rb") as fh:
        text = fh.read()
    if proc.rc != 0:
        problem = f"exit code {proc.rc}"
    elif reference is not None:
        problem = None if text == reference[1] else "resume report differs from the fresh report"
    else:
        problem = check_report(text) or check_catalog(ctx, catalog)
    os.remove(catalog)
    return proc, problem


def run_search_workload(ctx: Context, workload: str, trace: bool, detail: dict):
    """One search (a second, traced, with --trace 1); the seed plays no part."""
    reference = prepared_catalog(ctx, detail) if workload == "search-n8-resume" else None
    plain, problem = search_operation(ctx, 0, reference, None)
    problems = [problem] if problem else []
    if trace:
        spans = os.path.join(trace_dir(ctx, workload), "spans.json")
        traced, problem = search_operation(ctx, 1, reference, spans)
        problems += [problem] if problem else []
        metrics = per_layer_metrics(spans, traced.pace, traced.wall - plain.wall)
        if workload == "search-n8":
            detail["count_check"], problem = count_check(ctx.root, metrics)
            problems += [problem] if problem else []
        return metrics, 2, problems
    detail["samples"] = {"searches": 1, "raw_wall_s": plain.raw_wall, "setup_imports": SETUP_SAMPLES}
    # Every run reports every end-to-end metric.  A search run holds one
    # operation, so its latency percentiles are that search's time.
    metrics = {
        "wall_s": plain.wall,
        "cpu_s": plain.cpu,
        "peak_rss_mb": plain.rss_mb,
        "query_p50_ms": 1000 * plain.wall,
        "query_p99_ms": 1000 * plain.wall,
    }
    return metrics, 1, problems


def count_check(root: str, metrics: dict) -> tuple[dict, str | None]:
    """Compare the traced search-n8 counts with the ones the baseline froze.

    The baseline's source must reproduce them exactly, so a mismatch there
    fails the run.  Changed source may change them on purpose: a mismatch
    is then only reported.
    """
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)
    frozen = baseline["exact_counts"]["search-n8"]
    seen = {name: metrics[name] for name in frozen}
    same_source = source_digest(root) == baseline["source_sha256"]
    result = {"frozen": frozen, "seen": seen, "match": seen == frozen, "baseline_source": same_source}
    if seen != frozen and same_source:
        return result, f"traced counts {seen} differ from {frozen}, frozen at this source"
    return result, None


def write_corpus(ctx: Context, seed: int, slots: int = CORPUS_SLOTS) -> corpus.Corpus:
    """The seed's corpus in the work directory; a shorter one is its prefix."""
    work = corpus.Corpus(seed, slots)
    for gid, g in enumerate(work.graphs):
        with open(ctx.path(f"g{gid}.txt"), "w", encoding="utf-8") as fh:
            fh.write(g.edge_list())
    with open(ctx.path("queries.json"), "w", encoding="utf-8") as fh:
        json.dump([{"argv": q["argv"]} for q in work.queries], fh)
    return work


def profile_pass(ctx: Context, name: str, loop_args: list[str], spans: str | None):
    """One profile_loop.py process and its answers, with times at nominal speed."""
    results = ctx.path(name + ".jsonl")
    argv = [sys.executable, os.path.join(HERE, "profile_loop.py"), "--work", ctx.work,
            "--out", results] + loop_args
    if spans is not None:
        argv += ["--spans", spans]
    proc = spawn(ctx, argv, ctx.path(name + ".out"))
    if proc.rc != 0:
        with open(ctx.path(name + ".out.err"), encoding="utf-8", errors="replace") as fh:
            raise RuntimeError(f"profile loop exited with {proc.rc}: {fh.read()[-2000:]}")
    with open(results, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    os.remove(results)
    for record in records:
        pace = ctx.probe.speed(record["t0"], record["t0"] + record["wall"]) if proc.scaled else 1.0
        record["raw_wall"] = record["wall"]
        record["wall"] *= pace
        record["cpu"] *= pace
    return records, proc


def check_records(work: corpus.Corpus, records: list[dict]) -> list[str]:
    problems = []
    for record in records:
        problem = check_query(work, record)
        if problem:
            problems.append(f"{' '.join(record['argv'])}: {problem}")
    return problems


def check_query(work: corpus.Corpus, record: dict) -> str | None:
    q = work.queries[record["slot"]]
    kind, rc = record["argv"][0], record["rc"]
    allowed = {"recognize": (0, 1), "w2-check": (1,) if not q.get("recipe") else ()}.get(kind, ())
    if rc != 0 and rc not in allowed:
        return f"exit code {rc}: {record['err'].strip()[-200:]}"
    try:
        out = json.loads(record["out"])
    except json.JSONDecodeError:
        return "stdout is not JSON"
    graph = work.graphs[q["graph"]] if "graph" in q else None
    if kind == "analyze":
        return corpus.check_analyze(graph, out, q["recipe"])
    if kind == "recognize":
        return corpus.check_recognize(graph, q, rc, out)
    if kind == "realize":
        return corpus.check_realize(q, out)
    if kind == "construct-w2":
        return corpus.check_rebuild(graph, out)
    return None  # w2-check: its recipe is judged by the construct-w2 follow-up


def stdout_digest(records: list[dict]) -> str:
    digest = hashlib.sha256()
    for record in records[:DIGEST_QUERIES]:
        digest.update(json.dumps([record["argv"], record["rc"], record["out"]]).encode() + b"\n")
    return digest.hexdigest()


def digest_check(seed: int, records: list[dict]) -> tuple[dict, str | None]:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        frozen = json.load(fh)["seeds"].get(str(seed))
    seen = stdout_digest(records)
    result = {"seed": seed, "queries": DIGEST_QUERIES, "digest": seen, "frozen": frozen}
    if frozen is None:
        return result, None
    return result, None if seen == frozen else "stdout digest differs from the frozen one"


def run_profile(ctx: Context, seed: int, seconds: float, trace: bool, detail: dict):
    work = write_corpus(ctx, seed)
    loop = ["--seconds", str(seconds), "--min-queries", str(MIN_QUERIES)]
    if trace:
        spans = os.path.join(trace_dir(ctx, "profile-mid"), "spans.json")
        traced, proc = profile_pass(ctx, "traced", loop, spans)
        plain, _ = profile_pass(ctx, "plain", ["--count", str(len(traced))], None)
        problems = check_records(work, traced) + check_records(work, plain)
        overhead = (sum(r["wall"] for r in traced) - sum(r["wall"] for r in plain)) / len(traced)
        return per_layer_metrics(spans, proc.pace, overhead), len(traced) + len(plain), problems
    records, proc = profile_pass(ctx, "plain", loop, None)
    problems = check_records(work, records)
    detail["digest"], problem = digest_check(seed, records)
    walls = [r["wall"] for r in records]
    kinds: dict[str, int] = {}
    for r in records:
        kinds[r["argv"][0]] = kinds.get(r["argv"][0], 0) + 1
    detail["samples"] = {"queries": len(records), "by_kind": kinds,
                         "queries_per_s": len(walls) / sum(walls),
                         "raw_wall_s": statistics.fmean(r["raw_wall"] for r in records),
                         "setup_imports": SETUP_SAMPLES}
    metrics = {
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(r["cpu"] for r in records),
        "peak_rss_mb": proc.rss_mb,
        "query_p50_ms": 1000 * percentile(walls, 50),
        "query_p99_ms": 1000 * percentile(walls, 99),
    }
    return metrics, len(records), problems + ([problem] if problem else [])


# ---------------------------------------------------------------------------


def provenance(ctx: Context, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    commit = None  # a checkout without .git has no commit; source_sha256 still names the code
    if os.path.isdir(os.path.join(ctx.root, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ctx.root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    import networkx

    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit, "source_sha256": source_digest(ctx.root),
            "python": sys.version.split()[0], "networkx": networkx.__version__,
            "nproc": os.cpu_count()}


def run_workload(ctx: Context, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    detail = {"provenance": provenance(ctx, workload, seed, seconds, trace)}
    ctx.unscaled = []
    if workload == "profile-mid":
        metrics, attempted, problems = run_profile(ctx, seed, seconds, trace, detail)
    else:
        metrics, attempted, problems = run_search_workload(ctx, workload, trace, detail)
    if not trace:
        metrics["setup_s"] = measure_setup(ctx)
    detail["speed"] = ctx.probe.summary()
    detail["unscaled"] = ctx.unscaled
    failed = min(len(problems), attempted)
    detail["problems"] = problems[:20]
    detail["error_rate"] = failed / attempted
    unit = layer_unit if trace else END_TO_END.__getitem__
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    report(detail, result)
    return result


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "search.keys_per_class" else "count"


def report(detail: dict, result: dict) -> None:
    prov = detail["provenance"]
    print(f"{prov['workload']}: seed {prov['seed']}, trace {int(prov['trace'])}, commit {prov['commit']}, "
          f"source {prov['source_sha256'][:12]}, python {prov['python']}, networkx {prov['networkx']}, "
          f"nproc {prov['nproc']}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:48s} {metric['value']:14.6f} {metric['unit']}", file=sys.stderr)
    print(f"  {'error_rate':48s} {detail['error_rate']:14.6f} ({result['failed']} failed of "
          f"{result['attempted']} attempted)", file=sys.stderr)
    if "samples" in detail:
        print(f"  samples: {json.dumps(detail['samples'])}", file=sys.stderr)
    for why in detail["unscaled"]:
        print(f"  UNSCALED (raw times) {why}", file=sys.stderr)
    for problem in detail["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps(detail))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "totaldom", "__init__.py")):
        print("error: run from the root of a totaldom checkout (src/totaldom not found)", file=sys.stderr)
        return 2
    # the measured processes inherit this pin, and the probe shares their CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ctx = Context(root, speed.SpeedProbe(), args.seconds)
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(ctx, name, args.seed, args.seconds, bool(args.trace)) for name in names}
    finally:
        ctx.probe.stop()
        shutil.rmtree(ctx.work, ignore_errors=True)
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        for result in results.values():
            print(json.dumps(result))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
