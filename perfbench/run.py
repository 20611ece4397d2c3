"""sginv benchmark: run the CLI the way its users do and check every output.

    python3 perfbench/run.py --workload skein --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each job is one
``python -m sginv.cli <subcommand> <file> ...`` child with ``PYTHONPATH=src``,
so the checkout is measured, not an installed copy.  A workload is a fixed
job list (see ``corpus.py``) run as a closed loop with one client: the next
job starts when the previous one has exited, and never more than one child
runs at a time.  The list is run in passes until ``--seconds`` is used up.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
passes with passes through ``tracer.py`` and prints the per-layer metrics.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

``--record`` runs every workload once with the golden seed and rewrites
``golden.json``; the benchmark's reference outputs come from that file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
import time

import corpus

T_START = time.perf_counter()
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH, "golden.json")
WORK = os.path.join(BENCH, "_work")

WORKLOADS = ("skein", "minors", "spatial", "small")
SETUP_REPS = 3
JOB_LIMIT_S = 30.0      # a job running longer is killed and counted failed
HARD_LIMIT_S = 140.0    # after this, remaining jobs are skipped as failed
GOLDEN_STDOUT_MAX = 65536
# Tail percentile per workload: the highest of p75/p90 that leaves at least
# ten job samples beyond it at the usual number of passes per run.
TAIL_Q = {"skein": 0.75, "minors": 0.75, "spatial": 0.75, "small": 0.9}

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("job_p50_s", "s"),
    ("job_tail_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"),
)
TIMED = ("diagram.parse_document", "cli.run", "diagram.validate",
         "diagram.derive_edges", "diagram.derive_arcs",
         "diagram.resolve_crossing", "diagram.Wiring.find_end",
         "graphs.canonical_certificate", "graphs.connected_components",
         "yamada.yamada_raw", "yamada.eval_crossing_free",
         "laurent.LaurentPoly.__mul__", "laurent.bareiss_det",
         "laurent.laurent_gcd", "laurent.minors_gcd",
         "alexander.build_alexander_matrix", "alexander._int_det",
         "quandle.count_colorings", "quandle.verify_quandle",
         "constituents._extract", "constituents.enumerate_constituents",
         "constituents.hamiltonian_constituents")
COUNTED = ("diagram.validate", "diagram.derive_edges", "diagram.derive_arcs",
           "diagram.resolve_crossing", "diagram.Wiring.find_end",
           "graphs.canonical_certificate", "graphs.delete_edge",
           "graphs.contract_edge", "yamada.yamada_raw",
           "yamada.eval_crossing_free", "laurent.LaurentPoly.__mul__",
           "laurent.bareiss_det", "laurent.laurent_gcd", "laurent.minors_gcd",
           "alexander._int_det", "alexander.graph_determinant",
           "quandle.count_colorings", "quandle.FiniteQuandle.apply",
           "constituents._extract")
RATIOS = (("graphs.cert_distinct_ratio", "cert_distinct",
           "graphs.canonical_certificate"),
          ("laurent.bareiss_det.zero_ratio", "bareiss_zero",
           "laurent.bareiss_det"),
          ("constituents.nonempty_ratio", "extract_nonempty",
           "constituents._extract"))
PER_LAYER = (
    [("cli.import_s", "s")]
    + [(f"{n}.self_s", "s") for n in TIMED]
    + [(f"{n}.calls", "count") for n in COUNTED]
    + [(name, "ratio") for name, _, _ in RATIOS]
    + [("trace.overhead_ratio", "ratio")]
)


class SetupError(Exception):
    pass


# -- children -----------------------------------------------------------------


class Child:
    """Runs one job at a time and reports exit code, time and rusage."""

    def __init__(self, workdir):
        self.out = os.path.join(workdir, "stdout")
        self.err = os.path.join(workdir, "stderr")
        self.trace = os.path.join(workdir, "trace.json")
        env = {k: v for k, v in os.environ.items()
               if k not in ("SGINV_MAX_CROSSINGS", "PYTHONPATH")}
        env["PYTHONPATH"] = SRC
        self.env = env
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        self.file_actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, self.out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, self.err, flags, 0o644),
        ]

    def argv(self, args, traced):
        if traced:
            return [sys.executable, os.path.join(BENCH, "tracer.py"),
                    self.trace, *args]
        return [sys.executable, "-m", "sginv.cli", *args]

    def run(self, args, traced=False):
        """(exit code or None on time limit, seconds, cpu seconds,
        max RSS in KiB, stdout bytes)."""
        argv = self.argv(args, traced)
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, self.env,
                             file_actions=self.file_actions)
        try:
            fd = os.pidfd_open(pid)
            try:
                timed_out = not select.select([fd], [], [], JOB_LIMIT_S)[0]
            finally:
                os.close(fd)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, ru = os.wait4(pid, 0)
        elapsed = time.perf_counter() - t0
        with open(self.out, "rb") as fh:
            stdout = fh.read()
        code = None if timed_out else os.waitstatus_to_exitcode(status)
        return code, elapsed, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, stdout

    def read_trace(self):
        try:
            with open(self.trace, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        os.remove(self.trace)
        return doc


# -- setup --------------------------------------------------------------------


def load_golden():
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {GOLDEN}: {exc}") from None


def sha(data):
    return hashlib.sha256(data).hexdigest()


def expect(c, golden, seed):
    """Attach to every job what its stdout must be; check the recorded
    reference values against the values the test suite pins."""
    for jid, predicate, label in c.pins:
        out = golden[jid]["stdout"].encode()
        if not predicate(out):
            raise SetupError(f"reference output of {jid} contradicts {label}")
    for job in c.jobs:
        rec = golden.get(job.id)
        use_golden = job.fixed or seed == corpus.GOLDEN_SEED
        if use_golden and rec is None:
            raise SetupError(f"no reference output for {job.id}")
        job.golden_sha = rec["sha256"] if use_golden else None
        job.expected = job.derive(golden) if job.derive else None


def setup(workload, seed, workdir, golden):
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    c = corpus.build(workload, seed, workdir, ROOT)
    expect(c, golden, seed)
    child = Child(workdir)
    # warm-up: compiles the package's bytecode and loads the interpreter
    code, *_ = child.run(["validate", c.jobs[0].args[1]])
    if code not in (0, 1, 2):
        raise SetupError(f"warm-up call failed with exit code {code}")
    return c, child


# -- measuring ----------------------------------------------------------------


def verdict(job, code, stdout):
    """(failed?, wrong answer?) for one finished job."""
    if code is None or code != job.exit:
        return True, False
    wrong = ((job.expected is not None and stdout != job.expected)
             or (job.golden_sha is not None and sha(stdout) != job.golden_sha)
             or (job.check is not None and not _safe_check(job.check, stdout)))
    return wrong, wrong


def _safe_check(check, stdout):
    try:
        return bool(check(stdout))
    except (ValueError, KeyError, TypeError):
        return False


class Pass:
    """One run of the job list; per-job lists are indexed like the jobs."""

    def __init__(self):
        self.wall = 0.0
        self.latency = []   # seconds, None for a skipped job
        self.cpu = []
        self.rss_kb = 0
        self.failures = []  # (job id, reason)
        self.wrong = []
        self.traces = []


def run_pass(c, child, traced, hard_deadline):
    p = Pass()
    t0 = time.perf_counter()
    for job in c.jobs:
        if time.perf_counter() > hard_deadline:
            p.latency.append(None)
            p.cpu.append(None)
            p.failures.append((job.id, "skipped: run time limit"))
            continue
        code, elapsed, cpu, rss, stdout = child.run(job.args, traced)
        p.latency.append(elapsed)
        p.cpu.append(cpu)
        p.rss_kb = max(p.rss_kb, rss)
        failed, wrong = verdict(job, code, stdout)
        if failed:
            why = ("time limit" if code is None else
                   f"exit {code}, expected {job.exit}" if code != job.exit
                   else "wrong stdout")
            p.failures.append((job.id, why))
        if wrong:
            p.wrong.append(job.id)
        if traced:
            p.traces.append(child.read_trace())
    p.wall = time.perf_counter() - t0
    return p


def job_medians(passes, attr):
    """Each job's median across passes (None for a job never run)."""
    out = []
    for samples in zip(*(getattr(p, attr) for p in passes)):
        samples = [x for x in samples if x is not None]
        out.append(statistics.median(samples) if samples else None)
    return out


def job_median_sum(passes, attr):
    """Sum over jobs of each job's median across passes: the time of one
    pass with short bursts of machine noise filtered out job by job."""
    return sum(x for x in job_medians(passes, attr) if x is not None)


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(traces):
    """Per-layer values of one traced pass (sums over its jobs)."""
    stats, extra, import_s = {}, {}, 0.0
    for doc in traces:
        if doc is None:
            continue
        import_s += doc["import_s"]
        for name, (calls, self_s) in doc["stats"].items():
            s = stats.setdefault(name, [0, 0.0])
            s[0] += calls
            s[1] += self_s
        for key in ("cert_distinct", "bareiss_zero", "extract_nonempty"):
            extra[key] = extra.get(key, 0) + doc[key]
    out = {"cli.import_s": import_s}
    for name in TIMED:
        out[f"{name}.self_s"] = stats.get(name, [0, 0.0])[1]
    for name in COUNTED:
        out[f"{name}.calls"] = stats.get(name, [0, 0.0])[0]
    for metric, num, den in RATIOS:
        calls = stats.get(den, [0, 0.0])[0]
        out[metric] = extra.get(num, 0) / calls if calls else 0.0
    return out


def measure(c, child, seconds, trace, hard_deadline):
    """Passes until the next one would overrun `seconds`; with tracing, each
    plain pass is followed by a traced one."""
    plain, traced, rounds = [], [], []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        plain.append(run_pass(c, child, False, hard_deadline))
        if trace:
            traced.append(run_pass(c, child, True, hard_deadline))
        rounds.append(time.perf_counter() - r0)
        elapsed = time.perf_counter() - t0
        if (elapsed + statistics.median(rounds) > seconds
                or time.perf_counter() > hard_deadline):
            return plain, traced


def report(c, setups, plain, traced, trace):
    workload, njobs = c.workload, len(c.jobs)
    passes = plain + traced
    attempted = njobs * len(passes)
    failed = sum(len(p.failures) for p in passes)
    wrong = sorted({j for p in passes for j in p.wrong})
    failures = {}
    for p in passes:
        for key in p.failures:
            failures[key] = failures.get(key, 0) + 1
    for (jid, why), n in sorted(failures.items()):
        print(f"failed x{n}: {jid}: {why}")

    for job, t in zip(c.jobs, job_medians(plain, "latency")):
        print(f"job {job.id} median {t if t is None else round(t, 4)} s")
    latencies = [x for p in plain for x in p.latency if x is not None]
    q = TAIL_Q[workload]
    beyond = sum(1 for x in latencies if x > quantile(latencies, q))
    print(f"{workload}: {njobs} jobs per pass; {len(plain)} plain passes "
          f"({', '.join(f'{p.wall:.3f}' for p in plain)} s), {len(traced)} "
          f"traced; job_tail_s is p{round(q * 100)} of {len(latencies)} "
          f"samples ({beyond} beyond); setups "
          f"{', '.join(f'{s:.3f}' for s in setups)} s")
    plain_failed = sum(len(p.failures) for p in plain)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": job_median_sum(plain, "latency"),
        "cpu_s": job_median_sum(plain, "cpu"),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": quantile(latencies, q),
        "peak_rss_mb": max(p.rss_kb for p in plain) / 1024,
        "ok_ratio": 1 - plain_failed / (njobs * len(plain)),
    }
    units = dict(END_TO_END)
    if trace:
        # the plain passes give the end-to-end lines too; the JSON line
        # carries the per-layer metrics
        for name, value in values.items():
            print(f"{name:44s} {value:14.6f} {units[name]}")
        per_pass = [layer_metrics(p.traces) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name, _ in PER_LAYER[:-1]}
        values["trace.overhead_ratio"] = (job_median_sum(traced, "latency")
                                          / job_median_sum(plain, "latency"))
        units = dict(PER_LAYER)
    for name, value in values.items():
        print(f"{name:44s} {value:14.6f} {units[name]}")
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


# -- recording ----------------------------------------------------------------


def record():
    """Run every workload once at the golden seed, check the outputs against
    everything that does not need a recording, and write golden.json."""
    golden = {}
    for workload in WORKLOADS:
        workdir = os.path.join(WORK, f"record-{workload}")
        os.makedirs(workdir, exist_ok=True)
        try:
            c = corpus.build(workload, corpus.GOLDEN_SEED, workdir, ROOT)
            child = Child(workdir)
            results = []
            for job in c.jobs:
                code, elapsed, _, _, stdout = child.run(job.args)
                entry = {"exit": code, "sha256": sha(stdout)}
                if len(stdout) <= GOLDEN_STDOUT_MAX:
                    entry["stdout"] = stdout.decode()
                golden[job.id] = entry
                results.append((job, code, stdout))
                print(f"{elapsed:8.3f} s  exit {code}  {job.id}")
        finally:
            shutil.rmtree(workdir)
        expect(c, golden, corpus.GOLDEN_SEED)
        for job, code, stdout in results:
            if verdict(job, code, stdout)[0]:
                print(f"mismatch: {job.id}: exit {code}, expected {job.exit}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# -- main ---------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite golden.json from this checkout")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sginv", "cli.py")):
        print(f"run.py: no sginv sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    # a termination request unwinds through the finally blocks that stop
    # the running child and remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.record:
        try:
            return record()
        except SetupError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
    if args.workload is None:
        ap.error("--workload is required")

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    hard_deadline = T_START + HARD_LIMIT_S
    try:
        golden = load_golden()
        setups = []
        for rep in range(SETUP_REPS):
            t0 = T_START if rep == 0 else time.perf_counter()
            c, child = setup(args.workload, args.seed, workdir, golden)
            setups.append(time.perf_counter() - t0)
        plain, traced = measure(c, child, args.seconds, args.trace,
                                hard_deadline)
        result = report(c, setups, plain, traced, args.trace)
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
