#!/usr/bin/env python3
"""extpack benchmark: cold CLI runs and an in-process census.

    python3 bench/run.py --workload {construct,groups,census} --seed N \\
        --seconds S --trace {0,1}

Workloads (one client, closed loop: the next op starts when the previous
one has exited; nothing runs in parallel, so nothing waits on anything):

* construct -- cold ``extpack`` processes along the README pipeline.  A
  round holds one spec of each cost regime: a big cover over a small cell
  (realize, verify, render; canonical form bound), a primitive build
  (build, verify; graft bound) and a degree-2 cover over a base with a
  large cycle-space kernel (realize, verify; voltage-search bound).  Each
  cycle of three rounds uses every menu entry once, in seeded order.
* groups -- cold ``extpack enumerate`` over a seeded order of a fixed menu
  of low-index searches, plus to-group/from-group round trips of catalog
  entries drawn by the seed.
* census -- one long-lived process certifies seeded batches of small
  complexes (census.py).

The number of rounds (batches for census) follows from --seconds and a
nominal round time, so every run of a workload measures the same op mix;
the seed changes the draws and their order.  Times are scaled to a
reference machine speed (calib.py): the harness and its children share
one pinned CPU, and a calibration kernel runs around every op and, every
SAMPLE_EVERY_S, inside it while the child is stopped.  The report lines
give the raw totals, the failure table and failed_ratio.

Every output is checked by check.py, which does not import extpack.  The
first op of each kind is run a second time, untimed, and must give the
same bytes.  One bytecode-warming op per kind runs before timing.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same rounds
untraced and then traced (spans.py wraps the library's public functions
from outside, in a fresh process per op) and prints the per-layer metrics.
The last stdout line is the JSON result; the lines before it are a report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import calib
import check
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PYTHON = sys.executable

LAUNCH = os.path.join(BENCH, "launch.py")

#: construct regimes; the members of one regime cost about the same
CANON = ((24, 10), (9, 20), (10, 22))  # 200-300-edge covers: serialize/parse
GRAFT = (37, 41, 43)  # 30-37 grafts from the N = +-1 (mod 6) seed
VOLTAGE = ((12, 36), (12, 40), (12, 48))  # j = 2, cycle-space kernel dim 23-29
#: specs whose render fails at the commit that added this benchmark; they
#: run after the timed ops and outside their count, so the gated sample
#: succeeds, while the report and geometry.realize.failed show the defect
RENDER_PROBE = ((16, 10), (18, 11))

#: (p, q, r), index, torsion-free proper?, conjugacy classes found
ENUMERATE_MENU = (
    ((2, 3, 7), 84, True, 12),
    ((2, 3, 8), 48, True, 23),
    ((2, 3, 9), 36, True, 4),
    ((2, 3, 12), 24, True, 11),
    ((3, 3, 9), 18, True, 37),
    ((2, 3, 12), 24, False, 300),
    ((2, 3, 7), 28, False, 13),
)
ROUND_TRIPS = 2

#: nominal seconds per round (per batch for census) on the 2-core box, and
#: the number of rounds that make up one full op mix
ROUND_S = {"construct": 5.0, "groups": 10.0, "census": 0.1}
CYCLE = {"construct": len(CANON), "groups": 1, "census": 1}
SETUP_RUNS = 15
#: ops on either side whose calibrations set an op's speed (calib.py)
CALIB_WINDOW = 2
TAIL_BEYOND = 10
OP_TIMEOUT_S = 120.0
SAMPLE_EVERY_S = 0.25
PASS_LIMIT_S = 120.0


@dataclass
class Op:
    kind: str
    args: list[str]
    check: Callable[[str], None]
    out: str | None = None  # file written through -o; stdout otherwise
    label: str = ""
    grafts: int = 0  # graft steps the op performs (build/realize)


class Child(NamedTuple):
    raw_s: float
    kernel: tuple[float, ...]  # calibration kernel seconds around and during the child
    exit_code: int
    peak_rss_kb: int  # 0 unless the child is launch.py
    stdout: str
    stderr: str


@dataclass
class Result:
    op: Op
    child: Child
    error: str | None
    output: str = field(repr=False, default="")

    @property
    def ok(self) -> bool:
        return self.error is None


# ---------------------------------------------------------------------------
# processes


def _signal(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except ProcessLookupError:  # the child exited and was reaped since the wait
        pass


def spawn(cmd: list[str], cwd: str, stem: str, sample: bool = True) -> Child:
    """Run one child to completion, timed from spawn to exit.

    The calibration kernel (calib.py) runs before and after the child and,
    when sample is set, every SAMPLE_EVERY_S while the child is stopped
    (SIGSTOP/SIGCONT); the stopped time is not counted.  Traced children
    are not sampled, because their spans would count the stops.  A
    launch.py child writes its peak RSS to stem + ".peak"."""
    out_path, err_path, peak_path = stem + ".stdout", stem + ".stderr", stem + ".peak"
    if os.path.exists(peak_path):
        os.remove(peak_path)
    kernel = [calib.measure()]
    pauses: list[tuple[float, float]] = []
    done = threading.Event()
    ended: list = []

    def reap(pid: int) -> None:
        _, status = os.waitpid(pid, 0)
        ended.extend((time.perf_counter(), os.waitstatus_to_exitcode(status)))
        done.set()

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=cwd)
        reaper = threading.Thread(target=reap, args=(proc.pid,))
        reaper.start()
        try:
            while not done.wait(SAMPLE_EVERY_S):
                t = time.perf_counter()
                if t - start > OP_TIMEOUT_S:
                    _signal(proc.pid, signal.SIGKILL)
                elif sample:
                    _signal(proc.pid, signal.SIGSTOP)
                    kernel.append(calib.measure())
                    _signal(proc.pid, signal.SIGCONT)
                    pauses.append((t, time.perf_counter()))
        except BaseException:  # interrupted: leave no child behind
            _signal(proc.pid, signal.SIGKILL)
            raise
        finally:
            reaper.join()
    end, proc.returncode = ended
    for t0, t1 in pauses:
        if t0 < end < t1:  # reaped during a pause: it had exited before the stop
            end = t0
    raw = end - start - sum(t1 - t0 for t0, t1 in pauses if t1 <= end)
    kernel.append(calib.measure())
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    peak = 0
    if os.path.exists(peak_path):
        with open(peak_path, encoding="ascii") as fh:
            peak = int(fh.read())
    return Child(raw, tuple(kernel), proc.returncode, peak, stdout, stderr)


def launch_cmd(stem: str, args: list[str]) -> list[str]:
    return [PYTHON, LAUNCH, SRC, stem + ".peak"] + args


def seconds(results: list[Result]) -> list[float]:
    """Each result's time at the reference speed."""
    return calib.scaled([r.child.raw_s for r in results], [r.child.kernel for r in results],
                        CALIB_WINDOW)


class Runner:
    def __init__(self, work: str, trace_dir: str | None):
        self.work = work
        self.trace_dir = trace_dir
        self.next_id = 0
        self.agg: dict | None = None

    def execute(self, op: Op, traced: bool = False) -> Result:
        op_id = self.next_id
        self.next_id += 1
        prefix = os.path.join(self.trace_dir, "op%05d" % op_id) if traced else None
        stem = os.path.join(self.work, "op")
        if traced:
            cmd = [PYTHON, os.path.join(BENCH, "spans.py"), prefix, str(op_id), SRC, "--"] + op.args
        else:
            cmd = launch_cmd(stem, op.args)
        child = spawn(cmd, self.work, stem, sample=not traced)
        error, output = None, child.stdout
        if child.exit_code or "Traceback" in child.stderr:
            lines = child.stderr.strip().splitlines()
            error = lines[-1] if lines else "no message"
        else:
            try:
                if op.out:
                    with open(os.path.join(self.work, op.out), encoding="utf-8") as fh:
                        output = fh.read()
                op.check(output)
            except Exception as err:  # any checker finding fails the op
                error = "check: %s: %s" % (type(err).__name__, err)
        if traced:
            self._collect(prefix, op, error is None, output)
        return Result(op, child, error, output)

    def _collect(self, prefix: str, op: Op, ok: bool, output: str) -> None:
        try:
            with open(prefix + ".agg.json", encoding="utf-8") as fh:
                agg = json.load(fh)
        except FileNotFoundError:  # the child died before writing its spans
            return
        agg["grafts"] = op.grafts if ok else 0
        agg["records"] = json.loads(output)["count"] if ok and op.kind == "enumerate" else 0
        self.agg = merge(self.agg, agg)


def merge(acc: dict | None, agg: dict) -> dict:
    """Sum per-process aggregates; import times are kept as a list."""
    agg["import_s"] = [agg["import_s"]]
    if acc is None:
        return agg
    for key, val in agg.items():
        if key != "import_s" and isinstance(val, list):
            acc[key] = [a + b for a, b in zip(acc[key], val)]
        else:
            acc[key] += val
    return acc


# ---------------------------------------------------------------------------
# workloads


def _realize_chain(k: int, g: int, stem: str, render: bool) -> list[Op]:
    n = 6 + 6 * (g - 2) // k
    want = (k, g, n)
    path = stem + ".cmplx"
    label = "(k, g) = (%d, %d)" % (k, g)
    _, g_n = check.primitive_pair(n)
    ops = [
        Op("realize", ["realize", "--k", str(k), "--g", str(g), "-o", path],
           lambda t: check.check_complex_text(t, want), out=path, label=label, grafts=g_n - 3),
        Op("verify", ["verify", path], lambda t: check.check_verify_text(t, want), label=label),
    ]
    if render:
        ops.append(Op("render", ["render", path, "-o", stem + ".svg"],
                      lambda t: check.check_svg(t, want), out=stem + ".svg", label=label))
    return ops


def _build_chain(n: int, stem: str) -> list[Op]:
    k, g = check.primitive_pair(n)
    want = (k, g, n)
    path = stem + ".cmplx"
    label = "N = %d" % n
    return [
        Op("build", ["build", "--N", str(n), "-o", path],
           lambda t: check.check_complex_text(t, want), out=path, label=label, grafts=g - 3),
        Op("verify", ["verify", path], lambda t: check.check_verify_text(t, want), label=label),
    ]


def _enumerate_op(entry) -> Op:
    (p, q, r), index, tf, count = entry
    args = ["enumerate", "--p", str(p), "--q", str(q), "--r", str(r), "--index", str(index)]
    if tf:
        args += ["--torsion-free", "--proper"]
    label = "(%d,%d,%d)@%d%s" % (p, q, r, index, " tf-proper" if tf else "")
    return Op("enumerate", args,
              lambda t: check.check_enumerate(t, (p, q, r), index, tf, count), label=label)


def _round_trip(name: str, stem: str) -> list[Op]:
    path = stem + ".json"
    return [
        Op("to-group", ["to-group", name, "-o", path],
           lambda t: check.check_to_group(t, name), out=path, label=name),
        Op("from-group", ["from-group", path],
           lambda t: check.check_complex_text(t, check.CATALOG[name]), label=name),
    ]


def construct_round(seed: int, r: int) -> list[Op]:
    cycle, slot = divmod(r, len(CANON))
    picks = [random.Random("%d:%d:%d" % (seed, cycle, i)).sample(menu, len(menu))[slot]
             for i, menu in enumerate((CANON, GRAFT, VOLTAGE))]
    units = [
        _realize_chain(*picks[0], "r%d_canon" % r, render=True),
        _build_chain(picks[1], "r%d_graft" % r),
        _realize_chain(*picks[2], "r%d_volt" % r, render=False),
    ]
    random.Random("%d:%d" % (seed, r)).shuffle(units)
    return [op for unit in units for op in unit]


def groups_round(seed: int, r: int) -> list[Op]:
    rng = random.Random("%d:%d" % (seed, r))
    units = [[_enumerate_op(e)] for e in ENUMERATE_MENU]
    for name in rng.sample(sorted(check.CATALOG), ROUND_TRIPS):
        units.append(_round_trip(name, "r%d_%s" % (r, name)))
    rng.shuffle(units)
    return [op for unit in units for op in unit]


ROUNDS = {"construct": construct_round, "groups": groups_round}

WARMUP = {
    "construct": lambda: _realize_chain(6, 3, "warm", render=True) + _build_chain(13, "warm13"),
    "groups": lambda: [_enumerate_op(ENUMERATE_MENU[2])] + _round_trip("X9", "warm"),
}


def run_pass(runner: Runner, workload: str, seed: int, rounds: int, traced: bool) -> list[Result]:
    """Run the rounds; untraced passes also re-run the first op of each
    kind and require the same output bytes."""
    results: list[Result] = []
    seen_kinds: set[str] = set()
    start = time.perf_counter()
    for r in range(rounds):
        if time.perf_counter() - start > PASS_LIMIT_S:
            print("# pass limit reached after %d of %d rounds" % (r, rounds))
            break
        for op in ROUNDS[workload](seed, r):
            res = runner.execute(op, traced)
            if not traced and op.kind not in seen_kinds and res.ok:
                seen_kinds.add(op.kind)
                out = op.out and op.out + ".again"
                again = runner.execute(Op(op.kind, [out if a == op.out else a for a in op.args],
                                          op.check, out, op.label))
                if again.output != res.output:
                    res.error = "determinism: a second run gave different bytes"
            results.append(res)
    return results


def run_census(work: str, seed: int, batches: int, trace_prefix: str | None) -> dict:
    cmd = [PYTHON, os.path.join(BENCH, "census.py"), "--src", SRC,
           "--seed", str(seed), "--batches", str(batches)]
    if trace_prefix:
        cmd += ["--trace", trace_prefix]
    child = spawn(cmd, BENCH, os.path.join(work, "census"), sample=False)
    if child.exit_code:
        raise SystemExit("census child failed (exit %d): %s"
                         % (child.exit_code, child.stderr.strip()[-2000:]))
    return json.loads(child.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density, which is much
    steadier from run to run than a single order statistic."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = max(1, 4000 // n)  # midpoint rule inside each 1/n cell
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        w = 0.0
        for j in range(steps):
            t = (i * steps + j + 0.5) * h
            w += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - norm)
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with at least
    TAIL_BEYOND samples beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100.0, n
    p = (n - TAIL_BEYOND) / n
    return quantile(values, p), 100.0 * p, n


def setup_seconds(work: str) -> tuple[float, bool]:
    """Median cold start of a process that does no work: interpreter,
    ``import extpack.cli``, argparse and one line of arithmetic."""
    stem = os.path.join(work, "setup")
    runs = [spawn(launch_cmd(stem, ["bound", "--k", "1", "--g", "3"]), work, stem)
            for _ in range(SETUP_RUNS)]
    ok = all(c.exit_code == 0 and c.stdout.startswith("cosh R = 1.931851652578") for c in runs)
    times = calib.scaled([c.raw_s for c in runs], [c.kernel for c in runs], SETUP_RUNS)
    return statistics.median(times), ok


def end_to_end(latencies: list[float], ops_per_s: float, rss_kb: int, setup_s: float) -> dict:
    value, pct, n = tail(latencies)
    print("# latency_tail_s is p%.1f of %d samples (%d beyond it); quantiles are"
          " Harrell-Davis estimates" % (pct, n, min(n, TAIL_BEYOND)))
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_s": (quantile(latencies, 0.5), "s"),
        "latency_tail_s": (value, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(agg: dict, overhead: float) -> dict:
    out = {}
    for i, name in enumerate(spans.SPAN_NAMES):
        out[name + ".calls"] = (agg["calls"][i], "count")
        out[name + ".total_s"] = (agg["total"][i], "s")
        out[name + ".self_s"] = (agg["self"][i], "s")
    idx = spans.SPAN_NAMES.index
    rewrites = agg["calls"][idx("grafting.apply_rewrite")]
    canon_s = agg["total"][idx("complexes.canonicalize")]
    searched = agg["classify_in_search"]
    out["cli.import_s"] = (statistics.median(agg["import_s"]), "s")
    out["grafting.rewrite_yield"] = (agg["grafts"] / rewrites if rewrites else 0.0, "ratio")
    out["trigroup.class_yield"] = (agg["records"] / searched if searched else 0.0, "ratio")
    out["covers.voltage_candidates"] = (agg["voltage_candidates"], "count")
    out["complexes.canonicalize.edges_per_s"] = (agg["canon_edges"] / canon_s if canon_s else 0.0, "1/s")
    out["geometry.realize.failed"] = (agg["raised"][idx("geometry.realize")], "count")
    out["tracing_overhead"] = (overhead, "ratio")
    return out


# ---------------------------------------------------------------------------
# report


def failure_table(results: list[Result], title: str) -> None:
    """Per op kind: attempts, failures by exit code and traceback, and each
    failing input."""
    kinds: dict[str, list[Result]] = {}
    for res in results:
        kinds.setdefault(res.op.kind, []).append(res)
    for kind, rs in kinds.items():
        bad = [r for r in rs if not r.ok]
        by: dict[str, int] = {}
        for r in bad:
            key = "exit %d%s" % (r.child.exit_code, " +traceback" if "Traceback" in r.child.stderr else "")
            by[key] = by.get(key, 0) + 1
        print("# %s %-10s attempted %3d failed %3d %s" % (title, kind, len(rs), len(bad), by or ""))
        for r in bad:
            print("#   failing input %s: %s" % (r.op.label, r.error))


def report_speed(raw: float, scaled: float) -> None:
    print("# timed seconds: %.3f raw, %.3f at the reference speed" % (raw, scaled))


def report_census(c: dict) -> None:
    print("# census: %d complexes in %d batches, certified %d (own count %d), failed %d"
          % (c["attempted"], len(c["batch_s"]), c["certified"], c["own_certified"], c["failed"]))
    for f in c["failures"]:
        print("#   failing input %s" % json.dumps(f))
    report_speed(sum(c["raw_s"]), sum(c["batch_s"]))


def provenance() -> dict:
    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def assert_source_tree(work: str) -> None:
    """Children must import extpack from this tree's src/, not an install."""
    child = spawn([PYTHON, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                   "import extpack; print(extpack.__file__)", SRC], work, os.path.join(work, "where"))
    where = os.path.realpath(child.stdout.strip()) if child.exit_code == 0 else child.stderr.strip()
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("children import extpack from %r, not from %s" % (where, SRC))


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print("# failed_ratio %.6g (%d of %d ops)" % (failed / attempted, failed, attempted))
    for name, (value, unit) in metrics.items():
        print("# %-46s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("construct", "groups", "census"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "extpack", "cli.py")):
        raise SystemExit("no extpack source tree at %s" % SRC)
    # one CPU for the harness, its calibration and every child (calib.py)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = os.path.join(BENCH, ".work", str(os.getpid()))
    os.makedirs(work)
    try:
        assert_source_tree(work)
        print("# provenance %s" % json.dumps(provenance()))
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: str) -> int:
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(BENCH, ".trace", args.workload)
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    cycle = CYCLE[args.workload]
    cycles = max(1, round(args.seconds / (cycle * ROUND_S[args.workload])))
    if args.workload == "census":
        return run_census_workload(args, work, cycles, trace_dir)

    runner = Runner(work, trace_dir)
    for op in WARMUP[args.workload]():
        runner.execute(op)
    if not args.trace:
        setup_s, setup_ok = setup_seconds(work)
        results = run_pass(runner, args.workload, args.seed, cycle * cycles, False)
        failure_table(results, "timed")
        times = seconds(results)
        report_speed(sum(r.child.raw_s for r in results), sum(times))
        done = sum(r.ok for r in results)
        metrics = end_to_end(times, done / sum(times),
                             max(r.child.peak_rss_kb for r in results), setup_s)
        return emit(setup_ok and done == len(results), len(results), len(results) - done, metrics)

    half = cycle * max(1, cycles // 2)
    plain = run_pass(runner, args.workload, args.seed, half, False)
    traced = run_pass(runner, args.workload, args.seed, half, True)
    failure_table(plain + traced, "timed")
    if args.workload == "construct":
        probe = []
        for k, g in RENDER_PROBE:
            for op in _realize_chain(k, g, "probe_k%dg%d" % (k, g), render=True):
                probe.append(runner.execute(op, True))
        failure_table(probe, "probe")
    rate = [sum(r.ok for r in rs) / sum(seconds(rs)) for rs in (plain, traced)]
    failed = sum(not r.ok for r in plain + traced)
    return emit(failed == 0, len(plain) + len(traced), failed, per_layer(runner.agg, rate[1] / rate[0]))


def run_census_workload(args, work: str, batches: int, trace_dir: str | None) -> int:
    run_census(work, args.seed, 1, None)  # bytecode warm-up
    if not args.trace:
        setup_s, setup_ok = setup_seconds(work)
        census = run_census(work, args.seed, batches, None)
        report_census(census)
        done = census["attempted"] - census["failed"]
        per_complex = [b / census["batch_size"] for b in census["batch_s"]]
        metrics = end_to_end(per_complex, done / sum(census["batch_s"]), census["peak_rss_kb"], setup_s)
        return emit(setup_ok and census["failed"] == 0, census["attempted"], census["failed"], metrics)
    half = max(1, batches // 2)
    plain = run_census(work, args.seed, half, None)
    traced = run_census(work, args.seed, half, os.path.join(trace_dir, "census"))
    report_census(plain)
    report_census(traced)
    with open(os.path.join(trace_dir, "census.agg.json"), encoding="utf-8") as fh:
        agg = merge(None, json.load(fh))
    agg.update(grafts=0, records=0)
    rate = [c["attempted"] / sum(c["batch_s"]) for c in (plain, traced)]
    failed = plain["failed"] + traced["failed"]
    return emit(failed == 0, plain["attempted"] + traced["attempted"], failed,
                per_layer(agg, rate[1] / rate[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
