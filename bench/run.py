#!/usr/bin/env python3
"""Benchmark of the ``teamgames`` command line.

Usage, from the repository root:

    python3 bench/run.py --workload cobb-figures --seed 1 --seconds 35 --trace 0

Workloads are ``cobb-figures``, ``team-scan`` and ``documents`` (see
``workloads.py``). The load is a closed loop with one client: one operation
at a time, each a fresh ``python -m teamgames.cli`` process with
``PYTHONPATH=src`` and ``TEAMGAMES_THREADS`` unset. Operations repeat in a
fixed order for a whole number of passes, and every output is checked
against the oracles in ``oracles.py``. ``--seconds`` sets the number of
passes: as many as take that long at the reference speed (``PASS_S``, at
least one). The count does not depend on how fast the host runs, so every
run of a workload attempts the same operations and the known defects give
the same failed count every time.

Every time is corrected for host speed, which on a shared host can change by
a factor of two within a second. While a child runs, it is stopped every
``SAMPLE_S`` seconds for a short pure-Python probe loop; each stretch the
child ran is scaled by ``(REF_PROBE_S / probe) ** SPEED_EXPONENT``, with the
probe speed on either side of the stretch. Printed seconds are therefore
seconds at the reference probe speed, without the stopped time. Raw seconds
and probe durations are printed as diagnostics. The benchmark and its
children are kept on one processor, the one the probe measures.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
operations in process with span wrappers (``tracing.py``) and prints the
per-layer metrics, writing the spans to ``.bench_out/``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. ``correct`` is true when every operation either passed its
oracle or failed exactly as one of the known defects listed in
``workloads.KNOWN_FAILURES``; known-defect operations still count in
``failed`` and in the printed ``error_rate``.

Exit status is 0 when a result was printed, 2 when the benchmark cannot run
(for example when the ``src`` tree is missing).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Probe duration on the reference host (Intel Xeon, 2 vCPU, Python 3.11.7).
REF_PROBE_S = 0.0090
# Elasticity of invocation time to probe time, fitted on the reference host
# (0.6 to 0.85 across commands): the probe slows more than the commands do
# when the host is contended, so its ratio is applied with this exponent.
SPEED_EXPONENT = 0.75
PROBE_LOOPS = 12500
SAMPLE_S = 0.1
OP_TIMEOUT_S = 60
RUN_LIMIT_S = 150
# Seconds of one pass at the reference speed, including its probes and help
# runs: (CLI children, in-process pass of the traced run).
PASS_S = {
    "cobb-figures": (7.0, 3.6),
    "team-scan": (11.5, 7.0),
    "documents": (8.8, 4.0),
}
HELP_FIRST = 5
HELP_PER_PASS = 2
IMPORT_RUNS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]
COMMAND_TIMES = ["cobb_sweep_s", "cobb_path_s", "cobb_rational_s", "cobb_frontier_s",
                 "classify_s", "metrics_s", "core_s", "shapley_s", "reduce_tu_s", "graph_s"]
PER_LAYER_UNITS = {"cli.import_s": "s", "trace.overhead_frac": "ratio",
                   "game_io.bytes_read": "bytes", "game_io.bytes_written": "bytes"}


def per_layer_names() -> list[str]:
    names = ["cli.import_s"] + list(tracing.TIME_LAYERS) + list(tracing.CALL_COUNTERS)
    return names + tracing.WORK_COUNTERS + ["trace.overhead_frac"]


def layer_unit(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


def probe() -> float:
    """Duration of a fixed mix of interpreter work: calls, attribute and dict access, floats."""
    start = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(PROBE_LOOPS):
        mask = i & 1023
        low = mask & -mask
        table[mask] = acc
        acc += math.sqrt(i) * 0.5 + low.bit_length() + len(str(i))
        acc -= table.get(mask ^ low, 0.0) * 1e-9
    return time.perf_counter() - start


def speed_factor(probe_s: float) -> float:
    """Scale from seconds at the measured speed to seconds at the reference speed."""
    return (REF_PROBE_S / probe_s) ** SPEED_EXPONENT


def despike(values: list[float]) -> list[float]:
    """Three-point running median; at the ends, the smaller of the two values.

    A probe interrupted once reads long and would bend the two stretches
    next to it; a change of host speed lasts longer than one sample and
    survives the filter.
    """
    if len(values) < 3:
        return [min(values)] * len(values)
    out = [min(values[0], values[1])]
    out += [sorted(values[i - 1:i + 2])[1] for i in range(1, len(values) - 1)]
    out.append(min(values[-2], values[-1]))
    return out


class BenchError(Exception):
    """The benchmark itself cannot run."""


class Children:
    """Runs CLI child processes one at a time, measuring host speed while each runs.

    Children are forked by ``spawner.py``, started before this process
    loads any inputs, so their reported peak memory is their own. Every
    ``SAMPLE_S`` seconds the running child is stopped (SIGSTOP), a probe
    runs on the processor the child was using, and the child continues
    (SIGCONT). Each stretch the child ran is scaled by ``speed_factor`` of
    the probes on either side of it, so a change of host speed in the middle
    of an invocation is corrected too. Time spent stopped is not counted.
    """

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("TEAMGAMES_THREADS", None)
        self.probes: list[float] = []
        self._pid: int | None = None
        self._spawner = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True, bufsize=1)
        signal.signal(signal.SIGALRM, self._sample)

    def close(self) -> None:
        self._spawner.stdin.close()
        self._spawner.wait(timeout=OP_TIMEOUT_S)

    def _sample(self, signum, frame):
        """Timer handler: stop the child, probe, note the stretch it ran, continue it.

        The child shares this process's only processor, so it cannot run
        between the stop signal and the probe.
        """
        pid = self._pid
        if pid is None:
            return
        ran_until = time.perf_counter()
        try:
            if ran_until - self._started > OP_TIMEOUT_S:
                os.kill(pid, signal.SIGKILL)
                return
            os.kill(pid, signal.SIGSTOP)
        except ProcessLookupError:
            return   # already exited and reaped
        p = probe()
        self.probes.append(p)
        self._stretches.append((ran_until - self._resumed, p))
        self._resumed = time.perf_counter()
        with contextlib.suppress(ProcessLookupError):   # it was exiting when stopped
            os.kill(pid, signal.SIGCONT)

    def _reply(self) -> dict:
        line = self._spawner.stdout.readline()
        if not line:
            raise BenchError("the process spawner exited")
        return json.loads(line)

    def run(self, argv: list[str]) -> tuple[float, float, int, str, str, int]:
        """(corrected s, raw s, exit status, stdout, stderr, max RSS in KiB)."""
        out_path, err_path = self.work / ".stdout", self.work / ".stderr"
        request = {"argv": [sys.executable, "-m", "teamgames.cli"] + argv, "cwd": str(self.work),
                   "env": self.env, "stdout": str(out_path), "stderr": str(err_path)}
        self._stretches: list[tuple[float, float]] = []
        before = probe()
        self.probes.append(before)
        self._started = self._resumed = time.perf_counter()
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._pid = self._reply()["pid"]
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            done = self._reply()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self._pid, signal.SIGKILL)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._pid = None
        ended = time.perf_counter()
        after = probe()
        self.probes.append(after)
        self._stretches.append((ended - self._resumed, after))
        speeds = despike([before] + [p for _, p in self._stretches])
        raw = corrected = 0.0
        for j, (duration, _) in enumerate(self._stretches):
            raw += duration
            corrected += duration * speed_factor((speeds[j] + speeds[j + 1]) / 2)
        return (corrected, raw, done["status"],
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"),
                done["maxrss_kib"])

    def python(self, code: str) -> str:
        """Output of a short child script, used for the import-time probe."""
        done = subprocess.run([sys.executable, "-c", code], cwd=self.work, env=self.env,
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError(f"child script failed: {done.stderr.strip()[-300:]}")
        return done.stdout


class Verdicts:
    """Checks outputs, remembering the verdict for byte-identical repeats."""

    def __init__(self, ops: list[workloads.Op], work: Path):
        self.ops = ops
        self.work = work
        self.cache: dict[tuple, tuple[list[str], str | None]] = {}
        self.attempted = 0
        self.failed = 0
        self.known: dict[str, int] = {}
        self.unexpected: list[str] = []

    def check(self, index: int, status: int, stdout: str, stderr: str) -> None:
        op = self.ops[index]
        output = None
        if op.output is not None:
            path = self.work / op.output
            if path.exists():
                output = path.read_text(encoding="utf-8")
                path.unlink()
        digest = hashlib.sha256(
            "\0".join([str(status), stdout, stderr, output if output is not None else "\1"]).encode()
        ).hexdigest()
        key = (index, digest)
        if key not in self.cache:
            self.cache[key] = op.check(oracles.Result(status, stdout, stderr, output))
        problems, known = self.cache[key]
        self.attempted += 1
        if problems:
            self.failed += 1
            if known is not None:
                self.known[known] = self.known.get(known, 0) + 1
            elif len(self.unexpected) < 10:
                self.unexpected.append(f"{op.label()}: {'; '.join(problems[:3])}")

    @property
    def correct(self) -> bool:
        return not self.unexpected


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def pass_count(workload: str, seconds: float, traced_run: bool) -> int:
    """Passes that take about ``seconds`` at the reference speed; even when traced."""
    pass_s = PASS_S[workload][traced_run]
    if traced_run:
        return 2 * max(1, round(seconds / (2 * pass_s)))
    return max(1, round(seconds / pass_s))


def measure(ops, kids: Children, work: Path, passes: int, run_start: float
            ) -> tuple[dict, list[str], Verdicts]:
    """Closed-loop untraced run of the workload's CLI operations.

    Runs ``passes`` whole passes, fewer only when the run would otherwise
    pass ``RUN_LIMIT_S`` (noted in the output).
    """
    verdicts = Verdicts(ops, work)

    def help_run() -> float:
        corrected, _, status, stdout, _, _ = kids.run(["--help"])
        if status != 0 or "usage: teamgames" not in stdout:
            raise BenchError(f"`teamgames --help` exited {status}")
        return corrected

    helps = [help_run() for _ in range(HELP_FIRST)]
    times = [[] for _ in ops]
    raws = [[] for _ in ops]
    peak_kib = 0
    done = 0
    while done < passes:
        if done and time.perf_counter() - run_start > RUN_LIMIT_S * done / (done + 1):
            break   # another pass would likely end past the limit
        for i, op in enumerate(ops):
            if time.perf_counter() - run_start > RUN_LIMIT_S:
                raise BenchError(f"run exceeded {RUN_LIMIT_S} s before a whole pass")
            corrected, raw, status, stdout, stderr, rss = kids.run(op.argv)
            times[i].append(corrected)
            raws[i].append(raw)
            peak_kib = max(peak_kib, rss)
            verdicts.check(i, status, stdout, stderr)
        done += 1
        helps += [help_run() for _ in range(HELP_PER_PASS)]

    op_medians = [_median(t) for t in times]
    metrics = {
        "setup_s": _median(helps),
        "wall_s": math.fsum(op_medians),
        "peak_rss_mb": peak_kib / 1024,
    }
    by_kind = {}
    for op, m in zip(ops, op_medians):
        by_kind[op.kind + "_s"] = by_kind.get(op.kind + "_s", 0.0) + m
    raw_wall = math.fsum(_median(r) for r in raws)
    notes = [f"passes {done} of {passes}, ops {verdicts.attempted}, help runs {len(helps)}"]
    notes += [f"{name:<16} {by_kind[name]:.4f} s" for name in COMMAND_TIMES if name in by_kind]
    notes.append(f"raw wall_s {raw_wall:.4f} s; probe median {_median(kids.probes):.5f} s "
                 f"(min {min(kids.probes):.5f}, max {max(kids.probes):.5f}, "
                 f"reference {REF_PROBE_S:.5f})")
    return metrics, notes, verdicts


def _run_inprocess(cli, op: workloads.Op, work: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(op.argv)
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, reported with its traceback
                traceback.print_exc()
                status = 1
    finally:
        os.chdir(cwd)
    return status, out.getvalue(), err.getvalue()


def traced(ops, kids: Children, work: Path, passes: int, run_start: float, spans_path: Path
           ) -> tuple[dict, list[str], Verdicts]:
    """Per-layer run: ``passes`` in-process passes, untraced and traced alternating."""
    code = ("import time; t = time.perf_counter(); import teamgames.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(IMPORT_RUNS):
        before = probe()
        raw = float(kids.python(code))
        imports.append(raw * speed_factor((before + probe()) / 2))

    sys.path.insert(0, str(SRC))
    import teamgames.cli as cli  # noqa: PLC0415 - the library under test is imported late

    verdicts = Verdicts(ops, work)
    walls = {False: [], True: []}
    layer_runs: list[dict] = []
    records: list[dict] = []
    absent: list[str] = []
    op_id = 0
    with_trace = False
    while len(walls[True]) + len(walls[False]) < passes:
        tracer = tracing.Tracer() if with_trace else None
        factors: dict[int, float] = {}   # op id -> speed correction
        corrected: list[float] = []
        if tracer is not None:
            tracer.install()
        try:
            speed = probe()
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op_id = op_id
                t0 = time.perf_counter()
                status, stdout, stderr = _run_inprocess(cli, op, work)
                raw = time.perf_counter() - t0
                after = probe()
                factors[op_id] = speed_factor((speed + after) / 2)
                corrected.append(raw * factors[op_id])
                speed = after
                verdicts.check(i, status, stdout, stderr)
                op_id += 1
        finally:
            if tracer is not None:
                tracer.restore()
        walls[with_trace].append(math.fsum(corrected))
        if tracer is not None:
            layer_runs.append(tracer.layer_values(factors))
            records += tracer.records()
            absent = tracer.absent_layers()
        with_trace = not with_trace
        if walls[True] and time.perf_counter() - run_start > RUN_LIMIT_S / 2:
            break   # past half the limit: stop after a traced/untraced pair

    metrics = {"cli.import_s": _median(imports)}
    for name in per_layer_names():
        if name in layer_runs[0]:
            metrics[name] = _median([run[name] for run in layer_runs])
    metrics["trace.overhead_frac"] = _median(walls[True]) / _median(walls[False]) - 1.0
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"spans": records}) + "\n", encoding="utf-8")
    notes = [f"traced passes {len(walls[True])}, untraced passes {len(walls[False])}",
             f"absent layers: {', '.join(absent) if absent else 'none'}",
             f"spans: {len(records)} written to {spans_path.relative_to(ROOT)}"]
    return metrics, notes, verdicts


def _terminate(signum, frame):
    raise BenchError("terminated")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run_start = time.perf_counter()
    # The probe only tracks the speed of the processor it runs on, so the
    # benchmark and its children share one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGTERM, _terminate)

    if not (SRC / "teamgames" / "cli.py").is_file():
        print(f"error: no teamgames source tree at {SRC.relative_to(ROOT)}/teamgames",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    kids = Children(work)
    try:
        ops = workloads.build(args.workload, args.seed, work)
        passes = pass_count(args.workload, args.seconds, bool(args.trace))
        if args.trace:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, notes, verdicts = traced(ops, kids, work, passes, run_start, spans)
            units = {name: layer_unit(name) for name in per_layer_names()}
        else:
            metrics, notes, verdicts = measure(ops, kids, work, passes, run_start)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        kids.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()   # only when no other run is using it

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name:<24} {value:.6g} {units[name]}")
    print(f"error_rate               {verdicts.failed / max(verdicts.attempted, 1):.4f} "
          f"({verdicts.failed} failed of {verdicts.attempted} ops)")
    for name, count in sorted(verdicts.known.items()):
        print(f"known failure {name}: {count} ops")
    for line in verdicts.unexpected:
        print(f"UNEXPECTED FAILURE {line}")
    result = {
        "correct": verdicts.correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
