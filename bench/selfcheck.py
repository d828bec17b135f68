#!/usr/bin/env python3
"""Checks of the benchmark itself; run from the repository root:

    python3 bench/selfcheck.py

* the same seed gives byte-identical documents, another seed different ones;
* every oracle accepts real CLI output and rejects it once perturbed (a
  flipped quadrant, an off-by-one team size, a coalition constraint broken
  by 1e-6, and a few more);
* the trace wrappers catch calls and put every original function back,
  and a function missing from the library is reported, not fatal;
* ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import oracles
import run
import tracing
import workloads

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def check_determinism(tmp: Path) -> None:
    for name in workloads.WORKLOADS:
        dirs = [tmp / f"{name}-{i}" for i in range(3)]
        for d, seed in zip(dirs, (7, 7, 8)):
            d.mkdir()
            ops = workloads.build(name, seed, d)
            (d / "ops.txt").write_text("\n".join(op.label() for op in ops) + "\n")
        first, again, other = (digests(d) for d in dirs)
        expect(first == again, f"{name}: seed 7 twice gives byte-identical inputs")
        expect(first != other, f"{name}: seed 8 gives different inputs")


def run_op(kids: run.Children, op: workloads.Op, work: Path) -> oracles.Result:
    _, _, status, stdout, stderr, _ = kids.run(op.argv)
    output = None
    if op.output is not None and (work / op.output).exists():
        output = (work / op.output).read_text(encoding="utf-8")
    return oracles.Result(status, stdout, stderr, output)


def perturbed(res: oracles.Result, output: str | None = None, stdout: str | None = None):
    return oracles.Result(res.status, res.stdout if stdout is None else stdout, res.stderr,
                          res.output if output is None else output)


def edit_csv_cell(text: str, row: int, column: str, change) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    j = header.index(column)
    cells[j] = change(cells[j])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def rejects(op: workloads.Op, res: oracles.Result) -> bool:
    problems, known = op.check(res)
    return bool(problems) and known is None


def check_oracles(tmp: Path) -> None:
    work = tmp / "oracles"
    work.mkdir()
    kids = run.Children(work)
    try:
        check_oracle_cases(kids, work)
    finally:
        kids.close()


def check_oracle_cases(kids: run.Children, work: Path) -> None:
    ops = {}
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 3, work):
            ops.setdefault(op.kind, op)
    tu_classify = [op for op in workloads.build("documents", 3, work) if op.kind == "classify"]
    results = {kind: run_op(kids, op, work) for kind, op in ops.items()}

    for kind, op in ops.items():
        problems, known = op.check(results[kind])
        expect(not problems or known is not None, f"{kind}: real output passes ({problems[:1]})")

    sweep = results["cobb_sweep"]
    flip = {"I": "II", "II": "I", "III": "IV", "IV": "III", "axis-a": "origin",
            "axis-c": "origin", "origin": "I"}
    expect(rejects(ops["cobb_sweep"], perturbed(
        sweep, edit_csv_cell(sweep.output, 5, "quadrant", lambda q: flip[q]))),
        "cobb sweep: a flipped quadrant is rejected")
    expect(rejects(ops["cobb_sweep"], perturbed(
        sweep, edit_csv_cell(sweep.output, 7, "altruism", lambda v: repr(float(v) * (1 + 1e-6) + 1e-6)))),
        "cobb sweep: altruism off by 1e-6 is rejected")
    path = results["cobb_path"]
    expect(rejects(ops["cobb_path"], perturbed(
        path, edit_csv_cell(path.output, 3, "utility", lambda v: repr(float(v) + 1e-6)))),
        "cobb path: utility off by 1e-6 is rejected")
    rational = results["cobb_rational"]
    expect(rejects(ops["cobb_rational"], perturbed(
        rational, edit_csv_cell(rational.output, 4, "xA_rational", lambda v: repr(abs(float(v) - 0.05))))),
        "cobb rational: a contribution 0.05 away from the maximum is rejected")
    expect(rejects(ops["cobb_rational"], perturbed(
        rational, edit_csv_cell(rational.output, 6, "zero_altruism_xA",
                                lambda v: repr(float(v) + 0.01) if v else "0.5"))),
        "cobb rational: a moved zero-altruism root is rejected")

    frontier = results["cobb_frontier"]
    fop = ops["cobb_frontier"]
    beta = Fraction(fop.argv[fop.argv.index("--beta") + 1])
    rows = frontier.output.splitlines()[1:]
    res = int(fop.argv[fop.argv.index("--resolution") + 1])

    def exact(i):
        gamma, k = Fraction(workloads.DEFAULT_FRONTIER_GAMMAS[i // res]), i % res + 1
        return oracles.stable_size(gamma, Fraction(k, res), beta)

    plain = next(i for i in range(len(rows)) if exact(i)[0] not in (0.0, math.inf)
                 and not exact(i)[1])
    for delta, what in ((1, "one too large"), (-1, "one too small")):
        expect(rejects(fop, perturbed(frontier, edit_csv_cell(
            frontier.output, plain, "max_stable_size", lambda v: repr(float(v) + delta)))),
            f"cobb frontier: a team size {what} is rejected")

    metrics = results["metrics"]
    expect(rejects(ops["metrics"], perturbed(
        metrics, edit_csv_cell(metrics.output, 2, "competitive", lambda v: repr(float(v) + 1e-6)))),
        "metrics: a competitive value off by 1e-6 is rejected")
    graph = results["graph"]
    lines = graph.output.splitlines()
    src, dst, weight = lines[3].split()
    lines[3] = f"{src} {dst} {float(weight) + 0.25!r}"
    expect(rejects(ops["graph"], perturbed(graph, "\n".join(lines) + "\n")),
           "graph: an edge weight off by 0.25 is rejected")
    classify = results["classify"]
    flipped = classify.stdout.replace("true", "false", 1)
    expect(rejects(ops["classify"], perturbed(classify, stdout=flipped)),
           "classify: a flipped predicate answer is rejected")
    shapley = results["shapley"]
    expect(rejects(ops["shapley"], perturbed(
        shapley, edit_csv_cell(shapley.output, 1, "shapley", lambda v: repr(float(v) + 1e-6)))),
        "shapley: a value off by 1e-6 is rejected")

    core_op = next(op for op in workloads.build("documents", 3, work)
                   if op.kind == "core" and "convex9" in op.argv[1])
    core = run_op(kids, core_op, work)
    expect(not core_op.check(core)[0], "core: real witness passes")
    rows = [line.split(",") for line in core.output.splitlines()[1:]]
    x = [float(r[1]) for r in rows]
    sums = oracles.coalition_sums(x)
    worth = [0.0] * len(sums)
    doc = json.loads((work / "convex9.game").read_text())
    index = {p: i for i, p in enumerate(doc["players"])}
    for e in doc["utilities"]:
        worth[sum(1 << index[p] for p in e["subset"])] = e["value"]
    full = len(sums) - 1
    tight = min(range(1, full), key=lambda m: (sums[m] - worth[m], m))
    inside = [i for i in range(len(x)) if tight >> i & 1]
    outside = [i for i in range(len(x)) if not tight >> i & 1]
    shift = sums[tight] - worth[tight] + 1e-6
    x[inside[0]] -= shift
    x[outside[0]] += shift
    broken = "player,allocation\n" + "".join(f"{r[0]},{v!r}\n" for r, v in zip(rows, x))
    expect(rejects(core_op, perturbed(core, broken)),
           "core: a witness with one coalition constraint broken by 1e-6 is rejected")

    for op in tu_classify:
        if int(op.argv[1].removesuffix(".game").lstrip("abcdefghijklmnopqrstuvwxyz")) <= 10:
            continue
        res = run_op(kids, op, work)
        problems, known = op.check(res)
        expect(known == "classify-tu-core-limit" or not problems,
               f"classify {op.argv[1]}: fails only as the known defect")
        changed = res.stdout.replace("true", "maybe", 1).replace("false", "maybe", 1)
        expect(rejects(op, perturbed(res, stdout=changed)),
               f"classify {op.argv[1]}: a changed report line is rejected")


def check_tracing() -> None:
    sys.path.insert(0, str(run.SRC))
    import teamgames.cli as cli

    def bindings():
        return {(key, name): id(value) for key, m in sys.modules.items()
                if key.startswith("teamgames") and m is not None
                for name, value in vars(m).items() if callable(value)}

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    expect(bindings() != before, "tracing: wrappers are installed")
    expect(not tracer.absent, f"tracing: every target found ({tracer.absent})")
    tracer.op_id = 0
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["cobb", "frontier", "--beta", "2", "--resolution", "5", "-o", os.devnull])
    tracer.restore()
    values = tracer.layer_values({})
    expect(values["cobb.frontier_s"] > 0 and values["cli.self_s"] > 0,
           "tracing: a CLI call records spans for cli.main and stable_size_grid")
    expect(bindings() == before, "tracing: every original function is restored")

    import teamgames.parallel as parallel
    saved = parallel.ordered_map
    del parallel.ordered_map
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.restore()
        expect("parallel.calls" in tracer.absent_layers(),
               "tracing: a missing function is reported as an absent layer")
    finally:
        parallel.ordered_map = saved
    expect(bindings() == before, "tracing: bindings unchanged after the absent-layer run")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END],
           "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect([m["name"] for m in spec["per_layer"]] == run.per_layer_names(),
           "BENCHMARK.json per_layer matches run.per_layer_names()")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    expect(sorted(run.PASS_S) == sorted(workloads.WORKLOADS),
           "run.PASS_S has a pass time for every workload")
    counts = [run.pass_count(w["name"], spec["run_seconds"], traced)
              for w in spec["workloads"] for traced in (False, True)]
    expect(all(c >= 1 for c in counts) and all(c % 2 == 0 for c in counts[1::2]),
           "pass counts at run_seconds: at least one, even when traced")


def main() -> int:
    tmp = run.ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        check_determinism(tmp)
        check_oracles(tmp)
        check_tracing()
        check_benchmark_json()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()
    print(f"{len(FAILURES)} self-check failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
