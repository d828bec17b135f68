"""Output checks that do not use the library.

Each ``check_*`` function takes the parameters of one CLI invocation and its
result (exit status, standard output, standard error, output file text) and
returns a list of problems; an empty list means the output is correct.

Closed forms used here:

* Cobb-Douglas rows: symmetric groups of sizes a and b on unit pools with
  per-member contributions xA and xB. With X = a xA + b xB, N = a + b,
  f(x) = alpha x^beta and mix g, the payment to a group G of size k and
  contribution XG inside the joint coalition is (g XG/X + (1-g) k/N) f(X),
  and every utility is payment^theta * reserve^(1-theta).
* Team games: the utility function recorded by the generator.
* TU games: exact Shapley values and the coalition constraints.
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

TOL = 1e-9
REL = 1e-9

COBB_COLUMNS = ["gamma", "theta", "beta", "sizeA", "sizeB", "xA_avg", "xB_avg", "payoff",
                "utility", "altruism", "competitive", "marginal", "quadrant"]
RATIONAL_COLUMNS = ["gamma", "theta", "beta", "sizeA", "sizeB", "xB_avg", "xA_rational",
                    "zero_altruism_xA"]
FRONTIER_COLUMNS = ["gamma", "r", "beta", "max_stable_size"]
METRICS_COLUMNS = ["subset", "altruism", "competitive", "marginal", "quadrant"]


class Result:
    """What one CLI invocation produced."""

    def __init__(self, status: int, stdout: str, stderr: str, output: str | None):
        self.status = status
        self.stdout = stdout
        self.stderr = stderr
        self.output = output


def quadrant(a: float, c: float, tol: float = TOL) -> str:
    """Open-band quadrant rule: axis and origin tags inside the band."""
    a_sign = 0 if abs(a) <= tol else (1 if a > 0 else -1)
    c_sign = 0 if abs(c) <= tol else (1 if c > 0 else -1)
    if a_sign == 0 and c_sign == 0:
        return "origin"
    if a_sign == 0:
        return "axis-c"
    if c_sign == 0:
        return "axis-a"
    if a_sign > 0:
        return "I" if c_sign > 0 else "IV"
    return "II" if c_sign > 0 else "III"


def close(got: float, want: float, scale: float = 0.0) -> bool:
    """Agreement within REL of the larger of |want| and the size of the terms it came from."""
    return abs(got - want) <= REL * max(abs(want), scale) + 1e-300


def read_table(text: str | None, columns: list[str]) -> tuple[list[dict], list[str]]:
    if text is None:
        return [], ["no output file"]
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return [], ["empty output file"]
    if header != columns:
        return [], [f"header {header} != {columns}"]
    return [dict(zip(columns, row)) for row in reader], []


def _ok_exit(res: Result) -> list[str]:
    problems = []
    if res.status != 0:
        problems.append(f"exit status {res.status}")
    if "Traceback" in res.stderr:
        problems.append("traceback on stderr")
    return problems


# ---------------------------------------------------------------- Cobb-Douglas

class Cobb:
    """Closed forms of the symmetric two-group contribution game."""

    def __init__(self, theta: float, alpha: float, beta: float, gamma: float, a: int, b: int):
        self.theta, self.alpha, self.beta, self.g = theta, alpha, beta, gamma
        self.a, self.b, self.N = a, b, a + b

    def f(self, x: float) -> float:
        return self.alpha * x ** self.beta

    def pay(self, xg: float, k: int, x: float, size: int) -> float:
        """Payment to a group (contribution xg, k heads) inside a coalition (x, size heads)."""
        if x <= 0.0:
            return 0.0
        return (self.g * (xg / x) + (1.0 - self.g) * (k / size)) * self.f(x)

    def cd(self, pay: float, reserve: float) -> float:
        return pay ** self.theta * reserve ** (1.0 - self.theta)

    def row(self, xa: float, xb: float) -> dict:
        a, b, N = self.a, self.b, self.N
        XA, XB = a * xa, b * xb
        X = XA + XB
        res_a, res_b = a * (1.0 - xa), b * (1.0 - xb)
        pay_a = self.pay(XA, a, X, N)
        u_a = self.cd(pay_a, res_a)
        u_all = self.cd(self.pay(X, N, X, N), res_a + res_b)
        u_b_joint = self.cd(self.pay(XB, b, X, N), res_b)
        u_b_alone = self.cd(self.pay(XB, b, XB, b), res_b)
        alt = u_b_joint - u_b_alone
        comp = u_all - u_b_joint
        return {
            "payoff": (pay_a, 0.0),
            "utility": (u_a, 0.0),
            "altruism": (alt, max(abs(u_b_joint), abs(u_b_alone))),
            "competitive": (comp, max(abs(u_all), abs(u_b_joint))),
            "marginal": (alt + comp, max(abs(u_all), abs(u_b_alone))),
        }

    def focal_utility(self, v: float, xb: float) -> float:
        """Utility of one member of A when all of A contribute v and B contributes xb each."""
        X = self.a * v + self.b * xb
        return self.cd(self.pay(v, 1, X, self.N), 1.0 - v)

    def balance(self, xa_total: float, xb: float) -> float:
        """Sign-bearing part of A's altruism: B's payment jointly minus alone."""
        XB = self.b * xb
        return self.pay(XB, self.b, xa_total + XB, self.N) - self.pay(XB, self.b, XB, self.b)


def _cobb_row_problems(model: Cobb, i: int, row: dict) -> list[str]:
    problems = []
    xa, xb = float(row["xA_avg"]), float(row["xB_avg"])
    for col, (want, scale) in model.row(xa, xb).items():
        got = float(row[col])
        if not close(got, want, scale):
            problems.append(f"row {i}: {col} {got!r} != closed form {want!r}")
    label = quadrant(float(row["altruism"]), float(row["competitive"]))
    if row["quadrant"] != label:
        problems.append(f"row {i}: quadrant {row['quadrant']} != {label}")
    return problems


def _check_params(i: int, row: dict, want: dict) -> list[str]:
    return [f"row {i}: {k} {row[k]} != {v}" for k, v in want.items() if row[k] != v]


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def check_sweep(res: Result, p: dict) -> list[str]:
    problems = _ok_exit(res)
    rows, errs = read_table(res.output, COBB_COLUMNS)
    problems += errs
    n = p["resolution"]
    expected_rows = len(p["gammas"]) * n * n
    if len(rows) != expected_rows:
        return problems + [f"{len(rows)} rows, expected {expected_rows}"]
    axis = [k / (n - 1) for k in range(n)]
    i = 0
    for gamma in p["gammas"]:
        model = Cobb(p["theta"], p["alpha"], p["beta"], gamma, p["sizeA"], p["sizeB"])
        fixed = {"gamma": _fmt(gamma), "theta": _fmt(p["theta"]), "beta": _fmt(p["beta"]),
                 "sizeA": str(p["sizeA"]), "sizeB": str(p["sizeB"])}
        for xb in axis:
            for xa in axis:
                row = rows[i]
                problems += _check_params(i, row, fixed)
                if abs(float(row["xA_avg"]) - xa) > 1e-12 or abs(float(row["xB_avg"]) - xb) > 1e-12:
                    problems.append(f"row {i}: grid point ({row['xA_avg']}, {row['xB_avg']}) "
                                    f"!= ({xa!r}, {xb!r})")
                problems += _cobb_row_problems(model, i, row)
                i += 1
                if len(problems) > 20:
                    return problems
    return problems


def _grid_max(fn, lo: float, hi: float, points: int = 400) -> float:
    return max(fn(lo + (hi - lo) * k / points) for k in range(points + 1))


def _optimal(model: Cobb, x: float, xb: float) -> bool:
    """Is x at least as good as the best point of the benchmark's own grid?"""
    best = _grid_max(lambda v: model.focal_utility(v, xb), 0.0, 1.0)
    return model.focal_utility(x, xb) >= best - 1e-8 * max(1.0, abs(best))


def check_path(res: Result, p: dict) -> list[str]:
    problems = _ok_exit(res)
    rows, errs = read_table(res.output, COBB_COLUMNS)
    problems += errs
    samples = p["samples"]
    if len(rows) != len(p["gammas"]) * samples:
        return problems + [f"{len(rows)} rows, expected {len(p['gammas']) * samples}"]
    i = 0
    for gamma in p["gammas"]:
        model = Cobb(p["theta"], p["alpha"], p["beta"], gamma, p["sizeA"], p["sizeB"])
        for k in range(samples):
            row = rows[i]
            problems += _check_params(i, row, {"gamma": _fmt(gamma), "sizeA": str(p["sizeA"]),
                                               "sizeB": str(p["sizeB"])})
            xb = float(row["xB_avg"])
            if abs(xb - k / (samples - 1)) > 1e-12:
                problems.append(f"row {i}: xB_avg {xb!r} is not sample {k}")
            problems += _cobb_row_problems(model, i, row)
            if not _optimal(model, float(row["xA_avg"]), xb):
                problems.append(f"row {i}: xA_avg {row['xA_avg']} is not a utility maximum")
            i += 1
    return problems


def _zero_problems(model: Cobb, cell: str, xb: float) -> list[str]:
    """Check the smallest zero of the payment balance over A's total contribution [0, a]."""
    a = model.a
    h = lambda t: model.balance(t, xb)  # noqa: E731
    scale = max(1.0, model.f(a + model.b * xb))
    grid = [a * k / 2000 for k in range(2001)]
    vals = [h(t) for t in grid]

    def first_zero_before(limit: float) -> float | None:
        for k, t in enumerate(grid):
            if t >= limit:
                return None
            if abs(vals[k]) <= TOL:
                return t
            if k + 1 < len(grid) and grid[k + 1] < limit and (vals[k] < 0) != (vals[k + 1] < 0) \
                    and abs(vals[k + 1]) > TOL:
                return t
        return None

    if cell == "":
        early = first_zero_before(math.inf)
        return [] if early is None else [f"no root printed, but the balance vanishes near {early / a!r}"]
    root = float(cell) * a
    if not 0.0 <= root <= a + 1e-12:
        return [f"root {cell} outside [0, 1]"]
    lo, hi = max(root - 1e-7, 0.0), min(root + 1e-7, float(a))
    is_zero = abs(h(root)) <= 1e-7 * scale or (h(lo) < 0) != (h(hi) < 0)
    problems = [] if is_zero else [f"balance at root {cell} is {h(root)!r}, no sign change"]
    early = first_zero_before(root - 1e-6)
    if early is not None:
        problems.append(f"root {cell} is not the smallest: the balance vanishes near {early / a!r}")
    return problems


def check_rational(res: Result, p: dict) -> list[str]:
    problems = _ok_exit(res)
    rows, errs = read_table(res.output, RATIONAL_COLUMNS)
    problems += errs
    n = p["resolution"]
    if len(rows) != len(p["gammas"]) * n:
        return problems + [f"{len(rows)} rows, expected {len(p['gammas']) * n}"]
    i = 0
    for gamma in p["gammas"]:
        model = Cobb(p["theta"], p["alpha"], p["beta"], gamma, p["sizeA"], p["sizeB"])
        for k in range(n):
            row = rows[i]
            xb = k / (n - 1)
            problems += _check_params(i, row, {"gamma": _fmt(gamma), "xB_avg": _fmt(xb),
                                               "sizeA": str(p["sizeA"]), "sizeB": str(p["sizeB"])})
            # the group best-responds to B at xb with A's own contributions free
            if not _optimal(model, float(row["xA_rational"]), xb):
                problems.append(f"row {i}: xA_rational {row['xA_rational']} is not a maximum")
            problems += [f"row {i}: {m}" for m in _zero_problems(model, row["zero_altruism_xA"], xb)]
            i += 1
    return problems


def _isqrt_fraction(r: Fraction) -> Fraction | None:
    num, den = math.isqrt(r.numerator), math.isqrt(r.denominator)
    if num * num == r.numerator and den * den == r.denominator:
        return Fraction(num, den)
    return None


def stable_size(gamma: Fraction, r: Fraction, beta: Fraction) -> tuple[float, bool]:
    """Exact floor of (1-gamma)/(r^beta - gamma r), or inf; and whether the bound is an integer.

    Integer beta is done in rational arithmetic. Half-integer beta is
    rational when r is a rational square; otherwise the bound is irrational
    and a 60-digit decimal decides the floor.
    """
    if beta.denominator == 1:
        power = r ** int(beta)
    elif beta.denominator == 2:
        root = _isqrt_fraction(r)
        power = None if root is None else r ** (beta.numerator // 2) * root
    else:
        raise ValueError("only integer and half-integer exponents are checked")
    if power is not None:
        denom = power - gamma * r
        if denom <= 0:
            return math.inf, False
        bound = (1 - gamma) / denom
        return float(math.floor(bound)), bound.denominator == 1
    # irrational r^beta: the sign of r^(k+1/2) - gamma r is that of r^(2k-1) - gamma^2
    k = beta.numerator // 2
    if r ** (2 * k - 1) <= gamma * gamma:
        return math.inf, False
    with localcontext() as ctx:
        ctx.prec = 60
        rd = Decimal(r.numerator) / Decimal(r.denominator)
        gd = Decimal(gamma.numerator) / Decimal(gamma.denominator)
        bound = (1 - gd) / (rd ** k * rd.sqrt() - gd * rd)
        return float(int(bound)), False


def frontier_mismatches(res: Result, p: dict) -> tuple[list[str], list[tuple]]:
    """Problems, and the rows off by one at an exact integer bound (a known defect)."""
    problems = _ok_exit(res)
    rows, errs = read_table(res.output, FRONTIER_COLUMNS)
    problems += errs
    n = p["resolution"]
    if len(rows) != len(p["gammas"]) * n:
        return problems + [f"{len(rows)} rows, expected {len(p['gammas']) * n}"], []
    beta = Fraction(p["beta_text"])
    off_by_one = []
    i = 0
    for gamma_text in p["gamma_texts"]:
        gamma = Fraction(gamma_text)
        for k in range(1, n + 1):
            row = rows[i]
            if row["r"] != repr(k / n) or float(row["gamma"]) != float(gamma):
                problems.append(f"row {i}: grid point ({row['gamma']}, {row['r']})")
            want, integral = stable_size(gamma, Fraction(k, n), beta)
            got = float(row["max_stable_size"])
            if got != want:
                if integral and got == want - 1:
                    off_by_one.append((gamma_text, k, n, want, got))
                else:
                    problems.append(f"row {i}: max_stable_size {got!r} != exact {want!r}")
            i += 1
    return problems, off_by_one


# ---------------------------------------------------------------- team games

def _yes(flag: bool) -> str:
    return "true" if flag else "false"


def _label(mask: int, names: list[str], sep: str = "+") -> str:
    return sep.join(names[i] for i in range(len(names)) if mask >> i & 1)


def check_team_metrics(res: Result, facts, names: list[str]) -> list[str]:
    problems = _ok_exit(res)
    rows, errs = read_table(res.output, METRICS_COLUMNS)
    problems += errs
    n = facts.n
    full = (1 << n) - 1
    if len(rows) != full - 1:
        return problems + [f"{len(rows)} rows, expected {full - 1}"]
    u = facts.utility
    grand = u(full, full)
    for mask in range(1, full):
        row = rows[mask - 1]
        b = full & ~mask
        joint_b = u(b, full)
        alt = joint_b - u(b, b)
        comp = grand - joint_b
        if row["subset"] != _label(mask, names):
            problems.append(f"row {mask}: subset {row['subset']}")
        got = {k: float(row[k]) for k in ("altruism", "competitive", "marginal")}
        for key, want in (("altruism", alt), ("competitive", comp), ("marginal", alt + comp)):
            if not close(got[key], want, abs(grand) + abs(joint_b)):
                problems.append(f"row {mask}: {key} {got[key]!r} != {want!r}")
        if row["quadrant"] != quadrant(got["altruism"], got["competitive"]):
            problems.append(f"row {mask}: quadrant {row['quadrant']}")
        if len(problems) > 20:
            break
    return problems


def check_team_classify(res: Result, facts, names: list[str]) -> list[str]:
    problems = _ok_exit(res)
    preds = facts.predicates
    want = [
        f"kind: team game ({facts.n} players: {', '.join(names)})",
        f"sensible: {_yes(preds['sensible'])}",
        f"fully-cooperative: {_yes(preds['fully_cooperative'])}",
        f"utility in team core: {_yes(preds['fully_cooperative'])}",
        f"additive: {_yes(preds['additive'])}",
        f"co-additive: {_yes(preds['coadditive'])}",
        f"bi-additive: {_yes(preds['biadditive'])}",
    ]
    if preds["biadditive"]:
        want += [
            f"perception[{names[a]}]: " + " ".join(repr(float(v)) for v in facts.matrix[a])
            for a in range(facts.n)
        ]
    got = res.stdout.splitlines()
    if got != want:
        diff = [f"line {i}: {g!r} != {w!r}" for i, (g, w) in enumerate(zip(got, want)) if g != w]
        problems.append(f"classify report differs ({len(got)} vs {len(want)} lines) " + "; ".join(diff[:3]))
    return problems


def check_reduce(res: Result, facts, names: list[str]) -> list[str]:
    problems = _ok_exit(res)
    if facts.predicates["reducible"]:
        if not res.stdout.startswith("reduced to a TU game"):
            return problems + [f"expected a reduction, got {res.stdout[:80]!r}"]
        try:
            doc = json.loads(res.output or "")
        except json.JSONDecodeError as exc:
            return problems + [f"reduced document is not JSON: {exc}"]
        entries = doc.get("utilities", [])
        if len(entries) != (1 << facts.n) - 1 or doc.get("players") != names:
            return problems + ["reduced document has the wrong shape"]
        index = {name: i for i, name in enumerate(names)}
        for e in entries:
            mask = sum(1 << index[x] for x in e["subset"])
            if e["value"] != facts.worth[mask]:
                problems.append(f"reduced worth of {e['subset']} is {e['value']}, "
                                f"expected {facts.worth[mask]}")
                break
        return problems
    a, b, value = facts.witness
    want = [
        "not reducible: competitive contributions do not vanish",
        f"witness: c[{_label(a, names)} | {_label(b, names)}] = {value!r}",
    ]
    if res.stdout.splitlines() != want:
        problems.append(f"reduce-tu printed {res.stdout.splitlines()!r}, expected {want!r}")
    return problems


def check_graph(res: Result, facts) -> list[str]:
    problems = _ok_exit(res)
    m = facts.matrix
    n = facts.n
    want = [f"{src} {dst} {float(m[dst][src])!r}" for src in range(n) for dst in range(n)]
    got = (res.output or "").splitlines()
    if got != want:
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        problems.append(f"edge list differs from the generating matrix ({len(got)} lines, "
                        f"first difference at {bad[:1] or 'length'})")
    return problems


# ---------------------------------------------------------------- TU games

def coalition_sums(x: list[float]) -> list[float]:
    sums = [0.0] * (1 << len(x))
    for mask in range(1, 1 << len(x)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + x[low.bit_length() - 1]
    return sums


def core_problems(x: list[float], worth: list[float], tol: float = TOL) -> list[str]:
    """Efficiency and every coalition constraint of a core allocation."""
    sums = coalition_sums(x)
    full = len(worth) - 1
    problems = []
    if abs(sums[full] - worth[full]) > tol:
        problems.append(f"allocation sums to {sums[full]!r}, grand worth {worth[full]!r}")
    for mask in range(1, full):
        if sums[mask] < worth[mask] - tol:
            problems.append(f"coalition mask {mask} gets {sums[mask]!r} < worth {worth[mask]!r}")
            break
    return problems


def _shapley_in_core(facts) -> bool | None:
    """Exact answer, or None when some constraint is within 1e-7 (either float answer is fine)."""
    phi = facts.shapley
    worth = [Fraction(w) for w in facts.worth]
    slack = []
    full = len(worth) - 1
    sums = [Fraction(0)] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + phi[low.bit_length() - 1]
        slack.append(sums[mask] - worth[mask])
    tightest = min(slack[:-1]) if full > 1 else Fraction(0)
    if abs(tightest) <= Fraction(1, 10**7):
        return None
    return tightest > 0


def check_tu_classify(res: Result, facts, names: list[str]) -> list[str]:
    """Full report with exit 0; the caller handles the known n > 10 refusal."""
    preds = facts.predicates
    lines = res.stdout.splitlines()
    problems = []
    head = [
        f"kind: TU game ({facts.n} players: {', '.join(names)})",
        f"convex: {_yes(preds['convex'])}",
        f"superadditive: {_yes(preds['superadditive'])}",
    ]
    if lines[:3] != head:
        problems.append(f"classify head {lines[:3]!r} != {head!r}")
    if len(lines) < 5 or not lines[3].startswith("shapley: "):
        return problems + ["classify report is missing the shapley lines"]
    problems += _shapley_problems(lines[3][len("shapley: "):].split(" "), facts, names)
    in_core = _shapley_in_core(facts)
    if in_core is not None and lines[4] != f"shapley in core: {_yes(in_core)}":
        problems.append(f"{lines[4]!r}, expected {_yes(in_core)}")
    return problems


def _shapley_problems(cells: list[str], facts, names: list[str]) -> list[str]:
    phi = facts.shapley
    if len(cells) != len(names):
        return [f"{len(cells)} Shapley values for {len(names)} players"]
    problems = []
    for cell, name, want in zip(cells, names, phi):
        key, _, value = cell.partition("=")
        if key != name or not close(float(value), float(want), 1.0):
            problems.append(f"shapley {cell} != {name}={float(want)!r}")
    return problems


def check_tu_classify_full(res: Result, facts, names: list[str]) -> list[str]:
    problems = _ok_exit(res) + check_tu_classify(res, facts, names)
    lines = res.stdout.splitlines()
    want = f"core nonempty: {_yes(facts.predicates['core_nonempty'])}"
    if len(lines) != 6 or lines[5] != want:
        problems.append(f"classify ends {lines[5:]!r}, expected {want!r}")
    return problems


def check_shapley(res: Result, facts, names: list[str]) -> list[str]:
    problems = _ok_exit(res)
    rows, errs = read_table(res.output, ["player", "shapley"])
    problems += errs
    problems += _shapley_problems([f"{r['player']}={r['shapley']}" for r in rows], facts, names)
    return problems


def check_core(res: Result, facts, names: list[str]) -> list[str]:
    problems = _ok_exit(res)
    if not facts.predicates["core_nonempty"]:
        if res.stdout.strip() != "core: empty":
            problems.append(f"core is empty by construction, CLI printed {res.stdout[:60]!r}")
        return problems
    if not res.stdout.startswith("core: nonempty"):
        return problems + [f"core is nonempty by construction, CLI printed {res.stdout[:60]!r}"]
    rows, errs = read_table(res.output, ["player", "allocation"])
    if errs or [r["player"] for r in rows] != names:
        return problems + errs + ["witness file lists the wrong players"]
    return problems + core_problems([float(r["allocation"]) for r in rows], facts.worth)
