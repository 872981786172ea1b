"""Seeded inputs for the benchmark workloads and the checks on their outputs.

A workload is one fixed cycle of `lpvi` command lines. The seed sets the
numbers inside the generated INI files (offsets, solutions, box positions,
matrices, suite seeds) but not the amount of work: every instance is built
so that its iteration count or grid size does not depend on the seed. That
keeps the run-to-run spread of a workload down to machine noise.

The cycles are also laid out for stable quantiles. Every op of a cycle runs
once per cycle and runs are whole cycles, so the op latency distribution is
a fixed mix. Each workload puts its median and its 90th percentile inside a
group of ops of similar cost, never on the boundary between a cheap group
and an expensive one.

`build` writes the INI files into the current directory and returns the ops.
File names are relative, so outputs (which echo the trace path) hash the
same in every checkout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL = 1e-10  # the solver's default stopping tolerance, used by every solve


@dataclass
class Op:
    name: str                      # unique within its cycle
    kind: str                      # solve, oracle, check-map or verify.<suite>
    argv: list[str]
    check: Callable[[str, bytes], str | None]  # (stdout, trace) -> error or None
    out: str | None = None         # trace CSV the op writes


def _num(value) -> str:
    return repr(float(value))


def _vec(values) -> str:
    return " ".join(_num(v) for v in values)


def _matrix(m) -> str:
    rows = (" ".join("0" if v == 0.0 else repr(v) for v in row)
            for row in np.asarray(m, dtype=float).tolist())
    return "\n    ".join(rows)


def _write_ini(path: str, sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines))
    return path


def _p_norm(x, p: float) -> float:
    return float(np.sum(np.abs(np.asarray(x, dtype=float)) ** p) ** (1.0 / p))


def _unit(rng, n: int, p: float) -> np.ndarray:
    d = rng.standard_normal(n)
    return d / _p_norm(d, p)


# ---------------------------------------------------------------- solve

def _parse_solve(stdout: str, trace: bytes):
    record = json.loads(stdout)
    if record.get("status") != "converged":
        return None, f"status {record.get('status')!r}, expected converged"
    rows = trace.decode().splitlines()
    if rows[0] != "iter,step_norm,residual" or len(rows) != record["iterations"] + 1:
        return None, (f"trace has {len(rows) - 1} rows for"
                      f" {record['iterations']} iterations")
    return record, None


def _closed_form_check(expected, p: float, q: float):
    """Accept a solve whose final point is within the a posteriori bound
    q / (1 - q) * tol * (1 + |u|) of the closed-form solution u (times ten
    for rounding), where q is the instance's contraction factor."""
    expected = np.asarray(expected, dtype=float)
    bound = 10.0 * q / (1.0 - q) * TOL * (1.0 + _p_norm(expected, p)) + 1e-13

    def check(stdout: str, trace: bytes):
        record, error = _parse_solve(stdout, trace)
        if error:
            return error
        gap = float(np.max(np.abs(np.asarray(record["final_point"]) - expected)))
        if not gap <= bound:
            return f"final point is {gap:.3e} from the closed form (bound {bound:.1e})"
        return None
    return check


def _residual_check(config: str):
    """Accept a solve whose final point passes lpvi.solver.vi_residual."""
    def check(stdout: str, trace: bytes):
        record, error = _parse_solve(stdout, trace)
        if error:
            return error
        from lpvi.config import load_config
        from lpvi.solver import vi_residual
        problem = load_config(config).problem
        x = np.asarray(record["final_point"])
        residual = vi_residual(problem, x, record["lambda"])
        bound = 10.0 * TOL * (1.0 + _p_norm(x, problem.space.p))
        if not residual <= bound:
            return f"vi_residual {residual:.3e} exceeds {bound:.1e}"
        return None
    return check


def _solve_op(name, sections, check) -> Op:
    config = _write_ini(f"{name}.ini", sections)
    out = f"{name}.csv"
    return Op(name, "solve", ["solve", "--config", config, "--out", out],
              check, out=out)


def _box_solve(rng, name, n, p, lam=0.5):
    """Diagonal affine map on [-1, 1]^n with an explicit step. One
    coordinate has factor |1 - lam a| = 0.5 and starts 0.5 from its
    target; the others contract faster, so the iteration count is the
    same for every seed."""
    a = rng.uniform(1.2, 1.5, n)
    target = rng.uniform(-1.5, 1.5, n)
    slow = int(rng.integers(n))
    a[slow] = 1.0
    target[slow] = rng.uniform(-0.5, 0.5)
    x0 = rng.uniform(-1.0, 1.0, n)
    x0[slow] = target[slow] - 0.5 * np.sign(target[slow])
    sections = {
        "space": {"n": n, "p": p},
        "set": {"kind": "box", "lo": _vec(-np.ones(n)), "hi": _vec(np.ones(n))},
        "map": {"kind": "affine", "matrix": _matrix(np.diag(a)),
                "offset": _vec(-a * target)},
        "solver": {"x0": _vec(x0), "lambda": _num(lam)},
    }
    return _solve_op(name, sections,
                     _closed_form_check(np.clip(target, -1.0, 1.0), p, 0.5))


def _long_solve(rng, name, p, eps):
    """B = eps (x - c) with step 1: factor 1 - eps, started at a fixed
    distance from c, so the solve takes about ln(1e7) / eps iterations."""
    c = rng.uniform(-0.3, 0.3, 2)
    x0 = c + 0.5 * _unit(rng, 2, p)
    sections = {
        "space": {"n": 2, "p": p},
        "set": {"kind": "box", "lo": "-1 -1", "hi": "1 1"},
        "map": {"kind": "affine", "matrix": _matrix(eps * np.eye(2)),
                "offset": _vec(-eps * c)},
        "solver": {"x0": _vec(x0), "lambda": "1"},
    }
    return _solve_op(name, sections, _closed_form_check(c, p, 1.0 - eps))


def _solve_cycle(rng, tiny: bool) -> list[Op]:
    mid, big, eps = (10, 20, 0.05) if tiny else (100, 1000, 1.5e-3)
    cert = {"u": "0.1", "v": "1", "mu": "1"}
    ops = []

    # the README example with a seeded interior solution: certified auto
    # step 0.9 on the Hilbert rule, factor 0.1
    c = rng.uniform(1.1, 1.9, 2)
    ops.append(_solve_op("readme", {
        "space": {"n": 2, "p": 2},
        "set": {"kind": "box", "lo": "1 1", "hi": "2 2"},
        "map": {"kind": "affine", "matrix": _matrix(np.eye(2)),
                "offset": _vec(-c)},
        "certificate": cert,
        "solver": {"x0": "2 2", "lambda": "auto"},
    }, _closed_form_check(c, 2.0, 0.1)))

    for n in (2, mid):
        for p in (1.5, 3.0):
            ops.append(_box_solve(rng, f"box-n{n}-p{p:g}", n, p))

    # projections at p = 2 with the certified auto step (factor 0.1)
    n = 10
    c = (2.0 + rng.uniform(0.0, 1.0)) * _unit(rng, n, 2.0)
    ops.append(_solve_op("ball", {
        "space": {"n": n, "p": 2},
        "set": {"kind": "ball", "radius": "1.5"},
        "map": {"kind": "affine", "matrix": _matrix(np.eye(n)),
                "offset": _vec(-c)},
        "certificate": cert,
        "solver": {"x0": _vec(np.zeros(n)), "lambda": "auto"},
    }, _closed_form_check(1.5 * c / _p_norm(c, 2.0), 2.0, 0.1)))

    normal = _unit(rng, n, 2.0)
    offset = rng.uniform(-0.5, 0.5)
    c = rng.standard_normal(n)
    c += (offset + 1.0 - normal @ c) * normal  # one unit outside the halfspace
    ops.append(_solve_op("halfspace", {
        "space": {"n": n, "p": 2},
        "set": {"kind": "halfspace", "normal": _vec(normal),
                "offset": _num(offset)},
        "map": {"kind": "affine", "matrix": _matrix(np.eye(n)),
                "offset": _vec(-c)},
        "certificate": cert,
        "solver": {"x0": _vec(np.zeros(n)), "lambda": "auto"},
    }, _closed_form_check(c - (normal @ c - offset) * normal, 2.0, 0.1)))

    # B = I - T for T = 0.3 Q x + t, Q orthogonal: no closed form, so the
    # answer is checked with vi_residual
    n, alpha = 5, 0.3
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    name = "residual"
    ops.append(_solve_op(name, {
        "space": {"n": n, "p": 2},
        "set": {"kind": "box", "lo": _vec(-np.ones(n)), "hi": _vec(np.ones(n))},
        "map": {"kind": "residual", "alpha": _num(alpha),
                "t_matrix": _matrix(alpha * q),
                "t_offset": _vec(rng.uniform(-1.5, 1.5, n))},
        "certificate": {"u": "0.1", "v": _num(1.0 - alpha),
                        "mu": _num(1.0 + alpha)},
        "solver": {"x0": _vec(np.zeros(n)), "lambda": "auto"},
    }, _residual_check(f"{name}.ini")))

    for p in (1.5, 3.0):
        ops.append(_box_solve(rng, f"box-n{big}-p{p:g}", big, p))
    for p in (1.5, 3.0):
        ops.append(_long_solve(rng, f"long-p{p:g}", p, eps))
    return ops


# ---------------------------------------------------------------- oracle

def _oracle_check(expected, skip: bool):
    expected = np.asarray(expected, dtype=float)

    def check(stdout: str, trace: bytes):
        record = json.loads(stdout)
        agreement = record.get("agreement", "")
        if skip:
            if not (agreement.startswith("skipped")
                    and len(record["accepted"]) == record["searched"]):
                return f"agreement {agreement!r}, expected the documented skip"
            return None
        if agreement != "pass":
            return f"agreement {agreement!r}, expected pass"
        if record["solver_status"] != "converged":
            return f"solver status {record['solver_status']!r}"
        gap = float(np.max(np.abs(np.asarray(record["solver_point"]) - expected)))
        if not gap <= 1e-6:
            return f"solver point is {gap:.3e} from the known solution"
        return None
    return check


def _oracle_op(rng, name, p, counts, kind="box", scale=None) -> Op:
    """B = s (x - u) with u a grid point, so u is the exact solution and the
    accepted set hugs it. u keeps a quarter of the set's width from its
    boundary: rivals that far out reject every candidate two cells from u,
    while next to the boundary (at p = 3) a candidate three cells out can
    pass. scale=1e-9 makes B nearly zero: every grid point is accepted,
    which is the documented skip, after a full scan of every candidate."""
    n = len(counts)
    if kind == "ball":
        lo, hi = -np.ones(n), np.ones(n)
        cset = {"kind": "ball", "radius": "1"}
    else:
        lo = rng.integers(-2, 2, n).astype(float)
        hi = lo + 1.0
        cset = {"kind": "box", "lo": _vec(lo), "hi": _vec(hi)}
    while True:
        index = np.array([rng.integers((c - 1) // 4, 3 * (c - 1) // 4 + 1)
                          for c in counts])
        u = lo + index * (hi - lo) / (np.array(counts) - 1.0)
        if kind != "ball" or _p_norm(u, 2.0) <= 0.5:
            break
    s = rng.uniform(2.5, 4.0) if scale is None else scale
    sections = {
        "space": {"n": n, "p": p},
        "set": cset,
        "map": {"kind": "affine", "matrix": _matrix(s * np.eye(n)),
                "offset": _vec(-s * u)},
        "solver": {"lambda": _num(0.5 / s)},
    }
    config = _write_ini(f"{name}.ini", sections)
    grid = ",".join(str(c) for c in counts)
    return Op(name, "oracle", ["oracle", "--config", config, "--grid", grid],
              _oracle_check(u, skip=scale is not None))


def _oracle_cycle(rng, tiny: bool) -> list[Op]:
    small, mid, large, cube, band = ((7, 9, 11, 4, 8) if tiny
                                     else (21, 31, 41, 9, 25))
    ops = [_oracle_op(rng, f"box{small}-p{p:g}", p, (small, small))
           for p in (1.5, 2.0, 3.0)]
    ops.append(_oracle_op(rng, f"band{band}", 2.0, (band, band), scale=1e-9))
    ops.append(_oracle_op(rng, f"cube{cube}", 3.0, (cube,) * 3))
    ops.append(_oracle_op(rng, f"ball{mid}", 2.0, (mid, mid), kind="ball"))
    ops += [_oracle_op(rng, f"box{mid}-p{p:g}", p, (mid, mid)) for p in (1.5, 3.0)]
    ops += [_oracle_op(rng, f"box{large}-p{p:g}", p, (large, large))
            for p in (1.5, 3.0)]
    return ops


# ---------------------------------------------------------------- verify

def _verify_check(stdout: str, trace: bytes):
    lines = stdout.splitlines()
    if not lines:
        return "no output"
    bad = [line for line in lines if not line.endswith(" PASS")]
    return f"not PASS: {bad[0]}" if bad else None


def _check_map_check(stdout: str, trace: bytes):
    record = json.loads(stdout)
    if record.get("result") != "no violation found":
        return f"result {record.get('result')!r}: {record.get('violations')}"
    return None


def _check_map_op(rng, name, p, cset, matrix, count) -> Op:
    """Certificate (0.1, s, |A|) for A = s I + K with K skew (K = 0 off
    p = 2): every sampled slack is >= 0, so no violation is expected."""
    n = matrix.shape[0]
    s = float(np.min(np.linalg.eigvalsh((matrix + matrix.T) / 2.0)))
    mu = float(np.linalg.norm(matrix, 2)) * (1.0 + 1e-6)
    config = _write_ini(f"{name}.ini", {
        "space": {"n": n, "p": p},
        "set": cset,
        "map": {"kind": "affine", "matrix": _matrix(matrix),
                "offset": _vec(rng.uniform(-1.0, 1.0, n))},
        "certificate": {"u": "0.1", "v": _num(s), "mu": _num(mu)},
    })
    argv = ["check-map", "--config", config,
            "--seed", str(int(rng.integers(10**6)))]
    if count is not None:
        argv += ["--count", str(count)]
    return Op(name, "check-map", argv, _check_map_check)


def _verify_cycle(rng, tiny: bool) -> list[Op]:
    pairs = 100 if tiny else None
    n = 3
    s = rng.uniform(1.0, 2.0)
    skew = rng.standard_normal((n, n))
    skew = 0.5 * (skew - skew.T)
    box = {"kind": "box", "lo": _vec(-np.ones(n)), "hi": _vec(np.ones(n))}
    ops = [
        _check_map_op(rng, "check-box-p2", 2.0, box, s * np.eye(n) + skew, pairs),
        _check_map_op(rng, "check-ball-p2", 2.0, {"kind": "ball", "radius": "2"},
                      s * np.eye(n) + skew, pairs),
        _check_map_op(rng, "check-box-p3", 3.0, box, s * np.eye(n), pairs),
    ]
    counts = {"duality": 20, "pairing": 50, "retraction": 50} if tiny else {}
    for suite, repeats in (("duality", 3), ("pairing", 2), ("retraction", 2)):
        for i in range(repeats):
            argv = ["verify", suite, "--seed", str(int(rng.integers(10**6)))]
            if suite in counts:
                argv += ["--count", str(counts[suite])]
            ops.append(Op(f"{suite}-{i}", f"verify.{suite}", argv, _verify_check))
    return ops


CYCLES = {"solve": _solve_cycle, "oracle": _oracle_cycle, "verify": _verify_cycle}


def build(workload: str, seed: int, tiny: bool) -> list[Op]:
    """Write the workload's INI files into the current directory and return
    its cycle of ops. The same seed gives byte-identical files."""
    return CYCLES[workload](np.random.default_rng(seed), tiny)
