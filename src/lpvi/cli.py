"""Command line interface.

Exit codes:
  0  success / no violation found
  1  a checked claim failed (check-map violation, verify failure,
     oracle disagreement)
  2  configuration problem (malformed config or flags, inconsistent
     certificate, unusable sampling region, grid over the oracle's work
     caps or with no point inside the set, unwritable --out, nonpositive
     or infinite tol, nonpositive max_iter, a size too large to allocate)
  3  iteration limit reached before convergence
  4  divergence (non-finite iterates)
  5  unsupported space / set / oracle combination
  141  stdout closed early by its reader (broken pipe; SIGPIPE's shell status)

The default seed for every seeded command is 0, overridable by the
LPVI_SEED environment variable and per-run by --seed. With the same
config, seed and flags, output bytes (trace CSV and stdout summaries)
are identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .config import load_config
from .errors import (ConfigError, DivergenceError, EstimationError,
                     EvaluationError, InvalidInputError, ResourceError,
                     ShapeError, UnsupportedOracleError,
                     UnsupportedRetractionError, UnsupportedSpaceError)
from .maps import (Feasibility, certificate_feasibility,
                   check_relaxed_cocoercive, check_strongly_monotone,
                   draw_pairs, estimate_lipschitz)
from .oracle import GridSpec, grid_bounds, grid_vi_solve, pairing_sweeps
from .sets import bounding_box
from .solver import (SolveStatus, check_stopping_rule, hilbert_rule_factor,
                     picard_solve, select_lambda, solve)
from .spaces import check_seed
from .sweeps import RETRACTION_DIMS, duality_sweep, retraction_suite

_ENV_SEED = "LPVI_SEED"


def _err(message):
    print(f"error: {message}", file=sys.stderr)


def _default_seed() -> int:
    raw = os.environ.get(_ENV_SEED)
    if raw is None:
        return 0
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"{_ENV_SEED} must be an integer, got {raw!r}")
    return check_seed(seed, _ENV_SEED)


def _seed_of(args, configured: int | None = None) -> int:
    """--seed, then the config's [check] seed, then LPVI_SEED, then 0."""
    if args.seed is not None:
        return check_seed(args.seed, "--seed")
    if configured is not None:
        return check_seed(configured, "[check] seed")
    return _default_seed()


def _emit(record: dict):
    print(json.dumps(record, sort_keys=True))


def _vec(x) -> list:
    return [float(v) for v in np.asarray(x).ravel()]


def _write_trace(handle, trace):
    handle.write("iter,step_norm,residual\n")
    # a solve's residual is the next row's step object: format each norm once
    steps = ["%.17g" % row[1] for row in trace]
    residuals = [text if row[2] is after[1] else "%.17g" % row[2]
                 for row, after, text in zip(trace, trace[1:], steps[1:])]
    residuals += ["%.17g" % row[2] for row in trace[-1:]]
    handle.write("".join([f"{row[0]},{step},{text}\n"
                          for row, step, text in zip(trace, steps, residuals)]))


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if cfg.solver.x0 is None:
        raise ConfigError("[solver] x0: required to run solve")
    lam = args.lam if args.lam is not None else cfg.solver.lam
    tol = args.tol if args.tol is not None else cfg.solver.tol
    max_iter = args.max_iter if args.max_iter is not None else cfg.solver.max_iter
    chosen, certification = select_lambda(cfg.problem, lam)
    check_stopping_rule(tol, max_iter)
    # opened before the solve, so an unwritable path fails fast and a
    # refused run leaves no file behind
    try:
        handle = open(args.out, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: cannot open for writing:"
                          f" {exc.strerror}") from exc
    with handle:
        try:
            report = picard_solve(cfg.problem, chosen, cfg.solver.x0, tol=tol,
                                  max_iter=max_iter,
                                  certification=certification)
        except DivergenceError as exc:
            _write_trace(handle, exc.trace)  # partial trace is still evidence
            raise
        _write_trace(handle, report.trace)
    _emit({
        "certification": report.certification.value,
        "contraction_factor_sq": report.contraction_factor_sq,
        "final_point": _vec(report.final_point),
        "final_residual": report.final_residual,
        "iterations": report.iterations,
        "lambda": report.lam,
        "status": report.status.value,
        "trace": args.out,
    })
    if report.status is SolveStatus.ITERATION_LIMIT:
        _err(f"iteration limit {max_iter} reached before convergence")
        return 3
    return 0


def cmd_check_map(args) -> int:
    cfg = load_config(args.config)
    problem = cfg.problem
    seed = _seed_of(args, cfg.check.seed)
    pairs = args.count if args.count is not None else cfg.check.pairs
    if cfg.check.bounds is None and bounding_box(problem.cset) is None:
        raise EstimationError(
            "set is unbounded: add [check] bounds_lo / bounds_hi to sample it")
    sample = draw_pairs(problem.mapping, problem.cset, problem.space.p, pairs,
                        seed, bounds=cfg.check.bounds)
    estimate = estimate_lipschitz(sample)
    record = {
        "mu_hat": estimate.mu_hat,
        "pairs": sample.seps.size,
        "degenerate_skipped": sample.degenerate_skipped,
        "seed": seed,
    }
    violations = []
    if problem.cert is None:
        record["certificate"] = None
    else:
        cert = problem.cert
        feas = certificate_feasibility(cert)
        coco = check_relaxed_cocoercive(sample, u=cert.u, v=cert.v)
        strong = check_strongly_monotone(sample, v=cert.v)
        slack_tol = 1e-9 * (1.0 + float(np.max(sample.seps) ** 2))
        record.update({
            "certificate": {"u": cert.u, "v": cert.v, "mu": cert.mu},
            "verdict": feas.verdict.value,
            "cocoercivity_worst_slack": coco.worst_slack,
            "strong_monotonicity_worst_slack": strong.worst_slack,
        })
        if feas.verdict is Feasibility.INCONSISTENT:
            violations.append(
                "certificate inconsistent: v <= mu + u*mu^2 fails, no mapping"
                " can realize these constants")
        if estimate.mu_hat > cert.mu * (1.0 + 1e-9):
            violations.append(
                f"lipschitz claim violated: sampled ratio {estimate.mu_hat!r}"
                f" exceeds claimed mu {cert.mu!r} at x={_vec(estimate.witness_x)}"
                f" y={_vec(estimate.witness_y)}")
        if coco.worst_slack < -slack_tol:
            violations.append(
                f"relaxed cocoercivity violated: slack {coco.worst_slack!r}"
                f" at x={_vec(coco.witness_x)} y={_vec(coco.witness_y)}")
        if strong.worst_slack < -slack_tol:
            violations.append(
                f"strong monotonicity violated: slack {strong.worst_slack!r}"
                f" at x={_vec(strong.witness_x)} y={_vec(strong.witness_y)}")
    record["violations"] = violations
    record["result"] = "violated" if violations else "no violation found"
    _emit(record)
    return 1 if violations else 0


_DUALITY_TOL = 1e-9
_HILBERT_TOL = 1e-12


def _report_line(name: str, value: float, threshold: float, kind: str) -> bool:
    ok, rel = ((value <= threshold, "<=") if kind == "max"
               else (value >= threshold, ">="))
    print(f"{name}: {value:.3e} {rel} {threshold:.1e}"
          f" {'PASS' if ok else 'FAIL'}")
    return ok


def _verify_count(args, default: int, widest: int) -> int:
    # numpy's ValueError for a sample past the largest array reads as a fault
    count = args.count if args.count is not None else default
    if count * widest * 8 > sys.maxsize:
        raise ResourceError(f"--count {count}: a sample of {count} rows of"
                            f" {widest} doubles passes the largest array size")
    return count


def cmd_verify(args) -> int:
    # the factor suite is deterministic: no flag could change what it does
    if args.suite == "factor" and any(
            flag is not None for flag in (args.seed, args.count, args.p)):
        raise ConfigError("verify factor takes no --seed, --count or --p")
    seed = None if args.suite == "factor" else _seed_of(args)
    ok = True
    if args.suite == "duality":
        p_values = args.p if args.p else [1.5, 2.0, 3.0, 4.0]
        n_values = (2, 10, 50)
        count = _verify_count(args, 1000, max(n_values))
        rep = duality_sweep(p_values, n_values, count, seed)
        for name, value in (("duality pairing identity", rep.worst_identity),
                            ("duality norm identity", rep.worst_norm),
                            ("duality homogeneity", rep.worst_homogeneity),
                            ("hoelder bound excess", rep.worst_bound_excess),
                            ("norm attainment", rep.worst_attainment)):
            ok &= _report_line(name, value, _DUALITY_TOL, "max")
        if rep.worst_hilbert is not None:
            ok &= _report_line("hilbert degeneration", rep.worst_hilbert,
                               _HILBERT_TOL, "max")
    elif args.suite == "retraction":
        p_values = args.p if args.p else [1.5, 2.0, 3.0]
        count = _verify_count(args, 10_000, max(RETRACTION_DIMS))
        rep = retraction_suite(p_values, pairs=count, seed=seed)
        for name, value, bound in (
                ("box sunny deviation", rep.max_box_sunny_dev, 0.0),
                ("hilbert sunny deviation", rep.max_hilbert_sunny_dev, _HILBERT_TOL),
                ("idempotence", rep.max_idempotence_dev, _HILBERT_TOL),
                ("identity on C", rep.max_identity_dev, _HILBERT_TOL),
                ("nonexpansiveness excess", rep.max_nonexpansive_excess, 1e-12)):
            ok &= _report_line(name, value, bound, "max")
        ok &= _report_line("characterization", rep.min_characterization,
                           -_DUALITY_TOL, "min")
        ok &= _report_line("projection inequality",
                           rep.min_projection_inequality, -_DUALITY_TOL, "min")
    elif args.suite == "pairing":
        p_values = args.p if args.p else [1.5, 3.0, 4.0]
        n_values = (2, 5, 20)
        count = _verify_count(args, 10_000, max(n_values))
        # one draw per n serves every p; the lines keep their p-major order
        by_p = zip(*[pairing_sweeps(p_values, n, count, seed) for n in n_values])
        for p, reps in zip(p_values, by_p):
            for n, rep in zip(n_values, reps):
                ok &= _report_line(f"pairing inequality p={p} n={n}",
                                   rep.min_margin, -_DUALITY_TOL, "min")
                # J(0) = 0 makes the pinned pair's slack exactly 0
                if not rep.pinned_slack == 0.0:
                    print(f"pinned pair x = 0 p={p} n={n}: slack"
                          f" {rep.pinned_slack:.3e} != 0 FAIL")
                    ok = False
    else:  # factor
        factor = hilbert_rule_factor()
        exact = factor == -0.97
        print(f"hilbert rule factor at r=1 gamma=1 s=1 mu=0.1: {factor!r}"
              f" {'PASS' if exact else 'FAIL'} (expected exactly -0.97)")
        ok &= exact
    if not ok:
        hint = "" if seed is None else f"; reproduce with --seed {seed}"
        _err(f"verify {args.suite} failed{hint}")
        return 1
    return 0


def _grid_count(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ConfigError(f"--grid: {tok!r} is not a whole number of points")


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    problem = cfg.problem
    n = problem.space.n
    if args.grid is not None:
        counts = tuple(_grid_count(tok)
                       for tok in args.grid.replace(",", " ").split())
    elif cfg.grid is not None:
        counts = cfg.grid
    else:
        counts = (41,) * n
    sol = grid_vi_solve(problem, GridSpec(counts))
    if sol.searched == 0:
        raise ConfigError(
            f"grid {list(counts)} has no point inside the set;"
            " use more points per axis")
    record = {
        "grid": list(counts),
        "searched": sol.searched,
        "spacing": _vec(sol.spacing),
        "accepted": np.asarray(sol.accepted, dtype=float).tolist(),
        "worst_pairings": _vec(sol.worst_pairings),
    }
    if sol.accepted.shape[0] == sol.searched:
        record["agreement"] = "skipped: every grid point accepted"
        _emit(record)
        return 0
    if sol.accepted.shape[0] == 0:
        record["agreement"] = "fail: oracle accepted no grid point"
        _emit(record)
        return 1
    lam = args.lam if args.lam is not None else cfg.solver.lam
    lo, hi = grid_bounds(problem.cset)
    x0 = cfg.solver.x0 if cfg.solver.x0 is not None else (lo + hi) / 2.0
    report = solve(problem, x0, lam, tol=cfg.solver.tol,
                   max_iter=cfg.solver.max_iter)
    answer = report.final_point
    dists = np.max(np.abs(sol.accepted - answer), axis=1)
    h = float(np.max(sol.spacing))
    near = float(np.min(dists))
    far = float(np.max(dists))
    agree = near <= h + 1e-12 and far <= 2.0 * h + 1e-12
    record.update({
        "solver_point": _vec(answer),
        "solver_status": report.status.value,
        "nearest_accepted_linf": near,
        "farthest_accepted_linf": far,
        "cell": h,
        "agreement": "pass" if agree else "fail",
    })
    _emit(record)
    return 0 if agree else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and then reused:
    each parse_args call fills a new namespace, and the repeatable --p
    starts from a None default, so no parse sees an earlier one. It holds
    no command functions; main looks those up on every call. Kept: a
    build per call moves the benchmark's `solve` op_ms.p50 1.60 -> 2.15 ms."""
    parser = argparse.ArgumentParser(
        prog="lpvi",
        description="variational inequalities on lp spaces:"
                    " solve, check claims, verify primitives")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the fixed-point solver")
    solve.add_argument("--config", required=True)
    solve.add_argument("--out", required=True,
                       help="path for the iteration trace CSV")
    solve.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="step size override (marks the run uncertified)")
    solve.add_argument("--tol", type=float, default=None)
    solve.add_argument("--max-iter", type=int, default=None)

    check = sub.add_parser("check-map",
                           help="probe certificate claims on sample pairs")
    check.add_argument("--config", required=True)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--count", type=int, default=None,
                       help="sample pair count override")

    verify = sub.add_parser("verify", help="run a self-verification suite")
    verify.add_argument("suite",
                        choices=["duality", "retraction", "pairing", "factor"])
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--count", type=int, default=None)
    verify.add_argument("--p", type=float, action="append", default=None,
                        help="exponent(s) to sweep; repeatable")

    oracle = sub.add_parser("oracle",
                            help="brute-force grid check against the solver")
    oracle.add_argument("--config", required=True)
    oracle.add_argument("--grid", default=None,
                        help="points per axis, e.g. 41,41")
    oracle.add_argument("--lambda", dest="lam", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"solve": cmd_solve, "check-map": cmd_check_map,
               "verify": cmd_verify, "oracle": cmd_oracle}[args.command]
    try:
        return command(args)
    except (UnsupportedSpaceError, UnsupportedRetractionError,
            UnsupportedOracleError) as exc:
        _err(exc)
        return 5
    except DivergenceError as exc:
        _err(f"diverged after {len(exc.trace)} recorded iterations: {exc}")
        return 4
    except (ConfigError, InvalidInputError, ShapeError, EstimationError,
            EvaluationError, ResourceError) as exc:
        _err(exc)
        return 2
    except MemoryError as exc:
        _err(f"out of memory: {exc}" if str(exc) else "out of memory")
        return 2


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # reader gone: send stdout to devnull so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
