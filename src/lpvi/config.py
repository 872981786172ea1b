"""INI problem configs.

Flat key/value sections, vectors as whitespace-separated numbers and
matrices as row-major number lists (indented continuation lines work for
readability). Example:

    [space]
    n = 2
    p = 2

    [set]
    kind = box
    lo = 1 1
    hi = 2 2

    [map]
    kind = affine
    matrix = 1 0
             0 1

    [certificate]
    u = 0.1
    v = 1
    mu = 1

    [solver]
    x0 = 2 2
    lambda = auto

Every number is read as Python's `float` reads it: the same syntax
(underscores, non-ASCII digits, `inf`/`nan` spellings) and the same bits.
A large value, such as a dense matrix written one row per line, goes
through numpy's C text reader (`np.loadtxt`), which converts each field
with CPython's own string-to-double routine and so gives those bits
without a Python object per number. Whatever that reader refuses
(ragged lines, underscores, non-ASCII digits, a carriage return, a bad
token) is read again token by token, so the result or the refusal is the
same as for a small value. Small values, values of few lines and values
with a line longer than a sixteenth of the whole stay on the token path,
where the C reader would cost more time or memory than it saves.

Unknown sections or keys are rejected so typos fail loudly. Unsupported
space or retraction combinations propagate as their own error types
(distinct exit code in the CLI); everything else malformed raises
ConfigError naming the section and key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError, ShapeError, UnsupportedSpaceError
from .maps import Affine, Certificate, Mapping, ResidualOfContraction
from .sets import Ball, Box, ConvexSet, Halfspace, WholeSpace
from .solver import Problem
from .spaces import SpaceSpec

# allowed keys per section; _SET_KEYS and _MAP_KEYS decide [set] and [map]
_SECTIONS = {
    "space": {"n", "p"},
    "set": None,
    "map": None,
    "certificate": {"u", "v", "mu"},
    "solver": {"x0", "lambda", "tol", "max_iter"},
    "check": {"pairs", "seed", "bounds_lo", "bounds_hi"},
    "oracle": {"grid"},
}

_SET_KEYS = {
    "box": {"lo", "hi"},
    "ball": {"radius"},
    "halfspace": {"normal", "offset"},
    "whole_space": set(),
}

_MAP_KEYS = {
    "affine": ({"matrix"}, {"offset"}),
    "residual": ({"alpha", "t_matrix"}, {"t_offset"}),
}


@dataclass
class SolverSettings:
    x0: np.ndarray | None = None
    lam: float | None = None  # None means auto-select from the certificate
    tol: float = 1e-10
    max_iter: int = 10 ** 6


@dataclass
class CheckSettings:
    pairs: int = 2000
    seed: int | None = None  # None defers to the CLI default
    bounds: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(eq=False)
class LoadedConfig:
    problem: Problem
    solver: SolverSettings
    check: CheckSettings
    grid: tuple[int, ...] | None = None


def _fail(section: str, key: str, detail: str):
    raise ConfigError(f"[{section}] {key}: {detail}")


# A value goes to numpy's C text reader only when it has at least this
# many characters and no line longer than this share of it (so at least
# as many lines). The reader has a fixed cost (a few microseconds and
# about 9 KB), and on the line it is reading it holds 4 bytes per
# character and 16 per field, so a one-line value of zeros would hold
# more than the Python strings it replaces (single-character strings are
# shared). The gates keep both costs below what they save.
_C_READER_MIN_CHARS = 1 << 14
_C_READER_MIN_LINES = 16


def _c_reader_floats(text: str) -> np.ndarray | None:
    """The numbers of a large value read by numpy's C text reader, one
    row per line, or None where that reader does not apply or refuses.

    The reader converts each field with PyOS_string_to_double, the routine
    behind Python's float, and refuses what that routine does not take
    whole (underscores, non-ASCII digits, `nan(1)`); it also refuses
    ragged lines and an embedded carriage return. Python's float reads
    some of those and refuses the rest, so the caller reads them again
    token by token. A value whose first and last lines differ in width is
    left to the caller at once."""
    # a blank value would make loadtxt warn that it holds no data
    if len(text) < _C_READER_MIN_CHARS or text.isspace():
        return None
    lines = text.split("\n")
    if max(map(len, lines)) * _C_READER_MIN_LINES > len(text):
        return None
    # a fixed count per line with a short last line is ragged only at the
    # end, where the reader would refuse it after doing all the work
    first = next(line for line in lines if line.strip())
    last = next(line for line in reversed(lines) if line.strip())
    if len(first.split()) != len(last.split()):
        return None
    try:
        return np.loadtxt(lines, dtype=float, ndmin=1, comments=None).ravel()
    except ValueError:
        return None


def _floats(text: str, section: str, key: str, expected: int | None = None):
    vals = _c_reader_floats(text)
    if vals is None:
        try:
            # numpy casts each token through Python's float: same syntax,
            # same bits
            vals = np.array(text.split(), dtype=float)
        except ValueError:
            _fail(section, key, f"could not parse numbers from {text!r}")
    if not vals.size:
        _fail(section, key, "value is empty")
    if expected is not None and vals.size != expected:
        _fail(section, key, f"expected {expected} numbers, got {vals.size}")
    return vals


def _float(text: str, section: str, key: str) -> float:
    return float(_floats(text, section, key, expected=1)[0])


def _int(text: str, section: str, key: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        _fail(section, key, f"could not parse an integer from {text!r}")


def _require(cp, section: str, key: str) -> str:
    if not cp.has_option(section, key):
        _fail(section, key, "required key is missing")
    return cp.get(section, key)


def _check_keys(cp, section: str, allowed: set[str]):
    for key in cp.options(section):
        if key not in allowed:
            _fail(section, key, "unknown key")


def _build_set(cp, n: int) -> ConvexSet:
    kind = _require(cp, "set", "kind").strip().lower()
    if kind not in _SET_KEYS:
        _fail("set", "kind", f"unknown set kind {kind!r}"
              f" (choose from {sorted(_SET_KEYS)})")
    _check_keys(cp, "set", {"kind"} | _SET_KEYS[kind])
    try:
        if kind == "box":
            return Box(_floats(_require(cp, "set", "lo"), "set", "lo", n),
                       _floats(_require(cp, "set", "hi"), "set", "hi", n))
        if kind == "ball":
            return Ball(n, _float(_require(cp, "set", "radius"), "set", "radius"))
        if kind == "halfspace":
            return Halfspace(
                _floats(_require(cp, "set", "normal"), "set", "normal", n),
                _float(_require(cp, "set", "offset"), "set", "offset"))
        return WholeSpace(n)
    except (InvalidInputError, ShapeError) as exc:
        raise ConfigError(f"[set]: {exc}") from exc


def _build_map(cp, n: int) -> Mapping:
    kind = _require(cp, "map", "kind").strip().lower()
    if kind not in _MAP_KEYS:
        _fail("map", "kind", f"unknown map kind {kind!r}"
              f" (choose from {sorted(_MAP_KEYS)})")
    required, optional = _MAP_KEYS[kind]
    _check_keys(cp, "map", {"kind"} | required | optional)
    try:
        if kind == "affine":
            matrix = _floats(_require(cp, "map", "matrix"), "map", "matrix",
                             n * n).reshape(n, n)
            offset = (_floats(cp.get("map", "offset"), "map", "offset", n)
                      if cp.has_option("map", "offset") else None)
            return Affine(matrix, offset)
        alpha = _float(_require(cp, "map", "alpha"), "map", "alpha")
        t_matrix = _floats(_require(cp, "map", "t_matrix"), "map", "t_matrix",
                           n * n).reshape(n, n)
        t_offset = (_floats(cp.get("map", "t_offset"), "map", "t_offset", n)
                    if cp.has_option("map", "t_offset") else None)
        return ResidualOfContraction(Affine(t_matrix, t_offset), alpha)
    except (InvalidInputError, ShapeError) as exc:
        raise ConfigError(f"[map]: {exc}") from exc


def load_config(path: str) -> LoadedConfig:
    """Parse an INI problem config into a Problem plus run settings."""
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cp.read_file(handle, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]"
                              f" (choose from {sorted(_SECTIONS)})")
    for section in ("space", "set", "map"):
        if not cp.has_section(section):
            raise ConfigError(f"required section [{section}] is missing")
    for section in ("space", "certificate", "solver", "check", "oracle"):
        if cp.has_section(section):
            _check_keys(cp, section, _SECTIONS[section])

    n = _int(_require(cp, "space", "n"), "space", "n")
    p_text = _require(cp, "space", "p")
    try:
        p = float(p_text.strip())
    except ValueError:
        _fail("space", "p", f"could not parse a number from {p_text!r}")
    try:
        space = SpaceSpec(n, p)
    except InvalidInputError as exc:
        raise ConfigError(f"[space]: {exc}") from exc
    except UnsupportedSpaceError as exc:
        # keep the class (distinct exit code) but name the field
        raise UnsupportedSpaceError(f"[space] p: {exc}") from exc

    cset = _build_set(cp, n)
    mapping = _build_map(cp, n)

    cert = None
    if cp.has_section("certificate"):
        try:
            cert = Certificate(
                _float(_require(cp, "certificate", "u"), "certificate", "u"),
                _float(_require(cp, "certificate", "v"), "certificate", "v"),
                _float(_require(cp, "certificate", "mu"), "certificate", "mu"))
        except InvalidInputError as exc:
            raise ConfigError(f"[certificate]: {exc}") from exc

    solver = SolverSettings()
    if cp.has_section("solver"):
        if cp.has_option("solver", "x0"):
            solver.x0 = _floats(cp.get("solver", "x0"), "solver", "x0", n)
        if cp.has_option("solver", "lambda"):
            text = cp.get("solver", "lambda").strip().lower()
            if text != "auto":
                solver.lam = _float(text, "solver", "lambda")
        if cp.has_option("solver", "tol"):
            solver.tol = _float(cp.get("solver", "tol"), "solver", "tol")
            if not solver.tol > 0.0:
                _fail("solver", "tol", "must be positive")
            if solver.tol == float("inf"):
                _fail("solver", "tol", "must be finite")
        if cp.has_option("solver", "max_iter"):
            solver.max_iter = _int(cp.get("solver", "max_iter"), "solver", "max_iter")
            if solver.max_iter < 1:
                _fail("solver", "max_iter", "must be >= 1")

    check = CheckSettings()
    if cp.has_section("check"):
        if cp.has_option("check", "pairs"):
            check.pairs = _int(cp.get("check", "pairs"), "check", "pairs")
            if check.pairs < 1:
                _fail("check", "pairs", "must be >= 1")
        if cp.has_option("check", "seed"):
            check.seed = _int(cp.get("check", "seed"), "check", "seed")
        has_lo = cp.has_option("check", "bounds_lo")
        has_hi = cp.has_option("check", "bounds_hi")
        if has_lo != has_hi:
            _fail("check", "bounds_lo" if has_hi else "bounds_hi",
                  "bounds_lo and bounds_hi must be given together")
        if has_lo:
            check.bounds = (
                _floats(cp.get("check", "bounds_lo"), "check", "bounds_lo", n),
                _floats(cp.get("check", "bounds_hi"), "check", "bounds_hi", n))

    grid = None
    if cp.has_section("oracle") and cp.has_option("oracle", "grid"):
        toks = cp.get("oracle", "grid").replace(",", " ").split()
        if not toks:
            _fail("oracle", "grid", "value is empty")
        grid = tuple(_int(tok, "oracle", "grid") for tok in toks)

    # Problem can only refuse the retraction here; that error propagates
    problem = Problem(space, cset, mapping, cert)
    return LoadedConfig(problem=problem, solver=solver, check=check, grid=grid)
