"""INI problem configs. Example:

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

The file is UTF-8, read line by line with universal newlines:
- `[name]` opens a section, and `key = value` or `key: value` sets a key,
  split at the first `=` or `:`; names are case-sensitive and keys are
  lower-cased; each section, and each key within its section, appears once;
- a `#` or `;` at the start of a line or after whitespace starts a comment;
- a line indented deeper than its key's line continues the value: blank
  lines inside it are kept and comment lines dropped, and the value is its
  stripped lines joined by newlines, with trailing space removed.
That is configparser's grammar with interpolation off and inline comments
on, with the values it gives, except that `[DEFAULT]` is an unknown
section like any other. Any other line, and a byte that is not UTF-8, is
refused as a malformed config, naming the line.

Vectors are whitespace-separated numbers and matrices row-major number
lists. Every number is read as Python's `float` reads it: the same syntax
(underscores, non-ASCII digits, `inf`/`nan` spellings) and the same bits.
A value of 16 lines or more, such as a dense matrix written one row per
line, goes through numpy's C text reader (`np.loadtxt`), which converts
each field with CPython's own string-to-double routine and so gives those
bits without a Python object per number. Whatever that reader refuses
(ragged lines, underscores, non-ASCII digits, a carriage return, a bad
token) is read again token by token, so the result or the refusal is the
same as for a shorter value.

Unknown sections or keys are rejected so typos fail loudly. Unsupported
space or retraction combinations propagate as their own error types
(distinct exit code in the CLI); everything else malformed raises
ConfigError naming the section and key.
"""

from __future__ import annotations

import re
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


# A value goes to numpy's C text reader when it has at least this many
# lines; below that the reader's fixed cost of a few microseconds is more
# than it saves. Kept: the token path alone cuts the benchmark's `solve`
# ops/s 42.3 -> 34.1.
_C_READER_MIN_LINES = 16


def _c_reader_floats(text: str) -> np.ndarray | None:
    """The numbers of a value of many lines read by numpy's C text reader,
    one row per line, or None where that reader does not apply or refuses.

    The reader converts each field with PyOS_string_to_double, the routine
    behind Python's float, and refuses what that routine does not take
    whole (underscores, non-ASCII digits, `nan(1)`); it also refuses
    ragged lines and an embedded carriage return. Python's float reads
    some of those and refuses the rest, so the caller reads them again
    token by token."""
    lines = text.split("\n")
    # a blank value would make loadtxt warn that it holds no data
    if len(lines) < _C_READER_MIN_LINES or text.isspace():
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


# A byte that is not UTF-8, as the reader's surrogateescape decoding gives it
_UNDECODABLE = re.compile("[\udc80-\udcff]")
_DELIMITER = re.compile("[=:]")


def _comment_start(line: str) -> int | None:
    """Where an inline comment starts in `line`: at a `#` or `;` that opens
    the line or follows whitespace, or None. As configparser does, it tries
    the first `#` and the first `;`, then the second of each, and so on,
    and takes the earlier of those that count in the first round where one
    does; so in `a#b#c #d e;f ;g` the comment is `;g`."""
    best = None
    for prefix in "#;":
        index, rank = line.find(prefix), 0
        while index > 0 and not line[index - 1].isspace():
            index, rank = line.find(prefix, index + 1), rank + 1
        if index >= 0 and (best is None or (rank, index) < best):
            best = (rank, index)
    return None if best is None else best[1]


def _read_ini(handle, path: str) -> dict[str, dict[str, str]]:
    """The sections of an INI file as {section: {key: value}}, in file
    order, read line by line from `handle` (see the module docstring for
    the grammar). Kept: configparser in its place cuts the benchmark's
    `oracle` ops/s 571.8 -> 536.9 (medians of 25 pairs)."""
    sections: dict[str, dict[str, list[str]]] = {}
    options = lines = None  # the open section's keys, the open key's lines
    indent_level = 0

    def refuse(detail: str):
        raise ConfigError(f"malformed config {path!r}: line {lineno}: {detail}")

    for lineno, line in enumerate(handle, start=1):
        if not line.isascii() and (bad := _UNDECODABLE.search(line)):
            refuse(f"byte {ord(bad.group()) - 0xdc00:#04x} is not UTF-8")
        cut = _comment_start(line) if "#" in line or ";" in line else None
        value = line[:cut].strip()
        if not value:
            if cut is None and lines is not None:
                lines.append("")
            continue
        # value's first character is the line's first non-space one
        indent = line.index(value[0])
        if lines is not None and indent > indent_level:
            lines.append(value)
            continue
        indent_level = indent
        end = value.rfind("]")
        if value[0] == "[" and end >= 2:
            name = value[1:end]
            if name in sections:
                refuse(f"section [{name}] appears twice")
            options = sections[name] = {}
            lines = None
        elif options is None:
            refuse(f"{value!r} comes before the first section header")
        elif (delimiter := _DELIMITER.search(value)) is None:
            refuse(f"{value!r} is not 'key = value'")
        else:
            key = value[:delimiter.start()].rstrip().lower()
            if not key:
                refuse(f"{value!r} has no key")
            if key in options:
                refuse(f"key {key!r} appears twice in [{name}]")
            lines = options[key] = [value[delimiter.end():].lstrip()]
    return {name: {key: "\n".join(parts).rstrip() for key, parts in keys.items()}
            for name, keys in sections.items()}


def _require(ini, section: str, key: str) -> str:
    if key not in ini[section]:
        _fail(section, key, "required key is missing")
    return ini[section][key]


def _check_keys(ini, section: str, allowed: set[str]):
    for key in ini[section]:
        if key not in allowed:
            _fail(section, key, "unknown key")


def _build_set(ini, n: int) -> ConvexSet:
    kind = _require(ini, "set", "kind").strip().lower()
    if kind not in _SET_KEYS:
        _fail("set", "kind", f"unknown set kind {kind!r}"
              f" (choose from {sorted(_SET_KEYS)})")
    _check_keys(ini, "set", {"kind"} | _SET_KEYS[kind])
    try:
        if kind == "box":
            return Box(_floats(_require(ini, "set", "lo"), "set", "lo", n),
                       _floats(_require(ini, "set", "hi"), "set", "hi", n))
        if kind == "ball":
            return Ball(n, _float(_require(ini, "set", "radius"), "set", "radius"))
        if kind == "halfspace":
            return Halfspace(
                _floats(_require(ini, "set", "normal"), "set", "normal", n),
                _float(_require(ini, "set", "offset"), "set", "offset"))
        return WholeSpace(n)
    except (InvalidInputError, ShapeError) as exc:
        raise ConfigError(f"[set]: {exc}") from exc


def _build_map(ini, n: int) -> Mapping:
    kind = _require(ini, "map", "kind").strip().lower()
    if kind not in _MAP_KEYS:
        _fail("map", "kind", f"unknown map kind {kind!r}"
              f" (choose from {sorted(_MAP_KEYS)})")
    required, optional = _MAP_KEYS[kind]
    _check_keys(ini, "map", {"kind"} | required | optional)
    opts = ini["map"]
    try:
        if kind == "affine":
            matrix = _floats(_require(ini, "map", "matrix"), "map", "matrix",
                             n * n).reshape(n, n)
            offset = (_floats(opts["offset"], "map", "offset", n)
                      if "offset" in opts else None)
            return Affine(matrix, offset)
        alpha = _float(_require(ini, "map", "alpha"), "map", "alpha")
        t_matrix = _floats(_require(ini, "map", "t_matrix"), "map", "t_matrix",
                           n * n).reshape(n, n)
        t_offset = (_floats(opts["t_offset"], "map", "t_offset", n)
                    if "t_offset" in opts else None)
        return ResidualOfContraction(Affine(t_matrix, t_offset), alpha)
    except (InvalidInputError, ShapeError) as exc:
        raise ConfigError(f"[map]: {exc}") from exc


def load_config(path: str) -> LoadedConfig:
    """Parse an INI problem config into a Problem plus run settings."""
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
            ini = _read_ini(handle, path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc

    for section in ini:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]"
                              f" (choose from {sorted(_SECTIONS)})")
    for section in ("space", "set", "map"):
        if section not in ini:
            raise ConfigError(f"required section [{section}] is missing")
    for section in ("space", "certificate", "solver", "check", "oracle"):
        if section in ini:
            _check_keys(ini, section, _SECTIONS[section])

    n = _int(_require(ini, "space", "n"), "space", "n")
    p = _float(_require(ini, "space", "p"), "space", "p")
    try:
        space = SpaceSpec(n, p)
    except InvalidInputError as exc:
        raise ConfigError(f"[space]: {exc}") from exc
    except UnsupportedSpaceError as exc:
        # keep the class (distinct exit code) but name the field
        raise UnsupportedSpaceError(f"[space] p: {exc}") from exc

    cset = _build_set(ini, n)
    mapping = _build_map(ini, n)

    cert = None
    if "certificate" in ini:
        try:
            cert = Certificate(
                _float(_require(ini, "certificate", "u"), "certificate", "u"),
                _float(_require(ini, "certificate", "v"), "certificate", "v"),
                _float(_require(ini, "certificate", "mu"), "certificate", "mu"))
        except InvalidInputError as exc:
            raise ConfigError(f"[certificate]: {exc}") from exc

    solver = SolverSettings()
    opts = ini.get("solver", {})
    if "x0" in opts:
        solver.x0 = _floats(opts["x0"], "solver", "x0", n)
    if "lambda" in opts:
        text = opts["lambda"].strip().lower()
        if text != "auto":
            solver.lam = _float(text, "solver", "lambda")
    if "tol" in opts:
        solver.tol = _float(opts["tol"], "solver", "tol")
        if not solver.tol > 0.0:
            _fail("solver", "tol", "must be positive")
        if solver.tol == float("inf"):
            _fail("solver", "tol", "must be finite")
    if "max_iter" in opts:
        solver.max_iter = _int(opts["max_iter"], "solver", "max_iter")
        if solver.max_iter < 1:
            _fail("solver", "max_iter", "must be >= 1")

    check = CheckSettings()
    opts = ini.get("check", {})
    if "pairs" in opts:
        check.pairs = _int(opts["pairs"], "check", "pairs")
        if check.pairs < 1:
            _fail("check", "pairs", "must be >= 1")
    if "seed" in opts:
        check.seed = _int(opts["seed"], "check", "seed")
    has_lo, has_hi = "bounds_lo" in opts, "bounds_hi" in opts
    if has_lo != has_hi:
        _fail("check", "bounds_lo" if has_hi else "bounds_hi",
              "bounds_lo and bounds_hi must be given together")
    if has_lo:
        check.bounds = (_floats(opts["bounds_lo"], "check", "bounds_lo", n),
                        _floats(opts["bounds_hi"], "check", "bounds_hi", n))

    grid = None
    if "grid" in ini.get("oracle", {}):
        toks = ini["oracle"]["grid"].replace(",", " ").split()
        if not toks:
            _fail("oracle", "grid", "value is empty")
        grid = tuple(_int(tok, "oracle", "grid") for tok in toks)

    # Problem can only refuse the retraction here; that error propagates
    problem = Problem(space, cset, mapping, cert)
    return LoadedConfig(problem=problem, solver=solver, check=check, grid=grid)
