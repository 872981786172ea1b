"""README's Library table names only objects that exist.

Every backticked name in a row of the table must resolve in the module
that row is about; a name spelled `lpvi.module.name` resolves from the
package. Backticked words that are prose, not Python names, are listed
in PROSE.
"""

import functools
import importlib
import re
from pathlib import Path

import lpvi

README = Path(__file__).resolve().parent.parent / "README.md"
PROSE = {"verify", "lpvi verify", "(lo, hi)", "None"}
# a name, optionally followed by its call signature: `row_blocks(rows, width)`
NAME = re.compile(r"([A-Za-z_][\w.]*)(\(.*\))?")


def library_rows(text):
    """(module, contents) for each row of the Library table."""
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(lpvi\.\w+)` \| (.*) \|$", section, re.MULTILINE)


def unresolved(text):
    """The backticked names of the table that do not resolve, with their row."""
    missing = []
    for module_name, contents in library_rows(text):
        module = importlib.import_module(module_name)
        for token in re.findall(r"`([^`]+)`", contents):
            if token in PROSE:
                continue
            match = NAME.fullmatch(token)
            if match is None:
                missing.append((module_name, token))
                continue
            name = match.group(1)
            try:
                if name.startswith("lpvi."):
                    functools.reduce(getattr, name.split(".")[1:], lpvi)
                else:
                    getattr(module, name)
            except AttributeError:
                missing.append((module_name, token))
    return missing


def test_every_library_name_resolves_in_its_row():
    text = README.read_text(encoding="utf-8")
    assert [row[0] for row in library_rows(text)] == [
        "lpvi.spaces", "lpvi.sets", "lpvi.maps", "lpvi.solver", "lpvi.oracle",
        "lpvi.sweeps", "lpvi.config"]
    assert unresolved(text) == []


def test_a_deleted_name_in_the_table_is_caught():
    row = "| `lpvi.solver` | `Problem`, `select_lambda`, `no_such_name(x)` |"
    text = f"# lpvi\n\n## Library\n\n{row}\n\n## CLI\n"
    assert unresolved(text) == [("lpvi.solver", "no_such_name(x)")]
