"""The config reader against configparser, the reader it replaced.

`config._read_ini` reads lpvi's flat INI grammar without configparser.
Every test here holds it to configparser as lpvi used to configure it
(`interpolation=None`, `#` and `;` allowed inline, strict duplicates):
for the same bytes both give the same {section: {key: value}}, value
strings equal character for character, or both refuse. configparser is
kept here only, as the reference; the package does not import it.
"""

import configparser
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvi import ConfigError
from lpvi.config import _read_ini, load_config


def reference_sections(data: bytes):
    """configparser's sections, or None where it refuses."""
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    try:
        cp.read_file(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError):
        return None
    return {name: dict(cp[name]) for name in cp.sections()}


def reader_sections(data: bytes):
    """The reader's sections, or None where it refuses, decoded as
    `load_config` decodes a file."""
    handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                              errors="surrogateescape")
    try:
        return _read_ini(handle, "t.ini")
    except ConfigError as exc:
        assert str(exc).startswith("malformed config 't.ini': line ")
        assert "\n" not in str(exc)
        return None


class Product:
    """Every concatenation of one element from each part, a part being a
    list of strings, a Product or an Either, indexed in mixed radix and
    never stored. One index is one hypothesis draw, where a draw per part
    would cost a draw apiece, and it shrinks toward each part's first
    element."""

    def __init__(self, *parts):
        self.parts = parts
        self.size = math.prod(map(size, parts))

    def __getitem__(self, index):
        text = []
        for part in self.parts:
            index, i = divmod(index, size(part))
            text.append(part[i])
        return "".join(text)


class Either(Product):
    """One element of one alternative, each alternative as likely as the
    next: the index picks the alternative by its remainder."""

    def __init__(self, *alternatives):
        self.parts = alternatives
        self.size = len(alternatives) * max(map(size, alternatives))

    def __getitem__(self, index):
        index, i = divmod(index, len(self.parts))
        return self.parts[i][index % size(self.parts[i])]


def size(part) -> int:
    return part.size if isinstance(part, Product) else len(part)


def drawn(part):
    return st.integers(0, size(part) - 1).map(part.__getitem__)


# Lines are built from whole pieces: indents, words that hold the comment,
# delimiter and bracket characters, and odd whitespace, some of which
# str.splitlines would take for a line break. "\n" ends a line here and is
# replaced by the drawn line end at the last step.
SPACES = [" ", "\t", "\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
PIECES = ["", " "] + SPACES + ["1", "-2.5", "ab", "é", "#", ";", "=", ":",
                               "[", "]", "a#", "b;", " #", " ;"]
INDENTS = ["", "", " ", "  ", "    ", "     ", "\t", " \t", "\xa0", "\x0c "]
COMMENTS = ["", "", " # c", "\t;c", "#c", ";c", " ;"]
KEYS = ["n", "N", "p", "Kind", "lo", "x0", "a b", "MATRIX", "é", "k#", "k;",
        "k\x0bj"]
NAMES = ["space", "set", "map", "Map", " space", "a]b", "x#y", "x ;y", "[z"]
STRAYS = ["junk", "= 3", ": x", "[]", "[", "x]", "a b c", "#", "k =", "k:"]

# a line inside a value: a continuation, a comment line or a blank line,
# or none at all
INSIDE = Either([""], Product(["\n"], INDENTS, PIECES, PIECES, PIECES, COMMENTS),
                Product(["\n"], INDENTS, ["#", ";", " ;"], PIECES, PIECES),
                Product(["\n"], SPACES + [""]))
headers = drawn(Product(["\n"], INDENTS, ["["], NAMES, ["]", "]]", "]x"],
                        COMMENTS))
options = drawn(Product(["\n"], INDENTS, KEYS,
                        ["=", " = ", ":", "\t: ", " =\xa0"],
                        PIECES, PIECES, PIECES, COMMENTS, INSIDE, INSIDE, INSIDE))
strays = drawn(Product(["\n"], INDENTS, STRAYS))


@st.composite
def ini_bytes(draw):
    """The bytes of an INI file: a few sections of a few keys, each value
    followed by continuation, blank and comment lines at any indent; now
    and then a stray line, a repeated section or key, odd line ends, a
    byte-order mark or a byte that is not UTF-8."""
    repeats = draw(st.integers(0, 9)) == 0
    blocks, names = [], set()
    for _ in range(draw(st.integers(0, 4))):
        header = draw(headers)
        if header.strip() in names and not repeats:
            continue
        names.add(header.strip())
        blocks.append(header)
        keys = set()
        for _ in range(draw(st.integers(0, 4))):
            option = draw(options)
            key = option.partition("=")[0].partition(":")[0].strip().lower()
            if key in keys and not repeats:
                continue
            keys.add(key)
            blocks.append(option)
    if draw(st.integers(0, 4)) == 0:
        blocks.insert(draw(st.integers(0, len(blocks))), draw(strays))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = "".join(blocks)[1:] + draw(st.sampled_from(["", "\n"]))
    data = text.replace("\n", end).encode("utf-8")
    odd = draw(st.integers(0, 19))
    if odd == 0:
        data = "\ufeff".encode("utf-8") + data
    elif odd == 1:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xe9", b"\xff", b"\xc3"])) + data[at:]
    return data


@settings(max_examples=1000, deadline=None)
@given(ini_bytes())
def test_the_reader_gives_what_configparser_gives(data):
    # no [DEFAULT] header is drawn: configparser merges that section into
    # the others, and the reader keeps it as a section of its own, which
    # load_config refuses as unknown (see the test below)
    assert reader_sections(data) == reference_sections(data)


@pytest.mark.parametrize("text", [
    # continuation only deeper than the key's own line
    "    [a]\n    k = 1\n[b]\nk = 2\n",
    "[a]\n  k = 1\n  j = 2\n    3\n  [b]\n",
    # blank lines inside a value kept, comment lines dropped
    "[a]\nk = 1\n\n  # c\n  2\n\n  ;\n\n[b]\n",
    # a ; that counts on its first occurrence wins over a # that counts
    # only on its third, though the # comes first
    "[a]\nk = a#b#c #d e;f ;g\n",
    "[a]\nk = x#y ;z #w\n",
    # separators str.splitlines would split at, inside one value
    "[a]\nk = 1\x0b2\x0c3\x1c4\u20285\x855\n",
    "[a]\nK : v = w: x\nA B=\n",
    "[a]\n\tk\t=\t1\t\n\t\t2\n",
    "[a]\nk = 1 #c\n\t;c\n   2;3 ;c\n",
    "\ufeff[a]\n",
    "[a]\n[a]\n",
    "[a]\nk = 1\nK = 2\n",
    "k = 1\n[a]\n",
    "[a]\n= 1\n",
    "[a]\njunk\n",
    "[a]x]y\nk=1\n",
    "[a]\r\nk = 1\r  2\r\n",
])
def test_the_reader_gives_what_configparser_gives_on_edge_cases(text):
    data = text.encode("utf-8")
    assert reader_sections(data) == reference_sections(data)


MINIMAL = """\
[space]
n = 2
p = 2
[set]
kind = whole_space
[map]
kind = affine
matrix = 1 0 0 1
"""


@pytest.mark.parametrize("default", ["[DEFAULT]\n", "[DEFAULT]\nn = 2\n"])
def test_a_default_section_is_an_unknown_section(tmp_path, default):
    path = tmp_path / "prob.ini"
    path.write_text(default + MINIMAL)
    with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]"):
        load_config(str(path))
