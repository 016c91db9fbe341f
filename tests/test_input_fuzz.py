"""Malformed input files run through the CLI exit cleanly, never with a traceback.

Each case starts from a valid file of one kind (algebra, semidirect, plane,
state) and breaks it: one value token is replaced by text that no number,
index, parity or Gram selector of the grammar accepts, or one line of junk is
inserted.  ``cli.run`` must return 1 (validation) or 3 (configuration), and
must not raise.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from liecurv.cli import run

ALGEBRA = """[algebra]
dim = 3
gram = diag: 1, 2, 3
structure =
    1 2 3 1.0
    2 3 1 1.0
    3 1 2 1.0
"""

SEMIDIRECT = """[g]
dim = 3
gram = identity
structure =
    1 2 3 1.0
    2 3 1 1.0
    3 1 2 1.0

[h]
dim = 3
gram = rows: 1 0 0; 0 1 0; 0 0 1

[action]
entries =
    1 3 2 1.0
    1 2 3 -1.0
    2 3 1 -1.0
    2 1 3 1.0
    3 2 1 1.0
    3 1 2 -1.0
"""

PLANE = """[plane]
x_g = 1 0.5 0
x_h = 0 0.25 -1
y_g = 0 1 0
y_h = 0.5 0 0.75
"""

TORUS_PLANE = """[plane]
x_g =
    sin 0 1 -1.0 1
    cos 1 1 -0.5 1
    cos 1 1 0.5 2
x_h =
    cos 1 0 1.0
y_g =
    cos 1 0 0.8 2
y_h =
    sin 0 2 1.25
"""

STATE = """[state]
u = 0.3 -0.2 0.5
alpha = 0.1 0.4 -0.3
"""

TORUS_STATE = """[state]
u =
    sin 0 1 -1.0 1
    cos 1 0 0.7 2
"""

#: (valid file, CLI call reading it from the path "{}")
CASES = [
    (ALGEBRA, ["validate", "--algebra-file", "{}"]),
    (SEMIDIRECT, ["validate", "--semidirect-file", "{}"]),
    (PLANE, ["curvature", "--semidirect", "magnetic:so3:1,2,3", "--plane-file", "{}"]),
    (TORUS_PLANE, ["curvature", "--semidirect", "passive-scalar", "--plane-file", "{}"]),
    (STATE, ["geodesic", "--semidirect", "magnetic:so3:1,2,3", "--state-file", "{}",
             "--dt", "0.01", "--steps", "1"]),
    (TORUS_STATE, ["geodesic", "--algebra", "torus-vol", "--state-file", "{}", "--dt", "0.01",
                   "--steps", "1", "--support-cap", "2", "--format", "jsonl"]),
]

#: Replacements that are not a valid value anywhere in the grammar.
BAD_TOKENS = ["nan", "-inf", "1e999", "x", "", "%", "%(dim)s", "[", "]", "=", "0x10", "tan",
              "1/2", "½", "\\", "--", "1e", "+-1", "diag:", "rows:"]

#: Lines that break the file wherever they are inserted.
BAD_LINES = ["???", "    nan", "[plane", "= 1", "%%", "%(dim)s", "dim", "    1 2 3 4 5", "\t]["]


def _value_spans(text):
    """(start, end) of every whitespace-separated token right of a '=' or on a
    continuation line, and of every section name."""
    spans = []
    offset = 0
    for line in text.splitlines(keepends=True):
        body = line.rstrip("\n")
        if body.startswith("["):
            spans.append((offset + 1, offset + len(body) - 1))
        else:
            start = body.index("=") + 1 if "=" in body else 0
            pos = start
            for token in body[start:].split():
                pos = body.index(token, pos)
                spans.append((offset + pos, offset + pos + len(token)))
                pos += len(token)
        offset += len(line)
    return spans


@st.composite
def broken_inputs(draw):
    text, argv = draw(st.sampled_from(CASES))
    if draw(st.booleans()):
        start, end = draw(st.sampled_from(_value_spans(text)))
        text = text[:start] + draw(st.sampled_from(BAD_TOKENS)) + text[end:]
    else:
        lines = text.splitlines(keepends=True)
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(BAD_LINES)) + "\n")
        text = "".join(lines)
    return text, argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(broken_inputs())
def test_malformed_file_exits_cleanly(case):
    text, argv = case
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, "input.cfg")
        path.write_text(text)
        code = run([str(path) if a == "{}" else a for a in argv])
    assert code in (1, 3), (code, text)
