"""README's library snippet runs as written against the installed API,
its estimator table states the coefficients and reference labels of
`ESTIMATORS`, its config table states the keys of `cli.KEYS`, and it
states the package's version."""

import contextlib
import io
import math
import pathlib
import re

import numpy as np

from dreglab import __version__, cli
from dreglab.estimators import ESTIMATORS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert len(out.getvalue().splitlines()) >= 2


def _table():
    """{id: (c_path, c_score, c_theta, min K, reference)} as README's
    table writes them."""
    rows = re.findall(r"^\| `([\w-]+)`\s*\|([^|\n]*)\|([^|\n]*)\|([^|\n]*)\|([^|\n]*)\|"
                      r"([^|\n]*)\|",
                      README.read_text(encoding="utf-8"), re.MULTILINE)
    return {kind: tuple(cell.strip() for cell in cells) for kind, *cells in rows}


def _evaluate(cell, values):
    """A coefficient cell such as ``a wt + (1 - 2a) wt^2`` at ``values``,
    with juxtaposition read as a product; ``-`` is an absent term."""
    if cell == "-":
        return 0.0
    tokens = re.findall(r"\d+(?:\.\d+)?|[a-z]\w*(?:\^2)?|[-+*()]", cell)
    assert "".join(tokens) == cell.replace(" ", ""), cell
    operand = re.compile(r"[\w^]+|\)")
    code = tokens[:1]
    for left, right in zip(tokens, tokens[1:]):
        if operand.fullmatch(left) and (right == "(" or right[0].isalnum()):
            code.append("*")
        code.append(right)
    return eval(" ".join(code).replace("^2", "2"), {"__builtins__": {}}, values)


def _coefficient(term, values):
    return sum((w(values["a"]) if callable(w) else w) * values[base]
               for base, w in term.items())


def test_readme_estimator_table_matches_the_code():
    table = _table()
    assert list(table) == list(ESTIMATORS)
    rng = np.random.default_rng(0)
    for kind, (c_path, c_score, c_theta, min_k, ref) in table.items():
        r = ESTIMATORS[kind]
        assert c_theta == r.theta, kind
        assert int(min_k) == r.min_k, kind
        assert ref == (f"`{r.reference[0]}`" if r.reference else "-"), kind
        for _ in range(3):
            values = dict(zip(("wt", "wt2", "c", "c2", "a"), rng.random(5)))
            for cell, term in ((c_path, r.path), (c_score, r.score)):
                assert math.isclose(_evaluate(cell, values),
                                    _coefficient(term, values),
                                    rel_tol=1e-12, abs_tol=1e-15), (kind, cell)


def test_readme_config_table_matches_the_keys():
    # a row per key, in manifest order: its readers, and a default per
    # reader, either one `value` for all or "experiment: `value`" parts
    # split by ";"; a value that names a key follows that key
    rows = re.findall(r"^\| `(\w+)` \| ([\w, -]+) \| (.+) \|$",
                      README.read_text(encoding="utf-8"), re.MULTILINE)
    assert [name for name, _, _ in rows] == list(cli.KEYS)
    resolved = {e: vars(cli.resolve_config({}, e)) for e in cli.EXPERIMENTS}
    for name, reads, cell in rows:
        assert tuple(reads.split(", ")) == cli.KEYS[name].reads, name
        stated = {}
        for part in cell.split("; "):
            experiment, _, value = part.rpartition(": ")
            for e in [experiment] if experiment else cli.KEYS[name].reads:
                stated[e] = value
        assert list(stated) == list(cli.KEYS[name].reads), name
        for e, value in stated.items():
            value, got = value.strip("`"), resolved[e][name]
            if value in cli.KEYS:
                assert got == resolved[e][value], (name, e, value)
            else:
                assert value == cli._fmt(got), (name, e, value)


def test_readme_states_the_code_version():
    stated = re.findall(r"The code version is (\d+(?:\.\d+)*)",
                        README.read_text(encoding="utf-8"))
    assert stated == [__version__]
