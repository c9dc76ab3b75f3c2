"""Text output: 17-digit rendering and the atomic CSV writer."""

import json
import math

import numpy as np
import pytest

from heleshaw import textio
from heleshaw.errors import DomainError
from heleshaw.textio import fmt, write_csv


def test_csv_rows_render_like_fmt(tmp_path):
    rng = np.random.default_rng(3)
    xs = rng.normal(size=3000) * 10.0 ** rng.integers(-300, 300, 3000)
    xs[:4] = (0.0, -0.0, 1e16, 5e-324)
    rows = list(zip(xs, np.sin(xs), xs.tolist()))
    path = tmp_path / "t.csv"
    assert write_csv(path, "a,b,c", rows) == len(rows)
    expected = "a,b,c\n" + "".join(",".join(fmt(float(v)) for v in row) + "\n" for row in rows)
    assert path.read_text() == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_leaves_no_file(tmp_path, bad):
    # the bad value sits in the second chunk, after a chunk was already written
    rows = [(float(i), 1.0) for i in range(textio.CHUNK_ROWS + 5)]
    rows[-2] = (1.0, bad)
    with pytest.raises(DomainError, match="non-finite"):
        write_csv(tmp_path / "t.csv", "x,y", iter(rows))
    assert not list(tmp_path.iterdir())


def test_failing_row_source_keeps_previous_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old\n")

    def rows():
        yield from ((float(i), 2.0) for i in range(2 * textio.CHUNK_ROWS))
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError):
        write_csv(path, "x,y", rows())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_row_width_must_match_header(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", "x,y", [(1.0, 2.0), (3.0,)])
    assert not list(tmp_path.iterdir())


def test_empty_rows_write_the_header(tmp_path):
    assert write_csv(tmp_path / "t.csv", "x,y", []) == 0
    assert (tmp_path / "t.csv").read_text() == "x,y\n"


def test_json_text_escapes_control_characters():
    text = "".join(map(chr, range(32))) + '"\\ é\x7f'
    rendered = textio.json_text({"s": text})
    assert json.loads(rendered) == {"s": text}
    assert textio.json_text(text) == json.dumps(text, ensure_ascii=False)
