"""Text output: 17-digit rendering, the numpy-row renderer and the atomic CSV writer."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heleshaw
from heleshaw import fmt17, textio
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


#: the two row types write_csv renders: Python floats ('%' path) and numpy scalars (fmt17); each contract
#: test below runs on both, in a loop, so that its name stays the one it had with float rows alone
ROW_TYPES = {"floats": lambda rows: [tuple(map(float, row)) for row in rows],
             "numpy": lambda rows: [tuple(map(np.float64, row)) for row in rows]}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_leaves_no_file(tmp_path, bad):
    # the bad value sits in the second chunk, after a chunk was already written
    rows = [(float(i), 1.0) for i in range(textio.CHUNK_ROWS + 5)]
    rows[-2] = (1.0, bad)
    for as_rows in ROW_TYPES.values():
        with pytest.raises(DomainError) as failure:
            write_csv(tmp_path / "t.csv", "x,y", iter(as_rows(rows)))
        assert str(failure.value) == f"non-finite result {bad} cannot be written"
        assert not list(tmp_path.iterdir())


def test_failing_row_source_keeps_previous_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old\n")

    def rows(as_rows):
        yield from as_rows((float(i), 2.0) for i in range(2 * textio.CHUNK_ROWS))
        raise RuntimeError("source failed")

    for as_rows in ROW_TYPES.values():
        with pytest.raises(RuntimeError):
            write_csv(path, "x,y", rows(as_rows))
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_row_width_must_match_header(tmp_path):
    for as_rows in ROW_TYPES.values():
        with pytest.raises(ValueError, match="every row needs 2 values"):
            write_csv(tmp_path / "t.csv", "x,y", as_rows([(1.0, 2.0), (3.0,)]))
        assert not list(tmp_path.iterdir())


def test_empty_rows_write_the_header(tmp_path):
    for as_rows in ROW_TYPES.values():
        assert write_csv(tmp_path / "t.csv", "x,y", as_rows([])) == 0
        assert (tmp_path / "t.csv").read_text() == "x,y\n"


# -- numpy rows give the bytes of the '%' path -------------------------------

@pytest.fixture
def renderer_calls(monkeypatch):
    """How often fmt17.render runs, and the values it hands to its '%' slot."""
    calls = {"render": 0, "slot": []}
    render, slot = fmt17.render, fmt17._percent_slot

    def counting_render(values, width):
        calls["render"] += 1
        return render(values, width)

    def recording_slot(value):
        calls["slot"].append(float(value))
        return slot(value)

    monkeypatch.setattr(fmt17, "render", counting_render)
    monkeypatch.setattr(fmt17, "_percent_slot", recording_slot)
    return calls


def both_ways(directory, values, width=2):
    """The CSV bytes of `values`, cut into rows of `width`, written as rows of numpy scalars and as rows of
    Python floats: fmt17's rendering and the '%' path's."""
    table = np.asarray(values, dtype=float).reshape(-1, width)
    header = ",".join("abcdef"[:width])
    write_csv(directory / "numpy.csv", header, zip(*table.T))
    write_csv(directory / "float.csv", header, table.tolist())
    return (directory / "numpy.csv").read_bytes(), (directory / "float.csv").read_bytes()


def signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def powers_of_ten():
    """Every power of ten from 1e-300 to 1e300, with both neighbours."""
    p = np.array([float(f"1e{k}") for k in range(-300, 301)])
    return np.concatenate([np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)])


def decade_edges():
    """The doubles around 10^k (1 - 5e-18), where 17 digits round up to the next decade, for every k
    from -300 to 300, and the %g exponent edges 1e-5, 1e-4, 1e16 and 1e17 with their neighbours."""
    edge = np.array([float(f"9.99999999999999995e{k}") for k in range(-301, 300)])
    below = np.nextafter(edge, 0.0)
    ends = np.array([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-6, 9.9999999999999995e-5,
                     9999999999999999.5, 99999999999999995.0])
    return np.concatenate([np.nextafter(below, 0.0), below, edge, np.nextafter(edge, np.inf),
                           np.nextafter(ends, 0.0), ends, np.nextafter(ends, np.inf)])


def subnormals_and_extremes():
    """Subnormals (5e-324 among them), +-0.0 and the largest doubles, near 1.8e308."""
    rng = np.random.default_rng(11)
    tiny = rng.integers(1, 2**52, 500, dtype=np.int64).view(np.float64)
    top = np.finfo(float).max
    return np.concatenate([[0.0, -0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308],
                           tiny, [top, np.nextafter(top, 0.0), 1.7976931348623157e308, 1e308, 9.99e307]])


def exact_ties(count=40):
    """Doubles whose 18th significant digit is an exact 5 with nothing after it: '%' rounds them half-even.

    t = (2k + 1) / 2 * 10^(E - 16) with 10^16 <= k < 10^17 is a double when 5^(16 - E) divides
    2k + 1 = q 5^(16 - E) and q < 2^53; that leaves E from -8 to 14.
    """
    rng = random.Random(5)
    ties = [96684960988929.8125]
    for e in range(-8, 15):
        five = 5 ** (16 - e)
        lo, hi = -(-(2 * 10**16 + 1) // five), min(2 * 10**17 // five, 2**53)
        ties += [q / 2 ** (17 - e) for q in {rng.randrange(lo, hi) | 1 for _ in range(count)} if q < hi]
    return ties


@pytest.mark.parametrize("corpus", [powers_of_ten, decade_edges, subnormals_and_extremes],
                         ids=lambda f: f.__name__)
def test_numpy_rows_give_the_percent_bytes_on_the_edges(tmp_path, renderer_calls, corpus):
    numpy_bytes, float_bytes = both_ways(tmp_path, signed(corpus()))
    assert numpy_bytes == float_bytes
    assert renderer_calls["render"] > 0


def test_exact_ties_take_the_percent_slot(tmp_path, renderer_calls):
    for t in exact_ties():  # each is a tie: 2 t 10^(16 - e) = 2k + 1, odd, with 10^16 <= k < 10^17
        num, den = t.as_integer_ratio()
        twice = 2 * num * 10 ** (16 - math.floor(math.log10(t)))
        assert twice % den == 0 and twice // den % 2 == 1 and 2 * 10**16 < twice // den < 2 * 10**17, t
    ties = signed(exact_ties())
    numpy_bytes, float_bytes = both_ways(tmp_path, ties)
    assert numpy_bytes == float_bytes
    assert set(ties.tolist()) <= set(renderer_calls["slot"])
    assert b"96684960988929.812," in float_bytes  # the tie rounds to the even digit


def test_values_beyond_the_table_take_the_percent_slot(tmp_path, renderer_calls):
    far = signed([5e-324, 1e-300, 1e-291, 1e291, 1e300, np.finfo(float).max])
    numpy_bytes, float_bytes = both_ways(tmp_path, far)
    assert numpy_bytes == float_bytes
    assert sorted(renderer_calls["slot"]) == sorted(far.tolist())


def test_numpy_rows_give_the_percent_bytes_on_random_doubles(tmp_path, renderer_calls):
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**63, 300_000, dtype=np.int64).view(np.float64)
    wide = bits[(np.abs(bits) >= 1e-280) & (np.abs(bits) <= 1e280)]
    integers = np.concatenate([rng.integers(-2**62, 2**62, 50_000).astype(float),
                               rng.integers(-10**6, 10**6, 50_000).astype(float)])
    normal = rng.normal(size=150_000) * 10.0 ** rng.integers(-20, 20, 150_000)
    for values in (wide, integers, normal):
        numpy_bytes, float_bytes = both_ways(tmp_path, signed(values))
        assert numpy_bytes == float_bytes
    assert renderer_calls["render"] > 0


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3), max_size=40))
def test_numpy_rows_give_the_percent_bytes_on_any_finite_rows(tmp_path_factory, rows):
    directory = tmp_path_factory.mktemp("rows")
    numpy_bytes, float_bytes = both_ways(directory, np.array(rows, dtype=float).ravel(), width=3)
    assert numpy_bytes == float_bytes


def test_numpy_rows_load_no_numpy_ma_and_no_exact_numbers(tmp_path):
    """A table from ndarrays loads the renderer and nothing else: not numpy.ma (about 20 ms to import),
    fractions or decimal.  Counted against what numpy itself loaded, which includes numpy.ma before numpy 2."""
    src = str(Path(heleshaw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = f"""
import sys
import numpy as np
from heleshaw.textio import write_csv
xs = np.linspace(-3.0, 30.0, 10**4)
rows = zip(xs, np.sin(xs), np.exp(xs))
loaded = set(sys.modules)
assert write_csv({str(tmp_path / "t.csv")!r}, "x,y,z", rows) == 10**4
print(*sorted(set(sys.modules) - loaded))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["heleshaw.fmt17"]


def test_json_text_escapes_control_characters():
    text = "".join(map(chr, range(32))) + '"\\ é\x7f'
    rendered = textio.json_text({"s": text})
    assert json.loads(rendered) == {"s": text}
    assert textio.json_text(text) == json.dumps(text, ensure_ascii=False)
