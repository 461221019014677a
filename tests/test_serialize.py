import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhmkit import serialize
from adhmkit.errors import ADHMKitError, ParseError
from adhmkit.geometry import TotPoint, YTildePoint, chart_support, tot_point, ytilde_point
from adhmkit.hirz import ChartCoords, HirzADHM, canonicalize, chart_set, to_chart, validate_hirz
from adhmkit.plane import PlaneADHM, plane_adhm
from adhmkit.propsuite import GenConfig, gen_hirz_valid, gen_plane_valid
from adhmkit.serialize import decode, dumps, encode, load_path, loads

GOLDEN = pathlib.Path(__file__).parent / "golden"


def roundtrip(obj):
    return loads(dumps(obj))


def test_plane_roundtrip_bitexact():
    p = gen_plane_valid(GenConfig(seed=80, c=3))
    q = roundtrip(p)
    assert isinstance(q, PlaneADHM)
    assert np.array_equal(p.b1, q.b1)
    assert np.array_equal(p.b2, q.b2)
    assert np.array_equal(p.e, q.e)


def test_hirz_roundtrip_bitexact():
    d = gen_hirz_valid(GenConfig(seed=81, n=3, c=2))
    d2 = roundtrip(d)
    assert isinstance(d2, HirzADHM)
    assert (d2.n, d2.c) == (d.n, d.c)
    assert np.array_equal(d.A1, d2.A1)
    assert np.array_equal(d.A2, d2.A2)
    assert all(np.array_equal(x, y) for x, y in zip(d.C, d2.C))
    assert np.array_equal(d.e, d2.e)


def test_chart_roundtrip_bitexact():
    d = gen_hirz_valid(GenConfig(seed=82, n=2, c=2))
    cc = to_chart(d, chart_set(d)[0])
    cc2 = roundtrip(cc)
    assert isinstance(cc2, ChartCoords)
    assert (cc2.m, cc2.n, cc2.c) == (cc.m, cc.n, cc.c)
    for field in ("B", "E", "e", "A2m"):
        assert np.array_equal(getattr(cc, field), getattr(cc2, field))


def test_scalar_point_kinds_roundtrip():
    t = tot_point(1 + 2j, 3 - 1j, (3 - 1j) ** 2, (1 + 2j) ** 2, 2)
    t2 = roundtrip(t)
    assert isinstance(t2, TotPoint)
    assert (t2.y1, t2.y2, t2.u1, t2.u2) == (t.y1, t.y2, t.u1, t.u2)
    y = ytilde_point(2.0, 1.0, 0.5, 1.0, 2)
    y2 = roundtrip(y)
    assert isinstance(y2, YTildePoint)
    assert (y2.y1, y2.y2, y2.x1, y2.x2) == (y.y1, y.y2, y.x1, y.x2)


AWKWARD = [0.1, 1 / 3, 1e-300, 2**-52, -0.0, 5e-324, -5e-324, 1e300]


def test_awkward_floats_survive():
    # shortest-repr floats, subnormals and -0.0 must come back bit for bit,
    # in a 1 x 1 block and in a larger one
    for c in (1, 2, 3):
        rng = np.random.default_rng(c)
        z = np.empty(2 * c * c + c, dtype=complex)
        z.real, z.imag = rng.choice(AWKWARD, z.size), rng.choice(AWKWARD, z.size)
        z[:2] = [complex(-0.0, 5e-324), complex(1e-300, -0.0)]
        p = plane_adhm(z[:c * c].reshape(c, c), z[c * c:2 * c * c].reshape(c, c), z[2 * c * c:])
        q = roundtrip(p)
        for f in ("b1", "b2", "e"):
            assert getattr(p, f).tobytes() == getattr(q, f).tobytes()
        first = np.concatenate([q.b1.ravel(), q.b2.ravel()])[:2]
        assert np.signbit(first[0].real) and np.signbit(first[1].imag)


def test_golden_files_decode_to_expected_kinds():
    assert isinstance(load_path(str(GOLDEN / "hirz_valid_n2c2.json")), HirzADHM)
    assert isinstance(load_path(str(GOLDEN / "plane_valid_c2.json")), PlaneADHM)
    assert isinstance(load_path(str(GOLDEN / "chart_n2c2.json")), ChartCoords)
    assert isinstance(load_path(str(GOLDEN / "ytilde_n2.json")), YTildePoint)


def test_malformed_not_json():
    with pytest.raises(ParseError) as exc:
        load_path(str(GOLDEN / "malformed_not_json.json"))
    assert "invalid JSON" in str(exc.value)


def test_malformed_unknown_kind():
    with pytest.raises(ParseError) as exc:
        load_path(str(GOLDEN / "malformed_kind.json"))
    assert "/kind" in exc.value.path


def test_malformed_bad_number():
    with pytest.raises(ParseError) as exc:
        load_path(str(GOLDEN / "malformed_badnum.json"))
    assert "complex scalar" in str(exc.value)


def test_malformed_c_stack_length():
    with pytest.raises(ParseError) as exc:
        load_path(str(GOLDEN / "malformed_c_mismatch.json"))
    assert "C-matrices" in str(exc.value)
    assert exc.value.path.endswith("/C")


def _one_of_each_kind():
    d = gen_hirz_valid(GenConfig(seed=86, n=3, c=2))
    y2 = complex(-0.0, 3)
    return {"plane_adhm": gen_plane_valid(GenConfig(seed=86, c=3)), "hirz_adhm": d,
            "chart_coords": to_chart(d, chart_set(d)[-1]),
            "tot_point": tot_point(1 + 2j, y2, y2**2, (1 + 2j) ** 2, 2),
            "ytilde_point": ytilde_point(2.0, 1.0, 0.5, 1.0, 2)}


def _parse_error(data):
    with pytest.raises(ParseError) as exc:
        decode(data)
    return exc.value.detail, exc.value.path


def test_every_kind_in_the_table():
    values = _one_of_each_kind()
    assert set(values) == set(serialize._KINDS)
    for kind, (cls, _, sizes, fields) in serialize._KINDS.items():
        x = values[kind]
        y = roundtrip(x)
        assert type(y) is cls and list(encode(x)) == ["kind", *sizes, *fields]
        assert all(getattr(y, s) == getattr(x, s) for s in sizes)
        for f in fields:
            assert np.asarray(getattr(y, f)).tobytes() == np.asarray(getattr(x, f)).tobytes()
        for s in sizes:
            if s != "m":  # the chart index may be 0; every other size is a count
                assert _parse_error(dict(encode(x), **{s: 0})) == (f"{s} must be >= 1", f"$/{s}")
        for f in fields:
            data = encode(x)
            del data[f]
            assert _parse_error(data) == (f"missing key {f!r}", "$")
    for kind in ([], 3, {"c": 1}, None):
        assert _parse_error({"kind": kind}) == (f"unknown kind {kind!r}", "$/kind")


def test_first_defect_in_key_order_is_reported():
    # A1 comes before C in a hirz_adhm object, so its defect is reported
    # first, and the C stack's length is checked where C is parsed
    data = encode(gen_hirz_valid(GenConfig(seed=87, n=3, c=2)))
    data["C"] = data["C"][:2]
    assert _parse_error(data) == ("expected 3 C-matrices", "$/C")
    data["A1"][1][0] = [1.0, "x"]
    assert _parse_error(data) == ("expected a complex scalar [re, im]", "$/A1[1][0]")
    del data["A1"], data["C"]
    assert _parse_error(data) == ("missing key 'A1'", "$")


def test_non_object_document_is_a_parse_error():
    for text in ("[1]", "3"):
        with pytest.raises(ParseError) as exc:
            loads(text)
        assert (exc.value.detail, exc.value.path) == ("expected a JSON object", "$")


def test_matrix_with_too_few_rows_reports_its_path():
    data = json.loads(dumps(plane_adhm([[1.0, 0], [0, 2.0]], [[0, 1], [1, 0]], [1.0, 0.0])))
    data["b1"] = data["b1"][:1]
    with pytest.raises(ParseError) as exc:
        loads(json.dumps(data))
    assert (exc.value.detail, exc.value.path) == ("expected a matrix with 2 rows", "$/b1")


def test_deeply_nested_json_is_a_parse_error():
    for text in ("[" * 100_000, '{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}"):
        with pytest.raises(ParseError) as exc:
            loads(text)
        assert exc.value.detail.startswith("invalid JSON: ") and exc.value.path == "$"


def test_decode_rejects_bools_and_nonfinite():
    base = json.loads(dumps(plane_adhm([[1.0]], [[2.0]], [1.0])))
    nobool = json.loads(json.dumps(base))
    nobool["c"] = True
    with pytest.raises(ParseError):
        decode(nobool)
    # json.loads accepts Infinity; the decoder must not
    text = dumps(plane_adhm([[1.0]], [[2.0]], [1.0])).replace("2.0", "Infinity", 1)
    with pytest.raises(ParseError) as exc:
        loads(text)
    assert "finite" in str(exc.value)


def test_decode_shape_mismatch_paths():
    base = json.loads(dumps(plane_adhm([[1.0, 0], [0, 2.0]], [[0, 1], [1, 0]], [1.0, 0.0])))
    base["e"] = base["e"][:1]
    with pytest.raises(ParseError) as exc:
        decode(base)
    assert exc.value.path.endswith("/e")
    base2 = json.loads(dumps(plane_adhm([[1.0, 0], [0, 2.0]], [[0, 1], [1, 0]], [1.0, 0.0])))
    base2["b1"][0] = base2["b1"][0][:1]
    with pytest.raises(ParseError) as exc2:
        decode(base2)
    assert "/b1[0]" in exc2.value.path


def test_missing_key_reports_path():
    data = {"kind": "plane_adhm", "c": 1, "b1": [[[1.0, 0.0]]], "b2": [[[0.0, 0.0]]]}
    with pytest.raises(ParseError) as exc:
        decode(data, path="input")
    assert "missing key 'e'" in str(exc.value)
    assert exc.value.path == "input"


def test_dumps_rejects_unencodable():
    with pytest.raises(TypeError):
        dumps(object())


def test_load_path_missing_file():
    with pytest.raises(ParseError) as exc:
        load_path(str(GOLDEN / "does_not_exist.json"))
    assert "cannot read file" in str(exc.value)


def _outcome(fn):
    try:
        z = fn()
    except ParseError as exc:
        return ("error", exc.detail, exc.path)
    return ("ok", z.dtype, z.shape, z.tobytes())


def _spoil(pair, j, defect):
    """Apply one defect to the [re, im] list ``pair`` at component j; return the new pair."""
    if defect == "true":
        pair[j] = True
    elif defect == "string":
        pair[j] = "1.5"
    elif defect == "null":
        pair[j] = None
    elif defect == "nested":
        pair[j] = [1.0, 2.0]
    elif defect == "three":
        pair.append(0.0)
    elif defect == "infinity":
        pair[j] = float("inf") if j else float("-inf")
    elif defect == "nan":
        pair[j] = float("nan")
    elif defect == "tuple":
        return tuple(pair)
    elif defect == "ndarray":
        return np.array(pair)
    elif defect == "np_float64":  # the walk accepts it; the fast path defers
        pair[j] = np.float64(pair[j])
    return pair


DEFECTS = ["true", "string", "null", "nested", "ragged", "three", "infinity", "nan",
           "tuple", "ndarray", "np_float64", "none"]
SCALARS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**70, 2**70))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(3,), (1,), (2, 2), (1, 1), (3, 3), (2, 2, 2), (3, 1, 1), (1, 3, 3)]),
       st.sampled_from(DEFECTS), st.data())
def test_fast_block_agrees_with_walk(shape, defect, data):
    size = int(np.prod(shape))
    flat = data.draw(st.lists(SCALARS, min_size=2 * size, max_size=2 * size))
    v = np.array(flat, dtype=object).reshape(shape + (2,)).tolist()
    if defect == "infinity" and len(shape) == 3 and shape[0] >= 2:
        pos = data.draw(st.integers(size // shape[0], 2 * size // shape[0] - 1))  # in C[1]
    else:
        pos = data.draw(st.integers(0, size - 1))
    j = data.draw(st.integers(0, 1))
    idx = np.unravel_index(pos, shape)
    row = v
    for i in idx[:-1]:
        row = row[i]
    if defect == "ragged":
        row.pop()
    elif defect != "none":
        row[idx[-1]] = _spoil(row[idx[-1]], j, defect)
    fast = serialize._fast_block(v, shape)
    walk = _outcome(lambda: serialize._walk_block(v, shape, "$/X"))
    assert _outcome(lambda: serialize._parse_block(v, shape, "$/X")) == walk
    if defect == "none":
        assert fast is not None and _outcome(lambda: fast) == walk
    else:
        assert fast is None
    if defect in ("infinity", "nan"):
        assert walk == ("error", "complex scalar must be finite",
                        "$/X" + "".join(f"[{i}]" for i in idx))


def test_decode_accepts_numpy_float_scalars():
    d = gen_hirz_valid(GenConfig(seed=83, n=2, c=3))
    data = json.loads(dumps(d))
    for key in ("A1", "A2", "C", "e"):
        data[key] = np.vectorize(np.float64, otypes=[object])(np.array(data[key])).tolist()
    assert type(data["C"][1][2][0][1]) is np.float64
    d2 = decode(data)
    for f in ("A1", "A2", "e"):
        assert getattr(d, f).tobytes() == getattr(d2, f).tobytes()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(d.C, d2.C))


def test_infinity_in_c_stack_reports_its_path():
    d = gen_hirz_valid(GenConfig(seed=84, n=3, c=2))
    data = json.loads(dumps(d))
    data["C"][1][0][1][1] = "INF"
    text = json.dumps(data).replace('"INF"', "Infinity")
    with pytest.raises(ParseError) as exc:
        loads(text)
    assert exc.value.detail == "complex scalar must be finite"
    assert exc.value.path == "$/C[1][0][1]"


def test_int_beyond_float_range_reports_its_path():
    data = json.loads(dumps(plane_adhm([[1.0, 0], [0, 2.0]], [[0, 1], [1, 0]], [1.0, 0.0])))
    data["b1"][0][0][0] = 10**400
    with pytest.raises(ParseError) as exc:
        loads(json.dumps(data))
    assert exc.value.detail == "complex scalar must be finite"
    assert exc.value.path == "$/b1[0][0]"


def test_int_over_digit_limit_is_invalid_json():
    text = dumps(plane_adhm([[1.0]], [[2.0]], [1.0])).replace("2.0", "1" + "0" * 5000, 1)
    with pytest.raises(ParseError) as exc:
        loads(text)
    assert exc.value.detail.startswith("invalid JSON: ")
    assert exc.value.path == "$"


@pytest.mark.parametrize("golden", sorted(g.name for g in GOLDEN.glob("*.json")
                                          if not g.name.startswith("malformed_")))
def test_golden_bytes_roundtrip(golden):
    # the encoder's output bytes are part of the golden contract
    path = GOLDEN / golden
    assert dumps(load_path(str(path))) + "\n" == path.read_text()


def _text_or_error(fn, x):
    try:
        return ("text", fn(x))
    except (ValueError, TypeError) as exc:
        return ("error", type(exc), str(exc))


def _oracle(x):
    return _text_or_error(lambda y: json.dumps(y, indent=2, allow_nan=False), x)


SPECIAL_FLOATS = [-0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 1 / 3, 1e300, 2.0**53]
BLOCK_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from(SPECIAL_FLOATS))
NONFINITE = [float("nan"), float("inf"), float("-inf"), np.float64("nan"), np.float64("-inf")]
# each defect puts a block off the one-pass path, or makes it an error
BLOCK_DEFECTS = {
    "int": lambda x: 7,
    "big_int": lambda x: -2**80,
    "bool": lambda x: x > 0,
    "np_float64": np.float64,
    "nan": lambda x: float("nan"),
    "inf": lambda x: float("inf"),
    "-inf": lambda x: float("-inf"),
    "none": lambda x: None,
    "string": lambda x: "1.5",
}


@st.composite
def float_blocks(draw):
    """A regular nested list block of floats, sometimes spoiled at one place."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    size = int(np.prod(shape))
    flat = draw(st.lists(BLOCK_FLOATS, min_size=size, max_size=size))
    defect = draw(st.sampled_from(["clean"] * 4 + sorted(BLOCK_DEFECTS) + ["ragged", "tuple", "empty"]))
    pos = draw(st.integers(0, size - 1))
    if defect in BLOCK_DEFECTS:
        flat[pos] = BLOCK_DEFECTS[defect](flat[pos])
    block = np.array(flat, dtype=object).reshape(shape).tolist()
    if defect in ("ragged", "tuple", "empty"):
        depth = draw(st.integers(0, len(shape) - 1))
        idx = np.unravel_index(pos, shape)[:depth]
        parent = block
        for i in idx[:-1]:
            parent = parent[i]
        target = parent[idx[-1]] if idx else parent
        if defect == "ragged":
            target.pop()
        elif idx:
            parent[idx[-1]] = tuple(target) if defect == "tuple" else []
        else:
            block = tuple(block) if defect == "tuple" else []
    return block


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**100, 2**100),
    st.floats(), st.sampled_from(SPECIAL_FLOATS + NONFINITE),
    st.floats(allow_nan=False).map(np.float64),
    st.text(), st.sampled_from(['"quoted"', "back\\slash", "\x00\x1f\t\n", "caf\u00e9",
                                "\u2028\U0001f600", "\x7f"]),
)
KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
UNSUPPORTED = st.sampled_from([object(), np.int64(3), np.bool_(True), 1 + 2j, {1, 2}, b"bytes"])


def json_trees(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                                st.dictionaries(KEYS, inner, max_size=4)),
        max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(json_trees(st.one_of(JSON_SCALARS, float_blocks())), max_size=4),
                 st.dictionaries(st.text(), json_trees(st.one_of(JSON_SCALARS, float_blocks())),
                                 max_size=4)))
def test_dumps_writes_the_stdlib_text(data):
    assert _text_or_error(dumps, data) == _oracle(data)


@settings(max_examples=200, deadline=None)
@given(float_blocks(), st.integers(0, 3))
def test_dumps_float_block_at_any_depth(block, level):
    data = block
    for _ in range(level):
        data = {"k": [data]}
    if isinstance(data, tuple):
        data = [data]
    assert _text_or_error(dumps, data) == _oracle(data)


@settings(max_examples=100, deadline=None)
@given(st.lists(json_trees(st.one_of(JSON_SCALARS, UNSUPPORTED)), min_size=1, max_size=3),
       st.dictionaries(st.one_of(KEYS, st.sampled_from([(1, 2), frozenset()])),
                       st.none(), max_size=3))
def test_dumps_errors_match_the_stdlib(items, keyed):
    for data in (items, keyed, [keyed, items]):
        assert _text_or_error(dumps, data) == _oracle(data)


def _pipeline_payload():
    """An (8, 32) point and the shape of its decision-pipeline answer:
    report, support, canonical point."""
    d = gen_hirz_valid(GenConfig(seed=85, n=8, c=32))
    report = validate_hirz(d)
    sup = chart_support(d, report.chart_set[0])
    m, pairs = sup.chart_pairs
    out = {"report": report.to_json(),
           "support": {"base": [dict(encode(pt), multiplicity=k) for pt, k in sup.base],
                       "chart": {"m": m, "pairs": [[[b.real, b.imag], [e.real, e.imag]]
                                                   for b, e in pairs]}}}
    try:
        point, chart = canonicalize(d)
        out["canonical"] = {"chart": chart, "point": encode(point)}
    except ADHMKitError as exc:
        out["canonical"] = {"error": type(exc).__name__, "detail": str(exc)}
    assert report.passed
    return d, out


def test_dumps_pipeline_payload_matches_the_stdlib():
    d, out = _pipeline_payload()
    assert dumps(out) == json.dumps(out, indent=2, allow_nan=False)
    assert dumps(d) == json.dumps(encode(d), indent=2, allow_nan=False)


def test_dumps_asks_the_stdlib_only_for_unusual_input(monkeypatch):
    # what the library writes is rendered without json.dumps; a non-str key,
    # a NaN or a circular list is handed to it once, for the stdlib's own
    # text or error
    d, out = _pipeline_payload()
    usual = [d, to_chart(d, chart_set(d)[0]), gen_plane_valid(GenConfig(seed=88, c=3)),
             validate_hirz(d).to_json(), out]
    want = [json.dumps(x if isinstance(x, dict) else encode(x), indent=2, allow_nan=False)
            for x in usual]
    loop = [1.0]
    loop.append(loop)
    unusual = [{1: "a", "b": [2.0]}, [1.0, [0.5, float("nan")]], loop]
    want_unusual = [_oracle(x) for x in unusual]
    stdlib, calls = json.dumps, []

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    def count(*args, **kwargs):
        calls.append(args)
        return stdlib(*args, **kwargs)

    monkeypatch.setattr(serialize.json, "dumps", refuse)
    assert [dumps(x) for x in usual] == want
    monkeypatch.setattr(serialize.json, "dumps", count)
    for x, w in zip(unusual, want_unusual):
        calls.clear()
        assert _text_or_error(dumps, x) == w and len(calls) == 1
