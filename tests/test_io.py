"""The artifact writer: bytes as ``json.dumps(indent=1)`` lays them out, with
each row of an interval set on one line, as ``json.dumps(row)`` lays it out;
and the reader, which parses with the cyclic garbage collector off."""

import functools
import gc
import json
import uuid

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconset import io as rio
from reconset.construct import TranslateCertificate, translate_test_set
from reconset.dyadic import Dyadic
from reconset.intervals import IntervalSet, Window
from reconset.io import interval_set_artifact, load_interval_set, read_json, write_json
from reconset.profiles import Profile


@functools.cache
def _certificate():
    return translate_test_set(Profile.tent(), Window.of(-4, 4))[1].to_json()


def _rows(T):
    """T's rows from its endpoints, each a canonical Dyadic."""
    return [[lo.num, lo.exp, hi.num, hi.exp] for lo, hi in T]


def _oracle(art):
    """json.dumps(indent=1) of the artifact, with the list of an interval
    set's rows laid out one row per line."""
    token = f"rows-{uuid.uuid4().hex}-"
    sets = {k for k, v in art.items() if isinstance(v, IntervalSet)}
    plain = {k: token + k if k in sets else v for k, v in art.items()}
    text = json.dumps(plain, sort_keys=True, indent=1, allow_nan=False) + "\n"
    for k in sets:
        rows = _rows(art[k])
        lines = "[\n" + ",\n".join("  " + json.dumps(r) for r in rows) + "\n ]"
        text = text.replace(json.dumps(token + k), lines if rows else "[]")
    return text


def _assert_writes_oracle(tmp_path, art):
    path = tmp_path / "T.json"
    write_json(path, art)
    text, expected = path.read_text(), _oracle(art)
    if text != expected:
        # name the first difference: pytest's own diff of megabyte strings takes minutes
        at = next(i for i, (a, b) in enumerate(zip(text + "\0", expected + "\1")) if a != b)
        pytest.fail(f"at byte {at}: wrote {text[at - 30:at + 30]!r}, "
                    f"the oracle has {expected[at - 30:at + 30]!r}")


numerators = st.one_of(st.integers(-64, 64), st.integers(-(2**57), 2**57))


@st.composite
def interval_sets(draw):
    ends = sorted(set(draw(st.lists(numerators, max_size=24))))
    ends = ends[: len(ends) // 2 * 2]
    return IntervalSet.from_arrays(ends[0::2], ends[1::2], draw(st.integers(0, 60)))


@st.composite
def windows(draw):
    lo, hi = sorted(draw(st.lists(numerators, min_size=2, max_size=2, unique=True)))
    exp = draw(st.integers(0, 60))
    return Window(Dyadic(lo, exp), Dyadic(hi, exp))


metas = st.dictionaries(
    st.text(max_size=12),
    st.one_of(
        st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.text(),
        st.lists(st.lists(st.integers(), max_size=4), max_size=3),
    ),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(interval_sets(), st.none() | windows(), metas, st.booleans())
def test_write_json_matches_row_per_line_oracle(tmp_path_factory, T, window, meta, certified):
    art = interval_set_artifact(T, window, meta)
    if certified:
        art["certificate"] = _certificate()
    _assert_writes_oracle(tmp_path_factory.mktemp("w"), art)


@pytest.mark.parametrize(
    "T",
    [IntervalSet(), IntervalSet([(Dyadic(-3, 2), Dyadic(1, 50))]), IntervalSet([(0, 1), (2, 5)])],
    ids=["empty", "single", "two"],
)
def test_write_json_rows_beside_lookalike_strings(tmp_path, T):
    # strings and nested lists that spell a top-level rows key stay where they
    # are, also under a key that sorts before "intervals"
    lookalikes = {"note": '\n "intervals": [', "intervals": [[1, 2, 3, 4]], '"intervals"': []}
    art = interval_set_artifact(T, Window.of(-4, 8), lookalikes)
    art["annotations"] = lookalikes
    art["certificate"] = _certificate()
    _assert_writes_oracle(tmp_path, art)
    assert load_interval_set(tmp_path / "T.json") == (T, Window.of(-4, 8))


def test_write_json_writes_every_top_level_interval_set(tmp_path):
    T = IntervalSet([(0, 1), (Dyadic(5, 1), 7)])
    art = {"a": T, "b": {"c": 1}, "d": IntervalSet(), "e": T.affine(3, Dyadic(-1, 40)), "f": T.rows()}
    with pytest.raises(TypeError):  # only an IntervalSet is written row by row
        write_json(tmp_path / "T.json", art)
    del art["f"]
    _assert_writes_oracle(tmp_path, art)
    assert (tmp_path / "T.json").read_text().count("\n  [") == 4


def _longest_list(obj):
    if isinstance(obj, dict):
        return max(map(_longest_list, obj.values()), default=0)
    if isinstance(obj, list):
        return max([len(obj), *map(_longest_list, obj)])
    return 0


def test_json_dumps_never_sees_the_rows(tmp_path, monkeypatch):
    dumps, longest = rio.json.dumps, []

    def recording(obj, *args, **kwargs):
        longest.append(_longest_list(obj))
        return dumps(obj, *args, **kwargs)

    starts = np.arange(100_000, dtype=np.int64) * 4
    T = IntervalSet.from_arrays(starts, starts + 1, 3)
    art = interval_set_artifact(T, Window.of(0, 50_000), {"construction": "test"})
    art["certificate"] = _certificate()
    monkeypatch.setattr(rio.json, "dumps", recording)
    # nor is the whole (N, 4) array formed: the rows are encoded per block
    monkeypatch.setattr(IntervalSet, "rows", lambda self: pytest.fail("all rows formed"))
    write_json(tmp_path / "T.json", art)
    monkeypatch.undo()
    assert longest and max(longest) < 100
    # the rows span two blocks of the writer
    _assert_writes_oracle(tmp_path, art)


def test_old_indent_one_layout_reads_back_the_same(tmp_path):
    # the layout before rows took one line each: json.dumps(indent=1) of all
    T, cert = translate_test_set(Profile.tent(), Window.of(-4, 4))
    art = interval_set_artifact(T, cert.effective_window)
    art["certificate"] = cert.to_json()
    old = {**art, "intervals": T.to_json()}
    (tmp_path / "old.json").write_text(json.dumps(old, sort_keys=True, indent=1) + "\n")
    write_json(tmp_path / "new.json", art)
    assert (tmp_path / "old.json").stat().st_size > (tmp_path / "new.json").stat().st_size
    for name in ("old.json", "new.json"):
        assert load_interval_set(tmp_path / name) == (T, cert.effective_window)
        back = TranslateCertificate.from_json(read_json(tmp_path / name)["certificate"])
        assert back.to_json() == cert.to_json() and back.recheck() == []


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_parse_json_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    loads, during = rio.json.loads, []

    def recording(*args, **kwargs):
        during.append(gc.isenabled())
        return loads(*args, **kwargs)

    monkeypatch.setattr(rio.json, "loads", recording)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert rio.parse_json('{"intervals": [[1, 0, 3, 1]], "tol": 0.5}') == {
            "intervals": [[1, 0, 3, 1]], "tol": 0.5}
        after_parse = gc.isenabled()
        with pytest.raises(ValueError, match="NaN is not a finite number"):
            rio.parse_json('{"tol": NaN}')
        after_refusal = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False, False]
    assert after_parse is enabled and after_refusal is enabled
