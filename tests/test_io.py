"""The artifact writer: bytes as ``json.dumps(indent=1)`` lays them out."""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconset import io as rio
from reconset.construct import translate_test_set
from reconset.dyadic import Dyadic
from reconset.intervals import IntervalSet, Window
from reconset.io import interval_set_artifact, load_interval_set, write_json
from reconset.profiles import Profile


@functools.cache
def _certificate():
    return translate_test_set(Profile.tent(), Window.of(-4, 4))[1].to_json()


def _oracle(art):
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in art.items()}
    return json.dumps(plain, sort_keys=True, indent=1, allow_nan=False) + "\n"


def _assert_writes_oracle(tmp_path, art):
    path = tmp_path / "T.json"
    write_json(path, art)
    text, expected = path.read_text(), _oracle(art)
    if text != expected:
        # name the first difference: pytest's own diff of megabyte strings takes minutes
        at = next(i for i, (a, b) in enumerate(zip(text + "\0", expected + "\1")) if a != b)
        pytest.fail(f"at byte {at}: wrote {text[at - 30:at + 30]!r}, "
                    f"json.dumps has {expected[at - 30:at + 30]!r}")


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
def test_write_json_matches_indent_one_oracle(tmp_path_factory, T, window, meta, certified):
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


def test_write_json_writes_every_top_level_rows_array(tmp_path):
    rows = IntervalSet([(0, 1), (Dyadic(5, 1), 7)]).rows()
    art = {"a": rows, "b": {"c": 1}, "d": rows[:0], "e": -rows, "f": rows.astype(np.int32)}
    with pytest.raises(TypeError):  # only int64 arrays are rows
        write_json(tmp_path / "T.json", art)
    del art["f"]
    _assert_writes_oracle(tmp_path, art)


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
    write_json(tmp_path / "T.json", art)
    monkeypatch.undo()
    assert longest and max(longest) < 100
    # the rows span two blocks of the writer
    _assert_writes_oracle(tmp_path, art)
