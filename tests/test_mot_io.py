"""MOT file loading and writing against the per-line loaders and the
dict-backed trajectory set they filled (tests/oracles.py), the loaders'
bulk reads against their own per-line paths, plus the write -> read ->
write byte identity of trajectory and detection files."""

import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motrack import BoundingBox, TrajectorySet, mot_io
from motrack.association import DetectionCandidate
from motrack.mot_io import (
    MotParseError,
    Sidecar,
    load_detections,
    load_sidecar,
    load_trajectories,
    sidecar_path,
    write_detections,
    write_trajectories,
)

from oracles import DictTrajectorySet, load_detections_oracle, load_trajectories_oracle

_SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)
_NUMBER = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
_BAD_NUMBER = st.sampled_from(["nan", "inf", "-inf", "0", "0.0", "-0.0", "-3.5", "1e999"])
_BAD_LINE = st.sampled_from(["1,2,3", "7", "a,b,c,d,e,f,g", "1,2,3,4,x,6,1", "1.5,1,0,0,1,1,1"])


def _pad(draw, text: str) -> str:
    return draw(st.sampled_from(["", " ", "  "])) + text + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def mot_texts(draw, detections: bool):
    """MOT file text: data lines with unsorted frames, padded fields, ids
    written as ``3`` or ``3.0`` and 7 to 11 fields, plus blank lines. A
    drawn share of files also holds repeated (frame, id) keys, negative ids,
    short or malformed lines and nan/inf/zero/negative values."""
    bad = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 20))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        if bad and draw(st.integers(0, 14)) == 0:
            lines.append(draw(_BAD_LINE))
            continue
        frame = draw(st.integers(1, 6))
        if detections:
            ident = draw(st.sampled_from([-1, -1, -1, 0, 7]))
        else:
            ident = draw(st.integers(-1 if bad else 0, 5 if bad else 40))
        id_text = draw(st.sampled_from([str(ident), f"{ident}.0"]))
        values = [repr(draw(_NUMBER)), repr(draw(_NUMBER)),
                  repr(draw(st.floats(0.01, 1e3))), repr(draw(st.floats(0.01, 1e3))),
                  repr(draw(st.floats(-0.5, 1.5)))]
        if bad and draw(st.integers(0, 9)) == 0:
            values[draw(st.integers(0, 4))] = draw(_BAD_NUMBER)
        tail = draw(st.sampled_from([[], ["-1", "-1", "-1"], ["-1", "-1", "-1", "x"]]))
        fields = [str(frame), id_text, *values, *tail]
        lines.append(",".join(_pad(draw, f) if draw(st.integers(0, 4)) == 0 else f for f in fields))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def sidecar_texts(draw):
    """None (no sidecar), or entries by (frame, candidate index), some
    matching no detection."""
    if not draw(st.booleans()):
        return None
    dim = draw(st.integers(0, 3))
    lines = [f"aff 1 {dim}"]
    keys = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 3)), unique=True, max_size=6))
    for frame, cand in keys:
        fields = [str(frame), str(cand), draw(st.sampled_from(["-", "0.25", "1.0"]))]
        if dim and draw(st.booleans()):
            fields += [repr(draw(st.floats(-1, 1))) for _ in range(dim)]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def _outcome(load, *args):
    try:
        return load(*args), None
    except ValueError as exc:
        return None, exc


def _first_rejected_line(text: str) -> int:
    """Line of the first negative id or repeated (frame, id), in file order."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split(",")
        key = (int(parts[0]), int(float(parts[1])))
        if key[1] < 0 or key in seen:
            return lineno
        seen.add(key)
    raise AssertionError("no rejected line")


def _box_repr(box) -> str:
    return repr(box.as_tuple())


def _assert_same_set(new: TrajectorySet, old: DictTrajectorySet) -> None:
    assert [(f, i, _box_repr(b)) for f, i, b in new.records()] == [
        (f, i, _box_repr(b)) for f, i, b in old.records()
    ]
    assert new.frames == old.frames
    assert new.identities() == old.identities()
    assert new.total_boxes() == old.total_boxes()


def _assert_same_candidates(new, old) -> None:
    assert list(new) == list(old)
    for frame in old:
        assert len(new[frame]) == len(old[frame])
        for a, b in zip(new[frame], old[frame]):
            assert _box_repr(a.box) == _box_repr(b.box)
            assert repr(a.s_obj) == repr(b.s_obj)
            assert a.s_mask == b.s_mask
            if b.embedding is None:
                assert a.embedding is None
            else:
                assert a.embedding.tobytes() == b.embedding.tobytes()


class TestLoadersAgainstPerLineOracle:
    @settings(max_examples=400, deadline=None)
    @given(mot_texts(detections=False))
    def test_load_trajectories(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.txt"
            path.write_text(text)
            new, new_err = _outcome(load_trajectories, path)
            old, old_err = _outcome(load_trajectories_oracle, path)
        if old_err is None:
            assert new_err is None, new_err
            _assert_same_set(new, old)
            return
        assert isinstance(new_err, MotParseError)
        message = str(old_err)
        if not message.startswith(f"{path}:"):  # a repeated (frame, id): no location
            message = f"{path}:{_first_rejected_line(text)}: {message}"
        elif not message[len(f"{path}:")].isdigit():  # a negative id: no line number
            message = f"{path}:{_first_rejected_line(text)}:{message[len(f'{path}:'):]}"
        assert str(new_err) == message

    @settings(max_examples=300, deadline=None)
    @given(mot_texts(detections=True), sidecar_texts())
    def test_load_detections(self, text, sidecar):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "det.txt"
            path.write_text(text)
            if sidecar is not None:
                sidecar_path(path).write_text(sidecar)
            new, new_err = _outcome(load_detections, path)
            old, old_err = _outcome(load_detections_oracle, path)
        if old_err is None:
            assert new_err is None, new_err
            _assert_same_candidates(new, old)
        else:
            assert isinstance(new_err, MotParseError)
            assert str(new_err) == str(old_err)

    def test_several_bad_lines_name_the_first(self, tmp_path):
        # The malformed line 4 stops the per-line loop; the box at line 2 and
        # the conf at line 3 are checked afterwards but come first.
        path = tmp_path / "bad.txt"
        path.write_text(
            "1,1,0,0,10,10,1\n1,2,0,0,0,10,1\n1,3,0,0,10,10,nan\n1,4,zz,0,10,10,1\n"
        )
        with pytest.raises(MotParseError, match=r"bad\.txt:2: box extents must be positive"):
            load_trajectories(path)
        path.write_text("1,1,0,0,10,10,1\n1,3,0,0,10,10,nan\n1,2,0,0,0,10,1\n1,4,zz\n")
        with pytest.raises(MotParseError, match=r"bad\.txt:2: conf must be finite, got 'nan'"):
            load_trajectories(path)


_BOX = st.builds(BoundingBox, st.floats(-100, 100), st.floats(-100, 100),
                 st.floats(0.01, 100), st.floats(0.01, 100))
_RECORDS = st.lists(st.tuples(st.integers(-2, 9), st.integers(0, 6), _BOX), max_size=40)


_GOLDEN = {suffix: (Path(__file__).parent / "data" / f"crossing2_seed0{suffix}").read_text().splitlines()
           for suffix in ("_gt.txt", "_det.txt", "_det.aff")}
_TOKENS = st.sampled_from(["", " ", "nan", "inf", "-inf", "1e309", "-1e309", "1_0", "9223372036854775808",
                           "-9223372036854775809", "10000000000000", "5e-324", "-", "0", "-1", "1.5", "1e3",
                           "0x10", "True", "aff"])


@st.composite
def golden_mutations(draw):
    """The suffix of one crossing2 golden file and its text with one line
    mutated: a field (space-separated in the sidecar header, else
    comma-separated) replaced, dropped or inserted from a token pool, or the
    line duplicated or blanked. Half the mutations hit the first line, the
    sidecar's header."""
    suffix = draw(st.sampled_from(sorted(_GOLDEN)))
    lines = list(_GOLDEN[suffix])
    at = draw(st.just(0) | st.integers(0, len(lines) - 1))
    sep = " " if suffix == "_det.aff" and at == 0 else ","
    fields = lines[at].split(sep)
    k = draw(st.integers(0, len(fields) - 1))
    op = draw(st.sampled_from(["replace", "drop", "insert", "duplicate", "blank"]))
    if op == "replace":
        fields[k] = draw(_TOKENS)
    elif op == "drop":
        del fields[k]
    elif op == "insert":
        fields.insert(k, draw(_TOKENS))
    lines[at] = sep.join(fields) if op != "blank" else draw(st.sampled_from(["", "  "]))
    if op == "duplicate":
        lines.insert(at, lines[at])
    return suffix, "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("error")
class TestLoaderFuzzing:
    @settings(max_examples=200, deadline=None)
    @given(golden_mutations())
    @example(("_det.aff", "\n".join(["aff 1 10000000000000", *_GOLDEN["_det.aff"][1:]]) + "\n"))
    def test_mutated_golden_loads_or_names_a_file(self, mutation):
        """A mutated golden file loads, or fails with a MotParseError naming
        the file; for detections, also the sidecar whose entry it orphans.
        Any other exception fails."""
        suffix, text = mutation
        with tempfile.TemporaryDirectory() as tmp:
            paths = {s: Path(tmp) / f"crossing2_seed0{s}" for s in _GOLDEN}
            for s, path in paths.items():
                path.write_text(text if s == suffix else "\n".join(_GOLDEN[s]) + "\n")
            named = [paths[suffix]] + ([paths["_det.aff"]] if suffix == "_det.txt" else [])
            try:
                if suffix == "_gt.txt":
                    load_trajectories(paths[suffix])
                else:
                    load_detections(paths["_det.txt"])
            except MotParseError as exc:
                assert str(exc).startswith(tuple(f"{path}:" for path in named)), exc


def _arrays(result) -> list:
    """Dtype, shape and bytes of every column a loader's result holds."""
    if isinstance(result, TrajectorySet):
        columns = list(result.columns())
    elif isinstance(result, Sidecar):
        columns = [result.frame, result.cand, result.s_mask, result.embeddings, result.has_embedding]
    else:  # one Frame per frame
        columns = [np.array(list(result), dtype=np.int64)] + [
            column for frame in result.values()
            for column in (frame.boxes, frame.s_obj, frame.s_mask, frame.embeddings, frame.has_embedding)]
    return [(column.dtype.str, column.shape, column.tobytes()) for column in columns]


def _assert_bulk_matches_per_line(load, path):
    """``load(path)`` gives byte-equal columns, or an equal MotParseError,
    with and without its bulk read; returns the bulk-first outcome."""
    bulk, bulk_err = _outcome(load, path)
    with mock.patch.object(mot_io, "_loadtxt", return_value=None):  # every bulk read refuses
        per_line, per_line_err = _outcome(load, path)
    if per_line_err is None:
        assert bulk_err is None, bulk_err
        assert _arrays(bulk) == _arrays(per_line)
    else:
        assert type(bulk_err) is type(per_line_err) and str(bulk_err) == str(per_line_err)
    return bulk, bulk_err


_TAIL = "0,0,10,10,1"  # box and conf fields


@pytest.mark.filterwarnings("error")
class TestBulkAgainstPerLineParsing:
    @settings(max_examples=300, deadline=None)
    @given(mot_texts(detections=False))
    def test_trajectories(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.txt"
            path.write_text(text)
            _assert_bulk_matches_per_line(load_trajectories, path)

    @settings(max_examples=300, deadline=None)
    @given(mot_texts(detections=True), sidecar_texts())
    def test_detections_and_sidecar(self, text, sidecar):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "det.txt"
            path.write_text(text)
            if sidecar is not None:
                sidecar_path(path).write_text(sidecar)
                _assert_bulk_matches_per_line(load_sidecar, sidecar_path(path))
            _assert_bulk_matches_per_line(load_detections, path)

    @settings(max_examples=300, deadline=None)
    @given(golden_mutations())
    def test_mutated_golden(self, mutation):
        suffix, text = mutation
        with tempfile.TemporaryDirectory() as tmp:
            paths = {s: Path(tmp) / f"crossing2_seed0{s}" for s in _GOLDEN}
            for s, path in paths.items():
                path.write_text(text if s == suffix else "\n".join(_GOLDEN[s]) + "\n")
            if suffix == "_gt.txt":
                _assert_bulk_matches_per_line(load_trajectories, paths[suffix])
            else:
                _assert_bulk_matches_per_line(load_sidecar, paths["_det.aff"])
                _assert_bulk_matches_per_line(load_detections, paths["_det.txt"])

    def test_bulk_read_leaves_the_warning_filters_alone(self, tmp_path):
        """While numpy reads, ``warnings.filters`` is still the caller's own
        list, so files can load on several threads at once; a file with no
        data line never reaches the reader, which would warn about it."""
        read, filters, seen = np.loadtxt, warnings.filters, []

        def spy(*args, **kwargs):
            seen.append(warnings.filters is filters)
            return read(*args, **kwargs)

        (tmp_path / "gt.txt").write_text(f"1,1,{_TAIL}\n")
        (tmp_path / "empty.txt").write_text("\n\n")
        with mock.patch.object(np, "loadtxt", spy):
            assert load_trajectories(tmp_path / "gt.txt").total_boxes() == 1
            assert load_trajectories(tmp_path / "empty.txt").total_boxes() == 0
        assert seen == [True]

    def test_well_formed_files_parse_in_bulk(self, tmp_path):
        """The golden files, and a copy with CRLF line ends and an empty line,
        pass every bulk check: the per-line parsers never run."""
        data = Path(__file__).parent / "data"
        crlf = tmp_path / "gt.txt"
        lines = _GOLDEN["_gt.txt"]
        crlf.write_bytes("\r\n".join([lines[0], "", *lines[1:]]).encode() + b"\r\n")
        with mock.patch.object(mot_io, "_parse_lines", side_effect=AssertionError), \
                mock.patch.object(mot_io, "_load_sidecar_lines", side_effect=AssertionError):
            for name in ("crossing2", "crowd8_occl20"):
                load_trajectories(data / f"{name}_seed0_gt.txt")
                assert len(load_detections(data / f"{name}_seed0_det.txt")) > 0
            assert _arrays(load_trajectories(crlf)) == _arrays(load_trajectories(data / "crossing2_seed0_gt.txt"))
            crlf.write_text(f"1,1,{_TAIL}\n\n\n1,1,{_TAIL}\n")
            with pytest.raises(MotParseError, match=r"gt\.txt:4: identity 1 appears twice in frame 1"):
                load_trajectories(crlf)

    # Inputs where numpy's reader and Python's int/float differ, each with
    # the keys it loads or the error after "path:".
    @pytest.mark.parametrize("text, expected", [
        (f"1.0,1,{_TAIL}\n", "1: malformed line '1.0,1,0,0,10,10,1'"),
        (f"1e0,1,{_TAIL}\n", "1: malformed line '1e0,1,0,0,10,10,1'"),
        (f"1_0,1,{_TAIL}\n", [(10, 1)]),
        (f"1,1_0,{_TAIL}\n", [(1, 10)]),
        ("1,1,1_0,0,10,10,1\n", [(1, 1)]),
        ("1,1,0#,0,10,10,1\n", "1: malformed line '1,1,0#,0,10,10,1'"),
        ('1,1,"0",0,10,10,1\n', "1: malformed line '1,1,\"0\",0,10,10,1'"),
        (f"1,1,{_TAIL}\r2,1,{_TAIL}\r", [(1, 1), (2, 1)]),
        (f"1,1,{_TAIL}\x0c2,1,{_TAIL}\n", [(1, 1), (2, 1)]),
        (f"1,1,{_TAIL}\n\n   \n1,1,{_TAIL}\n", "4: identity 1 appears twice in frame 1"),
        (f"1,1,{_TAIL}\n\n1,2,{_TAIL}\n1,1,{_TAIL}\n", "4: identity 1 appears twice in frame 1"),
        (f"1,nan,{_TAIL}\n", "1: malformed line '1,nan,0,0,10,10,1'"),
        (f"1,9223372036854775808,{_TAIL}\n", "1: frame or id outside int64"),
        (f"1,1,{_TAIL}\n1,2,{_TAIL},-1\n2,1,{_TAIL},-1,-1,-1\n", [(1, 1), (1, 2), (2, 1)]),
        ("", []),
        # The first bad line wins, and within a line the conf before the box.
        (f"1,1,{_TAIL}\n2,1,0,0,0,10,1\n3,1,0#,0,10,10,1\n", "2: box extents must be positive, got w=0.0, h=10.0"),
        (f"1,1,{_TAIL}\n2,1,0#,0,10,10,1\n3,1,0,0,0,10,1\n", "2: malformed line '2,1,0#,0,10,10,1'"),
        ("1,1,0,0,0,10,nan\n", "1: conf must be finite, got 'nan'"),
        (f"1,1,{_TAIL}\n2,1,0,0,0,10,1\n3,{2**63},{_TAIL}\n", "2: box extents must be positive, got w=0.0, h=10.0"),
        ("  \t\n1,1,0,0,0,10,1\n", "2: box extents must be positive, got w=0.0, h=10.0"),
    ], ids=["frame_1.0", "frame_1e0", "underscore_frame", "underscore_id", "underscore_float", "hash",
            "quoted", "cr_only", "form_feed", "blank_lines_before_repeat", "empty_line_before_repeat",
            "nan_id", "id_2_63", "7_8_10_fields", "empty_file", "bad_box_then_malformed",
            "malformed_then_bad_box", "nan_conf_and_zero_width", "bad_box_then_id_2_63",
            "whitespace_line_then_bad_box"])
    def test_mot_edge_cases(self, tmp_path, text, expected):
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode())
        loaded, err = _assert_bulk_matches_per_line(load_trajectories, path)
        _assert_bulk_matches_per_line(load_detections, path)
        if isinstance(expected, str):
            assert str(err) == f"{path}:{expected}"
        else:
            assert err is None and [(f, i) for f, i, _ in loaded.records()] == expected

    @pytest.mark.parametrize("text, expected", [
        ("aff 1 2\n1,0,-\n1,1,0.5,1,2\n", [False, True]),
        ("aff 1 2\n1,1,0.5,1,2\n1,0,-\n", [True, False]),
        ("aff 1 2\n1_0,0,-,1,2\n", [True]),
        ("aff 1 2\n1,0,-,1_0,2\n", [True]),
        ("aff 1 2\n1,0,-,1,2\n   \n1,1,-,1,2\n", [True, True]),
        ("aff 1 2\r1,0,-,1,2\r1,1,-,1,2\r", [True, True]),
        ("aff 1 2\x0c1,0,-,1,2\x0c1,1,-,1,2\n", [True, True]),
        ("aff 1 0\n1,0,- \n", [False]),
        ("aff 1 0\n1,0, -\n", "2: malformed line '1,0, -'"),
        ("aff 1 0\n1,0,nan\n", "2: s_mask must be in [0, 1], got 'nan'"),
        ("aff 1 0\n1,0,-\n\n1,0,0.5\n", "4: a second entry for frame 1, candidate 0"),
        ("aff 1 1\n1,0,-,inf\n", "2: embedding contains non-finite entries"),
        ('aff 1 1\n1,0,"-",1\n', "2: malformed line '1,0,\"-\",1'"),
        ("aff 1 1\n1,0,-,1#\n", "2: malformed line '1,0,-,1#'"),
        (f"aff 1 0\n{2**63},0,-\n", "2: frame or candidate outside int64"),
        ("aff 1 3\n\n", []),
    ], ids=["three_then_keyed", "keyed_then_three", "underscore_frame", "underscore_embedding",
            "whitespace_line", "cr_only", "form_feed", "dash_space", "space_dash", "nan_s_mask",
            "repeat_after_empty_line", "inf_embedding", "quoted", "hash", "frame_2_63", "no_entries"])
    def test_sidecar_edge_cases(self, tmp_path, text, expected):
        path = tmp_path / "s.aff"
        path.write_bytes(text.encode())
        side, err = _assert_bulk_matches_per_line(load_sidecar, path)
        if isinstance(expected, str):
            assert str(err) == f"{path}:{expected}"
        else:
            assert err is None and side.has_embedding.tolist() == expected

    def test_per_line_sidecar_sizes_only_the_keyed_rows(self, tmp_path):
        # 2000 three-field entries and one keyed entry of dim 5000 go to the
        # per-line path; a block of every line x dim would be 80 MB.
        aff = tmp_path / "m.aff"
        aff.write_text("aff 1 5000\n" + "".join(f"1,{j},-\n" for j in range(2000)) + "2,0,-" + ",0.5" * 5000 + "\n")
        tracemalloc.start()
        try:
            side = load_sidecar(aff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert side.embeddings.shape == (1, 5000) and side.has_embedding.sum() == 1
        assert peak < 8e6, peak


class TestTrajectorySetAgainstDictSet:
    @settings(max_examples=300, deadline=None)
    @given(_RECORDS, st.integers(1, 8))
    def test_out_of_order_adds(self, records, every):
        new, old = TrajectorySet(), DictTrajectorySet()
        for n, (frame, ident, box) in enumerate(records):
            _new, new_err = _outcome(new.add, frame, ident, box)
            _old, old_err = _outcome(old.add, frame, ident, box)
            assert str(new_err) == str(old_err)
            if n % every == 0:  # reads between adds see each insert
                _assert_same_set(new, old)
        _assert_same_set(new, old)

    @settings(max_examples=200, deadline=None)
    @given(_RECORDS, _RECORDS)
    def test_add_onto_a_loaded_set(self, loaded, added):
        unique = list({(f, i): (f, i, box) for f, i, box in loaded}.values())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traj.txt"
            write_trajectories(path, TrajectorySet.from_records(unique))
            new, old = load_trajectories(path), load_trajectories_oracle(path)
        for frame, ident, box in added:
            _new, new_err = _outcome(new.add, frame, ident, box)
            _old, old_err = _outcome(old.add, frame, ident, box)
            assert str(new_err) == str(old_err)
        _assert_same_set(new, old)

    @settings(max_examples=300, deadline=None)
    @given(_RECORDS)
    def test_from_records_matches_dict_adds(self, records):
        # Records come in random order with repeated keys; from_records must
        # build the set a loop of adds builds, or stop at the same first repeat.
        old, old_err = DictTrajectorySet(), None
        for frame, ident, box in records:
            _old, old_err = _outcome(old.add, frame, ident, box)
            if old_err is not None:
                break
        new, new_err = _outcome(TrajectorySet.from_records, records)
        assert str(new_err) == str(old_err)
        if old_err is None:
            _assert_same_set(new, old)

    def test_columns_reads_have_no_side_effect(self):
        ts = TrajectorySet.from_records([(2, 1, BoundingBox(0, 0, 1, 1)), (1, 4, BoundingBox(1, 1, 2, 2))])
        first, second = ts.columns(), ts.columns()
        for a, b in zip(first, second):
            assert a is b
        assert first[0].tolist() == [1, 2] and first[1].tolist() == [4, 1]

    def test_add_leaves_earlier_columns_unchanged(self):
        ts = TrajectorySet.from_records([(1, 1, BoundingBox(0, 0, 1, 1)), (3, 1, BoundingBox(0, 0, 1, 1))])
        before = ts.columns()
        snapshot = [column.copy() for column in before]
        ts.add(2, 7, BoundingBox(5, 5, 1, 1))
        for column, copy in zip(before, snapshot):
            assert np.array_equal(column, copy)
        assert ts.columns()[0].tolist() == [1, 2, 3] and ts.columns()[1].tolist() == [1, 7, 1]
        with pytest.raises(ValueError, match="identity 7 appears twice in frame 2"):
            ts.add(2, 7, BoundingBox(0, 0, 1, 1))
        assert ts.total_boxes() == 3 and list(ts.records())[1] == (2, 7, BoundingBox(5, 5, 1, 1))

    def test_from_columns_rejects_unsorted_or_repeated_keys(self):
        box = [[0.0, 0.0, 1.0, 1.0]] * 2
        TrajectorySet.from_columns([1, 1], [1, 2], box)
        for frame, ident in [([1, 1], [2, 1]), ([2, 1], [1, 1]), ([1, 1], [3, 3])]:
            with pytest.raises(ValueError, match="sorted"):
                TrajectorySet.from_columns(frame, ident, box)
        with pytest.raises(ValueError, match="lengths"):
            TrajectorySet.from_columns([1], [1, 2], box)

    def test_columns_are_read_only(self):
        ts = TrajectorySet.from_records([(1, 1, BoundingBox(0, 0, 1, 1))])
        for column in ts.columns():
            with pytest.raises(ValueError):
                column[0] = 0


@st.composite
def _scaled_boxes(draw):
    scale = draw(st.sampled_from(_SCALES))
    return [
        BoundingBox(draw(st.floats(-100, 100)) * scale, draw(st.floats(-100, 100)) * scale,
                    draw(st.floats(0.01, 100)) * scale, draw(st.floats(0.01, 100)) * scale)
        for _ in range(draw(st.integers(0, 12)))
    ]


class TestWriteReadWriteRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_scaled_boxes(), st.data())
    def test_trajectories_byte_identical(self, boxes, data):
        keys = data.draw(st.lists(st.tuples(st.integers(1, 50), st.integers(0, 9)),
                                  min_size=len(boxes), max_size=len(boxes), unique=True))
        ts = TrajectorySet.from_records((f, i, box) for (f, i), box in zip(keys, boxes))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
            write_trajectories(first, ts)
            write_trajectories(second, load_trajectories(first))
            assert second.read_bytes() == first.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(_scaled_boxes(), st.integers(0, 3), st.data())
    def test_detections_and_sidecar_byte_identical(self, boxes, dim, data):
        frames: dict[int, list[DetectionCandidate]] = {}
        for box in boxes:
            embedding = None
            if dim and data.draw(st.booleans()):
                embedding = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=dim,
                                                        max_size=dim)))
            frames.setdefault(data.draw(st.integers(1, 5)), []).append(DetectionCandidate(
                box=box,
                s_obj=data.draw(st.floats(0.0, 1.0)),
                s_mask=data.draw(st.none() | st.floats(0.0, 1.0)),
                embedding=embedding,
            ))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
            write_detections(first, frames)
            write_detections(second, load_detections(first))
            assert second.read_bytes() == first.read_bytes()
            assert sidecar_path(first).exists() == sidecar_path(second).exists()
            if sidecar_path(first).exists():
                assert sidecar_path(second).read_bytes() == sidecar_path(first).read_bytes()


class TestWritersRefuseWhatLoadersReject:
    def test_detection_frame_before_1_rejected_before_any_file(self, tmp_path):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        with pytest.raises(ValueError, match="frame 0 is before frame 1"):
            write_detections(tmp_path / "det.txt", {0: [DetectionCandidate(box, 0.9, s_mask=0.5)]})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", [1.5, True, 2**63], ids=["float", "bool", "2**63"])
    def test_frame_key_the_loader_rejects_refused_before_any_file(self, tmp_path, key):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        with pytest.raises(ValueError, match=rf"frame key {key!r} is not an integer below 2\*\*63"):
            write_detections(tmp_path / "det.txt", {key: [DetectionCandidate(box, 0.9, s_mask=0.5)]})
        assert list(tmp_path.iterdir()) == []

    def test_numpy_integer_frame_keys_written(self, tmp_path):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        path = tmp_path / "det.txt"
        write_detections(path, {np.int64(2): [DetectionCandidate(box, 0.9)], np.uint8(5): []})
        assert list(load_detections(path)) == [2]

    def test_unloadable_box_rejected_before_the_file(self, tmp_path):
        with pytest.raises(ValueError, match="frame 1, id 1: box extents must be positive"):
            write_trajectories(tmp_path / "traj.txt", TrajectorySet.from_columns([1], [1], [[0, 0, 0, 1]]))
        assert list(tmp_path.iterdir()) == []

    def test_negative_trajectory_id_rejected_before_the_file(self, tmp_path):
        ts = TrajectorySet.from_records([(1, 2, BoundingBox(0, 0, 1, 1)), (3, -1, BoundingBox(0, 0, 1, 1))])
        with pytest.raises(ValueError, match="frame 3, id -1: a negative id marks a detection line"):
            write_trajectories(tmp_path / "traj.txt", ts)
        assert list(tmp_path.iterdir()) == []


class TestWriteDetectionsAppearance:
    def test_mapping_s_mask_rejected_before_any_file(self, tmp_path):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        frames = {
            2: [DetectionCandidate(box, 0.9, s_mask=0.5)],
            4: [DetectionCandidate(box, 0.9), DetectionCandidate(box, 0.9, s_mask={1: 0.5})],
        }
        path = tmp_path / "det.txt"
        with pytest.raises(ValueError, match="frame 4, candidate 1: a per-track s_mask has no sidecar form"):
            write_detections(path, frames)
        assert list(tmp_path.iterdir()) == []

    def test_numpy_scalar_s_mask_reaches_the_sidecar(self, tmp_path):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        path = tmp_path / "det.txt"
        write_detections(path, [[DetectionCandidate(box, np.float32(0.5), s_mask=np.int64(1))]])
        (loaded,) = load_detections(path)[1]
        assert loaded.s_mask == 1.0 and loaded.s_obj == 0.5

    def test_stale_sidecar_removed_when_no_candidate_has_appearance(self, tmp_path):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        path = tmp_path / "s.txt"
        write_detections(path, [[DetectionCandidate(box, 0.9, s_mask=0.3)]])
        assert sidecar_path(path).exists()
        write_detections(path, [[DetectionCandidate(box, 0.9)]])
        assert not sidecar_path(path).exists()
        (loaded,) = load_detections(path)[1]
        assert loaded.s_mask is None and loaded.embedding is None

    @pytest.mark.parametrize("appearance", [False, True])
    def test_aff_detection_path_rejected_before_any_file(self, tmp_path, appearance):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        path = tmp_path / "s.aff"
        path.write_text("kept\n")
        frames = [[DetectionCandidate(box, 0.9, s_mask=0.3 if appearance else None)]]
        with pytest.raises(ValueError, match=r"ends in \.aff, the sidecar suffix"):
            write_detections(path, frames)
        assert [p.name for p in tmp_path.iterdir()] == ["s.aff"] and path.read_text() == "kept\n"

    def test_mixed_embedding_dims_rejected_before_any_file(self, tmp_path):
        box = BoundingBox(0.0, 0.0, 10.0, 10.0)
        path = tmp_path / "mixed.txt"
        write_detections(path, [[DetectionCandidate(box, 0.5, s_mask=0.25)]])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        frames = [[DetectionCandidate(box, 0.9, embedding=np.ones(2)),
                   DetectionCandidate(box, 0.9, embedding=np.ones(3))]]
        with pytest.raises(ValueError, match="frame 1, candidate 0: embedding dim 2 does not match sidecar dim 3"):
            write_detections(path, frames)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
