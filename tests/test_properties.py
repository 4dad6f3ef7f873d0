"""Property-based checks of the columnar survey and its CSV parser, the
array-backed radiomap and its AP-major layout, the blocked obstruction
counting, the virtual RP lattice, the batched WkNN kernel, the fit's design
matrix, the sweep statistics and the report writer; and fuzzed input files
through ``cli.main``, which must exit 0, 2 or 3.

The oracles are plain per-record Python loops, ``csv.reader`` over the file
(for the survey parser's ``csv_rows``), ``json.dumps`` (for the
radiomap and for ``ioutil.format_json``), the radiomap parsed from its JSON
(for the map read from the lanes file beside it), the survey parsed from its
CSV (for the survey read from the lanes file beside it), for
``crossing_flags_batch`` the per-obstacle loop it replaced (and its
per-family sums for ``crossing_counts_batch``), for ``lattice_positions`` the per-cell loop it
replaced, for ``locate``, ``locate_many`` and
``error_curves``, a per-target loop with the benchmark oracle's semantics and,
for ``fit``, ``np.linalg.lstsq`` on the per-sample rows of
``reference_fit_rows`` (and, for the evaluation's fit of some survey points
on link tables taken from the survey's, ``fit`` on the subset of those
points; for ``LinkTable.take``, a table built on the taken positions) and, for the
report files, the ``asdict`` + ``json.dumps`` and ``csv.writer`` loop of
``reference_report_text`` and, for the sweep and box-plot statistics,
``np.percentile``, ``min`` and ``max``; they do not share code with the array
paths they check.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

import radioloc.cli as cli
import radioloc.fitting as fitting
import radioloc.floorplan as floorplan
import radioloc.ioutil as ioutil
import radioloc.propagation as propagation
import radioloc.radiomap as radiomap
import radioloc.simulator as simulator
from radioloc.errors import (DegenerateFitError, GeometryError, InputError,
                             InsufficientDataError)
from radioloc.evaluation import (
    GainCell,
    GainReport,
    KestCell,
    KestReport,
    PositioningCell,
    PositioningReport,
    PredictionCell,
    PredictionReport,
    _column_stats,
    _SurveyFits,
    boxplot_stats,
    emit_report,
)
from radioloc.fitting import (
    MEASUREMENT_COLUMNS,
    FitStrategy,
    MeasurementRecord,
    MeasurementSet,
    StrategyKind,
    fit,
    load_measurements,
    save_measurements,
)
from radioloc.floorplan import (
    CROSSING_BLOCK,
    GRAZE_EPS_M,
    SWEEP_REACH_M,
    Bounds,
    Floorplan,
    ObstacleFamily,
    PlanarObstacle,
    Point3,
    crossing_counts_batch,
    crossing_flags_batch,
    lattice_positions,
)
from radioloc.positioning import (
    MAX_ORDER,
    SCORE_BLOCK,
    SIMILARITY_CAP,
    PositionEstimate,
    WknnConfig,
    _row_blocks,
    _top_k,
    error_curves,
    locate,
    locate_many,
)
from radioloc.propagation import (
    FREE_SPACE_L0_DB,
    AccessPoint,
    LinkTable,
    ModelKind,
    PropagationParams,
    predict_rss,
)
from radioloc.radiomap import (
    NOT_DETECTED_DBM,
    Fingerprint,
    Radiomap,
    RpArrays,
    RpKind,
    build_real_fingerprints,
    load_radiomap,
    radiomap_from_dict,
    save_radiomap,
)

from conftest import EXACTNESS_PROFILE, EXACTNESS_SCALE
from helpers import (
    csv_path_outcome,
    estimate_bits,
    measurement_set,
    most_scans_per_pair,
    reference_boxplot_stats,
    reference_crossing_flags,
    reference_detected_means,
    reference_fit_rows,
    reference_lattice_positions,
    reference_report_text,
    reference_survey_csv,
    reference_wknn,
    survey_outcome,
    survey_state,
    written_report_pair,
)

# Surveys of up to ~170 shuffled rows are slow to draw on a loaded machine.
SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# The WkNN and report exactness properties, at ten times their examples under
# the exactness profile (tests/conftest.py).
EXACT_SETTINGS = settings(SETTINGS, max_examples=SETTINGS.max_examples * (
    EXACTNESS_SCALE if settings.default is settings.get_profile(EXACTNESS_PROFILE) else 1))

# Plain draws favour short values whose sums are exact; the scaled integers
# use every mantissa bit, so a different summation order shows up.
dbm = (st.floats(min_value=-120.0, max_value=0.0, allow_nan=False)
       | st.integers(1, 2**53).map(lambda k: -120.0 * k / 2**53))
coordinate = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def surveys(draw):
    """Records of a random survey, rows shuffled, more than 8 scans per pair.

    Pairwise summation (``np.mean``, ``np.add.reduce``) departs from a
    sequential sum only past 8 terms, so every (point, AP) pair gets 9-14
    scans; some of them, or all, are not detected.
    """
    n_points = draw(st.integers(1, 4))
    ap_ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=3,
                           unique=True))
    records = []
    for i in range(n_points):
        location = Point3(draw(coordinate), draw(coordinate), draw(coordinate))
        for ap_id in ap_ids:
            n_scans = draw(st.integers(9, 14))
            values = draw(st.lists(st.none() | dbm, min_size=n_scans, max_size=n_scans))
            records += [MeasurementRecord(f"p{i}", location, ap_id, value, s)
                        for s, value in enumerate(values)]
    return draw(st.permutations(records))


def loop_averages(records):
    """Mean detected RSS per (point, AP), summed record by record."""
    sums = {}
    for rec in records:
        if rec.rss_dbm is None:
            continue
        total, count = sums.get((rec.rp_id, rec.ap_id), (0.0, 0))
        sums[(rec.rp_id, rec.ap_id)] = (total + rec.rss_dbm, count + 1)
    return {key: total / count for key, (total, count) in sums.items()}


@SETTINGS
@given(surveys())
def test_averaged_matches_sequential_loop_bit_for_bit(records):
    meas = measurement_set(records)
    expected = loop_averages(records)
    # Points and APs in first-appearance order; every (point, AP) pair the
    # loop averages has the same bits, and every other pair is NaN.
    assert meas.rp_ids() == list(dict.fromkeys(rec.rp_id for rec in records))
    assert meas.ap_ids() == list(dict.fromkeys(rec.ap_id for rec in records))
    means = meas.mean_matrix()
    assert means.shape == (len(meas.rp_ids()), len(meas.ap_ids()))
    got = {(rp_id, ap_id): float(means[i, j]).hex()
           for i, rp_id in enumerate(meas.rp_ids()) for j, ap_id in enumerate(meas.ap_ids())}
    assert set(expected) <= set(got)
    assert got == {key: expected.get(key, math.nan).hex() for key in got}


@SETTINGS
@given(surveys())
def test_real_fingerprints_match_sequential_loop_bit_for_bit(records):
    meas = measurement_set(records)
    aps = [AccessPoint(ap_id, Point3(0.0, 0.0, 9.0)) for ap_id in ("d", "c", "b", "a")]
    expected = loop_averages(records)
    points = list(dict.fromkeys((rec.rp_id, rec.location) for rec in records))
    rps = build_real_fingerprints(meas, aps)
    assert len(rps) == len(points)
    assert not rps.virtual.any()
    assert rps.pos.tolist() == [[p.x, p.y, p.z] for _, p in points]
    for (rp_id, _), row in zip(points, rps.rss.tolist()):
        want = [expected.get((rp_id, ap.id), NOT_DETECTED_DBM) for ap in aps]
        assert [v.hex() for v in row] == [v.hex() for v in want]


@SETTINGS
@given(surveys())
def test_measurement_csv_round_trip(tmp_path_factory, records):
    meas = measurement_set(records)
    path = tmp_path_factory.mktemp("csv") / "meas.csv"
    save_measurements(meas, path)
    loaded = load_measurements(path)
    assert list(loaded.records) == records
    assert loaded.rp_ids() == meas.rp_ids() and loaded.ap_ids() == meas.ap_ids()
    assert most_scans_per_pair(loaded) == most_scans_per_pair(meas)
    for name in ("xyz", "rp_index", "ap_index", "detected", "scan"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(meas, name))
    np.testing.assert_array_equal(loaded.rss, meas.rss)  # NaN where not detected


# Ids that csv.writer quotes, or leaves alone although they look like it might.
CSV_ID_TRAPS = ["a,b", 'say "hi"', '"', "p\rq", "p\nq", "p\r\nq", "\r", " p", "p ", " ",
                "\u00e9t\u00e9", "\u65e5\u672c", "", "ND", "ap01"]


@st.composite
def survey_sets(draw, unique=True):
    """A MeasurementSet with trap ids, coordinates that may be -0.0, points whose
    rows may all be not detected, rows in any order and scan indices up to
    int64's bounds; unless ``unique``, point and AP ids may repeat."""
    ids = st.sampled_from(CSV_ID_TRAPS) | st.text(max_size=4)
    rp_ids = draw(st.lists(ids, min_size=1, max_size=4, unique=unique))
    ap_ids = draw(st.lists(ids, min_size=1, max_size=3, unique=unique))
    n = draw(st.integers(1, 30))
    column = lambda elements: draw(st.lists(elements, min_size=n, max_size=n))
    rp_index = column(st.integers(0, len(rp_ids) - 1))
    undetected = draw(st.sets(st.integers(0, len(rp_ids) - 1)))
    values = [None if i in undetected else v
              for i, v in zip(rp_index, column(st.none() | dbm))]
    xyz = coordinate | st.just(-0.0)
    return MeasurementSet(
        rp_ids, draw(st.lists(st.tuples(xyz, xyz, xyz), min_size=len(rp_ids),
                              max_size=len(rp_ids))),
        ap_ids, rp_index, column(st.integers(0, len(ap_ids) - 1)),
        [math.nan if v is None else v for v in values], [v is not None for v in values],
        column(st.integers(0, 3) | st.integers(-2**63, 2**63 - 1)
               | st.sampled_from([-2**63, 2**63 - 1])))


@pytest.mark.exactness
@EXACT_SETTINGS
@given(survey_sets())
def test_survey_csv_matches_csv_writer(tmp_path_factory, meas):
    path = tmp_path_factory.mktemp("csv") / "meas.csv"
    save_measurements(meas, path)
    with open(path, newline="") as fh:
        assert fh.read() == reference_survey_csv(meas)


def survey_and_subset(path):
    """``survey_state`` of the survey in ``path`` and of its subset of every other
    point, or the message of the InputError its load raises."""
    try:
        meas = load_measurements(path)
    except InputError as exc:
        return f"InputError: {exc}"
    return survey_state(meas), survey_state(meas.subset(range(0, len(meas.rp_ids()), 2)))


@pytest.mark.exactness
@EXACT_SETTINGS
@given(st.booleans().flatmap(survey_sets), survey_sets())
def test_survey_lanes_file_loads_the_parsed_survey(tmp_path_factory, meas, earlier):
    # A survey with repeated ids is written without a lanes file, beside the
    # lanes file of the earlier survey; every other one with its own, which
    # is read without parsing the CSV.
    path = tmp_path_factory.mktemp("survey") / "meas.csv"
    save_measurements(earlier, path)
    save_measurements(meas, path)
    unique = all(len(set(ids)) == len(ids) for ids in (meas.rp_ids(), meas.ap_ids()))
    with (mock.patch.object(fitting, "read_csv", side_effect=AssertionError("parsed"))
          if unique else contextlib.nullcontext()):
        got = survey_and_subset(path)
    ioutil.sidecar_path(path).unlink()
    assert got == survey_and_subset(path)  # from the CSV


# Scans per target around numpy's pairwise-sum block of 8.
TARGET_SCAN_COUNTS = (1, 2, 7, 8, 9, 16, 50)


@st.composite
def target_scans(draw):
    """Target scans (n_tp, L, S) and a detection floor.

    Every entry draws its detected count from 0 to S, some detected scans lie
    exactly at the floor, and the values use every mantissa bit at a
    magnitude drawn across seven decades.
    """
    n_scans = draw(st.sampled_from(TARGET_SCAN_COUNTS))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 4)), n_scans)
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fraction = lambda size=None: rng.integers(1, 2**53, size) / 2**53
    floor = -scale * fraction()
    above = floor - floor * fraction(shape)  # in [floor, 0]
    above[rng.random(shape) < 0.2] = floor
    below = floor - scale * (0.5 + fraction(shape))
    counts = rng.integers(0, n_scans + 1, shape[:2])
    # Each entry's detected scans at random places among its scans.
    detected = rng.random(shape).argsort(axis=2) < counts[:, :, None]
    return np.where(detected, above, below), floor


@pytest.mark.exactness
@EXACT_SETTINGS
@given(target_scans())
def test_target_fingerprints_match_per_target_loop(case):
    scans, floor = case
    means = simulator._detected_means(scans, floor, NOT_DETECTED_DBM)
    expected = reference_detected_means(scans, floor, NOT_DETECTED_DBM)
    assert means.shape == scans.shape[:2]
    assert [[v.hex() for v in row] for row in means.tolist()] == \
        [[v.hex() for v in row] for row in expected]


@pytest.mark.exactness
@pytest.mark.parametrize("preset", ["controlled", "crowdsourcing"])
def test_simulated_targets_match_per_target_loop(monkeypatch, preset):
    world = simulator.make_world("spinv_like", 5)
    rp_positions = simulator.grid_rp_positions(world.plan, 0.1)
    tp_positions = simulator.template_test_positions("spinv_like", 5, world.plan)
    campaign = lambda: simulator.simulate_campaign(world, rp_positions, tp_positions,
                                                   simulator.preset_by_name(preset))[1]
    test_points = campaign()
    monkeypatch.setattr(simulator, "_detected_means",
                        lambda *args: np.array(reference_detected_means(*args)))
    expected = campaign()
    assert [tp.position for tp in test_points] == [tp.position for tp in expected]
    assert [tp.fingerprint.rss.tobytes() for tp in test_points] == \
        [tp.fingerprint.rss.tobytes() for tp in expected]
    assert all(isinstance(tp.fingerprint, Fingerprint) for tp in test_points)


# Survey texts for the CSV parser: each trap is a way a field splitter or a
# number reader could misread one text.
ID_TRAPS = ["a,b", 'say "hi"', "#p", "p#", "q" * 31, "q" * 32, "q" * 33, "q" * 40,
            "00:1a:2b:3c:4d:5e", "p\x0cq", "p\x1cq", "p\u2028q", "p\x85q", "", " p ",
            "p\x00", "ND"]
NUMBER_TRAPS = [" 1.5", "1.5 ", "\t2\t", "1e0", "1E+00", ".5", "5.", "nan", "NaN", "inf",
                "-inf", "-0.0", "0.0", "1e400", "1_0", "\u0663", "0x10", "", " ", "1\x1c",
                "\x1f2", "\x0c2\x0b", "1 2", "+1", "0#", "1\u2028"]
RSS_TRAPS = ["ND", " ND", "ND ", "nd", "-5e1", " -50.5 ", "nan", "inf", "-0.0", "-130",
             "0.5", "-50.0000000000000000001", "-50.00000000000000000001",
             "-00000000000000000000050.5", "-50#", "-5_0", "\u0663", ""]
SCAN_TRAPS = [" 3", "+3", "-1", "1.0", "1e2", "1_0", "12345678901234567890",
              "9223372036854775807", "9223372036854775808", "\u0663", "3\x1c", "0#x",
              " 0\x0c", ""]
LINE_END_TRAPS = ["\r", "\r\r\n", "\n\n", "\r\n\r\n", "\n \n", "\n\x0c\n", "\r\n\x0b\r\n",
                  "\n\t\n", "\n#\n", "\n\x1c\n", "\u2028", "\x0c"]
HEADER_TRAPS = ['"rp_id",x,y,z,ap_id,rss_dbm,scan_index', "rp_id,x,y,z,ap_id,rss_dbm",
                "rp_id,x,y,z,ap_id,rss_dbm,scan_index,",
                "\ufeffrp_id,x,y,z,ap_id,rss_dbm,scan_index",
                "\nrp_id,x,y,z,ap_id,rss_dbm,scan_index", "#rp_id,x,y,z,ap_id,rss_dbm,scan_index"]


def csv_field(value, quote=False):
    """``value`` quoted as csv.writer would, when it must be or ``quote`` is set."""
    if quote or any(char in value for char in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def survey_texts(draw):
    """A survey CSV's text with up to three traps: points with a position each,
    written in equal spellings, APs, scans and one line end throughout, then
    some ids, values, row shapes, line ends or the header replaced by traps."""
    rows = []
    ap_ids = [f"ap{j}" for j in range(draw(st.integers(1, 3)))]
    for i in range(draw(st.integers(1, 3))):
        position = [draw(st.integers(-5, 5).map(float) | coordinate) for _ in range(3)]
        for ap_id in ap_ids:
            for scan in range(draw(st.integers(1, 2))):
                spellings = [draw(st.sampled_from([repr(v), f"{v:.17e}", f" {v!r} ",
                                                   repr(-v) if v == 0 else repr(v)]))
                             for v in position]
                rss = draw(st.just("ND") | dbm.map(repr))
                rows.append([f"p{i}", *spellings, ap_id, rss, str(scan)])
    rows = draw(st.permutations(rows))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [eol] * len(rows) + [draw(st.sampled_from([eol, ""]))]  # after each line
    header = ",".join(MEASUREMENT_COLUMNS)
    quoted = set()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["rp_id", "ap_id", "number", "rss", "scan", "shape",
                                     "end", "width", "comment", "blank", "moved", "header",
                                     "quote"]))
        r = draw(st.integers(0, len(rows) - 1))
        if kind in ("rp_id", "ap_id"):  # every row of that point or AP
            col = 0 if kind == "rp_id" else 4
            old, new = rows[r][col], draw(st.sampled_from(ID_TRAPS))
            for row in rows:
                row[col] = new if row[col] == old else row[col]
        elif kind in ("number", "rss", "scan"):
            col = min({"number": draw(st.integers(1, 3)), "rss": 5, "scan": 6}[kind],
                      len(rows[r]) - 1)  # a shape trap may have cut the row short
            rows[r][col] = draw(st.sampled_from(
                {"number": NUMBER_TRAPS, "rss": RSS_TRAPS, "scan": SCAN_TRAPS}[kind]))
        elif kind == "width":  # longer than a fixed-width field, which would cut it short
            col, value = draw(st.sampled_from([(0, "q" * 33), (4, "a" * 40),
                                               (5, "-00000000000000000000050.5")]))
            rows[r][min(col, len(rows[r]) - 1)] = value
        elif kind == "moved":  # one row of a point elsewhere, which the parser rejects
            rows[r][min(draw(st.integers(1, 3)), len(rows[r]) - 1)] = draw(
                st.sampled_from(["7.25", "-0.0", "nan"]))
        elif kind == "comment":  # a reader that skips "#" comments would drop the row
            rows[r][0] = "#" + rows[r][0]
        elif kind == "blank":  # str.splitlines() ends a line at \x0b, \x0c and \x1c
            ends[r] = eol + draw(st.sampled_from([" ", "\x0b", "\x0c", "\t\x0c", "\x1c"])) + eol
        elif kind == "shape":
            rows[r] = draw(st.sampled_from([rows[r][:-1], rows[r] + ["junk"], rows[r] + [""]]))
        elif kind == "end":
            ends[draw(st.integers(0, len(rows)))] = draw(st.sampled_from(LINE_END_TRAPS))
        elif kind == "header":
            header = draw(st.sampled_from(HEADER_TRAPS))
        else:
            quoted.add((r, draw(st.integers(0, len(rows[r]) - 1))))
    lines = [header] + [",".join(csv_field(field, (r, c) in quoted)
                                 for c, field in enumerate(row)) for r, row in enumerate(rows)]
    return "".join(line + end for line, end in zip(lines, ends))


def file_rows(path):
    """The rows csv.reader gives for the file itself, or None on csv.Error."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [row for row in csv.reader(fh) if row]
    except csv.Error:
        return None


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(survey_texts())
def test_survey_text_loads_or_raises_input_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("survey") / "meas.csv"
    path.write_bytes(text.encode())
    try:
        rows = ioutil.csv_rows(text)
    except csv.Error:
        rows = None
    assert rows == file_rows(path)
    # A survey or an InputError, never another exception; equal to the rows
    # path's.
    outcome = survey_outcome(load_measurements, path)
    event("rejected" if isinstance(outcome, str) else "accepted")
    assert outcome == csv_path_outcome(path)


@st.composite
def rp_arrays(draw, n_aps, kind, shared=(0.0, -0.0), sentinel=NOT_DETECTED_DBM):
    """Up to five points, whose coordinates are often drawn from ``shared``."""
    n = draw(st.integers(0, 5))
    pos = [[draw(coordinate | st.sampled_from(shared)) for _ in range(3)] for _ in range(n)]
    rss = [[draw(st.sampled_from([sentinel, 0.0, -0.0]) | dbm) for _ in range(n_aps)]
           for _ in range(n)]
    if n == 0:
        return RpArrays.empty(n_aps)
    return RpArrays(pos, rss, [kind is RpKind.VIRTUAL] * n)


@st.composite
def radiomaps(draw, sentinels=st.just(NOT_DETECTED_DBM)):
    n_aps = draw(st.integers(1, 3))
    aps = [AccessPoint(f"ap{i}", Point3(draw(coordinate), 0.0, 2.8)) for i in range(n_aps)]
    # Repeated coordinates, with 0.0 and -0.0 among them: their texts differ.
    shared = [0.0, -0.0, *draw(st.lists(coordinate, min_size=1, max_size=2))]
    sentinel = draw(sentinels)
    real = draw(rp_arrays(n_aps, RpKind.REAL, shared, sentinel))
    virtual = draw(rp_arrays(n_aps, RpKind.VIRTUAL, shared, sentinel))
    area = draw(st.none() | st.floats(min_value=1.0, max_value=1e4))
    return Radiomap(aps, real + virtual, area_m2=area, sentinel_dbm=sentinel)


def plain_document(rmap):
    """The radiomap document built point by point, the way json.dumps sees it."""
    doc = {
        "aps": [{"id": ap.id, "x": ap.position.x, "y": ap.position.y, "z": ap.position.z,
                 "eirp_dbm": ap.eirp_dbm} for ap in rmap.aps],
        "sentinel_dbm": rmap.sentinel_dbm,
        "rps": [{"x": x, "y": y, "z": z,
                 "kind": (RpKind.VIRTUAL if virtual else RpKind.REAL).value,
                 "rss": [None if v == rmap.sentinel_dbm else v for v in rss]}
                for (x, y, z), virtual, rss in zip(rmap.rps.pos.tolist(),
                                                   rmap.rps.virtual.tolist(),
                                                   rmap.rps.rss.tolist())],
    }
    if rmap.area_m2 is not None:
        doc["area_m2"] = rmap.area_m2
    return doc


@pytest.mark.exactness
@EXACT_SETTINGS
@given(radiomaps())
def test_radiomap_json_round_trip(tmp_path_factory, rmap):
    path = tmp_path_factory.mktemp("map") / "map.json"
    save_radiomap(rmap, path)
    assert path.read_text() == json.dumps(plain_document(rmap), indent=2) + "\n"
    loaded = load_radiomap(path)
    assert loaded.rps == rmap.rps
    assert loaded.aps == rmap.aps and loaded.area_m2 == rmap.area_m2
    assert (loaded.n_real, loaded.n_virtual) == (rmap.n_real, rmap.n_virtual)


def map_bits(rmap):
    """Every field of ``rmap`` with each float as its bits, so -0.0 differs from 0.0."""
    rps = rmap.rps
    area = None if rmap.area_m2 is None else np.float64(rmap.area_m2).tobytes()
    return (rps.pos.tobytes(), rps.rss.tobytes(), rps.rss.flags.f_contiguous,
            rps.virtual.tobytes(), rmap.aps, np.float64(rmap.sentinel_dbm).tobytes(), area,
            (rmap.n_real, rmap.n_virtual))


# Signed zeros, at and beside a 0.0 or -0.0 sentinel: the radiomap file writes
# null for each entry equal to the sentinel, and reads the sentinel back.
lanes_sentinels = st.sampled_from([NOT_DETECTED_DBM, 0.0, -0.0, -120.0]) | dbm


@pytest.mark.exactness
@EXACT_SETTINGS
@given(radiomaps(lanes_sentinels))
def test_lanes_file_loads_the_parsed_map(tmp_path_factory, rmap):
    path = tmp_path_factory.mktemp("map") / "map.json"
    save_radiomap(rmap, path)
    want = map_bits(radiomap_from_dict(json.loads(path.read_text())))
    with mock.patch.object(radiomap, "read_json", side_effect=AssertionError("parsed")):
        assert map_bits(load_radiomap(path)) == want  # from the lanes file
    ioutil.sidecar_path(path).unlink()
    assert map_bits(load_radiomap(path)) == want  # from the JSON


# Floats at the edges of repr's formats: subnormals, the switch to exponent form
# at 1e16 and 1e-5 (and their neighbours), signed zero and the non-finite values
# json writes as NaN and Infinity.
edge_floats = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e16,
    9999999999999998.0, 1.0000000000000002e16, 1e-5, 9.999999999999999e-06, 0.0001,
    1e22, -1.7976931348623157e308, 0.1, 3.0])
json_numbers = st.floats() | edge_floats | st.integers() | st.integers(-2**70, 2**70)
json_text = st.text() | st.sampled_from([
    "", ", ", "a, b", '"', "\\", "\x00\x1f\x7f", "\u2028", "é", "\U0001f600", "[1, 2]"])
json_scalars = json_numbers | st.booleans() | st.none() | json_text
json_docs = st.recursive(
    json_scalars,
    lambda children: (st.lists(children, max_size=6)
                      | st.lists(json_numbers, max_size=12)
                      | st.tuples(json_numbers, json_numbers)
                      | st.dictionaries(json_text, children, max_size=5)),
    max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(json_text, json_docs) | st.lists(json_docs))
def test_format_json_equals_json_dumps_indent_2(doc):
    assert ioutil.format_json(doc) == json.dumps(doc, indent=2)


# Report numbers: the edge floats, ints beside equal floats (1 and 1.0), and
# zeros, which make a gain infinite or NaN.
report_numbers = edge_floats | st.floats() | st.integers(-3, 3) | st.sampled_from([1, 1.0])


def cdf_samples(min_size=0):
    """Samples a CDF is drawn from: floats only, whose texts the CDF reuses, long
    enough for an unstable sort to show (ties, -0.0 beside 0.0, NaN), or mixed."""
    return (st.lists(edge_floats | st.floats(), min_size=min_size, max_size=40)
            | st.lists(report_numbers, min_size=min_size, max_size=8))


report_text = json_text | st.sampled_from(['a,"b"', "x\ny", "r\r", "environment"])
cell_error = st.none() | report_text
d_values = st.sampled_from([0.0, 1.0, 2.5, None]).flatmap(
    lambda d: report_numbers if d is None else st.just(d))
k_values = st.lists(st.integers(1, 5) | st.sampled_from([1.0, 3.0]), max_size=6)


@st.composite
def positioning_cell(draw, d_real, d_virtual):
    error = draw(st.sampled_from([None] * 5 + ["failed", 'a,"b"\r\n']))
    ks = [] if error else draw(k_values)
    column = st.lists(report_numbers, min_size=len(ks), max_size=len(ks))
    # One cell in twenty has no errors to box, which fails the JSON.
    n_errors = draw(st.sampled_from([0] + [1] * 19))
    return PositioningCell(
        d_real, d_virtual, draw(st.integers(0, 50)), draw(st.integers(0, 50)),
        ks, *(draw(column) for _ in range(6)), draw(st.integers(0, 5)),
        draw(cdf_samples(n_errors)), error=error)


@st.composite
def positioning_cells(draw):
    """Cells in groups that share a d_real, most groups with a d_virtual = 0
    baseline, in any order."""
    cells = []
    for dr in draw(st.lists(d_values, max_size=3)):
        baseline = [0.0] * draw(st.sampled_from([0, 1, 1, 1]))
        virtual = draw(st.lists(d_values, min_size=1, max_size=3))
        cells += [draw(positioning_cell(dr, dv)) for dv in baseline + virtual]
    return draw(st.permutations(cells))


def prediction_cells():
    deltas = st.dictionaries(report_text, cdf_samples(), max_size=3)
    return st.builds(PredictionCell, report_numbers, report_text, report_text,
                     st.integers(0, 99), st.integers(0, 99), report_numbers,
                     st.dictionaries(report_text, report_numbers, max_size=3), deltas,
                     error=cell_error)


reports = (
    st.builds(PositioningReport, report_text, report_text, report_text,
              positioning_cells())
    | st.builds(PredictionReport, st.lists(prediction_cells(), max_size=4))
    | st.builds(GainReport, report_text, st.lists(st.builds(
        GainCell, d_values, d_values, st.integers(0, 9), st.integers(0, 9), report_numbers),
        max_size=4))
    | st.builds(KestReport, st.lists(st.builds(
        KestCell, d_values, d_values, report_numbers, st.integers(0, 9), st.integers(0, 9),
        report_numbers, report_numbers, report_numbers), max_size=4)))


def _reference_outcome(report, fmt):
    """The reference text in ``fmt``, or the type of the exception it raises."""
    try:
        return reference_report_text(report, fmt)
    except Exception as exc:  # e.g. a zero mean error under a gain, or no errors to box
        return type(exc)


@pytest.mark.exactness
@EXACT_SETTINGS
@given(reports)
def test_report_pair_equals_reference_writer(report):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # quartiles of infinities
        expected = {fmt: _reference_outcome(report, fmt) for fmt in ("csv", "json")}
        failures = {v for v in expected.values() if isinstance(v, type)}
        event(f"{type(report).__name__}: "
              + (", ".join(sorted(f.__name__ for f in failures)) or "written"))
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            if failures:
                with pytest.raises(tuple(failures)):
                    written_report_pair(report, directory)
                assert list(directory.iterdir()) == []  # neither file nor a temp file
            else:
                assert written_report_pair(report, directory) == (expected["csv"],
                                                                   expected["json"])
            for fmt, want in expected.items():  # the one-file form renders both too
                path = directory / f"one.{fmt}"
                if failures:
                    with pytest.raises(tuple(failures)):
                        emit_report(report, path, fmt=fmt)
                    assert not path.exists()
                else:
                    emit_report(report, path, fmt=fmt)
                    assert path.read_bytes().decode() == want


@st.composite
def column_samples(draw):
    """(T, K) finite arrays for the sweep statistics, T in {1, 2, 3, 80}.

    Columns take a few levels, so ties are heavy, or continuous values. The
    levels hold one zero, 0.0 or -0.0: numpy leaves unspecified which of two
    equal zeros of different sign its partition puts at an index."""
    t = draw(st.sampled_from([1, 2, 3, 80]))
    k = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.uniform(0.0, draw(st.sampled_from([1e-300, 1.0, 1e300])), (t, k))
    zero = draw(st.sampled_from([0.0, -0.0]))
    levels = draw(st.lists(st.floats(0.0, 1e3, exclude_min=True), min_size=1, max_size=3))
    return rng.choice(np.array([zero, *levels]), (t, k))


@pytest.mark.exactness
@EXACT_SETTINGS
@given(column_samples())
def test_column_stats_equal_numpy_bit_for_bit(curves):
    quartiles, lows, highs = _column_stats(curves)
    want = np.percentile(curves, [25, 50, 75], axis=0)
    assert quartiles.shape == want.shape
    assert quartiles.tobytes() == want.tobytes()
    assert lows.tobytes() == curves.min(axis=0).tobytes()
    assert highs.tobytes() == curves.max(axis=0).tobytes()


@st.composite
def box_samples(draw):
    """Samples of 1-80 values from a few levels, ties heavy, or continuous; the
    levels may hold an infinity or NaN, and one zero, 0.0 or -0.0 (which of
    two equal zeros of different sign a statistic takes is unspecified)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 80]))
    if draw(st.booleans()):
        return rng.uniform(0.0, draw(st.sampled_from([1e-300, 1.0, 1e300])), n)
    nonzero = st.floats(-1e3, 1e3).map(lambda v: v or 0.5)
    levels = draw(st.lists(nonzero | st.sampled_from([math.inf, -math.inf, math.nan]),
                           min_size=1, max_size=4))
    levels.append(draw(st.sampled_from([0.0, -0.0])))
    return rng.choice(np.array(levels), n).tolist()


@pytest.mark.exactness
@EXACT_SETTINGS
@given(box_samples())
def test_boxplot_stats_equal_percentile_form(values):
    """boxplot_stats, from one sort, equals the np.percentile, min and max form
    bit for bit, outliers included."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # quartiles of infinities
        got, want = boxplot_stats(values), reference_boxplot_stats(values)
    assert list(got) == list(want)
    assert {k: np.array(v).tobytes() for k, v in got.items()} == {
        k: np.array(v).tobytes() for k, v in want.items()}


@pytest.mark.exactness
@EXACT_SETTINGS
@given(st.integers(1, 12).flatmap(lambda n_aps: rp_arrays(n_aps, RpKind.REAL)), st.data())
def test_rp_arrays_keep_ap_lanes(rps, data):
    """Every RpArrays made from another stores its fingerprints AP-major,
    read-only, with the rows numpy indexing gives."""
    n = len(rps)
    index = data.draw(st.lists(st.integers(0, max(0, n - 1)), max_size=6) if n else st.just([]))
    step = data.draw(st.sampled_from([1, 2, 3, -1]))
    parts = [(rps[index], index), (rps[::step], slice(None, None, step)),
             (rps[1:], slice(1, None)), (rps + rps[::step], None)]
    for part, key in parts:
        assert not part.rss.flags.writeable and part.rss.T.flags.c_contiguous
        want = (np.concatenate([rps.rss, rps.rss[::step]]) if key is None
                else np.ascontiguousarray(rps.rss)[key])
        assert part.rss.tolist() == want.tolist()


@SETTINGS
@given(st.integers(1, 3).flatmap(
    lambda n_aps: st.tuples(rp_arrays(n_aps, RpKind.REAL), rp_arrays(n_aps, RpKind.VIRTUAL))))
def test_concatenation_keeps_order_and_kinds(pair):
    real, virtual = pair
    combined = real + virtual
    assert len(combined) == len(real) + len(virtual)
    assert combined.virtual.tolist() == [False] * len(real) + [True] * len(virtual)
    assert combined.pos.tolist() == real.pos.tolist() + virtual.pos.tolist()
    assert combined.rss.tolist() == real.rss.tolist() + virtual.rss.tolist()
    assert (combined.n_real, combined.n_virtual) == (len(real), len(virtual))
    assert combined.n_aps == real.n_aps


# Obstacles, transmitters and many receivers lie on a half-meter lattice, so
# links through obstacle endpoints and along obstacle lines occur often; the
# story heights put links within one story, across floor planes and exactly
# on a plane.
HEIGHTS = (1.2, 3.0, 4.2, 7.2)


def half_meters(limit):
    return st.integers(0, 2 * limit).map(lambda k: k / 2)


@st.composite
def obstacle_scenes(draw, n_obstacles):
    """(plan, tx, rx_seed): a 1-3 story plan with ``n_obstacles`` lattice obstacles."""
    w, h = draw(st.integers(4, 12)), draw(st.integers(4, 12))
    floors = draw(st.sampled_from([(), (3.0,), (3.0, 6.0)]))
    obstacles = []
    for _ in range(n_obstacles):
        ends = draw(st.tuples(half_meters(w), half_meters(h), half_meters(w), half_meters(h))
                    .filter(lambda e: e[:2] != e[2:]))
        obstacles.append(PlanarObstacle(
            *ends, floor_index=draw(st.integers(0, len(floors))),
            family=draw(st.sampled_from(ObstacleFamily))))
    plan = Floorplan(Bounds(0.0, 0.0, float(w), float(h)), floors, tuple(obstacles))
    if obstacles and draw(st.booleans()):
        # On an obstacle's line, one obstacle length before it: collinear links.
        o = obstacles[draw(st.integers(0, len(obstacles) - 1))]
        tx_xy = (2 * o.x1 - o.x2, 2 * o.y1 - o.y2)
    else:
        tx_xy = (draw(half_meters(w)), draw(half_meters(h)))
    tx = Point3(*tx_xy, draw(st.sampled_from(HEIGHTS)))
    return plan, tx, draw(st.integers(0, 2**32 - 1))


def scene_receivers(plan, tx, n, seed):
    """n receivers mixing uniform points, lattice points, obstacle endpoints,
    points on obstacle lines and on the tx-endpoint lines, and tx's own xy."""
    rng = np.random.default_rng(seed)
    b = plan.bounds
    special = [(tx.x, tx.y)]
    for o in plan.obstacles:
        special += [(o.x1, o.y1), (o.x2, o.y2), (0.5 * (o.x1 + o.x2), 0.5 * (o.y1 + o.y2)),
                    (2 * o.x2 - o.x1, 2 * o.y2 - o.y1),
                    (2 * o.x1 - tx.x, 2 * o.y1 - tx.y)]
    special = np.array(special)
    uniform = np.column_stack([rng.uniform(b.min_x, b.max_x, n), rng.uniform(b.min_y, b.max_y, n)])
    lattice = np.column_stack([rng.integers(0, 2 * b.max_x + 1, n),
                               rng.integers(0, 2 * b.max_y + 1, n)]) / 2
    picked = special[rng.integers(0, len(special), n)]
    kind = rng.integers(0, 3, n)[:, None]
    xy = np.where(kind == 0, uniform, np.where(kind == 1, lattice, picked))
    return np.column_stack([xy, rng.choice(HEIGHTS, n)])


def assert_matches_reference(plan, tx, pts):
    got = crossing_flags_batch(plan, tx, pts)
    assert got.dtype == bool and got.shape == (pts.shape[0], len(plan.obstacles))
    np.testing.assert_array_equal(got, reference_crossing_flags(plan, tx, pts))


# Receiver counts around CROSSING_BLOCK: one chunk of candidate pairs (n = 0,
# 1), and wedges of more receivers than a chunk holds, cut by chunk ends.
@SETTINGS
@given(st.sampled_from([0, 1, CROSSING_BLOCK - 1, CROSSING_BLOCK, CROSSING_BLOCK + 1,
                        3 * CROSSING_BLOCK + 7]),
       st.integers(0, 12).flatmap(obstacle_scenes))
def test_crossing_flags_match_per_obstacle_loop(n, scene):
    plan, tx, seed = scene
    assert_matches_reference(plan, tx, scene_receivers(plan, tx, n, seed))


# Counts summed over chunks of one candidate pair, of a few, and of the
# default size, on plans of one to three stories.
@pytest.mark.exactness
@EXACT_SETTINGS
@given(st.integers(0, 200), st.sampled_from([1, 3, CROSSING_BLOCK]),
       st.integers(0, 12).flatmap(obstacle_scenes))
def test_crossing_counts_match_per_obstacle_loop(n, chunk, scene):
    plan, tx, seed = scene
    pts = scene_receivers(plan, tx, n, seed)
    with mock.patch.object(floorplan, "CROSSING_BLOCK", chunk):
        counts, floors = crossing_counts_batch(plan, tx, pts)
    flags = reference_crossing_flags(plan, tx, pts)
    assert list(counts) == plan.obstacle_keys()
    for key, got in counts.items():
        columns = [j for j, o in enumerate(plan.obstacles) if o.family == key]
        assert got.shape == (n,)
        assert got.tolist() == flags[:, columns].sum(axis=1).tolist()
    assert floors.tolist() == [sum(min(z, tx.z) < f < max(z, tx.z) for f in plan.floors)
                               for z in pts[:, 2].tolist()]


# Chunk sizes against the candidate pairs of obstacle counts around them: with
# one pair per chunk every range end is a chunk end; with a few, chunk ends
# fall inside ranges, at their ends and among empty ranges, and the last chunk
# is short or full.
@SETTINGS
@given(st.sampled_from([1, 2, 3, 5, 8]).flatmap(lambda chunk: st.tuples(
    st.just(chunk), st.integers(0, 64),
    st.sampled_from([chunk - 1, chunk, chunk + 1, 3 * chunk + 7]).flatmap(obstacle_scenes))))
def test_crossing_flags_match_per_obstacle_loop_across_obstacle_blocks(case):
    chunk, n, (plan, tx, seed) = case
    with mock.patch.object(floorplan, "CROSSING_BLOCK", chunk):
        assert_matches_reference(plan, tx, scene_receivers(plan, tx, n, seed))


# Lattices of any size on plans from square to a million times wider than
# deep, so that both the divisor pairs and the aspect-matched fallback occur.
@SETTINGS
@given(st.integers(1, 3000) | st.sampled_from([4500, 5040, 5112, 65536, 720720]),
       st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_lattice_positions_match_loop(n, min_x, min_y, width, height):
    bounds = Bounds(min_x, min_y, min_x + width, min_y + height)
    got = lattice_positions(bounds, n)
    want = np.array(reference_lattice_positions(bounds, n), dtype=float)
    assert got.dtype == want.dtype and got.shape == (n, 2)
    assert got.tobytes() == want.tobytes()


@st.composite
def sweep_edge_scenes(draw):
    """(plan, tx, rx_xyz) at the edges of the angular sweep.

    Obstacles lie behind tx across the +-pi seam of its azimuths, pass
    through tx or end at it, or pass beside it at offsets from below the
    grazing tolerance up, so that their wedge spans a half turn within
    rounding or a little less. Receivers lie on the seam (on the azimuth pi,
    on -pi via a -0.0 offset, and just off it), on the rays through
    obstacle ends, several to a ray, and as in ``scene_receivers``.
    """
    plan, tx, seed = draw(st.integers(0, 6).flatmap(obstacle_scenes))
    w, h = plan.bounds.max_x, plan.bounds.max_y
    offsets = st.sampled_from([0.0, 1e-15, 1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-6, 0.5])
    extra = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["behind", "through", "beside"]))
        if kind == "behind":  # crosses the ray from tx towards -x
            x = tx.x - draw(st.floats(0.25, 4.0))
            ends = (x, tx.y - draw(st.floats(0.0, 3.0)), x + draw(st.floats(-1.0, 1.0)),
                    tx.y + draw(st.floats(0.0, 3.0)))
        else:
            angle = draw(st.floats(-math.pi, math.pi))
            dx, dy = math.cos(angle), math.sin(angle)
            back, ahead = (draw(st.floats(0.0, 5.0)) for _ in range(2))
            side = draw(offsets) * draw(st.sampled_from([-1.0, 1.0]))
            if kind == "through":
                side = 0.0
            ends = (tx.x - back * dx - side * dy, tx.y - back * dy + side * dx,
                    tx.x + ahead * dx - side * dy, tx.y + ahead * dy + side * dx)
        assume(ends[:2] != ends[2:])
        extra.append(PlanarObstacle(*ends, floor_index=draw(st.integers(0, len(plan.floors)))))
    plan = Floorplan(plan.bounds, plan.floors, plan.obstacles + tuple(extra))

    rng = np.random.default_rng(seed)
    k = 24
    behind = tx.x - rng.uniform(0.0, w + 1.0, k)
    seam_y = tx.y + rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e-15, -1e-15, 1e-9, -1e-9], k)
    if tx.y == 0.0:  # -0.0 - 0.0 is -0.0, whose azimuth behind tx is -pi
        seam_y[:4] = -0.0
    rays = []
    for o in plan.obstacles:
        for ex, ey in ((o.x1, o.y1), (o.x2, o.y2)):
            for t in (0.25, 0.5, 1.0, 2.0, 3.0):
                rays.append((tx.x + t * (ex - tx.x), tx.y + t * (ey - tx.y)))
    xy = np.concatenate([np.column_stack([behind, seam_y]), np.array(rays).reshape(-1, 2),
                         scene_receivers(plan, tx, k, seed)[:, :2]])
    return plan, tx, np.column_stack([xy, rng.choice(HEIGHTS, len(xy))])


@SETTINGS
@given(sweep_edge_scenes())
def test_crossing_flags_match_per_obstacle_loop_at_sweep_edges(scene):
    assert_matches_reference(*scene)


# Scenes 1e3 to 1e10 m across. Each obstacle runs from far away to near tx,
# which lies within 1e-7 m of its line, and receivers crowd its near end:
# beyond SWEEP_REACH_M, rounding makes the test flag links outside their
# obstacle's wedge.
@SETTINGS
@given(st.floats(3.0, 10.0), st.integers(0, 2**32 - 1))
def test_crossing_flags_match_per_obstacle_loop_far_from_tx(log10_size, seed):
    rng = np.random.default_rng(seed)
    size = 10.0**log10_size
    angle = rng.uniform(-math.pi, math.pi, 10)
    heading = np.column_stack([np.cos(angle), np.sin(angle)])
    far = size * heading
    near = (-heading * 10.0**rng.uniform(-4, 1, (10, 1))
            + rng.normal(size=(10, 2)) * 10.0**rng.uniform(-9, -7, (10, 1)))
    plan = Floorplan(Bounds(-2 * size, -2 * size, 2 * size, 2 * size), (),
                     tuple(PlanarObstacle(*f, *e) for f, e in zip(far, near)))
    tx = Point3(0.0, 0.0, 1.2)
    crowd = (np.repeat(near, 20, axis=0)
             + rng.normal(size=(200, 2)) * 10.0**rng.uniform(-9, -3, (200, 1)))
    radius, azimuth = 10.0**rng.uniform(-8, log10_size, 50), rng.uniform(-math.pi, math.pi, 50)
    xy = np.concatenate([crowd, np.column_stack([radius * np.cos(azimuth),
                                                 radius * np.sin(azimuth)])])
    assert_matches_reference(plan, tx, np.column_stack([xy, np.full(len(xy), 1.2)]))


# Scenes just within SWEEP_REACH_M, where the grazing margins leave a flagged
# link only a few units in the last place of pi inside its obstacle's wedge.
# Edge scenes put receivers just past the margin from obstacles' far ends;
# half turn scenes put tx just beside obstacles' lines, between their ends,
# and receivers across the lines.
@st.composite
def near_reach_scenes(draw):
    """(plan, tx, rx_xyz) whose links and obstacle ends reach less than SWEEP_REACH_M."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = SWEEP_REACH_M
    edge = draw(st.booleans())
    obstacles, xy = [], []
    for _ in range(8):
        heading = rng.uniform(-math.pi, math.pi) if rng.random() < 0.5 else math.pi
        along = np.array([math.cos(heading), math.sin(heading)])
        if edge:  # far end c, the wedge turning by `turn` from it
            dist = size * rng.uniform(0.2, 0.3)
            turn = rng.choice([-1.0, 1.0]) * 10.0**rng.uniform(-6, 0)
            c = dist * along
            d = dist * rng.uniform(0.5, 1.0) * np.array([math.cos(heading + turn),
                                                         math.sin(heading + turn)])
            past = heading + math.copysign(GRAZE_EPS_M / dist, turn) * rng.uniform(1.0, 4.0, 20)
            reach = 2 * dist * rng.uniform(1.0, 1.1, 20)
            xy.append(np.column_stack([reach * np.cos(past), reach * np.sin(past)]))
        else:  # tx within a few grazing tolerances of the line
            side = GRAZE_EPS_M * rng.uniform(1.0, 3.0) * rng.choice([-1.0, 1.0])
            normal = np.array([-along[1], along[0]])
            c = -size * rng.uniform(0.5, 0.99) * along + side * normal
            d = size * rng.uniform(0.5, 0.99) * along + side * normal
            across = np.sign(side) * 10.0**rng.uniform(-6, 1, 20)
            xy.append(np.outer(across, normal)
                      + np.outer(rng.normal(size=20) * 10.0**rng.uniform(-9, 0, 20), along))
        obstacles.append(PlanarObstacle(*c, *d))
    xy = np.concatenate(xy)
    ends = np.array([(o.x1, o.y1, o.x2, o.y2) for o in obstacles]).reshape(-1, 2)
    assert np.hypot(*xy.T).max() + np.hypot(*ends.T).max() < SWEEP_REACH_M
    plan = Floorplan(Bounds(-size, -size, size, size), (), tuple(obstacles))
    return plan, Point3(0.0, 0.0, 1.2), np.column_stack([xy, np.full(len(xy), 1.2)])


def arctan2_off_by_ulps(seed, ulps):
    """np.arctan2 with each result moved by up to ``ulps`` units in its last place."""
    exact, rng = np.arctan2, np.random.default_rng(seed)

    def arctan2(y, x):
        theta = exact(y, x)
        return theta + rng.integers(-ulps, ulps + 1, np.shape(theta)) * np.spacing(theta)
    return arctan2


# The wedges are widened, and a wedge within rounding of a half turn takes
# every receiver, so the flags do not depend on arctan2's last bits.
@SETTINGS
@given(near_reach_scenes(), st.integers(0, 2**32 - 1))
def test_crossing_flags_match_per_obstacle_loop_with_arctan2_off_by_ulps(scene, seed):
    with mock.patch.object(np, "arctan2", arctan2_off_by_ulps(seed, 8)):
        assert_matches_reference(*scene)


# Links that pass an obstacle end at 0.01 to 10 grazing tolerances, on the
# obstacle's side of the end and beyond its line: those within a tolerance
# graze the end and cross nothing, the others cross. Their azimuths lie just
# inside the obstacle's wedge, where the sweep must still run the link-line
# test; half the examples move arctan2's results by up to 8 units in the last
# place.
@SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_crossing_flags_match_per_obstacle_loop_beside_obstacle_ends(seed, off_by_ulps):
    rng = np.random.default_rng(seed)
    obstacles, xy = [], []
    for _ in range(6):
        c, d = rng.uniform(-20.0, 20.0, (2, 2)) * 10.0**rng.uniform(-2, 0, (2, 1))
        obstacles.append(PlanarObstacle(*c, *d))
        for end, other in ((c, d), (d, c)):
            dist, heading = math.hypot(*end), math.atan2(end[1], end[0])
            toward = math.copysign(1.0, end[0] * other[1] - end[1] * other[0])
            turn = heading + toward * GRAZE_EPS_M / dist * 10.0**rng.uniform(-2, 1, 8)
            reach = dist * rng.uniform(1.5, 4.0, 8)
            xy.append(np.column_stack([reach * np.cos(turn), reach * np.sin(turn)]))
    xy = np.concatenate(xy)
    plan = Floorplan(Bounds(-100.0, -100.0, 100.0, 100.0), (), tuple(obstacles))
    pts = np.column_stack([xy, np.full(len(xy), 1.2)])
    with (mock.patch.object(np, "arctan2", arctan2_off_by_ulps(seed, 8)) if off_by_ulps
          else contextlib.nullcontext()):
        assert_matches_reference(plan, Point3(0.0, 0.0, 1.2), pts)


# Map sizes: 1-3 RPs with 9-12 APs (a lone RP makes the AP axis the innermost
# axis of the distance temporary, which numpy would sum pairwise past 8
# entries); and maps sized to give row blocks of 1-8 or 160-820 targets.
@st.composite
def wknn_cases(draw):
    """(rss, positions, targets, truth, k, order) for one WkNN batch.

    Fingerprints take a few levels in a narrow dBm range, integer or in
    0.1 dB steps, so similarities tie often, also at the k-th place; or
    continuous values, where the order of the AP sums shows. Up to 12 APs
    take the sum past numpy's 8-way unrolled pairwise summation, which would
    reorder it. Some RP rows are duplicated and some targets copy an RP row,
    so the cap applies, possibly to several RPs at once. Some RP coordinates
    are +0.0 or -0.0, some axes all of them, so an estimate can be a zero
    whose sign only the order of its sum fixes. The batch size sits around
    the row block the map size gives.
    """
    if draw(st.booleans()):
        n_aps = draw(st.integers(9, 12))
        n = draw(st.integers(1, 3))
        n_targets = draw(st.integers(1, 3))
    else:
        n_aps = draw(st.integers(1, 12))
        per_block = draw(st.sampled_from([1, 2, 3, 5, 8]) | st.integers(160, 820))
        n = SCORE_BLOCK // (per_block * n_aps)
        block = SCORE_BLOCK // (n * n_aps)
        n_targets = draw(st.sampled_from([0, 1, block - 1, block, block + 1]))
    k = draw(st.sampled_from(sorted({k for k in (1, 2, n - 1, n) if 1 <= k <= n})))
    order = draw(st.sampled_from([1.0, 2.0, 3.0]))
    step = draw(st.sampled_from([1.0, 0.1, None]))
    low = draw(st.integers(-100, -40))
    levels = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def fingerprints(rows):
        if step is None:
            return rng.uniform(low, low + levels, (rows, n_aps))
        return np.round(low + step * rng.integers(0, levels, (rows, n_aps)), 1)

    rss = fingerprints(n)
    copies = rng.random(n) < 0.2
    rss[copies] = rss[rng.integers(0, n, copies.sum())]
    targets = fingerprints(n_targets)
    exact = rng.random(n_targets) < 0.3
    targets[exact] = rss[rng.integers(0, n, exact.sum())]
    positions = rng.uniform(0.0, 60.0, (n, 3))
    zeros = (rng.random((n, 3)) < 0.2) | (rng.random(3) < 0.3)
    positions[zeros] = rng.choice([0.0, -0.0], np.count_nonzero(zeros))
    truth = rng.uniform(0.0, 60.0, (n_targets, 3))
    return rss, positions, targets, truth, k, order


def dense_map(rss, positions):
    aps = [AccessPoint(f"ap{i}", Point3(float(i), 0.0, 2.8)) for i in range(rss.shape[1])]
    return Radiomap(aps, RpArrays(positions, rss, np.zeros(len(rss), dtype=bool)))


@pytest.mark.exactness
@EXACT_SETTINGS
@given(wknn_cases())
def test_locate_and_locate_many_match_per_target_loop(case):
    rss, positions, targets, _, k, order = case
    rmap = dense_map(rss, positions)
    cfg = WknnConfig(k=k, order=order)
    reference = reference_wknn(rss, positions, targets, k, order)
    want = [PositionEstimate(Point3(*estimates[k - 1]), np.array(ranked), sims[ranked])
            for estimates, ranked, sims in reference]
    want_neighbors = [[(i, float(sims[i])) for i in ranked] for _, ranked, sims in reference]
    for got in (locate_many(rmap, targets, cfg),
                [locate(rmap, Fingerprint(t), cfg) for t in targets]):
        assert got == want
        assert estimate_bits(got) == estimate_bits(want)
        assert [e.neighbors for e in got] == want_neighbors


def batch_and_loop(rmap, targets, cfg):
    """``locate_many``'s estimates of ``targets``, then per-row ``locate``'s."""
    return [*locate_many(rmap, targets, cfg),
            *(locate(rmap, Fingerprint(t), cfg) for t in targets)]


@pytest.mark.exactness
@EXACT_SETTINGS
@given(wknn_cases())
def test_estimate_arrays_are_read_only_and_neighbors_match_them(case):
    rss, positions, targets, _, k, order = case
    for est in batch_and_loop(dense_map(rss, positions), targets, WknnConfig(k=k, order=order)):
        assert est.indices.shape == est.similarities.shape == (k,)
        assert est.indices.dtype.kind == "i" and est.similarities.dtype == np.float64
        for values in (est.indices, est.similarities):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = values[-1]
            with pytest.raises(ValueError):
                values.flags.writeable = True
        pairs = est.neighbors
        assert all(type(i) is int and type(s) is float for i, s in pairs)
        assert [i for i, _ in pairs] == est.indices.tolist()
        assert (np.array([s for _, s in pairs]).view(np.int64).tolist()
                == est.similarities.view(np.int64).tolist())
        pairs.clear()  # a caller's list: the next read builds a new one
        assert len(est.neighbors) == k


estimate_fields = st.tuples(
    st.sampled_from([Point3(1.0, 2.0, 3.0), Point3(1.0, 2.0, 4.0)]),
    st.integers(1, 3).flatmap(lambda k: st.tuples(
        st.lists(st.integers(0, 2), min_size=k, max_size=k),
        st.lists(st.sampled_from([1.0, 2.0, math.nextafter(2.0, 3.0)]),
                 min_size=k, max_size=k))))


@pytest.mark.exactness
@EXACT_SETTINGS
@given(estimate_fields, estimate_fields)
def test_estimates_equal_exactly_when_their_fields_do(a, b):
    (pa, (ia, sa)), (pb, (ib, sb)) = a, b
    ea = PositionEstimate(pa, np.array(ia), np.array(sa))
    eb = PositionEstimate(pb, np.array(ib), np.array(sb))
    same = pa == pb and ia == ib and sa == sb
    assert (ea == eb) is same and (ea != eb) is not same
    assert ea == PositionEstimate(pa, np.array(ia), np.array(sa))
    assert ea != (pa, ia, sa)


@pytest.mark.exactness
@EXACT_SETTINGS
@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_locate_many_across_row_blocks_matches_locate(n_aps, per_block, seed, data):
    n = SCORE_BLOCK // (per_block * n_aps)
    block = SCORE_BLOCK // (n * n_aps)
    n_targets = data.draw(st.integers(block + 1, 3 * block + 1))
    assert len(list(_row_blocks(n_targets, n, n_aps))) >= 2
    k = data.draw(st.sampled_from(sorted({k for k in (1, 2, n - 1, n) if k >= 1})))
    rng = np.random.default_rng(seed)
    rss = np.round(rng.uniform(-90.0, -40.0, (n, n_aps)))
    targets = np.round(rng.uniform(-90.0, -40.0, (n_targets, n_aps)))
    targets[::2] = rss[rng.integers(0, n, len(targets[::2]))]  # exact matches
    positions = rng.uniform(0.0, 60.0, (n, 3))
    estimates = batch_and_loop(dense_map(rss, positions), targets, WknnConfig(k=k))
    got, want = estimates[:n_targets], estimates[n_targets:]
    assert got == want
    assert estimate_bits(got) == estimate_bits(want)


def in_layout(rss, layout):
    """``rss`` with the same values, RP-major ("C"), AP-major ("F") or as a
    view with strides in both axes ("strided")."""
    if layout == "C":
        return np.ascontiguousarray(rss)
    if layout == "F":
        return np.asfortranarray(rss)
    wide = np.zeros((2 * rss.shape[0], 3 * rss.shape[1]))
    wide[::2, ::3] = rss
    return wide[::2, ::3]


@pytest.mark.exactness
@EXACT_SETTINGS
@given(wknn_cases(), st.sampled_from(["C", "F", "strided"]))
def test_error_curves_match_per_target_loop(case, layout):
    rss, positions, targets, truth, k, order = case
    want = [[math.sqrt(sum((e - p) * (e - p) for e, p in zip(est, point)))
             for est in estimates]
            for (estimates, _, _), point in zip(
                reference_wknn(rss, positions, targets, k, order), truth.tolist())]
    got = error_curves(in_layout(rss, layout), positions, targets, truth, k, order)
    assert got.shape == (len(targets), k)
    assert got.tolist() == want


# Minkowski orders for the ranking properties: the default square root, pow
# roots, and MAX_ORDER, whose SIMILARITY_CAP ** -order is the smallest sum the
# window's floor takes in.
RANKING_ORDERS = (1.0, 1.5, 2.0, 3.0, MAX_ORDER)


def reference_similarities(sums, order):
    """The similarity of every entry of a row of powered distance sums: the
    inverse root, or SIMILARITY_CAP for a zero sum."""
    with np.errstate(divide="ignore", over="ignore"):
        sims = 1.0 / (np.sqrt(sums) if order == 2.0 else sums ** (1.0 / order))
    return np.where(sums == 0.0, SIMILARITY_CAP, sims)


def check_top_k(sums, k, order):
    """``_top_k`` of a block of sums against a per-row lexsort of the
    similarities of every entry."""
    with np.errstate(over="ignore"):  # 1 / a subnormal root is inf
        ranked, weights = _top_k(sums, k, order)
    sims = [reference_similarities(row, order) for row in sums]
    want = [np.lexsort((np.arange(len(row)), -row))[:k] for row in sims]
    assert ranked.tolist() == [r.tolist() for r in want]
    assert weights.tolist() == [row[r].tolist() for row, r in zip(sims, want)]


def mixed_kinds(kinds, b, rng, draw):
    """b row kinds: drawn for small blocks, every kind at least once in
    shuffled order for blocks of at least len(kinds) rows."""
    if b < len(kinds):
        return draw(st.lists(st.sampled_from(kinds), min_size=b, max_size=b))
    extra = rng.integers(0, len(kinds), b - len(kinds))
    out = list(kinds) + [kinds[i] for i in extra]
    rng.shuffle(out)
    return out


# Kinds of distance row for _top_k: which ties the unstable band sort can
# get wrong, and so which rows the tie repair must rank again.
RANKING_ROWS = ("tie-free", "ties in band", "ties straddle k-th", "wide straddle",
                "several caps")


def ranking_row(kind, n, k, rng):
    """A length-n row of Minkowski distances of the given kind, for neighbor
    count k; the nearest rank first.

    Values are a few levels in steps of 0.25, so ties are frequent unless the
    kind rules them out. "ties in band" puts an equal pair among the k
    nearest (from k = 2) with the k-th value below every other entry; "ties
    straddle k-th" makes the k-th and (k+1)-th values equal (for k < n);
    "wide straddle" makes the (k-1)-th to (k+2)-th values equal, so at least
    two entries equal to the k-th value lie on each side of rank k (as many
    as fit when k < 2 or k > n - 2); "several caps" sets two or more entries
    (one if n = 1) to 0, an exact match.
    """
    if kind == "tie-free":
        return 0.5 + 0.25 * rng.permutation(n)
    levels = rng.integers(1, 4 + n // 8)
    row = 0.5 + 0.25 * rng.integers(0, levels, n)
    if kind == "ties in band":
        top = rng.permutation(n)[:k]
        row[top] = 0.5 / (2 + rng.integers(0, max(1, k // 2), k))
        row[top[:2]] = row[top[0]]
    elif kind == "ties straddle k-th" and k < n:
        order = np.lexsort((np.arange(n), row))
        row[order[k]] = row[order[k - 1]]
    elif kind == "wide straddle" and k < n:
        order = np.lexsort((np.arange(n), row))
        row[order[max(0, k - 2):k + 2]] = row[order[k - 1]]
    elif kind == "several caps":
        row[rng.permutation(n)[:rng.integers(min(2, n), n + 1)]] = 0.0
    return row


@st.composite
def ranking_blocks(draw):
    """(sums, k, order): B rows of n powered distance sums mixing every
    ``RANKING_ROWS`` kind.

    B is 1, 2, 7 or 80 and k one of 1, 2, n - 1 and n. Blocks of seven or 80
    rows hold each kind at least once, in shuffled row order; long rows let
    numpy's SIMD argsort, not only its small-array sort, order the band.
    Equal distances power to equal sums.
    """
    b = draw(st.sampled_from([1, 2, 7, 80]))
    n = draw(st.integers(1, 40) | st.integers(100, 600))
    k = draw(st.sampled_from(sorted({k for k in (1, 2, n - 1, n) if 1 <= k <= n})))
    order = draw(st.sampled_from(RANKING_ORDERS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = mixed_kinds(RANKING_ROWS, b, rng, draw)
    return np.array([ranking_row(kind, n, k, rng) for kind in kinds]) ** order, k, order


@pytest.mark.exactness
@EXACT_SETTINGS
@given(ranking_blocks())
def test_top_k_matches_per_row_lexsort(case):
    check_top_k(*case)


# Kinds of powered-sum row for the window of _top_k: entries whose
# similarity ties or beats an entry at or below the k-th sum although their
# sum is above it.
WINDOW_ROWS = ("adjacent at k-th", "few zeros", "many zeros", "below the cap's sum",
               "subnormal", "inf")


def equal_similarity_pair(order, subnormal, rng):
    """(v, u): sums u > v, a few ulps apart, whose similarities are equal;
    normal, or subnormal sums near the smallest normal double."""
    for _ in range(1000):
        if subnormal:
            v = float(rng.integers(2**52 - 4096, 2**52 - 8)) * 2.0 ** -1074
        else:  # mantissas near 2 take the reciprocal's coarsest rounding
            v = math.ldexp(rng.uniform(1.5, 2.0), int(rng.integers(-60, 60)))
        u = v
        for _ in range(rng.integers(1, 8)):
            u = np.nextafter(u, math.inf)
        pair = np.array([v, u])
        sims = reference_similarities(pair, order)
        if sims[0] == sims[1]:
            return pair.tolist()
    raise AssertionError(f"no equal-similarity pair at order {order}")


def window_row(kind, n, k, order, rng):
    """A length-n row of powered sums of the given kind, for neighbor count k.

    "adjacent at k-th" makes the k-th smallest sum v and puts a sum a few
    ulps above it, with the same similarity, at a lower index (for k < n);
    the pair is subnormal in one row of four above order 1 (at order 1, no
    two subnormal sums have equal similarities). "few zeros" and "many zeros"
    hold fewer than k and more than k zero sums (as many as fit). "below the
    cap's sum" mixes zeros with positive sums below SIMILARITY_CAP ** -order,
    whose similarity outranks the cap. "subnormal" rows hold only subnormal sums, many of them
    adjacent, and some zeros; "inf" rows hold overflowed sums, similarity 0,
    in one row of two more than n - k of them.
    """
    row = rng.uniform(0.5, 50.0, n) ** order
    if kind == "adjacent at k-th" and k < n:
        v, u = equal_similarity_pair(order, order > 1.0 and rng.random() < 0.25, rng)
        low, high = np.sort(rng.choice(n, 2, replace=False))
        rest = np.setdiff1d(np.arange(n), [low, high])
        rng.shuffle(rest)
        row[rest[:k - 1]] = v * rng.uniform(0.01, 0.99, k - 1)
        row[rest[k - 1:]] = u * rng.uniform(1.01, 100.0, n - k - 1)
        row[low], row[high] = u, v
    elif kind == "few zeros":
        row[rng.permutation(n)[:rng.integers(0, k)]] = 0.0
    elif kind == "many zeros":
        row[rng.permutation(n)[:rng.integers(min(k + 1, n), n + 1)]] = 0.0
    elif kind == "below the cap's sum":
        cap_sum = SIMILARITY_CAP ** -order
        picks = rng.permutation(n)[:rng.integers(1, n + 1)]
        row[picks] = cap_sum * rng.uniform(0.0, 1.0, len(picks))
        row[picks[rng.random(len(picks)) < 0.5]] = 0.0
    elif kind == "subnormal":
        row = rng.integers(2**52 - 64, 2**52, n) * 2.0 ** -1074
        low = rng.random(n) < 0.3
        row[low] = rng.integers(0, 2**52, np.count_nonzero(low)) * 2.0 ** -1074
        row[rng.random(n) < 0.1] = 0.0
    elif kind == "inf":
        many = rng.integers(n - k + 1, n + 1) if rng.random() < 0.5 else rng.integers(0, n + 1)
        row[rng.permutation(n)[:many]] = math.inf
    return row


@st.composite
def window_blocks(draw):
    """(sums, k, order): B rows of n powered sums mixing every ``WINDOW_ROWS``
    kind, B in 1, 2, 7 and 80, at an order of ``RANKING_ORDERS``."""
    b = draw(st.sampled_from([1, 2, 7, 80]))
    n = draw(st.integers(1, 40) | st.integers(100, 600))
    k = draw(st.sampled_from(sorted({k for k in (1, 2, n - 1, n) if 1 <= k <= n}))
             | st.integers(1, n))
    order = draw(st.sampled_from(RANKING_ORDERS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = mixed_kinds(WINDOW_ROWS, b, rng, draw)
    return np.array([window_row(kind, n, k, order, rng) for kind in kinds]), k, order


@pytest.mark.exactness
@EXACT_SETTINGS
@given(window_blocks())
def test_top_k_window_holds_every_ranked_entry(case):
    check_top_k(*case)


@SETTINGS
@given(st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1), st.data())
def test_permuting_rps_permutes_neighbors(n, n_aps, seed, data):
    rng = np.random.default_rng(seed)
    rss = rng.uniform(-100.0, -30.0, (n, n_aps))
    positions = rng.uniform(0.0, 60.0, (n, 3))
    target = rng.uniform(-100.0, -30.0, n_aps)
    sims = reference_wknn(rss, positions, [target], n)[0][2]
    assume(len(set(sims.tolist())) == n)  # no ties
    k = data.draw(st.integers(1, n))
    perm = np.asarray(data.draw(st.permutations(range(n))))
    est = locate(dense_map(rss, positions), Fingerprint(target), WknnConfig(k=k))
    permuted = locate(dense_map(rss[perm], positions[perm]), Fingerprint(target),
                      WknnConfig(k=k))
    assert [(int(perm[i]), s) for i, s in permuted.neighbors] == est.neighbors
    assert permuted.position == est.position


# Fit worlds: up to five lattice obstacles on one to three stories, APs just
# below the ceilings and survey points at device height on every story.
AP_HEIGHTS = (2.5, 5.5, 8.5)
RP_HEIGHTS = (1.2, 4.2, 7.2)


@st.composite
def fit_worlds(draw):
    """(plan, aps, ids, positions, seed) for a survey to fit.

    AP ids and point ids are shuffled numberings, so neither id order is the
    order of appearance; on two or three stories some links cross floor planes.
    """
    w, h = draw(st.integers(6, 14)), draw(st.integers(4, 10))
    floors = draw(st.sampled_from([(), (3.0,), (3.0, 6.0)]))
    obstacles = []
    for _ in range(draw(st.integers(0, 5))):
        ends = draw(st.tuples(half_meters(w), half_meters(h), half_meters(w), half_meters(h))
                    .filter(lambda e: e[:2] != e[2:]))
        obstacles.append(PlanarObstacle(
            *ends, floor_index=draw(st.integers(0, len(floors))),
            family=draw(st.sampled_from(ObstacleFamily))))
    plan = Floorplan(Bounds(0.0, 0.0, float(w), float(h)), floors, tuple(obstacles))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def position(heights):
        return Point3(float(rng.uniform(0.0, w)), float(rng.uniform(0.0, h)),
                      float(rng.choice(heights[:len(floors) + 1])))

    aps = [AccessPoint(f"ap{i}", position(AP_HEIGHTS), draw(st.sampled_from([15.0, 20.0])))
           for i in draw(st.integers(1, 3).flatmap(lambda n: st.permutations(range(n))))]
    n = draw(st.integers(6, 14))
    ids = [f"p{i:02d}" for i in draw(st.permutations(range(n)))]
    return plan, aps, ids, [position(RP_HEIGHTS) for _ in range(n)], draw(
        st.integers(0, 2**32 - 1))


def fit_survey(aps, ids, positions, seed, rss_of):
    """A survey with 1-2 scans per detected pair; pairs whose RSS falls outside
    [-120, 0] dBm, and about one in five others, are not detected."""
    rng = np.random.default_rng(seed)
    records = []
    for rp_id, p in zip(ids, positions):
        for ap in aps:
            scans = [rss_of(ap, p, rng) for _ in range(rng.integers(1, 3))]
            if rng.random() < 0.2 or not all(-120.0 <= v <= 0.0 for v in scans):
                scans = [None]
            records += [MeasurementRecord(rp_id, p, ap.id, v, s) for s, v in enumerate(scans)]
    return measurement_set(records)


def reference_blocks(plan, aps, meas, model, kind):
    """The systems fit solves, from reference_fit_rows: (x, y, used) per AP in
    ``aps`` order for per-AP fitting, or one pooled system. ``used`` marks the
    columns kept: every multi-wall key column no row crosses is dropped."""
    rows = reference_fit_rows(plan, aps, meas, model, FREE_SPACE_L0_DB)
    width = 1 if model is ModelKind.ONE_SLOPE else 2 + len(plan.obstacle_keys())
    groups = ([[r for r in rows if r[0] == ap.id] for ap in aps]
              if kind is StrategyKind.PER_AP else [rows])
    blocks = []
    for group in filter(None, groups):
        x = np.array([r[1] for r in group], dtype=float).reshape(len(group), width)
        used = [True] * min(width, 2) + x[:, 2:].any(axis=0).tolist()
        blocks.append((x[:, used], np.array([r[2] for r in group]), used))
    return blocks


def coefficients(params, model, plan):
    """Parameters as the design's coefficients: [gamma] or [gamma, lc, loss per plan key]."""
    if model is ModelKind.ONE_SLOPE:
        return [params.gamma]
    return [params.gamma, params.lc_db, *(params.loss_db(key) for key in plan.obstacle_keys())]


@SETTINGS
@given(fit_worlds(), st.sampled_from(ModelKind),
       st.sampled_from([StrategyKind.ENVIRONMENT, StrategyKind.PER_AP]))
def test_fit_equals_lstsq_on_reference_rows_bit_for_bit(world, model, kind):
    plan, aps, ids, positions, seed = world
    meas = fit_survey(aps, ids, positions, seed, lambda ap, p, rng: rng.uniform(-100.0, -30.0))
    blocks = reference_blocks(plan, aps, meas, model, kind)
    try:
        if not blocks:
            raise InsufficientDataError("no rows")
        want, residuals = [], []
        for x, y, used in blocks:
            if x.shape[0] < x.shape[1]:
                raise InsufficientDataError("fewer rows than columns")
            solution, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
            if rank < x.shape[1]:
                raise DegenerateFitError("reference")
            values = iter(solution.tolist())
            want.append([next(values) if u else 0.0 for u in used])
            residuals.append(x @ solution - y)
    except (DegenerateFitError, InsufficientDataError) as exc:
        event(f"fit raises {type(exc).__name__}")
        with pytest.raises(type(exc)):
            fit(FitStrategy(kind), model, plan, aps, meas)
        return

    result = fit(FitStrategy(kind), model, plan, aps, meas)
    got = {ap_id: coefficients(p, model, plan) for ap_id, p in result.params_by_ap.items()}
    if kind is StrategyKind.PER_AP:
        assert list(got.values()) == want
    else:
        assert all(values == want[0] for values in got.values())
    pooled = np.concatenate(residuals)
    assert result.residual_rms_db == float(np.sqrt(np.mean(pooled ** 2)))
    assert result.m_used == pooled.shape[0]


@SETTINGS
@given(fit_worlds(), st.sampled_from(ModelKind),
       st.sampled_from([StrategyKind.ENVIRONMENT, StrategyKind.PER_AP]), st.data())
def test_fit_recovers_noiseless_parameters(world, model, kind, data):
    plan, aps, ids, positions, seed = world
    gamma = data.draw(st.floats(1.8, 3.5))
    if model is ModelKind.ONE_SLOPE:
        truth = PropagationParams(gamma=gamma)
    else:
        truth = PropagationParams(
            gamma=gamma, lc_db=data.draw(st.floats(0.0, 3.0)),
            **{f"{key.value}_db": data.draw(st.floats(1.0, 8.0)) for key in plan.obstacle_keys()})
    meas = fit_survey(aps, ids, positions, seed,
                      lambda ap, p, rng: predict_rss(model, truth, plan, ap, p))
    blocks = reference_blocks(plan, aps, meas, model, kind)
    assume(blocks and all(x.shape[0] >= x.shape[1] and np.linalg.cond(x) < 1e6
                          for x, _, _ in blocks))

    result = fit(FitStrategy(kind), model, plan, aps, meas)
    want = coefficients(truth, model, plan)
    for (_, _, used), params in zip(blocks, result.params_by_ap.values()):
        values = coefficients(params, model, plan)
        assert [v for v, u in zip(values, used) if not u] == [0.0] * used.count(False)
        np.testing.assert_allclose([v for v, u in zip(values, used) if u],
                                   [v for v, u in zip(want, used) if u], rtol=0, atol=1e-6)
    assert result.residual_rms_db < 1e-6


def fit_outcome(run):
    """``run()``'s FitResult as bits (params per AP, residual RMS, m_used), or
    its error's type and message (GeometryError among the ValueErrors); with
    the warnings it issued, in order."""
    with warnings.catch_warnings(record=True) as issued:
        warnings.simplefilter("always")
        try:
            result = run()
        except (ValueError, DegenerateFitError, InsufficientDataError) as exc:
            outcome = (type(exc), str(exc))
        else:
            outcome = ([(ap_id, [getattr(p, f).hex() for f in p.__dataclass_fields__])
                        for ap_id, p in result.params_by_ap.items()],
                       result.residual_rms_db.hex(), result.m_used, result.model,
                       result.strategy)
    return outcome, [str(w.message) for w in issued]


def table_bits(table, model, params):
    """A LinkTable's fields as bits, with its predictions under ``params`` or
    the GeometryError they raise; the crossing counts for the multi-wall
    model only."""
    counts = table.obstructions[0] if model is ModelKind.MWMF else {}
    try:
        predicted = table.predict_rss(model, params).view(np.int64).tolist()
    except GeometryError as exc:
        predicted = str(exc)
    return (table.log10_d.view(np.int64).tolist(), table.at_ap.tolist(), table.floors.tolist(),
            [(key, arr.tolist()) for key, arr in counts.items()], predicted)


@pytest.mark.exactness
@EXACT_SETTINGS
@given(fit_worlds(), st.sampled_from(ModelKind), st.booleans(), st.data())
def test_take_equals_table_of_the_points(world, model, counted_first, data):
    """``LinkTable.take(points)`` equals a table built on ``positions[points]``
    bit for bit, whether the source counted its links before or after the
    take; the two together count the source's links once, and a one-slope
    take counts none."""
    plan, aps, _, positions, _ = world
    if data.draw(st.sampled_from([False, False, False, True])):  # a receiver on the AP
        positions[data.draw(st.integers(0, len(positions) - 1))] = aps[0].position
    xyz = np.array([p.as_array() for p in positions])
    points = np.array(data.draw(st.lists(st.integers(0, len(positions) - 1), min_size=1,
                                         max_size=2 * len(positions))), dtype=np.intp)
    params = PropagationParams(gamma=data.draw(st.floats(1.5, 4.0)),
                               lc_db=data.draw(st.floats(0.0, 5.0)),
                               wall_db=data.draw(st.floats(0.0, 8.0)),
                               door_db=data.draw(st.floats(0.0, 8.0)))
    original = floorplan._crossings
    calls = []

    def counting(plan, tx, pts, with_flags):
        calls.append(np.asarray(pts).shape[0])
        return original(plan, tx, pts, with_flags)

    mwmf = model is ModelKind.MWMF
    for ap in aps:
        want = table_bits(LinkTable(plan, ap, xyz[points]), model, params)
        calls.clear()
        with mock.patch.object(propagation, "_crossings", counting):
            source = LinkTable(plan, ap, xyz)
            if counted_first and mwmf:
                source.obstructions
            assert table_bits(source.take(points), model, params) == want
            if mwmf:
                source.obstructions
        assert calls == ([len(positions)] if mwmf else [])


@pytest.mark.exactness
@EXACT_SETTINGS
@given(fit_worlds(), st.sampled_from(ModelKind), st.sampled_from(StrategyKind), st.data())
def test_prefix_fit_on_taken_links_matches_fit_of_subset(world, model, kind, data):
    """The evaluation's fit of a survey prefix, the subset of its points fitted
    on link tables taken from the survey's, equals fit on the subset bit for
    bit, with the same errors and warnings, prefix after prefix of any point
    order; the survey's links are counted at most once per AP."""
    plan, aps, ids, positions, seed = world
    rarely = st.sampled_from([False, False, False, True])
    if data.draw(rarely):  # a survey point on an AP: GeometryError in its prefixes
        positions[data.draw(st.integers(0, len(positions) - 1))] = aps[0].position
    meas = fit_survey(aps, ids, positions, seed, lambda ap, p, rng: rng.uniform(-100.0, -30.0))
    if kind is StrategyKind.NO_FIT:
        strategy = FitStrategy.no_fit(PropagationParams(
            l0_db=data.draw(st.sampled_from([FREE_SPACE_L0_DB, 35.0])),
            gamma=data.draw(st.floats(1.5, 4.0)), lc_db=data.draw(st.floats(0.0, 5.0)),
            wall_db=data.draw(st.floats(0.0, 8.0)), door_db=data.draw(st.floats(0.0, 8.0))))
    else:
        strategy = FitStrategy(kind)
    fit_aps = aps
    if len(aps) > 1 and data.draw(rarely):
        # An AP left out of the list, with rows at every third point only:
        # ValueError in each prefix that holds one of them.
        fit_aps = aps[1:]
        rows = ~((meas.ap_index == meas.ap_ids().index(aps[0].id)) & (meas.rp_index % 3 != 0))
        meas = MeasurementSet(meas.rp_ids(), meas.xyz, meas.ap_ids(), *(
            column[rows] for column in (meas.rp_index, meas.ap_index, meas.rss, meas.detected,
                                        meas.scan)))
    order = data.draw(st.permutations(range(len(ids))))
    fits = _SurveyFits(plan, fit_aps, meas)
    fits.order = order
    original, calls = floorplan._crossings, []

    def counting(plan, tx, pts, with_flags):
        calls.append((tx, np.asarray(pts).tobytes()))
        return original(plan, tx, pts, with_flags)

    for n_keep in sorted(data.draw(st.sets(st.integers(1, len(ids)), min_size=1, max_size=4))):
        want = fit_outcome(lambda: fit(strategy, model, plan, fit_aps,
                                       meas.subset(order[:n_keep])))
        event(f"prefix: {want[0][0].__name__ if isinstance(want[0][0], type) else 'fitted'}")
        with mock.patch.object(propagation, "_crossings", counting):
            assert fit_outcome(lambda: fits.fit(strategy, model, n_keep)) == want
    survey = meas.xyz.tobytes()
    assert all(pts == survey for _, pts in calls)
    assert len(set(calls)) == len(calls) <= len(fit_aps)


@pytest.mark.exactness
@EXACT_SETTINGS
@given(fit_worlds(), st.sampled_from(ModelKind), st.sampled_from(StrategyKind), st.data())
def test_design_reads_link_tables(world, model, kind, data):
    """The fit's design rows are read from the survey's link tables: each log
    column is ``10.0 * log10_d`` of the point's link bit for bit, the count
    columns are the table's counts, and the residual RMS is that of the
    measured means minus the tables' predictions with the fitted parameters,
    over the fitted rows. Here the fit is of the points off every AP, on
    tables taken from the survey's, and the rows go in (AP id, point id)
    order."""
    plan, aps, ids, positions, seed = world
    if data.draw(st.sampled_from([False, False, False, True])):
        positions[data.draw(st.integers(0, len(positions) - 1))] = aps[0].position
    meas = fit_survey(aps, ids, positions, seed, lambda ap, p, rng: rng.uniform(-100.0, -30.0))
    if kind is StrategyKind.NO_FIT:
        strategy = FitStrategy.no_fit(PropagationParams(
            l0_db=data.draw(st.sampled_from([FREE_SPACE_L0_DB, 35.0])),
            gamma=data.draw(st.floats(1.5, 4.0)), lc_db=data.draw(st.floats(0.0, 5.0)),
            wall_db=data.draw(st.floats(0.0, 8.0)), door_db=data.draw(st.floats(0.0, 8.0))))
        l0_db = strategy.no_fit_params.l0_db
    else:
        strategy, l0_db = FitStrategy(kind), FREE_SPACE_L0_DB
    tables = {ap.id: LinkTable(plan, ap, meas.xyz) for ap in aps}
    # A point on an AP fails every fit that keeps it; fit the others.
    keep = np.flatnonzero(~np.logical_or.reduce([table.at_ap for table in tables.values()]))
    sub = meas.subset(keep)
    links = {ap_id: table.take(keep) for ap_id, table in tables.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        design = fitting._Design(plan, links, sub, model, l0_db)
        try:
            result = fit(strategy, model, plan, aps, sub, _links=links)
        except (DegenerateFitError, InsufficientDataError):
            result = None
    event(f"fit: {'raises' if result is None else 'fitted'}")

    means = sub.mean_matrix()
    column = {ap_id: j for j, ap_id in enumerate(sub.ap_ids())}
    by_id = sorted(range(len(keep)), key=sub.rp_ids().__getitem__)
    want_rows = {}
    for ap_id in sorted(column):
        points = np.array([p for p in by_id if not np.isnan(means[p, column[ap_id]])
                           and tables[ap_id].floors[keep[p]] == 0], dtype=np.intp)
        if points.size:
            want_rows[ap_id] = points
    assert list(design.rows) == list(want_rows)
    residuals = []
    for ap_id, rows in design.rows.items():
        table, points = tables[ap_id], keep[want_rows[ap_id]]
        assert rows.stop - rows.start == points.shape[0]
        assert np.array_equal(design.columns[rows, 0].view(np.int64),
                              (10.0 * table.log10_d[points]).view(np.int64))
        if model is ModelKind.MWMF:
            counts, _ = table.obstructions
            assert design.columns.shape[1] == 2 + len(counts)
            assert np.array_equal(design.columns[rows, 1], np.ones(points.shape[0]))
            for c, arr in enumerate(counts.values(), start=2):
                assert np.array_equal(design.columns[rows, c], arr[points])
        if result is None:
            continue
        predicted = LinkTable(plan, table.ap, meas.xyz[points]).predict_rss(
            model, result.params_for(ap_id))
        residuals.append(means[want_rows[ap_id], column[ap_id]] - predicted)
    if result is not None:
        pooled = np.concatenate([np.empty(0), *residuals])
        assert result.m_used == pooled.shape[0]
        assert result.residual_rms_db == pytest.approx(
            float(np.sqrt(np.mean(pooled ** 2))) if pooled.size else 0.0, rel=0, abs=1e-9)


# ---------------------------------------------------------------------------
# Fuzzed input files through cli.main
# ---------------------------------------------------------------------------

# A 20 x 10 m floor split by a wall with a door, one AP on each side.
FUZZ_WORLD = {
    "floorplan": {
        "bounds": {"min_x": 0, "min_y": 0, "max_x": 20, "max_y": 10}, "floors": [],
        "obstacles": [
            {"family": "wall", "type_index": 1, "floor": 0, "x1": 10, "y1": 0, "x2": 10, "y2": 6},
            {"family": "door", "type_index": 1, "floor": 0, "x1": 10, "y1": 6, "x2": 10,
             "y2": 7.5},
        ]},
    "aps": [{"id": "ap01", "x": 3, "y": 5, "z": 2.8, "eirp_dbm": 20},
            {"id": "ap02", "x": 17, "y": 5, "z": 2.8, "eirp_dbm": 18}],
    "truth_params": {"model": "mwmf", "gamma": 2.5, "l0_db": 40.22, "lc_db": 1.0,
                     "losses": {"wall": 5, "door": 1}, "lf_db": 18, "b": 0.46},
    "noise": {"shadowing_sigma_db": 2.0},
}
# What a drawn value in a JSON artifact is replaced with.
REPLACEMENTS = [None, True, -1, 2, 1.5, "x", [], {}, [1], {"a": 1}]

# The commands that read each input file. A file name in an argv stands for
# that file in the fuzz directory, and "." for the directory itself; "out.json"
# and "out" are output paths.
FIT_ARGV = ["fit", "--measurements", "measurements.csv", "--floorplan", "floorplan.json",
            "--aps", "aps.json", "--out", "out.json"]
BUILD_ARGV = ["build-radiomap", "--measurements", "measurements.csv", "--floorplan",
              "floorplan.json", "--aps", "aps.json", "--fit", "environment.json",
              "--dv", "0.1", "--out", "out.json"]
SIMULATE_ARGV = ["simulate", "--template", "custom", "--custom-file", "world.json",
                 "--dr", "0.2", "--tp-count", "2", "--preset", "crowdsourcing",
                 "--out-dir", "out"]
LOCATE_ARGV = ["locate", "--radiomap", "radiomap.json", "--target", "target.csv", "--k", "3"]
EVALUATE_ARGV = ["evaluate", "--world-dir", ".", "--rho-grid", "1", "--dv-grid", "0.1",
                 "--out-dir", "out"]
FUZZ_CONSUMERS = {
    "floorplan.json": [FIT_ARGV, BUILD_ARGV],
    "aps.json": [FIT_ARGV, BUILD_ARGV],
    "measurements.csv": [FIT_ARGV, BUILD_ARGV],
    "params.json": [FIT_ARGV + ["--strategy", "no-fit", "--params", "params.json"]],
    "environment.json": [BUILD_ARGV],
    "per_ap.json": [[a.replace("environment", "per_ap") for a in BUILD_ARGV]],
    "radiomap.json": [LOCATE_ARGV],
    "target.csv": [LOCATE_ARGV],
    "world.json": [SIMULATE_ARGV],
}
FUZZ_NAMES = set(FUZZ_CONSUMERS) | {".", "out.json", "out"}


def in_dir(directory, argv, paths=None):
    """``argv`` with each file name mapped by ``paths``, else resolved in ``directory``."""
    paths = paths or {}
    return [str(paths.get(a, directory / a)) if a in FUZZ_NAMES else str(a) for a in argv]


def run_cli(argv) -> tuple[int, str]:
    """cli.main's exit code, or that of the SystemExit argparse raises, and
    stderr; any other exception escapes to the caller."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A small simulated world and every artifact the CLI reads, all valid."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "world.json").write_text(json.dumps(FUZZ_WORLD))
    for argv, out in ((SIMULATE_ARGV, d), (FIT_ARGV, d / "environment.json"),
                      (FIT_ARGV + ["--strategy", "per-ap"], d / "per_ap.json"),
                      (BUILD_ARGV, d / "radiomap.json")):
        assert run_cli(in_dir(d, argv, {"out": out, "out.json": out})) == (0, "")
    (d / "params.json").write_text(json.dumps(json.loads(
        (d / "environment.json").read_text())["params"]))
    (d / "target.csv").write_text("ap_id,rss_dbm\nap01,-55.5\nap02,ND\n")
    return d


def doc_paths(doc, prefix=()):
    """The key path of every value in a JSON document, the root's first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from doc_paths(value, prefix + (key,))


def replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def corrupted_bytes(draw, data: bytes) -> bytes:
    """``data`` cut short, or with bytes that are not UTF-8 spliced in."""
    at = draw(st.integers(0, len(data)))
    if draw(st.booleans()):
        return data[:at]
    return data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3", b"\x80\x80"])) + data[at:]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(FUZZ_CONSUMERS)), st.data())
def test_fuzzed_input_files_exit_0_2_or_3(fuzz_dir, name, data):
    raw = (fuzz_dir / name).read_bytes()
    if name.endswith(".json") and data.draw(st.booleans(), label="replace a value"):
        doc = json.loads(raw)
        path = data.draw(st.sampled_from(list(doc_paths(doc))), label="path")
        value = data.draw(st.sampled_from(REPLACEMENTS), label="value")
        raw = json.dumps(replaced(doc, path, value)).encode()
    else:
        raw = data.draw(corrupted_bytes(raw), label="bytes")
    work = fuzz_dir / "case"  # outputs of earlier examples here are never read
    work.mkdir(exist_ok=True)
    (work / name).write_bytes(raw)
    argv = data.draw(st.sampled_from(FUZZ_CONSUMERS[name]), label="argv")
    code, err = run_cli(in_dir(fuzz_dir, argv, {name: work / name, "out.json": work / "out.json",
                                               "out": work / "out"}))
    event(f"exit {code}")
    assert code in (0, 2, 3)
    if code:
        assert err.count("error:") == 1, err


@pytest.mark.parametrize("command", ["fit", "build-radiomap", "simulate", "evaluate"])
def test_output_path_of_the_wrong_kind_exits_2(fuzz_dir, tmp_path, command):
    existing = tmp_path / "existing"
    if command in ("fit", "build-radiomap"):
        existing.mkdir()  # for --out
        argv = FIT_ARGV if command == "fit" else BUILD_ARGV
    else:
        existing.write_text("x")  # for --out-dir
        argv = SIMULATE_ARGV if command == "simulate" else EVALUATE_ARGV
    code, err = run_cli(in_dir(fuzz_dir, argv, {"out.json": existing, "out": existing}))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


# Each numeric flag of each command, with fit's --seed, which fit rejects, and
# simulate's noise flags, which the custom world rejects once they parse.
# Every value is small, or refused before any work: the campaign and
# virtual-RP caps refuse the large densities and counts, and the alpha-grid
# cap the tiny steps.
FLAG_CASES = ([(SIMULATE_ARGV, flag) for flag in ("--seed", "--dr", "--tp-count",
                                                  *(noise[0] for noise in cli._NOISE_FLAGS))]
              + [(FIT_ARGV, "--seed")]
              + [(BUILD_ARGV, flag) for flag in ("--seed", "--rho", "--dv", "--sentinel",
                                                 "--detection-floor")]
              # LOCATE_ARGV without its "--k 3", which --alpha excludes
              + [(LOCATE_ARGV[:-2], flag) for flag in ("--k", "--alpha", "--order")]
              + [(EVALUATE_ARGV, flag) for flag in ("--seed", "--rho-grid", "--dv-grid",
                                                    "--alpha-step", "--alpha-range")])
BOUNDARY_VALUES = ["0", "0.0", "-0.0", "1e-320", "1e-300", "1", "1e308", "nan", "inf", "-inf",
                   "-1", str(10**30)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FLAG_CASES), st.sampled_from(BOUNDARY_VALUES))
def test_boundary_flag_values_exit_0_2_or_3(fuzz_dir, case, value):
    argv, flag = case
    if flag in argv:
        at = argv.index(flag)
        argv = argv[:at] + argv[at + 2:]
    work = fuzz_dir / "flags"  # outputs of earlier examples here are never read
    code, err = run_cli(in_dir(fuzz_dir, [*argv, f"{flag}={value}"],
                               {"out.json": work / "out.json", "out": work / "out"}))
    event(f"exit {code}")
    assert code in (0, 2, 3)
    if code:
        assert err.count("error:") == 1, err
