"""Property-based checks of the columnar survey and the array-backed radiomap.

The oracles are plain per-record Python loops and ``json.dumps``; they do
not share code with the array paths they check.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from radioloc.fitting import (
    MeasurementRecord,
    MeasurementSet,
    load_measurements,
    save_measurements,
)
from radioloc.floorplan import Point3
from radioloc.propagation import AccessPoint
from radioloc.radiomap import (
    NOT_DETECTED_DBM,
    Fingerprint,
    Radiomap,
    ReferencePoint,
    RpArrays,
    RpKind,
    build_real_fingerprints,
    load_radiomap,
    save_radiomap,
)

# Surveys of up to ~170 shuffled rows are slow to draw on a loaded machine.
SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

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


def hexed(values: dict) -> list:
    return [(key, float(v).hex()) for key, v in values.items()]


@SETTINGS
@given(surveys())
def test_averaged_matches_sequential_loop_bit_for_bit(records):
    meas = MeasurementSet(records)
    # Same keys, same first-detection order, same bits.
    assert hexed(meas.averaged()) == hexed(loop_averages(records))


@SETTINGS
@given(surveys())
def test_real_fingerprints_match_sequential_loop_bit_for_bit(records):
    meas = MeasurementSet(records)
    aps = [AccessPoint(ap_id, Point3(0.0, 0.0, 9.0)) for ap_id in ("d", "c", "b", "a")]
    expected = loop_averages(records)
    points = list(dict.fromkeys((rec.rp_id, rec.location) for rec in records))
    rps = build_real_fingerprints(meas, aps)
    assert len(rps) == len(points)
    for (rp_id, location), rp in zip(points, rps):
        assert rp.kind is RpKind.REAL and rp.position == location
        want = [expected.get((rp_id, ap.id), NOT_DETECTED_DBM) for ap in aps]
        assert [v.hex() for v in rp.fingerprint.rss.tolist()] == [v.hex() for v in want]


@SETTINGS
@given(surveys())
def test_measurement_csv_round_trip(tmp_path_factory, records):
    meas = MeasurementSet(records)
    path = tmp_path_factory.mktemp("csv") / "meas.csv"
    save_measurements(meas, path)
    loaded = load_measurements(path)
    assert loaded.records == records
    assert loaded.rp_ids() == meas.rp_ids() and loaded.ap_ids() == meas.ap_ids()
    assert loaded.q == meas.q
    for name in ("xyz", "rp_index", "ap_index", "detected", "scan"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(meas, name))
    np.testing.assert_array_equal(loaded.rss, meas.rss)  # NaN where not detected


@st.composite
def rp_arrays(draw, n_aps, kind):
    n = draw(st.integers(0, 5))
    pos = [[draw(coordinate) for _ in range(3)] for _ in range(n)]
    rss = [[draw(st.just(NOT_DETECTED_DBM) | dbm) for _ in range(n_aps)] for _ in range(n)]
    if n == 0:
        return RpArrays.empty(n_aps)
    return RpArrays(pos, rss, [kind is RpKind.VIRTUAL] * n)


@st.composite
def radiomaps(draw):
    n_aps = draw(st.integers(1, 3))
    aps = [AccessPoint(f"ap{i}", Point3(draw(coordinate), 0.0, 2.8)) for i in range(n_aps)]
    real = draw(rp_arrays(n_aps, RpKind.REAL))
    virtual = draw(rp_arrays(n_aps, RpKind.VIRTUAL))
    area = draw(st.none() | st.floats(min_value=1.0, max_value=1e4))
    return Radiomap(aps, real + virtual, area_m2=area)


def plain_document(rmap):
    """The radiomap document built point by point, the way json.dumps sees it."""
    doc = {
        "aps": [{"id": ap.id, "x": ap.position.x, "y": ap.position.y, "z": ap.position.z,
                 "eirp_dbm": ap.eirp_dbm} for ap in rmap.aps],
        "sentinel_dbm": rmap.sentinel_dbm,
        "rps": [{"x": rp.position.x, "y": rp.position.y, "z": rp.position.z,
                 "kind": rp.kind.value,
                 "rss": [None if v == rmap.sentinel_dbm else v
                         for v in rp.fingerprint.rss.tolist()]}
                for rp in rmap.rps],
    }
    if rmap.area_m2 is not None:
        doc["area_m2"] = rmap.area_m2
    return doc


@SETTINGS
@given(radiomaps())
def test_radiomap_json_round_trip(tmp_path_factory, rmap):
    path = tmp_path_factory.mktemp("map") / "map.json"
    save_radiomap(rmap, path)
    assert path.read_text() == json.dumps(plain_document(rmap), indent=2) + "\n"
    loaded = load_radiomap(path)
    assert loaded.rps == rmap.rps
    assert loaded.aps == rmap.aps and loaded.area_m2 == rmap.area_m2
    assert (loaded.n_real, loaded.n_virtual) == (rmap.n_real, rmap.n_virtual)


@SETTINGS
@given(st.integers(1, 3).flatmap(
    lambda n_aps: st.tuples(rp_arrays(n_aps, RpKind.REAL), rp_arrays(n_aps, RpKind.VIRTUAL))))
def test_concatenation_keeps_order_and_kinds(pair):
    real, virtual = pair
    objects = [ReferencePoint(Point3(*p.tolist()), Fingerprint(r), RpKind.VIRTUAL)
               for p, r in zip(virtual.pos, virtual.rss)]
    for combined in (real + virtual, real + objects, list(real) + virtual):
        assert len(combined) == len(real) + len(virtual)
        assert [rp.kind for rp in combined] == ([RpKind.REAL] * len(real)
                                                + [RpKind.VIRTUAL] * len(virtual))
        assert [rp.position for rp in combined] == ([rp.position for rp in real]
                                                    + [rp.position for rp in virtual])
        assert [rp.fingerprint for rp in combined] == ([rp.fingerprint for rp in real]
                                                       + [rp.fingerprint for rp in virtual])
        assert (combined.n_real, combined.n_virtual) == (len(real), len(virtual))
