import datetime as dt
import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nutf import ingest
from nutf.cli import main
from nutf.ingest import (
    EARTH_RADIUS_M,
    InputDataError,
    SlotScheme,
    build_candidate_sets,
    candidate_venues,
    haversine_m,
    read_category_map_csv,
    read_updates_csv,
    read_venues_csv,
    slot_of,
)

from conftest import (LocationUpdate, Venue, VenueIndex, block_dict, oracle_build_candidate_sets,
                      oracle_preprocess, oracle_slot_of, update_columns, venue_columns)


def upd(uid, ts, lat=0.0, lon=0.0, err=100.0, off=0):
    return LocationUpdate(uid, float(ts), lat, lon, err, off)


def build(updates, venues, scheme, category_map, min_dwell_s, other_category=None):
    """build_candidate_sets on the columns of LocationUpdate and Venue objects,
    checked against the per-update oracle: the same arrays, dtypes included,
    the same index maps and funnel, or the same unmapped category raised."""
    args = (scheme, category_map, min_dwell_s, other_category)
    try:
        want = oracle_build_candidate_sets(updates, venues, *args)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc).split(" of venue")[0])):
            build_candidate_sets(update_columns(updates), venue_columns(venues), *args)
        raise
    got = build_candidate_sets(update_columns(updates), venue_columns(venues), *args)
    for name in ("block_users", "block_slots", "block_ptr", "cats"):
        a, b = getattr(got.omega, name), getattr(want.omega, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (got.dims, got.user_ids, got.category_names, got.funnel) == (
        want.dims, want.user_ids, want.category_names, want.funnel)
    rest = [n for key, n in got.funnel.items() if key != "rows_read"]
    assert got.funnel["rows_read"] == sum(rest) == len(updates) and min(rest) >= 0
    return got


def venue_hits(venues, lat, lon, radius_m) -> list[int]:
    """Catalog indices of the venues candidate_venues finds for one update,
    checked against the oracle's per-update index."""
    pairs = candidate_venues([lat], [lon], [radius_m], venue_columns(venues))
    assert pairs.shape == (len(pairs), 2) and not pairs[:, 0].any()
    assert pairs[:, 1].tolist() == VenueIndex(venues).query(lat, lon, radius_m)
    return pairs[:, 1].tolist()


class TestHaversine:
    def test_identical_points(self):
        assert haversine_m(40.75, -73.98, 40.75, -73.98) == 0.0

    def test_one_degree_at_equator(self):
        # R * pi / 180 = 111194.93 m
        assert haversine_m(0, 0, 0, 1) == pytest.approx(111_195, abs=1.0)

    def test_antipodal(self):
        # half circumference: pi * R = 20015086.8 m
        assert haversine_m(0, 0, 0, 180) == pytest.approx(20_015_087, abs=10.0)
        assert haversine_m(90, 0, -90, 0) == pytest.approx(math.pi * EARTH_RADIUS_M, abs=1e-6)

    def test_symmetry(self):
        a, b = (48.85, 2.35), (51.5, -0.12)
        assert haversine_m(*a, *b) == pytest.approx(haversine_m(*b, *a), abs=1e-9)

    def test_near_antipodal_across_pole(self):
        # (lat, lon) and (d - lat, lon - 180) lie on one meridian circle, and
        # the short way between them crosses the north pole: its exact
        # length is the meridian arc 180 - d degrees, d up to ~100 m of arc
        rng = np.random.default_rng(17)
        for _ in range(2000):
            lat, lon = rng.uniform(-89.0, 89.0), rng.uniform(0.0, 180.0)
            d = rng.uniform(0.0, 1e-3)
            arc = EARTH_RADIUS_M * math.radians(180.0 - d)
            assert haversine_m(lat, lon, d - lat, lon - 180.0) == pytest.approx(arc, abs=1e-6)


class TestDwellFilter:
    """The dwell rule of build_candidate_sets, seen through its blocks.

    One venue covers every update, and update i's UTC offset of i days
    gives it an hourly slot of its own, so a block's slot // 24 names the
    update it came from.
    """

    HOURLY = SlotScheme(mode="hourly", epoch_day=dt.date(1970, 1, 1))

    def kept(self, stamps, min_dwell_s, order=None):
        """(user, input position) of each kept update; stamps are (user, timestamp) pairs."""
        updates = [upd(uid, ts, off=1440 * i) for i, (uid, ts) in enumerate(stamps)]
        if order is not None:
            updates = [updates[i] for i in order]
        res = build(updates, [Venue("v", "Bank", 0.0, 0.0, 30.0)], self.HOURLY, CATMAP,
                    min_dwell_s)
        return sorted((res.user_ids[u], j // 24) for u, j in block_dict(res.omega))

    def test_single_update_removed(self):
        assert self.kept([("u", 0)], 60) == []

    def test_reference_gaps(self):
        # gaps 30 min, 5 min, 40 min, 1 min; threshold 20 min keeps 1st and 3rd
        times = [0, 1800, 2100, 4500, 4500 + 60]
        assert self.kept([("u", t) for t in times], 20 * 60) == [("u", 0), ("u", 2)]

    def test_all_gaps_large_keeps_all_but_last(self):
        stamps = [("u", t) for t in (0, 2000, 4000, 6000)]
        assert self.kept(stamps, 1000) == [("u", 0), ("u", 1), ("u", 2)]

    def test_interleaved_users(self):
        stamps = [("a", 0), ("b", 10), ("a", 5000), ("b", 6000), ("a", 9000), ("b", 6500)]
        rng = np.random.default_rng(5)
        for order in [None, range(5, -1, -1)] + [rng.permutation(6) for _ in range(4)]:
            assert self.kept(stamps, 1800, order) == [("a", 0), ("a", 2), ("b", 1)]

    def test_zero_gap_below_threshold(self):
        # equal stamps keep their input order: the first pairs with the
        # second (gap 0), the second with the third (gap 100)
        assert self.kept([("u", 0), ("u", 0), ("u", 100)], 1) == [("u", 1)]


LATITUDES = st.one_of(st.sampled_from([-90.0, 90.0]), st.floats(-90.0, 90.0))
LONGITUDES = st.one_of(st.sampled_from([-180.0, 180.0]), st.floats(179.99, 180.0),
                       st.floats(-180.0, -179.99), st.floats(-180.0, 180.0))


@st.composite
def sphere_queries(draw):
    """(lat, lon, radius_m, venues) anywhere on the sphere: poles, the
    antimeridian, venues clustered around the query, duplicate coordinates,
    zero query radius, radii up to beyond half the circumference, and the
    empty catalog."""
    lat, lon = draw(LATITUDES), draw(LONGITUDES)
    step = st.floats(-0.01, 0.01)
    nearby = st.tuples(step, step).map(lambda d: (
        min(90.0, max(-90.0, lat + d[0])), (lon + d[1] + 180.0) % 360.0 - 180.0,
    ))
    coords = draw(st.lists(st.one_of(st.tuples(LATITUDES, LONGITUDES), nearby), max_size=12))
    if coords:
        coords += draw(st.lists(st.sampled_from(coords), max_size=4))
    radii = st.one_of(st.floats(1e-3, 500.0), st.floats(1e-3, 2.5e7))
    venues = [Venue(f"v{i}", "c", vlat, vlon, draw(radii))
              for i, (vlat, vlon) in enumerate(coords)]
    radius = draw(st.one_of(st.just(0.0), st.floats(0.0, 5e3), st.floats(0.0, 2.5e7)))
    return lat, lon, radius, venues


class TestCandidateVenues:
    def test_venue_at_exact_coordinates(self):
        assert venue_hits([Venue("v", "cafe", 10.0, 20.0, 5.0)], 10.0, 20.0, 0.0) == [0]

    def test_boundary_inclusive(self):
        # venue circle radius equal to the exact distance: h <= 0 + d holds
        d = haversine_m(0.0, 0.0, 0.0, 0.004)
        assert venue_hits([Venue("v", "cafe", 0.0, 0.004, d)], 0.0, 0.0, 0.0) == [0]

    def test_boundary_and_1e7_m_outside(self, monkeypatch):
        # haversine_m decides each pair the chord test lets through
        calls = []
        monkeypatch.setattr(ingest, "haversine_m",
                            lambda *a: calls.append(a) or haversine_m(*a))
        lat, lon, err = 40.7, -73.9, 80.0
        d = haversine_m(lat, lon, 40.7008, -73.9011)
        venues = [Venue("on", "c", 40.7008, -73.9011, d - err),
                  Venue("out", "c", 40.7008, -73.9011, d - err - 1e-7)]
        assert haversine_m(lat, lon, 40.7008, -73.9011) <= err + venues[0].radius_m
        assert not haversine_m(lat, lon, 40.7008, -73.9011) <= err + venues[1].radius_m
        assert venue_hits(venues, lat, lon, err) == [0]
        assert len(calls) == 2

    def test_one_meter_outside_excluded(self):
        d = haversine_m(0.0, 0.0, 0.0, 0.004)
        assert venue_hits([Venue("v", "cafe", 0.0, 0.004, d - 1.0)], 0.0, 0.0, 0.0) == []

    def test_empty_catalog(self):
        assert venue_hits([], 0.0, 0.0, 100.0) == []
        assert candidate_venues([], [], [], venue_columns([])).shape == (0, 2)

    def test_grid_matches_brute_force(self):
        rng = np.random.default_rng(42)
        venues = [
            Venue(f"v{i}", "c", float(40 + rng.uniform(-0.05, 0.05)),
                  float(-73 + rng.uniform(-0.05, 0.05)), float(rng.uniform(5, 120)))
            for i in range(200)
        ]
        lat = 40 + rng.uniform(-0.05, 0.05, 100)
        lon = -73 + rng.uniform(-0.05, 0.05, 100)
        err = rng.uniform(0, 800, 100)
        expect = [
            [k, i] for k in range(100) for i, v in enumerate(venues)
            if haversine_m(lat[k], lon[k], v.lat, v.lon) <= err[k] + v.radius_m
        ]
        assert candidate_venues(lat, lon, err, venue_columns(venues)).tolist() == expect

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 13])
    def test_batched_query_equals_one_query_per_update(self, monkeypatch, chunk):
        # chunks of the band's pairs cut through one update's band, or hold many
        monkeypatch.setattr(ingest, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(8)
        venues = [Venue(f"v{i}", "c", float(rng.uniform(-0.02, 0.02)),
                        float(rng.uniform(179.98, 180.0) if i % 2 else rng.uniform(-180, -179.98)),
                        float(rng.uniform(5, 120))) for i in range(150)]
        lat = rng.uniform(-0.02, 0.02, 60)
        lon = np.where(rng.random(60) < 0.5, rng.uniform(179.98, 180.0, 60),
                       rng.uniform(-180.0, -179.98, 60))
        err = rng.uniform(0, 900, 60)
        index = VenueIndex(venues)
        expect = [[k, i] for k in range(60) for i in index.query(lat[k], lon[k], err[k])]
        assert candidate_venues(lat, lon, err, venue_columns(venues)).tolist() == expect

    def test_polar_neighbour_across_meridians(self):
        # 222.4 m apart across the pole; the old 0.01-degree grid's polar
        # clamp kept its longitude scan too narrow and missed this venue
        v = Venue("v", "c", 89.999, 170.0, 10.0)
        assert haversine_m(89.999, -10.0, 89.999, 170.0) == pytest.approx(222.39, abs=0.01)
        assert venue_hits([v], 89.999, -10.0, 300.0) == [0]

    @settings(max_examples=300)
    @given(sphere_queries())
    @example((0.0, 0.0, 2.5e7, []))
    @example((90.0, 180.0, 0.0, [Venue("a", "c", 90.0, -180.0, 1.0),
                                 Venue("b", "c", 90.0, 0.0, 1.0)]))
    # near-antipodal boundary: the query radius equals the haversine
    # distance minus the venue radius, where the haversine angle is
    # ill-conditioned and a latitude band taken from it alone is too narrow
    @example((89.99999999976397, -92.07811695512129, 19531679.37359643,
              [Venue("v", "c", -89.9999959411595, 126.6379556341588, 483406.95733806404)]))
    def test_query_matches_brute_force_on_sphere(self, case):
        lat, lon, radius, venues = case
        expect = [
            i for i, v in enumerate(venues)
            if haversine_m(lat, lon, v.lat, v.lon) <= radius + v.radius_m
        ]
        assert venue_hits(venues, lat, lon, radius) == expect


class TestSlotOf:
    SCHEME = SlotScheme(mode="daypart", epoch_day=dt.date(1970, 1, 1))

    def test_first_bin(self):
        # local 01:30 on day 0
        assert slot_of(1.5 * 3600, 0, self.SCHEME) == 0

    def test_second_bin(self):
        # local 08:15 on day 0
        assert slot_of(8.25 * 3600, 0, self.SCHEME) == 1

    def test_day_two_afternoon(self):
        # 14:00 falls in [13, 15), the fifth interval, i.e. bin index 4
        # under the same zero-based numbering that sends 01:30 to slot 0
        assert slot_of(2 * 86400 + 14 * 3600, 0, self.SCHEME) == 24

    def test_edge_enumeration(self):
        edges = [(1, 0), (6.99, 0), (7, 1), (8.99, 1), (9, 2), (11, 3),
                 (13, 4), (15, 5), (17, 6), (19, 7), (21, 8), (22.99, 8), (23, 9)]
        for hour, expect in edges:
            assert slot_of(hour * 3600, 0, self.SCHEME) == expect

    def test_midnight_straddle(self):
        # 23:30 of day 0 and 00:30 of day 1 share day 0's last bin
        assert slot_of(23.5 * 3600, 0, self.SCHEME) == 9
        assert slot_of(86400 + 0.5 * 3600, 0, self.SCHEME) == 9

    def test_utc_offset_applied(self):
        # 06:30 UTC at offset -300 minutes is 01:30 local
        assert slot_of(6.5 * 3600, -300, self.SCHEME) == 0

    def test_before_window_rejected(self):
        # 00:30 of the epoch day belongs to the previous day's last bin
        assert slot_of(0.5 * 3600, 0, self.SCHEME) == -1
        scheme = SlotScheme(mode="daypart", epoch_day=dt.date(1970, 1, 2))
        assert slot_of(12 * 3600, 0, scheme) == -7

    def test_hourly_mode(self):
        scheme = SlotScheme(mode="hourly", epoch_day=dt.date(1970, 1, 1))
        assert scheme.bins_per_day == 24
        assert slot_of(0.0, 0, scheme) == 0
        assert slot_of(13 * 3600 + 59 * 60, 0, scheme) == 13
        assert slot_of(86400 + 5 * 3600, 0, scheme) == 29

    def test_daypart_partition_of_day(self):
        # every minute of a full local day maps to exactly one bin and the
        # bins tile the day in order
        counts = np.zeros(10, dtype=int)
        for minute in range(1440):
            ts = 86400 + minute * 60  # day 1, clear of the window edge
            slot = slot_of(float(ts), 0, self.SCHEME)
            bin_of_day = slot - 10 * ((slot + 10) // 10 - 1) if slot < 10 else slot % 10
            counts[slot % 10] += 1
        # bin widths in minutes: [6h, 2h x 8, 2h(straddle)] = [360, 120 x 9]
        assert counts.sum() == 1440
        assert counts[0] == 360
        assert all(counts[b] == 120 for b in range(1, 10))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SlotScheme(mode="weekly")

    @pytest.mark.parametrize("mode", ["daypart", "hourly"])
    def test_columns_match_oracle(self, mode):
        # local times on and beside every bin edge, across the epoch day and
        # at the years' limits, with offsets of any sign
        scheme = SlotScheme(mode=mode, epoch_day=dt.date(2024, 3, 4))
        rng = np.random.default_rng(3)
        edges = np.arange(0, 86400 * 3, 1800.0) + 1.7e9
        stamps = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 2e9),
                                 rng.uniform(-6.2e10, 2.5e11, 500), [-62135596800.0]])
        offsets = rng.choice([-720, -300, 0, 45, 330, 840], len(stamps))
        offsets[-1] = 0
        got = slot_of(stamps, offsets, scheme)
        assert got.dtype == np.int64
        assert got.tolist() == [oracle_slot_of(float(t), int(o), scheme)
                                for t, o in zip(stamps, offsets)]


CATMAP = {"Pizza Place": "Food", "Bank": "Bank", "Office": "Work"}


def nyc_fixture():
    updates = [
        upd("alice", 86400, 40.7580, -73.9855, 100, -300),
        upd("alice", 90000, 40.7580, -73.9855, 100, -300),
        upd("alice", 93600, 40.7484, -73.9857, 50, -300),
        upd("bob", 86400, 40.7484, -73.9857, 200, -300),
        upd("bob", 88200, 40.7614, -73.9776, 80, -300),
        upd("bob", 98200, 40.7614, -73.9776, 80, -300),
    ]
    venues = [
        Venue("v1", "Pizza Place", 40.7580, -73.9850, 30),
        Venue("v2", "Bank", 40.7582, -73.9860, 25),
        Venue("v3", "Office", 40.7484, -73.9857, 40),
    ]
    return updates, venues


class TestBuildCandidateSets:
    SCHEME = SlotScheme(mode="daypart", epoch_day=dt.date(1970, 1, 1))

    def test_hand_computed_fixture(self):
        updates, venues = nyc_fixture()
        res = build(updates, venues, self.SCHEME, CATMAP, 20 * 60)
        # alice's two surviving updates share slot 7 (19:00/20:00 local);
        # equal dwells keep the earlier one, which intersects v1 and v2;
        # bob's survivor reaches no venue, so bob drops out entirely
        assert res.user_ids == ["alice"]
        assert res.category_names == ["Bank", "Food", "Work"]
        assert res.dims.n_users == 1 and res.dims.n_slots == 8 and res.dims.n_categories == 3
        assert block_dict(res.omega) == {(0, 7): [0, 1]}

    def test_longest_dwell_wins(self):
        # two same-slot updates at different spots; the longer dwell (40 min)
        # decides which venue neighborhood contributes
        updates = [
            upd("u", 7 * 3600, 0.0, 0.0, 50, 0),          # dwell 25 min
            upd("u", 7 * 3600 + 1500, 0.5, 0.5, 50, 0),   # dwell 40 min
            upd("u", 7 * 3600 + 1500 + 2400, 0.5, 0.5, 50, 0),  # tail, dropped
        ]
        venues = [
            Venue("near_first", "Bank", 0.0, 0.0, 30),
            Venue("near_second", "Pizza Place", 0.5, 0.5, 30),
        ]
        res = build(updates, venues, self.SCHEME, CATMAP, 20 * 60)
        assert block_dict(res.omega) == {(0, 1): [1]}  # Food only

    def test_update_with_no_venues_absent(self):
        updates = [upd("u", 7 * 3600, 0, 0, 10, 0), upd("u", 10 * 3600, 0, 0, 10, 0)]
        venues = [Venue("far", "Bank", 50.0, 50.0, 30)]
        res = build(updates, venues, self.SCHEME, CATMAP, 60)
        assert res.omega.n_blocks == 0
        assert res.dims is None
        assert res.category_names == ["Bank", "Food", "Work"]

    def test_duplicate_categories_collapse(self):
        updates = [upd("u", 7 * 3600, 0, 0, 500, 0), upd("u", 10 * 3600, 0, 0, 10, 0)]
        venues = [
            Venue("b1", "Bank", 0.0, 0.0, 30),
            Venue("p1", "Pizza Place", 0.0, 0.001, 30),
            Venue("b2", "Bank", 0.0, -0.001, 30),
        ]
        res = build(updates, venues, self.SCHEME, CATMAP, 60)
        assert block_dict(res.omega) == {(0, 1): [0, 1]}  # {Bank, Food}

    def test_unknown_category_rejected_or_bucketed(self):
        updates = [upd("u", 7 * 3600, 0, 0, 100, 0), upd("u", 10 * 3600, 0, 0, 10, 0)]
        venues = [Venue("x", "Mystery Spot", 0.0, 0.0, 30)]
        with pytest.raises(ValueError):
            build(updates, venues, self.SCHEME, CATMAP, 60)
        res = build(updates, venues, self.SCHEME, CATMAP, 60,
                                   other_category="Other")
        assert res.category_names == ["Bank", "Food", "Other", "Work"]
        assert block_dict(res.omega) == {(0, 1): [2]}
        # an empty name is a name: on the axis, not a crash
        res = build(updates, venues, self.SCHEME, CATMAP, 60, other_category="")
        assert res.category_names == ["", "Bank", "Food", "Work"]
        assert block_dict(res.omega) == {(0, 1): [0]}

    def test_unmapped_category_names_venue_and_line(self):
        # of two unmapped venues that kept updates reach, the one on the lower line
        updates = [upd("u", 7 * 3600, 0, 0, 500, 0), upd("u", 10 * 3600, 0, 0, 10, 0)]
        venues = [Venue("far", "Mystery Spot", 50.0, 50.0, 30),
                  Venue("b1", "Bank", 0.0, 0.0, 30),
                  Venue("x2", "Gym", 0.0, 0.002, 30),
                  Venue("x1", "Mystery Spot", 0.0, 0.001, 30)]
        with pytest.raises(ValueError):
            build(updates, venues, self.SCHEME, CATMAP, 60)
        with pytest.raises(ValueError) as err:
            build_candidate_sets(update_columns(updates), venue_columns(venues), self.SCHEME,
                                 CATMAP, 60)
        assert str(err.value) == "unmapped category 'Gym' of venue 'x2' in venues.csv line 4"

    def test_funnel_counts_each_drop(self):
        updates = [
            upd("a", 1800, 0, 0, 500, 0),           # 00:30 on the epoch day: before the window
            upd("a", 7 * 3600, 0, 0, 500, 0),       # slot 1, dwell 60 min: kept
            upd("a", 8 * 3600, 0, 0, 500, 0),       # dwell 10 min: dropped
            upd("a", 8 * 3600 + 600, 0, 0, 500, 0),   # slot 1, dwell 20 min: deduplicated
            upd("a", 8 * 3600 + 1800, 0, 0, 500, 0),  # slot 1, dwell 30 min: deduplicated
            upd("a", 9 * 3600, 50, 50, 10, 0),      # slot 2, reaches no venue
            upd("a", 12 * 3600, 0, 0, 10, 0),       # last of its user
            upd("b", 0, 0, 0, 10, 0),               # the only update of its user
        ]
        res = build(updates, [Venue("b1", "Bank", 0.0, 0.0, 30)], self.SCHEME, CATMAP, 15 * 60)
        assert res.funnel == {"rows_read": 8, "dwell_dropped": 3, "before_window": 1,
                              "dedup_dropped": 2, "no_venue_dropped": 1, "blocks_kept": 1}
        assert block_dict(res.omega) == {(0, 1): [0]}

    def test_updates_before_window_dropped_and_counted(self):
        updates = [
            upd("u", 1800, 0, 0, 500, 0),      # 00:30 on the epoch day: slot -1
            upd("u", 7 * 3600, 0, 0, 500, 0),
            upd("u", 10 * 3600, 0, 0, 10, 0),
        ]
        venues = [Venue("b1", "Bank", 0.0, 0.0, 30)]
        assert slot_of(1800, 0, self.SCHEME) == -1
        res = build(updates, venues, self.SCHEME, CATMAP, 60)
        assert res.funnel["before_window"] == 1
        assert block_dict(res.omega) == {(0, 1): [0]}
        only_early = build(updates[:2], venues, self.SCHEME, CATMAP, 60)
        assert only_early.funnel["before_window"] == 1 and only_early.dims is None

    def test_pipeline_deterministic(self):
        updates, venues = nyc_fixture()
        a = build(updates, venues, self.SCHEME, CATMAP, 20 * 60)
        b = build(list(reversed(updates)), venues, self.SCHEME, CATMAP, 20 * 60)
        assert block_dict(a.omega) == block_dict(b.omega)
        assert a.user_ids == b.user_ids


ORACLE_VENUES = [
    Venue("v1", "Bank", 0.0, 0.0, 30.0),
    Venue("v2", "Pizza Place", 0.0, 0.002, 30.0),  # 222 m east of v1
    Venue("v3", "Mystery Spot", 0.01, 0.0, 30.0),  # 1.1 km north, unmapped
]


def oracle_blocks(updates, scheme, min_dwell_s, other_category):
    """build_candidate_sets by brute force, over ORACLE_VENUES.

    ({(user id, slot): sorted canonical names}, before_window); None for
    the names of a block that hits an unmapped venue with no fallback.
    An update's successor is the same user's next update in (time, input
    position) order.
    """
    keyed = [((u.timestamp_utc, pos), u) for pos, u in enumerate(updates)]
    best, before_window = {}, 0
    for key, u in keyed:
        later = [k for k, v in keyed if v.user_id == u.user_id and k > key]
        if not later:
            continue
        dwell = min(later)[0] - key[0]
        if dwell < min_dwell_s:
            continue
        slot = oracle_slot_of(u.timestamp_utc, u.utc_offset_minutes, scheme)
        if slot < 0:
            before_window += 1
            continue
        cur = best.get((u.user_id, slot))
        # the longest dwell wins; of equal dwells, the earlier update
        if cur is None or (-dwell, key) < (-cur[0], cur[1]):
            best[(u.user_id, slot)] = (dwell, key, u)
    blocks = {}
    for block, (_, _, u) in best.items():
        names = {CATMAP.get(v.category, other_category) for v in ORACLE_VENUES
                 if haversine_m(u.lat, u.lon, v.lat, v.lon) <= u.error_radius_m + v.radius_m}
        if names:
            blocks[block] = None if None in names else sorted(names)
    return blocks, before_window


@st.composite
def update_walks(draw):
    """Updates of three users in any order, on a half-hour grid of
    timestamps from the epoch (equal stamps, dwell ties, and local times
    before the window), with UTC offsets that vary within a user."""
    update = st.builds(
        LocationUpdate,
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 16).map(lambda k: 1800.0 * k),
        st.sampled_from([0.0, 0.01]),
        st.sampled_from([0.0, 0.001, 0.002]),
        st.sampled_from([10.0, 150.0, 300.0]),
        st.sampled_from([-120, 0, 45, 330]),
    )
    return (draw(st.lists(update, max_size=14)),
            SlotScheme(mode=draw(st.sampled_from(["daypart", "hourly"]))),
            draw(st.sampled_from([0.0, 1800.0, 3600.0])),
            draw(st.sampled_from([None, "Other", ""])))


class TestPipelineOracle:
    @settings(max_examples=300, deadline=None)
    @given(update_walks())
    def test_matches_brute_force(self, walk):
        updates, scheme, min_dwell_s, other_category = walk
        expect, before_window = oracle_blocks(updates, scheme, min_dwell_s, other_category)
        if None in expect.values():
            with pytest.raises(ValueError, match="unmapped category 'Mystery Spot'"):
                build(updates, ORACLE_VENUES, scheme, CATMAP, min_dwell_s, other_category)
            return
        res = build(updates, ORACLE_VENUES, scheme, CATMAP, min_dwell_s, other_category)
        got = {(res.user_ids[u], j): [res.category_names[k] for k in cats]
               for (u, j), cats in block_dict(res.omega).items()}
        assert got == expect
        assert res.funnel["before_window"] == before_window
        assert res.user_ids == sorted({uid for uid, _ in expect})
        if expect:
            assert (res.dims.n_users, res.dims.n_slots, res.dims.n_categories) == (
                len(res.user_ids), max(j for _, j in expect) + 1, len(res.category_names))
        else:
            assert res.dims is None


@st.composite
def sphere_walks(draw):
    """Updates of two users anywhere on the sphere, poles and antimeridian
    included, with venues beside them and far away, dwell ties, updates
    before the window, mapped, unmapped and fallback categories."""
    lats, lons = st.lists(LATITUDES, min_size=1, max_size=4), st.lists(LONGITUDES, min_size=1,
                                                                       max_size=4)
    spots = list(zip(draw(lats), draw(lons)))
    step = st.floats(-0.002, 0.002)
    near = st.tuples(st.sampled_from(spots), step, step).map(lambda s: (
        min(90.0, max(-90.0, s[0][0] + s[1])), (s[0][1] + s[2] + 180.0) % 360.0 - 180.0))
    venue = st.builds(lambda p, cat, r: (p, cat, r), st.one_of(near, st.sampled_from(spots)),
                      st.sampled_from(["Bank", "Pizza Place", "Office", "Mystery Spot"]),
                      st.floats(1.0, 300.0))
    venues = [Venue(f"v{i}", cat, lat, lon, r)
              for i, ((lat, lon), cat, r) in enumerate(draw(st.lists(venue, max_size=10)))]
    update = st.builds(lambda uid, k, p, err, off: LocationUpdate(uid, 1800.0 * k, *p, err, off),
                       st.sampled_from(["b", "a"]), st.integers(0, 12),
                       st.one_of(near, st.sampled_from(spots)), st.floats(0.0, 400.0),
                       st.sampled_from([-60, 0, 90]))
    return (draw(st.lists(update, max_size=12)), venues,
            SlotScheme(mode=draw(st.sampled_from(["daypart", "hourly"]))),
            draw(st.sampled_from([0.0, 1800.0])), draw(st.sampled_from([None, "Other"])))


class TestPipelineOnSphere:
    @settings(max_examples=200, deadline=None)
    @given(sphere_walks())
    def test_columns_match_oracle(self, walk):
        updates, venues, scheme, min_dwell_s, other_category = walk
        try:
            build(updates, venues, scheme, CATMAP, min_dwell_s, other_category)
        except ValueError as exc:  # both raised it; build checked that
            assert "unmapped category 'Mystery Spot'" in str(exc)


class TestCsvReaders:
    def test_updates_round_trip(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text(
            "user_id,timestamp_utc,lat,lon,error_radius_m,utc_offset_minutes\n"
            "a,100,40.0,-73.5,50,-300\n"
            "b,200,41.0,-72.5,150,60\n"
        )
        ups = read_updates_csv(p)
        assert len(ups) == 2
        assert [ups.user_ids[u] for u in ups.user] == ["a", "b"]
        assert ups.timestamp_utc.tolist() == [100.0, 200.0]
        assert ups.lat.tolist() == [40.0, 41.0] and ups.lon.tolist() == [-73.5, -72.5]
        assert ups.error_radius_m.tolist() == [50.0, 150.0]
        assert ups.utc_offset_minutes.tolist() == [-300.0, 60.0]
        assert ups.line.tolist() == [2, 3]

    def test_updates_bad_header(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text("user,ts\na,1\n")
        with pytest.raises(InputDataError, match="line 1"):
            read_updates_csv(p)

    def test_updates_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text(
            "user_id,timestamp_utc,lat,lon,error_radius_m,utc_offset_minutes\n"
            "a,100,40.0,-73.5,50,-300\n"
            "b,not_a_number,41.0,-72.5,150,60\n"
        )
        with pytest.raises(InputDataError, match="line 3"):
            read_updates_csv(p)

    def test_updates_out_of_bounds_coordinates(self, tmp_path):
        p = tmp_path / "u.csv"
        p.write_text(
            "user_id,timestamp_utc,lat,lon,error_radius_m,utc_offset_minutes\n"
            "a,100,95.0,-73.5,50,0\n"
        )
        with pytest.raises(InputDataError, match="line 2"):
            read_updates_csv(p)

    def test_venues_and_catmap(self, tmp_path):
        v = tmp_path / "v.csv"
        v.write_text("venue_id,category,lat,lon,radius_m\nv1,Bank,40,-73,25\n")
        venues = read_venues_csv(v)
        assert len(venues) == 1 and venues.path == str(v)
        assert (venues.venue_ids, venues.category_names, venues.category.tolist()) == (
            ["v1"], ["Bank"], [0])
        assert (venues.lat.tolist(), venues.lon.tolist(), venues.radius_m.tolist(),
                venues.line.tolist()) == ([40.0], [-73.0], [25.0], [2])
        m = tmp_path / "m.csv"
        m.write_text("raw_category,canonical_category\nBank,Bank\nPizza Place,Food\n")
        assert read_category_map_csv(m) == {"Bank": "Bank", "Pizza Place": "Food"}

    def test_catmap_conflicting_duplicate(self, tmp_path):
        m = tmp_path / "m.csv"
        m.write_text("raw_category,canonical_category\nBank,Bank\nBank,Food\n")
        with pytest.raises(InputDataError, match="line 3"):
            read_category_map_csv(m)

    @pytest.mark.parametrize("stamp", ["nan", "inf"])
    def test_updates_non_finite_timestamp_names_line(self, tmp_path, stamp):
        # a nan stamp used to drop itself and its predecessor from the dwell
        # filter; an inf stamp gave its predecessor an infinite dwell
        p = tmp_path / "u.csv"
        p.write_text(
            "user_id,timestamp_utc,lat,lon,error_radius_m,utc_offset_minutes\n"
            "a,100,40.0,-73.5,50,0\n"
            f"a,{stamp},40.0,-73.5,50,0\n"
        )
        with pytest.raises(InputDataError, match="line 3"):
            read_updates_csv(p)

    # slot_of turned these into Python ints past int64, which failed later
    # as a numerical error naming no file or line
    @pytest.mark.parametrize("stamp,offset", [
        ("1e300", "0"), ("-1e300", "0"), ("253402300801", "0"), ("0", "-1035616320"),
        ("0", "1" + "0" * 400),
    ], ids=["1e300", "-1e300", "year 10000", "offset before year 1", "offset past float"])
    def test_updates_local_time_outside_years_1_to_9999_names_line(self, tmp_path, stamp,
                                                                   offset):
        p = tmp_path / "updates.csv"
        p.write_text(
            "user_id,timestamp_utc,lat,lon,error_radius_m,utc_offset_minutes\n"
            "a,100,40.0,-73.5,50,0\n"
            f"a,{stamp},40.0,-73.5,50,{offset}\n"
        )
        with pytest.raises(InputDataError, match=r"updates\.csv line 3: "):
            read_updates_csv(p)

    def test_updates_local_time_at_the_year_limits_kept(self, tmp_path):
        first, last = -62135596800, 253402300799
        p = tmp_path / "updates.csv"
        p.write_text("user_id,timestamp_utc,lat,lon,error_radius_m,utc_offset_minutes\n"
                     f"a,{first},40.0,-73.5,50,0\na,{last},40.0,-73.5,50,0\n")
        ups = read_updates_csv(p)
        scheme = SlotScheme("hourly", epoch_day=dt.date(1, 1, 1))
        slots = slot_of(ups.timestamp_utc, ups.utc_offset_minutes, scheme)
        assert slots.tolist() == [0, 3_652_059 * 24 - 1]

    def test_venue_radius_must_be_finite(self, tmp_path):
        v = tmp_path / "v.csv"
        v.write_text("venue_id,category,lat,lon,radius_m\nv1,Bank,40,-73,25\nv2,Bank,40,-73,inf\n")
        with pytest.raises(InputDataError, match="line 3"):
            read_venues_csv(v)

    def test_field_over_csv_limit_names_line(self, tmp_path):
        # the csv module rejects a field over 128 KiB with its own error type
        v = tmp_path / "v.csv"
        v.write_text("venue_id,category,lat,lon,radius_m\nv1,Bank,40,-73,25\n"
                     f"v2,{'B' * 200_000},40,-73,25\n")
        with pytest.raises(InputDataError, match="line 3: field larger than field limit"):
            read_venues_csv(v)

    def test_venue_radius_must_be_positive(self, tmp_path):
        v = tmp_path / "v.csv"
        v.write_text("venue_id,category,lat,lon,radius_m\nv1,Bank,40,-73,0\n")
        with pytest.raises(InputDataError, match="line 2"):
            read_venues_csv(v)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("seed, n_users", [(1, 60), (2, 60), (3, 600)],
                         ids=["ingest-city seed 1", "ingest-city seed 2", "600 users"])
def test_city_bytes_match_oracle(tmp_path, monkeypatch, capsys, seed, n_users):
    """nutf preprocess on the benchmark's synthetic city (20k venues) writes
    the oracle pipeline's omega.jsonl and index_maps.json, byte for byte."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    city = importlib.import_module("city")
    data = tmp_path / "city"
    city.write_city(data, seed, city.CitySpec(n_users=n_users))
    inputs = [data / "updates.csv", data / "venues.csv", data / "categories.csv"]
    assert main(["preprocess", "--updates", str(inputs[0]), "--venues", str(inputs[1]),
                 "--catmap", str(inputs[2]), "--epoch-day", city.EPOCH_DAY,
                 "--min-dwell-min", "20", "--out", str(tmp_path / "p")]) == 0
    oracle_preprocess(*inputs, SlotScheme("daypart", dt.date.fromisoformat(city.EPOCH_DAY)),
                      20 * 60.0, tmp_path / "o")
    for name in ("omega.jsonl", "index_maps.json"):
        assert (tmp_path / "p" / name).read_bytes() == (tmp_path / "o" / name).read_bytes()
    report = json.loads((tmp_path / "p" / "report.json").read_text())
    assert report["rows_read"] == n_users * city.CitySpec(n_users=n_users).slots_per_user
    assert report["blocks_kept"] == report["rows_read"] - n_users
