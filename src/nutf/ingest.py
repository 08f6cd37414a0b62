"""Raw location updates -> per-(user, slot) candidate category sets.

The CSV readers parse each row straight into typed columns (``Updates``,
``Venues``), keeping its line number. ``build_candidate_sets`` then works
on whole columns: it estimates dwell times from consecutive timestamps and
drops short visits, quantizes local time into slots, keeps the
longest-dwell update per (user, slot), intersects each kept update's
uncertainty circle with the venue catalog in one batched query, and maps
venue categories through a caller-supplied taxonomy.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from array import array
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import CandidateSets, ProblemDims
from .serialize import InputDataError, iter_records, text_lines

EARTH_RADIUS_M = 6_371_000.0

# Non-uniform dayparts: 1am-7am is one bin (little night activity), then
# two-hour bins; hours [23, 24) and the following [0, 1) share the last bin.
_DAYPART_EDGES = np.array([1, 7, 9, 11, 13, 15, 17, 19, 21, 23], dtype=np.float64)

UPDATES_HEADER = ["user_id", "timestamp_utc", "lat", "lon", "error_radius_m",
                  "utc_offset_minutes"]
VENUES_HEADER = ["venue_id", "category", "lat", "lon", "radius_m"]
CATMAP_HEADER = ["raw_category", "canonical_category"]

# Local times, in seconds from 1970-01-01, that an update may have: the
# years 1 to 9999 of datetime, whose slots all fit an int64.
_LOCAL_MIN_S = (dt.datetime.min - dt.datetime(1970, 1, 1)).total_seconds()
_LOCAL_MAX_S = (dt.datetime.max - dt.datetime(1970, 1, 1)).total_seconds()

# (update, venue) pairs of the latitude band tested at once: about 1 MiB of
# temporaries, whatever the number of updates
_PAIR_CHUNK = 1 << 13


@dataclass(frozen=True)
class SlotScheme:
    """Maps local timestamps to slot indices counted from epoch_day.

    ``daypart`` uses the 10 non-uniform bins above; ``hourly`` uses 24.
    Slot index = days_since_epoch_day * bins_per_day + bin_of_day.
    """

    mode: str = "daypart"
    epoch_day: dt.date = dt.date(1970, 1, 1)

    def __post_init__(self) -> None:
        if self.mode not in ("daypart", "hourly"):
            raise ValueError(f"unknown slot mode {self.mode!r}")

    @property
    def bins_per_day(self) -> int:
        return 10 if self.mode == "daypart" else 24


@dataclass(eq=False)
class Updates:
    """Location updates as columns, one entry per CSV row.

    ``user`` indexes ``user_ids`` (distinct ids, first-seen order).
    ``utc_offset_minutes`` is held as a float, the value that local time
    (``timestamp_utc + 60 * utc_offset_minutes``) is computed from, and
    ``line`` is each row's line in its file.
    """

    user_ids: list[str]
    user: np.ndarray
    timestamp_utc: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    error_radius_m: np.ndarray
    utc_offset_minutes: np.ndarray
    line: np.ndarray

    def __len__(self) -> int:
        return len(self.line)

    @classmethod
    def from_rows(cls, path, rows) -> "Updates":
        """Columns of the (line number, fields) rows of the file ``path``;
        a bad row names the file and line."""
        ids: dict[str, int] = {}
        user, line = array("q"), array("q")
        floats = tuple(array("d") for _ in range(5))
        for lineno, (uid, *values) in iter_records(path, rows, _update_fields):
            user.append(ids.setdefault(uid, len(ids)))
            for col, value in zip(floats, values):
                col.append(value)
            line.append(lineno)
        return cls(list(ids), _column(user), *map(_column, floats), _column(line))


@dataclass(eq=False)
class Venues:
    """A venue catalog as columns, one entry per CSV row of ``path``.

    ``category`` indexes ``category_names`` (distinct raw categories,
    first-seen order); ``line`` is each row's line in ``path``.
    """

    path: str
    venue_ids: list[str]
    category_names: list[str]
    category: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    radius_m: np.ndarray
    line: np.ndarray

    def __len__(self) -> int:
        return len(self.line)

    @classmethod
    def from_rows(cls, path, rows) -> "Venues":
        """Columns of the (line number, fields) rows of the file ``path``;
        a bad row names the file and line."""
        ids: list[str] = []
        names: dict[str, int] = {}
        category, line = array("q"), array("q")
        floats = tuple(array("d") for _ in range(3))
        for lineno, (vid, raw, *values) in iter_records(path, rows, _venue_fields):
            ids.append(vid)
            category.append(names.setdefault(raw, len(names)))
            for col, value in zip(floats, values):
                col.append(value)
            line.append(lineno)
        return cls(str(path), ids, list(names), _column(category), *map(_column, floats),
                   _column(line))


def _column(values: array) -> np.ndarray:
    """The array's values as a numpy array over the same memory."""
    return np.frombuffer(values, dtype=np.int64 if values.typecode == "q" else np.float64)


def _update_fields(row) -> tuple:
    uid, ts, lat, lon, err, offset = (row[0], float(row[1]), float(row[2]), float(row[3]),
                                      float(row[4]), int(row[5]))
    if not math.isfinite(ts):
        raise ValueError(f"timestamp {ts} must be finite")
    local = ts + offset * 60.0
    if not _LOCAL_MIN_S <= local <= _LOCAL_MAX_S:
        raise ValueError(f"local time {local:g} s (timestamp {ts:g} plus offset {offset} min) "
                         "falls outside the years 1 to 9999")
    _check_position(lat, lon)
    if not (math.isfinite(err) and err >= 0):
        raise ValueError(f"error radius {err} must be finite and >= 0")
    return uid, ts, lat, lon, err, float(offset)


def _venue_fields(row) -> tuple:
    vid, raw, lat, lon, radius = row[0], row[1], float(row[2]), float(row[3]), float(row[4])
    _check_position(lat, lon)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"venue radius {radius} must be finite and > 0")
    return vid, raw, lat, lon, radius


def _check_position(lat: float, lon: float) -> None:
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} out of bounds")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon} out of bounds")


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters (mean Earth radius 6371 km).

    Uses the spherical Vincenty form, atan2 of the sine and cosine of the
    central angle, which is well conditioned at every range; the haversine
    form's asin loses about half the digits near antipodes.
    """
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    s1, c1, s2, c2 = math.sin(p1), math.cos(p1), math.sin(p2), math.cos(p2)
    sin_angle = math.hypot(c2 * math.sin(dlam), c1 * s2 - s1 * c2 * math.cos(dlam))
    cos_angle = s1 * s2 + c1 * c2 * math.cos(dlam)
    return EARTH_RADIUS_M * math.atan2(sin_angle, cos_angle)


def _unit_vectors(lat, lon) -> np.ndarray:
    """Points on the unit sphere, shape (..., 3), for degree coordinates."""
    phi, lam = np.radians(lat), np.radians(lon)
    return np.stack([np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)],
                    axis=-1)


def candidate_venues(lat, lon, radius_m, venues: Venues) -> np.ndarray:
    """(update, venue) index pairs whose circles intersect, shape (hits, 2).

    Update k is the circle of ``radius_m[k]`` around ``(lat[k], lon[k])``.
    A pair is a candidate when ``haversine_m(update, venue) <= radius_m +
    venue radius``; the boundary is inclusive. Pairs come sorted by update,
    then venue.

    A query's reach is its radius plus the largest venue radius. Venues
    sorted by latitude give each update the band that reach allows (a
    great-circle distance is never less than the meridian distance), and
    the matching unit-sphere chord narrows the band's pairs; both filters
    only over-include, poles and antimeridian included. haversine_m then
    decides each remaining pair.
    """
    lat, lon, radius_m = (np.asarray(a, dtype=np.float64) for a in (lat, lon, radius_m))
    if not len(venues) or not len(lat):
        return np.empty((0, 2), dtype=np.int64)
    order = np.argsort(venues.lat, kind="stable")
    v_lat, v_lon = venues.lat[order], venues.lon[order]
    v_radius = venues.radius_m[order]
    v_xyz = _unit_vectors(v_lat, v_lon)
    q_xyz = _unit_vectors(lat, lon)
    angle = np.minimum(math.pi, (radius_m + v_radius.max()) / EARTH_RADIUS_M)
    # Unit chord plus 1e-9 (~6 mm), far above its ~1e-16 rounding and
    # above the ~1e-15 rad rounding of the distance that decides each
    # pair, so both filters only over-include.
    chord = 2.0 * np.sin(angle / 2.0) + 1e-9
    band = np.degrees(2.0 * np.arcsin(np.minimum(1.0, chord / 2.0)))
    lo = np.searchsorted(v_lat, lat - band, side="left")
    counts = np.searchsorted(v_lat, lat + band, side="right") - lo
    first = np.cumsum(counts) - counts  # each query's first pair, counted over all queries

    found = []
    start = 0
    while start < len(lat):
        stop = max(start + 1, int(np.searchsorted(first, first[start] + _PAIR_CHUNK)))
        n = counts[start:stop]
        q = np.repeat(np.arange(start, stop), n)
        # the band positions of each query: lo, lo + 1, ..., lo + n - 1
        pos = np.arange(len(q)) + np.repeat(lo[start:stop] - first[start:stop] + first[start], n)
        diff = v_xyz[pos] - q_xyz[q]
        near = np.einsum("ij,ij->i", diff, diff) <= chord[q] ** 2
        q, pos = q[near], pos[near]
        pairs = zip(lat[q].tolist(), lon[q].tolist(), v_lat[pos].tolist(),
                    v_lon[pos].tolist(), (radius_m[q] + v_radius[pos]).tolist())
        hit = np.array([haversine_m(a, b, c, d) <= limit for a, b, c, d, limit in pairs],
                       dtype=bool)
        found.append((q[hit], order[pos[hit]]))
        start = stop
    q = np.concatenate([f[0] for f in found])
    v = np.concatenate([f[1] for f in found])
    keep = np.lexsort((v, q))
    return np.stack([q[keep], v[keep]], axis=1)


def slot_of(timestamp_utc, utc_offset_minutes, scheme: SlotScheme):
    """Slot index of each local time under the scheme, elementwise (int64).

    Local time is UTC plus the per-record offset. The index is signed:
    a timestamp before the scheme's epoch day (after the midnight-straddle
    adjustment) gets a negative slot, which callers treat as outside the
    window. Local times must lie in the years 1 to 9999.
    """
    local = np.asarray(timestamp_utc, dtype=np.float64) + np.asarray(
        utc_offset_minutes, dtype=np.float64) * 60.0
    day = np.floor(local / 86400.0)
    hour = (local - day * 86400.0) / 3600.0
    day = day.astype(np.int64)
    if scheme.mode == "hourly":
        binned = np.trunc(hour).astype(np.int64)
    else:
        # [0, 1) belongs to the previous day's last bin, as does [23, 24)
        early = hour < 1.0
        day = day - early
        binned = np.where(early | (hour >= 23.0), 9,
                          np.searchsorted(_DAYPART_EDGES, hour, side="right") - 1)
    epoch_days = (scheme.epoch_day - dt.date(1970, 1, 1)).days
    return (day - epoch_days) * scheme.bins_per_day + binned


@dataclass
class IngestResult:
    omega: CandidateSets
    dims: ProblemDims | None  # None when no update produced a candidate set
    user_ids: list[str]
    category_names: list[str]
    # what became of each update, in pipeline order; the counts sum to rows_read
    funnel: dict[str, int]


def build_candidate_sets(
    updates: Updates,
    venues: Venues,
    scheme: SlotScheme,
    category_map: Mapping[str, str],
    min_dwell_s: float,
    other_category: str | None = None,
) -> IngestResult:
    """Run the full ingestion pipeline, one whole-column step at a time.

    The updates are sorted by (user, time), stably, with user ids in
    code-point order: an update's dwell is the gap to the next update when
    that one is the same user's, so each user's last update drops out, as
    does a dwell under ``min_dwell_s``. Survivors are assigned to slots
    (those before the window are dropped and counted in the funnel),
    deduplicated per (user, slot) by keeping the longest dwell (ties keep
    the earlier update), and intersected with the venue catalog in one
    ``candidate_venues`` query.
    Venue categories map through ``category_map``; unknown raw categories
    raise, naming the venue of the lowest line, unless ``other_category``
    provides a fallback canonical name.

    The category axis covers every canonical name in the map (sorted),
    not just the observed ones, so the index stays stable across data
    sets sharing a taxonomy. Users whose updates all fall away are absent
    from the user index. ``funnel`` counts, in order, the updates read,
    those dropped at each step and the blocks kept.

    ``oracle_build_candidate_sets`` in ``tests/conftest.py`` is the same
    pipeline one update at a time; the outputs of the two agree byte for
    byte.
    """
    other = set() if other_category is None else {other_category}
    canonical = sorted(set(category_map.values()) | other)
    cat_index = {name: i for i, name in enumerate(canonical)}

    # each row's user as the rank of its id in code-point order
    id_order = sorted(range(len(updates.user_ids)), key=updates.user_ids.__getitem__)
    rank = np.empty(len(id_order), dtype=np.int64)
    rank[id_order] = np.arange(len(id_order))
    user = rank[updates.user]
    order = np.lexsort((updates.timestamp_utc, user))
    ts = updates.timestamp_utc[order]
    with np.errstate(over="ignore"):  # two finite stamps can lie more than 1.8e308 apart
        dwell = ts[1:] - ts[:-1]
    kept = (user[order[1:]] == user[order[:-1]]) & (dwell >= min_dwell_s)
    rows, dwell = order[:-1][kept], dwell[kept]

    slot = slot_of(updates.timestamp_utc[rows], updates.utc_offset_minutes[rows], scheme)
    in_window = slot >= 0
    rows, dwell, slot = rows[in_window], dwell[in_window], slot[in_window]
    # per (user, slot), the longest dwell; the stable sort keeps the earlier of equals
    by_block = np.lexsort((-dwell, slot, user[rows]))
    rows, slot = rows[by_block], slot[by_block]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (user[rows[1:]] != user[rows[:-1]]) | (slot[1:] != slot[:-1])
    rows, slot = rows[first], slot[first]

    hits = candidate_venues(updates.lat[rows], updates.lon[rows],
                            updates.error_radius_m[rows], venues)
    fallback = -1 if other_category is None else cat_index[other_category]
    canon_of_raw = np.array([cat_index.get(category_map.get(name), fallback)
                             for name in venues.category_names], dtype=np.int64)
    hit_cats = canon_of_raw[venues.category[hits[:, 1]]]
    if (hit_cats < 0).any():
        v = int(hits[hit_cats < 0, 1].min())
        raise ValueError(
            f"unmapped category {venues.category_names[venues.category[v]]!r} of venue "
            f"{venues.venue_ids[v]!r} in {venues.path} line {venues.line[v]}")
    # each block's distinct categories, increasing, blocks in (user, slot) order
    n_cats = max(1, len(canonical))  # the map is empty only when no venue is hit
    block, cats = np.divmod(np.unique(hits[:, 0] * n_cats + hit_cats), n_cats)
    blocks, sizes = np.unique(block, return_counts=True)
    ptr = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])

    block_user = user[rows[blocks]]
    kept_users = np.unique(block_user)
    user_ids = [updates.user_ids[id_order[r]] for r in kept_users.tolist()]
    omega = CandidateSets(np.searchsorted(kept_users, block_user), slot[blocks], ptr, cats)
    dims = ProblemDims(len(user_ids), int(slot[blocks].max()) + 1,
                       len(canonical)) if len(blocks) else None
    n_kept = int(kept.sum())
    funnel = {
        "rows_read": len(updates),
        "dwell_dropped": len(updates) - n_kept,
        "before_window": n_kept - int(in_window.sum()),
        "dedup_dropped": int(in_window.sum()) - len(rows),
        "no_venue_dropped": len(rows) - len(blocks),
        "blocks_kept": len(blocks),
    }
    return IngestResult(omega=omega, dims=dims, user_ids=user_ids, category_names=canonical,
                        funnel=funnel)


# -- CSV readers ---------------------------------------------------------


def _open_rows(path, expected_header: list[str]):
    """(line number, fields) of each non-blank row after the CSV file's header."""
    reader = csv.reader(line for _, line in text_lines(path))
    try:
        if [h.strip() for h in next(reader, [])] != expected_header:
            raise InputDataError(f"{path} line 1: expected header {','.join(expected_header)}")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(expected_header):
                raise InputDataError(f"{path} line {reader.line_num}: expected "
                                     f"{len(expected_header)} fields, got {len(row)}")
            yield reader.line_num, row
    except csv.Error as exc:  # such as a field longer than the csv module's limit
        raise InputDataError(f"{path} line {reader.line_num}: {exc}") from None


def read_updates_csv(path) -> Updates:
    return Updates.from_rows(path, _open_rows(path, UPDATES_HEADER))


def read_venues_csv(path) -> Venues:
    return Venues.from_rows(path, _open_rows(path, VENUES_HEADER))


def read_category_map_csv(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, (raw, canon) in _open_rows(path, CATMAP_HEADER):
        if out.setdefault(raw, canon) != canon:
            raise InputDataError(f"{path} line {lineno}: raw category {raw!r} mapped twice")
    return out
