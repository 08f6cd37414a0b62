"""Raw location updates -> per-(user, slot) candidate category sets.

Pipeline: estimate dwell times from consecutive timestamps and drop short
visits, quantize local time into slots, keep the longest-dwell update per
(user, slot), intersect each update's uncertainty circle with the venue
catalog, and map venue categories through a caller-supplied taxonomy.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import CandidateSets, ProblemDims
from .serialize import InputDataError, read_records, text_lines

EARTH_RADIUS_M = 6_371_000.0

# Non-uniform dayparts: 1am-7am is one bin (little night activity), then
# two-hour bins; hours [23, 24) and the following [0, 1) share the last bin.
_DAYPART_EDGES = (1, 7, 9, 11, 13, 15, 17, 19, 21, 23)

UPDATES_HEADER = ["user_id", "timestamp_utc", "lat", "lon", "error_radius_m",
                  "utc_offset_minutes"]
VENUES_HEADER = ["venue_id", "category", "lat", "lon", "radius_m"]
CATMAP_HEADER = ["raw_category", "canonical_category"]

# Local times, in seconds from 1970-01-01, that LocationUpdate accepts: the
# years 1 to 9999 of datetime, whose slots all fit an int64.
_LOCAL_MIN_S = (dt.datetime.min - dt.datetime(1970, 1, 1)).total_seconds()
_LOCAL_MAX_S = (dt.datetime.max - dt.datetime(1970, 1, 1)).total_seconds()


@dataclass(frozen=True)
class LocationUpdate:
    user_id: str
    timestamp_utc: float
    lat: float
    lon: float
    error_radius_m: float
    utc_offset_minutes: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp_utc):
            raise ValueError(f"timestamp {self.timestamp_utc} must be finite")
        local = self.timestamp_utc + self.utc_offset_minutes * 60.0
        if not _LOCAL_MIN_S <= local <= _LOCAL_MAX_S:
            raise ValueError(f"local time {local:g} s (timestamp {self.timestamp_utc:g} plus "
                             f"offset {self.utc_offset_minutes} min) falls outside the years "
                             "1 to 9999")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of bounds")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of bounds")
        if not (math.isfinite(self.error_radius_m) and self.error_radius_m >= 0):
            raise ValueError(f"error radius {self.error_radius_m} must be finite and >= 0")


@dataclass(frozen=True)
class Venue:
    venue_id: str
    category: str
    lat: float
    lon: float
    radius_m: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of bounds")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of bounds")
        if not (math.isfinite(self.radius_m) and self.radius_m > 0):
            raise ValueError(f"venue radius {self.radius_m} must be finite and > 0")


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


class VenueIndex:
    """Venue catalog sorted by latitude, with each venue's unit vector.

    A query's reach is its radius plus the largest venue radius. It
    scans the latitude band that reach allows (a great-circle distance is
    never less than the meridian distance), keeps the venues within the
    matching unit-sphere chord, and confirms each with the exact haversine
    test. Both filters only over-include, so results match a brute-force
    scan everywhere, poles and antimeridian included.
    """

    def __init__(self, venues: Sequence[Venue]):
        self.venues = list(venues)
        self.max_radius_m = max((v.radius_m for v in self.venues), default=0.0)
        lat = np.array([v.lat for v in self.venues], dtype=float)
        lon = np.array([v.lon for v in self.venues], dtype=float)
        self._order = np.argsort(lat, kind="stable")
        self._lats = lat[self._order]
        self._xyz = _unit_vectors(self._lats, lon[self._order])

    def query(self, lat: float, lon: float, radius_m: float) -> list[int]:
        """Indices of venues whose circle intersects the query circle."""
        angle = min(math.pi, (radius_m + self.max_radius_m) / EARTH_RADIUS_M)
        # Unit chord plus 1e-9 (~6 mm), far above its ~1e-16 rounding and
        # above the ~1e-15 rad rounding of the atan2 distance that confirms
        # each venue, so both filters only over-include.
        chord = 2.0 * math.sin(angle / 2.0) + 1e-9
        band = math.degrees(2.0 * math.asin(min(1.0, chord / 2.0)))
        lo = np.searchsorted(self._lats, lat - band, side="left")
        hi = np.searchsorted(self._lats, lat + band, side="right")
        diff = self._xyz[lo:hi] - _unit_vectors(lat, lon)
        near = self._order[lo:hi][np.einsum("ij,ij->i", diff, diff) <= chord * chord]
        venues = self.venues
        return sorted(
            i for i in near.tolist()
            if haversine_m(lat, lon, venues[i].lat, venues[i].lon) <= radius_m + venues[i].radius_m
        )


def candidate_venues(update: LocationUpdate, index: VenueIndex) -> list[Venue]:
    """Venues intersecting the update's uncertainty circle.

    A venue is a candidate when haversine(update, venue) <= error_radius +
    venue_radius; the boundary is inclusive. An empty result is valid.
    """
    return [index.venues[i] for i in index.query(update.lat, update.lon, update.error_radius_m)]


def slot_of(timestamp_utc: float, utc_offset_minutes: int, scheme: SlotScheme) -> int:
    """Slot index of the update's local time under the scheme.

    Local time is UTC plus the per-record offset. The index is signed:
    a timestamp before the scheme's epoch day (after the midnight-straddle
    adjustment) gets a negative slot, which callers treat as outside the
    window.
    """
    local = timestamp_utc + utc_offset_minutes * 60.0
    day = math.floor(local / 86400.0)
    sec_of_day = local - day * 86400.0
    hour = sec_of_day / 3600.0
    if scheme.mode == "hourly":
        binned = int(hour)
    else:
        if hour < 1.0:
            # [0, 1) belongs to the previous day's last bin
            day -= 1
            binned = 9
        elif hour >= 23.0:
            binned = 9
        else:
            binned = bisect_right(_DAYPART_EDGES, hour) - 1
    epoch_days = (scheme.epoch_day - dt.date(1970, 1, 1)).days
    return (day - epoch_days) * scheme.bins_per_day + binned


@dataclass
class IngestResult:
    omega: CandidateSets
    dims: ProblemDims | None  # None when no update produced a candidate set
    user_ids: list[str]
    category_names: list[str]
    # updates dropped because their local time falls before the epoch day
    before_window: int = 0


def build_candidate_sets(
    updates: Iterable[LocationUpdate],
    venues: Sequence[Venue],
    scheme: SlotScheme,
    category_map: Mapping[str, str],
    min_dwell_s: float,
    other_category: str | None = None,
) -> IngestResult:
    """Run the full ingestion pipeline.

    One walk over the updates in (user, time) order: an update's dwell is
    the gap to the next update when that one is the same user's, so each
    user's last update drops out, as does a dwell under ``min_dwell_s``.
    Survivors are assigned to slots (those before the window are dropped
    and counted in ``before_window``), deduplicated per (user, slot) by
    keeping the longest dwell (ties keep the earlier update), and
    intersected with the venue catalog.
    Venue categories map through ``category_map``; unknown raw categories
    raise unless ``other_category`` provides a fallback canonical name.

    The category axis covers every canonical name in the map (sorted),
    not just the observed ones, so the index stays stable across data
    sets sharing a taxonomy. Users whose updates all fall away are absent
    from the user index.
    """
    other = set() if other_category is None else {other_category}
    canonical = sorted(set(category_map.values()) | other)
    cat_index = {name: i for i, name in enumerate(canonical)}

    ordered = sorted(updates, key=lambda u: (u.user_id, u.timestamp_utc))
    best: dict[tuple[str, int], tuple[LocationUpdate, float]] = {}
    before_window = 0
    for upd, nxt in zip(ordered, ordered[1:]):
        dwell = nxt.timestamp_utc - upd.timestamp_utc
        if nxt.user_id != upd.user_id or not dwell >= min_dwell_s:
            continue
        slot = slot_of(upd.timestamp_utc, upd.utc_offset_minutes, scheme)
        if slot < 0:
            before_window += 1
            continue
        key = (upd.user_id, slot)
        cur = best.get(key)
        if cur is None or dwell > cur[1]:
            best[key] = (upd, dwell)

    index = VenueIndex(venues)
    blocks: dict[tuple[str, int], set[int]] = {}
    for (uid, slot), (upd, _) in best.items():
        cats: set[int] = set()
        for v in candidate_venues(upd, index):
            name = category_map.get(v.category)
            if name is None:
                if other_category is None:
                    raise ValueError(
                        f"unmapped category {v.category!r} of venue {v.venue_id!r}")
                name = other_category
            cats.add(cat_index[name])
        if cats:
            blocks[(uid, slot)] = cats

    user_ids = sorted({uid for uid, _ in blocks})
    user_index = {uid: i for i, uid in enumerate(user_ids)}
    omega = CandidateSets.from_blocks(
        (user_index[uid], slot, cats) for (uid, slot), cats in blocks.items())
    dims = ProblemDims(len(user_ids), max(slot for _, slot in blocks) + 1,
                       len(canonical)) if blocks else None
    return IngestResult(omega=omega, dims=dims, user_ids=user_ids, category_names=canonical,
                        before_window=before_window)


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


def read_updates_csv(path) -> list[LocationUpdate]:
    return read_records(path, _open_rows(path, UPDATES_HEADER), lambda row: LocationUpdate(
        row[0], float(row[1]), float(row[2]), float(row[3]), float(row[4]), int(row[5])))


def read_venues_csv(path) -> list[Venue]:
    return read_records(path, _open_rows(path, VENUES_HEADER), lambda row: Venue(
        row[0], row[1], float(row[2]), float(row[3]), float(row[4])))


def read_category_map_csv(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, (raw, canon) in _open_rows(path, CATMAP_HEADER):
        if out.setdefault(raw, canon) != canon:
            raise InputDataError(f"{path} line {lineno}: raw category {raw!r} mapped twice")
    return out
