"""Seeded synthetic city for the ingest-city workload.

Writes the three CSV inputs of ``nutf preprocess`` (updates, venues,
category map) and the planted class schedule, and returns the planted
visit of every block, so the preprocess output can be checked exactly:

* Users belong to lifestyle classes; a class visits one planted canonical
  category per daypart slot. Each visit goes to a random venue of that
  category, and the reported position lies within ``NOISE_RADIUS_M`` of
  it, so the true venue is always inside error radius + venue radius.
* Every user's visits fall in distinct daypart slots and each starts at
  least ``MIN_GAP_S`` before its slot ends, so consecutive visits are at
  least 20 minutes apart: only each user's last update drops out of the
  dwell filter, and no (user, slot) pair is deduplicated.
* Visit times start at 01:00 local on the epoch day or later, where the
  first daypart slot begins. Earlier records would map to slot -1, which
  the program rejects for the whole run; this generator never emits them.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPOCH_DAY = "2024-03-04"
UTC_OFFSET_MIN = 60
LAT0, LON0, BOX_DEG = 40.0, -74.0, 0.2
ERROR_RADIUS_M = 100.0
VENUE_RADIUS_M = 30.0
NOISE_RADIUS_M = 90.0  # below ERROR_RADIUS_M, leaving room for rounding
MIN_GAP_S = 20 * 60
# daypart slots of one day as (first local hour, length in hours); the last
# one runs from 23:00 to 01:00 of the next day
DAYPARTS = ((1, 6), (7, 2), (9, 2), (11, 2), (13, 2), (15, 2), (17, 2), (19, 2),
            (21, 2), (23, 2))
_M_PER_DEG = 6_371_000.0 * math.pi / 180.0


@dataclass(frozen=True)
class CitySpec:
    n_users: int = 60
    n_days: int = 14
    slot_density: float = 0.2
    n_venues: int = 20_000
    n_raw_categories: int = 60
    n_categories: int = 20
    n_classes: int = 3

    @property
    def n_slots(self) -> int:
        return self.n_days * len(DAYPARTS)

    @property
    def slots_per_user(self) -> int:
        return int(math.floor(self.slot_density * self.n_slots + 0.5))

    @property
    def n_updates(self) -> int:
        return self.n_users * self.slots_per_user


@dataclass
class City:
    """The planted truth of one generated city.

    ``truth`` maps (user index, slot) to the canonical category index of
    every update that survives the dwell filter, which is every update
    but each user's last.
    """

    spec: CitySpec
    truth: dict[tuple[int, int], int]


def write_city(out: Path, seed: int, spec: CitySpec = CitySpec()) -> City:
    """Generate the city for ``seed`` and write its files into ``out``."""
    rng = np.random.default_rng([seed, 0xC17])
    out.mkdir(parents=True, exist_ok=True)
    canon = [f"cat{k:02d}" for k in range(spec.n_categories)]

    raw = rng.integers(0, spec.n_raw_categories, spec.n_venues)
    venue_canon = raw % spec.n_categories
    v_lat = LAT0 + rng.random(spec.n_venues) * BOX_DEG
    v_lon = LON0 + rng.random(spec.n_venues) * BOX_DEG
    by_canon = np.argsort(venue_canon, kind="stable")
    canon_count = np.bincount(venue_canon, minlength=spec.n_categories)
    canon_start = np.concatenate([[0], np.cumsum(canon_count)[:-1]])

    schedule = rng.integers(0, spec.n_categories, (spec.n_classes, spec.n_slots))
    user_class = rng.permutation(np.arange(spec.n_users) % spec.n_classes)
    k_slots = spec.slots_per_user
    draws = rng.random((spec.n_users, spec.n_slots))
    slots = np.sort(np.argpartition(draws, k_slots - 1, axis=1)[:, :k_slots], axis=1)
    users = np.repeat(np.arange(spec.n_users), k_slots)
    slots = slots.ravel()
    cats = schedule[user_class[users], slots]

    n = len(users)
    pick = (rng.random(n) * canon_count[cats]).astype(np.int64)
    venue = by_canon[canon_start[cats] + pick]
    radius = NOISE_RADIUS_M * np.sqrt(rng.random(n))
    angle = rng.random(n) * 2 * math.pi
    lat = v_lat[venue] + radius * np.sin(angle) / _M_PER_DEG
    lon = v_lon[venue] + radius * np.cos(angle) / (_M_PER_DEG * np.cos(np.radians(v_lat[venue])))

    start_h = np.array([h for h, _ in DAYPARTS])[slots % len(DAYPARTS)]
    length_s = np.array([n_h * 3600 for _, n_h in DAYPARTS])[slots % len(DAYPARTS)]
    offset_s = rng.random(n) * (length_s - MIN_GAP_S)
    epoch = dt.datetime.fromisoformat(EPOCH_DAY).replace(tzinfo=dt.timezone.utc).timestamp()
    local = epoch + (slots // len(DAYPARTS)) * 86400 + start_h * 3600 + offset_s
    utc = local - UTC_OFFSET_MIN * 60

    with open(out / "updates.csv", "w", encoding="utf-8") as fh:
        fh.write("user_id,timestamp_utc,lat,lon,error_radius_m,utc_offset_minutes\n")
        fh.writelines(
            f"u{u:04d},{t:.3f},{a:.7f},{o:.7f},{ERROR_RADIUS_M},{UTC_OFFSET_MIN}\n"
            for u, t, a, o in zip(users.tolist(), utc.tolist(), lat.tolist(), lon.tolist())
        )
    with open(out / "venues.csv", "w", encoding="utf-8") as fh:
        fh.write("venue_id,category,lat,lon,radius_m\n")
        fh.writelines(
            f"v{i:05d},raw{r:02d},{a:.7f},{o:.7f},{VENUE_RADIUS_M}\n"
            for i, (r, a, o) in enumerate(zip(raw.tolist(), v_lat.tolist(), v_lon.tolist()))
        )
    with open(out / "categories.csv", "w", encoding="utf-8") as fh:
        fh.write("raw_category,canonical_category\n")
        fh.writelines(f"raw{r:02d},{canon[r % spec.n_categories]}\n"
                      for r in range(spec.n_raw_categories))

    # each user's last update has no successor, so it never yields a block
    kept = np.ones(n, dtype=bool)
    kept[k_slots - 1::k_slots] = False
    truth = {(u, j): k for u, j, k in
             zip(users[kept].tolist(), slots[kept].tolist(), cats[kept].tolist())}
    (out / "schedule.json").write_text(json.dumps(
        {"user_class": user_class.tolist(), "schedule": schedule.tolist()}) + "\n",
        encoding="utf-8")
    return City(spec, truth)
