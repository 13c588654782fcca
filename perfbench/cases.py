"""Seeded inputs of the three workloads.

Everything here is drawn from `random.Random(f"{workload}:{seed}")`, so the
same seed gives the same inputs.  The program under test only ever sees the
configuration texts and geometry parameters produced here.
"""

from __future__ import annotations

import math
import random

from oracles import K_POSITIVE_KINDS, Model

KINDS = ("round-sphere", "euclidean-ball", "spherical-suspension", "weighted-interval")

# family_sweep: seeded configurations per kind in one pass.
FAMILY_PER_KIND = 48
SURFACE_STRIDE = 29  # coprime to FAMILY_PER_KIND
FAMILY_CHECKS_K0 = ("hk-full", "hk-outer", "minkowski")
FAMILY_CHECKS_KPOS = FAMILY_CHECKS_K0 + ("corollaries", "levy-gromov", "rigidity")

# Configurations on which `corollaries` raises InequalityViolation
# (corollary-diameter): K > 0, H <= 0 and total mass above surface * diameter.
# They do not depend on the seed, so every pass fails on exactly these.  The
# first one is `configs/sphere_equator.cfg` with surface.r0 = 2.5.
FAULT_CASES = (
    {"kind": "round-sphere", "n": 2, "radius": 1.0, "r0": 2.5},
    {"kind": "round-sphere", "n": 5, "radius": 1.5, "r0": 0.8 * math.pi * 1.5},
    {"kind": "spherical-suspension", "K": 1.0, "N": 4.5, "base_volume": 1.5,
     "r0": 0.85 * math.pi / math.sqrt(1.0 / 3.5)},
    {"kind": "weighted-interval", "K": 2.0, "N": 3.5, "length": None,
     "r0": 0.8 * math.pi / math.sqrt(2.0 / 2.5)},
    {"kind": "weighted-interval", "K": 1.0, "N": 3.0, "length": 0.9 * math.pi / math.sqrt(0.5),
     "r0": 0.9 * 0.9 * math.pi / math.sqrt(0.5)},
)

# needle_grid: each check at both grid sizes.
NEEDLE_CHECKS = ("cd-density", "sturm", "ratio")
NEEDLE_GRIDS = (24, 48)
NEEDLE_DIMENSIONS = {"round-sphere": {"n": 3}, "euclidean-ball": {"n": 3},
                     "spherical-suspension": {"N": 4.5}, "weighted-interval": {"N": 2.5}}

# cli_cold: argument lists after `python -m needlecomp.cli`; `{tmp}` is the
# run's temporary directory.
SHIPPED_CONFIGS = ("euclidean_ball", "sphere_equator", "suspension", "truncated_interval")
CLI_FIXED_OPS = (
    ("version",),
    ("profile", "--K", "1", "--N", "2", "--v", "0.5"),
    ("jacobian", "--H", "1", "--K", "0", "--N", "2", "--r", "0.5"),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _stratum(rng: random.Random, k, strata: int) -> float:
    """A uniform draw from [0, 1), from the k-th of `strata` equal strata when k
    is given, so that every pass covers each range evenly."""
    return rng.random() if k is None else (k + rng.random()) / strata


def _draw_geometry(rng: random.Random, kind: str, k=None, strata: int = 1) -> dict:
    """Dimension 2-8 (the k-th of `strata` lattice points when k is given);
    radius, curvature and base volume uniform in moderate ranges."""
    if kind in ("round-sphere", "euclidean-ball"):
        n = 2 + (rng.randrange(7) if k is None else k % 7)
        if kind == "round-sphere":
            return {"kind": kind, "n": n, "radius": rng.uniform(0.5, 2.0)}
        return {"kind": kind, "n": n, "R": rng.uniform(0.5, 2.0)}
    K = rng.uniform(0.5, 2.0)
    N = 2.0 + 6.0 * (rng.random() if k is None else (k + 0.5) / strata)
    if kind == "spherical-suspension":
        return {"kind": kind, "K": K, "N": N, "base_volume": rng.uniform(0.5, 3.0)}
    full = math.pi / math.sqrt(K / (N - 1.0))
    truncated = rng.random() < 0.5 if k is None else k % 2 == 1
    return {"kind": kind, "K": K, "N": N,
            "length": rng.uniform(0.6, 0.95) * full if truncated else None}


def radial_length(case: dict) -> float:
    return Model(dict(case, r0=1e-3)).L


def _draw_surface(rng: random.Random, geometry: dict, k=None, strata: int = 1) -> dict:
    """Surface at 5-95% of the radial range (stratified by k).

    A seeded draw that lands in the fault region of FAULT_CASES (or within
    1e-3 of its boundary) is mirrored to the inner half of the range, where
    H > 0: its failure would make the number of failed operations depend on the
    seed, so the fault is exercised by the fixed cases instead.
    """
    length = radial_length(geometry)
    fraction = _stratum(rng, k, strata)
    candidates = [fraction, 1.0 - fraction]
    while True:
        case = dict(geometry, r0=(0.05 + 0.9 * candidates.pop(0)) * length)
        model = Model(case)
        if not model.predicts_diameter_fault() and model.fault_margin() > 1e-3:
            return case
        if not candidates:
            candidates.append(0.5 * rng.random())


def _family_op(case: dict, rng: random.Random) -> dict:
    model = Model(case)
    outer = model.L - model.r0
    widths = (rng.uniform(0.02, 0.2) * outer, rng.uniform(0.3, 0.7) * outer,
              rng.uniform(0.8, 1.5) * outer)
    checks = FAMILY_CHECKS_KPOS if case["kind"] in K_POSITIVE_KINDS else FAMILY_CHECKS_K0
    return {"case": case, "checks": list(checks), "t_values": list(widths),
            "predicted_fault": model.predicts_diameter_fault()}


def family_ops(seed: int) -> list[dict]:
    """One pass of family_sweep: FAMILY_PER_KIND seeded configurations per kind
    plus the fixed FAULT_CASES, in a seeded order.

    Dimension and surface position follow a fixed lattice over each kind's
    configurations: the k-th takes the k-th dimension and surface stratum
    k * SURFACE_STRIDE, and the seed draws the surface within its stratum and
    everything else.  The slowest configurations, which set op_tail_ms, are
    then alike for every seed: with independent draws the tail moved by 8% from
    seed to seed, and by 11% with seeded dimensions inside lattice cells.
    """
    rng = _rng("family_sweep", seed)
    ops = []
    for kind in KINDS:
        for k in range(FAMILY_PER_KIND):
            geometry = _draw_geometry(rng, kind, k, FAMILY_PER_KIND)
            position = (k * SURFACE_STRIDE) % FAMILY_PER_KIND
            case = _draw_surface(rng, geometry, position, FAMILY_PER_KIND)
            ops.append(_family_op(case, rng))
    for case in FAULT_CASES:
        op = _family_op(dict(case), rng)
        if not op["predicted_fault"]:
            raise AssertionError(f"fixed fault case is not in the fault region: {case}")
        ops.append(op)
    rng.shuffle(ops)
    return ops


def config_text(op: dict, path: str) -> str:
    """The configuration document of one family_sweep operation."""
    case = op["case"]
    lines = ["[geometry]", f"kind = {case['kind']}"]
    for key in ("n", "radius", "R", "K", "N", "base_volume", "length"):
        if case.get(key) is not None:
            lines.append(f"{key} = {case[key]!r}")
    if case["kind"] == "weighted-interval":
        lines.append("density = model")
    lines += ["", "[surface]", f"r0 = {case['r0']!r}", "", "[run]",
              f"checks = {', '.join(op['checks'])}",
              f"t_values = {', '.join(repr(t) for t in op['t_values'])}",
              "", "[output]", "format = csv", f"path = {path}", ""]
    return "\n".join(lines)


def needle_cases(seed: int) -> list[dict]:
    """One geometry per kind for needle_grid.

    The dimension is fixed per kind (NEEDLE_DIMENSIONS): a check's cost depends
    on the grid and on the density's form, and a seeded dimension moved the
    median operation time by several percent from seed to seed without
    exercising anything new.  The seed draws the scale (radius, curvature,
    base volume, truncated length) and the surface at 5-95% of the range.
    """
    rng = _rng("needle_grid", seed)
    cases = []
    for kind in KINDS:
        geometry = _draw_geometry(rng, kind)
        geometry.update(NEEDLE_DIMENSIONS[kind])
        if kind == "weighted-interval":
            full = math.pi / math.sqrt(geometry["K"] / (geometry["N"] - 1.0))
            geometry["length"] = rng.uniform(0.6, 0.95) * full
        cases.append(dict(geometry, r0=rng.uniform(0.05, 0.95) * radial_length(geometry)))
    return cases


def needle_ops() -> list[dict]:
    """One pass of needle_grid: every (grid, check, geometry) triple.

    The order is fixed, not seeded: what ran just before a short check sets
    how warm its caches are, and a seeded order moved the median operation
    time from seed to seed."""
    return [{"case": index, "check": check, "grid": grid}
            for grid in NEEDLE_GRIDS for check in NEEDLE_CHECKS for index in range(len(KINDS))]


def cli_ops(seed: int) -> list[tuple[str, ...]]:
    """One pass of cli_cold: the four shipped configs and three subcommands,
    in a seeded order.  The seed changes only the order."""
    ops = [("run", f"configs/{name}.cfg", "--path", f"{{tmp}}/{name}.out")
           for name in SHIPPED_CONFIGS]
    ops += list(CLI_FIXED_OPS)
    _rng("cli_cold", seed).shuffle(ops)
    return ops
