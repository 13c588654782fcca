"""The lhs and rhs that the shipped configurations print, against their
closed forms evaluated by mpmath at 40 digits from the same inputs: each must
lie within 4 units in the last place."""

import csv
import math
from pathlib import Path

import mpmath as mp
import pytest

from needlecomp.cli import parse_config, run

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DPS = 40
MAX_ULP = 4.0


def _sphere_power(K, N, scale):
    """(density, total mass) of scale * sin_kappa^{N-1} on [0, pi_kappa],
    kappa = K/(N-1), and its log-derivative, as mpmath functions."""
    m = mp.mpf(N) - 1
    rt = mp.sqrt(mp.mpf(K) / m)
    density = lambda s: scale * (mp.sin(rt * s) / rt) ** m
    total = scale * rt ** -(m + 1) * mp.beta((m + 1) / 2, mp.mpf(1) / 2)
    log_derivative = lambda s: m * rt * mp.cot(rt * s)
    return density, total, log_derivative, rt, m


def _full_support_rhs(surface, H, rt, m):
    """surface * the integral of J_H over its full support (K > 0)."""
    c = H / m / rt
    return surface * (1 + c * c) ** (m / 2) * mp.beta((m + 1) / 2, mp.mpf(1) / 2) / rt


def _expected():
    """(config, statement, t, column) -> the exact value, for every row
    that states a closed form."""
    out = {}
    with mp.workdps(DPS):
        # euclidean_ball: density 4 pi s^2 on [0, 1], sphere at 1/2, H = 4
        r0 = mp.mpf(0.5)
        surface = 4 * mp.pi * r0 ** 2
        lam = 1 / r0  # H/(N-1), with H = 2/r0
        for t in (0.1, 0.2, 0.3, 0.4, 0.5):
            t_ = mp.mpf(t)
            out["euclidean_ball", "hk-outer", t, "lhs"] = 4 * mp.pi / 3 * ((r0 + t_) ** 3 - r0 ** 3)
            out["euclidean_ball", "hk-outer", t, "rhs"] = surface * ((1 + lam * t_) ** 3 - 1) / (3 * lam)
        out["euclidean_ball", "minkowski", None, "rhs"] = surface

        # sphere_equator: density 2 pi sin s on [0, pi]; suspension; the model
        # interval of K = 1, N = 2 cut at pi - 0.1.  All three bound J over its
        # full support, and their level-set content meets the model profile.
        for name, K, N, scale, r0, length in (
                ("sphere_equator", 1.0, 2.0, 2 * mp.pi, 1.5707963267948966, None),
                ("suspension", 1.0, 3.0, mp.mpf(2.5), 0.7, None),
                ("truncated_interval", 1.0, 2.0, mp.mpf(1), 1.5707963267948966,
                 3.0415926535897933)):
            density, total, log_derivative, rt, m = _sphere_power(K, N, scale)
            r0 = mp.mpf(r0)
            if length is not None:  # density sin s on [0, length]
                total = 1 - mp.cos(mp.mpf(length))
            surface = density(r0)
            rhs = _full_support_rhs(surface, log_derivative(r0), rt, m)
            out[name, "hk-full", None, "lhs"] = total
            out[name, "hk-full", None, "rhs"] = rhs
            if length is None:
                out[name, "levy-gromov", None, "lhs"] = surface / total
                out[name, "levy-gromov", None, "rhs"] = surface / total
            if name == "sphere_equator":
                for statement, value in (("corollary-diameter", surface * mp.pi),
                                         ("corollary-positive-K", rhs),
                                         ("corollary-positive-K-spheres", rhs)):
                    out[name, statement, None, "lhs"] = total
                    out[name, statement, None, "rhs"] = value
    return out


def _summary_rows(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    run(parse_config((CONFIGS / f"{name}.cfg").read_text(),
                     overrides=["output.format=csv", f"output.path={path}"]))
    rows = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            if row["lhs"]:  # a summary row
                rows[row["statement"], float(row["t"]) if row["t"] else None] = row
    return rows


@pytest.mark.parametrize("name", ["euclidean_ball", "sphere_equator", "suspension",
                                  "truncated_interval"])
def test_shipped_lhs_and_rhs_are_within_4_ulp_of_mpmath(name, tmp_path, capsys):
    rows = _summary_rows(name, tmp_path)
    capsys.readouterr()
    checked = 0
    for (config, statement, t, column), exact in _expected().items():
        if config != name:
            continue
        got = float(rows[statement, t][column])
        ulps = abs(mp.mpf(got) - exact) / math.ulp(float(exact))
        assert ulps <= MAX_ULP, (statement, t, column, got, float(exact), float(ulps))
        checked += 1
    assert checked >= 2
