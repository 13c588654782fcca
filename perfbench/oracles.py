"""Closed-form expectations for the model geometries, computed without needlecomp.

A case is a dict describing one geometry and surface:

    {"kind": "round-sphere", "n": 3, "radius": 1.2, "r0": 0.7}
    {"kind": "euclidean-ball", "n": 3, "R": 1.0, "r0": 0.5}
    {"kind": "spherical-suspension", "K": 1.0, "N": 3.0, "base_volume": 2.5, "r0": 0.7}
    {"kind": "weighted-interval", "K": 1.0, "N": 2.0, "length": 3.04, "r0": 1.57}

(`length` is absent or None for the full model interval).  Every radial density
is c * sin_kappa(s)^m (c * s^m for the ball), so masses, tube volumes, both
sides of the tube bounds and the model profile reduce to the incomplete beta
function: int_0^theta sin^m = B((m+1)/2, 1/2) * I(sin^2 theta) / 2 for
theta <= pi/2, and the reflection theta -> pi - theta beyond.
"""

from __future__ import annotations

import math

from scipy import special

K_POSITIVE_KINDS = ("round-sphere", "spherical-suspension", "weighted-interval")

# Relative tolerance of value checks; the program integrates at 1e-10 relative.
REL_TOL = 1e-8
# The program's slack for theorem-backed inequalities, and Minkowski tolerance.
INEQ_SLACK = 1e-9
MINKOWSKI_REL_TOL = 1e-6


def unit_sphere_volume(dim: int) -> float:
    return 2.0 * math.pi ** (0.5 * (dim + 1)) / math.gamma(0.5 * (dim + 1))


class Model:
    """Radial density c * sin_kappa(s)^m on [0, L] (c * s^m when kappa == 0)."""

    def __init__(self, case: dict):
        kind = case["kind"]
        self.kind = kind
        self.r0 = float(case["r0"])
        if kind == "round-sphere":
            n, radius = int(case["n"]), float(case["radius"])
            self.K, self.N = (n - 1) / radius ** 2, float(n)
            self.kappa, self.m, self.c = 1.0 / radius ** 2, n - 1.0, unit_sphere_volume(n - 1)
        elif kind == "euclidean-ball":
            n = int(case["n"])
            self.K, self.N = 0.0, float(n)
            self.kappa, self.m, self.c = 0.0, n - 1.0, unit_sphere_volume(n - 1)
        elif kind in ("spherical-suspension", "weighted-interval"):
            self.K, self.N = float(case["K"]), float(case["N"])
            self.kappa, self.m = self.K / (self.N - 1.0), self.N - 1.0
            self.c = float(case.get("base_volume", 1.0))
        else:
            raise ValueError(f"unknown kind {kind!r}")
        if kind == "euclidean-ball":
            self.L = float(case["R"])
            self.D = 2.0 * self.L
        else:
            self.top = math.pi / math.sqrt(self.kappa)
            length = case.get("length")
            self.L = self.top if length is None else float(length)
            self.D = self.L
        self.full = kind != "weighted-interval" or case.get("length") is None

    # -- radial calculus
    def _beta(self) -> float:
        return float(special.beta(0.5 * (self.m + 1.0), 0.5))

    def _sin_power_integral(self, theta: float) -> float:
        """int_0^theta sin^m for theta in [0, pi/2]."""
        x = math.sin(theta) ** 2
        return 0.5 * self._beta() * float(special.betainc(0.5 * (self.m + 1.0), 0.5, x))

    def _angle_mass(self, lo: float, hi: float) -> float:
        """int_lo^hi sin^m for 0 <= lo <= hi <= pi, reflecting past pi/2 so that
        masses near either end keep their relative accuracy."""
        half = 0.5 * math.pi
        if hi <= half:
            return self._sin_power_integral(hi) - self._sin_power_integral(lo)
        if lo >= half:
            return (self._sin_power_integral(math.pi - lo)
                    - self._sin_power_integral(math.pi - hi))
        return (self._sin_power_integral(half) - self._sin_power_integral(lo)
                + self._sin_power_integral(half) - self._sin_power_integral(math.pi - hi))

    def mass_between(self, a: float, b: float) -> float:
        """Mass of the radial shell [a, b], 0 <= a <= b <= L."""
        if self.kappa == 0.0:
            return self.c * (b ** (self.m + 1.0) - a ** (self.m + 1.0)) / (self.m + 1.0)
        rt = math.sqrt(self.kappa)
        return self.c * self.kappa ** (-0.5 * (self.m + 1.0)) * self._angle_mass(rt * a, rt * b)

    def density(self, s: float) -> float:
        if self.kappa == 0.0:
            return self.c * s ** self.m
        rt = math.sqrt(self.kappa)
        return self.c * (math.sin(rt * s) / rt) ** self.m

    @property
    def total(self) -> float:
        return self.mass_between(0.0, self.L)

    @property
    def surface(self) -> float:
        return self.density(self.r0)

    @property
    def H(self) -> float:
        """Mean curvature at the surface, the log-derivative of the density."""
        if self.kappa == 0.0:
            return self.m / self.r0
        rt = math.sqrt(self.kappa)
        return self.m * rt / math.tan(rt * self.r0)

    # -- both sides of the bounds
    def tube_outer(self, t: float) -> float:
        return self.mass_between(self.r0, min(self.r0 + t, self.L))

    def _j_integral(self, lo: float, hi: float) -> float:
        """surface * int_lo^hi J_H over the support of J, H the surface curvature.

        For kappa > 0, J_H(r) = (sin(theta0 + sqrt(kappa) r) / sin(theta0))^m
        on theta0 + sqrt(kappa) r in [0, pi]; for the ball, (1 + r/r0)^m, r > -r0.
        """
        if self.kappa == 0.0:
            lo = max(lo, -self.r0)
            return (self.c * ((self.r0 + hi) ** (self.m + 1.0) - (self.r0 + lo) ** (self.m + 1.0))
                    / (self.m + 1.0))
        rt = math.sqrt(self.kappa)
        theta0 = rt * self.r0
        w_lo = min(max(theta0 + rt * lo, 0.0), math.pi)
        w_hi = min(max(theta0 + rt * hi, 0.0), math.pi)
        return self.c * self.kappa ** (-0.5 * (self.m + 1.0)) * self._angle_mass(w_lo, w_hi)

    def hk_outer_rhs(self, t: float) -> float:
        return self._j_integral(0.0, t)

    def hk_full_rhs(self) -> float:
        return self._j_integral(-self.D, self.D)

    def positive_k_rhs(self) -> float:
        """Sharp corollary bound for K > 0: the mass of the full model needle."""
        return self.c * self.kappa ** (-0.5 * (self.m + 1.0)) * self._beta()

    @property
    def rigid(self) -> bool:
        """Caps, suspensions and full model intervals are rigid; truncated
        intervals are not."""
        return self.full

    def levy_gromov(self) -> tuple[float, float]:
        """(model profile at the inner volume fraction, normalized content)."""
        total = self.total
        inner = self.mass_between(0.0, self.r0)
        outer = self.mass_between(self.r0, self.L)
        small = min(inner, outer) / total
        return model_profile(self.K, self.N, small), self.surface / total

    def predicts_diameter_fault(self) -> bool:
        """The corollary-diameter branch applies (K >= 0, H <= 0) and the total
        mass exceeds surface * D, the bound that branch states."""
        if self.K <= 0.0 or self.H > 1e-12:
            return False
        return self.total > self.surface * self.D * (1.0 + INEQ_SLACK)

    def fault_margin(self) -> float:
        """Relative distance of the case from the boundary of the predicted
        fault region (small values are too close to call)."""
        if self.K <= 0.0:
            return math.inf
        return min(abs(self.H) / (self.m * math.sqrt(self.kappa)),
                   abs(self.total / (self.surface * self.D) - 1.0))


def model_profile(K: float, N: float, v: float) -> float:
    """Isoperimetric profile of the 1D model space CD(K, N) at volume fraction
    v <= 1/2 (the profile is symmetric): sqrt(kappa) x^((N-1)/2) / B(N/2, 1/2),
    with x = sin^2 of the level, the inverse regularized incomplete beta at 2v."""
    kappa = K / (N - 1.0)
    a = 0.5 * N
    x = float(special.betaincinv(a, 0.5, 2.0 * v))
    return math.sqrt(kappa) * x ** (0.5 * (N - 1.0)) / float(special.beta(a, 0.5))


def close(value, expected: float, rel: float = REL_TOL) -> bool:
    return value is not None and abs(value - expected) <= rel * abs(expected)


def check_rows(case: dict, checks, t_values, rows: list[dict]) -> list[str]:
    """Compare the summary rows of one run with the closed forms.

    rows are dicts with keys statement, t, lhs, rhs, equality (floats/bools or
    None).  Returns a list of mismatch descriptions (empty when all agree).
    Checks absent from rows are reported, except corollaries when the run
    failed on the predicted fault (the caller decides that).
    """
    model = Model(case)
    errors = []
    by_statement: dict[str, list[dict]] = {}
    for row in rows:
        by_statement.setdefault(row["statement"], []).append(row)

    def expect(label, got, want, rel=REL_TOL):
        if not close(got, want, rel):
            errors.append(f"{label}: got {got!r}, expected {want!r}")

    for name in checks:
        if name == "hk-full":
            for row in by_statement.get("hk-full", [None])[:1]:
                if row is None:
                    errors.append("hk-full: no summary row")
                    continue
                expect("hk-full lhs", row["lhs"], model.total)
                expect("hk-full rhs", row["rhs"], model.hk_full_rhs())
        elif name == "hk-outer":
            got = {row["t"]: row for row in by_statement.get("hk-outer", [])}
            for t in t_values:
                row = got.get(t)
                if row is None:
                    errors.append(f"hk-outer: no summary row at t={t!r}")
                    continue
                expect(f"hk-outer lhs t={t!r}", row["lhs"], model.tube_outer(t))
                expect(f"hk-outer rhs t={t!r}", row["rhs"], model.hk_outer_rhs(t))
        elif name == "minkowski":
            row = (by_statement.get("minkowski") or [None])[0]
            if row is None:
                errors.append("minkowski: no summary row")
            else:
                expect("minkowski content", row["lhs"], model.surface, MINKOWSKI_REL_TOL)
                expect("minkowski surface total", row["rhs"], model.surface)
        elif name == "levy-gromov":
            row = (by_statement.get("levy-gromov") or [None])[0]
            profile, content = model.levy_gromov()
            if row is None:
                errors.append("levy-gromov: no summary row")
            else:
                expect("levy-gromov model profile", row["lhs"], profile)
                expect("levy-gromov content", row["rhs"], content)
        elif name == "rigidity":
            row = (by_statement.get("rigidity") or [None])[0]
            if row is None:
                errors.append("rigidity: no summary row")
            elif row["equality"] is not model.rigid:
                errors.append(f"rigidity: verdict {row['equality']!r}, "
                              f"ground truth {model.rigid!r}")
        elif name == "corollaries":
            if model.predicts_diameter_fault() and "corollary-diameter" not in by_statement:
                continue  # the fault counted by the caller
            if model.K > 0.0:
                for statement in ("corollary-positive-K", "corollary-positive-K-spheres"):
                    for row in by_statement.get(statement, []):
                        expect(f"{statement} lhs", row["lhs"], model.total)
                        expect(f"{statement} rhs", row["rhs"], model.positive_k_rhs())
                if "corollary-positive-K" not in by_statement:
                    errors.append("corollaries: no corollary-positive-K row")
            for row in by_statement.get("corollary-diameter", []):
                expect("corollary-diameter lhs", row["lhs"], model.total)
                expect("corollary-diameter rhs", row["rhs"], model.surface * model.D)
        elif name in ("cd-density", "sturm", "ratio"):
            found = by_statement.get(name, [])
            if not found:
                errors.append(f"{name}: no row")
            for row in found:
                if row["equality"] is not True or not row["lhs"] <= INEQ_SLACK:
                    errors.append(f"{name}: worst violation {row['lhs']!r} on a model needle")
        else:
            errors.append(f"no oracle for check {name!r}")
    return errors
