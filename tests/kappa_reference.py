"""sin_kappa, cos_kappa, jacobian and sturm_bound_check as they were written
before model1d.kappa_trig chose sin/cos or sinh/cosh for all of them: each
with its own three-way branch on the sign of kappa and its own K/(N-1).  The
tests hold the package to these floats bit for bit, and the references share
no code with what they check."""

import math

from needlecomp import DomainError, SturmReport, one_sided_log_derivative
from needlecomp import needle as needle_module
from needlecomp.numerics import INEQ_SLACK

_TINY = 1e-300


def sin_kappa(kappa, r):
    if kappa > 0.0:
        rt = math.sqrt(kappa)
        return math.sin(rt * r) / rt
    if kappa < 0.0:
        rt = math.sqrt(-kappa)
        return math.sinh(rt * r) / rt
    return r


def cos_kappa(kappa, r):
    if kappa > 0.0:
        return math.cos(math.sqrt(kappa) * r)
    if kappa < 0.0:
        return math.cosh(math.sqrt(-kappa) * r)
    return 1.0


def jacobian(p, r):
    """The jacobian of the package with its cached constants formed inline."""
    m = p.cd.N - 1.0
    kappa = p.cd.K / m
    rt, lam = math.sqrt(abs(kappa)), p.H / m
    if kappa > 0.0:
        sn, cs = math.sin(rt * r) / rt, math.cos(rt * r)
    elif kappa < 0.0:
        sn, cs = math.sinh(rt * r) / rt, math.cosh(rt * r)
    else:
        sn, cs = r, 1.0
    base = cs + lam * sn
    if base <= 0.0:
        return 0.0
    return base ** m


def sturm_bound_check(u, kappa, r0, grid_size=40):
    if not u.a < r0 < u.b:
        raise DomainError(f"base point r0={r0} outside ({u.a}, {u.b})")
    u0 = u.fn(r0)
    if type(u0) is complex or u0 < 0.0:
        raise needle_module._negative_density(r0)
    du0 = u0 * one_sided_log_derivative(u, r0, "plus")
    flat = kappa == 0.0
    if kappa > 0.0:
        rt, sn, cs = math.sqrt(kappa), math.sin, math.cos
    elif kappa < 0.0:
        rt, sn, cs = math.sqrt(-kappa), math.sinh, math.cosh
    fn, span, g1 = u.fn, u.b - r0, grid_size + 1.0
    max_excess = -math.inf
    passed = True
    for i in range(grid_size):
        r = r0 + span * (i + 1.0) / g1
        if flat:
            bound = u0 + du0 * (r - r0)
        else:
            t = rt * (r - r0)
            bound = u0 * cs(t) + du0 * (sn(t) / rt)
        if bound <= 0.0:
            passed = False
        value = fn(r)
        if type(value) is complex or value < 0.0:
            raise needle_module._negative_density(r)
        scale = abs(bound)
        excess = (value - bound) / (_TINY if _TINY > scale else scale)
        if excess > max_excess:
            max_excess = excess
    return SturmReport(passed=passed and max_excess <= INEQ_SLACK, max_excess=max_excess)
