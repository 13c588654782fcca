"""numerics._dqk21 and hk._profile_deviation as they were written before each
became one frame: the 21-point rule as two loops over node tuples that keep the
values in lists, and the profile match as a loop that calls max twice per
point.  The tests hold the package to these floats bit for bit; the rule's
tables come from numerics, whose values tests/test_numerics.py checks against
scipy."""

from needlecomp.errors import ParameterError
from needlecomp.hk import PROFILE_MATCH_POINTS
from needlecomp.model1d import J_OVERFLOWS, JacobianParams, jacobian
from needlecomp.numerics import _EPMACH, _UFLOW, _WG, _WGK, _WGK_CENTER, _XGK

_GAUSS_NODES = tuple((j, _XGK[j], _WGK[j], _WG[j // 2]) for j in range(1, 10, 2))
_KRONROD_NODES = tuple((j, _XGK[j], _WGK[j]) for j in range(0, 10, 2))
_ROUNDOFF_FLOOR = _UFLOW / (50.0 * _EPMACH)


def dqk21(f, a, b):
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK_CENTER * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j, x, wk, wg in _GAUSS_NODES:
        absc = hlgth * x
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    for j, x, wk in _KRONROD_NODES:
        absc = hlgth * x
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK_CENTER * abs(fc - reskh)
    for wk, fval1, fval2 in zip(_WGK, fv1, fv2):
        resasc = resasc + wk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > _ROUNDOFF_FLOOR:
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def profile_deviation(dec):
    params, p = JacobianParams(dec.H, dec.cd), dec.needle.profile
    h0, worst = p.fn(0.0), 0.0
    try:
        for i in range(PROFILE_MATCH_POINTS):
            r = p.a + (p.b - p.a) * (i + 1.0) / (PROFILE_MATCH_POINTS + 1.0)
            bound = jacobian(params, r)
            worst = max(worst, abs(p.fn(r) / h0 - bound) / max(bound, 1e-12))
    except OverflowError:
        raise ParameterError(J_OVERFLOWS) from None
    return worst
