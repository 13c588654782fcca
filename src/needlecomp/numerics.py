"""Shared numerical kernels: quadrature, one-sided derivatives, extrapolation.

The quadrature is QUADPACK's globally adaptive Gauss-Kronrod routine with
epsilon-algorithm extrapolation (dqagse with dqk21, dqpsrt and dqelg;
Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, 1983), transcribed
statement for statement so that every sum is formed in the Fortran order.
The 21-point rule is unrolled into straight-line code with its values in
locals; it evaluates the integrand at the same points in the same order and
sums in the same order as the Fortran loops.  It returns the same floats as
scipy.integrate.quad, which calls the same routines, without importing scipy.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

# Quadrature targets; equality tests downstream run at 1e-8, leaving headroom.
# Only the relative target governs: a fixed absolute one stops at once on a tiny mass.
QUAD_ABS_TOL = 0.0
QUAD_REL_TOL = 1e-10
QUAD_LIMIT = 200

# Relative slack granted to inequality checks against the dominating side.
INEQ_SLACK = 1e-9

# One-sided derivatives: Richardson levels, and the divergence threshold.
FD_LEVELS = 8
FD_DIVERGE_THRESHOLD = 1e8

# d1mach(4), d1mach(1) and d1mach(2).
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# dqk21: abscissae of the 21-point Kronrod rule (odd positions are the
# 10-point Gauss nodes), their weights, and the Gauss weights.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980307195, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WGK_CENTER = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_EPS50 = 50.0 * _EPMACH
_ROUNDOFF_FLOOR = _UFLOW / _EPS50


def integrate(fn: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive quadrature of fn over [a, b] (0 unless b > a)."""
    if not (b > a):
        return 0.0
    return dqagse(fn, a, b)[0]


def _dqk21(f, a, b):
    """21-point Gauss-Kronrod rule on [a, b]: (result, abserr, resabs, resasc).

    Straight-line code: f is evaluated at the centre, then at the five Gauss
    pairs (j = 1, 3, ..., 9) and then at the five Kronrod pairs (j = 0, 2,
    ..., 8), left point first, as dqk21 does; the sums run in dqk21's order.
    """
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9 = _XGK
    w0, w1, w2, w3, w4, w5, w6, w7, w8, w9 = _WGK
    g1, g3, g5, g7, g9 = _WG
    wc = _WGK_CENTER
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    absc = hlgth * x1
    l1 = f(centr - absc)
    r1 = f(centr + absc)
    absc = hlgth * x3
    l3 = f(centr - absc)
    r3 = f(centr + absc)
    absc = hlgth * x5
    l5 = f(centr - absc)
    r5 = f(centr + absc)
    absc = hlgth * x7
    l7 = f(centr - absc)
    r7 = f(centr + absc)
    absc = hlgth * x9
    l9 = f(centr - absc)
    r9 = f(centr + absc)
    absc = hlgth * x0
    l0 = f(centr - absc)
    r0 = f(centr + absc)
    absc = hlgth * x2
    l2 = f(centr - absc)
    r2 = f(centr + absc)
    absc = hlgth * x4
    l4 = f(centr - absc)
    r4 = f(centr + absc)
    absc = hlgth * x6
    l6 = f(centr - absc)
    r6 = f(centr + absc)
    absc = hlgth * x8
    l8 = f(centr - absc)
    r8 = f(centr + absc)
    s0, s1, s2, s3, s4 = l0 + r0, l1 + r1, l2 + r2, l3 + r3, l4 + r4
    s5, s6, s7, s8, s9 = l5 + r5, l6 + r6, l7 + r7, l8 + r8, l9 + r9
    # dqk21 starts resg at 0: that first addition can only flip the sign of a
    # zero resg, which abs((resk - resg) * hlgth) below does not see.
    resg = g1 * s1 + g3 * s3 + g5 * s5 + g7 * s7 + g9 * s9
    resk = wc * fc
    resabs = (abs(resk) + w1 * (abs(l1) + abs(r1)) + w3 * (abs(l3) + abs(r3))
              + w5 * (abs(l5) + abs(r5)) + w7 * (abs(l7) + abs(r7))
              + w9 * (abs(l9) + abs(r9)) + w0 * (abs(l0) + abs(r0))
              + w2 * (abs(l2) + abs(r2)) + w4 * (abs(l4) + abs(r4))
              + w6 * (abs(l6) + abs(r6)) + w8 * (abs(l8) + abs(r8)))
    resk = (resk + w1 * s1 + w3 * s3 + w5 * s5 + w7 * s7 + w9 * s9
            + w0 * s0 + w2 * s2 + w4 * s4 + w6 * s6 + w8 * s8)
    reskh = resk * 0.5
    resasc = (wc * abs(fc - reskh) + w0 * (abs(l0 - reskh) + abs(r0 - reskh))
              + w1 * (abs(l1 - reskh) + abs(r1 - reskh))
              + w2 * (abs(l2 - reskh) + abs(r2 - reskh))
              + w3 * (abs(l3 - reskh) + abs(r3 - reskh))
              + w4 * (abs(l4 - reskh) + abs(r4 - reskh))
              + w5 * (abs(l5 - reskh) + abs(r5 - reskh))
              + w6 * (abs(l6 - reskh) + abs(r6 - reskh))
              + w7 * (abs(l7 - reskh) + abs(r7 - reskh))
              + w8 * (abs(l8 - reskh) + abs(r8 - reskh))
              + w9 * (abs(l9 - reskh) + abs(r9 - reskh)))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, ratio**1.5), without the OverflowError of a huge power
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > _ROUNDOFF_FLOOR:
        # max(floor, abserr), NaN included: a NaN abserr gives the floor
        floor = _EPS50 * resabs
        abserr = abserr if abserr > floor else floor
    return result, abserr, resabs, resasc


def _dqpsrt(last, maxerr, elist, iord, nrmax):
    """Keep iord (1-based) listing the error estimates in descending order;
    return the interval to bisect next as (maxerr, its error, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    errmax = elist[maxerr]
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    jupbn = last
    if last > QUAD_LIMIT // 2 + 2:
        jupbn = QUAD_LIMIT + 3 - last
    errmin = elist[last]
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            # insert errmax here, then errmin by traversing bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n, epstab, res3la, nres):
    """Epsilon algorithm on epstab[1..n] (1-based): (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: convergence
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _quotient(x: float, y: float) -> float:
    """x / y with the IEEE result where Python would raise on y == 0."""
    if y != 0.0:
        return x / y
    if x == 0.0 or math.isnan(x):
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def dqagse(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, int, int]:
    """QUADPACK dqagse at the targets QUAD_ABS_TOL and QUAD_REL_TOL: (result,
    abserr, neval, ier) for the integral of f over [a, b], bisecting at most
    QUAD_LIMIT - 1 times.  ier is 0 on success and otherwise the QUADPACK code
    (1 limit reached, 2 roundoff, 3 bad integrand, 4 no convergence of the
    extrapolation, 5 divergent).
    """
    ier = 0
    if a == b:
        return 0.0, 0.0, 0, 0  # as scipy, which evaluates nothing here

    # first approximation to the integral
    ierro = 0
    result, abserr, defabs, resabs = _dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(QUAD_ABS_TOL, QUAD_REL_TOL * dres)
    last = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier

    # 1-based work arrays, as in the Fortran; allocated once one rule is
    # not enough
    alist = [0.0] * (QUAD_LIMIT + 1)
    blist = [0.0] * (QUAD_LIMIT + 1)
    rlist = [0.0] * (QUAD_LIMIT + 1)
    elist = [0.0] * (QUAD_LIMIT + 1)
    iord = [0] * (QUAD_LIMIT + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1

    sum_list = False  # leave through the sum of the interval list
    for last in range(2, QUAD_LIMIT + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _dqk21(f, a1, b1)
        area2, error2, _, defab2 = _dqk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == QUAD_LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _dqpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_list = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting,
            # decrease the error sum over the larger intervals (erlarg)
            jupbnd = last
            if last > 2 + QUAD_LIMIT // 2:
                jupbnd = QUAD_LIMIT + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # final result and error estimate
    divergence_test = False
    if not sum_list:
        if abserr == _OFLOW:
            sum_list = True
        elif ier + ierro == 0:
            divergence_test = True
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):
                    sum_list = True
                else:
                    divergence_test = True
            elif abserr > errsum:
                sum_list = True
            elif area != 0.0:
                divergence_test = True
    if divergence_test:
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            ratio = _quotient(result, area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    if sum_list:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, 42 * last - 21, ier


def one_sided_derivative(fn: Callable[[float], float], r: float, side: str,
                         base_step: float) -> float:
    """One-sided derivative of fn at r by difference quotients with Richardson
    extrapolation over the step sequence base_step * 2**(-k), k < FD_LEVELS.

    side is "plus" or "minus".  Returns +-inf when fn is -inf at an endpoint of
    the quotient or when the quotients exceed FD_DIVERGE_THRESHOLD and keep
    growing.
    """
    sign = 1.0 if side == "plus" else -1.0
    f0 = fn(r)
    if math.isinf(f0):
        # log of a vanishing density: the quotient jumps from -inf upward.
        return math.inf if side == "plus" else -math.inf

    steps, quotients = [], []
    growth = 0
    for k in range(FD_LEVELS):
        h = base_step * 0.5 ** k
        fk = fn(r + sign * h)
        if math.isinf(fk):
            return -math.inf if side == "plus" else math.inf
        q = (fk - f0) / (sign * h)
        if quotients and abs(q) > FD_DIVERGE_THRESHOLD and abs(q) >= abs(quotients[-1]):
            growth += 1
            if growth >= 2:
                return math.copysign(math.inf, q)
        else:
            growth = 0
        steps.append(h)
        quotients.append(q)
    # The error of a difference quotient is a power series in h.
    return extrapolate_to_zero(steps, quotients)


def extrapolate_to_zero(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Neville polynomial extrapolation of the samples (x, y) to x = 0."""
    n = len(xs)
    if n < 2:
        return ys[0]
    table = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            x_hi, x_lo = xs[i], xs[i - j]
            table[i] = (x_hi * table[i - 1] - x_lo * table[i]) / (x_hi - x_lo)
    return table[n - 1]
