"""References for the benchmark's output checks, computed apart from cctsim.

Nothing here imports cctsim.  The closed forms are the printed lambda/zeta
products evaluated in mpmath at ``DIGITS`` significant digits; the
trajectory references follow the per-cycle event rules of each absorber
model (per-cycle Born draws, or the coherent amplitude recursion resolved
branch by branch, which is exact because every projection is diagonal in
the absorber basis).  The protocol reference is the controlled-U_m built
from the Z-Y-Z definition, with theta negated for outcome m=1.

Every probability function returns (success, absorbed, discarded) as
floats that sum to 1.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np

DIGITS = 40


def _sin_sq(x):
    return mpmath.sin(x) ** 2


def chained_factors(outer: int, inner: int, outer_weight, inner_weight, cycles: int | None = None):
    """(outer-discard factor, inner-absorption factor) of a chained stage.

    (1 - w_o sin^2(pi/2M))^c  and  prod_{i=1..c} (1 - w_i sin^2(i pi/2M) sin^2(pi/2N))^N,
    with c = cycles (2M for the controlled-phase stage, else M).
    """
    cycles = outer if cycles is None else cycles
    with mpmath.workdps(DIGITS):
        wo, wi = mpmath.mpf(outer_weight), mpmath.mpf(inner_weight)
        step = mpmath.pi / (2 * outer)
        s_n = _sin_sq(mpmath.pi / (2 * inner))
        outer_factor = (1 - wo * _sin_sq(step)) ** cycles
        inner_factor = mpmath.mpf(1)
        for i in range(1, cycles + 1):
            inner_factor *= (1 - wi * _sin_sq(i * step) * s_n) ** inner
        return outer_factor, inner_factor


def dcfo_success(chain: int, inner: int, nabla):
    """[(1 - nabla cos^2(pi/2K) sin^2(pi/2N))^N (1 - nabla sin^2(pi/2K))]^K."""
    with mpmath.workdps(DIGITS):
        nabla = mpmath.mpf(nabla)
        y = mpmath.pi / (2 * chain)
        stage = (1 - nabla * mpmath.cos(y) ** 2 * _sin_sq(mpmath.pi / (2 * inner))) ** inner
        return (stage * (1 - nabla * _sin_sq(y))) ** chain


def _weights(z: complex):
    return mpmath.mpf(abs(z)) ** 2


def _general_stages(M: int, N: int, K: int, alpha, beta, gamma, delta, theta):
    """(discard-survival, absorb-survival) of the general stages lambda2..lambda5."""
    a2, b2, g2, d2 = (_weights(z) for z in (alpha, beta, gamma, delta))
    c2 = mpmath.cos(mpmath.mpf(theta) / 2) ** 2
    s2 = mpmath.sin(mpmath.mpf(theta) / 2) ** 2
    return (
        chained_factors(M, N, a2 * d2, b2 * d2),
        (mpmath.mpf(1), dcfo_success(K, N, d2 * s2)),
        chained_factors(M, N, d2 * a2 * c2 + d2 * b2 * s2, d2 * b2 * c2 + d2 * a2 * s2),
        chained_factors(M, N, a2 * g2, b2 * g2, 2 * M),
    )


def _bell_stages(M: int, N: int, K: int, ell: int, c0, c1, theta):
    """(discard-survival, absorb-survival) of the Bell stages lambda6 and lambda7."""
    nab = _weights(c1) if ell == 0 else _weights(c0)
    half = mpmath.mpf(theta) / 2
    nabla9, nabla10 = nab * mpmath.cos(half) ** 2, nab * mpmath.sin(half) ** 2
    # Class 1 puts nabla9 on the outer factor, class 0 puts it on the inner one.
    outer, inner = (nabla9, nabla10) if ell == 1 else (nabla10, nabla9)
    return (mpmath.mpf(1), dcfo_success(K, N, nabla10)), chained_factors(M, N, outer, inner)


def general_row(M: int, N: int, K: int, alpha, beta, gamma, delta, theta):
    """(lambda2, lambda3, lambda4, lambda5, zeta0, zeta1) of the general protocol, as mpf."""
    with mpmath.workdps(DIGITS):
        lam2, lam3, lam4, lam5 = (mpmath.fprod(stage) for stage in _general_stages(M, N, K, alpha, beta, gamma, delta, theta))
        return lam2, lam3, lam4, lam5, 1 - lam2 * lam3 * lam4, 1 - lam2 * lam3 * lam4 * lam5


def bell_row(M: int, N: int, K: int, ell: int, c0, c1, theta):
    """(lambda6, lambda7, zeta) of the Bell-type protocol, as mpf."""
    with mpmath.workdps(DIGITS):
        lam6, lam7 = (mpmath.fprod(stage) for stage in _bell_stages(M, N, K, ell, c0, c1, theta))
        return lam6, lam7, 1 - lam6 * lam7


def _stage_chain(stages):
    """Outcome law of stages run in order, each (discard-survival, absorb-survival)."""
    alive, absorbed, discarded = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
    for keep_discard, keep_absorb in stages:
        discarded += alive * (1 - keep_discard)
        alive *= keep_discard
        absorbed += alive * (1 - keep_absorb)
        alive *= keep_absorb
    return alive, absorbed, discarded


def _floats(triple):
    return tuple(float(x) for x in triple)


def cct_general(M: int, N: int, K: int, alpha, beta, gamma, delta, theta):
    """Stage-composed general run: outcome m is unbiased and m=1 adds the controlled-phase stage."""
    with mpmath.workdps(DIGITS):
        *base, phase = _general_stages(M, N, K, alpha, beta, gamma, delta, theta)
        m0 = _stage_chain(base)
        m1 = _stage_chain(base + [phase])
        return _floats((x + y) / 2 for x, y in zip(m0, m1))


def cct_bell(M: int, N: int, K: int, ell: int, c0, c1, theta):
    with mpmath.workdps(DIGITS):
        return _floats(_stage_chain(_bell_stages(M, N, K, ell, c0, c1, theta)))


def qz_born(presence_weight, inner: int):
    """Per-cycle Born single gate: absorb w sin^2(pi/2N) per cycle, then succeed with weight w."""
    with mpmath.workdps(DIGITS):
        w = mpmath.mpf(presence_weight)
        success = (1 - w * _sin_sq(mpmath.pi / (2 * inner))) ** inner * w
        return _floats((success, 1 - success, 0))


def qz_coherent(presence_weight, inner: int):
    """Coherent single gate: only the presence branch exits in the design polarization."""
    with mpmath.workdps(DIGITS):
        success = mpmath.mpf(presence_weight) * mpmath.cos(mpmath.pi / (2 * inner)) ** (2 * inner)
        return _floats((success, 1 - success, 0))


def cqz_born(presence_weight, outer: int, inner: int):
    """Per-cycle Born chained gate, resolved cycle by cycle.

    Outer cycle i draws N absorptions at w sin^2(i pi/2M) sin^2(pi/2N) each,
    then a detector discard at (1 - w) sin^2(pi/2M).
    """
    with mpmath.workdps(DIGITS):
        w = mpmath.mpf(presence_weight)
        s_n = _sin_sq(mpmath.pi / (2 * inner))
        p_detector = (1 - w) * _sin_sq(mpmath.pi / (2 * outer))
        alive, absorbed, discarded = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
        for i in range(1, outer + 1):
            keep_absorb = (1 - w * _sin_sq(i * mpmath.pi / (2 * outer)) * s_n) ** inner
            absorbed += alive * (1 - keep_absorb)
            alive *= keep_absorb
            discarded += alive * p_detector
            alive *= 1 - p_detector
        return _floats((alive, absorbed, discarded))


def cqz_coherent(presence_weight, outer: int, inner: int):
    """Coherent chained gate, branch-resolved.

    P = |b|^2 cos^{2M}(pi/2M) + |a|^2 ||prod_M diag(1, cos^N(pi/2N)) R(pi/2M) e0||^2.
    The absence branch loses only to the detector, the presence branch only
    to absorption.
    """
    with mpmath.workdps(DIGITS):
        w = mpmath.mpf(presence_weight)
        step = mpmath.pi / (2 * outer)
        c, s = mpmath.cos(step), mpmath.sin(step)
        damp = mpmath.cos(mpmath.pi / (2 * inner)) ** inner
        design, channel = mpmath.mpf(1), mpmath.mpf(0)
        for _ in range(outer):
            design, channel = c * design - s * channel, damp * (s * design + c * channel)
        presence_survival = design**2 + channel**2
        absence_survival = c ** (2 * outer)
        success = w * presence_survival + (1 - w) * absence_survival
        return _floats((success, w * (1 - presence_survival), (1 - w) * (1 - absence_survival)))


def euler_zyz(phi: float, theta: float, varphi: float) -> np.ndarray:
    """Rz(phi) Ry(theta) Rz(varphi), with Rz(x) = diag(e^{-ix/2}, e^{ix/2})."""

    def rz(x):
        return np.diag([cmath.exp(-0.5j * x), cmath.exp(0.5j * x)])

    c, s = math.cos(theta / 2), math.sin(theta / 2)
    ry = np.array([[c, -s], [s, c]], dtype=np.complex128)
    return rz(phi) @ ry @ rz(varphi)


def controlled_output(cols: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """Normalized A (x) B amplitudes after applying ``unitary`` to A where B=|1>.

    ``cols[a, b]`` are the input amplitudes; the result is flattened in
    register order (index a*2 + b).
    """
    out = np.array(cols, dtype=np.complex128)
    out[:, 1] = unitary @ out[:, 1]
    out = out.reshape(-1)
    return out / np.linalg.norm(out)


def general_expected(alpha, beta, gamma, delta, phi, theta, varphi, m: int) -> np.ndarray:
    """gamma psi_A |0> + delta (U_m psi_A) |1>, with theta negated for m=1."""
    psi_a = np.array([alpha, beta], dtype=np.complex128)
    cols = np.stack([gamma * psi_a, delta * psi_a], axis=1)
    return controlled_output(cols, euler_zyz(phi, -theta if m else theta, varphi))


def bell_expected(ell: int, sign: int, c0, c1, phi, theta, varphi) -> np.ndarray:
    """c0|0 ell> + sign c1|1 1-ell> with U applied to A on the B=|1> component."""
    cols = np.zeros((2, 2), dtype=np.complex128)
    cols[0, ell] = c0
    cols[1, 1 - ell] = sign * c1
    return controlled_output(cols, euler_zyz(phi, theta, varphi))


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2."""
    return float(abs(np.vdot(a, b)) ** 2)
