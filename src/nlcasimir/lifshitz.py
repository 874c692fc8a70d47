"""Casimir pressure between parallel plates.

The pressure is a sum over Matsubara frequencies of transverse-wavevector
integrals.  Substituting y = 2*a*q_hat/(hbar c) makes term l the integral
f(y_l) of

    y^2 * sum_alpha r_alpha^2 e^{-y} / (1 - r_alpha^2 e^{-y})

from y_l = 2*a*xi_l/(hbar c) = l*dy to y_l + SPAN; e^{-50} ~ 2e-22 puts
the cut far beyond double precision.  Every term, l = 0 included, is
integrated in u = sqrt(y - y_l), Jacobian 2u, where k_hat = c1 u
sqrt(2 y_l + u^2), c1 = hbar c/(2a), is free of cancellation and the
nonlocal eps_T (linear in k_hat) has no square-root branch; the static
term takes zero_freq_limit at k_hat = c1 u^2.

casimir_pressures evaluates many queries of one model together, in shared
stages: each sum's scalars, one round of every static term, rounds in
which every sum still open adds its next block of terms, and one call
for the tail integrals of all long sums (below).  The rows of a round
are one call of the G10/K21 quadrature of nlcasimir.quadrature, three
u-panels per term at the start, which sends them through the reflection
chain in 2-d passes of at most 318 panels (_BLOCK terms) and refines
rows that miss quad_tol; the tail integrals' nodes share such passes
too.  A pass writes its temporaries in place, into arrays it made, in
the operand order of the plain formulas, so with their bits.  No row's
quadrature depends on another row, so a query gets the same bits alone
or in any batch.  Each sum reads its rows in ascending l and accumulates
them with compensated summation, so results are bit-identical run to run.

The Gamma(3, y) envelope e^{-y} P(y), P(y) = y^2 + 2y + 2, of the terms
predicts how many terms the sum takes at term_tol (_direct_length).  That
prediction and dy, functions of a, T and term_tol but not of the model,
pick one of two paths, and the prediction sizes the blocks:

- Direct (up to _DIRECT_MAX predicted terms, 300 K sums take about 12,
  and wherever dy^8 > term_tol).  A row that misses quad_tol has
  stalled at _MAX_PANELS, and raises ConvergenceError if the sum reads
  it; rows past the term that stops the sum are never read.  The
  dropped tail is bounded by the envelope (_matsubara_tail).
- Euler-Maclaurin (longer sums: thousands of terms at 1 K).  Where dy is
  small, f is smooth on the scale of dy above y ~ _Y0.  The terms
  l < l0 = ceil(_Y0/dy) are summed directly, and with y0 = l0 dy

      sum_{l >= l0} f(l dy) = (1/dy) int_{y0}^{y0 + _TAIL_SPAN} f(y) dy
                              + f(y0)/2 + sum_{k=1}^{6} G_k Delta^k f(y0),

  the Gregory form of Euler-Maclaurin, which needs no derivatives
  (Bordag, Klimchitskaya, Mohideen and Mostepanenko, Advances in the
  Casimir Effect, OUP 2009).  Delta is the forward difference of step dy,
  taken from the eight terms l0..l0+7, and G_k are the Gregory
  coefficients.  f(y) at a continuous y is the term integral at
  xi = c1 y.  The y-integral is G10/K21 on _TAIL_PANELS = 5 geometric
  panels; e^{-45} ~ 3e-20 puts its cut below double precision.
  The error budget adds the |K21 - G10| of the summed terms, those of the
  eight difference terms times their Gregory weights, the y-integral's
  |K21 - G10| plus the most its nodes' own errors can add, over dy, and
  2 |G_6| |Delta^7 f(y0)| for the Gregory remainder sum_{k>=7} G_k
  Delta^k f(y0), which holds where each difference is at most about half
  the one before.  That remainder is up to about 0.4 dy^7 of the sum
  (Drude, plasma and nonlocal gold at a = 0.02-30 um), the direct sum's
  own truncation about 0.6 term_tol/dy, so this path is taken only where
  dy^8 <= term_tol: it is then no less accurate than the direct sum, and
  dy stays below 0.057.  Against direct sums the true error was at most
  0.72 of the estimate up to dy = 0.0625, and 1.13 at dy = 0.07.
  A WithCore model interpolates its core linearly, so f has kinks at the
  core's nodes; _tail_integral puts panel edges there and adds a bound
  on what they cost the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence

import numpy as np

from .constants import CONSTANTS, matsubara_xi, pressure_to_pascal
from .errors import ConvergenceError, DomainError
from .quadrature import _NODES, _WEIGHTS, integrate
from .response import ResponseModel, WithCore
from .reflection import reflection_pair, zero_freq_limit

APERY = 1.2020569031595943      # zeta(3)
SPAN = 50.0                     # width of each term's y-integration window

# panel edges in u; finer near the integrand peak
_U_EDGES = np.sqrt((0.0, 2.0, 12.0, SPAN))
_BLOCK = 106                    # most term rows in one block of a sum

_DIRECT_MAX = 400               # longest predicted sum that is summed directly
_Y0 = 0.5                       # y above which long sums are integrated
_TAIL_SPAN = 45.0               # width in y of the tail integral
_TAIL_PANELS = 5                # its geometric y-panels
_KINK_STEP = 1e-3               # y-step of the stencil that measures a kink
# Gregory coefficients G_1..G_6 of Delta^1..Delta^6 f(y0)
_GREGORY = (-1 / 12, 1 / 24, -19 / 720, 3 / 160, -863 / 60480, 275 / 24192)
# row k: Delta^k f(y0) as weights on the eight terms f(y0), ..., f(y0 + 7 dy)
_DELTA = np.array([np.diff(np.eye(8), k, axis=0)[0] for k in range(8)])
_GREGORY_WEIGHTS = 0.5 * _DELTA[0] + np.array(_GREGORY) @ _DELTA[1:7]


@dataclass(frozen=True)
class PressureQuery:
    """One pressure.  a^3, xi_1 = 2 pi k_B T, dy^3 and (1 - e^{-dy})^3, dy =
    2 a xi_1/(hbar c), must be finite normal doubles, k_B T/(8 pi a^3) and
    (5 xi_1)^2 finite, or DomainError: a in [2.82e-103, 5.64e102] um, a T
    in [5.13e-101, 1.02e105] um K, T/a^3 < 5.2e313 K/um^3, T < 4.9e156 K."""
    separation: float          # um
    temperature: float         # K
    model: ResponseModel
    quad_tol: float = 1e-9
    term_tol: float = 1e-10

    def __post_init__(self):
        # written so that NaN fails too
        if not 0.0 < self.separation < math.inf:
            raise DomainError(f"separation must be finite and positive, got {self.separation}")
        if not 0.0 < self.temperature < math.inf:
            raise DomainError(f"temperature must be finite and positive, got {self.temperature}")
        a, temp = self.separation, self.temperature
        xi_1 = matsubara_xi(1, temp)
        dy = 2.0 * a * xi_1 / CONSTANTS.hbar_c
        # q_hat <= l xi_1 + SPAN c1 on the opening rows l <= 5 (dy > 1e50 where
        # xi_1 nears overflow); k_B T/(8 pi a^3) is formed once a^3 has passed
        q_top = 5.0 * xi_1 + SPAN * CONSTANTS.hbar_c / (2.0 * a)
        if not (all(2.0**-1022 <= x < math.inf for x in
                    (a * a * a, xi_1, dy * dy * dy, (-math.expm1(-dy)) ** 3))
                and q_top * q_top < math.inf and CONSTANTS.boltzmann * temp
                / (8.0 * math.pi * a * a * a) < math.inf):
            raise DomainError(f"a = {a} um, T = {temp} K lie outside the "
                              "range double arithmetic can sum")
        for name, tol in (("quad_tol", self.quad_tol), ("term_tol", self.term_tol)):
            if not 0.0 < tol <= 1e-3:
                raise DomainError(f"{name} must lie in (0, 1e-3], got {tol}")


@dataclass(frozen=True)
class PressureResult:
    """A pressure and how it was reached.

    terms_used counts the Matsubara frequencies the pressure represents.

    per_term holds Pa contributions in ascending l: on the direct path one
    per term (l = 0 with its weight 1/2), so len(per_term) == terms_used;
    on the Euler-Maclaurin path the directly summed terms l < l0 followed
    by one entry for the integrated tail l >= l0.  Either way they sum to
    the pressure.
    """

    pressure: float            # Pa, negative = attraction
    terms_used: int
    quad_error_estimate: float  # Pa
    per_term: Optional[Sequence[float]] = None


def _summand(y, r):
    """y^2 sum_alpha r_alpha^2 e^{-y} / (1 - r_alpha^2 e^{-y}) at nodes y."""
    ey = np.exp(np.negative(y))     # then scratch: every step is in place
    tm, te = (amp * amp * ey for amp in (r.r_tm, r.r_te))
    for w in (tm, te):          # w / (1 - w), with 1 - w in ey
        w /= np.subtract(1.0, w, out=ey)
    tm += te
    tm *= np.multiply(y, y, out=ey)
    return tm


def _integrate(model, quad_tol, c1, xi, y_lo):
    """(integrals, errors, converged flags) of the terms c1, xi, y_lo (xi
    None: static terms, y_lo = 0) in one integrate call; c1 is a scalar or
    one per row.  The integrand writes only into arrays it makes."""
    c1 = np.full(len(y_lo), c1)

    def u_integrand(rows, u):
        y0 = y_lo[rows][:, None]
        k = c1[rows][:, None] * u
        y = u * u
        if xi is None:
            pair = zero_freq_limit(model, np.multiply(k, u, out=k))
        else:
            root = 2.0 * y0 + y
            k *= np.sqrt(root, out=root)
            pair = reflection_pair(model, xi[rows][:, None], k)
        f = _summand(np.add(y, y0, out=y), pair)
        return np.multiply(f, np.multiply(2.0, u, out=y), out=f)

    # a copy: the view np.broadcast_to makes costs about 3 us more a call
    edges = _U_EDGES[None, :].repeat(len(y_lo), axis=0)
    return integrate(u_integrand, edges, quad_tol)


def _checked(values, errors, converged, quad_tol):
    """(values, errors) as lists; ConvergenceError with an estimate if a
    row stalled."""
    if not converged.all():
        raise ConvergenceError(
            f"wavevector quadrature stalled above tolerance {quad_tol}",
            last_estimate=float(values[~converged][0]))
    return values.tolist(), errors.tolist()


def _tail_integral(model, c1, y0, dy, quad_tol):
    """A generator of (1/dy) int_{y0}^{y0 + _TAIL_SPAN} f(y) dy: for a
    WithCore model it first yields its kink stencil as term rows (c1, xi,
    y) and is sent their (integrals, errors, converged); then it yields
    (c1, edges), is sent its row of _tail_rows, which integrates the
    tails of a whole batch together, and yields (the integral over dy,
    its error bound, converged).

    The bound takes |K21 - G10| and what the nodes' own errors can add
    (_tail_rows).  For a WithCore model it adds what the kinks np.interp
    puts into f at the nodes of the core table cost the Euler-Maclaurin
    identity: dy |J| B_2/2, B_2 <= 1/6, for a jump J of f' beyond the eight
    difference terms, and up to dy |J|/4 among them.  Panel edges sit on
    the kinks.
    """
    edges = y0 * ((y0 + _TAIL_SPAN) / y0) ** (
        np.arange(_TAIL_PANELS + 1) / _TAIL_PANELS)
    kinks = np.empty(0)
    if isinstance(model, WithCore):
        # every core node, clipped to the span: one width for every c1
        kinks = model.core.xi_grid / c1
        edges = np.sort(np.concatenate([edges, kinks.clip(y0, edges[-1])]))
        kinks = kinks[(kinks > y0) & (kinks < edges[-1])]

    kink_bound = 0.0
    if len(kinks):
        # J from five points around each kink, exact for a cubic plus
        # J (y - kink)_+
        y = (kinks[:, None] + _KINK_STEP * np.arange(-2.0, 3.0)).ravel()
        fy = np.reshape(_checked(*(yield c1, c1 * y, y), quad_tol)[0], (-1, 5))
        jump = np.abs(fy @ (1.0, -4.0, 6.0, -4.0, 1.0)) / (2.0 * _KINK_STEP)
        share = np.where(kinks > y0 + 7.0 * dy, 1.0 / 12.0, 0.25)
        kink_bound = dy * float(share @ jump)
    value, err, ok, node_err = yield c1, edges
    yield value / dy, (err + node_err) / dy + kink_bound, ok


def _tail_rows(model, quad_tol, requests):
    """(int f dy, |K21 - G10|, converged, node error) of the tail integrals
    requests (c1, edges), one integrate row each; a row with a stalled node
    has not converged.  The node error, sum_j w_j half_j err_j over the
    nodes of a row's final panels (K21 weights, half widths), is the most
    the nodes' own errors can add, as f >= 0.  The nodes of the panels of
    one integrand call are the terms of one _integrate, whose passes they
    share."""
    c1, edges = map(np.array, zip(*requests))
    stalled = np.zeros(len(c1), bool)
    panels = []         # per call: rows, centres, half widths, node errors

    def f(rows, y):
        nodes = rows.repeat(y.shape[1])
        values, errors, converged = _integrate(
            model, quad_tol, c1[nodes], c1[nodes] * y.ravel(), y.ravel())
        stalled[nodes[~converged]] = True
        half = (y[:, -1] - y[:, 0]) / (2.0 * _NODES[-1])
        panels.append((rows, y[:, len(_NODES) // 2], half,
                       np.vecdot(errors.reshape(y.shape), _WEIGHTS[0]) * half))
        return values.reshape(y.shape)

    values, errors, converged = integrate(f, edges, quad_tol)
    # integrate bisects: by centre, a bisected panel is followed by a part
    # of it, at most half/2 above, a final one by a panel about half above
    rows, centre, half, node_err = map(np.concatenate, zip(*panels))
    o = np.lexsort((centre, rows))
    final = np.append((np.diff(rows[o]) != 0)
                      | (np.diff(centre[o]) > 0.75 * half[o[:-1]]), True)
    node_err = np.bincount(rows[o][final], node_err[o][final], len(c1))
    return zip(values.tolist(), errors.tolist(),
               (converged & ~stalled).tolist(), node_err.tolist())


def _envelope_sum(y, dy):
    """sum_{j>=1} e^{-j dy} P(y + j dy) of the Gamma(3, y) envelope e^{-y}
    P(y), P(y) = y^2 + 2y + 2, closed-form from sum_j j^k e^{-j dy}."""
    rho = math.exp(-dy)
    q = -math.expm1(-dy)
    return rho * (dy * dy * (1.0 + rho) / q**3 + (2.0 * y + 2.0) * dy / q**2
                  + (y * y + 2.0 * y + 2.0) / q)


def _matsubara_tail(term, y, dy):
    """|term| sum_{j>=1} e^{-j dy} P(y + j dy) / P(y): the terms after the
    last, at y, each scaled from it by the envelope."""
    return abs(term) * _envelope_sum(y, dy) / (y * y + 2.0 * y + 2.0)


def _direct_length(dy, term_tol):
    """Terms the direct sum is predicted to take, y_stop/dy: the envelope
    g(y) = e^{-y} P(y) / 2 falls to term_tol times its own primed sum S =
    1/2 + sum_{j>=1} g(j dy) at y_stop, the fixed point of y = ln(P(y) /
    (2 term_tol S))."""
    total = 0.5 + 0.5 * _envelope_sum(0.0, dy)
    log_floor = -math.log(term_tol * total)
    y = 0.0
    for _ in range(8):      # rises to the fixed point; the map contracts
        y = log_floor + math.log(0.5 * (y * y + 2.0 * y + 2.0))
        y = 0.0 if y < 0.0 else y       # max(y, 0.0), without its call
    return y / dy


class _Sum:
    """The pressure sum of one query between the rounds of
    casimir_pressures: the l = 0 term with weight 1/2 and the analytic
    static reflection limits, then a direct sum that stops once a term
    falls below term_tol of the total, or a long sum's terms l < l0 and
    its tail (see the module docstring)."""

    def __init__(self, index, query):
        a, temp = query.separation, query.temperature
        self.index, self.query = index, query
        self.xi_1 = matsubara_xi(1, temp)
        self.dy = dy = 2.0 * a * self.xi_1 / CONSTANTS.hbar_c
        self.scale = 2.0 * a / CONSTANTS.hbar_c
        self.c1 = CONSTANTS.hbar_c / (2.0 * a)
        self.l_cap = int(80.0 / dy) + 1000
        self.prefactor = -CONSTANTS.boltzmann * temp / (8.0 * math.pi * a**3)
        # l0: first integrated term, or None on the direct path; rows: the
        # terms l = 1, 2, ... the sum is expected to evaluate (at 300, 77 and
        # 5 K no direct sum used more); dy^8 <= term_tol keeps the Gregory
        # remainder below the direct truncation
        predicted = _direct_length(dy, query.term_tol)
        if predicted > _DIRECT_MAX and dy**8 <= query.term_tol:
            self.l0 = math.ceil(_Y0 / dy)
            self.rows = self.l0 + 7
        else:
            self.l0 = None
            self.rows = math.ceil(predicted) + 1
        self.ends = []      # (term, err) of l0..l0+7, Euler-Maclaurin path
        self.tail = None    # its _tail_integral, once its terms are read
        self.acc = self.comp = self.quad_err = 0.0  # comp: Kahan compensation
        self.terms = []
        self.l, self.end = -1, 0    # the last term read, and the block's

    def read(self, values, errors, ok, row):
        """Read the block's rows of a round's lists, from row on, in
        ascending l; True if the sum needs another block, which it sets:
        up to _BLOCK rows to the expected last row, then 2, 4 .. _BLOCK."""
        query, l0, terms, l_cap = self.query, self.l0, self.terms, self.l_cap
        acc, comp, quad_err = self.acc, self.comp, self.quad_err
        j = row - self.l - 1        # term l is row j + l
        done = bool(l0) and self.end == self.rows   # the head's last block
        for l in range(self.l + 1, self.end + 1):
            term, err = values[j + l], errors[j + l]
            if not ok[j + l]:
                raise ConvergenceError("wavevector quadrature stalled above "
                                       f"tolerance {query.quad_tol}",
                                       last_estimate=term)
            if not l:                   # the static term has weight 1/2
                term, err = 0.5 * term, 0.5 * err
            elif l0 and l >= l0:
                self.ends.append((term, err))
                continue
            quad_err += err
            terms.append(term)

            # compensated accumulation, fixed ascending order
            y = term - comp
            t = acc + y
            comp = (t - acc) - y
            acc = t

            if not l0 and abs(term) < query.term_tol * abs(acc):
                done = True
                break
            if l >= l_cap:
                raise ConvergenceError(
                    f"Matsubara sum still above term_tol at l = {l} (a = "
                    f"{query.separation} um, T = {query.temperature} K)",
                    last_estimate=pressure_to_pascal(self.prefactor * acc))
        self.acc, self.comp, self.quad_err, self.l = acc, comp, quad_err, l
        if not done:
            rows = self.rows
            self.end = min(rows if l < rows else 2 * l + 2 - rows, l + _BLOCK)
        return not done

    def result(self, tail=None):
        """The PressureResult, given on the Euler-Maclaurin path the tail
        ((1/dy) int f dy, its error bound, converged) of _tail_integral."""
        prefactor, acc, quad_err = self.prefactor, self.acc, self.quad_err
        if tail:
            integral, integral_err, ok = tail
            f, f_err = np.array(self.ends).T
            value = integral + float(_GREGORY_WEIGHTS @ f)
            acc += value - self.comp        # the last compensated step
            self.terms.append(value)
            if not ok:
                raise ConvergenceError(
                    "Matsubara tail integral stalled above tolerance "
                    f"{self.query.quad_tol}",
                    last_estimate=pressure_to_pascal(prefactor * acc))
            quad_err += (integral_err + float(np.abs(_GREGORY_WEIGHTS) @ f_err)
                         + 2.0 * abs(_GREGORY[-1] * float(_DELTA[7] @ f)))
            terms_used = self.l0 + int(_TAIL_SPAN / self.dy) + 1
        else:
            # the last term, terms[-1], stopped the sum
            quad_err += _matsubara_tail(
                self.terms[-1], self.scale * (self.xi_1 * self.l), self.dy)
            terms_used = self.l + 1
        pressure = pressure_to_pascal(prefactor * acc)
        if not abs(pressure) < math.inf:
            raise DomainError(
                f"the pressure at a = {self.query.separation} um, "
                f"T = {self.query.temperature} K overflows")
        unit = pressure_to_pascal(prefactor)
        return PressureResult(pressure=pressure, terms_used=terms_used,
                              quad_error_estimate=abs(unit) * quad_err,
                              per_term=tuple([unit * t for t in self.terms]))


def casimir_pressures(queries: Sequence[PressureQuery]) -> List[PressureResult]:
    """The PressureResults of queries that share one model object and one
    quad_tol, in input order, in the stages of the module docstring; the
    error of the first failing query in input order is raised, differing
    models or quad_tol raise DomainError."""
    queries = list(queries)
    if not queries:
        return []
    model, quad_tol = queries[0].model, queries[0].quad_tol
    if any(q.model is not model or q.quad_tol != quad_tol for q in queries):
        raise DomainError("the queries of one call must share one model "
                          "object and one quad_tol")
    everyone = sums = [_Sum(i, q) for i, q in enumerate(queries)]
    results, error, cut = [None] * len(sums), None, len(sums)
    # each stage takes the sums in ascending order, and a failure drops
    # every later sum, so the error kept is that of the first failing query
    while sums:
        sizes = [len(s.request[2]) if s.tail else s.end - s.l for s in sums]
        starts = list(accumulate(sizes, initial=0))
        # per row: xi_1, 2a/(hbar c), c1 and l minus the row's index
        xi_1, scale, c1, l = np.array(
            [(s.xi_1, s.scale, s.c1, s.l + 1 - j)
             for s, j in zip(sums, starts)]).repeat(sizes, axis=0).T
        xi = xi_1 * (np.arange(len(l)) + l)
        y_lo = scale * xi
        for s, j, n in zip(sums, starts, sizes):
            if s.tail:          # a kink stencil: its own rows (c1, xi, y)
                xi[j:j + n], y_lo[j:j + n] = s.request[1:]
        static = sums[0].l < 0      # the first round: every static term, l = 0
        integrals = _integrate(model, quad_tol, c1, None if static else xi, y_lo)
        values, errors, ok = (r.tolist() for r in integrals)
        reading, sums = sums, []
        for s, row in zip(reading, starts):
            try:
                if s.tail:
                    s.request = s.tail.send(tuple(
                        r[row:row + len(s.request[2])] for r in integrals))
                elif s.read(values, errors, ok, row):
                    sums.append(s)
                    continue
                elif s.l0:
                    s.tail = _tail_integral(model, s.c1, s.l0 * s.dy, s.dy,
                                            quad_tol)
                    s.request = next(s.tail)
                else:
                    results[s.index] = s.result()
                    continue
            except (ConvergenceError, DomainError) as exc:
                error, cut = exc, s.index
                break
            if len(s.request) == 3:     # a kink stencil joins the next round
                sums.append(s)
    # the tails of the long sums wait until no sum has terms left
    tails = [s for s in everyone[:cut] if s.l0]
    rows = (_tail_rows(model, quad_tol, [s.request for s in tails]) if tails
            else ())
    for s, row in zip(tails, rows):
        try:
            results[s.index] = s.result(s.tail.send(row))
        except (ConvergenceError, DomainError) as exc:
            error = exc
            break
    if error is not None:
        raise error
    return results


def casimir_pressure(query: PressureQuery) -> PressureResult:
    """The pressure of one query: casimir_pressures of a one-query list."""
    return casimir_pressures([query])[0]


def classical_limit_pressure(a_um, temperature, te_zero_weight=0.0):
    """Large-separation limit where only the l = 0 term survives.

    -zeta(3) k_B T (1 + w) / (8 pi a^3) in Pa; w is the weight of the TE
    zero-frequency amplitude squared (0 for the dissipative local model,
    approaching 1 for the plasma model as k_hat -> 0).
    """
    # written so that NaN and inf fail too
    if not (0.0 < a_um < math.inf and 0.0 < temperature < math.inf):
        raise DomainError("separation and temperature must be finite and "
                          "positive")
    if not 0.0 <= te_zero_weight <= 1.0:
        raise DomainError(f"te_zero_weight must lie in [0, 1], got {te_zero_weight}")
    p = -APERY * CONSTANTS.boltzmann * temperature * (1.0 + te_zero_weight) \
        / (8.0 * math.pi * a_um**3)
    return pressure_to_pascal(p)


def ideal_metal_pressure_zero_t(a_um):
    """Zero-temperature perfect-mirror pressure, -pi^2 hbar c/(240 a^4), in Pa."""
    if not 0.0 < a_um < math.inf:
        raise DomainError(f"separation must be finite and positive, got {a_um}")
    return pressure_to_pascal(-math.pi**2 * CONSTANTS.hbar_c / (240.0 * a_um**4))
