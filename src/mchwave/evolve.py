"""Pseudospectral time evolution and the orbital-stability experiment.

The equation is integrated in its smoothed form

    u_t = d/dx (1 - d^2/dx^2)^{-1} (u u_xx + u_x^2 / 2 - u^3),

whose x-derivative reproduces u u_xxx + 2 u_x u_xx - 3 u^2 u_x exactly,
so this is the original flow written through its Hamiltonian structure.
The operator symbol i kappa / (1 + kappa^2) is bounded, so the stiffness
comes from the transport term alone, with speed ~ u: classical RK4 is
stable for dt max |u| / (L / n) up to about 2 sqrt(2) / pi, and the
integrating factor below leaves only the speed max |u - ubar|.

Step control.  One loop, ``_integrate``, steps this flow and the
linearized one of :func:`linearized_run`, each with its stepping state.
A run records the state every ``monitor_every`` steps of
``dt``; fixed steps are classical RK4.  With ``adaptive`` set the fewest
equal steps h whose error estimates meet their method's target fill each
interval between records, in one of two frames and with one of two
explicit Runge-Kutta pairs with FSAL, the last stage being the next
step's first.  Every step is Lawson's (SIAM J. Numer. Anal. 4, 1967;
Hochbruck & Ostermann, Acta Numerica 19, 2010) in a frame of symbol
lambda: E_c = exp(c h lambda), formed once per call of ``_advance`` for
its steps of one h, steps the linear part lambda exactly, and stage i of
a tableau (c, A, b, b_hat) is Y_i = E_c_i (y + h sum_j a_ij conj(E_c_j)
N_j), N = f - lambda u, conj(E_c) = 1 / E_c.  The mean's frame, ubar the conserved mean, takes
the linearization at ubar, lambda = i kappa / (1 + kappa^2) (-ubar
kappa^2 - 3 ubar^2); the lab's is the frame of lambda = 0, where E = 1
and N = f.  One tableau loop takes every step, fixed ones too, RK4's
weights being (1, 2, 2, 1) / 6, so its lab-frame step keeps the textbook
bits.  The estimate per unit time is the RMS grid norm of
sum_j (b_j - b_hat_j) conj(E_c_j) N_j, the step's distance to its
companion over h, at no right side: the last N is the next step's
first.  RK4 with its order-3 companion follows est ~ h^3 within
``STEP_TOL`` at 4 right sides a step; Dormand & Prince's 5(4) pair
(J. Comput. Appl. Math. 6, 1980) carries the order-5 solution and
follows est ~ h^4 within ``PAIR_TOL`` at 6.  Neither frame nor pair wins
everywhere (README.md), so a run starts in the mean's frame with RK4,
and an interval whose count q is 3 or more, and above the count set at
the last choice, first takes one step of span / q of each (frame, pair)
candidate, with no target.  The run goes on with the first candidate of
the fewest predicted right sides, rhs-per-step ceil(span / (0.9 h
(target / est)^(1/p))), a non-finite estimate predicting +inf, and sizes
its steps by that estimate.  A trial keeps only the estimates: every
attempt at an interval steps it whole from its start.
A zero mean (within rounding, ``linop._zero_tol``) leaves the lab's
frame alone.  A run's stepping state is plain data (``_stepping``): its
right side, its (symbol, pair) candidates, each pair carrying its target
and step-size law, and its bound, max |u| at most ``BLOWUP_THRESHOLD``
here and, for J L, whose growing modes leave any fixed bound,
finiteness.  The slope the run holds is f(u) in every frame, so a trial
costs a step per candidate and no other right side.
The counts start from h = 0.25 (L/n) / max |u0 - ubar| and
follow the chosen pair's law (safety 0.9, growth at most 2x); an
interval over the target is redone.  A non-finite estimate or a kept
state past the bound, in every trial too, or a count past
``MAX_REFINE`` times the interval's count of ``dt`` steps, or a first
count that cannot be formed (a huge u0), is blow-up; a trial past the
bound estimates +inf.

Nonlinear products are formed in physical space on a grid refined by the
fixed factor 2, enough to fully dealias cubic terms, and truncated back.
The state is the rfft spectrum of u, so one right side costs two FFT
calls: one batched inverse transform that lifts u, u_x and u_xx to the
fine grid together (their symbols, the zero padding and the amplitude
scale are tabulated once per grid), and a forward transform of the
product u (u_xx - u^2) + u_x^2 / 2, whose coarse modes times the
smoothing symbol are the result: eight FFT calls an RK4 step, and twelve
a step of the pair.  The blow-up check of each state a step keeps, a
trial's too, reads u at the coarse nodes off the fine grid of the slope
that completes its estimate, so no coarse inverse transform runs in the
loop.  A record keeps the spectrum the loop holds and takes rho from it,
at the orbit distance's one irfft, all the ``RHO_FACTOR`` stop needs.
After the loop one pass over the kept spectra, in blocks of
``RECORD_BLOCK`` values, fills the report's array of recorded values by
one batched irfft and gives their E, F and V, u_x for E by one more:
two FFT calls a block.
The right side is an exact x-derivative, so the discrete mean of u is
conserved to rounding.

Blow-up is a recorded outcome, not an exception: the underlying flow is
only conditionally globally well-posed.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, DomainError
from .field import PeriodicField, PeriodicGrid, _functionals, _h1_square, _orbit_distance
from .linop import OperatorMatrix, _apply_l, _zero_tol

TERMINATED_COMPLETED = "completed"
TERMINATED_BLOWUP = "blowup"
TERMINATED_INSTABILITY = "instability_detected"

# Fine-grid factor of the nonlinear products: with 2n nodes the cubic
# terms of modes up to n/2 alias only onto modes the truncation drops.
DEALIAS_PAD = 2
# A run whose max |u| leaves this bound is recorded as blow-up.
BLOWUP_THRESHOLD = 100.0
# A run with a delta > 0 is recorded as unstable once rho exceeds this times delta.
RHO_FACTOR = 50.0
# Target of an adaptive run's RK4 steps: error estimate per unit time, RMS norm.
STEP_TOL = 1e-11
# The same for the Dormand-Prince pair's steps, whose estimate is of order 4,
# not 3: at STEP_TOL five of the 72 bench orbit jobs missed 1e-8 delta in rho.
PAIR_TOL = 3e-12
# An adaptive interval past this many times its count of dt steps is blow-up,
# and a fixed dt below suggested_dt / MAX_REFINE is refused.
MAX_REFINE = 64
# A plan of more records is refused: at n = 1024 the report keeps 256 MiB of
# values (records x n x 8 B), and the loop holds their spectra besides.
MAX_RECORDS = 2**15
# Values per block of the pass that turns a run's held spectra into its
# recorded values and their functionals: its scratch arrays stay a few
# blocks in size.
RECORD_BLOCK = 2**13


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-stepping and monitoring knobs for one run."""

    dt: float
    t_end: float
    monitor_every: int = 10
    adaptive: bool = False  # run only: dt spaces the records (module docstring)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise DomainError(f"dt must be finite and positive, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise DomainError(f"t_end must be finite and positive, got {self.t_end}")
        if not math.isfinite(self.t_end / self.dt):
            raise DomainError(f"t_end / dt must be finite, got {self.t_end} / {self.dt}")
        if (isinstance(self.monitor_every, bool)
                or not isinstance(self.monitor_every, numbers.Integral) or self.monitor_every < 1):
            raise DomainError(f"monitor_every must be an integer >= 1, got {self.monitor_every!r}")

    @property
    def steps(self) -> tuple[int, float]:
        """max(1, round(t_end / dt)) steps, and the dt that lands them on t_end."""
        n_steps = max(1, round(self.t_end / self.dt))
        return n_steps, self.t_end / n_steps


@dataclass(frozen=True)
class StabilityRunReport:
    """The states and diagnostics recorded along a run, at ``times``.

    ``values`` holds one row of grid values a record, row 0 being u0's
    own; drifts are relative to the t = 0 values of E, F, V; ``rho`` is
    the orbital semi-distance to the reference wave (None when no
    reference was supplied).  Every array is indexed by record.
    """

    times: np.ndarray
    values: np.ndarray  # (records, n)
    rho: np.ndarray | None
    drift_E: np.ndarray
    drift_F: np.ndarray
    drift_V: np.ndarray
    terminated: str
    steps: int  # steps taken, of either method, redone and trial ones included
    rhs_calls: int  # right sides evaluated, 4 an RK4 step and 6 a pair's, and one first slope
    max_error_estimate: float  # largest accepted estimate per unit time


@dataclass(frozen=True)
class LinearGrowthReport:
    """L^2 norm history of a linearized run and its empirical growth rates.

    ``rate`` is log(||v(T)|| / ||v(0)||) / T; ``rate_tail`` measures the
    same over the second half of the run, where transients have decayed.
    """

    times: np.ndarray
    norms: np.ndarray
    rate: float
    rate_tail: float


def suggested_dt(u0: PeriodicField, speed: float = 0.0) -> float:
    """0.5 (L/n) / max(1, ||u0||_inf + |speed|): a stable fixed step, and an
    adaptive run's monitor spacing; there the error estimate sizes the
    steps, and more than ``MAX_REFINE`` of them per dt is blow-up.  The
    max(1, .) floor keeps a small wave densely sampled, and the records
    at the times they always had.  A non-finite speed raises DomainError."""
    if not math.isfinite(speed):
        raise DomainError(f"speed must be finite, got {speed}")
    umax = float(np.max(np.abs(u0.values)))
    return 0.5 * u0.grid.spacing / max(1.0, umax + abs(speed))


class _RhsOperator:
    """Precomputed spectral machinery for the smoothed right side, acting on
    rfft spectra: n/2 + 1 coefficients of u in, those of f(u) = u_t out.

    ``lift`` stacks the symbols 2, 2 i kappa and -4 kappa^2 as they act on
    the coarse rfft spectrum, with the zero padding's Nyquist halving and
    the m / n amplitude scale folded in, so one batched inverse transform
    of ``lift * spec`` gives a = 2u, c = 2u_x and b = 4u_xx on the fine
    grid.  The product is formed in place as 8w = a (b - a^2) + c^2 and
    ``sym_out`` carries the 1/8: the factors are powers of two, so every
    rounding is that of w itself while the values stay in the normal
    range.  After a call ``u2_coarse`` holds 2u at the coarse nodes (every
    ``DEALIAS_PAD``-th fine one), bounded in ``_stepping``, which takes
    ``sym_smooth`` too.
    """

    def __init__(self, grid: PeriodicGrid):
        self.n = grid.n
        self.m = DEALIAS_PAD * grid.n
        kap, sym_d1, _ = grid.rfft_tables
        self.sym_smooth = sym_d1 / (1.0 + kap * kap)
        half = self.n // 2 + 1
        self.lift = (self.m / self.n) * np.stack(
            (np.full(half, 2.0), 2.0 * sym_d1, -4.0 * (kap * kap)))
        self.lift[:, -1] *= 0.5  # the zero padding splits the Nyquist cosine between +-n/2
        self.sym_out = self.sym_smooth * (self.n / self.m / 8.0)
        self._fine_spec = np.zeros((3, self.m // 2 + 1), dtype=complex)
        self._fine = np.empty((3, self.m))
        self._w = np.empty(self.m)
        self.u2_coarse = self._fine[0, ::DEALIAS_PAD]

    def __call__(self, spec: np.ndarray) -> np.ndarray:
        half = self.n // 2 + 1
        np.multiply(self.lift, spec, out=self._fine_spec[:, :half])
        a, c, b = np.fft.irfft(self._fine_spec, self.m, out=self._fine)
        w = self._w
        np.multiply(a, a, out=w)
        np.subtract(b, w, out=w)
        w *= a
        np.multiply(c, c, out=c)
        w += c
        # sym_out vanishes at the Nyquist mode, where the fine spectrum would
        # fold +-n/2 onto the grid cosine, so the coarse slice is exact
        return self.sym_out * np.fft.rfft(w)[:half]


class _Pair:
    """An explicit Runge-Kutta pair with FSAL, from its tableau: the nodes
    c and the rows of A, stage by stage, the last row being ``div`` times
    the weights b of the solution the step carries, whose right side is
    the next step's first stage (so c_s = 1 and b_s = 0), and e = b -
    b_hat, b_hat the weights of its companion.  ``w`` = e / -e_s are the
    error weights of the stages before the last, ``err_div`` is 1 / -e_s,
    ``p`` the order in h of the estimate per unit time, ``tol`` the target
    of an adaptive run's steps and ``rhs_per_step`` the right sides a step
    costs, s - 1."""

    def __init__(self, c, a, e, p: int, tol: float, div: float = 1.0):
        s = len(c)
        self.c = tuple(map(float, c))
        self.a = np.array([list(row) + [0.0] * (s - len(row)) for row in a])
        self.b, self.div = self.a[-1, :-1], div
        self.w = np.array(e[:-1]) / -e[-1]
        self.err_div = 1.0 / -e[-1]
        self.nodes = tuple(sorted(set(self.c) - {0.0}))
        self.p, self.tol, self.rhs_per_step = p, tol, s - 1

    def h_next(self, h: float, est: float) -> float:
        """The step meeting ``tol`` after one of h with estimate est ~ h^p, times 0.9."""
        return 0.9 * h * (self.tol / est) ** (1.0 / self.p) if est else math.inf

    def resized(self, h: float, est: float) -> float:
        """The next step: ``h_next``, growing at most 2x."""
        return min(2.0 * h, self.h_next(h, est))

    def cost(self, span: float, h: float, est: float) -> float:
        """The right sides of ``span`` that a trial step of h predicts."""
        if not math.isfinite(est):
            return math.inf
        return self.rhs_per_step * max(1, math.ceil(span / self.h_next(h, est)))


# Classical RK4, weights (1, 2, 2, 1) / 6, and its order-3 FSAL companion: est ~ h^3.
_RK4 = _Pair(c=(0, 1 / 2, 1 / 2, 1, 1),
             a=((), (1 / 2,), (0, 1 / 2), (0, 0, 1), (1, 2, 2, 1)),
             e=(0, 0, 0, 1 / 6, -1 / 6), p=3, tol=STEP_TOL, div=6)
# Dormand & Prince's 5(4) pair, which carries the order-5 solution: est ~ h^4
# (Hairer, Norsett & Wanner, Solving ODEs I, table II.5.2).
_DP54 = _Pair(c=(0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1),
              a=((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
                 (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
                 (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
                 (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)),
              e=(71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40),
              p=4, tol=PAIR_TOL)
# The methods an adaptive interval's trial chooses from, in order of preference.
_METHODS = (_RK4, _DP54)


def _rk_step(f, pair: _Pair, values: np.ndarray, n1: np.ndarray, h: float,
             lam: np.ndarray, es: dict) -> tuple[np.ndarray, np.ndarray]:
    """One Lawson step of h of ``pair`` from ``values``, whose first stage
    ``n1`` = f(values) - lam values the caller has formed, in the frame of
    symbol ``lam``: every step of both flows, fixed ones too.  ``es`` maps
    each node c of the pair to the frame's factors (E_c, conj(E_c)), E_c =
    exp(c h lam); stage i is Y_i = E_c_i (y + h sum_j a_ij conj(E_c_j)
    N_j), N = f - lam y.  Returns the new state y1 = E_1 (y + (h / div) (b @ z)) and E_1
    sum_j w_j conj(E_c_j) N_j over the stages before the last: less the
    next first stage N(y1), it is ``err_div`` times the step's error per
    unit time.  In the lab's frame, lam = 0, E = 1 and the step is
    classical: RK4's, weights (1, 2, 2, 1) over 6, is the textbook step
    bit for bit if ``b @ z`` sums its exact products in the order
    j = 0 .. 3, as OpenBLAS does."""
    z = np.empty((len(pair.c) - 1, values.size), dtype=complex)  # conj(E_j) N_j
    z[0] = n1
    for i in range(1, len(z)):
        e, e_conj = es[pair.c[i]]
        stage = values + h * (pair.a[i, :i] @ z[:i])
        stage *= e
        z[i] = f(stage) - lam * stage
        z[i] *= e_conj
    y1, err = values + (h / pair.div) * (pair.b @ z), pair.w @ z
    y1 *= es[1.0][0]
    err *= es[1.0][0]
    return y1, err


def _advance(st: _Stepping, lam: np.ndarray, pair: _Pair, spec: np.ndarray,
             k1: np.ndarray, q: int, h: float,
             tol: float) -> tuple[np.ndarray | None, np.ndarray, float, int]:
    """Up to q steps of h of ``pair`` from ``spec``, whose slope ``k1`` =
    st.f(spec) is given, in the frame of symbol ``lam``, whose factors at
    the pair's nodes are formed once for the q steps, as is the first
    stage N = f - lam y of each step, which is the last one's end: the end
    state and its f, the largest estimate per unit time and the steps
    taken.  The first estimate not within ``tol`` ends the steps and is
    returned, with a state of None if it is not finite.  A state that passes the estimate
    and fails ``st.bounded`` ends them too: None, with an estimate of +inf."""
    # the error vanishes at the mean and Nyquist modes: Parseval's weight is
    # 2, on n = 2 (spec.size - 1) nodes
    scale = math.sqrt(2.0) / (pair.err_div * 2 * (spec.size - 1))
    es = {c: (e, e.conj()) for c in pair.nodes for e in (np.exp((c * h) * lam),)}
    worst, n1 = 0.0, k1 - lam * spec
    for j in range(q):
        spec, err = _rk_step(st.f, pair, spec, n1, h, lam, es)
        k1 = st.f(spec)
        n1 = k1 - lam * spec  # the next step's first stage
        err -= n1
        est = scale * float(np.linalg.norm(err))
        if not est <= tol:
            return (spec if math.isfinite(est) else None), k1, est, j + 1
        if not st.bounded(spec):
            return None, k1, math.inf, j + 1
        worst = max(worst, est)
    return spec, k1, worst, q


@dataclass(frozen=True)
class _Stepping:
    """A run's stepping state (:func:`_stepping`): the right side ``f`` on
    spectra, the test ``bounded(spec)`` of a kept state after f(spec), and
    the trial's (symbol, pair) ``candidates`` by preference, the first
    being the run's first choice."""

    f: Callable[[np.ndarray], np.ndarray]
    bounded: Callable[[np.ndarray], bool]
    candidates: tuple[tuple[np.ndarray, _Pair], ...]


def _stepping(grid: PeriodicGrid, mean: float) -> _Stepping:
    """The stepping state of a run on ``grid``: RK4 and then the
    Dormand-Prince pair, in the frame of a nonzero ``mean`` and then in the
    lab's, of symbol 0 (at a zero mean lam is 0 already: the one frame)."""
    f, kap = _RhsOperator(grid), grid.rfft_tables[0]
    lam = f.sym_smooth * (-mean * kap * kap - 3.0 * mean * mean)
    frames = (lam, 0.0 * lam) if mean else (lam,)
    # the bound: f(spec) left 2u at the coarse nodes, so against twice
    # BLOWUP_THRESHOLD the test is exact, and NaN fails too
    return _Stepping(f, lambda spec: np.max(np.abs(f.u2_coarse)) <= 2 * BLOWUP_THRESHOLD,
                     tuple((fr, m) for fr in frames for m in _METHODS))


def _integrate(st: _Stepping, spec: np.ndarray, cfg: EvolutionConfig, h_target: float,
               record) -> tuple[str, int, int, float]:
    """The one stepping loop, from the spectrum ``spec`` at t = 0 over
    intervals of ``cfg.monitor_every`` steps of dt (module docstring).  With
    ``cfg.adaptive`` the first count is set by ``h_target``, and an
    interval whose count cannot be formed (h_target not positive, or span /
    h_target not finite) is blow-up; fixed, the interval takes its steps of
    dt in the first candidate with no target.  ``record(t, spec)`` is
    called at t = 0, after each interval and at t_end; a true return ends
    the run as ``instability_detected``.  Returns (verdict, steps,
    rhs_calls, worst).

    Raises:
        DomainError: if the plan takes more than ``MAX_RECORDS`` records.
    """
    n_steps, dt = cfg.steps
    n_records = 1 + -(-n_steps // cfg.monitor_every)
    if n_records > MAX_RECORDS:
        raise DomainError(f"{n_records:.3g} records planned, one every {cfg.monitor_every} of "
                          f"{n_steps:.3g} steps, above MAX_RECORDS = {MAX_RECORDS}")
    # the run's frame (its symbol) and method, and the count set at the last choice
    (lam, pair), chosen_q = st.candidates[0], 0
    # the state at t = 0 is not checked
    s0, steps, rhs_calls, worst = 0, 0, 1, 0.0
    k1 = st.f(spec)
    while not record(s0 * dt, spec):  # the record at s0 dt, then the interval after it
        if s0 == n_steps:
            return TERMINATED_COMPLETED, steps, rhs_calls, worst
        s1 = min(s0 + cfg.monitor_every, n_steps)
        span = (s1 - s0) * dt
        if cfg.adaptive and not (h_target > 0.0 and math.isfinite(span / h_target)):
            return TERMINATED_BLOWUP, steps, rhs_calls, worst  # a huge u0: no count
        if cfg.adaptive and span / h_target > max(2, chosen_q):
            # a planned count of 3 or more, above that of the last choice:
            # one step of h for each candidate with no target; the run goes
            # on with the first of the fewest predicted right sides
            h = span / math.ceil(span / h_target)
            ests = [_advance(st, fr, m, spec, k1, 1, h, math.inf)[2]
                    for fr, m in st.candidates]
            steps += len(ests)
            rhs_calls += sum(m.rhs_per_step for _, m in st.candidates)
            costs = [m.cost(span, h, est) for (_, m), est in zip(st.candidates, ests)]
            best = costs.index(min(costs))
            if costs[best] == math.inf:  # every estimate is non-finite
                return TERMINATED_BLOWUP, steps, rhs_calls, worst
            lam, pair = st.candidates[best]
            h_target = pair.resized(h, ests[best])
            chosen_q = math.ceil(span / h_target)
        while True:  # attempts at the interval [s0 dt, s1 dt]
            if cfg.adaptive:
                q = max(1, math.ceil(span / h_target))
                h, tol = span / q, pair.tol
            else:
                q, h, tol = s1 - s0, dt, math.inf
            if q > MAX_REFINE * (s1 - s0):
                return TERMINATED_BLOWUP, steps, rhs_calls, worst
            end, k_end, est, taken = _advance(st, lam, pair, spec, k1, q, h, tol)
            steps += taken
            rhs_calls += taken * pair.rhs_per_step
            if end is None:
                return TERMINATED_BLOWUP, steps, rhs_calls, worst
            h_target = pair.resized(h, est)
            if est <= tol:
                break
        spec, k1, s0, worst = end, k_end, s1, max(worst, est)
    return TERMINATED_INSTABILITY, steps, rhs_calls, worst


def run(u0: PeriodicField, cfg: EvolutionConfig,
        reference: PeriodicField | None = None, delta: float = 0.0) -> StabilityRunReport:
    """Integrate the flow from u0 with Runge-Kutta steps and record the
    state's grid values and its drift diagnostics.

    dt is adjusted (at most fractionally) so an integer number of steps
    lands exactly on t_end; the state is recorded every ``monitor_every``
    of them and at t_end.  With ``cfg.adaptive`` the records keep those
    times and error-controlled steps, of the candidate a trial chooses,
    fill each interval (module docstring).  Trial steps count in ``steps``
    and their right sides in ``rhs_calls``: 4 an RK4 step and 6 a step of
    the pair, 8 and 12 FFT calls.  When a ``reference`` wave, sampled
    on u0's grid, is supplied the orbital semi-distance rho(u(t), phi) is
    recorded too, and a positive ``delta`` halts the run with
    ``instability_detected`` once rho exceeds ``RHO_FACTOR`` * delta, at
    t = 0 included; delta = 0 turns detection off.  Blow-up
    (non-finite values or ||u||_inf beyond ``BLOWUP_THRESHOLD`` = 100 at
    any state a step keeps) is recorded, not raised; a trial step that
    blows up loses its trial.

    Raises:
        DomainError: if delta is not finite and >= 0, a positive delta
            comes without a reference, the reference is not on u0's grid,
            a fixed dt is below ``suggested_dt(u0) / MAX_REFINE``, or the
            plan takes more than ``MAX_RECORDS`` records.
    """
    if not (math.isfinite(delta) and delta >= 0.0):
        raise DomainError(f"delta must be finite and >= 0, got {delta}")
    if delta and reference is None:
        raise DomainError("instability detection needs a reference wave")
    if reference is not None:
        u0._check_same_grid(reference)
    if not cfg.adaptive and MAX_REFINE * cfg.dt < suggested_dt(u0):
        raise DomainError(f"a fixed dt = {cfg.dt!r} is below suggested_dt(u0) / MAX_REFINE = "
                          f"{suggested_dt(u0) / MAX_REFINE!r}")
    times, spectra, rho = [], [], []  # at each record: t, the held state, rho

    def record(t: float, spec: np.ndarray) -> bool:
        times.append(t)
        spectra.append(spec)
        if reference is None:
            return False
        rho.append(_orbit_distance(spec, reference)[0])
        return delta > 0.0 and rho[-1] > RHO_FACTOR * delta

    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(u0.values)) if cfg.adaptive else 0.0
        if not abs(mean) > _zero_tol(u0.values):
            mean = 0.0  # the mean's frame is the lab's within rounding
        spread = float(np.max(np.abs(u0.values - mean)))
        terminated, steps, rhs_calls, worst = _integrate(
            _stepping(u0.grid, mean), u0.spectrum, cfg,
            0.25 * u0.grid.spacing / spread if spread > 0.0 else math.inf, record)
        values, efv = _recorded_values(u0, spectra)
        drifts = (efv - efv[0]) / np.maximum(np.abs(efv[0]), 1e-300)

    return StabilityRunReport(
        times=np.array(times), values=values,
        rho=np.array(rho) if reference is not None else None,
        drift_E=drifts[:, 0], drift_F=drifts[:, 1], drift_V=drifts[:, 2],
        terminated=terminated, steps=steps, rhs_calls=rhs_calls, max_error_estimate=worst,
    )


def _recorded_values(u0: PeriodicField,
                     spectra: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The grid values of a run's held ``spectra``, one row each, u0's own
    first, and their (E, F, V) rows, in one pass of blocks of
    ``RECORD_BLOCK`` values: each block's rows come from one batched
    irfft, bit for bit those of one row at a time."""
    grid = u0.grid
    rows = max(1, RECORD_BLOCK // grid.n)
    values, efv = np.empty((len(spectra), grid.n)), np.empty((len(spectra), 3))
    for lo in range(0, len(spectra), rows):
        spec = np.stack(spectra[lo:lo + rows])
        block = np.fft.irfft(spec, grid.n, out=values[lo:lo + len(spec)])
        if lo == 0:
            block[0] = u0.values
        efv[lo:lo + len(spec)] = _functionals(block, spec, grid)
    return values, efv


def _linear_rhs(lop: OperatorMatrix):
    """The right side v -> J L v of :func:`linearized_run` on rfft spectra: L v
    by ``linop._apply_l``, then i kappa / (1 + kappa^2), Nyquist 0: 4 FFT calls."""
    kap, sym_d1, _ = lop.grid.rfft_tables
    symbol = sym_d1 / (1.0 + kap * kap)
    return lambda spec: symbol * _apply_l(lop, spec)


def linearized_run(v0: PeriodicField, lop: OperatorMatrix,
                   cfg: EvolutionConfig) -> LinearGrowthReport:
    """Integrate v_t = J L v, J = dx (1 - dx^2)^{-1}: the linearization of the
    flow :func:`run` integrates, at the wave and in the frame moving with it.

    ``lop`` is L on the grid of v0, for a wave ``operator_for(p, n)``; its
    coefficients need not be even: the right side applies L by FFT and
    forms no matrix.  The mean of v0 is removed, and J L keeps it zero.
    Norms are L^2(0, L).

    Raises:
        DomainError: if the operator's grid is not v0's, v0 has no
            zero-mean part above rounding (its growth rate is undefined),
            ``cfg.adaptive`` is set (the steps here are fixed), or the
            plan takes more than ``MAX_RECORDS`` records.
        BlowUpError: if a step loses finiteness; numpy's overflow warnings
            on the way there are silenced.
    """
    grid = v0.grid
    if lop.grid != grid:
        raise DomainError("operator grid does not match the initial field")
    if cfg.adaptive:
        raise DomainError("linearized_run takes fixed steps of dt; adaptive is not supported")
    values = v0.values - np.mean(v0.values)
    if np.max(np.abs(values)) <= _zero_tol(v0.values):
        raise DomainError("v0 has no zero-mean part: its growth rate is undefined")
    w, records = math.sqrt(grid.spacing), []  # (t, ||v||) at each record

    def record(t: float, spec: np.ndarray) -> None:
        records.append((t, w * float(np.linalg.norm(np.fft.irfft(spec, grid.n)))))

    st = _Stepping(_linear_rhs(lop), lambda spec: np.isfinite(spec).all(),
                   ((np.zeros(grid.n // 2 + 1), _RK4),))
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises below
        terminated, steps, _, _ = _integrate(st, np.fft.rfft(values), cfg, math.inf, record)
    if terminated == TERMINATED_BLOWUP:
        raise BlowUpError(f"linearized run lost finiteness at step {steps}")

    times_arr, norms_arr = np.array(records).T
    rate = math.log(norms_arr[-1] / norms_arr[0]) / cfg.t_end
    i_half = min(int(np.searchsorted(times_arr, 0.5 * cfg.t_end)), len(times_arr) - 2)
    rate_tail = math.log(norms_arr[-1] / norms_arr[i_half]) / (times_arr[-1] - times_arr[i_half])
    return LinearGrowthReport(times=times_arr, norms=norms_arr, rate=rate, rate_tail=rate_tail)


def seeded_perturbation(grid: PeriodicGrid, seed: int) -> PeriodicField:
    """Unit-H^1 random field on the modes 1 .. min(8, n/4), reproducible by
    an integer seed >= 0 (any other, a bool too, raises DomainError): the
    sum of a_m cos(kappa_m x) + b_m sin(kappa_m x), the normals drawn in
    the order a_1, b_1, a_2, ..., built by one irfft of its spectrum."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    top = min(8, grid.n // 4)
    a, b = np.random.default_rng(seed).standard_normal((top, 2)).T
    spec = np.zeros(grid.n // 2 + 1, dtype=complex)
    spec[1:top + 1] = (0.5 * grid.n) * (a - 1j * b)
    spec /= math.sqrt(_h1_square(spec, grid))
    return PeriodicField(grid, np.fft.irfft(spec, grid.n))


def orbital_experiment(phi: PeriodicField, delta: float, seed: int,
                       cfg: EvolutionConfig) -> StabilityRunReport:
    """Evolve phi + delta * w, w a seeded unit-H^1 perturbation on phi's grid,
    with phi, the sampled wave, as the reference.

    Records rho(u(t), phi) along the run; terminates with
    ``instability_detected`` if rho exceeds ``RHO_FACTOR`` * delta.  The
    unperturbed run is :func:`run` with phi as u0 and reference.

    Raises:
        DomainError: if seed is not an integer >= 0, or delta is not finite
            or moves no value of phi by more than its rounding
            (``linop._zero_tol``), where rho could not tell the perturbation
            from rounding; delta <= 0 among them.
    """
    w = seeded_perturbation(phi.grid, seed)
    w_max, tol = float(np.max(np.abs(w.values))), _zero_tol(phi.values)
    if not (math.isfinite(delta) and delta * w_max > tol):
        raise DomainError(f"delta = {delta!r} must be finite and above {tol / w_max!r}, "
                          "where it moves phi by more than its rounding")
    return run(phi + delta * w, cfg, reference=phi, delta=delta)
