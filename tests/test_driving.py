"""Driven dynamics: schedules, propagators, sliding-window coefficients,
pulse-parity filters, and the decoupling suppression ratio."""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from qme.driving import (
    DDSequence,
    DriveSchedule,
    dd_schedule,
    dd_sign,
    dd_suppression_xi,
    dd_suppression_xi_general,
    dd_window_filter,
    heisenberg_A,
    _sliding_window,
    propagator,
    td_a_epsilon,
    td_lamb,
    td_redfield_filter,
)
from qme.baths import OhmicBath
from qme.evolve import td_cgme_superoperator
from qme.generators import (
    GeneratorConfig,
    _epsilon_grid,
    cgme_a_epsilon,
    cgme_generator,
    cgme_lamb_shift,
    redfield_filtered,
)
from qme.operators import Superoperator, choi_matrix, vectorize_generator

from conftest import PAULI_X, PAULI_Y, PAULI_Z
import oracles


class TestDriveSchedule:
    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            DriveSchedule(segments=((0.0, 1.0, PAULI_Z), (1.5, 2.0, PAULI_X)))

    def test_rejects_nonunitary_pulse(self):
        with pytest.raises(ValueError):
            DriveSchedule(segments=((0.0, 2.0, PAULI_Z),),
                          pulses=((1.0, 0.5 * PAULI_X),))

    def test_rejects_pulse_outside(self):
        with pytest.raises(ValueError):
            DriveSchedule(segments=((0.0, 1.0, PAULI_Z),), pulses=((1.0, PAULI_X),))

    def test_hamiltonian_lookup(self):
        sched = DriveSchedule(segments=((0.0, 1.0, PAULI_Z), (1.0, 2.0, PAULI_X)))
        assert np.allclose(sched.hamiltonian_at(0.5), PAULI_Z)
        assert np.allclose(sched.hamiltonian_at(1.5), PAULI_X)
        # boundary extension outside the domain
        assert np.allclose(sched.hamiltonian_at(-3.0), PAULI_Z)
        assert np.allclose(sched.hamiltonian_at(5.0), PAULI_X)

    def test_long_schedule_breakpoints_match_full_scan(self):
        # the cuts are sorted once with the schedule and looked up by
        # bisection: windows anywhere along a 10,000-interval DD schedule, and
        # on a segmented one with pulses on segment boundaries, windows
        # starting or ending exactly on a cut and reaching outside
        dd = dd_schedule(DDSequence(dt=0.25), 2500.0)
        segmented = DriveSchedule(
            segments=((0.0, 1.0, PAULI_Z), (1.0, 2.5, PAULI_X), (2.5, 4.0, PAULI_Y)),
            pulses=((0.5, PAULI_X), (1.0, PAULI_X), (2.5, PAULI_Z), (3.2, PAULI_Y)))
        rng = np.random.default_rng(4)
        for sched in (dd, segmented):
            cuts = oracles.schedule_breakpoints_scan(sched, -np.inf, np.inf)
            windows = [(-1.0, sched.duration + 1.0), (0.0, sched.duration), (1.0, 2.5),
                       (2.5, 1.0), (3.2, 3.2)]
            windows += [tuple(rng.choice(cuts, 2)) for _ in range(20)]
            windows += [tuple(rng.uniform(-0.5, sched.duration + 0.5, 2)) for _ in range(20)]
            for lo, hi in windows:
                assert sched.breakpoints(lo, hi) == oracles.schedule_breakpoints_scan(
                    sched, lo, hi)
            for t in [*cuts, -2.0, 0.3, 2.7, sched.duration + 2.0]:
                expected = sum(t >= t1 for _, t1, _ in sched.segments[:-1])
                assert sched.hamiltonian_at(t) is sched.segments[expected][2]


class TestPropagator:
    def test_matches_expm_oracle_with_pulses(self):
        sched = DriveSchedule(
            segments=((0.0, 0.7, PAULI_Z), (0.7, 1.5, 0.3 * PAULI_X + PAULI_Z)),
            pulses=((0.4, -1j * PAULI_X), (1.1, -1j * PAULI_Y)),
        )
        ref = oracles.expm_propagator(
            [PAULI_Z, PAULI_Z, 0.3 * PAULI_X + PAULI_Z, 0.3 * PAULI_X + PAULI_Z],
            [0.4, 0.3, 0.4, 0.4],
            pulses=[-1j * PAULI_X, np.eye(2), -1j * PAULI_Y],
        )
        assert np.max(np.abs(propagator(sched, 0.0, 1.5) - ref)) < 1e-12

    def test_composition(self):
        sched = DriveSchedule(
            segments=((0.0, 2.0, 0.4 * PAULI_X + 0.2 * PAULI_Z),),
            pulses=((0.9, -1j * PAULI_Y),),
        )
        u1 = propagator(sched, 0.0, 0.9)
        u2 = propagator(sched, 0.9, 2.0)
        assert np.max(np.abs(u2 @ u1 - propagator(sched, 0.0, 2.0))) < 1e-12

    def test_reverse_is_adjoint(self):
        sched = DriveSchedule(segments=((0.0, 1.0, PAULI_X),))
        u = propagator(sched, 0.0, 1.0)
        assert np.max(np.abs(propagator(sched, 1.0, 0.0) - u.conj().T)) < 1e-12

    def test_rejects_outside_domain(self):
        sched = DriveSchedule(segments=((0.0, 1.0, PAULI_X),))
        with pytest.raises(ValueError):
            propagator(sched, 0.0, 2.0)

    # two segments on [0, 1.5], pulses at 0.4 and 1.1
    SCHED = DriveSchedule(
        segments=((0.0, 0.7, PAULI_Z), (0.7, 1.5, 0.3 * PAULI_X + PAULI_Z)),
        pulses=((0.4, -1j * PAULI_X), (1.1, -1j * PAULI_Y)),
    )

    def test_pulse_at_t_from_acts(self):
        ref = oracles.expm_propagator(
            [np.zeros((2, 2)), PAULI_Z, 0.3 * PAULI_X + PAULI_Z],
            [0.0, 0.3, 0.3], pulses=[-1j * PAULI_X])
        assert np.max(np.abs(propagator(self.SCHED, 0.4, 1.0) - ref)) < 1e-12

    def test_pulse_at_t_to_does_not_act(self):
        ref = oracles.expm_propagator([PAULI_Z, 0.3 * PAULI_X + PAULI_Z], [0.2, 0.4])
        assert np.max(np.abs(propagator(self.SCHED, 0.5, 1.1) - ref)) < 1e-12
        # backwards over the same window: the adjoint, the pulse still excluded
        assert np.max(np.abs(propagator(self.SCHED, 1.1, 0.5) - ref.conj().T)) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.4, 0.7, 1.1, 1.5])
    def test_empty_window_is_identity(self, t):
        # a pulse at t lies in neither [t, t) nor its reverse
        assert np.array_equal(propagator(self.SCHED, t, t), np.eye(2))

    @pytest.mark.parametrize("t_from, t_to", [(-0.1, 1.0), (0.5, 1.6), (1.6, 0.5),
                                              (-1.0, 2.0)])
    def test_times_outside_domain_rejected(self, t_from, t_to):
        with pytest.raises(ValueError, match="outside schedule domain"):
            propagator(self.SCHED, t_from, t_to)

    def test_heisenberg_outside_domain_extends_boundary_segments(self):
        # before 0 the first segment's H acts, after 1.5 the last one's
        ref = oracles.expm_propagator(
            [PAULI_Z, PAULI_Z, 0.3 * PAULI_X + PAULI_Z, 0.3 * PAULI_X + PAULI_Z],
            [0.9, 0.3, 0.4, 0.9], pulses=[-1j * PAULI_X, np.eye(2), -1j * PAULI_Y])
        A = PAULI_X + 0.5 * PAULI_Z
        got = heisenberg_A(self.SCHED, A, 2.0, -0.5)
        assert np.max(np.abs(got - ref.conj().T @ A @ ref)) < 1e-12

    def test_heisenberg_constant_h(self):
        sched = DriveSchedule(segments=((0.0, 3.0, PAULI_Z),))
        got = heisenberg_A(sched, PAULI_X, 1.3, 2.0)
        u = expm(-1j * PAULI_Z * (1.3 - 2.0))
        assert np.max(np.abs(got - u.conj().T @ PAULI_X @ u)) < 1e-12


class TestSlidingWindowCoefficients:
    def test_td_a_epsilon_reduces_to_time_independent(self, toy_bath,
                                                      benchmark_hamiltonian,
                                                      benchmark_coupling,
                                                      benchmark_jd):
        t_a = 1.12
        sched = DriveSchedule(segments=((0.0, 20.0, benchmark_hamiltonian),))
        for eps in (0.0, 1.7):
            td = td_a_epsilon(sched, benchmark_coupling, toy_bath, 5.0, eps, t_a)
            # constant-H window average equals the frequency-sum form
            ti = cgme_a_epsilon(benchmark_jd, eps, t_a, toy_bath)
            # td uses the lab frame at t; rotate the stationary form to match
            u = expm(-1j * benchmark_hamiltonian.entries * 5.0)
            assert np.max(np.abs(u @ td @ u.conj().T - u @ ti @ u.conj().T)) \
                < np.max(np.abs(ti)) * 2
            assert np.max(np.abs(td - ti)) < 1e-8 * max(1.0, np.max(np.abs(ti)))

    def test_td_lamb_reduces_to_time_independent(self, toy_bath,
                                                 benchmark_hamiltonian,
                                                 benchmark_coupling,
                                                 benchmark_jd):
        t_a = 1.12
        sched = DriveSchedule(segments=((0.0, 20.0, benchmark_hamiltonian),))
        td = td_lamb(sched, benchmark_coupling, toy_bath, 5.0, t_a,
                     quadrature_order=24).entries
        ti, _ = cgme_lamb_shift(benchmark_jd, toy_bath, t_a)
        assert np.max(np.abs(td - ti)) < 1e-6 * max(1.0, np.max(np.abs(ti)))

    def test_td_redfield_reduces_to_time_independent(self, toy_bath,
                                                     benchmark_hamiltonian,
                                                     benchmark_coupling,
                                                     benchmark_jd):
        sched = DriveSchedule(segments=((0.0, 300.0, benchmark_hamiltonian),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            td = td_redfield_filter(sched, benchmark_coupling, toy_bath, 250.0,
                                    history_cutoff=200.0)
        ti = redfield_filtered(benchmark_jd, toy_bath)
        assert np.max(np.abs(td - ti)) < 1e-6 * max(1.0, np.max(np.abs(ti)))

    def test_short_cutoff_warns(self, toy_bath, benchmark_hamiltonian,
                                benchmark_coupling):
        sched = DriveSchedule(segments=((0.0, 10.0, benchmark_hamiltonian),))
        with pytest.warns(UserWarning):
            td_redfield_filter(sched, benchmark_coupling, toy_bath, 5.0,
                               history_cutoff=0.5)

    def test_short_cutoff_warns_for_ohmic(self):
        # epsilon_T(0.01) = 0.99: the bath's infinite-cutoff tau_B, which an
        # Ohmic bath refuses, is not needed to see the truncation
        sched = DriveSchedule(segments=((0.0, 10.0, np.zeros((2, 2))),))
        with pytest.warns(UserWarning, match="truncated"):
            td_redfield_filter(sched, PAULI_Z, OhmicBath(0.1, 1.0, 2.0), 5.0,
                               history_cutoff=0.01)

    def test_rectangle_filter_closed_form(self, rectangle_bath):
        # constant C = g^2 on [0, tau_c): A_f = g^2 tau_c A for commuting H
        sched = DriveSchedule(segments=((0.0, 10.0, np.zeros((2, 2))),))
        td = td_redfield_filter(sched, PAULI_Z, rectangle_bath, 5.0,
                                history_cutoff=3.0)
        assert np.max(np.abs(td - 0.25 * 1.0 * PAULI_Z)) < 1e-10


DD_BATH = OhmicBath(kappa=0.1, omega_c=1.0, beta=2.0)
DD_DT = 0.25
DD_SCHEDULE = dd_schedule(DDSequence(DD_DT), 4.0)
# three non-commuting segment Hamiltonians and three pulses on [0, 2.2]
PIECEWISE = DriveSchedule(
    segments=((0.0, 0.7, PAULI_Z), (0.7, 1.5, 0.3 * PAULI_X + PAULI_Z),
              (1.5, 2.2, 0.5 * PAULI_Y - 0.2 * PAULI_Z)),
    pulses=((0.4, -1j * PAULI_X), (1.1, -1j * PAULI_Y),
            (1.8, (PAULI_X + PAULI_Z) / math.sqrt(2.0))),
)
PIECEWISE_A = PAULI_X + 0.5 * PAULI_Y + 0.3 * PAULI_Z
CONSTANT = DriveSchedule(segments=((0.0, 5.0, 0.7 * PAULI_Z + 0.2 * PAULI_X),))


# the benchmark's Ohmic DD point at its orders 6/6, then ToyBath, whose
# scalar C calls in the oracle's pair loops are ~10x cheaper than the Ohmic
# trigamma; the last entry is the window order
DRIVEN_CASES = [
    ("ohmic", DD_SCHEDULE, PAULI_Z, 1.1, 4 * DD_DT, 6),
    ("toy", DD_SCHEDULE, PAULI_Z, 1.35, 4 * DD_DT, 32),
    ("toy", PIECEWISE, PIECEWISE_A, 1.0, 1.6, 8),
    ("toy", PIECEWISE, PIECEWISE_A, 1.1, 1.6, 8),   # t at a pulse instant
    ("toy", PIECEWISE, PIECEWISE_A, 0.3, 1.6, 8),   # window starts before 0
    ("toy", PIECEWISE, PIECEWISE_A, 2.0, 1.6, 8),   # window ends after 2.2
    ("ohmic", CONSTANT, PAULI_X, 2.0, 1.0, 8),      # one panel
]
DRIVEN_IDS = ["dd-6-6", "dd-default", "piecewise", "at-pulse", "before-0", "after-end",
              "one-panel"]


def epsilon_form(sched, A, bath, t, t_a, q, eps_order):
    """The driven generator as int d_eps (A_eps rho A_eps^+ - 1/2 {A_eps^+ A_eps, rho})
    on the composite Gauss eps grid of order ``eps_order``, with the window
    at q nodes per panel and the Lamb shift of ``td_lamb`` at q."""
    eps, w = _epsilon_grid(bath, t_a, order=eps_order)
    L = td_a_epsilon(sched, A, bath, t, eps, t_a, q)
    H = sched.hamiltonian_at(t) + td_lamb(sched, A, bath, t, t_a, q).entries
    return vectorize_generator(H, zip(w, L)).matrix


def dephasing_rate(sched, bath, t, t_a, **kw):
    """Decay rate of the coherence rho_01 under the lambless driven CGME of
    A = Z: its diagonal entry of the column-stacked generator."""
    M = td_cgme_superoperator(sched, PAULI_Z, bath, t, t_a, lambless=True, **kw).matrix
    return -M[2, 2].real


class TestDrivenGenerator:
    """The time-dependent CGME built from one Heisenberg stack and one
    correlation matrix per window against the node-pair loops, its eps-grid
    form, and its invariants."""

    @pytest.mark.parametrize("bath, sched, A, t, t_a, q", DRIVEN_CASES, ids=DRIVEN_IDS)
    def test_matches_loop_oracle(self, toy_bath, bath, sched, A, t, t_a, q):
        bath = DD_BATH if bath == "ohmic" else toy_bath
        got = td_cgme_superoperator(sched, A, bath, t, t_a, quadrature_order=q).matrix
        ref = oracles.td_cgme_nodes_direct(sched, A, bath, t, t_a, q)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("q", [8, 16])
    @pytest.mark.parametrize("bath, sched, A, t, t_a, _", DRIVEN_CASES, ids=DRIVEN_IDS)
    def test_epsilon_limit(self, toy_bath, bath, sched, A, t, t_a, _, q):
        # the node form is the fine-eps-grid limit of the eps form at equal
        # window order
        bath = DD_BATH if bath == "ohmic" else toy_bath
        got = td_cgme_superoperator(sched, A, bath, t, t_a, quadrature_order=q).matrix
        ref = epsilon_form(sched, A, bath, t, t_a, q, 64)
        assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("sched, A, t, t_a", [
        (DD_SCHEDULE, PAULI_Z, 1.1, 4 * DD_DT),
        (PIECEWISE, PIECEWISE_A, 1.0, 1.6),
        (CONSTANT, PAULI_X, 2.0, 1.0),
    ], ids=["dd", "piecewise", "one-panel"])
    def test_kossakowski_psd(self, sched, A, t, t_a):
        win = _sliding_window(sched, A, t, t_a, 32)
        G = win.kossakowski(win.correlation(DD_BATH), t_a)
        assert np.linalg.eigvalsh(G)[0] >= -1e-12 * np.max(np.abs(G))

    @pytest.mark.parametrize("kappa, omega_c, beta, dt, kw", [
        (0.01, 0.5, 0.2, 0.2, {"quadrature_order": 16}),   # hot
        (0.01, math.pi / 2, 5.0, 0.5, {}),                  # cold, default order
    ], ids=["hot", "cold"])
    def test_pulse_instant_rate_is_xi(self, kappa, omega_c, beta, dt, kw):
        # dd_suppression_xi(dt) describes pulses every 2 dt with T_a = 4 dt
        bath = OhmicBath(kappa=kappa, omega_c=omega_c, beta=beta)
        t_a, t = 4 * dt, 10 * dt
        pulsed = dd_schedule(DDSequence(2 * dt), 20 * dt)
        free = DriveSchedule(segments=((0.0, 20 * dt, np.zeros((2, 2))),))
        ratio = dephasing_rate(pulsed, bath, t, t_a, **kw) / dephasing_rate(free, bath, t, t_a, **kw)
        assert abs(ratio - dd_suppression_xi(bath, dt)) <= 1e-12

    @pytest.mark.parametrize("t_a", [0.5, 1.12, 5.25, 12.0])
    def test_pulse_free_equals_stationary(self, toy_bath, benchmark_hamiltonian,
                                          benchmark_coupling, benchmark_jd, t_a):
        sched = DriveSchedule(segments=((0.0, 10.0, benchmark_hamiltonian),))
        got = td_cgme_superoperator(sched, benchmark_coupling, toy_bath, 4.3, t_a).matrix
        stationary = cgme_generator(benchmark_jd, toy_bath,
                                    GeneratorConfig("cgme_frequency", T_a=t_a))
        assert np.max(np.abs(got - stationary.to_superoperator().matrix)) < 1e-10

    @pytest.mark.parametrize("t", [1.1, 1.5])
    def test_dd_generator_preserves_trace_and_hermiticity(self, t):
        M = td_cgme_superoperator(DD_SCHEDULE, PAULI_Z, DD_BATH, t, 4 * DD_DT).matrix
        scale = np.max(np.abs(M))
        assert np.max(np.abs(np.eye(2).reshape(-1, order="F") @ M)) < 1e-12 * scale
        C = choi_matrix(Superoperator(M, 2))
        assert np.max(np.abs(C - C.conj().T)) < 1e-12 * scale

    def test_dd_generator_periodic(self):
        t_a = 4 * DD_DT
        a = td_cgme_superoperator(DD_SCHEDULE, PAULI_Z, DD_BATH, 1.1, t_a).matrix
        b = td_cgme_superoperator(DD_SCHEDULE, PAULI_Z, DD_BATH, 1.1 + 2 * DD_DT, t_a).matrix
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))

    @pytest.mark.parametrize("t_a, order", [(0.0, 8), (-1.0, 8), (1.0, 1)])
    def test_rejects_bad_window(self, t_a, order):
        with pytest.raises(ValueError):
            td_cgme_superoperator(DD_SCHEDULE, PAULI_Z, DD_BATH, 1.1, t_a,
                                  quadrature_order=order)

    def test_rejects_bath_with_negative_gamma(self, rectangle_bath):
        with pytest.raises(ValueError, match="gamma >= 0"):
            td_cgme_superoperator(DD_SCHEDULE, PAULI_Z, rectangle_bath, 1.1, 4 * DD_DT)

    def test_grid_order_is_a_deprecated_no_op(self):
        ref = td_cgme_superoperator(DD_SCHEDULE, PAULI_Z, DD_BATH, 1.1, 4 * DD_DT,
                                    quadrature_order=6).matrix
        with pytest.warns(DeprecationWarning, match="grid_order"):
            got = td_cgme_superoperator(DD_SCHEDULE, PAULI_Z, DD_BATH, 1.1, 4 * DD_DT,
                                        quadrature_order=6, grid_order=6).matrix
        assert np.array_equal(got, ref)


class TestPulseParity:
    def test_sign_matches_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            dt = rng.uniform(0.2, 1.5)
            t = rng.uniform(0.0, 10.0)
            tp = rng.uniform(0.0, 10.0)
            assert dd_sign(tp, t, dt) == oracles.dd_sign_bruteforce(tp, t, dt)

    def test_sign_symmetric(self):
        assert dd_sign(0.3, 2.7, 0.5) == dd_sign(2.7, 0.3, 0.5)

    def test_window_filter_matches_riemann(self):
        for eps, dt, t_a in ((0.0, 0.5, 4.0), (1.3, 0.5, 4.0), (2.7, 0.8, 6.4)):
            ref = oracles.window_filter_riemann(eps, dt, t_a)
            ours = dd_window_filter(eps, dt, t_a)
            assert abs(ours - ref) < 1e-4

    def test_window_filter_periodicity(self):
        a = dd_window_filter(1.1, 0.5, 4.0, t=0.0)
        b = dd_window_filter(1.1, 0.5, 4.0, t=1.0)  # shift by 2*dt
        assert abs(abs(a) - abs(b)) < 1e-12


class TestSuppressionRatio:
    def test_tan_sinc_identity_vs_naive(self):
        from qme.driving import _tan_sinc_factor
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            x = rng.uniform(0.01, 3.0)
            if abs(math.cos(x)) < 0.05:
                continue
            assert np.isclose(abs(_tan_sinc_factor(x, k)),
                              oracles.tan_sinc_direct(x, k), atol=1e-10)

    def test_doubling_identity(self):
        # the closed form's dt is half the pulse spacing: it equals the
        # microscopic parity protocol with spacing 2*dt at the same averaging
        # time 4*k'*dt, to roundoff on the same refined grid
        bath = OhmicBath(kappa=1.0, omega_c=math.pi / 2.0, beta=5.0)
        for dt, kp in ((0.2, 1), (0.5, 1), (0.8, 2), (1.0, 1)):
            closed = dd_suppression_xi(bath, dt, k_prime=kp)
            general = dd_suppression_xi_general(bath, 2.0 * dt, T_a=4.0 * kp * dt)
            assert abs(closed - general) <= 1e-12 * abs(closed)

    def test_xi_decreases_with_dt(self):
        bath = OhmicBath(kappa=1.0, omega_c=math.pi / 2.0, beta=5.0)
        xis = [dd_suppression_xi(bath, dt) for dt in (0.4, 0.2, 0.1)]
        assert xis[0] > xis[1] > xis[2]
        assert xis[2] < 0.3

    def test_xi_above_one_for_slow_pulses(self):
        # the published counterintuitive feature: at omega_c = pi/2, beta = 5,
        # pulsing too slowly slightly accelerates decoherence
        bath = OhmicBath(kappa=1.0, omega_c=math.pi / 2.0, beta=5.0)
        assert dd_suppression_xi(bath, 1.0) > 1.0

    def test_sufficiency_cutoff(self):
        # omega_c * dt < pi/4 guarantees suppression
        for omega_c in (0.5, 1.0, 2.0):
            bath = OhmicBath(kappa=1.0, omega_c=omega_c, beta=5.0)
            dt = 0.9 * (math.pi / 4.0) / omega_c
            assert dd_suppression_xi(bath, dt) < 1.0

    def test_xi_matches_fixed_grid_integral(self):
        # an input whose integrand peak at w = 0 adaptive quadrature over
        # [-W, W] without a breakpoint there missed (it returned 1.6e-8)
        kappa, omega_c, beta, dt = 1.0, 1.023, 0.4798, 0.6273
        x, wx = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(-60.0, 60.0, 241)  # panels of 0.5, an edge at 0
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        w = (mid[:, None] + half[:, None] * x).ravel()
        wt = (half[:, None] * wx).ravel()
        gamma = 2.0 * np.pi * kappa * w * np.exp(-np.abs(w) / omega_c) \
            / -np.expm1(-beta * w)
        u = w * dt
        # k' = 1: sinc(2u) tan(u) = sin(u)^2 / u
        num = np.sum(wt * gamma * (np.sin(u) ** 2 / u) ** 2)
        den = np.sum(wt * gamma * (np.sin(2.0 * u) / (2.0 * u)) ** 2)
        bath = OhmicBath(kappa=kappa, omega_c=omega_c, beta=beta)
        assert np.isclose(dd_suppression_xi(bath, dt), num / den, rtol=1e-8)

    def test_validation(self, ohmic_bath):
        with pytest.raises(ValueError):
            dd_suppression_xi(ohmic_bath, -0.1)
        with pytest.raises(ValueError):
            dd_suppression_xi(ohmic_bath, 0.5, k_prime=0)

    @pytest.mark.parametrize("k_prime", [1, 2])
    def test_array_matches_scalar_loop(self, k_prime):
        # one shared grid per call against one grid per dt; unsorted, with
        # a repeated dt
        dt = np.array([0.8, 0.2, 0.45, 0.2, 1.3, 0.1])
        for bath in (OhmicBath(kappa=1.0, omega_c=math.pi / 2.0, beta=5.0),
                     OhmicBath(kappa=0.3, omega_c=2.0, beta=0.5)):
            batch = dd_suppression_xi(bath, dt, k_prime)
            loop = np.array([dd_suppression_xi(bath, float(x), k_prime) for x in dt])
            assert np.all(np.abs(batch - loop) <= 1e-12 * np.abs(loop))

    def test_shape_follows_dt(self, ohmic_bath):
        scalar = dd_suppression_xi(ohmic_bath, np.float64(0.3))
        assert type(scalar) is float
        assert type(dd_suppression_xi(ohmic_bath, np.array(0.3))) is float
        grid = np.array([[0.1, 0.2, 0.3], [0.6, 0.5, 0.4]])
        xi = dd_suppression_xi(ohmic_bath, grid)
        assert xi.shape == (2, 3)
        flat = dd_suppression_xi(ohmic_bath, grid.ravel())
        assert np.all(np.abs(xi.ravel() - flat) <= 1e-12 * flat)
        assert dd_suppression_xi(ohmic_bath, [0.2, 0.4]).shape == (2,)
        assert dd_suppression_xi(ohmic_bath, np.array([])).shape == (0,)

    @pytest.mark.parametrize("dt", [[0.2, 0.0, 0.4], [0.3, -0.1], [0.2, math.nan]])
    def test_array_with_nonpositive_dt_refused(self, ohmic_bath, dt):
        with pytest.raises(ValueError, match="dt must be > 0"):
            dd_suppression_xi(ohmic_bath, np.array(dt))


class TestDDSchedule:
    def test_pulse_count_and_default_pulse(self):
        dd = DDSequence(dt=0.5)
        sched = dd_schedule(dd, 2.6)
        assert len(sched.pulses) == 5
        u = sched.pulses[0][1]
        assert np.max(np.abs(u - (-1j) * PAULI_X)) < 1e-12

    def test_averaging_time(self):
        assert DDSequence(dt=0.5, k_prime=3).averaging_time == 6.0

    def test_two_pulses_cancel(self):
        dd = DDSequence(dt=0.5)
        sched = dd_schedule(dd, 1.6)
        u = propagator(sched, 0.0, 1.1)  # crosses pulses at 0.5 and 1.0
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
        assert np.max(np.abs(u - (-1.0) * np.eye(2))) < 1e-12
