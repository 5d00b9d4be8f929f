import csv
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

from donlab import datagen, scaling
from donlab.datagen import (
    AdrConfig,
    GrfConfig,
    build_adr_dataset,
    build_pendulum_dataset,
    grf_cholesky,
    kernel_matrix,
    read_dataset_csv,
    sensor_indices,
    solve_adr,
    solve_pendulum,
    write_dataset_csv,
)
from donlab.deeponet import Dataset
from donlab.errors import (
    ConfigurationError,
    DivergenceError,
    FormatError,
    InputError,
    NumericalError,
)


class TestRbfKernel:
    """The kernel of two points is the off-diagonal entry of a two-node grid's matrix."""

    def test_same_point_is_one(self):
        assert kernel_matrix(np.array([0.3, 0.3]), 0.1)[0, 1] == 1.0

    def test_one_length_scale_apart(self):
        assert kernel_matrix(np.array([0.0, 0.1]), 0.1)[0, 1] == pytest.approx(math.exp(-0.5))

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.01, 10))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_in_unit_interval(self, x1, x2, l):
        k = kernel_matrix(np.array([x1, x2]), l)
        a = k[0, 1]
        assert a == k[1, 0]
        assert 0.0 <= a <= 1.0
        if (x1 - x2) ** 2 / (2 * l * l) < 700:  # exp stays above float64 underflow
            assert a > 0.0

    def test_nonpositive_length_scale_rejected(self):
        for l in (0.0, math.nan):
            with pytest.raises(InputError):
                kernel_matrix(np.array([0.0, 1.0]), l)

    def test_length_scale_whose_two_l_squared_underflows_rejected(self):
        with pytest.raises(InputError, match=r"^length_scale=1e-320 is too small"):
            kernel_matrix(np.array([0.0, 1.0]), 1e-320)
        with pytest.raises(ConfigurationError, match=r"^length_scale=1e-320 is too small"):
            GrfConfig(grid=np.linspace(0, 1, 5), length_scale=1e-320)

    def test_quotient_overflow_gives_exact_zeros_without_a_warning(self):
        # d^2 / (2 l^2) overflows to +inf off the diagonal; the suite makes warnings errors
        assert np.array_equal(kernel_matrix(np.linspace(0, 1, 5), 1e-160), np.eye(5))


def _grf_draws(cfg, count, seed):
    """count GRF draws as rows, taken the way the program takes them: the s
    rows of a dataset with one sensor at every node and one point per function."""
    return build_pendulum_dataset(cfg, 0.0, cfg.grid.size, count, 1, 0.0, seed).s


class TestGrf:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GrfConfig(grid=np.array([0.0, 0.0, 1.0]), length_scale=0.1)
        with pytest.raises(ConfigurationError):
            GrfConfig(grid=np.array([0.0, 2.0]), length_scale=0.1)
        with pytest.raises(ConfigurationError):
            GrfConfig(grid=np.linspace(0, 1, 5), length_scale=-1.0)
        for grid in ([0.0, math.nan, 1.0], [math.nan]):
            with pytest.raises(ConfigurationError, match="grid must"):
                GrfConfig(grid=np.array(grid), length_scale=0.1)
        with pytest.raises(ConfigurationError, match="length_scale must be a finite number > 0"):
            GrfConfig(grid=np.linspace(0, 1, 5), length_scale=math.nan)
        with pytest.raises(ConfigurationError, match="jitter must be a finite number >= 0"):
            GrfConfig(grid=np.linspace(0, 1, 5), jitter=math.nan)
        with pytest.raises(ConfigurationError,
                           match="length_scale must be a finite number > 0, got inf"):
            GrfConfig(grid=np.linspace(0, 1, 5), length_scale=math.inf)
        with pytest.raises(ConfigurationError,
                           match="jitter must be a finite number >= 0, got inf"):
            GrfConfig(grid=np.linspace(0, 1, 5), jitter=math.inf)

    def test_deterministic_in_seed(self):
        cfg = GrfConfig(grid=np.linspace(0, 1, 12), length_scale=0.1)
        assert np.array_equal(_grf_draws(cfg, 1, 4), _grf_draws(cfg, 1, 4))
        assert not np.array_equal(_grf_draws(cfg, 1, 4), _grf_draws(cfg, 1, 5))

    def test_tiny_length_scale_gives_near_iid(self):
        # paper-scale config: 40 sensors, length scale far below the spacing
        cfg = GrfConfig(grid=np.linspace(0, 1, 40), length_scale=1e-3)
        draws = _grf_draws(cfg, 10_000, seed=42)
        assert abs(draws.var() - 1.0) <= 0.05

    def test_huge_length_scale_gives_common_value(self):
        cfg = GrfConfig(grid=np.linspace(0, 1, 10), length_scale=50.0)
        draws = _grf_draws(cfg, 2_000, seed=1)
        corr = np.corrcoef(draws[:, 0], draws[:, -1])[0, 1]
        assert corr > 0.99

    def test_monte_carlo_covariance_matches_kernel(self):
        l = 0.2
        cfg = GrfConfig(grid=np.linspace(0, 1, 21), length_scale=l)
        draws = _grf_draws(cfg, 10_000, seed=7)
        k = kernel_matrix(cfg.grid, l)
        for i, j in [(3, 11), (0, 20), (5, 6)]:
            emp = float(np.mean(draws[:, i] * draws[:, j]))
            assert abs(emp - k[i, j]) <= 0.05

    def test_kernel_matrix_symmetric_psd(self):
        grid = np.linspace(0, 1, 15)
        k = kernel_matrix(grid, 0.07) + 1e-10 * np.eye(15)
        assert np.array_equal(k, k.T)
        assert np.min(np.linalg.eigvalsh(k)) > 0

    @given(st.integers(2, 30), st.floats(1e-3, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_kernel_matrix_psd_after_jitter_property(self, n, l):
        k = kernel_matrix(np.linspace(0, 1, n), l)
        assert np.array_equal(k, k.T)
        jittered = k + 1e-8 * np.eye(n)
        assert np.min(np.linalg.eigvalsh(jittered)) > -1e-12

    def test_non_pd_without_jitter_raises_with_advice(self):
        cfg = GrfConfig(grid=np.linspace(0, 1, 40), length_scale=100.0, jitter=0.0)
        with pytest.raises(NumericalError, match="jitter"):
            grf_cholesky(cfg)


def _reference_adr(f, cfg):
    """One source at a time, two banded solves per step: the reference loop."""
    nx, nt = cfg.nx, cfg.nt
    dx, dt = 1.0 / (nx - 1), 1.0 / (nt - 1)
    r = cfg.D * dt / (2.0 * dx * dx)
    ab = np.zeros((3, nx - 2))
    ab[0, 1:], ab[1, :], ab[2, :-1] = -r, 1.0 + 2.0 * r, -r
    u, cur = np.zeros((nx, nt)), np.zeros(nx)
    for j in range(1, nt):
        ui = cur[1:-1]
        lin = ui + r * (cur[:-2] - 2.0 * ui + cur[2:])
        g0 = cfg.k * ui * ui + f[1:-1]
        pred = solve_banded((1, 1), ab, lin + dt * g0)
        g1 = cfg.k * pred * pred + f[1:-1]
        new = solve_banded((1, 1), ab, lin + 0.5 * dt * (g0 + g1))
        cur = np.zeros(nx)
        cur[1:-1] = u[1:-1, j] = new
    return u


def _reference_pendulum(k, f, y0, v0, t_end=1.0):
    """Scalar RK4 with math.sin: the reference loop."""
    h = t_end / (f.size - 1)
    f_mid = 0.5 * (f[:-1] + f[1:])
    y = np.empty(f.size)
    y[0] = y0
    yy, vv = float(y0), float(v0)
    for i in range(f.size - 1):
        k1y, k1v = vv, -k * math.sin(yy) + f[i]
        k2y = vv + 0.5 * h * k1v
        k2v = -k * math.sin(yy + 0.5 * h * k1y) + f_mid[i]
        k3y = vv + 0.5 * h * k2v
        k3v = -k * math.sin(yy + 0.5 * h * k2y) + f_mid[i]
        k4y = vv + h * k3v
        k4v = -k * math.sin(yy + h * k3y) + f[i + 1]
        yy += h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        vv += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        y[i + 1] = yy
    return y


class TestAdrSolver:
    @pytest.mark.parametrize("D,k,nx,nt", [(0.01, 0.01, 101, 101), (0.0, 0.0, 3, 5),
                                           (0.3, -2.0, 57, 13), (1.0, 1.0, 4, 3),
                                           (0.5, 1.5, 3, 9)])
    def test_matches_reference_loop_bit_for_bit(self, D, k, nx, nt):
        cfg = AdrConfig(D=D, k=k, nx=nx, nt=nt)
        f = np.random.default_rng(nx).standard_normal(nx)
        assert np.array_equal(solve_adr(f, cfg), _reference_adr(f, cfg))

    def test_zero_source_stays_zero(self):
        cfg = AdrConfig(D=0.01, k=0.01, nx=21, nt=21)
        sol = solve_adr(np.zeros(21), cfg)
        assert sol.shape == (21, 21) and np.all(sol == 0.0)

    def test_exact_for_pure_source(self):
        # D = k = 0 reduces to u_t = f(x), so u = f * t exactly
        cfg = AdrConfig(D=0.0, k=0.0, nx=41, nt=31)
        f = np.sin(np.pi * cfg.x_grid)
        sol = solve_adr(f, cfg)
        exact = f[:, None] * cfg.t_grid[None, :]
        assert np.max(np.abs(sol - exact)) < 1e-10

    def test_boundary_and_initial_rows_exact_zero(self):
        cfg = AdrConfig(D=0.05, k=0.1, nx=31, nt=31)
        sol = solve_adr(np.cos(np.pi * cfg.x_grid), cfg)
        assert np.all(sol[0, :] == 0.0)
        assert np.all(sol[-1, :] == 0.0)
        assert np.all(sol[:, 0] == 0.0)

    def test_second_order_self_convergence(self):
        def run(nx):
            cfg = AdrConfig(D=0.01, k=0.01, nx=nx, nt=nx)
            f = np.sin(np.pi * cfg.x_grid) + 0.5 * np.sin(3 * np.pi * cfg.x_grid)
            return solve_adr(f, cfg)

        coarse, mid, fine = run(51), run(101), run(401)
        e_coarse = np.max(np.abs(coarse - fine[::8, ::8]))
        e_mid = np.max(np.abs(mid[::2, ::2] - fine[::8, ::8]))
        assert 3.0 <= e_coarse / e_mid <= 5.0

    def test_blowup_detected_and_named(self):
        cfg = AdrConfig(D=0.0, k=80.0, nx=21, nt=101)
        with pytest.raises(DivergenceError, match="step"):
            solve_adr(np.ones(21), cfg)

    def test_overflowing_right_hand_side_is_a_blowup_at_its_step(self):
        # k u^2 overflows in the corrector's right-hand side at the first step
        cfg = AdrConfig(k=1e300, nx=11, nt=11)
        with np.errstate(over="ignore"), pytest.raises(
                DivergenceError,
                match=r"^solution for source function 0 blew up at time step 1 \(t=0\.1\)$"):
            solve_adr(np.full(11, 1e10), cfg)

    def test_diffusion_number_overflow_rejected(self):
        with pytest.raises(ConfigurationError,
                           match=r"^D=1e\+308 overflows D dt / \(2 dx\^2\) on a 101 x 101 grid$"):
            solve_adr(np.ones(101), AdrConfig(D=1e308))

    @pytest.mark.parametrize("count", ["nx", "nt"])
    def test_count_beyond_float_range_rejected(self, count):
        # 1 / (count - 1) raised OverflowError; a run exited 2 with numpy's
        # "Maximum allowed size exceeded" and a dry run printed its table
        with pytest.raises(ConfigurationError,
                           match=f"^{count} is too large for a float64 grid step$"):
            AdrConfig(**{count: 10**400})

    def test_grid_step_squared_underflow_rejected(self):
        # 2 dx^2 rounds to zero, so D dt / (2 dx^2) divides by zero
        with pytest.raises(ConfigurationError, match=r"^D=0.01 overflows D dt / \(2 dx\^2\) "):
            AdrConfig(nx=10**200)

    def test_stays_finite_across_coefficient_sweep(self):
        for dk in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            cfg = AdrConfig(D=dk, k=dk, nx=101, nt=101)
            f = 1.0 + np.sin(np.pi * cfg.x_grid)  # f >= 0
            sol = solve_adr(f, cfg)
            assert np.all(np.isfinite(sol))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            solve_adr(np.zeros(7), AdrConfig(nx=21, nt=21))

    @pytest.mark.parametrize("D", [-0.01, math.nan])
    def test_negative_or_nan_diffusion_rejected(self, D):
        with pytest.raises(ConfigurationError, match="D must be a finite number >= 0"):
            AdrConfig(D=D)


class TestPendulum:
    @pytest.mark.parametrize("n", [2, 3, 101, 257])
    def test_matches_reference_loop_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        k, y0, v0, t_end = rng.uniform(-5, 5), rng.normal(), rng.normal(), rng.uniform(0.1, 3)
        f = rng.standard_normal(n)
        assert np.array_equal(solve_pendulum(k, f, y0, v0, t_end),
                              _reference_pendulum(k, f, y0, v0, t_end))

    def test_equilibrium(self):
        y = solve_pendulum(1.0, np.zeros(50), 0.0, 0.0)
        assert np.all(y == 0.0)

    def test_small_angle_matches_harmonic_oscillator(self):
        k = 4.0
        t = np.linspace(0, 1, 201)
        y = solve_pendulum(k, np.zeros(201), 0.01, 0.0)
        assert np.max(np.abs(y - 0.01 * np.cos(np.sqrt(k) * t))) < 1e-4

    def test_fourth_order_self_convergence(self):
        def end_angle(n):
            return solve_pendulum(4.0, np.zeros(n), 1.2, 0.3)[-1]

        ref = end_angle(3201)
        ratio = abs(end_angle(101) - ref) / abs(end_angle(201) - ref)
        assert 12.0 <= ratio <= 20.0

    def test_needs_two_samples(self):
        with pytest.raises(InputError):
            solve_pendulum(1.0, np.array([0.0]), 0.0, 0.0)


class TestSensorIndices:
    @given(st.integers(2, 200), st.integers(1, 200))
    @settings(max_examples=80, deadline=None)
    def test_distinct_and_in_range(self, n_grid, m):
        if m > n_grid:
            with pytest.raises(ConfigurationError):
                sensor_indices(n_grid, m)
            return
        idx = sensor_indices(n_grid, m)
        assert len(idx) == m
        assert len(set(idx.tolist())) == m
        assert idx[0] == 0 and (m == 1 or idx[-1] == n_grid - 1)


def _small_adr_inputs(nx=21, nt=21, l=0.05):
    adr = AdrConfig(D=0.01, k=0.01, nx=nx, nt=nt)
    grf = GrfConfig(grid=adr.x_grid, length_scale=l)
    return grf, adr


class TestAdrDataset:
    def test_row_accounting(self):
        grf, adr = _small_adr_inputs()
        ds = build_adr_dataset(grf, adr, sensor_count=10, num_functions=3,
                               points_per_function=17, noise_std=0.0, seed=0)
        assert ds.n == 3 * 17
        assert ds.m == 10 and ds.d2 == 2

    def test_initial_time_labels_are_zero(self):
        grf, adr = _small_adr_inputs()
        ds = build_adr_dataset(grf, adr, sensor_count=10, num_functions=1,
                               points_per_function=400, noise_std=0.0, seed=3)
        on_t0 = ds.p[:, 1] == 0.0
        assert np.any(on_t0)
        assert np.all(ds.y[on_t0] == 0.0)

    def test_labels_within_bound(self):
        grf, adr = _small_adr_inputs()
        ds = build_adr_dataset(grf, adr, sensor_count=5, num_functions=4,
                               points_per_function=25, noise_std=0.1, seed=1)
        assert np.max(np.abs(ds.y)) <= ds.B

    def test_deterministic(self):
        grf, adr = _small_adr_inputs()
        kw = dict(sensor_count=5, num_functions=2, points_per_function=10,
                  noise_std=0.05, seed=9)
        a = build_adr_dataset(grf, adr, **kw)
        b = build_adr_dataset(grf, adr, **kw)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.p, b.p)
        assert np.array_equal(a.y, b.y)

    def test_noise_level_calibration(self):
        # 1e5 samples: mean (y - y_clean)^2 within 5% of the injected variance
        grf, adr = _small_adr_inputs(nx=21, nt=21, l=0.05)
        sigma0 = 0.3
        kw = dict(sensor_count=8, num_functions=100, points_per_function=1000, seed=11)
        noisy = build_adr_dataset(grf, adr, noise_std=sigma0, **kw)
        clean = build_adr_dataset(grf, adr, noise_std=0.0, **kw)
        mse = float(np.mean((noisy.y - clean.y) ** 2))
        assert abs(mse - sigma0**2) <= 0.05 * sigma0**2

    def test_too_many_sensors_rejected(self):
        grf, adr = _small_adr_inputs()
        with pytest.raises(ConfigurationError):
            build_adr_dataset(grf, adr, sensor_count=22, num_functions=1,
                              points_per_function=5, noise_std=0.0, seed=0)

    def test_grid_mismatch_rejected(self):
        adr = AdrConfig(nx=21, nt=21)
        grf = GrfConfig(grid=np.linspace(0, 1, 20), length_scale=0.05)
        with pytest.raises(ConfigurationError):
            build_adr_dataset(grf, adr, sensor_count=5, num_functions=1,
                              points_per_function=5, noise_std=0.0, seed=0)


class TestPendulumDataset:
    def test_zero_forcing_gives_zero_labels(self):
        grf = GrfConfig(grid=np.linspace(0, 1, 21), length_scale=0.1)
        ds = build_pendulum_dataset(grf, pend_k=1.0, sensor_count=7,
                                    num_functions=2, points_per_function=11,
                                    noise_std=0.0, seed=0, forcing_scale=0.0)
        assert np.all(ds.s == 0.0)
        assert np.all(ds.y == 0.0)

    def test_row_accounting(self):
        grf = GrfConfig(grid=np.linspace(0, 1, 21), length_scale=0.1)
        ds = build_pendulum_dataset(grf, pend_k=1.0, sensor_count=7,
                                    num_functions=3, points_per_function=4,
                                    noise_std=0.0, seed=2)
        assert ds.n == 12 and ds.m == 7 and ds.d2 == 1

    def test_labels_match_independent_integrator(self):
        # oracle: adaptive RK45 at tight tolerance on the same interpolated forcing
        grf = GrfConfig(grid=np.linspace(0, 1, 41), length_scale=0.2)
        k = 2.0
        ds = build_pendulum_dataset(grf, pend_k=k, sensor_count=41,
                                    num_functions=1, points_per_function=30,
                                    noise_std=0.0, seed=5)
        t_grid = np.linspace(0, 1, 41)
        f = ds.s[0]  # all sensors = the full forcing here

        def rhs(t, state):
            return [state[1], -k * math.sin(state[0]) + np.interp(t, t_grid, f)]

        sol = solve_ivp(rhs, (0, 1), [0.0, 0.0], dense_output=True,
                        rtol=1e-10, atol=1e-12, max_step=1e-2)
        for i in range(ds.n):
            want = sol.sol(ds.p[i, 0])[0]
            assert abs(ds.y[i] - want) < 1e-5


class TestBatchedAssembly:
    """The builders solve all sources together; each label must still be the
    single-source solution at its node, bit for bit."""

    def test_adr_labels_are_single_source_solves(self):
        adr = AdrConfig(D=0.02, k=-0.3, nx=21, nt=31)
        grf = GrfConfig(grid=adr.x_grid, length_scale=0.1)
        per = 40
        ds = build_adr_dataset(grf, adr, sensor_count=21, num_functions=7,
                               points_per_function=per, noise_std=0.0, seed=4)
        jx = np.searchsorted(adr.x_grid, ds.p[:, 0])
        jt = np.searchsorted(adr.t_grid, ds.p[:, 1])
        assert np.array_equal(adr.x_grid[jx], ds.p[:, 0])
        assert np.array_equal(adr.t_grid[jt], ds.p[:, 1])
        for i in range(7):
            rows = slice(i * per, (i + 1) * per)
            u = solve_adr(ds.s[i * per], adr)  # all 21 sensors: s is the whole source
            assert np.array_equal(ds.y[rows], u[jx[rows], jt[rows]])

    def test_pendulum_labels_are_single_source_solves(self):
        t_grid = np.linspace(0, 1, 41)
        grf = GrfConfig(grid=t_grid, length_scale=0.1)
        per = 25
        ds = build_pendulum_dataset(grf, pend_k=3.0, sensor_count=41, num_functions=6,
                                    points_per_function=per, noise_std=0.0, seed=8,
                                    y0=0.4, v0=-1.1, forcing_scale=1.7)
        jt = np.searchsorted(t_grid, ds.p[:, 0])
        assert np.array_equal(t_grid[jt], ds.p[:, 0])
        for i in range(6):
            rows = slice(i * per, (i + 1) * per)
            traj = solve_pendulum(3.0, ds.s[i * per], 0.4, -1.1)
            assert np.array_equal(ds.y[rows], traj[jt[rows]])

    def test_diverging_pendulum_is_a_blowup_at_its_step(self):
        # v0 = 1e308 overflows y at the first step; a later step would turn it to NaN
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DivergenceError,
                match=r"^solution for source function 0 blew up at time step 1 \(t=0\.1\)$"):
            solve_pendulum(1.0, np.zeros(11), 0.0, 1e308)

    def test_diverging_pendulum_source_is_named(self):
        # forcings of 1e308 times a GRF draw overflow at the first step for the
        # sources whose draw is large enough; at this seed the first is source 1
        grf = GrfConfig(grid=np.linspace(0, 1, 11), length_scale=0.5)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DivergenceError,
                match=r"^solution for source function 1 blew up at time step 1 \(t=0\.1\)$"):
            build_pendulum_dataset(grf, 1.0, 5, 4, 3, 0.0, seed=0, forcing_scale=1e308)

    @pytest.mark.parametrize("sampled", [np.arange(11), np.array([1])], ids=["all", "step-1"])
    def test_divergence_after_the_last_sampled_step_still_raises(self, sampled):
        # a last forcing sample of 1e308 overflows the velocity at the last step
        # while the angle stays finite (1.67e305); the solve raises there even when
        # only step 1 is sampled, as the ADR solver does, though no label is affected
        f = np.zeros(11)
        f[-1] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DivergenceError,
                match=r"^solution for source function 0 blew up at time step 10 \(t=1\)$"):
            datagen._pendulum_at(1.0, 0.0, 0.0, 1.0, f[None, :], np.zeros(sampled.size, int),
                                 sampled)

    def test_huge_finite_pendulum_forcing_is_accepted(self):
        grf = GrfConfig(grid=np.linspace(0, 1, 21), length_scale=0.1)
        ds = build_pendulum_dataset(grf, 1.0, 5, 4, 6, 0.0, seed=0, forcing_scale=1e200)
        assert np.all(np.isfinite(ds.y)) and ds.B > 1e190

    def test_one_diverging_source_is_named_with_its_step(self):
        # near-constant sources with D = 0: u_t = k u^2 + c blows up only where c is
        # large enough, which for this seed is the third of four sources
        adr = AdrConfig(D=0.0, k=20.0, nx=21, nt=101)
        grf = GrfConfig(grid=adr.x_grid, length_scale=1.0)
        chol, rng = grf_cholesky(grf), np.random.default_rng(7)
        blown = {}
        for i in range(4):  # replay the builder's draws, solving one source at a time
            f = chol @ rng.standard_normal(adr.nx)
            rng.integers(0, adr.nx, size=10)  # the node and noise draws, unused here
            rng.integers(0, adr.nt, size=10)
            rng.standard_normal(10)
            try:
                solve_adr(f, adr)
            except DivergenceError as exc:
                blown[i] = re.search(r"time step (\d+)", str(exc)).group(1)
        assert list(blown) == [2]
        with pytest.raises(DivergenceError,
                           match=rf"source function 2 blew up at time step {blown[2]} "):
            build_adr_dataset(grf, adr, sensor_count=5, num_functions=4,
                              points_per_function=10, noise_std=0.0, seed=7)


def _digest(ds):
    h = hashlib.sha256()
    for a in (ds.s, ds.p, ds.y):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestGoldenDatasets:
    """SHA-256 of s, p and y, recorded with the one-source-at-a-time solvers:
    how the solves are batched must not move a bit of any dataset."""

    @pytest.mark.parametrize("adr_kw,l,kw,digest", [
        (dict(D=0.01, k=0.01, nx=21, nt=21), 0.05,
         dict(sensor_count=10, num_functions=3, points_per_function=17, noise_std=0.1, seed=0),
         "8e60270a1e98bbada3e5e3b73dc1c0518961836ef6527e50fe7c97be5283cd26"),
        (dict(D=0.05, k=-0.5, nx=31, nt=26), 0.1,
         dict(sensor_count=7, num_functions=5, points_per_function=13, noise_std=0.0, seed=7),
         "1b7c6f497209d8a7926ed3584d55a9680e14253bee0560dfb8151ae7fa4b0fb2"),
        (dict(D=0.0, k=0.0, nx=17, nt=41), 0.2,
         dict(sensor_count=17, num_functions=4, points_per_function=30, noise_std=0.02, seed=3),
         "1eba1043ce176a9d653b4b1a13ebda20b28de28035b26fb57c1e1e2baf1d5885"),
        (dict(), 1e-3,
         dict(sensor_count=40, num_functions=6, points_per_function=50, noise_std=0.0, seed=11),
         "6b3deca03f152a31cbf5d5c4e6a12845a97bb3ec93c79518213338bb275284ee"),
    ], ids=["noisy", "negative-k", "pure-source", "default-grid"])
    def test_adr(self, adr_kw, l, kw, digest):
        adr = AdrConfig(**adr_kw)
        grf = GrfConfig(grid=adr.x_grid, length_scale=l)
        assert _digest(build_adr_dataset(grf, adr, **kw)) == digest

    @pytest.mark.parametrize("nt,l,kw,digest", [
        (21, 0.1, dict(pend_k=1.0, sensor_count=7, num_functions=4, points_per_function=11,
                       noise_std=0.05, seed=0),
         "e29192d0442289b43c6be72450b2cb112c67b8383ee7e4f19b9db2d4373e9b71"),
        (41, 0.05, dict(pend_k=4.0, sensor_count=10, num_functions=6, points_per_function=9,
                        noise_std=0.0, seed=5, y0=0.3, v0=-0.7, forcing_scale=2.5),
         "08c76503b15c3b5eb12a604fe30797a775d4c1f7b247b785a2182bd1ba8534ac"),
        (31, 0.2, dict(pend_k=-2.0, sensor_count=5, num_functions=3, points_per_function=20,
                       noise_std=0.1, seed=2, y0=1.2, v0=0.5, forcing_scale=0.0),
         "c37ae7dbc9d368e5727a734a803388a8daf494b90d5f2dae35b002a9a576c794"),
    ], ids=["noisy", "scaled-forcing", "unforced"])
    def test_pendulum(self, nt, l, kw, digest):
        grf = GrfConfig(grid=np.linspace(0, 1, nt), length_scale=l)
        assert _digest(build_pendulum_dataset(grf, **kw)) == digest

    def test_csv_and_sidecar_bytes(self, tmp_path):
        grf, adr = _small_adr_inputs()
        ds = build_adr_dataset(grf, adr, sensor_count=4, num_functions=2,
                               points_per_function=5, noise_std=0.03, seed=1)
        path = tmp_path / "g.csv"
        write_dataset_csv(ds, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "ac73b9165b57ef394d18d9f8689c79e209799fd4cfd6916833a22ceb19b3dae5"
        assert hashlib.sha256((tmp_path / "g.csv.meta.json").read_bytes()).hexdigest() == \
            "935b8a090cc8d2b097d318120a49d1935d4106dc62a1b5dc0283627fb71787db"


class TestCsvRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        grf, adr = _small_adr_inputs()
        ds = build_adr_dataset(grf, adr, sensor_count=6, num_functions=2,
                               points_per_function=9, noise_std=0.02, seed=4)
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert np.array_equal(back.s, ds.s)
        assert np.array_equal(back.p, ds.p)
        assert np.array_equal(back.y, ds.y)
        assert back.B == ds.B
        assert np.array_equal(back.sensor_grid, ds.sensor_grid)
        assert back.noise_std == ds.noise_std

    def test_reemission_byte_identical(self, tmp_path):
        grf, adr = _small_adr_inputs()
        ds = build_adr_dataset(grf, adr, sensor_count=4, num_functions=1,
                               points_per_function=6, noise_std=0.0, seed=8)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(ds, p1)
        write_dataset_csv(read_dataset_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_interrupted_write_keeps_previous_files(self, tmp_path, fail_writes_after):
        grf, adr = _small_adr_inputs()
        kw = dict(sensor_count=4, num_functions=2, points_per_function=6, noise_std=0.0)
        path = tmp_path / "ds.csv"
        write_dataset_csv(build_adr_dataset(grf, adr, seed=1, **kw), path)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        fail_writes_after(5)
        with pytest.raises(OSError, match="disk full"):
            write_dataset_csv(build_adr_dataset(grf, adr, seed=2, **kw), path)
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    def test_signed_zero_rows_keep_their_own_text(self, tmp_path):
        s = np.array([[0.0, 1.5], [-0.0, 1.5], [-0.0, 1.5], [0.0, 1.5]])
        p = np.array([[0.0, -0.0], [-0.0, 0.5], [0.0, -0.0], [-0.0, 0.0]])
        y = np.array([-0.0, 0.0, 0.25, -0.0])
        ds = Dataset(sensors=s[:2], source=[0, 1, 1, 0], p=p, y=y, B=0.25,
                     sensor_grid=np.array([0.0, 1.0]))
        path = tmp_path / "z.csv"
        write_dataset_csv(ds, path)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[1:] == [b"0.0,1.5,0.0,-0.0,-0.0", b"-0.0,1.5,-0.0,0.5,0.0",
                             b"-0.0,1.5,0.0,-0.0,0.25", b"0.0,1.5,-0.0,0.0,-0.0", b""]
        rows = np.hstack([s, p, y[:, None]]).tolist()
        assert lines[1:-1] == [",".join(map(repr, row)).encode() for row in rows]
        back = read_dataset_csv(path)
        for got, want in ((back.s, s), (back.p, p), (back.y, y)):
            assert _same_bits(got, want)

    def test_distinct_rows_round_trip(self, tmp_path, rng):
        from conftest import random_dataset

        ds = random_dataset(rng, n=40, m=6, d2=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(ds, p1)
        back = read_dataset_csv(p1)
        for a, b in ((back.s, ds.s), (back.p, ds.p), (back.y, ds.y)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        write_dataset_csv(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_shuffled_file_reads_back_one_row_per_source_function(self, tmp_path):
        plan = scaling.ExperimentPlan(exponent=0.5, anchor_q=4, anchor_n=4000,
                                      q_list=[4, 8, 16], target_params=8000)
        ds = scaling.build_cell_dataset(plan, 4000, seed=[0, 4, 4000])
        shuffled = ds.take(np.random.default_rng(0).permutation(ds.n))
        assert ds.sensors.shape[0] == shuffled.sensors.shape[0] == 40
        path = tmp_path / "shuffled.csv"
        write_dataset_csv(shuffled, path)
        tracemalloc.start()
        try:
            back = read_dataset_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one row per source function, not one per run of equal s texts
        assert back.sensors.tobytes() == shuffled.sensors.tobytes()
        assert np.array_equal(back.source, shuffled.source)
        assert _same_bits(back.s, shuffled.s)
        assert peak < ds.n * ds.m * 8  # the dense (n, m) branch inputs

    @pytest.mark.parametrize("column", [1, 4, 6], ids=["s_1", "p_0", "y"])
    def test_non_numeric_value_names_its_line(self, tmp_path, column):
        grf, adr = _small_adr_inputs()
        ds = build_adr_dataset(grf, adr, sensor_count=4, num_functions=2,
                               points_per_function=5, noise_std=0.0, seed=3)
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        lines = path.read_text().splitlines()
        row = lines[3].split(",")  # file line 4: its s text repeats line 3's
        assert lines[2].split(",")[:4] == row[:4]
        row[column] = "abc"
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r":4: non-numeric value .*'abc'"):
            read_dataset_csv(path)

    def test_lf_line_endings_read(self, tmp_path):
        p = tmp_path / "lf.csv"
        p.write_text("s_0,s_1,p_0,y\n1.0,-2.5,0.5,3.0\n1.0,-2.5,0.25,-1.5\n")
        ds = read_dataset_csv(p)
        assert ds.s.tolist() == [[1.0, -2.5], [1.0, -2.5]]
        assert ds.p.tolist() == [[0.5], [0.25]]
        assert ds.y.tolist() == [3.0, -1.5]
        assert ds.B == 3.0

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(InputError):
            read_dataset_csv(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            read_dataset_csv(tmp_path / "nope.csv")

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FormatError):
            read_dataset_csv(p)

    def test_column_count_mismatch_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("s_0,p_0,y\n1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(FormatError):
            read_dataset_csv(p)

    @pytest.mark.parametrize("sidecar, message", [
        ("[1]", "must hold a JSON object"),
        ("{not json", "is not valid JSON"),
    ])
    def test_bad_sidecar_rejected(self, tmp_path, sidecar, message):
        p = tmp_path / "d.csv"
        p.write_text("s_0,p_0,y\n1.0,2.0,3.0\n")
        (tmp_path / "d.csv.meta.json").write_text(sidecar)
        with pytest.raises(FormatError, match=f"sidecar .*d.csv.meta.json {message}"):
            read_dataset_csv(p)

    @pytest.mark.parametrize("edit, key", [
        (lambda meta: meta.update(labels="y"), "'labels'"),
        (lambda meta: meta.pop("B"), "'B'"),
        (lambda meta: meta.update(s=[[1.0]]), "'s'"),
        (lambda meta: meta.update(noise_std=math.inf),
         "noise_std must be a finite number >= 0, got inf"),
        (lambda meta: meta.update(B=0.25), "label bound B violated"),
        (lambda meta: meta.update(B=math.nan), "B must be a finite number >= 0, got nan"),
        (lambda meta: meta.update(B=math.inf), "B must be a finite number >= 0, got inf"),
        (lambda meta: meta.update(B="1.0"), "B must be a finite number >= 0, got '1.0'"),
        (lambda meta: meta.update(sensor_grid=[0.0, 1.0]), "sensor grid length"),
        (lambda meta: meta.update(seed="abc"), "seed must be an int >= 0, got 'abc'"),
        (lambda meta: meta.update(seed=-5), "seed must be an int >= 0, got -5"),
        (lambda meta: meta.update(seed=[3, -1]), "seed must be an int >= 0, got -1"),
        (lambda meta: meta.update(generator=[1]), r"generator must be a dict, got \[1\]"),
    ])
    def test_sidecar_with_a_bad_key_rejected(self, tmp_path, edit, key):
        p = tmp_path / "d.csv"
        write_dataset_csv(Dataset(sensors=[[1.0]], source=[0], p=[[2.0]], y=[0.5], B=1.0,
                                  sensor_grid=[0.0]), p)
        sidecar = tmp_path / "d.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        edit(meta)
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=f"^sidecar {re.escape(str(sidecar))} .*{key}"):
            read_dataset_csv(p)


def _csv_module_read(path):
    """The ``csv.reader`` tokeniser that read_dataset_csv replaced, kept as a
    reference: (s, p, y) of a dataset file, with the same FormatErrors."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        m = sum(1 for c in header if c.startswith("s_"))
        d2 = sum(1 for c in header if c.startswith("p_"))
        s_rows, p_rows, y_rows = [], [], []
        s_text = s_vals = None
        for ln, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(
                    f"{path}:{ln}: expected {len(header)} columns, got {len(row)}"
                )
            try:
                text = row[:m]
                if text != s_text:
                    s_vals, s_text = [float(v) for v in text], text
                p_rows.append([float(v) for v in row[m : m + d2]])
                y_rows.append(float(row[m + d2]))
            except ValueError as exc:
                raise FormatError(f"{path}:{ln}: non-numeric value ({exc})") from exc
            s_rows.append(s_vals)
    s = np.array(s_rows, dtype=np.float64).reshape(len(s_rows), m)
    p = np.array(p_rows, dtype=np.float64).reshape(len(p_rows), d2)
    return s, p, np.array(y_rows, dtype=np.float64)


# texts float() reads as signed zeros, subnormals and extremes
_SPECIAL_TEXTS = ["0.0", "-0.0", "0", "5e-324", "-5e-324", "1e-310", "-2.5e-315",
                  "2.2250738585072014e-308", "1.7976931348623157e+308", "1e-400"]
# texts float() reads as NaNs and infinities, which the reader rejects
_NON_FINITE_TEXTS = ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-1e400"]


def _random_rows(rng, m, d2, distinct):
    """Data lines of a file: runs of repeated s texts (a text may come back
    after another), or a new s text on every row when distinct."""
    def field():
        if rng.random() < 0.25:
            return str(rng.choice(_SPECIAL_TEXTS))
        return repr(float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8)))

    s_texts = [",".join(field() for _ in range(m)) for _ in range(5)]
    rows = []
    for _ in range(30):
        if distinct:
            text, length = ",".join(field() for _ in range(m)), 1
        else:
            text, length = s_texts[rng.integers(5)], int(rng.integers(1, 6))
        rows += [text + "," + ",".join(field() for _ in range(d2 + 1)) for _ in range(length)]
    return rows


def _write_lines(path, header_cols, rows, end="\r\n", final_end=True):
    m, d2 = header_cols
    header = ",".join([f"s_{i}" for i in range(m)] + [f"p_{i}" for i in range(d2)] + ["y"])
    path.write_bytes((end.join([header] + rows) + (end if final_end else "")).encode())


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestReaderMatchesCsvModule:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("distinct", [False, True], ids=["runs", "distinct"])
    @pytest.mark.parametrize("end", ["\r\n", "\n", "\r"], ids=["crlf", "lf", "cr"])
    @pytest.mark.parametrize("final_end", [True, False], ids=["ended", "unended"])
    def test_arrays_equal_reference_bit_for_bit(self, tmp_path, seed, distinct, end, final_end):
        rng = np.random.default_rng([seed, distinct])
        m, d2 = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        path = tmp_path / "r.csv"
        _write_lines(path, (m, d2), _random_rows(rng, m, d2, distinct), end, final_end)
        back = read_dataset_csv(path)
        for got, want in zip((back.s, back.p, back.y), _csv_module_read(path)):
            assert _same_bits(got, want)
        assert back.p.flags.c_contiguous and back.y.flags.c_contiguous

    def test_header_only_file_gives_empty_arrays(self, tmp_path):
        path = tmp_path / "h.csv"
        _write_lines(path, (3, 2), [])
        back = read_dataset_csv(path)
        assert back.s.shape == (0, 3) and back.p.shape == (0, 2) and back.y.shape == (0,)

    @pytest.mark.parametrize("lines,ln", [
        (["1.0,2.0,0.5,3.0", "", "1.0,2.0,0.5,3.0"], 3),
        (["1.0,2.0,0.5,3.0", "1.0,2.0,0.5,3.0", ""], 4),
    ], ids=["middle", "trailing"])
    @pytest.mark.parametrize("end", ["\r\n", "\n", "\r"], ids=["crlf", "lf", "cr"])
    def test_blank_line_gives_zero_columns(self, tmp_path, lines, ln, end):
        path = tmp_path / "b.csv"
        _write_lines(path, (2, 1), lines, end)
        want = f":{ln}: expected 4 columns, got 0"
        with pytest.raises(FormatError, match=want) as got:
            read_dataset_csv(path)
        with pytest.raises(FormatError) as ref:
            _csv_module_read(path)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("row,got", [
        ("1.0,2.0,0.5,3.0,9.0", 5),
        ("1.0,2.0,0.5", 3),
        ("1.0,7.0,0.5,3.0,9.0", 5),
        ("1.0,7.0,0.5", 3),
        ("1.0,2.0,0.5,3.0,", 5),
        ("1.0", 1),
    ], ids=["extra-repeated-s", "missing-repeated-s", "extra-new-s", "missing-new-s",
            "trailing-comma", "one-field"])
    def test_wrong_column_count_names_its_line(self, tmp_path, row, got):
        path = tmp_path / "c.csv"
        _write_lines(path, (2, 1), ["1.0,2.0,0.25,1.0", "1.0,2.0,0.5,3.0", row])
        with pytest.raises(FormatError, match=f":4: expected 4 columns, got {got}$") as new:
            read_dataset_csv(path)
        with pytest.raises(FormatError) as ref:
            _csv_module_read(path)
        assert str(new.value) == str(ref.value)

    @pytest.mark.parametrize("row", ['"1.0",2.0,0.5,3.0', '1.0,2.0,"0.5",3.0', '1.0,2.0,0.5,"3.0"'],
                             ids=["s", "p", "y"])
    def test_quoted_field_is_rejected_naming_its_line(self, tmp_path, row):
        path = tmp_path / "q.csv"
        _write_lines(path, (2, 1), ["1.0,2.0,0.5,3.0", row])
        with pytest.raises(FormatError, match=r":3: non-numeric value .*'\"\d\.\d\"'"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("text", _NON_FINITE_TEXTS)
    @pytest.mark.parametrize("column", [1, 2, 3], ids=["s", "p", "y"])
    def test_non_finite_value_is_rejected_naming_its_line(self, tmp_path, column, text):
        row = ["1.0", "2.0", "0.5", "3.0"]
        row[column] = text
        path = tmp_path / "n.csv"
        _write_lines(path, (2, 1), ["1.0,2.0,0.25,1.0", "1.0,2.0,0.5,3.0", ",".join(row)])
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:4: non-finite value$"):
            read_dataset_csv(path)
