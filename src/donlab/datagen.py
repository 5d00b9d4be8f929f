"""Synthetic data generation.

Gaussian-random-field forcing functions (RBF kernel, Cholesky sampling),
a reaction-diffusion reference solver on the unit space-time square, a
forced-pendulum integrator, dataset assembly, and CSV round-trip I/O.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_path, atomic_write_text
from .deeponet import Dataset, _distinct_rows
from .errors import (
    ConfigurationError,
    DivergenceError,
    FormatError,
    InputError,
    NumericalError,
)

BLOWUP_LIMIT = 1e10


# ---------------------------------------------------------------------------
# Gaussian random fields
# ---------------------------------------------------------------------------

@dataclass
class GrfConfig:
    """Mean-zero Gaussian field on a fixed grid with RBF covariance."""

    grid: np.ndarray
    length_scale: float = 1e-3
    jitter: float = 1e-10

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if self.grid.ndim != 1 or self.grid.size < 1:
            raise ConfigurationError("grid must be a non-empty 1-d vector")
        if np.any(np.diff(self.grid) <= 0):
            raise ConfigurationError("grid must be strictly increasing")
        if self.grid[0] < 0.0 or self.grid[-1] > 1.0:
            raise ConfigurationError("grid must lie in [0, 1]")
        if self.length_scale <= 0:
            raise ConfigurationError("length_scale must be > 0")
        if self.jitter < 0:
            raise ConfigurationError("jitter must be >= 0")


def kernel_matrix(grid: np.ndarray, l: float) -> np.ndarray:
    """RBF kernel matrix of a 1-d grid: entry (i, j) is exp(-|g_i - g_j|^2 / (2 l^2))."""
    if l <= 0:
        raise InputError("length scale must be > 0")
    g = np.asarray(grid, dtype=np.float64)
    d = g[:, None] - g[None, :]
    return np.exp(-(d * d) / (2.0 * l * l))


def grf_cholesky(config: GrfConfig) -> np.ndarray:
    """Lower Cholesky factor of K + jitter*I."""
    k = kernel_matrix(config.grid, config.length_scale)
    k[np.diag_indices_from(k)] += config.jitter
    try:
        return np.linalg.cholesky(k)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"kernel matrix is not positive definite at jitter={config.jitter}; "
            "raise the jitter"
        ) from exc


def sample_grf_batch(config: GrfConfig, count: int, seed) -> np.ndarray:
    """count independent draws as rows of a (count, len(grid)) array."""
    chol = grf_cholesky(config)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((config.grid.size, count))
    return (chol @ z).T


# ---------------------------------------------------------------------------
# Reaction-diffusion solver: u_t = D u_xx + k u^2 + f(x) on [0,1]^2
# ---------------------------------------------------------------------------

@dataclass
class AdrConfig:
    """Diffusion coefficient, reaction rate, and uniform grid resolution."""

    D: float = 0.01
    k: float = 0.01
    nx: int = 101
    nt: int = 101

    def __post_init__(self):
        if self.D < 0:
            raise ConfigurationError("diffusion coefficient must be >= 0")
        if self.nx < 3 or self.nt < 3:
            raise ConfigurationError("nx and nt must be >= 3")

    @property
    def x_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    @property
    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nt)


@dataclass
class PdeSolution:
    """Solution array u (nx, nt) with its grids and the source vector f."""

    u: np.ndarray
    x_grid: np.ndarray
    t_grid: np.ndarray
    f: np.ndarray


def solve_adr(f: np.ndarray, config: AdrConfig) -> PdeSolution:
    """Second-order solve with zero initial data and zero Dirichlet walls.

    Diffusion is treated by Crank-Nicolson, the reaction + source by an
    explicit trapezoidal (Heun) predictor-corrector, with one tridiagonal
    solve per stage. Exact for D = k = 0 (then u = f * t).
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (config.nx,):
        raise InputError(f"f must have shape ({config.nx},), got {f.shape}")
    jx, jt = np.divmod(np.arange(config.nx * config.nt), config.nt)
    u = _adr_at(config, f[None, :], np.zeros_like(jx), jx, jt).reshape(config.nx, config.nt)
    return PdeSolution(u=u, x_grid=config.x_grid, t_grid=config.t_grid, f=f)


def _rows_by_step(jt: np.ndarray, nt: int) -> list[np.ndarray]:
    """For each time index 0..nt-1, the query rows that sample it."""
    order = np.argsort(jt, kind="stable")
    return np.split(order, np.cumsum(np.bincount(jt, minlength=nt))[:-1])


def _adr_at(config: AdrConfig, fs, fn, jx, jt) -> np.ndarray:
    """u at (x[jx[r]], t[jt[r]]) for the source fs[fn[r]], for every query row r.

    All sources (rows of fs) advance together as the columns of one state,
    so each stage is one multi-right-hand-side tridiagonal solve; only the
    queried nodes of each step are kept.
    """
    from scipy.linalg import solve_banded  # loaded here so only ADR solves pay its import

    nx, nt = config.nx, config.nt
    dx = 1.0 / (nx - 1)
    dt = 1.0 / (nt - 1)
    r = config.D * dt / (2.0 * dx * dx)
    f_int = fs[:, 1:-1].T

    # banded form of I - r*T with T the second-difference stencil
    ab = np.zeros((3, nx - 2))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r

    rows = _rows_by_step(jt, nt)
    out = np.zeros(jt.size)
    cur = np.zeros((nx, fs.shape[0]))
    for j in range(1, nt):
        ui = cur[1:-1]
        lin = ui + r * (cur[:-2] - 2.0 * ui + cur[2:])
        g0 = config.k * ui * ui + f_int
        pred = solve_banded((1, 1), ab, lin + dt * g0)
        g1 = config.k * pred * pred + f_int
        new = solve_banded((1, 1), ab, lin + 0.5 * dt * (g0 + g1))
        blown = ~np.all(np.abs(new) <= BLOWUP_LIMIT, axis=0)  # inf and nan fail <= too
        if blown.any():
            raise DivergenceError(f"solution for source function {np.argmax(blown)} "
                                  f"blew up at time step {j} (t={j * dt:.4g})")
        cur[1:-1] = new
        out[rows[j]] = cur[jx[rows[j]], fn[rows[j]]]
    return out


# ---------------------------------------------------------------------------
# Forced pendulum: d(y, v)/dt = (v, -k sin(y) + f(t))
# ---------------------------------------------------------------------------

def solve_pendulum(
    k: float, f_samples: np.ndarray, y0: float, v0: float, t_end: float = 1.0
) -> np.ndarray:
    """Classical RK4 for the forced pendulum; returns y on the sample grid.

    f_samples lives on the uniform grid over [0, t_end]; the forcing is
    linearly interpolated between samples (midpoint value = average).
    """
    f = np.asarray(f_samples, dtype=np.float64)
    if f.ndim != 1 or f.size < 2:
        raise InputError("need at least two forcing samples")
    return _pendulum_at(k, y0, v0, t_end, f[None, :], np.zeros(f.size, int), np.arange(f.size))


def _pendulum_at(k, y0, v0, t_end, fs, fn, jt) -> np.ndarray:
    """y at t[jt[r]] under the forcing fs[fn[r]], for every query row r.

    All forcings (rows of fs) are integrated together, one RK4 step on
    (num_sources,) arrays per time step.
    """
    n = fs.shape[1]
    h = t_end / (n - 1)
    f = np.ascontiguousarray(fs.T)
    f_mid = 0.5 * (f[:-1] + f[1:])
    rows = _rows_by_step(jt, n)
    out = np.full(jt.size, float(y0))
    yy, vv = np.full(fs.shape[0], float(y0)), np.full(fs.shape[0], float(v0))
    for i in range(n - 1):
        f0, fm, f1 = f[i], f_mid[i], f[i + 1]
        k1y = vv
        k1v = -k * np.sin(yy) + f0
        k2y = vv + 0.5 * h * k1v
        k2v = -k * np.sin(yy + 0.5 * h * k1y) + fm
        k3y = vv + 0.5 * h * k2v
        k3v = -k * np.sin(yy + 0.5 * h * k2y) + fm
        k4y = vv + h * k3v
        k4v = -k * np.sin(yy + h * k3y) + f1
        yy = yy + h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        vv = vv + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        out[rows[i + 1]] = yy[fn[rows[i + 1]]]
    return out


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

def sensor_indices(n_grid: int, m: int) -> np.ndarray:
    """m distinct, evenly spread indices into a grid of n_grid nodes."""
    if m > n_grid:
        raise ConfigurationError(f"cannot place {m} sensors on {n_grid} grid nodes")
    if m < 1:
        raise ConfigurationError("need at least one sensor")
    if m == 1:
        return np.array([0])
    return np.floor(np.linspace(0.0, n_grid - 1, m) + 0.5).astype(int)


def _assemble(grf, grids, solve, sensor_count, num_functions, points_per_function,
              noise_std, seed, generator, scale=1.0) -> Dataset:
    """Shared body of the dataset builders.

    A source is ``scale`` times a GRF draw on grids[0]; a query point is one
    node index per grid. Draws go function by function (source, node indices
    grid by grid, noise), so the stream does not depend on how ``solve``
    batches: ``solve(fs, fn, *nodes)`` gives every query row r its noise-free
    label, the solution for source fs[fn[r]] at node indices nodes[.][r].
    """
    if noise_std < 0:
        raise ConfigurationError("noise_std must be >= 0")
    if num_functions < 1 or points_per_function < 1:
        raise ConfigurationError("num_functions and points_per_function must be >= 1")
    idx = sensor_indices(grids[0].size, sensor_count)
    chol = grf_cholesky(grf)
    rng = np.random.default_rng(seed)
    per = points_per_function
    draws = []
    for _ in range(num_functions):
        # a matrix-vector product per draw: one chol @ Z is not shown to give the same bits
        draws.append((scale * (chol @ rng.standard_normal(grids[0].size)),
                      *(rng.integers(0, grid.size, size=per) for grid in grids),
                      rng.standard_normal(per)))
    fs, *nodes, z = (np.array(col) for col in zip(*draws))
    nodes = [j.ravel() for j in nodes]
    y = solve(fs, np.repeat(np.arange(num_functions), per), *nodes) + noise_std * z.ravel()
    return Dataset(
        s=np.repeat(fs[:, idx], per, axis=0),
        p=np.stack([grid[j] for grid, j in zip(grids, nodes)], axis=1),
        y=y,
        B=float(np.max(np.abs(y))),
        sensor_grid=grids[0][idx],
        noise_std=noise_std,
        seed=seed,
        generator={**generator, "length_scale": grf.length_scale, "jitter": grf.jitter,
                   "num_functions": num_functions, "points_per_function": per},
    )


def build_adr_dataset(
    grf: GrfConfig,
    adr: AdrConfig,
    sensor_count: int,
    num_functions: int,
    points_per_function: int,
    noise_std: float,
    seed: int,
) -> Dataset:
    """n = num_functions * points_per_function triples from the PDE solver.

    Each source draw is restricted to the sensor subgrid for the branch
    input; query points are uniformly sampled grid nodes (x_j, t_k); labels
    are solver values there plus optional Gaussian noise.
    """
    x_grid = adr.x_grid
    if grf.grid.size != adr.nx or not np.allclose(grf.grid, x_grid):
        raise ConfigurationError("GRF grid must coincide with the solver x grid")
    return _assemble(
        grf, (x_grid, adr.t_grid), functools.partial(_adr_at, adr), sensor_count,
        num_functions, points_per_function, noise_std, seed,
        {"kind": "adr", "D": adr.D, "k": adr.k, "nx": adr.nx, "nt": adr.nt},
    )


def build_pendulum_dataset(
    grf: GrfConfig,
    pend_k: float,
    sensor_count: int,
    num_functions: int,
    points_per_function: int,
    noise_std: float,
    seed: int,
    y0: float = 0.0,
    v0: float = 0.0,
    forcing_scale: float = 1.0,
) -> Dataset:
    """Triples (forcing at sensor times, query time, pendulum angle).

    The forcing is forcing_scale times a GRF draw on the config's time grid
    (scale 0 gives the unforced pendulum); labels come from the RK4
    integration at uniformly sampled grid times.
    """
    t_grid = grf.grid
    nt = t_grid.size
    if nt < 2:
        raise ConfigurationError("time grid needs at least two nodes")
    if not (np.isclose(t_grid[0], 0.0) and np.isclose(t_grid[-1], 1.0)):
        raise ConfigurationError("pendulum time grid must span [0, 1]")
    if np.max(np.abs(np.diff(t_grid) - np.diff(t_grid)[0])) > 1e-12:
        raise ConfigurationError("pendulum time grid must be uniform")
    return _assemble(
        grf, (t_grid,), functools.partial(_pendulum_at, pend_k, y0, v0, 1.0), sensor_count,
        num_functions, points_per_function, noise_std, seed,
        {"kind": "pendulum", "pend_k": pend_k, "y0": y0, "v0": v0,
         "forcing_scale": forcing_scale, "nt": nt},
        scale=forcing_scale,
    )


# ---------------------------------------------------------------------------
# CSV I/O (round-trip exact at float64 via shortest-representation text)
# ---------------------------------------------------------------------------

def _sidecar_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Columns s_0..s_{m-1}, p_0..p_{d2-1}, y plus a metadata sidecar JSON.

    Every float is written as its ``repr`` and every line ends in ``\\r\\n``,
    as ``csv.writer`` would write them. The text of each bitwise-distinct
    ``s`` row is formatted once and reused for every row that repeats it."""
    path = Path(path)
    header = (
        [f"s_{i}" for i in range(dataset.m)]
        + [f"p_{i}" for i in range(dataset.d2)]
        + ["y"]
    )
    # Bitwise, not float ==: -0.0 == 0.0 and nan != nan would reuse the wrong text.
    first, inverse = _distinct_rows(dataset.s)
    s_texts = [",".join(map(repr, row)) for row in dataset.s[first].tolist()]
    with atomic_path(path) as tmp, tmp.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        rows = zip(inverse.tolist(), dataset.p.tolist(), dataset.y.tolist())
        for k, p_row, y in rows:
            fh.write(f"{s_texts[k]},{','.join(map(repr, p_row))},{y!r}\r\n")
    meta = {
        "B": dataset.B,
        "m": dataset.m,
        "d2": dataset.d2,
        "noise_std": dataset.noise_std,
        "seed": dataset.seed,
        "sensor_grid": [float(v) for v in dataset.sensor_grid],
        "generator": dataset.generator,
    }
    atomic_write_text(_sidecar_path(path), json.dumps(meta, indent=1))


def read_dataset_csv(path) -> Dataset:
    """Inverse of :func:`write_dataset_csv`; exact float64 round trip.

    Reads unquoted comma-separated fields, one record per line, with lines
    ending in ``\\r\\n``, ``\\n`` or ``\\r``; a quote is a non-numeric value.
    Each line is split once from the right into its ``s`` text and its ``p``
    and ``y`` fields; an ``s`` text equal to the previous row's is not split
    or parsed again."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"dataset file not found: {path}")
    with path.open(newline="") as fh:
        line = fh.readline()
        if not line:
            raise InputError(f"dataset file {path} is empty")
        line = line.rstrip("\r\n")
        header = line.split(",") if line else []
        m = sum(1 for c in header if c.startswith("s_"))
        d2 = sum(1 for c in header if c.startswith("p_"))
        expected = [f"s_{i}" for i in range(m)] + [f"p_{i}" for i in range(d2)] + ["y"]
        if m < 1 or d2 < 1 or header != expected:
            raise FormatError(f"unexpected header in {path}: {header}")
        s_rows, runs, py_rows = [], [], []
        s_text = None
        for ln, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
            text, *py = line.rsplit(",", d2 + 1)
            new = text != s_text
            if len(py) != d2 + 1 or (new and text.count(",") != m - 1):
                got = line.count(",") + 1 if line else 0
                raise FormatError(f"{path}:{ln}: expected {len(header)} columns, got {got}")
            try:
                if new:
                    s_rows.append(list(map(float, text.split(","))))
                    s_text = text
                py_rows.append(list(map(float, py)))
            except ValueError as exc:
                raise FormatError(f"{path}:{ln}: non-numeric value ({exc})") from exc
            runs.append(len(s_rows) - 1)
    s = np.array(s_rows, dtype=np.float64).reshape(len(s_rows), m)
    s = s[np.asarray(runs, dtype=np.intp)]
    py = np.array(py_rows, dtype=np.float64).reshape(len(py_rows), d2 + 1)
    p, y = py[:, :d2].copy(), py[:, d2].copy()

    sidecar = _sidecar_path(path)
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text())
        except json.JSONDecodeError as exc:
            raise FormatError(f"sidecar {sidecar} is not valid JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise FormatError(f"sidecar {sidecar} must hold a JSON object")
        if meta.pop("m", None) != m or meta.pop("d2", None) != d2:
            raise FormatError(f"sidecar {sidecar} disagrees with the CSV header")
        try:
            return Dataset(s=s, p=p, y=y, **meta)
        except TypeError as exc:
            raise FormatError(f"sidecar {sidecar} does not describe a dataset: {exc}") from exc
    b = float(np.max(np.abs(y))) if y.size else 0.0
    return Dataset(s=s, p=p, y=y, B=b, sensor_grid=np.full(m, np.nan))
