"""Synthetic data generation.

Gaussian-random-field forcing functions (RBF kernel, Cholesky sampling),
a reaction-diffusion reference solver on the unit space-time square, a
forced-pendulum integrator, dataset assembly, and CSV round-trip I/O.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_path, atomic_write_text
from .deeponet import Dataset
from .errors import (ConfigurationError, DivergenceError, FormatError, InputError,
                     NumericalError, check_number, read_json_object)

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
        if not np.all(np.diff(self.grid) > 0):
            raise ConfigurationError("grid must be strictly increasing")
        if not (self.grid[0] >= 0.0 and self.grid[-1] <= 1.0):
            raise ConfigurationError("grid must lie in [0, 1]")
        check_number("length_scale", self.length_scale, ConfigurationError, finite=True, above=0)
        _check_length_scale(self.length_scale, ConfigurationError)
        check_number("jitter", self.jitter, ConfigurationError, finite=True, at_least=0)


def _check_length_scale(l, error) -> None:
    """Raise error naming length_scale unless l > 0 and the kernel's divisor
    2 l^2 does not underflow to zero, as it does for l below about 1.5e-162."""
    if not l > 0:
        raise error(f"length_scale must be > 0, got {l!r}")
    if 2.0 * l * l == 0.0:
        raise error(f"length_scale={l!r} is too small: 2 length_scale^2 underflows to 0")


def kernel_matrix(grid: np.ndarray, l: float) -> np.ndarray:
    """RBF kernel matrix of a 1-d grid: entry (i, j) is exp(-|g_i - g_j|^2 / (2 l^2)).

    A quotient that overflows to +inf gives the exact entry exp(-inf) = 0."""
    _check_length_scale(l, InputError)
    g = np.asarray(grid, dtype=np.float64)
    d = g[:, None] - g[None, :]
    with np.errstate(over="ignore"):
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
        check_number("D", self.D, ConfigurationError, finite=True, at_least=0)
        check_number("k", self.k, ConfigurationError, finite=True)
        check_number("nx", self.nx, ConfigurationError, count=True, at_least=3)
        check_number("nt", self.nt, ConfigurationError, count=True, at_least=3)
        for name in ("nx", "nt"):
            if getattr(self, name) > sys.float_info.max:  # 1 / (count - 1) would overflow
                raise ConfigurationError(f"{name} is too large for a float64 grid step")
        try:
            r = self.r
        except ZeroDivisionError:  # 2 dx^2 underflows to zero
            r = math.inf
        if not math.isfinite(r):
            raise ConfigurationError(f"D={self.D} overflows D dt / (2 dx^2) "
                                     f"on a {self.nx} x {self.nt} grid")

    @property
    def r(self) -> float:
        """The diffusion number D dt / (2 dx^2) of the Crank-Nicolson step."""
        dx = 1.0 / (self.nx - 1)
        dt = 1.0 / (self.nt - 1)
        return self.D * dt / (2.0 * dx * dx)

    @property
    def x_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    @property
    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nt)


def solve_adr(f: np.ndarray, config: AdrConfig) -> np.ndarray:
    """u on the (nx, nt) grid: a second-order solve with zero initial data
    and zero Dirichlet walls.

    Diffusion is treated by Crank-Nicolson, the reaction + source by an
    explicit trapezoidal (Heun) predictor-corrector, with one tridiagonal
    solve per stage. Exact for D = k = 0 (then u = f * t).
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (config.nx,):
        raise InputError(f"f must have shape ({config.nx},), got {f.shape}")
    jx, jt = np.divmod(np.arange(config.nx * config.nt), config.nt)
    return _adr_at(config, f[None, :], np.zeros_like(jx), jx, jt).reshape(config.nx, config.nt)


def _flapack():
    """scipy's LAPACK extension module, ``scipy.linalg._flapack``, loaded alone.

    ``scipy.linalg.lapack`` re-exports its routines, but importing that loads
    all of ``scipy.linalg`` (about 310 modules, 27 MiB). Only top-level
    ``scipy`` is imported, whose ``__init__`` sets up what its shared libraries
    need; the extension is loaded from its file and kept in ``sys.modules``
    under its own name, so a later ``import scipy.linalg`` reuses this object.
    Loads racing in two threads get one object: CPython keeps a single-phase
    extension module once per file and name.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import importlib.machinery
    import importlib.util

    import scipy

    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            return module
    raise ImportError(f"scipy's LAPACK extension _flapack was not found in {folder}")


def _blowup(bad: np.ndarray, step: int, dt: float) -> DivergenceError:
    """The error for a solve whose sources flagged in bad blew up at time index step."""
    return DivergenceError(f"solution for source function {np.argmax(bad)} "
                           f"blew up at time step {step} (t={step * dt:.4g})")


def _rows_by_step(jt: np.ndarray, nt: int) -> list[np.ndarray]:
    """For each time index 0..nt-1, the query rows that sample it."""
    order = np.argsort(jt, kind="stable")
    return np.split(order, np.cumsum(np.bincount(jt, minlength=nt))[:-1])


def _adr_at(config: AdrConfig, fs, fn, jx, jt) -> np.ndarray:
    """u at (x[jx[r]], t[jt[r]]) for the source fs[fn[r]], for every query row r.

    All sources (rows of fs) advance together as the rows of one C-ordered
    (num_sources, nx) state, so each stage is one multi-right-hand-side
    tridiagonal solve; only the queried nodes of each step are kept. The
    transpose of a stage's right-hand side is the Fortran-ordered array that
    LAPACK's ``dgtsv`` (the routine behind ``solve_banded((1, 1), ...)``)
    solves in place, with no copy and no input check, so a non-finite one
    reaches the blow-up check, which names the source and the step.
    """
    dgtsv = _flapack().dgtsv

    nx, nt = config.nx, config.nt
    dt = 1.0 / (nt - 1)
    r = config.r
    f_int = fs[:, 1:-1]

    # the bands of I - r*T with T the second-difference stencil; dgtsv takes
    # off-diagonals of length nx - 3, and at least 1 (unused when nx = 3)
    off = np.full(max(nx - 3, 1), -r)
    diag = np.full(nx - 2, 1.0 + 2.0 * r)

    def solve(rhs):
        x, info = dgtsv(off, diag, off, rhs.T, overwrite_b=True)[3:]
        if info != 0:
            raise NumericalError(f"tridiagonal solve failed (LAPACK dgtsv info {info})")
        return x.T

    rows = _rows_by_step(jt, nt)
    out = np.zeros(jt.size)
    cur = np.zeros((fs.shape[0], nx))
    for j in range(1, nt):
        ui = cur[:, 1:-1]
        lin = ui + r * (cur[:, :-2] - 2.0 * ui + cur[:, 2:])
        g0 = config.k * ui * ui + f_int
        pred = solve(lin + dt * g0)
        g1 = config.k * pred * pred + f_int
        new = solve(lin + 0.5 * dt * (g0 + g1))
        blown = ~np.all(np.abs(new) <= BLOWUP_LIMIT, axis=1)  # inf and nan fail <= too
        if blown.any():
            raise _blowup(blown, j, dt)
        cur[:, 1:-1] = new
        out[rows[j]] = cur[fn[rows[j]], jx[rows[j]]]
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
    (num_sources,) arrays per time step. A step whose angle or velocity is
    not finite for some source raises DivergenceError naming both.
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
        finite = np.isfinite(yy) & np.isfinite(vv)
        if not finite.all():
            raise _blowup(~finite, i + 1, h)
        out[rows[i + 1]] = yy[fn[rows[i + 1]]]
    return out


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

def sensor_indices(n_grid: int, sensor_count: int) -> np.ndarray:
    """sensor_count distinct, evenly spread indices into a grid of n_grid nodes."""
    check_number("sensor_count", sensor_count, ConfigurationError, count=True, at_least=1)
    if sensor_count > n_grid:
        raise ConfigurationError(f"cannot place {sensor_count} sensors on {n_grid} grid nodes")
    if sensor_count == 1:
        return np.array([0])
    return np.floor(np.linspace(0.0, n_grid - 1, sensor_count) + 0.5).astype(int)


def _assemble(grf, grids, solve, sensor_count, num_functions, points_per_function,
              noise_std, seed, generator, scale=1.0) -> Dataset:
    """Shared body of the dataset builders.

    A source is ``scale`` times a GRF draw on grids[0]; a query point is one
    node index per grid. Draws go function by function (source, node indices
    grid by grid, noise), so the stream does not depend on how ``solve``
    batches: ``solve(fs, fn, *nodes)`` gives every query row r its noise-free
    label, the solution for source fs[fn[r]] at node indices nodes[.][r].
    """
    check_number("noise_std", noise_std, ConfigurationError, finite=True, at_least=0)
    check_number("num_functions", num_functions, ConfigurationError, count=True, at_least=1)
    check_number("points_per_function", points_per_function, ConfigurationError, count=True,
                 at_least=1)
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
    source = np.arange(num_functions * per) // per
    y = solve(fs, source, *nodes) + noise_std * z.ravel()
    return Dataset(
        sensors=fs[:, idx],
        source=source,
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
    for name, value in (("k", pend_k), ("y0", y0), ("v0", v0), ("forcing_scale", forcing_scale)):
        check_number(f"pendulum {name}", value, ConfigurationError, finite=True)
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


def _column_texts(values: np.ndarray):
    """The ``repr`` of each value of a float64 column, in order, as an iterator;
    each bitwise-distinct value (so 0.0 and -0.0 apart) is formatted once."""
    keys, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = [repr(v) for v in keys.view(np.float64).tolist()]
    return map(texts.__getitem__, inverse.tolist())


def _non_finite_line(sensors, source, *columns) -> int | None:
    """The CSV line (the header is line 1) of the first triple holding a
    non-finite value in its sensors row or in any of columns, 2-d arrays
    with one row per triple; None when every value is finite."""
    ok = np.isfinite(sensors).all(axis=1)[source]
    for column in columns:
        ok &= np.isfinite(column).all(axis=1)
    return None if ok.all() else int(np.argmin(ok)) + 2


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Columns s_0..s_{m-1}, p_0..p_{d2-1}, y plus a metadata sidecar JSON.

    Every float is written as its ``repr`` and every line ends in ``\\r\\n``,
    as ``csv.writer`` would write them. Each ``sensors`` row (each is used,
    and distinct) and each bitwise-distinct value of a ``p`` column is
    formatted once (generated query points are grid nodes, so a ``p`` column
    holds few); labels are almost all distinct, so each is formatted as its
    line is written, and each line is joined from those texts. A
    non-finite value, which :func:`read_dataset_csv` would refuse, raises
    ``InputError`` naming its line before anything is written."""
    path = Path(path)
    line = _non_finite_line(dataset.sensors, dataset.source, dataset.p, dataset.y[:, None])
    if line is not None:
        raise InputError(f"{path}:{line}: non-finite value")
    header = (
        [f"s_{i}" for i in range(dataset.m)]
        + [f"p_{i}" for i in range(dataset.d2)]
        + ["y"]
    )
    s_texts = [",".join(map(repr, row)) for row in dataset.sensors.tolist()]
    columns = [map(s_texts.__getitem__, dataset.source.tolist())]
    columns += [_column_texts(dataset.p[:, i]) for i in range(dataset.d2)]
    columns.append(map(repr, dataset.y.tolist()))
    with atomic_path(path) as tmp, tmp.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for fields in zip(*columns):
            fh.write(",".join(fields) + "\r\n")
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
    and ``y`` fields (the line's end stays on ``y``, which ``float`` reads
    past); each distinct ``s`` text is split and parsed once, at its first
    line, and stored as one ``sensors`` row, so the rows come in order of
    first use however the lines are ordered. A line whose ``s`` text equals
    the previous line's takes that line's row without a lookup, so a run of
    one source function's lines hashes its text once. A file written by
    :func:`write_dataset_csv` thus reads back in the layout ``Dataset``
    keeps, as ``repr`` gives each distinct row a text of its own. A
    non-finite value is rejected naming its line."""
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
        rows, s_rows = {}, []  # rows: s text -> its sensors row
        labels, py_values = array("q"), array("d")  # 8 bytes a value, not a float object
        last = k = None  # the previous line's s text and its sensors row
        for ln, line in enumerate(fh, start=2):
            # the line's end stays on the y field, whose float() skips it
            text, *py = line.rsplit(",", d2 + 1)
            if text != last:
                k, last = rows.get(text), text
            if len(py) != d2 + 1 or (k is None and text.count(",") != m - 1):
                line = line.rstrip("\r\n")
                got = line.count(",") + 1 if line else 0
                raise FormatError(f"{path}:{ln}: expected {len(header)} columns, got {got}")
            try:
                if k is None:
                    s_rows.append(list(map(float, text.split(","))))
                    k = rows[text] = len(s_rows) - 1
                py_values.extend(map(float, py))
            except ValueError:
                # name the first field float() rejects, without the line's end
                for field in line.rstrip("\r\n").split(","):
                    try:
                        float(field)
                    except ValueError as exc:
                        raise FormatError(f"{path}:{ln}: non-numeric value ({exc})") from exc
            labels.append(k)
    sensors = np.array(s_rows, dtype=np.float64).reshape(len(s_rows), m)
    source = np.asarray(labels, dtype=np.intp)
    py = np.frombuffer(py_values).reshape(len(labels), d2 + 1)
    line = _non_finite_line(sensors, source, py)
    if line is not None:
        raise FormatError(f"{path}:{line}: non-finite value")
    p, y = py[:, :d2].copy(), py[:, d2].copy()

    sidecar = _sidecar_path(path)
    if sidecar.exists():
        meta = read_json_object(sidecar, "sidecar")
        if meta.pop("m", None) != m or meta.pop("d2", None) != d2:
            raise FormatError(f"sidecar {sidecar} disagrees with the CSV header")
        try:
            return Dataset(sensors=sensors, source=source, p=p, y=y, **meta)
        except (TypeError, ValueError) as exc:  # a missing or unknown key, or a bad value
            raise FormatError(f"sidecar {sidecar} does not describe a dataset: {exc}") from exc
    b = float(np.max(np.abs(y))) if y.size else 0.0
    return Dataset(sensors=sensors, source=source, p=p, y=y, B=b,
                   sensor_grid=np.full(m, np.nan))
