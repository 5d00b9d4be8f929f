"""The import footprint: scipy is loaded by the ADR solver only, and then
only top-level scipy and its LAPACK extension ``scipy.linalg._flapack``,
never ``scipy.linalg``; numpy.ma (which np.unique imports for float keys or
rows, at a cost in peak memory) is loaded by none of the scipy-free runs;
importing one module does not load the others; and each module uses every
name it imports.

Each scipy case runs in a fresh interpreter, since this test process has
``scipy.linalg`` loaded already (the reference solvers in test_datagen use
it), so here the ADR solver never loads its extension from file.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import scipy

import numpy as np
import pytest

import donlab
from donlab import datagen
from donlab.datagen import write_dataset_csv
from donlab.deeponet import Dataset

SRC = Path(donlab.__file__).resolve().parent.parent
PLANS = Path(__file__).resolve().parent.parent / "plans"

_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
"""
_REPORT = """
print(json.dumps({"rc": rc, "scipy": "scipy" in sys.modules,
                  "scipy.linalg": "scipy.linalg" in sys.modules,
                  "scipy.linalg._flapack": "scipy.linalg._flapack" in sys.modules,
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""
_CLI = _START + """
import donlab, donlab.cli
argv = json.loads(sys.argv[2])
rc = donlab.cli.main(argv) if argv else 0
""" + _REPORT
# a Dataset built through a shuffled take (6 rows of 4 triples each, the
# labels out of runs), then one epoch of training with its epoch-end risk
_SHUFFLED_TAKE = _START + """
import numpy as np
from donlab import scaling
from donlab.deeponet import Dataset, init_model
rng = np.random.default_rng(0)
ds = Dataset(sensors=rng.standard_normal((6, 4)), source=np.arange(24) // 4,
             p=rng.random((24, 2)), y=rng.uniform(-1.0, 1.0, 24), B=1.0,
             sensor_grid=np.linspace(0, 1, 4)).take(rng.permutation(24))
model = init_model(4, 2, 2, 4, 2, 0, "relu", "linear", "he")
curve = scaling.train_deeponet(model, ds, 1, 8, seed=0)[3]
rc = 0 if len(curve) == 1 and ds.sensors.shape[0] == 6 else 1
""" + _REPORT
# the first ADR solve loads the extension; scipy.linalg imported after it
# reuses that module object, and its banded solver still works
_ADR_THEN_LINALG = _START + """
import numpy as np
from donlab import datagen
datagen.solve_adr(np.zeros(11), datagen.AdrConfig(nx=11, nt=11))
used = datagen._flapack()
import scipy.linalg, scipy.linalg.lapack
x = scipy.linalg.solve_banded((1, 1), np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0],
                                                [1.0, 1.0, 0.0]]), np.array([5.0, 6.0, 5.0]))
rc = 0 if (scipy.linalg.lapack._flapack is used and scipy.linalg.lapack.dgtsv is used.dgtsv
           and np.array_equal(x, [1.0, 1.0, 1.0])) else 1
""" + _REPORT
# scipy.linalg imported first: the loader hands back its module, loading no second one
_LINALG_THEN_ADR = _START + """
import numpy as np
import scipy.linalg.lapack
from donlab import datagen
datagen.solve_adr(np.zeros(11), datagen.AdrConfig(nx=11, nt=11))
rc = 0 if datagen._flapack() is scipy.linalg.lapack._flapack else 1
""" + _REPORT
# the golden "negative-k" ADR dataset of test_datagen.TestGoldenDatasets,
# built with the extension loaded from file
_GOLDEN_ADR = _START + """
import hashlib
import numpy as np
from donlab import datagen
adr = datagen.AdrConfig(D=0.05, k=-0.5, nx=31, nt=26)
ds = datagen.build_adr_dataset(datagen.GrfConfig(grid=adr.x_grid, length_scale=0.1), adr,
                               sensor_count=7, num_functions=5, points_per_function=13,
                               noise_std=0.0, seed=7)
h = hashlib.sha256()
for a in (ds.s, ds.p, ds.y):
    h.update(np.ascontiguousarray(a).tobytes())
rc = 0 if h.hexdigest() == (
    "1b7c6f497209d8a7926ed3584d55a9680e14253bee0560dfb8151ae7fa4b0fb2") else 1
""" + _REPORT
# two threads make the process's first loads and ADR solves at once, switching
# often: each thread's own first load must return the one module object that
# sys.modules keeps, and each solve the serial result, bit for bit
_THREADED_FIRST_SOLVES = _START + """
import threading
import numpy as np
from donlab import datagen
sys.setswitchinterval(1e-6)
cfg = datagen.AdrConfig(nx=41, nt=41)
fs = [np.sin(np.pi * (i + 1) * cfg.x_grid) for i in range(2)]
barrier, got, modules = threading.Barrier(2, timeout=60), {}, {}
def first_solve(i):
    barrier.wait()
    modules[i] = datagen._flapack()
    got[i] = datagen.solve_adr(fs[i], cfg)
threads = [threading.Thread(target=first_solve, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
serial = [datagen.solve_adr(f, cfg) for f in fs]
rc = 0 if (not any(t.is_alive() for t in threads) and len(got) == 2
           and modules[0] is modules[1] is sys.modules["scipy.linalg._flapack"]
           and all(got[i].tobytes() == serial[i].tobytes() for i in range(2))) else 1
""" + _REPORT

# the package exports nothing, so importing one module loads only what it imports
_NN_ALONE = _START + """
import donlab.nn
print(json.dumps([name for name in ("donlab.scaling", "donlab.bounds", "concurrent.futures")
                  if name in sys.modules]))
"""
# donlab.cli imports every module; the thread pool, and what it imports, are
# loaded only by a run that uses the pool
_POOL_LOADED_BY_ITS_RUN = _START + """
import donlab.cli
names = ("concurrent.futures", "logging", "queue", "csv", "uuid")
imported = [name for name in names if name in sys.modules]
rc = donlab.cli.main(json.loads(sys.argv[2]))
print(json.dumps({"rc": rc, "imported": imported,
                  "concurrent.futures": "concurrent.futures" in sys.modules}))
"""


def _fresh_run(argv, child=_CLI) -> tuple[dict, str]:
    """Run `donlab.cli.main(argv)` (or only the imports, for an empty argv),
    or another child script, in a new interpreter. Returns its exit code and
    which of scipy, scipy.linalg, scipy.linalg._flapack and numpy.ma it
    loaded, and its standard error."""
    proc = subprocess.run(
        [sys.executable, "-c", child, str(SRC), json.dumps([str(a) for a in argv])],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return path


def _hand_made_csv(tmp_path, shuffled=False):
    """24 triples, each with its own sensors row, or (shuffled) 6 sensors rows
    of 4 triples each in random order, so equal s texts are not adjacent."""
    rng = np.random.default_rng(0)
    source = rng.permutation(np.arange(24) // 4) if shuffled else np.arange(24)
    ds = Dataset(sensors=rng.standard_normal((24, 4)), source=source,
                 p=rng.random((24, 2)),
                 y=rng.uniform(-1.0, 1.0, 24), B=1.0, sensor_grid=np.linspace(0, 1, 4))
    path = tmp_path / "hand.csv"
    write_dataset_csv(ds, path)
    return path


def _train_csv(tmp, shuffled):
    return ["train", "--config", _write(tmp / "t.json", {
        "dataset": str(_hand_made_csv(tmp, shuffled)), "q": 2, "width": 4, "depth": 2,
        "epochs": 2, "batch_size": 8}), "--out-dir", tmp / "o"]


def _bound_cfg(tmp_path, variant):
    return _write(tmp_path / f"{variant}.json", {
        "variant": variant, "n": 1000, "epsilon": 0.5, "delta": 0.2, "label_bound": 1.5,
        "sigma2": 1.0, "j": 2.0, "alpha": 0.3,
        "class": {"d_b": 50, "d_t": 40, "w_b": 2.0, "w_t": 2.0, "q": 4, "c": 1.0},
    })


CASES = {
    "import": lambda tmp: [],
    "verify": lambda tmp: ["verify", "--config", _write(tmp / "v.json", {
        "gradient_models": 1, "perturbation_trials": 20, "cover_probes": 50,
        "hoeffding_trials": 50}), "--out-dir", tmp / "o"],
    "bound-general": lambda tmp: ["bound", "--config", _bound_cfg(tmp, "general"),
                                  "--out-dir", tmp / "o"],
    "bound-sigmoid": lambda tmp: ["bound", "--config", _bound_cfg(tmp, "sigmoid"),
                                  "--out-dir", tmp / "o"],
    "train-csv": lambda tmp: _train_csv(tmp, shuffled=False),
    "train-shuffled-csv": lambda tmp: _train_csv(tmp, shuffled=True),
    "experiment-dry-run": lambda tmp: ["experiment", "--config", PLANS / "quadratic-data.json",
                                       "--out-dir", tmp / "o", "--dry-run"],
    "gen-data-pendulum": lambda tmp: ["gen-data", "--config", _write(tmp / "gen.json", {
        "kind": "pendulum", "sensor_count": 6, "num_functions": 2, "points_per_function": 10,
        "seed": 0, "out_name": "ds", "pendulum": {"nt": 11}, "grf": {"length_scale": 0.1},
    }), "--out-dir", tmp / "o"],
}
UNLOADED = {"rc": 0, "scipy": False, "scipy.linalg": False, "scipy.linalg._flapack": False,
            "numpy.ma": False}
# what the ADR solver loads: top-level scipy and its LAPACK extension only
LAPACK_ALONE = {"rc": 0, "scipy": True, "scipy.linalg": False, "scipy.linalg._flapack": True}


@pytest.mark.parametrize("case", list(CASES))
def test_scipy_stays_unloaded(tmp_path, case):
    got, err = _fresh_run(CASES[case](tmp_path))
    assert got == UNLOADED, err


def test_shuffled_take_and_one_epoch_load_neither_scipy_nor_numpy_ma():
    got, err = _fresh_run([], child=_SHUFFLED_TAKE)
    assert got == UNLOADED, err


# each ADR run, and the file it must write
ADR_CASES = {
    "gen-data": ("ds.csv", lambda tmp: ["gen-data", "--config", _write(tmp / "gen.json", {
        "kind": "adr", "sensor_count": 6, "num_functions": 2, "points_per_function": 10,
        "seed": 0, "out_name": "ds", "adr": {"nx": 11, "nt": 11},
        "grf": {"length_scale": 0.1},
    }), "--out-dir", tmp / "o"]),
    "experiment": ("summary.csv", lambda tmp: ["experiment", "--config", _write(tmp / "plan.json", {
        "exponent": 0.5, "anchor": [2, 40], "q_list": [2, 3], "branch_in": 6,
        "target_params": 340, "param_tolerance": 0.2, "epochs": 1, "batch_size": 16, "seeds": [0],
        "adr": {"nx": 11, "nt": 11}, "grf_length_scale": 0.1, "points_per_function": 10,
    }), "--out-dir", tmp / "o"]),
}


@pytest.mark.parametrize("case", list(ADR_CASES))
def test_adr_runs_load_lapack_alone(tmp_path, case):
    written, argv = ADR_CASES[case]
    got, err = _fresh_run(argv(tmp_path))
    del got["numpy.ma"]  # what scipy imports is scipy's affair
    assert got == LAPACK_ALONE, err
    assert (tmp_path / "o" / written).exists()


@pytest.mark.parametrize("child, loaded", [
    (_ADR_THEN_LINALG, {**LAPACK_ALONE, "scipy.linalg": True}),
    (_LINALG_THEN_ADR, {**LAPACK_ALONE, "scipy.linalg": True}),
    (_GOLDEN_ADR, LAPACK_ALONE),
    (_THREADED_FIRST_SOLVES, LAPACK_ALONE),
], ids=["adr-then-linalg", "linalg-then-adr", "golden-adr-digest", "threaded-first-solves"])
def test_lapack_loaded_alone_is_scipy_linalgs_own(child, loaded):
    got, err = _fresh_run([], child=child)
    del got["numpy.ma"]
    assert got == loaded, err


def test_missing_lapack_extension_is_an_import_error_naming_its_folder(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    folder = re.escape(str(tmp_path / "scipy" / "linalg"))
    with pytest.raises(ImportError, match=f"not found in {folder}$"):
        datagen._flapack()


def test_importing_nn_loads_neither_its_siblings_nor_their_imports():
    got, err = _fresh_run([], child=_NN_ALONE)
    assert got == [], err


def test_imports_load_no_thread_pool_csv_or_uuid_and_verify_loads_the_pool(tmp_path):
    got, err = _fresh_run(CASES["verify"](tmp_path), child=_POOL_LOADED_BY_ITS_RUN)
    assert got == {"rc": 0, "imported": [], "concurrent.futures": True}, err


@pytest.mark.parametrize("module", sorted(p.name for p in (SRC / "donlab").glob("*.py")))
def test_every_imported_name_is_used(module):
    tree = ast.parse((SRC / "donlab" / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
