"""The import footprint: scipy is loaded by the ADR solver only, numpy.ma
(which np.unique imports for float keys or rows, at a cost in peak memory)
by none of the scipy-free runs, and each module uses every name it imports.

Each scipy case runs in a fresh interpreter, since this test process has
scipy loaded already (the reference solvers in test_datagen use it).
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import donlab
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


def _fresh_run(argv, child=_CLI) -> tuple[dict, str]:
    """Run `donlab.cli.main(argv)` (or only the imports, for an empty argv),
    or another child script, in a new interpreter. Returns its exit code and
    which of scipy, scipy.linalg and numpy.ma it loaded, and its standard
    error."""
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
}


@pytest.mark.parametrize("case", list(CASES))
def test_scipy_stays_unloaded(tmp_path, case):
    got, err = _fresh_run(CASES[case](tmp_path))
    assert got == {"rc": 0, "scipy": False, "scipy.linalg": False, "numpy.ma": False}, err


def test_shuffled_take_and_one_epoch_load_neither_scipy_nor_numpy_ma():
    got, err = _fresh_run([], child=_SHUFFLED_TAKE)
    assert got == {"rc": 0, "scipy": False, "scipy.linalg": False, "numpy.ma": False}, err


def test_adr_gen_data_loads_scipy_linalg(tmp_path):
    cfg = _write(tmp_path / "gen.json", {
        "kind": "adr", "sensor_count": 6, "num_functions": 2, "points_per_function": 10,
        "seed": 0, "out_name": "ds", "adr": {"nx": 11, "nt": 11},
        "grf": {"length_scale": 0.1},
    })
    got, err = _fresh_run(["gen-data", "--config", cfg, "--out-dir", tmp_path / "o"])
    del got["numpy.ma"]  # what scipy imports is scipy's affair
    assert got == {"rc": 0, "scipy": True, "scipy.linalg": True}, err
    assert (tmp_path / "o" / "ds.csv").exists()


@pytest.mark.parametrize("module", sorted(
    p.name for p in (SRC / "donlab").glob("*.py") if p.name != "__init__.py"))
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
