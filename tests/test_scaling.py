import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from donlab import datagen, nn, scaling
from donlab.datagen import AdrConfig
from donlab.deeponet import Dataset, DeepONetModel, empirical_risk, init_model
from donlab.errors import ConfigurationError, InputError
from donlab.scaling import (
    CellResult,
    ExperimentPlan,
    PlannedCell,
    SuiteResult,
    architecture_params,
    check_monotonic,
    emit_plot_data,
    make_plan,
    plan_cells,
    run_cell,
    run_suite,
    size_architecture,
    train_deeponet,
)

# the reference (q, n) grids: one table per fixed-ratio family, as
# (anchor, exponent, rows); the first row of the 2/3 family was pinned to
# the 1/2 family's starting n rather than the ratio value
TABLE_HALF = ((5, 10000), 0.5,
              [(5, 10000), (10, 40000), (15, 90000),
               (40, 640000), (45, 810000), (50, 1000000)])
TABLE_TWO_THIRDS = ((10, 31623), 2.0 / 3.0,
                    [(10, 31623), (15, 58000), (40, 252982),
                     (45, 301870), (50, 353553)])
TABLE_SIXTH = ((6, 11650), 1.0 / 6.0,
               [(6, 11650), (8, 65511), (10, 249906), (12, 746215)])
REFERENCE_PARAM_COUNTS = {
    5: 18010, 6: 18112, 8: 18316, 10: 18520, 12: 18724,
    15: 18568, 40: 18719, 45: 18714, 50: 18760,
}


def _tiny_plan(**overrides) -> ExperimentPlan:
    kw = dict(
        exponent=0.5, anchor_q=2, anchor_n=300, q_list=[2, 3],
        target_params=700, depth=3, branch_in=10,
        epochs=3, batch_size=64, seeds=[0],
        adr=AdrConfig(0.01, 0.01, 21, 21),
        grf_length_scale=0.05, points_per_function=50,
        param_tolerance=0.2,
    )
    kw.update(overrides)
    return ExperimentPlan(**kw)


class TestMakePlan:
    @pytest.mark.parametrize("anchor,exponent,rows",
                             [TABLE_HALF, TABLE_TWO_THIRDS, TABLE_SIXTH])
    def test_reproduces_reference_grids(self, anchor, exponent, rows):
        got = dict(make_plan(anchor, [q for q, _ in rows], exponent))
        for q, n in rows:
            assert abs(got[q] - n) <= 0.01 * n

    def test_half_exponent_hand_values(self):
        got = make_plan((5, 10000), list(range(10, 55, 5)), 0.5)
        assert got[0] == (10, 40000)
        assert got[1] == (15, 90000)
        assert got[-1] == (50, 1000000)

    def test_bad_anchor_rejected(self):
        with pytest.raises(Exception):
            make_plan((0, 100), [1], 0.5)

    @pytest.mark.parametrize("anchor, exponent, message", [
        ((True, 4000), 0.5, "anchor q0 must be an int >= 1, got True"),
        ((4, 4000.0), 0.5, "anchor n0 must be an int >= 1, got 4000.0"),
        ((4, 0), 0.5, "anchor n0 must be an int >= 1, got 0"),
        ((4, 4000), math.nan, "exponent must be a number > 0, got nan"),
        ((4, 4000), True, "exponent must be a number > 0, got True"),
        ((4, 4000), 0.0, "exponent must be a number > 0, got 0.0"),
        ((4, 4000), 1e-4, "n at q=8 overflows a float at exponent 0.0001"),
    ])
    def test_bool_nan_or_out_of_range_rejected(self, anchor, exponent, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            make_plan(anchor, [4, 8], exponent)

    @pytest.mark.parametrize("q_list, message", [
        ([-8, 4], "q_list[0] must be an int >= 1, got -8"),
        ([4, 0], "q_list[1] must be an int >= 1, got 0"),
        ([4, 8.0], "q_list[1] must be an int >= 1, got 8.0"),
    ])
    def test_q_list_entries_are_ints_at_least_one(self, q_list, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            make_plan((4, 4000), q_list, 2.0 / 3.0)


class TestSizeArchitecture:
    def test_counting_convention_matches_nn(self):
        for q, w, depth, b_in, t_in in [(5, 50, 5, 40, 2), (3, 7, 3, 10, 2)]:
            dims_b = tuple([b_in] + [w] * (depth - 1) + [q])
            dims_t = tuple([t_in] + [w] * (depth - 1) + [q])
            total = nn.param_count(nn.MlpSpec(dims_b)) + nn.param_count(nn.MlpSpec(dims_t))
            assert architecture_params(w, q, depth, b_in, t_in) == total

    def test_reference_budget_hit_exactly_at_q5(self):
        w = size_architecture(18010, 5)
        assert w == 50
        assert architecture_params(50, 5) == 18010

    def test_all_reference_counts_within_five_percent(self):
        for q, reference in REFERENCE_PARAM_COUNTS.items():
            w = size_architecture(18010, q)
            count = architecture_params(w, q)
            assert abs(count - 18010) <= 0.05 * 18010
            assert abs(count - reference) <= 0.05 * reference

    def test_width_monotone_in_target(self):
        widths = [size_architecture(t, 8) for t in (2000, 4000, 8000, 16000)]
        assert all(b > a for a, b in zip(widths, widths[1:]))

    @pytest.mark.parametrize("target", [700, 8000, 18010, 123457, 10**400])
    @pytest.mark.parametrize("q, depth, branch_in", [(1, 2, 10), (8, 3, 40), (55, 7, 10)])
    def test_width_is_the_best_integer_at_any_target(self, target, q, depth, branch_in):
        # the root is taken in integers, so a target beyond float range still sizes
        w = size_architecture(target, q, depth, branch_in)
        miss = [abs(architecture_params(v, q, depth, branch_in) - target)
                for v in (w - 1, w, w + 1)]
        assert miss[1] < miss[0] and miss[1] <= miss[2]

    def test_infeasible_target_rejected(self):
        with pytest.raises(ConfigurationError):
            size_architecture(10, 4)

    @pytest.mark.parametrize("args, message", [
        ((8000, True), "q must be an int >= 1, got True"),
        ((8000, 0), "q must be an int >= 1, got 0"),
        ((8000, math.nan), "q must be an int >= 1, got nan"),
        ((True, 8), "target_params must be an int >= 1, got True"),
        ((8000.0, 8), "target_params must be an int >= 1, got 8000.0"),
        ((8000, 8, 1), "depth must be an int >= 2, got 1"),
        ((8000, 8, True), "depth must be an int >= 2, got True"),
    ])
    def test_bool_nan_or_out_of_range_rejected(self, args, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            size_architecture(*args)


def test_plan_to_dict_is_golden():
    # the dict, key order included, is what suite-summary.json records
    plan = _tiny_plan(adr=AdrConfig(D=0.02, k=-0.5, nx=31, nt=41), seeds=[4, 2])
    got = plan.to_dict()
    assert got == {
        "exponent": 0.5, "anchor_q": 2, "anchor_n": 300, "q_list": [2, 3],
        "target_params": 700, "depth": 3, "branch_in": 10,
        "epochs": 3, "batch_size": 64, "seeds": [4, 2],
        "adr": {"D": 0.02, "k": -0.5, "nx": 31, "nt": 41},
        "grf_length_scale": 0.05, "grf_jitter": 1e-10, "noise_std": 0.0,
        "points_per_function": 50, "hidden_activation": "relu",
        "output_activation": "tanh", "lr": 0.001, "param_tolerance": 0.2,
    }
    assert list(got) == [
        "exponent", "anchor_q", "anchor_n", "q_list", "target_params", "depth",
        "branch_in", "epochs", "batch_size", "seeds", "adr",
        "grf_length_scale", "grf_jitter", "noise_std", "points_per_function",
        "hidden_activation", "output_activation", "lr", "param_tolerance",
    ]
    assert list(got["adr"]) == ["D", "k", "nx", "nt"]
    assert ExperimentPlan.from_dict(got) == plan


def test_trunk_in_is_fixed_not_a_field():
    # plans build ADR data, whose query points are (x, t)
    plan = _tiny_plan()
    assert plan.trunk_in == 2
    assert "trunk_in" not in {f.name for f in dataclasses.fields(ExperimentPlan)}
    with pytest.raises(TypeError, match="unexpected keyword argument 'trunk_in'"):
        ExperimentPlan.from_dict(dict(plan.to_dict(), trunk_in=2))


@pytest.mark.parametrize("seeds", [[], [0, 0], [1, 0, 1]])
def test_plan_rejects_empty_or_repeated_seeds(seeds):
    d = _tiny_plan().to_dict()
    d["seeds"] = seeds
    with pytest.raises(ConfigurationError, match="seeds must be non-empty and distinct"):
        ExperimentPlan.from_dict(d)


class TestPlanCells:
    def test_param_budget_enforced(self):
        cells = plan_cells(_tiny_plan())
        for cell in cells:
            assert abs(cell.param_count - 700) <= 0.2 * 700

    def test_n_strictly_increasing_required(self):
        plan = _tiny_plan()
        plan.q_list = [2, 2]
        with pytest.raises(ConfigurationError):
            plan_cells(plan)


class TestCellResult:
    def _cell(self, **kw):
        return CellResult(q=2, n=200, width=4, param_count=700, seed=0, wall_time=0.0, **kw)

    def test_error_marks_failed_with_nan_losses(self):
        res = self._cell(loss_curve=[], error="RuntimeError: injected")
        assert res.failed
        assert math.isnan(res.best_loss) and math.isnan(res.final_loss)

    def test_losses_are_read_off_the_curve(self):
        res = self._cell(loss_curve=[3.0, 1.0, 2.0])
        assert not res.failed
        assert (res.best_loss, res.final_loss) == (1.0, 2.0)

    def test_derived_values_are_not_fields(self):
        names = {f.name for f in dataclasses.fields(CellResult)}
        assert names == {"q", "n", "width", "param_count", "seed", "loss_curve",
                         "wall_time", "error"}


class TestRunCell:
    def test_zero_epochs_sentinel(self):
        plan = _tiny_plan(epochs=0)
        cell = plan_cells(plan)[0]
        res = run_cell(cell, plan, seed=0)
        assert res.loss_curve == []
        assert math.isnan(res.final_loss) and math.isnan(res.best_loss)
        assert not res.failed

    def test_deterministic_in_seed(self):
        plan = _tiny_plan()
        cell = plan_cells(plan)[0]
        a = run_cell(cell, plan, seed=3)
        b = run_cell(cell, plan, seed=3)
        assert a.loss_curve == b.loss_curve
        c = run_cell(cell, plan, seed=4)
        assert c.loss_curve != a.loss_curve

    def test_training_reduces_loss(self):
        plan = _tiny_plan(epochs=25, q_list=[3], anchor_q=3, anchor_n=1000)
        cell = plan_cells(plan)[0]
        res = run_cell(cell, plan, seed=1)
        assert res.best_loss < res.loss_curve[0]
        assert res.best_loss == min(res.loss_curve)
        assert len(res.loss_curve) == 25

    def test_solver_divergence_marks_cell_failed(self):
        plan = _tiny_plan(adr=AdrConfig(D=0.0, k=200.0, nx=21, nt=101))
        cell = plan_cells(plan)[0]
        res = run_cell(cell, plan, seed=0)
        assert res.failed
        assert "DivergenceError" in res.error


@pytest.mark.parametrize("lr", [-1.0, 0.0, math.nan, math.inf, "0.01"])
def test_plan_rejects_bad_lr(lr):
    with pytest.raises(ConfigurationError, match=f"lr must be a finite number > 0, got {lr!r}"):
        _tiny_plan(lr=lr)


class TestSuite:
    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(InputError, match=f"max_workers must be an int >= 1, got {workers}"):
            run_suite(_tiny_plan(), max_workers=workers)

    def test_runs_all_cells_and_is_deterministic(self):
        plan = _tiny_plan(seeds=[0, 1])
        a = run_suite(plan)
        b = run_suite(plan)
        assert len(a.cells) == 4  # 2 q's x 2 seeds
        assert [c.loss_curve for c in a.cells] == [c.loss_curve for c in b.cells]

    def test_one_diverging_source_fails_only_its_cell(self):
        # near-constant sources, D = 0, k = 2: for data seed 2 one of the six
        # sources of the q=2 cell blows up, and none of the q=3 cell's fourteen
        plan = _tiny_plan(adr=AdrConfig(D=0.0, k=2.0, nx=21, nt=101),
                          grf_length_scale=1.0, seeds=[2], epochs=1)
        suite = run_suite(plan)
        failed, ok = suite.cells
        assert (failed.q, ok.q) == (2, 3)
        assert failed.failed and not ok.failed
        assert failed.error.startswith("DivergenceError: solution for source function 3 ")
        assert math.isfinite(ok.final_loss)
        assert check_monotonic(suite)["per_seed"]["2"]["excluded_failed_qs"] == [2]

    def test_failures_do_not_abort(self, monkeypatch):
        plan = _tiny_plan(seeds=[0])
        real_run_cell = scaling.run_cell

        def flaky(cell, plan_, seed):
            if cell.q == 3:
                return CellResult(
                    q=cell.q, n=cell.n, width=cell.width,
                    param_count=cell.param_count, seed=seed, loss_curve=[],
                    wall_time=0.0, error="RuntimeError: injected",
                )
            return real_run_cell(cell, plan_, seed)

        monkeypatch.setattr(scaling, "run_cell", flaky)
        suite = run_suite(plan)
        assert len(suite.failures) == 1
        verdict = check_monotonic(suite)
        assert verdict["per_seed"]["0"]["excluded_failed_qs"] == [3]
        assert verdict["per_seed"]["0"]["qs"] == [2]

    def test_threaded_matches_serial(self, monkeypatch):
        # record each cell's final parameters too: the nets' working buffers
        # must stay private to each call when cells train concurrently
        finals = {}
        real_train = scaling.train_deeponet

        def recording_train(model, dataset, epochs, batch_size, seed, **kwargs):
            out = real_train(model, dataset, epochs, batch_size, seed, **kwargs)
            finals[(model.q, dataset.n, seed)] = np.concatenate(
                [out[0].branch.flat, out[0].trunk.flat])
            return out

        monkeypatch.setattr(scaling, "train_deeponet", recording_train)
        plan = _tiny_plan(seeds=[0, 1])
        serial = run_suite(plan, max_workers=1)
        serial_finals, finals = finals, {}
        threaded = run_suite(plan, max_workers=4)
        assert [c.loss_curve for c in serial.cells] == [c.loss_curve for c in threaded.cells]
        assert len(serial_finals) == 4 and serial_finals.keys() == finals.keys()
        for key, flat in serial_finals.items():
            assert np.array_equal(flat, finals[key])


def _golden_run(hidden: str, output: str) -> str:
    """SHA-256 of the final branch+trunk flats and loss curve of a tiny run."""
    rng = np.random.default_rng(11)
    n, m, d2, q, width = 150, 6, 2, 3, 7
    y = np.tanh(rng.standard_normal(n))
    ds = Dataset(sensors=rng.uniform(-1, 1, (n, m)), source=np.arange(n),
                 p=rng.uniform(0, 1, (n, d2)), y=y,
                 B=float(np.max(np.abs(y))), sensor_grid=np.linspace(0, 1, m))
    common = dict(hidden_activation=hidden, output_activation=output)
    model = DeepONetModel(
        nn.init_mlp(nn.MlpSpec((m, width, width, q), **common), seed=[5, 1]),
        nn.init_mlp(nn.MlpSpec((d2, width, width, q), **common), seed=[5, 2]),
    )
    trained, _, _, curve = train_deeponet(model, ds, epochs=4, batch_size=32, seed=5, lr=0.01)
    h = hashlib.sha256()
    h.update(trained.branch.flat.tobytes())
    h.update(trained.trunk.flat.tobytes())
    h.update(np.asarray(curve, dtype=np.float64).tobytes())
    return h.hexdigest()


# Recorded with the two-pass forward/backward that one-pass reverse mode replaced:
# a change to the floating-point operations of training shows up here.
@pytest.mark.parametrize("hidden,output,digest", [
    ("relu", "tanh", "d52ca34f9d544160e3b34fc545b465745679d646c504d3a5da0ef0f3cde00316"),
    ("tanh", "sigmoid", "c021348bebedb886fabdf1d551aff64cdd86d12c7b83c75731ea17556ea4c821"),
])
def test_golden_training_trajectory(hidden, output, digest):
    assert _golden_run(hidden, output) == digest


def _suite_with_losses(rows) -> SuiteResult:
    plan = _tiny_plan(seeds=sorted({seed for _, seed, _ in rows}))
    plan.q_list = sorted({q for q, _, _ in rows})
    cells = [
        CellResult(q=q, n=100 * q, width=4, param_count=700, seed=seed,
                   loss_curve=[loss + 0.1, loss], wall_time=0.0)
        for q, seed, loss in rows
    ]
    return SuiteResult(plan=plan, cells=cells)


class TestCheckMonotonic:
    def test_single_cell_is_trivially_monotone(self):
        suite = _suite_with_losses([(2, 0, 0.5)])
        assert check_monotonic(suite)["majority_monotone"]

    def test_constant_losses_count_as_monotone(self):
        suite = _suite_with_losses([(2, 0, 0.5), (3, 0, 0.5)])
        assert check_monotonic(suite)["majority_monotone"]

    def test_increase_breaks_monotonicity(self):
        suite = _suite_with_losses([(2, 0, 0.5), (3, 0, 0.7)])
        verdict = check_monotonic(suite)
        assert not verdict["majority_monotone"]

    def test_majority_across_seeds(self):
        suite = _suite_with_losses([
            (2, 0, 0.5), (3, 0, 0.4),
            (2, 1, 0.5), (3, 1, 0.3),
            (2, 2, 0.5), (3, 2, 0.9),
        ])
        verdict = check_monotonic(suite)
        assert verdict["majority_monotone"]
        assert verdict["seeds_counted"] == 3


class TestEmitPlotData:
    def test_row_counts(self, tmp_path):
        plan = _tiny_plan(epochs=4, seeds=[0, 1])
        suite = run_suite(plan)
        curves, summary = emit_plot_data(suite, tmp_path)
        curve_rows = curves.read_text().strip().splitlines()
        assert len(curve_rows) == 1 + 2 * 2 * 4  # header + cells x seeds x epochs
        summary_rows = summary.read_text().strip().splitlines()
        assert len(summary_rows) == 1 + 4

    def test_reemission_byte_identical(self, tmp_path):
        plan = _tiny_plan(epochs=2)
        suite = run_suite(plan)
        emit_plot_data(suite, tmp_path / "a")
        emit_plot_data(suite, tmp_path / "b")
        assert (tmp_path / "a" / "curves.csv").read_bytes() == \
               (tmp_path / "b" / "curves.csv").read_bytes()
        assert (tmp_path / "a" / "summary.csv").read_bytes() == \
               (tmp_path / "b" / "summary.csv").read_bytes()

    def test_interrupted_emit_keeps_previous_files(self, tmp_path, fail_writes_after):
        emit_plot_data(run_suite(_tiny_plan(epochs=2)), tmp_path)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        suite = run_suite(_tiny_plan(epochs=3))
        fail_writes_after(3)
        with pytest.raises(OSError, match="disk full"):
            emit_plot_data(suite, tmp_path)  # fails inside curves.csv
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
        fail_writes_after(1 + 2 * 3 + 1)  # curves.csv (7 rows) completes, summary.csv fails
        with pytest.raises(OSError, match="disk full"):
            emit_plot_data(suite, tmp_path)
        after = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        assert sorted(after) == ["curves.csv", "summary.csv"]
        assert after["summary.csv"] == before["summary.csv"]

    def test_empty_suite_header_only(self, tmp_path):
        suite = SuiteResult(plan=_tiny_plan(), cells=[])
        curves, summary = emit_plot_data(suite, tmp_path)
        assert curves.read_text().strip().splitlines() == ["q,n,seed,epoch,loss"]
        assert summary.read_text().strip().splitlines() == ["q,n,seed,best_loss,final_loss"]


class TestWeightBallTraining:
    def test_norms_stay_inside_the_ball(self, rng):
        from conftest import random_dataset, random_model
        from donlab.scaling import train_deeponet

        model = random_model(rng, q=2, width=4)
        ds = random_dataset(rng, n=40)
        radius = 0.8 * min(nn.param_l2_norm(model.branch),
                           nn.param_l2_norm(model.trunk))
        trained, _, _, _ = train_deeponet(model, ds, 4, 16, seed=0,
                                          weight_ball=radius)
        assert nn.param_l2_norm(trained.branch) <= radius + 1e-12
        assert nn.param_l2_norm(trained.trunk) <= radius + 1e-12

    def test_unconstrained_by_default(self, rng):
        from conftest import random_dataset, random_model
        from donlab.scaling import train_deeponet

        model = random_model(rng, q=2, width=4)
        ds = random_dataset(rng, n=40)
        trained, _, _, curve_free = train_deeponet(model, ds, 4, 16, seed=0)
        _, _, _, curve_ball = train_deeponet(model, ds, 4, 16, seed=0,
                                             weight_ball=1e9)
        assert curve_free == curve_ball  # huge ball never binds

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
    def test_bad_ball_rejected_before_training(self, rng, radius):
        from conftest import random_dataset, random_model
        from donlab.scaling import train_deeponet

        message = f"weight_ball must be a finite number > 0, got {radius}"
        with pytest.raises(InputError, match=message):
            train_deeponet(random_model(rng), random_dataset(rng), 0, 16, seed=0,
                           weight_ball=radius)


@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("seed", True), ("seed", 1.0), ("start_epoch", -1), ("start_epoch", 2.0),
])
def test_train_rejects_bad_seed_or_start_epoch_naming_it(rng, key, value):
    from conftest import random_dataset, random_model

    kwargs = dict({"seed": 0, "start_epoch": 0}, **{key: value})
    with pytest.raises(InputError, match=f"^{key} must be an int >= 0, got {value!r}$"):
        train_deeponet(random_model(rng), random_dataset(rng), 1, 16, **kwargs)


class TestTrainResume:
    def test_split_training_equals_uninterrupted(self, rng):
        from conftest import random_dataset, random_model
        from donlab.scaling import train_deeponet

        model = random_model(rng, q=2, width=4)
        ds = random_dataset(rng, n=40)
        m_full, _, _, curve_full = train_deeponet(model, ds, 6, 16, seed=5)
        m_half, ab, at, curve_a = train_deeponet(model, ds, 3, 16, seed=5)
        m_resumed, _, _, curve_b = train_deeponet(
            m_half, ds, 3, 16, seed=5, adam_branch=ab, adam_trunk=at, start_epoch=3
        )
        assert curve_a + curve_b == curve_full
        assert np.array_equal(m_resumed.branch.flat, m_full.branch.flat)
        assert np.array_equal(m_resumed.trunk.flat, m_full.trunk.flat)


def _per_net_training(model, ds, epochs, batch_size, seed, lr, weight_ball):
    """train_deeponet as one pass and one chain of Adam updates per net, with
    the projection and the epoch-end risk per net: the joint step's reference."""
    from conftest import per_net_loss_grads

    branch, trunk = model.branch, model.trunk
    ab, at = nn.adam_init(branch.flat.size, lr=lr), nn.adam_init(trunk.flat.size, lr=lr)
    curve = []
    for epoch in range(epochs):
        perm = np.random.default_rng([seed, epoch]).permutation(ds.n)
        for lo in range(0, ds.n, batch_size):
            idx = perm[lo:lo + batch_size]
            gb, gt, _ = per_net_loss_grads(DeepONetModel(branch, trunk),
                                           ds.s[idx], ds.p[idx], ds.y[idx])
            ab, flat_b = nn._adam_update(ab, branch.flat, gb)
            at, flat_t = nn._adam_update(at, trunk.flat, gt)
            branch, trunk = nn.MlpParams(branch.spec, flat_b), nn.MlpParams(trunk.spec, flat_t)
            if weight_ball is not None:
                branch = nn.project_to_ball(branch, weight_ball)
                trunk = nn.project_to_ball(trunk, weight_ball)
        curve.append(empirical_risk(DeepONetModel(branch, trunk), ds))
    return DeepONetModel(branch, trunk), ab, at, curve


class TestJointTraining:
    @pytest.mark.parametrize("hidden,output", [("relu", "tanh"), ("tanh", "sigmoid")])
    @pytest.mark.parametrize("weight_ball", [None, 2.5])
    def test_equals_per_net_loop_bit_for_bit(self, rng, hidden, output, weight_ball):
        from conftest import bits_equal, random_dataset

        model = init_model(6, 2, 3, 7, 3, 4, hidden, output, "he")
        ds = random_dataset(rng, n=150, m=6)  # 150 = 4 batches of 32 and a tail of 22
        if weight_ball is not None:  # the ball binds from the first step
            assert min(nn.param_l2_norm(model.branch), nn.param_l2_norm(model.trunk)) > 2.5
        got = train_deeponet(model, ds, 3, 32, seed=2, lr=0.01, weight_ball=weight_ball)
        want = _per_net_training(model, ds, 3, 32, 2, 0.01, weight_ball)
        assert got[3] == want[3]
        for net in ("branch", "trunk"):
            g, w = getattr(got[0], net), getattr(want[0], net)
            assert g.spec == w.spec and bits_equal(g.flat, w.flat)
        for g, w in zip(got[1:3], want[1:3]):  # the returned Adam states
            assert bits_equal(g.m, w.m) and bits_equal(g.v, w.v)
            assert (g.t, g.lr, g.beta1, g.beta2, g.eps) == (w.t, w.lr, w.beta1, w.beta2, w.eps)

    @pytest.mark.parametrize("trunk_state, message", [
        (dict(lr=0.01), r"must share \(t, lr, beta1, beta2, eps\), "
                        r"got \(0, 0.001, 0.9, 0.999, 1e-08\) and \(0, 0.01, 0.9,"),
        (dict(t=3), r"got \(0, 0.001, 0.9, 0.999, 1e-08\) and \(3, 0.001,"),
        (dict(eps=1e-6), r"and \(0, 0.001, 0.9, 0.999, 1e-06\)"),
        (dict(m=np.zeros(5), v=np.zeros(5)), "state length does not match"),
    ])
    def test_adam_states_must_fit_one_joint_update(self, rng, trunk_state, message):
        from conftest import random_dataset, random_model

        model = random_model(rng, q=2, width=4)
        ab = nn.adam_init(model.branch.flat.size)
        at = dataclasses.replace(nn.adam_init(model.trunk.flat.size), **trunk_state)
        with pytest.raises(InputError, match=message):
            train_deeponet(model, random_dataset(rng, n=20), 1, 8, seed=0,
                           adam_branch=ab, adam_trunk=at)


def test_no_step_gathers_the_dense_branch_inputs(tmp_path, monkeypatch):
    """Building, taking, training, risk and CSV I/O work on sensors and source
    alone, and every dataset built or read holds one sensors row per source
    function."""
    def gathered(self):
        raise AssertionError("Dataset.s was gathered")

    monkeypatch.setattr(Dataset, "s", property(gathered))
    plan = _tiny_plan()
    adr_grf = datagen.GrfConfig(grid=plan.adr.x_grid, length_scale=0.05)
    pendulum_grf = datagen.GrfConfig(grid=np.linspace(0.0, 1.0, 11), length_scale=0.2)
    built = {  # name: (dataset, points per function)
        "adr": (datagen.build_adr_dataset(adr_grf, plan.adr, 6, 3, 7, 0.0, seed=1), 7),
        "pendulum": (datagen.build_pendulum_dataset(pendulum_grf, 1.0, 4, 4, 5, 0.0, seed=2), 5),
        # 120 triples: two whole source functions of 50 points and 20 of a third
        "cell": (scaling.build_cell_dataset(plan, 120, seed=[0, 2, 120]), 50),
    }
    for name, (ds, per) in built.items():
        want = np.arange(ds.n) // per
        assert ds.sensors.shape[0] == want[-1] + 1 and np.array_equal(ds.source, want), name
        path = tmp_path / f"{name}.csv"
        datagen.write_dataset_csv(ds, path)
        back = datagen.read_dataset_csv(path)
        assert np.array_equal(back.source, want), name
        assert back.sensors.tobytes() == ds.sensors.tobytes(), name
    cell = built["cell"][0]
    sub = cell.take(np.arange(30, 110))
    assert sub.sensors is cell.sensors
    model = init_model(plan.branch_in, plan.trunk_in, 2, 4, plan.depth, 0, "relu", "tanh", "he")
    trained, _, _, curve = train_deeponet(model, sub, 2, 16, seed=0)
    assert empirical_risk(trained, sub) == curve[-1]
