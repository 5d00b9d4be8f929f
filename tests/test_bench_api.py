"""The benchmark's use of the package, read from its source without running it.

A workload that names a function the package no longer has, passes it an
argument it no longer takes, or runs a command line or config the CLI no
longer accepts, fails only when the benchmark runs; this test reads bench/
and fails at once instead.
"""

import ast
import contextlib
import importlib
import inspect
import io
from pathlib import Path

from donlab import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ("nn", "deeponet", "scaling", "datagen", "bounds", "cli")


def _has(module: str, name: str) -> bool:
    """name is a submodule or an attribute of the package module."""
    try:
        importlib.import_module(f"{module}.{name}")
        return True
    except ModuleNotFoundError:
        return hasattr(importlib.import_module(module), name)


def _missing_names(path: Path) -> list[str]:
    """Each `module.attr` with module one of MODULES, and each name imported
    from donlab, that the package does not have."""
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("donlab"):
            pairs = [(node.module, alias.name) for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES):
            pairs = [(f"donlab.{node.value.id}", node.attr)]
        else:
            continue
        missing += [f"{mod}.{name}" for mod, name in pairs if not _has(mod, name)]
    return missing


def _unbound_calls(path: Path) -> list[str]:
    """Each `module.attr(...)` call, with module one of MODULES, whose positional
    count and keyword names do not bind to the callee's signature. A `*` or `**`
    argument is skipped, and the rest is then bound as a partial call."""
    unbound = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in MODULES):
            continue
        name = f"donlab.{node.func.value.id}.{node.func.attr}"
        target = getattr(importlib.import_module(f"donlab.{node.func.value.id}"),
                         node.func.attr, None)
        if target is None:  # reported by _missing_names
            continue
        args = [a for a in node.args if not isinstance(a, ast.Starred)]
        keywords = {k.arg: None for k in node.keywords if k.arg is not None}
        partial = len(args) < len(node.args) or len(keywords) < len(node.keywords)
        sig = inspect.signature(target)
        try:
            (sig.bind_partial if partial else sig.bind)(*args, **keywords)
        except TypeError as exc:
            unbound.append(f"{name}: {exc}")
    return unbound


def _cli_mismatches(path: Path) -> list[str]:
    """Each `cli.main([...])` call whose argv the CLI parser rejects, and each key
    of the calling class's CONFIG dict that is not a keyword-only parameter of
    the subcommand's _cmd_* function. A non-constant argv entry is parsed as
    "0"; a _cmd_* that takes **kwargs hands its keys on and is not checked."""
    tree = ast.parse(path.read_text())
    owner, configs = {}, {}
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        owner.update((node, cls.name) for node in ast.walk(cls))
        for stmt in cls.body:
            if (isinstance(stmt, ast.Assign)
                    and [ast.unparse(t) for t in stmt.targets] == ["CONFIG"]):
                configs[cls.name] = ast.literal_eval(stmt.value)
    mismatches = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "cli.main"):
            continue
        where = owner.get(node, path.name)
        argv = [a.value if isinstance(a, ast.Constant) else "0" for a in node.args[0].elts]
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                args = cli.build_parser().parse_args(argv)
        except SystemExit:
            mismatches.append(f"{where}: donlab {' '.join(argv)} does not parse")
            continue
        params = inspect.signature(args.func).parameters.values()
        if any(p.kind is p.VAR_KEYWORD for p in params):
            continue
        keys = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
        mismatches += [f"{where}: {key!r} is not a config key of donlab {args.command}"
                       for key in configs.get(where, {}) if key not in keys]
    return sorted(mismatches)


def test_workloads_name_only_what_the_package_has():
    assert _missing_names(BENCH / "workloads.py") == []


def test_workloads_call_with_arguments_the_package_takes():
    assert _unbound_calls(BENCH / "workloads.py") == []


def test_workloads_run_the_cli_with_what_it_takes():
    assert _cli_mismatches(BENCH / "workloads.py") == []


def test_missing_name_is_reported(tmp_path):
    path = tmp_path / "workload.py"
    path.write_text("from donlab import nn\nfrom donlab.datagen import solve_adr, gone\n"
                    "nn.forward_batch(p, x)\nnn.removed(p, x)\n")
    assert _missing_names(path) == ["donlab.datagen.gone", "donlab.nn.removed"]


def test_unbound_call_is_reported(tmp_path):
    path = tmp_path / "workload.py"
    path.write_text("from donlab import nn, scaling\n"
                    "scaling.run_suite(plan, max_workers=2)\n"
                    "scaling.run_suite(plan, workers=2)\n"
                    "scaling.train_deeponet(model, data, 1, 8, seed=0, adam_trunk=a)\n"
                    "scaling.train_deeponet(model, data, 1, seed=0)\n"
                    "nn.MlpSpec((1, 1), **common)\n"
                    "nn.MlpSpec((1, 1), *dims, resolution=2)\n"
                    "nn.param_count(spec, 2)\n"
                    "nn.removed(spec)\n")
    assert _unbound_calls(path) == [
        "donlab.scaling.run_suite: got an unexpected keyword argument 'workers'",
        "donlab.scaling.train_deeponet: missing a required argument: 'batch_size'",
        "donlab.nn.MlpSpec: got an unexpected keyword argument 'resolution'",
        "donlab.nn.param_count: too many positional arguments",
    ]


def test_cli_mismatch_is_reported(tmp_path):
    path = tmp_path / "workload.py"
    path.write_text("from donlab import cli\n"
                    "class Verify:\n"
                    "    CONFIG = {'cover_probes': 10, 'cover_probe': 10}\n"
                    "    def run_pass(self):\n"
                    "        cli.main(['verify', '--config', str(self.path), '--seed', s])\n"
                    "        cli.main(['verify', '--threads', '2'])\n"
                    "class Bound:\n"
                    "    CONFIG = {'anything': 1}\n"
                    "    def run_pass(self):\n"
                    "        cli.main(['bound', '--config', path])\n"
                    "cli.main(['train', '--config', path, '--dry-run'])\n")
    assert _cli_mismatches(path) == [
        "Verify: 'cover_probe' is not a config key of donlab verify",
        "Verify: donlab verify --threads 2 does not parse",
        "workload.py: donlab train --config 0 --dry-run does not parse",
    ]
