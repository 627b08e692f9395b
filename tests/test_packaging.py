"""The package metadata points at things that exist, importing the package
stays light, every public function has a caller outside the tests, and every
FlowConfig field and every defaulted parameter is set by one."""

import ast
import collections
import importlib
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

from grflab import experiments

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _project():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_every_script_target_imports():
    for name, target in _project().get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_readme_exists():
    assert (ROOT / _project()["readme"]).is_file()


def _run_fresh(code):
    """stdout of code run in a fresh interpreter that imports from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


_SCIPY_LOADED = ("sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.'))")


def test_import_loads_no_scipy_module():
    # grflab needs numpy alone; scipy is only the tests' spline oracle, and
    # every fresh interpreter that imported it would pay its import time and
    # memory, the set-up time and peak RSS of every perfbench workload
    code = f"import sys, grflab; print(' '.join({_SCIPY_LOADED}))"
    assert _run_fresh(code).split() == []


def test_gauge_recovery_loads_no_scipy_and_repeats_in_a_fresh_interpreter():
    # the splines of the diffeomorphism recovery are numpy's: after the
    # stability and monotonicity pipelines a whole gauge recovery still loads
    # no scipy module, and its report is the one this interpreter returns
    code = (
        "import sys\n"
        "from grflab import experiments\n"
        "experiments.stability_run(resolution=8, stop_tol=0.5)\n"
        "experiments.monotonicity_run(resolution=8, stop_tol=0.025)\n"
        "print(repr(experiments.gauge_consistency_run(resolution=8)))\n"
        f"print(' '.join({_SCIPY_LOADED}) or '-')\n")
    report, loaded = _run_fresh(code).splitlines()
    assert loaded == "-"
    assert report == repr(experiments.gauge_consistency_run(resolution=8))


def _names_used(path):
    """Every name, attribute and import alias that a module's code mentions."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update((node.name, node.asname))
    return used


def _public_functions(path):
    """Qualified names of a module's public functions and public methods."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def test_every_public_function_is_reached_outside_the_tests():
    # a name counts as reached when code in src/ (its own module included,
    # beyond its def line) or in perfbench/ mentions it; the re-exports of
    # __init__ do not count. The pipelines of experiments are the entry
    # points, so they need no caller.
    modules = [path for path in sorted((ROOT / "src" / "grflab").glob("*.py"))
               if path.name != "__init__.py"]
    used = set().union(*(_names_used(path) for path in
                         modules + sorted((ROOT / "perfbench").glob("*.py"))))
    unreached = [f"{path.stem}.{name}" for path in modules
                 if path.stem != "experiments"
                 for name in _public_functions(path)
                 if name.rpartition(".")[2] not in used]
    assert not unreached, "reached only by tests: " + ", ".join(unreached)


def _defaulted_parameters(path):
    """(qualified name, parameter, its index among the positional ones or
    None) of every defaulted parameter of a module's public functions and
    public methods, a method's self or cls not counted."""
    def params(func, qual, skip):
        args = func.args
        positional = (args.posonlyargs + args.args)[skip:]
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield qual, arg.arg, index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qual, arg.arg, None

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from params(node, node.name, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield from params(item, f"{node.name}.{item.name}", 1)


def _callee(call):
    """The called name of a call: f of f(...) and of obj.f(...)."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # a parameter that every call in src/ and perfbench/ leaves at its default
    # is a constant, not an option. A call passes it by keyword, by position,
    # or through *args or **kwargs; calls are matched by the called name. The
    # pipelines of experiments are the entry points, so they are exempt.
    calls = collections.defaultdict(list)
    for path in (sorted((ROOT / "src" / "grflab").glob("*.py"))
                 + sorted((ROOT / "perfbench").glob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                calls[_callee(node)].append(node)

    def passed(call, param, index):
        return (any(kw.arg in (param, None) for kw in call.keywords)
                or index is not None and (
                    index < len(call.args)
                    or any(isinstance(a, ast.Starred) for a in call.args)))

    unset = [f"{qual}({param})"
             for path in sorted((ROOT / "src" / "grflab").glob("*.py"))
             if path.stem not in ("__init__", "experiments")
             for qual, param, index in _defaulted_parameters(path)
             if not any(passed(call, param, index)
                        for call in calls[qual.rpartition(".")[2]])]
    assert not unset, "left at the default by every caller: " + ", ".join(unset)


def test_every_flow_config_field_is_passed_outside_the_tests():
    # a field that every caller in src/ and perfbench/ leaves at its default
    # is a constant, not an option; it belongs in a module constant
    tree = ast.parse((ROOT / "src" / "grflab" / "flow.py").read_text())
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "FlowConfig")
    fields = [item.target.id for item in config.body
              if isinstance(item, ast.AnnAssign)]
    passed = {node.arg
              for path in sorted((ROOT / "src" / "grflab").glob("*.py"))
              + sorted((ROOT / "perfbench").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.keyword)}
    unset = [name for name in fields if name not in passed]
    assert fields and not unset, "never passed by keyword: " + ", ".join(unset)


def test_no_einsum_in_src_is_planned():
    # without `optimize` np.einsum adds the terms of an index sum in index
    # order, plane by plane; a planned path (optimize, or one from
    # einsum_path) splits the sum into pairwise or BLAS products in another
    # order. A **kwargs call is flagged too, since it may carry `optimize`.
    planned = []
    for path in sorted((ROOT / "src" / "grflab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name == "einsum_path":
                planned.append(f"{path.name}:{node.lineno} einsum_path")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "einsum"
                  and any(kw.arg in ("optimize", None)
                          for kw in node.keywords)):
                planned.append(f"{path.name}:{node.lineno} einsum(optimize)")
    assert not planned, "planned einsums: " + ", ".join(planned)


def _workflow_python():
    """The Python sources the CI workflow runs: its heredoc scripts and its
    `python -c` strings."""
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    sources = [textwrap.dedent(body) for body in
               re.findall(r"<<'EOF'\n(.*?)\n\s*EOF\n", text, re.S)]
    return sources + re.findall(r'python[^"\n]* -c "([^"]*)"', text)


def _workload_params(tree):
    """(pipeline, keys) for every Workload(...) of a perfbench module whose
    op unpacks the workload's params, `**wl.params` or a name bound to it,
    into a call of that pipeline."""
    unpacks = collections.defaultdict(set)
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        aliases = {target.id for node in ast.walk(func)
                   if isinstance(node, ast.Assign)
                   and isinstance(node.value, ast.Attribute)
                   and node.value.attr == "params"
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and any(
                    kw.arg is None and (
                        isinstance(kw.value, ast.Attribute)
                        and kw.value.attr == "params"
                        or isinstance(kw.value, ast.Name)
                        and kw.value.id in aliases)
                    for kw in node.keywords):
                unpacks[func.name].add(_callee(node))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node) == "Workload":
            kws = {kw.arg: kw.value for kw in node.keywords}
            params, op = kws.get("params"), kws.get("op")
            if (isinstance(params, ast.Call) and _callee(params) == "dict"
                    and isinstance(op, ast.Name)):
                keys = {kw.arg for kw in params.keywords}
                for pipeline in unpacks[op.id]:
                    yield pipeline, keys


def test_every_pipeline_parameter_is_passed_by_name_somewhere():
    # a pipeline default that no call of that pipeline in src/, perfbench/,
    # the tests or the CI workflow ever sets by keyword is a constant, not an
    # option. A perfbench workload's params dict counts for the pipeline its
    # op unpacks it into with **
    sources = [path.read_text() for path in
               sorted((ROOT / "src" / "grflab").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py"))
               + sorted((ROOT / "perfbench" / "tests").glob("*.py"))
               + sorted((ROOT / "tests").glob("*.py"))]
    passed = collections.defaultdict(set)
    for source in sources + _workflow_python():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                passed[_callee(node)].update(kw.arg for kw in node.keywords)
        for pipeline, keys in _workload_params(tree):
            passed[pipeline].update(keys)
    unset = [f"{qual}({param})" for qual, param, _ in _defaulted_parameters(
                 ROOT / "src" / "grflab" / "experiments.py")
             if param not in passed[qual]]
    assert not unset, "never passed by name: " + ", ".join(unset)
