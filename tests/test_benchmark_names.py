"""The names the benchmark reaches still resolve.

`perfbench/spans.py` wraps each function in `TRACED`, and
`perfbench/workloads.py` drives fpntrack through module attributes. A name
either file uses that is gone fails a traced or timed benchmark run; these
tests fail on it first. Both files are read here, not changed: `spans.py` is
imported from its path (it needs only the stdlib), `workloads.py` is parsed.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, qual) for layer, names in spans.TRACED.items() for qual in names]


@pytest.mark.parametrize("layer, qual", traced_names())
def test_traced_name_resolves(layer, qual):
    # resolved as `Tracer.install` resolves it: a method on its class's own dict
    module = importlib.import_module(f"fpntrack.{layer}")
    owner_name, _, attr = qual.rpartition(".")
    if owner_name:
        assert attr in vars(getattr(module, owner_name))
    else:
        assert callable(getattr(module, attr))


def workload_uses() -> tuple[dict, ast.Module]:
    """The fpntrack objects `workloads.py` imports, by local name, and its syntax tree."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fpntrack"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if value is None:  # a submodule: `from fpntrack import cli`
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = value
    return bound, tree


def test_workload_attributes_resolve():
    bound, tree = workload_uses()
    assert {"cli", "container", "metrics", "scenarios", "synth", "run_track"} <= set(bound)
    used = [
        (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and inspect.ismodule(bound.get(node.value.id))
    ]
    assert used
    missing = [f"{m}.{a}" for m, a in used if not hasattr(bound[m], a)]
    assert missing == []


def test_workload_calls_bind():
    # each call of an fpntrack function takes the arguments the workloads pass
    bound, tree = workload_uses()
    checked = 0
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = call.func
        if isinstance(func, ast.Name) and func.id in bound:
            target = bound[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(bound.get(func.value.id))):
            target = getattr(bound[func.value.id], func.attr)
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            continue
        inspect.signature(target).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        checked += 1
    assert checked >= 8
