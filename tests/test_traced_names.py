"""The names perfbench's tracer reads are functions the package defines.

``perfbench/tracing.py`` wraps each public function of every ``increg``
module in a span named ``"<module>.<function>"``, and ``layer_metrics``
sums those spans by name. A function that is renamed, deleted or moved to
another module leaves its figure at 0 with no error. This test reads
``tracing.py`` as source, without importing it, and checks each name that
``layer_metrics`` reads or ``UNWRAPPED`` lists against the package.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# names the tracer makes up rather than takes from a module function, and
# the (module, attribute path) whose wrapper records them
DERIVED = {
    "network.fwd:*": ("network", "apply_layer"),        # one name per layer kind
    "network.bwd:*": ("network", "layer_backward"),
    "compact.fwd:*": ("compact", "CompactNetwork.apply_layer"),
    "compact.prepare_input": ("compact", "CompactNetwork.prepare_input"),
    "compact.forward": ("compact", "CompactNetwork.forward"),
    "config.load": ("cli", "_load_config"),
}

# read by the tracer but not defined where it looks: these figures read 0
# until perfbench itself changes (ROADMAP item 1)
KNOWN_MISSING = {"cli.load_dataset", "scheduler.materialize_reg",
                 "scheduler.update_avg_rank", "scheduler.update_lambda"}


def _assigned(tree, name):
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in n.targets))
    return ast.literal_eval(node.value)


def traced_names():
    """Every module-qualified name ``layer_metrics`` reads, plus ``UNWRAPPED``.

    String literals and f-strings (a formatted field reads as ``*``) count,
    except the keys of the figures it writes; a name past a ``:`` is a
    per-call refinement and reads as ``*`` as well.
    """
    tree = ast.parse(TRACING.read_text())
    modules = _assigned(tree, "MODULES")
    fn = next(n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == "layer_metrics")
    written = set()                     # the figures' own names, and f-string parts
    for node in ast.walk(fn):
        if isinstance(node, ast.Dict):
            written.update(id(k) for k in node.keys)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            written.add(id(node.slice))
        elif isinstance(node, ast.JoinedStr):
            written.update(id(v) for v in node.values)
    names = set(_assigned(tree, "UNWRAPPED"))
    for node in ast.walk(fn):
        if id(node) in written:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        elif isinstance(node, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "*"
                           for v in node.values)
        else:
            continue
        m = re.fullmatch(r"(\w+)\.([\w:*]+)", text)
        if m and m.group(1) in modules:
            names.add(re.sub(r":.*", ":*", text))
    return names


def resolve(module, path):
    obj = importlib.import_module(f"increg.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
    return obj


def is_traced_function(name):
    """A public function defined in ``increg.<module>``, as the tracer wraps."""
    module, func = name.split(".", 1)
    obj = resolve(module, func)
    return (inspect.isfunction(obj) and obj.__module__ == f"increg.{module}"
            and not func.startswith("_"))


def test_every_traced_name_is_a_package_function():
    names = traced_names()
    # the scheduler's per-iteration figures, which scheduler edits can zero
    assert {"scheduler.run_pruning", "scheduler.refresh_l1", "scheduler.rank_groups",
            "scheduler.final_rank", "scheduler.prune_converged"} <= names
    assert {n for n in names if ":" in n} <= DERIVED.keys()
    missing = {n for n in names - DERIVED.keys() if not is_traced_function(n)}
    assert missing == KNOWN_MISSING


def test_derived_names_have_their_functions():
    for name, (module, path) in DERIVED.items():
        assert inspect.isfunction(resolve(module, path)), name
    # the per-kind names refine the spans of these two wrapped functions
    assert is_traced_function("network.apply_layer")
    assert is_traced_function("network.layer_backward")
