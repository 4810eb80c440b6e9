"""Only what a caller sets: no optional parameter that no caller passes.

Every settable value is a configuration someone must test, so a
``src/repro`` function keeps an optional parameter only while some call
in ``src/``, ``benchmarks/``, ``examples/`` or ``scripts/`` passes it —
by keyword or by position, a ``*``/``**`` spread counting as passing
everything.  A test is not a product caller: what only tests pass is a
constant, or a seam on :data:`SEAMS` with its reason.

Calls are matched to definitions by name, so only function and class
names that are defined once in ``src/repro`` are checked.  A call to a
class is a call to the ``__init__`` it runs, and ``super().__init__(...)``
is a call to the first base's.  ``op_*`` handlers are left out: the RPC
layer looks them up by message name, and their arguments arrive in a
request the client wrappers build.
"""

import ast
import collections
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
CALLERS = ("src", "benchmarks", "examples", "scripts")

#: ``(function, parameter)`` pairs that stay settable with no product
#: caller, each with its reason.
SEAMS = {
    # A runner's seed is what a rerun of the experiment varies.
    ("measure_table2", "seed"),
    ("run_copy_experiment", "seed"),
    ("run_sort_experiment", "seed"),
    ("run_views_experiment", "seed"),
    ("run_striping_comparison", "seed"),
    ("run_token_saturation", "seed"),
    ("run_create_tree_experiment", "seed"),
    ("run_collective_experiment", "seed"),
    ("run_prefetch_experiment", "seed"),
    # A small catalog keeps the S24 runner's tier-1 arms fast.
    ("run_rebalance_experiment", "files"),
    ("run_rebalance_experiment", "blocks"),
    # A read-only mix makes the service rate the fixed per-request CPU
    # the queueing-model check compares against.
    ("run_traffic_experiment", "mix"),
    # ``None`` keeps the forwarding entries up after a resize, so tests
    # can inspect what the sweep left behind.
    ("resize_fabric", "forward_window"),
    # ``hot_fraction=1.0`` is the uniform-random control the naive-view
    # cost tests compare the hot set against.
    ("hotspot_pattern", "hot_fraction"),
    ("hotspot_pattern", "hot_weight"),
    # One signature across the four survival models: the fault bench
    # reads the mirrored and parity ones at two failures.
    ("files_lost_fraction_interleaved", "failed_disks"),
    ("files_lost_fraction_single_node", "failed_disks"),
    # Small devices make the full-device and eviction paths reachable.
    ("make_driver", "capacity_blocks"),
    # A driver factory names its device as ``make_driver`` asks: the
    # driver suite runs the array through one.
    ("StorageArray", "name"),
    # The stamp tells two data sets apart in copy and overwrite checks.
    ("pattern_chunks", "stamp"),
    # The kernel's event is ``(fn, arg)``: tests schedule deliveries and
    # fires that carry data without a closure each.
    ("call_later", "arg"),
}


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _definitions(trees):
    """``name -> (owner, FunctionDef)`` for what a call by that name runs:
    every function name defined once in src/repro is its own owner, and
    every class defined once maps to the ``__init__`` it runs (its own or
    its first base's), owned by the class that defines it."""
    functions = collections.defaultdict(list)
    classes = collections.defaultdict(list)
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name].append(node)
            elif isinstance(node, ast.ClassDef):
                classes[node.name].append(node)
    classes = {name: nodes[0] for name, nodes in classes.items()
               if len(nodes) == 1}
    found = {name: (name, nodes[0]) for name, nodes in functions.items()
             if len(nodes) == 1 and not name.startswith("op_")}
    for name in classes:
        init = _init_of(classes, name)
        if init is not None:
            found[name] = init
    return found, classes


def _init_of(classes, name):
    """``(owner, __init__)`` a call to class ``name`` runs, or ``None``
    (a dataclass's or an outside base's ``__init__`` is not checked)."""
    while name in classes:
        node = classes[name]
        if any(_name(getattr(d, "func", d)) == "dataclass"
               for d in node.decorator_list):
            return None
        for statement in node.body:
            if (isinstance(statement, ast.FunctionDef)
                    and statement.name == "__init__"):
                return name, statement
        name = _name(node.bases[0]) if node.bases else None
    return None


def _optional(function):
    """``(is_method, {parameter: position or None})`` of the parameters
    with a default; keyword-only ones have no position."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    optional = {arg.arg: first + index
                for index, arg in enumerate(positional[first:])}
    optional.update({arg.arg: None
                     for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                     if default is not None})
    is_method = bool(positional) and positional[0].arg in ("self", "cls")
    return is_method, optional


def _calls(tree, classes, enclosing=None):
    """``(call, name, binds_self)`` for every call in ``tree``: a
    ``super().__init__(...)`` call is named after the first base of the
    class it sits in; ``obj.method(a)`` and ``Class(a)`` bind ``self``
    before ``a``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _calls(node, classes, node)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = _name(func)
            if (name == "__init__" and isinstance(func.value, ast.Call)
                    and _name(func.value.func) == "super"):
                name = (_name(enclosing.bases[0])
                        if enclosing is not None and enclosing.bases else None)
                yield node, name, True
            else:
                yield node, name, (name in classes
                                   or isinstance(func, ast.Attribute))
        yield from _calls(node, classes, enclosing)


def unset_parameters():
    """``{(function or class, parameter)}`` no product call passes."""
    trees = {path: ast.parse(path.read_text())
             for folder in CALLERS for path in (REPO / folder).rglob("*.py")}
    definitions, classes = _definitions(trees)
    shapes = {owner: _optional(node) for owner, node in definitions.values()}
    passed = collections.defaultdict(set)
    for tree in trees.values():
        for node, name, binds_self in _calls(tree, classes):
            if name not in definitions:
                continue
            owner = definitions[name][0]
            is_method, optional = shapes[owner]
            if (any(isinstance(arg, ast.Starred) for arg in node.args)
                    or any(kw.arg is None for kw in node.keywords)):
                passed[owner].update(optional)
                continue
            count = len(node.args) + (is_method and binds_self)
            passed[owner].update(
                parameter for parameter, position in optional.items()
                if position is not None and position < count)
            passed[owner].update(kw.arg for kw in node.keywords)
    return {(owner, parameter)
            for owner, (_is_method, optional) in shapes.items()
            for parameter in optional if parameter not in passed[owner]}


def test_every_optional_parameter_has_a_product_caller_or_a_reason():
    unset = unset_parameters()
    assert not unset - SEAMS, (
        "optional parameters no product call passes (make each a "
        f"constant, or add it to SEAMS with its reason): {sorted(unset - SEAMS)}")
    assert not SEAMS - unset, (
        f"SEAMS entries a product call now passes: {sorted(SEAMS - unset)}")
