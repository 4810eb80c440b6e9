"""Only what a caller sets: no optional parameter that no caller passes.

Every settable value is a configuration someone must test, so a
``src/repro`` function keeps an optional parameter only while some call
in ``src/``, ``benchmarks/``, ``examples/`` or ``scripts/`` passes it —
by keyword or by position, a ``*``/``**`` spread counting as passing
everything.  A test is not a product caller: what only tests pass is a
constant, or a seam on :data:`SEAMS` with its reason.

Calls are matched to definitions by name, so only function names that
are defined once in ``src/repro`` are checked.  ``op_*`` handlers are
left out: the RPC layer looks them up by message name, and their
arguments arrive in a request the client wrappers build.
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
    # The stamp tells two data sets apart in copy and overwrite checks.
    ("pattern_chunks", "stamp"),
    # The kernel's event is ``(fn, arg)``: tests schedule deliveries and
    # fires that carry data without a closure each.
    ("call_later", "arg"),
}


def _definitions(trees):
    """``name -> FunctionDef`` for every name defined once in src/repro."""
    found = collections.defaultdict(list)
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[node.name].append(node)
    return {name: nodes[0] for name, nodes in found.items()
            if len(nodes) == 1 and not name.startswith("op_")}


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


def unset_parameters():
    """``{(function, parameter)}`` no product call passes."""
    trees = {path: ast.parse(path.read_text())
             for folder in CALLERS for path in (REPO / folder).rglob("*.py")}
    shapes = {name: _optional(node)
              for name, node in _definitions(trees).items()}
    passed = collections.defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name not in shapes:
                continue
            is_method, optional = shapes[name]
            if (any(isinstance(arg, ast.Starred) for arg in node.args)
                    or any(kw.arg is None for kw in node.keywords)):
                passed[name].update(optional)
                continue
            # ``obj.method(a)`` binds ``self`` before ``a``
            count = len(node.args) + (
                is_method and isinstance(func, ast.Attribute))
            passed[name].update(
                parameter for parameter, position in optional.items()
                if position is not None and position < count)
            passed[name].update(kw.arg for kw in node.keywords)
    return {(name, parameter)
            for name, (_is_method, optional) in shapes.items()
            for parameter in optional if parameter not in passed[name]}


def test_every_optional_parameter_has_a_product_caller_or_a_reason():
    unset = unset_parameters()
    assert not unset - SEAMS, (
        "optional parameters no product call passes (make each a "
        f"constant, or add it to SEAMS with its reason): {sorted(unset - SEAMS)}")
    assert not SEAMS - unset, (
        f"SEAMS entries a product call now passes: {sorted(SEAMS - unset)}")
