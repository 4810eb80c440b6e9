"""The op table is complete: it and the code it describes name the same
ops, and every fact in a row is one the handler's shape bears out."""

import ast
import inspect
import textwrap

from repro.core import BridgeClient, BridgeServer, JobController
from repro.core.ops import CONTINUATION_OPS, CONTROL_OPS, OPS
from repro.core.partitioned import _MERGE

#: The argument each routing rule keys on (``all`` keys on nothing).
ROUTE_ARGUMENT = {"name": "name", "names": "names", "job": "job_id"}


def handlers():
    return {
        name[len("op_"):]: member
        for name, member in inspect.getmembers(BridgeServer,
                                               inspect.isfunction)
        if name.startswith("op_")
    }


def test_every_handler_has_exactly_one_row_and_vice_versa():
    assert sorted(OPS) == sorted(handlers())
    assert all(name == op.name for name, op in OPS.items())


def test_each_row_routes_on_an_argument_its_handler_takes():
    for name, handler in handlers().items():
        route = OPS[name].route
        parameters = inspect.signature(handler).parameters
        if route == "all":
            assert not set(ROUTE_ARGUMENT.values()) & set(parameters), name
            assert name in _MERGE, f"no reply merge for all-routed {name}"
        else:
            assert ROUTE_ARGUMENT[route] in parameters, (name, route)


def test_every_public_client_op_names_a_row():
    """Each public ``BridgeClient`` method issues exactly the op it is
    named after through the ``_call`` seam; the only other public
    methods are the whole-file conveniences built on those."""
    conveniences = set()
    for name, member in inspect.getmembers(BridgeClient, inspect.isfunction):
        if name.startswith("_"):
            continue
        tree = ast.parse(textwrap.dedent(inspect.getsource(member)))
        issued = {
            node.args[0].value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_call"
        }
        if issued:
            assert issued == {name}
            assert name in OPS
        else:
            conveniences.add(name)
    assert conveniences == {"read_all", "write_all"}


def test_every_client_facing_row_is_issued_through_the_call_seam():
    """Every op a client may send — all rows but the control plane's —
    is what some public ``BridgeClient`` / ``JobController`` method
    passes to ``_call``; nothing reaches a server around the seam."""
    issued = set()
    for cls in (BridgeClient, JobController):
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            tree = ast.parse(textwrap.dedent(inspect.getsource(member)))
            issued |= {
                node.args[0].value
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_call"
            }
    assert issued == set(OPS) - CONTROL_OPS
    # ... and the controller owns no RPC endpoint of its own to go around it.
    assert "_rpc" not in inspect.getsource(JobController)


def test_control_ops_are_continuations():
    assert CONTROL_OPS and CONTROL_OPS < CONTINUATION_OPS
    assert CONTINUATION_OPS < set(OPS)
