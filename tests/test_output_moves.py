"""tools/output_moves.py: columns, moves, and one checkout against itself."""

import importlib.util
import json
import math
import pathlib
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_TOOL = _ROOT / "tools" / "output_moves.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_moves", _TOOL)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files beside the script
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def _record(op, payload, code=0):
    return {"op": op, "exit": code, "text": json.dumps(payload)}


def test_columns_of_tables_and_objects():
    tool = _load_tool()
    table = {"comments": ["tmlab 0.1.0", "sup_product=2.5 b_estimate=3.0"],
             "columns": ["n", "w", "flags"], "rows": [[1, 0.5, ""], [2, 0.25, "x"]]}
    assert tool.columns(json.dumps(table)) == [
        ("sup_product", 2.5), ("b_estimate", 3.0), ("n", 1.0), ("w", 0.5),
        ("n", 2.0), ("w", 0.25)]
    obj = {"tool": "tmlab", "config": {"dim": 2},
           "result": {"value": 1.5, "trace": [1.0, 1.5], "converged": False}}
    assert tool.columns(json.dumps(obj)) == [
        ("result.trace", 1.0), ("result.trace", 1.5), ("result.value", 1.5)]


def test_moves_take_the_largest_per_column():
    tool = _load_tool()
    base = [_record("eval a", {"x": [1.0, 2.0], "y": 0.0}),
            _record("eval b", {"x": [4.0, 8.0], "y": 0.0}),
            _record("orbit c", {"x": [1.0]})]
    head = [_record("eval a", {"x": [1.0, 2.0 * (1 + 1e-12)], "y": 1e-30}),
            _record("eval b", {"x": [4.0 * (1 + 1e-9), 8.0], "y": 0.0}),
            _record("orbit c", {"x": [1.0, 2.0]})]
    largest, differ = tool.moves(base, head)
    move, op, gap = largest[("eval", "x")]
    assert op == "eval b" and math.isclose(move, 1e-9, rel_tol=1e-6)
    assert math.isclose(gap, 4e-9, rel_tol=1e-6)
    assert largest[("eval", "y")][0] == 1.0  # relative move from 0
    assert largest[("eval", "y")][2] == 1e-30
    assert differ == [("orbit c", "output shape changed")]


def test_one_checkout_against_itself():
    tool = _load_tool()
    records = tool.collect(str(_ROOT), "family", 3, classes=["moser_underflow"])
    assert [r["exit"] for r in records] == [0]
    largest, differ = tool.moves(records, records)
    assert differ == [] and largest
    assert all(move == 0.0 and gap == 0.0 for move, _, gap in largest.values())
