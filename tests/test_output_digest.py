"""tools/output_digest.py on a few operations of the family workload."""

import importlib.util
import json
import pathlib
import sys

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", _TOOL)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files beside the script
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def _few(op):
    # two quick evals and the moser run at beta = 1.9, whose plateau radius
    # e^(-n/(N-beta)) underflows from n = 75 on
    return (op.cls == "moser_underflow"
            or (op.cls == "eval" and op.argv[-1] in ("25", "50")
                and op.argv[2] == "2" and op.argv[4] == "0.0"))


def test_digest_lines():
    tool = _load_tool()
    lines = tool.digest_lines("family", 3, select=_few)
    records = [json.loads(line) for line in lines]
    assert [r["exit"] for r in records] == [0, 0, 0]
    for r in records:
        assert len(r["sha256"]) == 64 and r["stderr"] == "" and r["warnings"] == []
        assert "--seed 3 --jobs 1" in r["op"]
    assert [r["op"].split()[0] for r in records] == ["eval", "eval", "moser"]
    # no run's temporary directory reaches a line
    assert all(r["op"].endswith("--output <tmp>") for r in records)
    # the same checkout gives the same lines
    assert tool.digest_lines("family", 3, select=_few) == lines
