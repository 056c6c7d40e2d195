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
    # two quick evals and the moser run that is refused with exit 3
    return (op.cls == "moser_underflow"
            or (op.cls == "eval" and op.argv[-1] in ("25", "50")
                and op.argv[2] == "2" and op.argv[4] == "0.0"))


def test_digest_lines():
    tool = _load_tool()
    lines = tool.digest_lines("family", 3, select=_few)
    records = [json.loads(line) for line in lines]
    assert [r["exit"] for r in records] == [0, 0, 3]
    for r in records[:2]:
        assert len(r["sha256"]) == 64 and r["stderr"] == "" and r["warnings"] == []
        assert r["op"].startswith("eval ") and "--seed 3 --jobs 1" in r["op"]
    refused = records[2]
    assert refused["sha256"] is None
    assert refused["stderr"].startswith("error: the plateau radius")
    # no run's temporary directory reaches a line
    assert all(r["op"].endswith("--output <tmp>") for r in records)
    # the same checkout gives the same lines
    assert tool.digest_lines("family", 3, select=_few) == lines
