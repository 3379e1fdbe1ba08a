"""Golden outputs: the bounds, family reports and ``reproduce all`` table of
``tests/golden.json``, recomputed."""
import json

import golden


def test_outputs_match_the_golden_file():
    want = json.loads(golden.PATH.read_text())
    got = golden.payload()
    if got["platform"] == want["platform"]:
        ulps, mode = None, "bit for bit"
    else:
        ulps = golden.ULPS
        mode = f"within {ulps} ulp, written under {want['platform']} and run under {got['platform']}"
    print(f"golden outputs compared {mode}")
    diff = golden.first_difference(got["outputs"], want["outputs"], ulps)
    assert diff is None, f"compared {mode}: first difference at {diff[0]}: got {diff[1]!r}, want {diff[2]!r}"
