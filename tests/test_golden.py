"""Golden outputs: the bounds, family reports and ``reproduce all`` table of
``tests/golden.json``, recomputed."""
import json
import math

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


def test_the_diff_lists_every_moved_leaf_as_decimals_with_its_ulps():
    def outputs(length: float, computed: str, passed: str) -> dict:
        return {
            "platform": {},
            "outputs": {
                "scenarios": {"s": {"E": length.hex(), "argmax": [(0.5).hex()]}},
                "reproduce_all": [{"computed": computed, "pass": passed}],
            },
        }

    want = outputs(1.03, "1.0299999999999998", "True")
    got = outputs(math.nextafter(1.03, 2.0), "1.03", "False")
    # a value that did not move is no move, however it is spelled
    assert golden.diff_lines(outputs(1.0, "12", "True"), outputs(1.0, "12.0", "True")) == []
    # the cells are decimals: float.fromhex would read "1.03" as 1.01171875
    assert golden.diff_lines(got, want) == [
        "/scenarios/s/E\t1.03\t1.0300000000000002\t1",
        "/reproduce_all/0/computed\t1.0299999999999998\t1.03\t1",
        "/reproduce_all/0/pass\t'True'\t'False'\t-",
    ]
