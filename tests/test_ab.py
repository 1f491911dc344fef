"""The pair summary of ``tools/ab.py`` re-derives a checked-in BENCH file's."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_bench_31_infer_mid_is_rederived_from_its_runs():
    doc = json.loads((ROOT / "BENCH_31.json").read_text())
    got = load_ab().summarize(doc["runs"])["infer_mid"]
    want = doc["summary"]["infer_mid"]
    assert got.keys() == want.keys()
    for name, fields in want.items():
        if isinstance(fields, dict) and "parent_median" in fields:
            assert {k: got[name][k] for k in fields} == fields, name
        else:
            assert got[name] == fields, name


def test_shift_inside_parent_spread_flags_what_the_pairs_cannot_resolve():
    runs = json.loads((ROOT / "BENCH_31.json").read_text())["runs"]
    got = load_ab().summarize(runs)["infer_mid"]
    # setup_s moved 0.310 -> 0.322 s inside the parent's quartiles 0.299-0.369;
    # peak_rss_mb fell 295.19 -> 267.98 MB against a 0.13 MB spread
    assert got["setup_s"]["shift_inside_parent_spread"] is True
    assert got["peak_rss_mb"]["shift_inside_parent_spread"] is False


def test_outputs_compare_by_hash_or_common_losses():
    ab = load_ab()
    assert ab.same_outputs({"prob_sha256": "a"}, {"prob_sha256": "a"}) == "prob_sha256 equal"
    assert ab.same_outputs({"prob_sha256": "a"}, {"prob_sha256": "b"}) == "prob_sha256 differ"
    assert (ab.same_outputs({"losses": [1.0, 0.5]}, {"losses": [1.0, 0.5, 0.25]})
            == "losses: equal on the 2 common steps")
    assert ab.same_outputs({"losses": [1.0]}, {"losses": [0.9]}) == "losses: differ on the 1 common steps"


def test_one_pair_summarizes():
    runs = [{"workload": "w", "tree": tree, "seed": 1, "pair": 0, "correct": True,
             "attempted": 3, "failed": 0, "metrics": {"op_s": value}}
            for tree, value in (("parent", 2.0), ("change", 1.0))]
    got = load_ab().summarize(runs)["w"]
    assert got["op_s"]["parent_quartiles"] == [2.0, 2.0, 2.0]
    assert got["op_s"]["ratio_of_medians"] == 0.5
    assert got["op_s"]["pairs_change_lower"] == 1
    assert got["op_s"]["shift_inside_parent_spread"] is False
    assert got["failed"] == {"parent": 0, "change": 0} and got["correct_all"] is True
