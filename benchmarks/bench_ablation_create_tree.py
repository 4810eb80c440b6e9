"""E8 — section 4.5's Create improvement.

"The initiation and termination are sequential, leading to an almost
linear increase in overhead for additional processors.  Performance
could be improved somewhat by sending startup and completion messages
through an embedded binary tree."  This bench measures both dispatch
modes and fits their growth.
"""

from _bench import Bench, paper_ps
from repro.analysis import fit_line
from repro.harness.experiments import run_create_tree_experiment


def sweep(quick):
    by_p = {str(p): run_create_tree_experiment(p) for p in paper_ps(quick)}
    intercept, slope = fit_line([int(p) for p in by_p],
                                [row["sequential_ms"] for row in by_p.values()])
    return {
        "sequential_fit_ms": {"intercept": intercept, "slope": slope},
        "paper_fit_ms": {"intercept": 145.0, "slope": 17.5},
        "by_p": by_p,
    }


def check(document):
    runs = {int(p): row for p, row in document["by_p"].items()}
    ps = sorted(runs)
    widest = runs[ps[-1]]
    # sequential dispatch grows ~linearly in p
    assert 8.0 < document["sequential_fit_ms"]["slope"] < 30.0
    # the tree wins, and wins more the wider the system
    assert widest["tree_ms"] < widest["sequential_ms"]
    advantage = {p: runs[p]["sequential_ms"] / runs[p]["tree_ms"] for p in ps}
    assert advantage[ps[-1]] > advantage[4]
    # tree growth is sublinear: two doublings of p far from quadruple it
    assert widest["tree_ms"] < runs[ps[-3]]["tree_ms"] * 2.5
    # the S23 batched arm amortizes the fixed per-create charges: each
    # file in an 8-wide mcreate costs less than either singleton path
    for p in ps:
        assert runs[p]["batched_per_file_ms"] < runs[p]["sequential_ms"], p
        assert runs[p]["batched_per_file_ms"] < runs[p]["tree_ms"], p


BENCH = Bench("create_tree", sweep, check)
test_create_tree_dispatch = BENCH.test()

if __name__ == "__main__":
    BENCH.main()
