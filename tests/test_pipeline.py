from dcbacktest.pipeline import _child_seed


def test_child_seeds_distinct_across_roots_windows_and_purposes():
    # An XOR of root and window would make root 6 window 0 and root 7
    # window 1 share every stream.
    keys = [(r, w, p) for r in range(16) for w in range(16) for p in (1, 2, 3)]
    seeds = {_child_seed(*key) for key in keys}
    assert len(seeds) == len(keys)
