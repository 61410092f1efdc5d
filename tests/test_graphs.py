import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from expander_cs import (GF, BipartiteGraph, CapacityError, ExpanderParams, load_graph,
                         matching_graph, neighbor_set, pv_expander,
                         random_left_regular, save_graph, suggest_pv_bounds,
                         suggest_random_params)
from expander_cs import graphs
from expander_cs.errors import load_object
from expander_cs.graphs import (graph_from_json_dict, graph_to_json_dict,
                                graph_to_json_text)


def test_random_full_degree_forces_all_neighbors():
    g = random_left_regular(4, 4, 4, seed=3)
    for nb in g.neighbors:
        assert nb.tolist() == [0, 1, 2, 3]


def test_random_single_edge():
    g = random_left_regular(1, 1, 5, seed=0)
    assert len(g.neighbors) == 1 and len(g.neighbors[0]) == 1
    assert 0 <= g.neighbors[0][0] < 5


def test_random_degree_exceeds_n():
    with pytest.raises(ValueError):
        random_left_regular(3, 6, 5, seed=0)


def test_random_determinism():
    a = random_left_regular(20, 4, 15, seed=42)
    b = random_left_regular(20, 4, 15, seed=42)
    assert a == b
    c = random_left_regular(20, 4, 15, seed=43)
    assert a != c


def test_suggest_random_params():
    assert suggest_random_params(64, 4, 4) == (12, 45)
    d, n = suggest_random_params(8, 4, 1.0)      # boundary p = 2s
    assert d == math.ceil(math.log(2)) and n == math.ceil(4 * math.log(2))
    with pytest.raises(ValueError):
        suggest_random_params(7, 4, 1.0)
    # monotone in p for fixed s
    prev_d = prev_n = 0
    for p in (8, 16, 32, 64, 128):
        d, n = suggest_random_params(p, 4, 2.0)
        assert d >= prev_d and n >= prev_n
        prev_d, prev_n = d, n


def test_pv_small_field_hand_values():
    g = pv_expander(GF(3), 2, 1, 2)
    assert (g.p, g.n, g.d) == (9, 9, 3)
    # f = x + 1 is left index 1 + 1*3 = 4; tuples (0,1),(1,2),(2,0)
    assert g.neighbors[4].tolist() == [1, 5, 6]
    # zero polynomial maps to (y, 0) for each y
    assert g.neighbors[0].tolist() == [0, 3, 6]


def test_pv_two_power_maps_hand_value():
    g = pv_expander(GF(3), 2, 2, 2)
    assert (g.p, g.n, g.d) == (9, 27, 3)
    # f = x is index 3; f_1 = x^2 mod (x^2+1) = 2; at y=1 the tuple is
    # (1, 1, 2), encoded 1*9 + 1*3 + 2 = 14
    assert 14 in g.neighbors[3]


def test_pv_determinism_byte_identical():
    a = pv_expander(GF(3), 2, 2, 2)
    b = pv_expander(GF(3), 2, 2, 2)
    assert json.dumps(graph_to_json_dict(a)) == json.dumps(graph_to_json_dict(b))


def test_pv_distinct_neighbors_per_vertex():
    g = pv_expander(GF(2, 2), 2, 1, 3)
    for nb in g.neighbors:
        assert len(set(nb)) == g.d


def test_pv_rejects_bad_parameters():
    with pytest.raises(ValueError):
        pv_expander(GF(3), 2, 1, 1)           # h < 2
    with pytest.raises(Exception):
        pv_expander(GF(5), 9, 1, 2)           # capacity


def test_suggest_pv_bounds_formula():
    params = ExpanderParams(s=4, eps=0.125, alpha=1.0, theta0=1.0)
    d_bound, n_bound = suggest_pv_bounds(256, 4, params)
    inner = 8 * math.log(256) * math.log(4)
    assert d_bound == pytest.approx(inner**2, rel=1e-12)
    assert n_bound == pytest.approx(16 * inner**4, rel=1e-12)
    assert d_bound == pytest.approx(3.78e3, rel=0.01)
    assert n_bound == pytest.approx(2.29e8, rel=0.01)
    # ratio theta0/eps at eps = 1/8 is 8 theta0
    assert inner / (math.log(256) * math.log(4)) == pytest.approx(8.0)
    # monotone in s
    _, n5 = suggest_pv_bounds(256, 5, ExpanderParams(s=5))
    assert n5 > n_bound


def test_expander_params_validation():
    with pytest.raises(ValueError):
        ExpanderParams(s=0)
    with pytest.raises(ValueError):
        ExpanderParams(s=2, eps=1.5)


def test_neighbor_set():
    g = matching_graph(6)
    assert neighbor_set(g, []) == set()
    assert neighbor_set(g, [2]) == {2}
    for size in (1, 2, 5):
        assert len(neighbor_set(g, list(range(size)))) == size
    with pytest.raises(ValueError):
        neighbor_set(g, [6])


def test_neighbor_set_union_bound():
    g = random_left_regular(10, 3, 8, seed=5)
    for subset in ([0, 1], [2, 5, 7], list(range(10))):
        joined = neighbor_set(g, subset)
        assert len(joined) <= g.d * len(subset)
        disjoint = sum(len(set(g.neighbors[i])) for i in subset) == len(joined)
        assert disjoint == (len(joined) == g.d * len(subset))


def test_graph_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(2, 4, 2, ((0, 1),), "bad")          # wrong length
    with pytest.raises(ValueError):
        BipartiteGraph(1, 4, 2, ((1, 0),), "bad")          # not sorted
    with pytest.raises(ValueError):
        BipartiteGraph(1, 4, 2, ((0, 4),), "bad")          # out of range


@pytest.mark.parametrize("neighbors,message", [
    (((0, 1), (1, 2), (3, 2)), "neighbor list of left vertex 2 is not strictly increasing"),
    (((0, 1), (1, 2), (2, 4)), "left vertex 2 has a neighbor outside [0, 4)"),
    (((0, 1), (-1, 2), (2, 3)), "left vertex 1 has a neighbor outside [0, 4)"),
    (((0, 1), (1, 2), (3, 2**64)), "left vertex 2 has a neighbor outside [0, 4)"),
    (((0, 1), (1, 2, 3), (2, 3)), "left vertex 1 has degree 3, expected 2"),
    (((0, 1), (1,), (2, 3, 3)), "left vertex 1 has degree 1, expected 2"),
    # the first offending vertex is named, whichever check it fails
    (((0, 1), (2, 2), (0, 9)), "neighbor list of left vertex 1 is not strictly increasing"),
    (((0, 1), (0, 9), (2, 2)), "left vertex 1 has a neighbor outside [0, 4)"),
    (((1, 1), (0, 9), (2, 3)), "neighbor list of left vertex 0 is not strictly increasing"),
])
def test_graph_validation_messages(neighbors, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BipartiteGraph(3, 4, 2, neighbors, "bad")


@pytest.mark.parametrize("bad", [True, 1.0, [1]])
def test_graph_from_json_dict_refuses_non_integer_neighbors(bad):
    obj = {"p": 2, "n": 4, "d": 2, "provenance": "x", "neighbors": [[0, 1], [2, bad]]}
    with pytest.raises(ValueError, match=r"^graph field 'neighbors' must be an array "
                                         r"of integer arrays$"):
        graph_from_json_dict(obj)
    obj["neighbors"] = [[0, 1], [2, 3]]
    assert graph_from_json_dict(obj).neighbors.tolist() == [[0, 1], [2, 3]]


@pytest.mark.parametrize("field", ["p", "n", "d", "provenance", "neighbors"])
def test_graph_from_json_dict_names_a_missing_field(field):
    obj = {"p": 2, "n": 4, "d": 2, "provenance": "x", "neighbors": [[0, 1], [2, 3]]}
    del obj[field]
    with pytest.raises(ValueError, match=f"^missing field '{field}'$"):
        graph_from_json_dict(obj)


def test_graph_json_roundtrip(tmp_path):
    g = random_left_regular(7, 3, 9, seed=8)
    obj = graph_to_json_dict(g)
    assert list(obj.keys()) == ["p", "n", "d", "provenance", "neighbors"]
    assert graph_from_json_dict(obj) == g
    path = tmp_path / "g.json"
    save_graph(g, path)
    assert load_graph(path) == g


_ROWS = graphs._BLOCK_ENTRIES // 64             # rows in one block of a d = 64 table


@pytest.mark.parametrize("make", [
    lambda: matching_graph(1),
    lambda: random_left_regular(5, 7, 7, seed=1),                   # d = n
    lambda: random_left_regular(_ROWS - 1, 64, 70, seed=2),
    lambda: random_left_regular(_ROWS, 64, 70, seed=3),
    lambda: random_left_regular(_ROWS + 1, 64, 70, seed=4),
], ids=["matching1", "d=n", "block-1", "block", "block+1"])
def test_graph_file_text_is_json_indent_2_at_the_edges(make):
    g = make()
    assert graph_to_json_text(g) == json.dumps(graph_to_json_dict(g), indent=2)


@pytest.mark.parametrize("block", [1, 2, 3, 5, 6, 7, 64])
def test_graph_file_text_is_json_indent_2_at_any_block_size(monkeypatch, block):
    monkeypatch.setattr(graphs, "_BLOCK_ENTRIES", block)
    for g in (matching_graph(1), matching_graph(7), random_left_regular(7, 3, 9, seed=8),
              random_left_regular(4, 6, 6, seed=0), pv_expander(GF(3), 2, 2, 2)):
        assert graph_to_json_text(g) == json.dumps(graph_to_json_dict(g), indent=2)


def test_graph_file_text_holds_one_block_of_ints():
    # 2**19 entries in eight blocks: the peak is the text twice (the blocks'
    # strings and their join), not one Python int per table entry
    p = 1 << 15
    g = BipartiteGraph(p, 2048, 16, np.arange(p)[:, None] % 128 + np.arange(0, 2048, 128),
                       "stripes")
    tracemalloc.start()
    try:
        text = graph_to_json_text(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


# -- the neighbor table --------------------------------------------------------

def _constructed_graphs(tmp_path):
    path = tmp_path / "g.json"
    save_graph(random_left_regular(9, 3, 11, seed=4), path)
    return [pv_expander(GF(3), 2, 2, 2), random_left_regular(7, 3, 9, seed=8),
            matching_graph(5), load_graph(path),
            BipartiteGraph(2, 4, 2, [[0, 1], [2, 3]], "list")]


def test_table_is_a_read_only_int64_array(tmp_path):
    for g in _constructed_graphs(tmp_path):
        table = g.neighbors
        assert isinstance(table, np.ndarray) and table.dtype == np.int64
        assert table.shape == (g.p, g.d) and table.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_owned_table_is_kept_and_a_view_is_copied():
    owned = np.array([[0, 1], [1, 3]], dtype=np.int64)
    g = BipartiteGraph(2, 4, 2, owned, "owned")
    assert g.neighbors is owned and not owned.flags.writeable
    base = np.array([[0, 1], [1, 3]], dtype=np.int64)
    g = BipartiteGraph(2, 4, 2, base[:, :], "view")
    base[0, 0] = 2                                  # the caller's array stays writable
    assert g.neighbors.tolist() == [[0, 1], [1, 3]] and not g.neighbors.flags.writeable
    for table in (np.array([[0, 1], [1, 3]], dtype=np.int32),
                  np.asfortranarray([[0, 1], [1, 3]])):
        g = BipartiteGraph(2, 4, 2, table, "converted")
        assert g.neighbors.dtype == np.int64 and g.neighbors.flags.c_contiguous
        assert g.neighbors.tolist() == [[0, 1], [1, 3]]


@pytest.mark.parametrize("table", [
    np.arange(3), np.zeros((3, 3), dtype=np.int64), np.zeros((2, 2), dtype=np.int64),
    np.zeros((3, 2, 1), dtype=np.int64), np.zeros((2, 3), dtype=np.int64),
    np.array([[0.0, 1.0]] * 3), np.array([[False, True]] * 3),
])
def test_array_table_of_wrong_shape_or_type_is_refused(table):
    message = "neighbor table must be a (3, 2) integer array"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BipartiteGraph(3, 4, 2, table, "bad")


def test_array_table_is_range_and_order_checked():
    with pytest.raises(ValueError, match=r"^left vertex 1 has a neighbor outside \[0, 4\)$"):
        BipartiteGraph(2, 4, 2, np.array([[0, 1], [2, 4]]), "bad")
    with pytest.raises(ValueError, match=r"^left vertex 0 has a neighbor outside \[0, 4\)$"):
        BipartiteGraph(2, 4, 2, np.array([[0, 2**64 - 1], [2, 3]], dtype=np.uint64), "bad")
    with pytest.raises(ValueError, match="^neighbor list of left vertex 1 is not strictly"):
        BipartiteGraph(2, 4, 2, np.array([[0, 1], [3, 3]]), "bad")


def test_index_past_int64_is_refused():
    # n is capped at MAX_SIDE for every graph, so no right vertex index can
    # pass int64; an entry past it is out of range (see the bad-table cases)
    side = graphs.MAX_SIDE
    g = BipartiteGraph(2, side, 2, [[0, 1], [5, side - 1]], "big")
    assert g.neighbors.tolist() == [[0, 1], [5, side - 1]]
    for n, build in ((side + 1, lambda n: BipartiteGraph(2, n, 2, [[0, 1], [5, 6]], "big")),
                     (2**64, lambda n: BipartiteGraph(2, n, 2, [[0, 1], [5, 2**63]], "big")),
                     (2**64, lambda n: random_left_regular(4, 2, n, seed=1)),
                     (side + 1, matching_graph)):
        with pytest.raises(CapacityError, match=f"^right side n = {n} exceeds limit {side}$"):
            build(n)


def test_every_graph_is_capped_like_a_construction(tmp_path, monkeypatch):
    save_graph(random_left_regular(3, 2, 5, seed=1), tmp_path / "g.json")
    monkeypatch.setattr(graphs, "MAX_TABLE", 5)
    with pytest.raises(CapacityError, match=r"^neighbor table p\*d = 3\*2 exceeds limit 5$"):
        load_graph(tmp_path / "g.json")
    monkeypatch.setattr(graphs, "MAX_SIDE", 4)
    monkeypatch.setattr(graphs, "MAX_TABLE", 6)
    with pytest.raises(CapacityError, match=r"^right side n = 5 exceeds limit 4$"):
        load_graph(tmp_path / "g.json")


def test_graph_equality_compares_every_field():
    g = random_left_regular(5, 2, 6, seed=1)
    table = g.neighbors.tolist()
    assert g == BipartiteGraph(5, 6, 2, table, g.provenance)
    assert g != BipartiteGraph(5, 7, 2, table, g.provenance)
    assert g != BipartiteGraph(5, 6, 2, table, "other")
    table[4] = [0, 1] if table[4] != [0, 1] else [0, 2]
    assert g != BipartiteGraph(5, 6, 2, table, g.provenance)
    assert g != BipartiteGraph(4, 6, 2, table[:4], g.provenance)
    assert g != table and g != "g"


def test_table_cap_is_checked_at_the_boundary(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_TABLE", 27)
    assert pv_expander(GF(3), 2, 1, 2).neighbors.size == 27       # p = 9, d = 3
    assert random_left_regular(9, 3, 5, seed=0).neighbors.size == 27
    assert matching_graph(27).p == 27
    monkeypatch.setattr(graphs, "MAX_TABLE", 26)
    for build in (lambda: pv_expander(GF(3), 2, 1, 2), lambda: matching_graph(27),
                  lambda: random_left_regular(9, 3, 5, seed=0)):
        with pytest.raises(CapacityError, match=r"^neighbor table p\*d = (9\*3|27\*1) "
                                                r"exceeds limit 26$"):
            build()


def test_oversized_tables_raise_before_allocating(monkeypatch):
    def no_arrays(*args, **kwargs):
        raise AssertionError("an array was built before the size check")

    gf = GF(2, 9)                                   # q = 512: p = 2**18, d = 512
    monkeypatch.setattr(np, "arange", no_arrays)    # every construction starts with one
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"^neighbor table p\*d = 262144\*512 "):
            pv_expander(gf, 2, 1, 2)
        with pytest.raises(CapacityError, match=r"^neighbor table p\*d = 1048576\*32 "):
            random_left_regular(1 << 20, 32, 1 << 20, seed=0)
        with pytest.raises(CapacityError, match=r"^neighbor table p\*d = 16777217\*1 "):
            matching_graph((1 << 24) + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- the graph file reader -----------------------------------------------------

def _outcome(read):
    """The graph ``read`` returns, or the type and message of what it raises."""
    try:
        return read()
    except Exception as exc:                        # every error must match the json path's
        return type(exc), str(exc)


def _near_files(text: str):
    """Files near a graph file's text: single-byte edits, other header
    values, other json layouts, bad or moved indices, blanked rows, extra
    and duplicate keys, truncations."""
    data = text.encode()
    for i in range(len(data)):
        yield data[:i] + data[i + 1:]
        for byte in b'05 \n,]"':
            yield data[:i] + bytes([byte]) + data[i + 1:]
            yield data[:i] + bytes([byte]) + data[i:]
    obj = json.loads(text)
    for key in "pnd":
        for value in (obj[key] - 1, obj[key] + 1):
            yield text.replace(f'"{key}": {obj[key]},', f'"{key}": {value},', 1).encode()
    yield (json.dumps(obj, indent=4) + "\n").encode()
    yield (json.dumps(obj, indent=1) + "\n").encode()
    yield json.dumps(obj).encode()
    yield json.dumps(obj, separators=(",", ":")).encode()
    yield text.replace("\n", "\r\n").encode()
    yield text.rstrip("\n").encode()
    yield (text + "\n").encode()
    last = str(obj["neighbors"][-1][-1])
    at = text.rindex(last)
    for index in ("0" + last, "-1", "true", "1.0", "1e1", "10000000", "00", " " + last):
        yield (text[:at] + index + text[at + len(last):]).encode()
    blank = text[:at] + text[at + len(last):]       # the last slot emptied ...
    for i in range(len(blank)):
        yield (blank[:i] + last + blank[i:]).encode()  # ... and its index moved
    row = text.rindex("[")
    blank = text[:row] + re.sub("[0-9]", "", text[row:])
    yield blank.encode()                                # the last row's slots emptied
    yield blank.replace(f'"p": {obj["p"]},', f'"p": {obj["p"] - 1},', 1).encode()
    yield text.replace("{\n", '{\n  "p": 99,\n', 1).encode()
    yield text.replace("{\n", '{\n  "x": [1],\n', 1).encode()
    yield text.replace('  "neighbors"', '  "p": 1,\n  "neighbors"', 1).encode()
    for cut in range(0, len(data), 7):
        yield data[:cut]


@pytest.mark.parametrize("make,block", [
    (lambda: random_left_regular(3, 2, 11, seed=1), 1),            # a window a row
    (lambda: random_left_regular(3, 2, 11, seed=1), 8),            # one or two rows
    (lambda: random_left_regular(3, 2, 11, seed=1), graphs._BLOCK_ENTRIES),
    (lambda: matching_graph(1), graphs._BLOCK_ENTRIES),
    (lambda: BipartiteGraph(2, 12, 3, [[0, 5, 11], [1, 10, 11]], 'a"\\é\n'), 1),
    (lambda: BipartiteGraph(4, graphs.MAX_SIDE, 2, [[0, 999999], [1000000, 1048575],
                                                    [1000001, 1000002], [1000003, 1000004]],
                            "wide"), 8),
    (lambda: random_left_regular(3, 3, 5, seed=0), graphs._BLOCK_ENTRIES),
], ids=["random-1", "random-8", "random", "matching1", "escapes-1", "7-digit-8", "1-digit"])
def test_graph_file_reader_agrees_with_the_json_path(tmp_path, monkeypatch, make, block):
    # every file the array path reads must give the json path's graph or error
    monkeypatch.setattr(graphs, "_BLOCK_ENTRIES", block)
    path = tmp_path / "g.json"
    g = make()
    save_graph(g, path)
    calls = []
    monkeypatch.setattr(graphs, "load_object", lambda p: calls.append(p) or load_object(p))
    assert load_graph(path) == g and not calls      # the writer's layout takes the array path
    for data in _near_files(graph_to_json_text(g) + "\n"):
        path.write_bytes(data)
        expected = _outcome(lambda: graph_from_json_dict(load_object(path)))
        assert _outcome(lambda: load_graph(path)) == expected, data


@pytest.mark.parametrize("field,value", [
    ("p", graphs.MAX_TABLE), ("p", graphs.MAX_TABLE + 1), ("d", graphs.MAX_TABLE),
    ("n", 99999999)])
def test_an_oversized_header_over_a_tiny_body_allocates_nothing(tmp_path, field, value):
    path = tmp_path / "g.json"
    path.write_text(graph_to_json_text(matching_graph(1)).replace(f'"{field}": 1,',
                                                                  f'"{field}": {value},')
                    + "\n")
    tracemalloc.start()
    try:
        outcome = _outcome(lambda: load_graph(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == _outcome(lambda: graph_from_json_dict(load_object(path)))
    assert isinstance(outcome, tuple) and peak < 1 << 20


def test_the_reader_builds_no_table_past_the_cap(tmp_path, monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built past the cap")

    save_graph(random_left_regular(3, 2, 5, seed=1), tmp_path / "g.json")
    monkeypatch.setattr(graphs, "MAX_TABLE", 5)
    monkeypatch.setattr(np, "empty", no_tables)     # the reader's table starts with one
    with pytest.raises(CapacityError, match=r"^neighbor table p\*d = 3\*2 exceeds limit 5$"):
        load_graph(tmp_path / "g.json")
