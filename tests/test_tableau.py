import math
from itertools import groupby, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qaeopt.search
import qaeopt.tableau
from oracles import (
    brute_force_min_mi,
    brute_force_regular_set,
    candidate_swaps,
    canonicalize,
    grid_mutual_information,
    is_decreasing,
    is_regular,
    neighbors,
    positions,
    row_major,
    scalar_enumerate,
    sort_along,
    walk_grids,
)
from qaeopt import BipartiteDims, ValidationError, YoungTableau, count_regular, random_regular
from qaeopt.qstate import MAX_COUNT_CELLS, shannon_entropy
from qaeopt.tableau import regular_grid_walk

DIMS22 = BipartiteDims(2, 2)
DIMS23 = BipartiteDims(2, 3)


def tab(d_a, d_b, rows):
    return YoungTableau(BipartiteDims(d_a, d_b), tuple(tuple(r) for r in rows))


def descending_probs(n, seed):
    return np.sort(np.random.default_rng(seed).dirichlet(np.ones(n)))[::-1]


def suffix_shapes(store):
    """Row lengths of the shape each suffix completes: its empty cells per row."""
    return np.count_nonzero(store == 0, axis=2)


def assert_piece(store, prefixes, blocks, block):
    """One walk piece's structure: its prefixes are read-only; its blocks,
    all full but the last, cover them in order, each block a contiguous
    run going on from the prefix the last one ended on; and its last
    leaves are the suffixes of its last prefix's shape, in store order."""
    assert not prefixes.flags.writeable
    sizes = [len(prefix) for prefix, _ in blocks]
    assert all(k == block for k in sizes[:-1]) and 1 <= sizes[-1] <= block
    drawn = np.concatenate([prefix for prefix, _ in blocks])
    assert drawn[0] == 0 and drawn[-1] == len(prefixes) - 1
    assert np.isin(np.diff(drawn), (0, 1)).all()
    suffix = np.concatenate([suffix for _, suffix in blocks])
    assert len(suffix) == len(drawn) and suffix.max() < len(store)
    last = len(prefixes) - 1
    run = np.flatnonzero(np.all((store == 0) == (prefixes[last] > 0), axis=(1, 2)))
    assert suffix[drawn == last].tolist() == run.tolist()


def regular_tableaux(dims):
    """Every regular filling the exhaustive search scores, in its order: on a
    square grid, one of each transpose pair."""
    blocks = walk_grids(dims, qaeopt.search.LEAF_BLOCK)
    return [YoungTableau(dims, grid) for grids in blocks for grid in grids.tolist()]


class TestYoungTableau:
    def test_row_major(self):
        assert row_major(DIMS23) == ((1, 2, 3), (4, 5, 6))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            tab(2, 2, [[1, 2, 3], [4, 5, 6]])

    def test_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            tab(2, 2, [[1, 1], [2, 3]])

    def test_transpose(self):
        # Transposing keeps a filling regular: the exhaustive search's halving.
        t = tab(2, 3, [[1, 2, 4], [3, 5, 6]])
        flipped = tuple(zip(*t.cells))
        assert flipped == ((1, 3), (2, 5), (4, 6))
        assert is_regular(flipped)

    def test_positions(self):
        assert positions(((1, 3), (2, 4))) == ((0, 0), (1, 0), (0, 1), (1, 1))

    def test_cell_permutation(self):
        # Flat cell k holds value index_array.ravel()[k] + 1.
        t = tab(2, 3, [[1, 2, 4], [3, 5, 6]])
        assert t.index_array.ravel().tolist() == [0, 1, 3, 2, 4, 5]


class TestIsRegular:
    def test_row_major_is_regular(self):
        assert is_regular([[1, 2], [3, 4]])

    def test_column_filling_is_regular(self):
        assert is_regular([[1, 3], [2, 4]])

    def test_decreasing_row_is_not(self):
        assert not is_regular([[2, 1], [3, 4]])

    def test_decreasing_column_is_not(self):
        assert not is_regular([[1, 4], [2, 3]])  # column 1 holds 4 above 3


class TestEnumerate:
    def test_trivial_grid(self):
        assert [t.cells for t in regular_tableaux(BipartiteDims(1, 1))] == [((1,),)]

    def test_2x2_full(self):
        # A square grid walks one filling per transpose pair.
        [walked] = [t.cells for t in regular_tableaux(DIMS22)]
        assert {walked, tuple(zip(*walked))} == {((1, 2), (3, 4)), ((1, 3), (2, 4))}

    def test_2x3_matches_brute_force(self):
        assert {t.cells for t in regular_tableaux(DIMS23)} == brute_force_regular_set(2, 3)

    @pytest.mark.parametrize(
        "d_a,d_b",
        [(1, 1), (1, 6), (2, 2), (2, 3), (2, 4), (2, 6), (2, 9), (3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (5, 2)],
    )
    def test_stream_length_equals_hook_count(self, d_a, d_b):
        dims = BipartiteDims(d_a, d_b)
        assert count_regular(dims) <= 10**5
        pairs = 2 if d_a == d_b and dims.total > 1 else 1  # a square walks one per transpose pair
        assert sum(1 for _ in regular_tableaux(dims)) * pairs == count_regular(dims)

    def test_all_enumerated_are_regular(self):
        assert all(is_regular(t.cells) for t in regular_tableaux(BipartiteDims(3, 4)))

    def test_enumeration_yields_no_duplicates(self):
        ts = [t.cells for t in regular_tableaux(BipartiteDims(3, 4))]
        assert len(ts) == len(set(ts))

    @pytest.mark.parametrize(
        "d_a,d_b",
        [(d_a, d_b) for d_a in range(1, 4) for d_b in range(1, 5)] + [(4, 4), (2, 9), (5, 3)],
    )
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize(
        "block,cap",
        [
            pytest.param(block, cap, id=f"{block}" if cap is None else f"{block}-cap{cap}")
            for cap in (None, 4, 64)
            for block in (None, 1, 3)
        ],
    )
    def test_order_matches_recursive_reference(
        self, d_a, d_b, transposed, block, cap, monkeypatch
    ):
        if cap is not None:  # a small cap joins every grid from prefixes and suffixes
            monkeypatch.setattr(qaeopt.tableau, "SUFFIX_CAP", cap)
        dims = BipartiteDims(d_b, d_a) if transposed else BipartiteDims(d_a, d_b)
        want = list(scalar_enumerate(dims, d_a == d_b))
        block = block or qaeopt.search.LEAF_BLOCK
        # Small caps and blocks split the prefix walk into pieces, each cut
        # into blocks on its own, so only a piece's last block may be short.
        store, pieces = regular_grid_walk(dims, block)
        pieces = [(prefixes, list(blocks)) for prefixes, blocks in pieces]
        for prefixes, blocks in pieces:
            assert_piece(store, prefixes, blocks, block)
        # The next piece starts on another prefix than the last one ended on.
        for (before, _), (after, _) in zip(pieces, pieces[1:]):
            assert not np.array_equal(after[0], before[-1])
        got = [
            tuple(map(tuple, grid))
            for prefixes, blocks in pieces
            for prefix, suffix in blocks
            for grid in (prefixes[prefix] + store[suffix]).tolist()
        ]
        assert got == want

    @pytest.mark.parametrize(
        "d_a,d_b,count,stored,prefixes",
        [
            pytest.param(*case, id="-".join(map(str, case[:3])))
            for case in [(4, 4, 6, 412, 206), (3, 5, 3, 120, 274), (3, 6, 43, 771, 771), (2, 12, 102, 924, 924)]
        ],
    )
    def test_benchmark_shapes_walk_in_one_piece(self, d_a, d_b, count, stored, prefixes):
        # At the default cap and LEAF_BLOCK every block but the last is full,
        # and the split keeps the store no larger than the prefix array. The
        # benchmark runs the first three. At (2,12) the store held 12,310
        # suffixes for 70 prefixes before it was capped at half the values.
        dims = BipartiteDims(d_a, d_b)
        block = qaeopt.search.LEAF_BLOCK
        store, pieces = regular_grid_walk(dims, block)
        [(piece, blocks)] = [(piece, list(blocks)) for piece, blocks in pieces]
        assert len(blocks) == count
        assert_piece(store, piece, blocks, block)
        assert (len(store), len(piece)) == (stored, prefixes)

    @pytest.mark.parametrize(
        "d_a,d_b,pieces,blocks,leaves,stored",
        [
            pytest.param(*case, id="-".join(map(str, case[:2])))
            for case in [(3, 7, 4, 679, 1_385_670, 2_107), (4, 5, 16, 821, 1_662_804, 539),
                         (2, 15, 4, 4_737, 9_694_845, 6_435)]
        ],
    )
    def test_readme_shapes_walk_in_several_pieces(self, d_a, d_b, pieces, blocks, leaves, stored):
        # The counts the README gives; (2,15) is the largest grid the default
        # threshold routes to exhaustive traversal. Blocks are counted as they
        # come: 2x15's index arrays all at once would take 155 MB.
        dims = BipartiteDims(d_a, d_b)
        store, walk = regular_grid_walk(dims, qaeopt.search.LEAF_BLOCK)
        counts = [0, 0, 0]
        for _, piece_blocks in walk:
            counts[0] += 1
            for prefix, _ in piece_blocks:
                counts[1] += 1
                counts[2] += len(prefix)
        assert counts == [pieces, blocks, leaves] and leaves == count_regular(dims)
        assert len(store) == stored

    @pytest.mark.parametrize(
        "d_a,d_b",
        [(1, 1), (1, 2), (1, 7), (1, 300), (6, 1), (2, 2), (2, 3), (3, 3), (2, 8), (2, 15), (2, 20),
         (3, 5), (3, 7), (4, 4), (4, 5), (5, 5), (8, 8), (3, 20)],
    )
    @pytest.mark.parametrize("transposed", [False, True])
    def test_suffix_length_is_balanced(self, d_a, d_b, transposed):
        # t, the values kept as suffixes, is the largest count with
        # m**t <= SUFFIX_CAP and t <= n // 2 for m = min(d_a, d_b) > 1; a
        # single row or column keeps every value after the pinned ones.
        dims = BipartiteDims(d_b, d_a) if transposed else BipartiteDims(d_a, d_b)
        n, m, cap = dims.total, min(d_a, d_b), qaeopt.tableau.SUFFIX_CAP
        store, _ = regular_grid_walk(dims, 2048)
        t = np.count_nonzero(store[0])
        pinned = 2 if d_a == d_b and n > 1 else 0
        if m == 1:
            assert t == n - pinned
        else:
            assert t <= n // 2 and m**t <= cap
            assert t == n // 2 or m ** (t + 1) > cap

    @pytest.mark.parametrize("d_a,d_b", [(1, 5), (5, 1), (2, 6), (3, 4), (4, 4), (5, 3)])
    @pytest.mark.parametrize("block,cap", [(1, 4), (3, 4), (7, 64), (2048, None)])
    def test_pieces_cover_their_prefixes_from_one_store(self, d_a, d_b, block, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(qaeopt.tableau, "SUFFIX_CAP", cap)
        walk, walked = qaeopt.tableau._walk, []

        def counting_walk(*args):  # the store's walk, then the prefix walk
            for lengths, grids in walk(*args):
                walked.append(len(grids))
                yield lengths, grids

        monkeypatch.setattr(qaeopt.tableau, "_walk", counting_walk)
        store, pieces = regular_grid_walk(BipartiteDims(d_a, d_b), block)
        assert not store.flags.writeable
        sizes = []  # each piece's prefix count
        for prefixes, blocks in pieces:
            blocks = list(blocks)
            assert_piece(store, prefixes, blocks, block)
            sizes.append(len(prefixes))
            for prefix, suffix in blocks:
                # A prefix and its suffix fill disjoint cells, and together all of them.
                assert not np.any((prefixes[prefix] > 0) & (store[suffix] > 0))
                assert np.all((prefixes[prefix] > 0) | (store[suffix] > 0))
        # Each piece holds the prefixes of one piece of the prefix walk.
        assert sizes == walked[1:]

    @pytest.mark.parametrize("d_a,d_b,cap", [(2, 15, 2**16), (3, 7, 2**16), (4, 4, 64), (5, 3, 64)])
    def test_suffix_cache_holds_at_most_cap_grids(self, d_a, d_b, cap, monkeypatch):
        monkeypatch.setattr(qaeopt.tableau, "SUFFIX_CAP", cap)
        dims = BipartiteDims(d_a, d_b)
        store, pieces = regular_grid_walk(dims, 2048)
        leaves = sum(len(prefix) for _, blocks in pieces for prefix, _ in blocks)
        assert leaves == count_regular(dims) // (2 if d_a == d_b else 1)
        assert len(store) <= cap
        # Each shape stored once: its suffixes are one run, and no grid repeats.
        runs = [key for key, _ in groupby(row.tobytes() for row in suffix_shapes(store))]
        assert len(set(runs)) == len(runs) > 1
        assert len({grid.tobytes() for grid in store}) == len(store)

    @pytest.mark.parametrize(
        "d_a,d_b", [(1, 5), (5, 1), (2, 2), (3, 3), (4, 4), (3, 5), (5, 3), (2, 9)]
    )
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("cap", [4, 64, None])
    def test_shape_walk_finds_every_prefix_shape(self, d_a, d_b, transposed, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(qaeopt.tableau, "SUFFIX_CAP", cap)
        dims = BipartiteDims(d_b, d_a) if transposed else BipartiteDims(d_a, d_b)
        store, pieces = regular_grid_walk(dims, 3)
        # The pieces hold every prefix the prefix walk yields; every shape has a suffix.
        prefix_shapes = {
            row.tobytes() for prefixes, _ in pieces for row in np.count_nonzero(prefixes, axis=2)
        }
        assert prefix_shapes == {row.tobytes() for row in suffix_shapes(store)}

    @pytest.mark.parametrize("d_a,d_b", [(1, 5), (5, 1), (3, 3), (4, 4), (3, 5), (5, 3), (2, 9)])
    @pytest.mark.parametrize("cap", [4, 64, None])
    def test_store_runs_equal_each_shapes_own_walk(self, d_a, d_b, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(qaeopt.tableau, "SUFFIX_CAP", cap)
        dims = BipartiteDims(d_a, d_b)
        store, _ = regular_grid_walk(dims, 3)
        n, limit = dims.total, qaeopt.tableau.SUFFIX_CAP
        mid = n + 1 - np.count_nonzero(store[0])
        assert store.dtype == np.min_scalar_type(n)
        shapes = suffix_shapes(store)
        start = 0
        for _, run in groupby(row.tolist() for row in shapes):
            lengths = np.array([[d_b, *next(run)]], dtype=np.min_scalar_type(d_b))
            empty = np.zeros((1, n), dtype=store.dtype)
            own = np.concatenate(
                [grids for _, grids in qaeopt.tableau._walk(lengths, empty, mid, n + 1, limit)]
            ).reshape(-1, d_a, d_b)
            assert own.dtype == store.dtype
            assert np.array_equal(store[start : start + len(own)], own)
            start += len(own)
        assert start == len(store)

    @pytest.mark.parametrize("d_a,d_b", [(2, 6), (3, 4), (4, 4)])
    def test_store_and_prefixes_are_read_only(self, d_a, d_b):
        store, pieces = regular_grid_walk(BipartiteDims(d_a, d_b), 5)
        pieces = [(prefixes, list(blocks)) for prefixes, blocks in pieces]
        assert len(pieces) > 1
        # Every leaf shares the store, so no consumer may write to it; nor to
        # a piece's prefixes, which the piece's blocks share.
        assert not store.flags.writeable
        assert not any(prefixes.flags.writeable for prefixes, _ in pieces)

    @pytest.mark.parametrize("d", [2, 3])
    def test_symmetry_halving(self, d):
        dims = BipartiteDims(d, d)
        full = set(scalar_enumerate(dims))
        half = regular_tableaux(dims)
        assert len(half) == count_regular(dims) // 2
        assert all(t.cells[0][1] == 2 for t in half)
        reps = {t.cells for t in half}
        flipped = {tuple(zip(*t.cells)) for t in half}
        assert reps | flipped == full and not reps & flipped


class TestCount:
    @pytest.mark.parametrize("d_a,d_b,expected", [(2, 2, 2), (2, 3, 5), (3, 3, 42), (2, 4, 14), (1, 5, 1)])
    def test_known_counts(self, d_a, d_b, expected):
        assert count_regular(BipartiteDims(d_a, d_b)) == expected

    def test_table_value_2x18(self):
        count = count_regular(BipartiteDims(2, 18))
        assert count == 477638700
        assert count == math.comb(36, 18) // 19  # 18th Catalan number

    def test_transpose_symmetry(self):
        assert count_regular(BipartiteDims(3, 7)) == count_regular(BipartiteDims(7, 3))

    def test_cell_cap(self):
        # A grid of exactly MAX_COUNT_CELLS cells is counted; one more is not.
        assert count_regular(BipartiteDims(1, MAX_COUNT_CELLS)) == 1
        assert count_regular(BipartiteDims(2, MAX_COUNT_CELLS // 2)) == math.comb(
            MAX_COUNT_CELLS, MAX_COUNT_CELLS // 2
        ) // (MAX_COUNT_CELLS // 2 + 1)
        for d_a, d_b in [(1, MAX_COUNT_CELLS + 1), (MAX_COUNT_CELLS + 1, 1), (600, 600)]:
            with pytest.raises(ValidationError, match="supported maximum"):
                count_regular(BipartiteDims(d_a, d_b))


class TestRandomRegular:
    def test_single_row_is_unique(self):
        for n in (1, 4, 7):
            t = random_regular(BipartiteDims(1, n), 0)
            assert t.cells == (tuple(range(1, n + 1)),)

    def test_2x2_support(self):
        counts = {((1, 2), (3, 4)): 0, ((1, 3), (2, 4)): 0}
        for i in range(300):
            counts[random_regular(DIMS22, np.random.SeedSequence((0, i))).cells] += 1
        # Per-step-uniform sampling only guarantees support; value 2 picks its
        # row by one fair uniform, so 300 fixed seeds show both fillings.
        assert all(c > 0 for c in counts.values())

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_draws_are_regular(self, seed):
        assert is_regular(random_regular(BipartiteDims(4, 4), seed).cells)

    def test_deterministic_given_seed(self):
        a = random_regular(BipartiteDims(4, 4), 42)
        b = random_regular(BipartiteDims(4, 4), 42)
        assert a.cells == b.cells

    @pytest.mark.parametrize("seed", [0, 42, np.random.SeedSequence((3, 1))])
    def test_generator_gives_the_tableau_of_its_seed(self, seed):
        dims = BipartiteDims(4, 4)
        assert random_regular(dims, np.random.default_rng(seed)).cells == random_regular(dims, seed).cells


def naive_neighbors(t):
    """Reference neighbourhood: apply every move, keep regular results."""
    out, seen = [], set()
    pos = positions(t.cells)
    for u, w in candidate_swaps(t.dims.total):
        grid = [list(r) for r in t.cells]
        (r1, c1), (r2, c2) = pos[u - 1], pos[w - 1]
        grid[r1][c1], grid[r2][c2] = grid[r2][c2], grid[r1][c1]
        cells = tuple(tuple(r) for r in grid)
        if is_regular(cells) and cells not in seen:
            seen.add(cells)
            out.append(cells)
    return out


class TestNeighbors:
    def test_2x2_example(self):
        result = neighbors(tab(2, 2, [[1, 2], [3, 4]]))
        assert [t.cells for t in result] == [((1, 3), (2, 4))]

    def test_single_row_has_none(self):
        dims = BipartiteDims(1, 5)
        assert neighbors(YoungTableau(dims, row_major(dims))) == ()

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_reference(self, seed):
        t = random_regular(BipartiteDims(3, 4), seed)
        assert [n.cells for n in neighbors(t)] == naive_neighbors(t)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_all_regular(self, seed):
        t = random_regular(BipartiteDims(4, 4), seed)
        assert all(is_regular(n.cells) for n in neighbors(t))


class TestArrange:
    """``p[t.index_array]`` lays descending probabilities into a tableau's grid:
    the cell holding value k gets the k-th largest."""

    def test_uniform_probs(self):
        assert np.allclose(np.full(4, 0.25)[tab(2, 2, [[1, 3], [2, 4]]).index_array], 0.25)

    def test_row_major_placement(self):
        p = np.array([0.5, 0.3, 0.15, 0.05])
        assert p[tab(2, 2, [[1, 2], [3, 4]]).index_array].tolist() == [[0.5, 0.3], [0.15, 0.05]]

    def test_column_major_placement(self):
        p = np.array([0.5, 0.3, 0.15, 0.05])
        assert p[tab(2, 2, [[1, 3], [2, 4]]).index_array].tolist() == [[0.5, 0.15], [0.3, 0.05]]

    def test_decreasing_iff_regular(self):
        probs = np.array([0.4, 0.25, 0.15, 0.1, 0.06, 0.04])
        for perm in permutations(range(1, 7)):
            t = tab(2, 3, [perm[:3], perm[3:]])
            assert is_decreasing(probs[t.index_array]) == is_regular(t.cells)


class TestTableauMI:
    def test_uniform_grid_zero(self):
        assert abs(grid_mutual_information(np.full((2, 2), 0.25))) < 1e-12

    def test_single_row_weight_zero(self):
        assert abs(grid_mutual_information([[0.5, 0.5], [0.0, 0.0]])) < 1e-12

    def test_perfectly_correlated(self):
        assert abs(grid_mutual_information([[0.5, 0.0], [0.0, 0.5]]) - math.log(2)) < 1e-12

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, seed):
        # The search's kernel against the oracle on an arranged spectrum.
        probs, t = descending_probs(6, seed), random_regular(DIMS23, seed)
        mi = qaeopt.search._block_mi(probs, np.array([t.cells]), shannon_entropy(probs))[0]
        assert abs(mi - grid_mutual_information(probs[t.index_array])) < 1e-12


def moved(mapping, grid):
    """The grid with the entry of flat cell k moved to flat cell mapping[k]."""
    out = np.empty(grid.size)
    out[mapping] = grid.ravel()
    return out.reshape(grid.shape)


def random_grid(seed, max_side=6):
    rng = np.random.default_rng(seed)
    d_a = int(rng.integers(1, max_side + 1))
    d_b = int(rng.integers(1, max_side + 1))
    return rng.dirichlet(np.ones(d_a * d_b)).reshape(d_a, d_b)


class TestCanonicalization:
    def test_already_decreasing(self):
        grid = np.array([[0.5, 0.2], [0.2, 0.1]])
        column_map, row_map, out, passes = canonicalize(grid)
        assert passes == 1
        assert column_map.tolist() == row_map.tolist() == [0, 1, 2, 3]
        assert np.array_equal(out, grid)

    def test_2x2_example(self):
        *_, out, _ = canonicalize([[0.05, 0.3], [0.15, 0.5]])
        assert out.tolist() == [[0.5, 0.15], [0.3, 0.05]]

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_reaches_decreasing_and_reconstructs(self, seed):
        grid = random_grid(seed)
        column_map, row_map, out, passes = canonicalize(grid)
        assert is_decreasing(out)
        assert passes <= 3
        assert np.array_equal(moved(row_map, moved(column_map, grid)), out)
        assert sorted(out.ravel()) == sorted(grid.ravel())

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_each_pass_lowers_mi(self, seed):
        grid = random_grid(seed)
        for axis in (0, 1, 0):
            before = grid_mutual_information(grid)
            _, grid = sort_along(grid, axis)
            assert grid_mutual_information(grid) <= before + 1e-12


class TestSearchSpaceReduction:
    """Minimizing over regular tableaux only loses nothing vs all arrangements."""

    @pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("seed", range(8))
    def test_regular_minimum_equals_global_minimum(self, d_a, d_b, seed):
        dims = BipartiteDims(d_a, d_b)
        probs = descending_probs(dims.total, seed)
        regular_min = min(grid_mutual_information(probs[t.index_array]) for t in regular_tableaux(dims))
        assert abs(regular_min - brute_force_min_mi(probs, d_a, d_b)) < 1e-12
