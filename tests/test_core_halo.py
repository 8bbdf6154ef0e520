"""Halo-plan bookkeeping verified against a brute-force reference."""

import numpy as np
import pytest

from repro.core import build_halo_plan
from repro.matrices import random_banded, random_sparse
from repro.sparse import CSRMatrix, partition_matrix, partition_rows_balanced


def _brute_force_needs(A, partition):
    """For each pair (p, q): the set of q-owned columns p's rows touch."""
    needs = {}
    dense_cols = [set() for _ in range(partition.nparts)]
    for p in range(partition.nparts):
        lo, hi = partition.bounds(p)
        cols = set()
        for i in range(lo, hi):
            for j in A.col_idx[A.row_ptr[i] : A.row_ptr[i + 1]]:
                j = int(j)
                if j < lo or j >= hi:
                    cols.add(j)
        for q in range(partition.nparts):
            qlo, qhi = partition.bounds(q)
            subset = sorted(c for c in cols if qlo <= c < qhi)
            if subset:
                needs[(p, q)] = subset
    return needs


@pytest.fixture(scope="module")
def matrix():
    return random_sparse(120, nnzr=6, seed=7)


def test_halo_plan_against_brute_force(matrix):
    partition = partition_matrix(matrix, 5)
    plan = build_halo_plan(matrix, partition, with_matrices=True)
    needs = _brute_force_needs(matrix, partition)
    for p, rh in enumerate(plan.ranks):
        # receive counts
        expected_recv = {q: len(cols) for (pp, q), cols in needs.items() if pp == p}
        assert dict(rh.recv_from) == expected_recv
        # send counts are the transpose
        expected_send = {pp: len(cols) for (pp, q), cols in needs.items() if q == p}
        assert dict(rh.send_to) == expected_send
        # halo columns enumerate exactly the needed set, sorted
        all_needed = sorted(c for (pp, _q), cols in needs.items() if pp == p for c in cols)
        assert rh.halo_columns.tolist() == all_needed
        # send indices address the correct owned elements
        lo, _hi = partition.bounds(p)
        for q, idx in rh.send_indices.items():
            assert (idx + lo).tolist() == needs[(q, p)]


def test_nnz_split_conserved(matrix):
    partition = partition_matrix(matrix, 4)
    plan = build_halo_plan(matrix, partition, with_matrices=False)
    assert sum(r.nnz for r in plan.ranks) == matrix.nnz
    for r in plan.ranks:
        assert r.nnz_local >= 0 and r.nnz_remote >= 0


def test_send_recv_volumes_globally_consistent(matrix):
    partition = partition_matrix(matrix, 6)
    plan = build_halo_plan(matrix, partition, with_matrices=False)
    assert sum(r.send_bytes for r in plan.ranks) == sum(r.recv_bytes for r in plan.ranks)
    assert plan.total_comm_bytes() == sum(r.send_bytes for r in plan.ranks)
    assert plan.total_messages() == sum(len(r.recv_from) for r in plan.ranks)


def test_single_rank_has_no_communication(matrix):
    plan = build_halo_plan(matrix, partition_rows_balanced(matrix.nrows, 1))
    rh = plan.ranks[0]
    assert rh.recv_from == [] and rh.send_to == []
    assert rh.nnz_remote == 0
    assert rh.n_halo == 0


def test_local_matrix_columns_compressed(matrix):
    partition = partition_matrix(matrix, 3)
    plan = build_halo_plan(matrix, partition, with_matrices=True)
    for rh in plan.ranks:
        assert rh.A_local.ncols == rh.n_rows
        if rh.A_local.nnz:
            assert int(rh.A_local.col_idx.max()) < rh.n_rows
        if rh.A_remote.nnz:
            assert int(rh.A_remote.col_idx.max()) < max(1, rh.n_halo)


def test_split_reproduces_matvec(matrix, rng):
    partition = partition_matrix(matrix, 4)
    plan = build_halo_plan(matrix, partition, with_matrices=True)
    x = rng.standard_normal(matrix.nrows)
    ref = matrix @ x
    for rh in plan.ranks:
        local_x = x[rh.row_lo : rh.row_hi]
        halo_x = x[rh.halo_columns] if rh.n_halo else np.zeros(1)
        y = rh.A_local @ local_x + rh.A_remote @ halo_x
        assert np.allclose(y, ref[rh.row_lo : rh.row_hi])


def test_banded_matrix_talks_to_neighbors_only():
    A = random_banded(400, halfwidth=20, nnzr=5, seed=1)
    partition = partition_rows_balanced(400, 8)
    plan = build_halo_plan(A, partition, with_matrices=False)
    for rh in plan.ranks:
        for q, _c in rh.recv_from:
            assert abs(q - rh.rank) == 1  # band < block size: nearest-neighbour


def test_comm_to_comp_ratio_orders_matrices(hmep_tiny, samg_tiny):
    p_h = build_halo_plan(hmep_tiny, partition_matrix(hmep_tiny, 6), with_matrices=False)
    p_s = build_halo_plan(samg_tiny, partition_matrix(samg_tiny, 6), with_matrices=False)
    # the paper's fundamental contrast: HMeP is communication-heavy
    assert p_h.comm_to_comp_ratio() > 2 * p_s.comm_to_comp_ratio()


def test_requires_square_and_matching_partition(matrix):
    from repro.sparse import CSRMatrix

    rect = CSRMatrix.from_dense(np.ones((4, 6)))
    with pytest.raises(ValueError, match="square"):
        build_halo_plan(rect, partition_rows_balanced(4, 2))
    with pytest.raises(ValueError, match="partition covers"):
        build_halo_plan(matrix, partition_rows_balanced(50, 2))


def test_halo_columns_always_populated(matrix):
    # metadata-only plans still carry the global halo column sets —
    # the communication planners (repro.comm) need them
    plan = build_halo_plan(matrix, partition_matrix(matrix, 4), with_matrices=False)
    for rh in plan.ranks:
        assert rh.halo_columns is not None
        assert rh.halo_columns.size == rh.n_halo


def test_cached_plan_refresh_keeps_live_neighbours(monkeypatch):
    import weakref

    from repro.core import halo as halo_mod

    monkeypatch.setattr(halo_mod, "_PLAN_CACHE_MAX", 2)
    monkeypatch.setattr(halo_mod, "_PLAN_CACHE", {})
    A = random_sparse(60, nnzr=4, seed=21)
    B = random_sparse(60, nnzr=4, seed=22)
    pb = halo_mod.cached_halo_plan(B, 2, with_matrices=False)
    pa = halo_mod.cached_halo_plan(A, 2, with_matrices=False)
    # cache is now at capacity.  Sour A's entry in place: the key exists
    # but its weakref resolves to a different live object (the id-reuse
    # case the weakref guards against), forcing a rebuild-and-refresh.
    key = (id(A), 2, "nnz", False)
    assert key in halo_mod._PLAN_CACHE
    halo_mod._PLAN_CACHE[key] = (weakref.ref(B), A.structure_fingerprint(), pa)
    halo_mod.cached_halo_plan(A, 2, with_matrices=False)
    # refreshing an existing key at capacity must not evict B's live plan
    assert halo_mod.cached_halo_plan(B, 2, with_matrices=False) is pb


class TestStaleCacheGuard:
    """The in-place-mutation bug the serve work flushed out: the plan
    cache used to key on matrix identity alone, so mutating the arrays
    of a cached matrix kept serving the *old* halo plan — wrong halos,
    wrong sub-matrices, silently wrong results."""

    def test_unchanged_matrix_still_hits(self):
        from repro.core.halo import cached_halo_plan

        A = random_sparse(80, nnzr=5, seed=31)
        plan = cached_halo_plan(A, 2)
        assert cached_halo_plan(A, 2) is plan  # identity + fingerprint match

    def test_in_place_mutation_rebuilds_plan(self):
        from repro.core.halo import cached_halo_plan

        A = random_sparse(80, nnzr=5, seed=31)
        B = random_sparse(80, nnzr=7, seed=32)
        stale = cached_halo_plan(A, 2)
        # mutate A's structure in place: same object, new sparsity
        A.row_ptr, A.col_idx, A.val = B.row_ptr, B.col_idx, B.val
        fresh = cached_halo_plan(A, 2)
        assert fresh is not stale  # pre-fix: identity hit returned `stale`
        assert fresh.nnz == B.nnz
        np.testing.assert_array_equal(
            fresh.ranks[0].A_local.col_idx,
            build_halo_plan(B, partition_matrix(B, 2)).ranks[0].A_local.col_idx,
        )

    def test_mutated_matrix_multiplies_correctly(self):
        # the end-to-end symptom: distributed results disagreed with the
        # serial kernel after an in-place structure change
        from repro.core.spmvm import distributed_spmv
        from repro.sparse import spmv

        A = random_sparse(120, nnzr=5, seed=33)
        x = np.arange(120, dtype=float)
        distributed_spmv(A, x, 3)  # populate the cache
        B = random_sparse(120, nnzr=8, seed=34)
        A.row_ptr, A.col_idx, A.val = B.row_ptr, B.col_idx, B.val
        # split local/remote summation order differs from serial by ulps;
        # the pre-fix bug produced *structurally* wrong results here
        np.testing.assert_allclose(distributed_spmv(A, x, 3), spmv(A, x), rtol=1e-12)

    def test_value_only_mutation_rebuilds_operator(self):
        # same staleness class one layer down: the kernel-operator cache
        # copies values at build time (e.g. SELL), so changing A.val in
        # place must invalidate it — structure fingerprints don't see it
        from repro.sparse import spmv
        from repro.sparse.registry import build_operator, get_kernel

        spec = get_kernel("sell")
        A = random_sparse(64, nnzr=4, seed=35)
        x = np.ones(64)
        op = build_operator(spec, A)
        y_before = spec.spmv(op, x)
        A.val = A.val * 2.0
        op2 = build_operator(spec, A)
        assert op2 is not op  # pre-fix: cached operator with old values
        np.testing.assert_allclose(spec.spmv(op2, x), spmv(A, x), rtol=1e-13)
        np.testing.assert_allclose(spec.spmv(op2, x), 2.0 * y_before, rtol=1e-13)


class TestValidByConstruction:
    """The structure caches key hits on (identity, version) instead of a
    checksum: CSRMatrix arrays are read-only and every reassignment of an
    array or ``ncols`` bumps ``version``, so no staleness goes unnoticed
    and a hit does no O(nnz) work."""

    ARRAYS = ("row_ptr", "col_idx", "val")

    @pytest.mark.parametrize("name", ARRAYS)
    def test_element_writes_raise_on_user_matrices(self, name):
        A = random_sparse(50, nnzr=4, seed=41)
        with pytest.raises(ValueError, match="read-only"):
            getattr(A, name)[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            getattr(A, name)[:] += 0

    @pytest.mark.parametrize("name", ARRAYS)
    def test_element_writes_raise_on_halo_sub_matrices(self, name):
        from repro.core.halo import cached_halo_plan

        plan = cached_halo_plan(random_sparse(90, nnzr=5, seed=42), 3)
        for rh in plan.ranks:
            for sub in (rh.A_local, rh.A_remote):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(sub, name)[0:1] = 0

    @pytest.mark.parametrize("name", (*ARRAYS, "ncols"))
    def test_each_reassignment_bumps_version_and_rebuilds(self, name):
        from repro.core.halo import cached_halo_plan
        from repro.serve import cached_model
        from repro.sparse.registry import build_operator

        A = random_sparse(80, nnzr=5, seed=43)
        plan = cached_halo_plan(A, 2)
        op = build_operator("sell", A)
        model = cached_model(A, 2)
        version = A.version
        setattr(A, name, getattr(A, name))  # same content, still a reassignment
        assert A.version > version
        assert cached_halo_plan(A, 2) is not plan
        assert build_operator("sell", A) is not op
        assert cached_model(A, 2) is not model
        assert cached_halo_plan(A, 2) is cached_halo_plan(A, 2)

    def test_view_over_writeable_buffer_is_copied(self):
        B = random_sparse(40, nnzr=4, seed=44)
        buf = np.concatenate([B.val, [7.0]])
        view = buf[:-1]
        A = CSRMatrix(B.row_ptr, B.col_idx, view, ncols=B.ncols)
        assert not np.shares_memory(A.val, buf)
        buf[0] += 1.0  # the caller's buffer stays writeable...
        np.testing.assert_array_equal(A.val, B.val)  # ...and cannot reach A
        assert buf.flags.writeable

    def test_slices_of_frozen_arrays_are_shared(self):
        # a view over a read-only buffer cannot change, so it is not copied
        A = random_sparse(40, nnzr=4, seed=45)
        top = A.extract_rows(0, 20)
        assert np.shares_memory(top.val, A.val)

    def test_reassigned_arrays_are_frozen(self):
        A = random_sparse(40, nnzr=4, seed=46)
        A.val = A.val * 2.0
        with pytest.raises(ValueError, match="read-only"):
            A.val[0] = 0.0

    def test_block_kernel_gathers_through_current_indices(self):
        # spmm takes from a private writeable copy of col_idx (numpy's take
        # copies read-only indices per call); it must follow reassignment
        from repro.sparse import spmm, spmv

        A = random_sparse(60, nnzr=4, seed=48)
        B = random_sparse(60, nnzr=6, seed=49)
        X = np.arange(120, dtype=float).reshape(60, 2)
        spmm(A, X)
        A.row_ptr, A.col_idx, A.val = B.row_ptr, B.col_idx, B.val
        np.testing.assert_array_equal(spmm(A, X)[:, 1], spmv(B, X[:, 1]))
        assert A.take_index().flags.writeable and not A.col_idx.flags.writeable
        assert not np.shares_memory(A.take_index(), A.col_idx)

    def test_cache_hits_do_no_checksum(self, monkeypatch):
        import zlib

        from repro.core.spmvm import distributed_spmv
        from repro.serve import cached_model
        from repro.sparse.registry import build_operator

        A = random_sparse(120, nnzr=5, seed=47)
        x = np.arange(120, dtype=float)
        y = distributed_spmv(A, x, 2)
        op = build_operator("sell", A)
        model = cached_model(A, 2)

        def no_crc32(*args, **kwargs):
            raise AssertionError("a cache hit streamed the matrix through crc32")

        monkeypatch.setattr(zlib, "crc32", no_crc32)
        for _ in range(2):
            np.testing.assert_array_equal(distributed_spmv(A, x, 2), y)
            assert build_operator("sell", A) is op
            assert cached_model(A, 2) is model
