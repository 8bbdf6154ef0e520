"""Lanczos and CG: convergence, accuracy, distributed equivalence."""

import numpy as np
import pytest

from repro.core import build_halo_plan, scatter_vector
from repro.core.spmvm import lower_comm_plan
from repro.matrices import poisson_2d, random_sparse
from repro.mpilite import PerRank, run_spmd
from repro.solvers import (
    CGResult,
    DistributedOperator,
    SerialOperator,
    conjugate_gradient,
    ground_state,
    lanczos,
    spectral_bounds,
)
from repro.sparse import CSRMatrix, partition_matrix


@pytest.fixture(scope="module")
def sym_matrix(hmep_tiny):
    return hmep_tiny


def test_lanczos_lowest_eigenvalues(sym_matrix):
    op = SerialOperator(sym_matrix)
    res = lanczos(op, max_iter=150, tol=1e-9, n_eigenvalues=3)
    dense = np.sort(np.linalg.eigvalsh(sym_matrix.to_dense()))
    assert np.allclose(res.eigenvalues, dense[:3], atol=1e-7)
    assert np.all(res.residuals <= 1e-8)


def test_lanczos_ritz_vector(sym_matrix):
    op = SerialOperator(sym_matrix)
    energy, vec = ground_state(op, max_iter=150, tol=1e-10, want_vector=True)
    assert vec is not None
    resid = np.linalg.norm(sym_matrix @ vec - energy * vec)
    assert resid < 1e-6
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-10)


def test_lanczos_invariant_subspace_early_exit():
    # identity matrix: converges in one step
    op = SerialOperator(CSRMatrix.identity(20))
    res = lanczos(op, max_iter=50)
    assert res.eigenvalues[0] == pytest.approx(1.0)
    assert res.iterations <= 2


def test_lanczos_deterministic_seed(sym_matrix):
    op = SerialOperator(sym_matrix)
    a = lanczos(op, max_iter=40, seed=3)
    b = lanczos(op, max_iter=40, seed=3)
    assert np.array_equal(a.alpha, b.alpha)


def test_lanczos_zero_start_rejected(sym_matrix):
    op = SerialOperator(sym_matrix)
    with pytest.raises(ValueError, match="nonzero"):
        lanczos(op, v0=np.zeros(sym_matrix.nrows))


def test_spectral_bounds_enclose_spectrum(sym_matrix):
    lo, hi = spectral_bounds(SerialOperator(sym_matrix))
    w = np.linalg.eigvalsh(sym_matrix.to_dense())
    assert lo <= w[0] + 1e-6
    assert hi >= w[-1] - 1e-6


def test_distributed_lanczos_equals_serial(sym_matrix):
    partition = partition_matrix(sym_matrix, 3)
    plan = build_halo_plan(sym_matrix, partition, with_matrices=True)
    rng = np.random.default_rng(5)
    v0 = rng.standard_normal(sym_matrix.nrows)

    def fn(comm, halo):
        op = DistributedOperator(comm, halo)
        return lanczos(op, max_iter=120, tol=1e-9,
                       v0=scatter_vector(v0, partition, comm.rank)).ground_energy

    energies = run_spmd(3, fn, PerRank(plan.ranks))
    serial = lanczos(SerialOperator(sym_matrix), max_iter=120, tol=1e-9, v0=v0).ground_energy
    assert np.allclose(energies, serial, atol=1e-9)


# ----------------------------------------------------------------------
# CG
# ----------------------------------------------------------------------
def test_cg_solves_poisson(rng):
    A = poisson_2d(15)
    x_true = rng.standard_normal(A.nrows)
    b = A @ x_true
    res = conjugate_gradient(SerialOperator(A), b, tol=1e-10, max_iter=2000)
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-6)
    assert res.residual_history[-1] <= 1e-10
    assert res.residual_history[0] == pytest.approx(1.0)


def test_cg_zero_rhs():
    A = poisson_2d(5)
    res = conjugate_gradient(SerialOperator(A), np.zeros(A.nrows))
    assert res.converged and res.iterations == 0
    assert np.all(res.x == 0)


def test_cg_initial_guess(rng):
    A = poisson_2d(10)
    x_true = rng.standard_normal(A.nrows)
    b = A @ x_true
    exact_start = conjugate_gradient(SerialOperator(A), b, x0=x_true.copy(), tol=1e-10)
    assert exact_start.iterations == 0
    assert exact_start.converged


def test_cg_detects_indefinite_operator(rng):
    d = np.diag(np.concatenate([np.ones(5), -np.ones(5)]))
    A = CSRMatrix.from_dense(d)
    b = rng.standard_normal(10)
    with pytest.raises(ValueError, match="positive definite"):
        conjugate_gradient(SerialOperator(A), b, max_iter=50)


def test_cg_jacobi_preconditioner_helps(rng):
    # badly scaled SPD system: diagonal preconditioning must reduce iterations
    n = 200
    scale = np.logspace(0, 4, n)
    A_dense = np.diag(scale)
    A_dense[0, 1] = A_dense[1, 0] = 1.0
    A = CSRMatrix.from_dense(A_dense)
    b = rng.standard_normal(n)
    plain = conjugate_gradient(SerialOperator(A), b, tol=1e-10, max_iter=5000)
    inv_diag = 1.0 / scale
    precond = conjugate_gradient(
        SerialOperator(A), b, tol=1e-10, max_iter=5000,
        preconditioner=lambda r: inv_diag * r,
    )
    assert precond.iterations < plain.iterations


def test_cg_rhs_shape_validated():
    A = poisson_2d(4)
    with pytest.raises(ValueError, match="shape"):
        conjugate_gradient(SerialOperator(A), np.zeros(3))


def test_distributed_cg_equals_serial(samg_tiny, rng):
    b = samg_tiny @ rng.standard_normal(samg_tiny.nrows)
    serial = conjugate_gradient(SerialOperator(samg_tiny), b, tol=1e-9, max_iter=3000)
    partition = partition_matrix(samg_tiny, 4)
    plan = build_halo_plan(samg_tiny, partition, with_matrices=True)

    def fn(comm, halo):
        op = DistributedOperator(comm, halo, scheme="no_overlap")
        res = conjugate_gradient(op, scatter_vector(b, partition, comm.rank),
                                 tol=1e-9, max_iter=3000)
        return res.x, res.iterations

    out = run_spmd(4, fn, PerRank(plan.ranks))
    x_dist = np.concatenate([o[0] for o in out])
    # distributed reductions sum in a different order, so iteration counts
    # may differ by a round-off-induced step or two
    assert abs(out[0][1] - serial.iterations) <= 2
    assert np.allclose(x_dist, serial.x, atol=1e-7)


def test_distributed_cg_node_aware_bit_identical(samg_tiny, rng):
    # the node-aware exchange only re-routes copies, so every CG iterate
    # — and hence the solution — is bit-identical to the classic path
    b = samg_tiny @ rng.standard_normal(samg_tiny.nrows)
    partition = partition_matrix(samg_tiny, 4)
    plan = build_halo_plan(samg_tiny, partition, with_matrices=True)
    cplan = lower_comm_plan(plan, 4, "node-aware", ranks_per_node=2)

    def fn(comm, halo, use_plan):
        op = DistributedOperator(comm, halo, scheme="task_mode",
                                 comm_plan=cplan if use_plan else None)
        res = conjugate_gradient(op, scatter_vector(b, partition, comm.rank),
                                 tol=1e-9, max_iter=3000)
        return res.x, res.iterations

    classic = run_spmd(4, lambda c, h: fn(c, h, False), PerRank(plan.ranks))
    node_aware = run_spmd(4, lambda c, h: fn(c, h, True), PerRank(plan.ranks))
    for (xc, itc), (xn, itn) in zip(classic, node_aware):
        assert itc == itn
        assert np.array_equal(xc, xn)


def test_distributed_operator_counts_only_accepted_calls(samg_tiny, rng):
    A = samg_tiny
    plan = build_halo_plan(A, partition_matrix(A, 2))
    x = rng.standard_normal(A.nrows)

    def fn(comm, halo):
        op = DistributedOperator(comm, halo, scheme="no_overlap")
        with pytest.raises(ValueError):
            op.matvec_chain(scatter_vector(x, plan.partition, comm.rank), -2)
        with pytest.raises(ValueError):
            op.matvec(np.zeros(halo.n_rows + 1))
        rejected = dict(op.counters)
        op.matvec(scatter_vector(x, plan.partition, comm.rank))
        return rejected, dict(op.counters), len(halo.send_to)

    for rejected, accepted, peers in run_spmd(2, fn, PerRank(plan.ranks)):
        assert rejected == {"exchanges": 0, "messages": 0, "reductions": 0}
        assert accepted == {"exchanges": 1, "messages": peers, "reductions": 0}
