"""Holstein-Hubbard Hamiltonian matrices (the paper's first test case).

The model (Sect. 1.3.1, Ref. [12]) describes electrons on a ring coupled
to local lattice vibrations::

    H = -t Σ_{<i,j>,σ} (c†_iσ c_jσ + h.c.)      kinetic energy
        + U Σ_i n_i↑ n_i↓                       Hubbard repulsion
        + ω0 Σ_m b†_m b_m                       phonon energy
        + g Σ_m (n_m - 1) (b†_m + b_m)          Holstein coupling

on the tensor product of an electronic basis (``C(L, n↑)·C(L, n↓)``
states) and a truncated phononic basis.  The paper's instance: 6
electrons on 6 sites (dimension 400) with 15 phonons in a 5-mode
truncated basis (dimension 15 504), total dimension 6 201 600 with
Nnz = 92 527 872 (Nnzr ≈ 15).

Two *orderings* of the same Hamiltonian are produced, matching Fig. 1:

* ``HMEp`` — phononic basis elements numbered contiguously (electron
  index slow): the electron hopping connects distant rows, giving the
  scattered pattern of Fig. 1(a) and the larger κ = 3.79.
* ``HMeP`` — electronic basis elements numbered contiguously (electron
  index fast): the narrow banded pattern of Fig. 1(b) with κ = 2.5,
  used for all benchmark runs in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from repro.matrices.fock import BosonBasis, FermionBasis
from repro.sparse.csr import CSRMatrix
from repro.sparse.kron import kron, kron_diag_left
from repro.util import check_in

__all__ = ["HolsteinHubbardParams", "build_holstein_hubbard", "ring_bonds"]


def ring_bonds(n_sites: int, periodic: bool = True) -> list[tuple[int, int]]:
    """Nearest-neighbour bonds of a 1-D chain, optionally closed to a ring."""
    bonds = [(i, i + 1) for i in range(n_sites - 1)]
    if periodic and n_sites > 2:
        bonds.append((0, n_sites - 1))
    return bonds


@dataclass(frozen=True)
class HolsteinHubbardParams:
    """Model and basis parameters for :func:`build_holstein_hubbard`.

    The defaults give a small instance; :func:`paper_params` below returns
    the paper's full configuration.  ``n_phonon_modes`` may be smaller than
    ``n_sites`` — the paper works with 5 effective modes for 6 sites (the
    uniform q=0 mode couples only to the conserved total charge and is
    dropped).
    """

    n_sites: int = 6
    n_up: int = 3
    n_dn: int = 3
    n_phonon_modes: int = 3
    max_phonons: int = 6
    phonon_truncation: str = "atmost"
    hopping_t: float = 1.0
    hubbard_u: float = 4.0
    omega0: float = 1.0
    coupling_g: float = 0.5
    periodic: bool = True
    bonds: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        check_in(self.phonon_truncation, ("atmost", "exact"), "phonon_truncation")
        if self.n_phonon_modes > self.n_sites:
            raise ValueError("n_phonon_modes cannot exceed n_sites")

    @property
    def electron_basis(self) -> FermionBasis:
        """The electronic factor basis."""
        return FermionBasis(self.n_sites, self.n_up, self.n_dn)

    @property
    def phonon_basis(self) -> BosonBasis:
        """The phononic factor basis."""
        return BosonBasis(self.n_phonon_modes, self.max_phonons, self.phonon_truncation)

    @property
    def electron_dim(self) -> int:
        """Dimension of the electronic subspace."""
        return self.electron_basis.dim

    @property
    def phonon_dim(self) -> int:
        """Dimension of the phononic subspace."""
        return self.phonon_basis.dim

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.electron_dim * self.phonon_dim

    def effective_bonds(self) -> list[tuple[int, int]]:
        """The hopping bonds: explicit ``bonds`` if given, else a chain/ring."""
        if self.bonds:
            return list(self.bonds)
        return ring_bonds(self.n_sites, self.periodic)


def paper_params() -> HolsteinHubbardParams:
    """The paper's full-scale configuration: dimension 6 201 600.

    6 sites, 3+3 electrons (400 states) ⊗ 5 phonon modes with at most 15
    phonons (C(20,5) = 15 504 states).
    """
    p = HolsteinHubbardParams(
        n_sites=6, n_up=3, n_dn=3,
        n_phonon_modes=5, max_phonons=15, phonon_truncation="atmost",
    )
    assert p.electron_dim == comb(6, 3) ** 2 == 400
    assert p.phonon_dim == comb(20, 5) == 15504
    return p


def _electron_hamiltonian(params: HolsteinHubbardParams) -> CSRMatrix:
    """Electronic part: hopping + Hubbard-U diagonal."""
    basis = params.electron_basis
    h = basis.hopping_matrix(params.effective_bonds(), params.hopping_t)
    u_diag = params.hubbard_u * basis.double_occupancy_diagonal()
    return h.add(_diag_csr(u_diag))


def _diag_csr(diag) -> CSRMatrix:
    import numpy as np

    d = np.asarray(diag, dtype=float)
    # zero diagonal values are not stored, for a canonical matrix
    keep = np.abs(d) > 0.0
    row_ptr = np.concatenate(([0], np.cumsum(keep)))
    return CSRMatrix(row_ptr, np.arange(d.size)[keep], d[keep], ncols=d.size)


def build_holstein_hubbard(
    params: HolsteinHubbardParams | None = None, *, ordering: str = "HMeP"
) -> CSRMatrix:
    """Assemble the Holstein-Hubbard Hamiltonian in the requested ordering.

    Parameters
    ----------
    params:
        Model/basis configuration (defaults to a small instance).
    ordering:
        ``"HMeP"`` (electronic index fast — banded, Fig. 1b) or
        ``"HMEp"`` (phononic index fast — scattered, Fig. 1a).

    Returns
    -------
    CSRMatrix
        Real symmetric matrix of dimension ``params.dim``.
    """
    params = params or HolsteinHubbardParams()
    check_in(ordering, ("HMeP", "HMEp"), "ordering")

    import numpy as np

    el = params.electron_basis
    ph = params.phonon_basis

    h_el = _electron_hamiltonian(params)
    ph_energy = params.omega0 * ph.total_number_diagonal()
    densities = el.density_diagonals()  # (L, dim_el)

    e_dim, p_dim = el.dim, ph.dim

    if ordering == "HMEp":
        # index = e * p_dim + p : phonon index fast ("phononic contiguous")
        parts = [
            kron(h_el, CSRMatrix.identity(p_dim)),
            kron_diag_left(np.ones(e_dim), _diag_csr(ph_energy)),
        ]
        for m in range(params.n_phonon_modes):
            disp = ph.displacement_matrix(m)
            if disp.nnz:
                parts.append(
                    kron_diag_left(params.coupling_g * (densities[m] - 1.0), disp)
                )
    else:
        # index = p * e_dim + e : electron index fast ("electronic contiguous")
        parts = [
            kron_diag_left(np.ones(p_dim), h_el),
            kron(_diag_csr(ph_energy), CSRMatrix.identity(e_dim)),
        ]
        for m in range(params.n_phonon_modes):
            disp = ph.displacement_matrix(m)
            if disp.nnz:
                parts.append(
                    kron(disp, _diag_csr(params.coupling_g * (densities[m] - 1.0)))
                )

    total = parts[0]
    for p in parts[1:]:
        total = total.add(p)
    return total
