"""Filament-level network solver for multi-node PEEC problems.

Loop-inductance questions beyond a single go-and-return pair -- the full
interconnect trees of the paper's Table I, or a trace array over a meshed
ground plane -- are circuit problems: conductors connect named nodes, every
filament of a conductor spans the conductor's two terminal nodes, and all
filaments couple through the dense partial-inductance matrix.

:class:`FilamentNetwork` assembles the nodal system
``(A Z^-1 A^T) v = j`` with ``Z = diag(R) + j omega Lp`` and answers input
impedance / transfer questions, from which loop resistance and inductance
follow directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.constants import RHO_CU
from repro.errors import CircuitError, SolverError
from repro.geometry.primitives import RectBar
from repro.peec.kernel import ImpedanceFactorization
from repro.peec.mesh import FilamentMesh, mesh_bar
from repro.peec.solver import assemble_partial_inductance_matrix


@dataclass
class NetworkSolution:
    """Result of one frequency-domain network solve."""

    frequency: float
    node_voltages: Dict[str, complex]
    conductor_currents: Dict[str, complex]

    def voltage_between(self, node_plus: str, node_minus: str) -> complex:
        """Voltage of *node_plus* relative to *node_minus*."""
        return self.node_voltages[node_plus] - self.node_voltages[node_minus]


@dataclass
class _AssembledNetwork:
    """Frequency-independent precomputation shared by every solve.

    Built once per topology (invalidated whenever a conductor or
    resistor is added): the flattened filament system, incidence
    matrices, the factor-once filament impedance decomposition and its
    nodal projection, and the constant resistor-branch nodal admittance.
    """

    filaments: List[RectBar]
    resistances: np.ndarray
    lp: np.ndarray
    owner: np.ndarray
    nodes: List[str]
    node_index: Dict[str, int]
    a_full: np.ndarray
    a_red: np.ndarray
    n_fil: int
    factorization: ImpedanceFactorization
    #: ``A_f U`` -- reduced filament incidence in modal coordinates.
    modal_incidence: np.ndarray
    #: constant (real) nodal admittance of the uncoupled resistor branches
    resistor_nodal: np.ndarray
    resistor_values: np.ndarray
    #: (n_cond, n_fil) selector summing filament currents per conductor
    conductor_selector: np.ndarray


class FilamentNetwork:
    """A circuit of mutually coupled meshed conductors.

    Conductors are added between named nodes; the reference (ground) node
    is fixed at construction.  Current through a conductor is positive
    from ``node_a`` to ``node_b``.
    """

    def __init__(self, ground: str = "0"):
        self.ground = ground
        self._conductor_names: List[str] = []
        self._meshes: List[FilamentMesh] = []
        self._resistivities: List[float] = []
        self._terminals: List[Tuple[str, str]] = []
        self._resistor_names: List[str] = []
        self._resistor_values: List[float] = []
        self._resistor_terminals: List[Tuple[str, str]] = []
        self._lp: Optional[np.ndarray] = None
        self._system: Optional[_AssembledNetwork] = None

    def add_conductor(
        self,
        name: str,
        bar: RectBar,
        node_a: str,
        node_b: str,
        resistivity: float = RHO_CU,
        n_width: int = 1,
        n_thickness: int = 1,
        grading: float = 1.0,
        mesh: Optional[FilamentMesh] = None,
    ) -> None:
        """Add a conductor between *node_a* and *node_b*.

        A pre-built *mesh* overrides the ``n_width``/``n_thickness``/
        ``grading`` meshing parameters.
        """
        if name in self._conductor_names:
            raise CircuitError(f"duplicate conductor name {name!r}")
        if node_a == node_b:
            raise CircuitError(f"conductor {name!r} connects a node to itself")
        if mesh is None:
            mesh = mesh_bar(bar, n_width=n_width, n_thickness=n_thickness, grading=grading)
        self._conductor_names.append(name)
        self._meshes.append(mesh)
        self._resistivities.append(resistivity)
        self._terminals.append((node_a, node_b))
        self._lp = None  # geometry changed; invalidate caches
        self._system = None

    def add_resistor(
        self,
        name: str,
        node_a: str,
        node_b: str,
        resistance: float = 1e-6,
    ) -> None:
        """Add an uncoupled resistive branch (e.g. a leaf short or a via).

        The branch carries no partial inductance; use a small resistance
        for a near-ideal short.
        """
        if name in self._conductor_names or name in self._resistor_names:
            raise CircuitError(f"duplicate conductor name {name!r}")
        if node_a == node_b:
            raise CircuitError(f"resistor {name!r} connects a node to itself")
        if resistance <= 0.0:
            raise CircuitError(f"resistor {name!r} must be positive")
        self._resistor_names.append(name)
        self._resistor_values.append(resistance)
        self._resistor_terminals.append((node_a, node_b))
        self._system = None  # topology changed; invalidate cache

    @property
    def num_conductors(self) -> int:
        """Number of conductors added so far."""
        return len(self._conductor_names)

    def node_names(self) -> List[str]:
        """All node names, ground first."""
        terminals = self._terminals + self._resistor_terminals
        return list(dict.fromkeys(
            [self.ground] + [node for pair in terminals for node in pair]
        ))

    def _check_connectivity(self, node_index: Dict[str, int]) -> None:
        """Every node must reach ground through branches (else singular)."""
        terminals = self._terminals + self._resistor_terminals
        rows = [node_index[a] for a, _ in terminals]
        cols = [node_index[b] for _, b in terminals]
        n = len(node_index)
        graph = sparse.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n))
        _, labels = connected_components(graph, directed=False)
        root = labels[node_index[self.ground]]
        floating = [name for name, i in node_index.items() if labels[i] != root]
        if floating:
            raise SolverError(
                f"nodes {floating} form a floating subnetwork with no path "
                "to the ground node; tie them or remove the conductors"
            )

    def _filament_system(self) -> Tuple[List[RectBar], np.ndarray, np.ndarray, List[int]]:
        """Flatten meshes: filaments, resistances, Lp matrix, owner index."""
        filaments: List[RectBar] = []
        resistances: List[float] = []
        owner: List[int] = []
        for ci, mesh in enumerate(self._meshes):
            filaments.extend(mesh.filaments)
            resistances.extend(mesh.resistances(self._resistivities[ci]))
            owner.extend([ci] * len(mesh))
        if self._lp is None:
            self._lp = assemble_partial_inductance_matrix(filaments)
        return filaments, np.array(resistances), self._lp, owner

    def _assembled(self) -> _AssembledNetwork:
        """Build (or reuse) every frequency-independent piece of the solve.

        This is the factor-once step: the filament Lp assembly, the
        eigendecomposition of ``diag(R) + j*w*Lp``, the incidence
        matrices and the constant resistor nodal admittance are computed
        on the first solve and shared by every subsequent frequency
        point and right-hand side.
        """
        if self._system is not None:
            return self._system
        nodes = self.node_names()
        node_index = {name: i for i, name in enumerate(nodes)}
        self._check_connectivity(node_index)

        filaments, resistances, lp, owner_list = self._filament_system()
        owner = np.array(owner_list, dtype=int)
        n_fil = len(filaments)
        n_res = len(self._resistor_names)
        n_branch = n_fil + n_res

        # Oriented incidence: +1 at node_a, -1 at node_b for each branch.
        a_full = np.zeros((len(nodes), n_branch))
        terminal_a = np.array(
            [node_index[self._terminals[ci][0]] for ci in owner], dtype=int
        ) if n_fil else np.zeros(0, dtype=int)
        terminal_b = np.array(
            [node_index[self._terminals[ci][1]] for ci in owner], dtype=int
        ) if n_fil else np.zeros(0, dtype=int)
        fil_cols = np.arange(n_fil)
        np.add.at(a_full, (terminal_a, fil_cols), 1.0)
        np.add.at(a_full, (terminal_b, fil_cols), -1.0)
        for ri, (na, nb) in enumerate(self._resistor_terminals):
            a_full[node_index[na], n_fil + ri] += 1.0
            a_full[node_index[nb], n_fil + ri] -= 1.0
        a_red = a_full[1:, :]  # drop ground row

        factorization = ImpedanceFactorization(resistances, lp)
        modal_incidence = a_red[:, :n_fil] @ factorization.u

        resistor_values = np.asarray(self._resistor_values, dtype=float)
        a_red_res = a_red[:, n_fil:]
        if n_res:
            resistor_nodal = (a_red_res / resistor_values[None, :]) @ a_red_res.T
        else:
            resistor_nodal = np.zeros((len(nodes) - 1, len(nodes) - 1))

        selector = np.zeros((len(self._conductor_names), n_fil))
        selector[owner, fil_cols] = 1.0

        self._system = _AssembledNetwork(
            filaments=filaments,
            resistances=resistances,
            lp=lp,
            owner=owner,
            nodes=nodes,
            node_index=node_index,
            a_full=a_full,
            a_red=a_red,
            n_fil=n_fil,
            factorization=factorization,
            modal_incidence=modal_incidence,
            resistor_nodal=resistor_nodal,
            resistor_values=resistor_values,
            conductor_selector=selector,
        )
        return self._system

    def _injection_vector(
        self, system: _AssembledNetwork, injections: Dict[str, complex]
    ) -> np.ndarray:
        j = np.zeros(len(system.nodes) - 1, dtype=complex)
        for node, current in injections.items():
            if node not in system.node_index:
                raise CircuitError(f"injection at unknown node {node!r}")
            idx = system.node_index[node]
            if idx > 0:
                j[idx - 1] = j[idx - 1] + current
        return j

    def _solve_factored(
        self, system: _AssembledNetwork, omega: float, j: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Nodal voltages and branch currents via the cached factorization.

        *j* may be a vector or an ``(n_nodes-1, k)`` stack of injection
        vectors -- the multi-RHS batch path: one nodal factorization
        serves every right-hand side.
        """
        scale = system.factorization.modal_scale(omega)
        g = system.modal_incidence
        y_nodal = (g * scale[None, :]) @ g.T + system.resistor_nodal
        try:
            v_red = np.linalg.solve(y_nodal, j)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "singular nodal system (floating subnetwork or "
                f"zero-impedance loop): {exc}"
            ) from exc
        # Filament branch currents: Z^{-1} A_f^T v = U (s * (G^T v)).
        modal_v = g.T @ v_red
        if v_red.ndim == 1:
            branch_fil = system.factorization.u @ (scale * modal_v)
        else:
            branch_fil = system.factorization.u @ (scale[:, None] * modal_v)
        if system.resistor_values.size:
            a_red_res = system.a_red[:, system.n_fil:]
            branch_v_res = a_red_res.T @ v_red
            if v_red.ndim == 1:
                branch_res = branch_v_res / system.resistor_values
            else:
                branch_res = branch_v_res / system.resistor_values[:, None]
            branch_i = np.concatenate([branch_fil, branch_res], axis=0)
        else:
            branch_i = branch_fil
        return v_red, branch_i

    def _solve_direct(
        self, system: _AssembledNetwork, omega: float, j: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-frequency LU reference path (the pre-kernel behavior)."""
        n_fil = system.n_fil
        n_branch = n_fil + system.resistor_values.size
        z = np.zeros((n_branch, n_branch), dtype=complex)
        z[:n_fil, :n_fil] = np.diag(system.resistances)
        if omega > 0.0:
            z[:n_fil, :n_fil] += 1j * omega * system.lp
        for ri, value in enumerate(system.resistor_values):
            z[n_fil + ri, n_fil + ri] = value
        try:
            y_branch = np.linalg.solve(z, system.a_red.T.astype(complex))
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular branch impedance matrix: {exc}") from exc
        y_nodal = system.a_red @ y_branch
        try:
            v_red = np.linalg.solve(y_nodal, j)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "singular nodal system (floating subnetwork or "
                f"zero-impedance loop): {exc}"
            ) from exc
        branch_v = system.a_red.T @ v_red
        branch_i = np.linalg.solve(z, branch_v)
        return v_red, branch_i

    def _package_solution(
        self,
        system: _AssembledNetwork,
        frequency: float,
        v_red: np.ndarray,
        branch_i: np.ndarray,
    ) -> NetworkSolution:
        v_nodes = np.concatenate([[0.0 + 0.0j], v_red])
        conductor_i = system.conductor_selector @ branch_i[: system.n_fil]
        currents: Dict[str, complex] = {
            name: complex(conductor_i[ci])
            for ci, name in enumerate(self._conductor_names)
        }
        for ri, name in enumerate(self._resistor_names):
            currents[name] = complex(branch_i[system.n_fil + ri])
        voltages = {
            name: complex(v_nodes[i]) for name, i in system.node_index.items()
        }
        return NetworkSolution(
            frequency=frequency,
            node_voltages=voltages,
            conductor_currents=currents,
        )

    def solve(
        self,
        frequency: float,
        injections: Dict[str, complex],
        factored: bool = True,
    ) -> NetworkSolution:
        """Solve the network with current *injections* per node [A].

        Injections must sum (implicitly) to a return at the ground node.
        Returns node voltages (ground = 0) and per-conductor currents.

        With ``factored=True`` (default) the filament impedance is
        diagonalized once and reused for every subsequent solve on this
        network -- a frequency sweep costs O(n^3) once plus O(n^2) per
        point.  ``factored=False`` keeps the per-frequency LU reference
        path (used by the golden equivalence tests and benchmarks).
        """
        if self.num_conductors == 0:
            raise CircuitError("network has no conductors")
        if frequency < 0.0:
            raise SolverError("frequency must be non-negative")
        system = self._assembled()
        j = self._injection_vector(system, injections)
        omega = 2.0 * np.pi * frequency
        if factored:
            v_red, branch_i = self._solve_factored(system, omega, j)
        else:
            v_red, branch_i = self._solve_direct(system, omega, j)
        return self._package_solution(system, frequency, v_red, branch_i)

    def solve_many(
        self,
        frequency: float,
        injection_sets: Sequence[Dict[str, complex]],
        factored: bool = True,
    ) -> List[NetworkSolution]:
        """Solve several injection patterns at one frequency in one batch.

        All right-hand sides share the assembled system, the impedance
        factorization *and* a single nodal matrix factorization --
        extracting a k-port impedance matrix costs one O(m^3) nodal
        solve instead of k of them.
        """
        if self.num_conductors == 0:
            raise CircuitError("network has no conductors")
        if frequency < 0.0:
            raise SolverError("frequency must be non-negative")
        if not injection_sets:
            return []
        system = self._assembled()
        j = np.column_stack([
            self._injection_vector(system, injections)
            for injections in injection_sets
        ])
        omega = 2.0 * np.pi * frequency
        if factored:
            v_red, branch_i = self._solve_factored(system, omega, j)
        else:
            v_red, branch_i = self._solve_direct(system, omega, j)
        return [
            self._package_solution(
                system, frequency, v_red[:, k], branch_i[:, k]
            )
            for k in range(len(injection_sets))
        ]

    def input_impedance(
        self,
        node_plus: str,
        node_minus: str,
        frequency: float,
    ) -> complex:
        """Driving-point impedance between two nodes at *frequency* [ohm].

        Injects a 1 A test current; ``node_minus`` need not be the ground
        node.
        """
        solution = self.solve(
            frequency, {node_plus: 1.0 + 0.0j, node_minus: -1.0 + 0.0j}
        )
        return solution.voltage_between(node_plus, node_minus)

    def loop_rl(
        self,
        node_plus: str,
        node_minus: str,
        frequency: float,
    ) -> Tuple[float, float]:
        """Loop resistance [ohm] and inductance [H] seen between two nodes."""
        if frequency <= 0.0:
            raise SolverError("frequency must be positive for an R/L split")
        z = self.input_impedance(node_plus, node_minus, frequency)
        omega = 2.0 * np.pi * frequency
        return z.real, z.imag / omega
