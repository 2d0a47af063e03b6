"""Per-block passivity lint against the dense inductance-matrix oracle.

The lint checks the ``[L, M]`` matrix one connected component of the
mutual-coupling graph at a time.  The dense assembly it replaced stays
here as the oracle: on random small decks the verdict and the minimum
eigenvalue must match it.  The structural tests count ``eigvalsh``
calls instead of timing anything.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.circuit import Circuit, lint_circuit
from repro.circuit.elements import Inductor, MutualInductance
from repro.circuit.lint import PSD_RTOL


def _dense_min_eigenvalue(circuit):
    """Oracle: (min eigenvalue, PSD tolerance) of the dense [L, M] matrix."""
    inductors = [e for e in circuit.elements if isinstance(e, Inductor)]
    index = {ind.name: i for i, ind in enumerate(inductors)}
    n = len(inductors)
    l_matrix = np.zeros((n, n))
    for i, ind in enumerate(inductors):
        l_matrix[i, i] = ind.inductance
    for mutual in circuit.mutuals:
        i = index[mutual.inductor1]
        j = index[mutual.inductor2]
        l_matrix[i, j] += mutual.mutual
        l_matrix[j, i] += mutual.mutual
    eigenvalue = float(np.linalg.eigvalsh(l_matrix)[0])
    return eigenvalue, PSD_RTOL * float(np.max(np.diag(l_matrix)))


@st.composite
def _decks(draw):
    """Inductor decks with random L values and structured couplings.

    In half the decks some inductor values are zero or negative (set
    after construction, as a mutated circuit would carry them).
    Couplings form chains, cliques and sign-frustrated triples over
    disjoint groups of inductors, with ``M = k sqrt(|L_i L_j|)``.
    """
    positive = st.floats(1e-11, 5e-9)
    if draw(st.booleans()):
        element = st.one_of(positive, st.floats(-2e-9, 0.0))
    else:
        element = positive
    values = draw(st.lists(element, min_size=1, max_size=9))
    n = len(values)
    order = draw(st.permutations(range(n)))
    pairs = []
    start = 0
    while start < n:
        size = draw(st.integers(1, n - start))
        group = order[start:start + size]
        start += size
        shape = draw(st.sampled_from(["chain", "clique", "triple"]))
        if shape == "chain":
            pairs += [(group[i], group[i + 1], draw(st.floats(-0.99, 0.99)))
                      for i in range(len(group) - 1)]
        elif shape == "clique":
            pairs += [(a, b, draw(st.floats(-0.99, 0.99)))
                      for i, a in enumerate(group) for b in group[i + 1:]]
        elif len(group) >= 3:
            k = draw(st.floats(0.5, 0.99))
            a, b, c = group[:3]
            pairs += [(a, b, k), (b, c, k), (a, c, -k)]

    circuit = Circuit("deck")
    circuit.add_voltage_source("V1", "n0", "0", 1.0)
    for i, value in enumerate(values):
        circuit.add_inductor(f"L{i}", f"n{i}", "0", 1e-9)
        circuit.element(f"L{i}").inductance = value
    for m, (i, j, k) in enumerate(pairs):
        mutual = k * float(np.sqrt(abs(values[i] * values[j])))
        circuit.mutuals.append(
            MutualInductance(f"K{m}", f"L{i}", f"L{j}", mutual))
    return circuit


def _count_eigvalsh(monkeypatch):
    """Record the shape of every ``np.linalg.eigvalsh`` argument."""
    shapes = []
    real = np.linalg.eigvalsh

    def counting(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return shapes


def _ladder(sections):
    """An uncoupled RLC ladder with *sections* distinct inductors."""
    c = Circuit("ladder")
    c.add_voltage_source("V1", "n0", "0", 1.0)
    for k in range(sections):
        c.add_resistor(f"R{k}", f"n{k}", f"m{k}", 1.0)
        c.add_inductor(f"L{k}", f"m{k}", f"n{k + 1}", 1e-12 * (1 + k % 7))
        c.add_capacitor(f"C{k}", f"n{k + 1}", "0", 1e-15)
    return c


class TestDenseOracle:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_decks())
    def test_verdict_and_min_eigenvalue_match(self, circuit):
        eigenvalue, tol = _dense_min_eigenvalue(circuit)
        diag = [e.inductance for e in circuit.elements
                if isinstance(e, Inductor)]
        atol = PSD_RTOL * max(abs(v) for v in diag)
        assume(abs(eigenvalue + tol) > atol)

        report = lint_circuit(circuit)
        flagged = "l_matrix_not_psd" in [f.code for f in report.findings]
        assert flagged == (eigenvalue < -tol)
        assert abs(report.l_min_eigenvalue - eigenvalue) <= atol


class TestEigvalshCalls:
    def test_uncoupled_ladder_needs_no_eigvalsh(self, monkeypatch):
        circuit = _ladder(8184)
        shapes = _count_eigvalsh(monkeypatch)
        report = lint_circuit(circuit)
        assert shapes == []
        assert report.clean
        assert report.stats["inductors"] == 8184
        assert report.l_min_eigenvalue == 1e-12

    def test_disjoint_pairs_need_one_2x2_call_each(self, monkeypatch):
        pairs = 25
        circuit = _ladder(2 * pairs)
        for p in range(pairs):
            circuit.add_mutual(f"K{p}", f"L{2 * p}", f"L{2 * p + 1}",
                               coupling=0.5)
        eigenvalue, _ = _dense_min_eigenvalue(circuit)
        shapes = _count_eigvalsh(monkeypatch)
        report = lint_circuit(circuit)
        assert shapes == [(2, 2)] * pairs
        assert report.clean
        assert abs(report.l_min_eigenvalue - eigenvalue) <= PSD_RTOL * 7e-12
