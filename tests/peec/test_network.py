"""FilamentNetwork: multi-node coupled-conductor solves."""

import numpy as np
import pytest

from repro.constants import RHO_CU, um
from repro.errors import CircuitError, SolverError
from repro.geometry.primitives import Point3D, RectBar
from repro.peec.hoer_love import bar_mutual_inductance, bar_self_inductance
from repro.peec.network import FilamentNetwork


def bar(y=0.0, w=um(2), t=um(1), l=um(500), x=0.0):
    return RectBar(Point3D(x, y, 0.0), l, w, t, "x")


def go_and_return(spacing=um(10)):
    """Signal out, return back, shorted at the far end."""
    net = FilamentNetwork(ground="gnd")
    net.add_conductor("sig", bar(0.0), "in", "far")
    net.add_conductor("ret", bar(spacing), "gnd", "far")
    return net


class TestConstruction:
    def test_duplicate_names_rejected(self):
        net = FilamentNetwork()
        net.add_conductor("a", bar(), "n1", "n2")
        with pytest.raises(CircuitError):
            net.add_conductor("a", bar(um(5)), "n1", "n2")

    def test_self_loop_rejected(self):
        net = FilamentNetwork()
        with pytest.raises(CircuitError):
            net.add_conductor("a", bar(), "n1", "n1")

    def test_resistor_validation(self):
        net = FilamentNetwork()
        net.add_conductor("a", bar(), "n1", "n2")
        with pytest.raises(CircuitError):
            net.add_resistor("a", "n1", "n2")          # duplicate name
        with pytest.raises(CircuitError):
            net.add_resistor("r", "n1", "n1")          # self loop
        with pytest.raises(CircuitError):
            net.add_resistor("r", "n1", "n2", resistance=0.0)

    def test_node_names_ground_first(self):
        net = go_and_return()
        names = net.node_names()
        assert names[0] == "gnd"
        assert set(names) == {"gnd", "in", "far"}

    def test_empty_network_rejected(self):
        with pytest.raises(CircuitError):
            FilamentNetwork().solve(1e9, {})

    def test_unknown_injection_node(self):
        net = go_and_return()
        with pytest.raises(CircuitError):
            net.solve(1e9, {"nowhere": 1.0})


class TestLoopExtraction:
    def test_dc_loop_resistance(self):
        net = go_and_return()
        solution = net.solve(0.0, {"in": 1.0})
        r_one = RHO_CU * um(500) / (um(2) * um(1))
        assert solution.voltage_between("in", "gnd").real == pytest.approx(
            2.0 * r_one, rel=1e-9
        )

    def test_loop_inductance_matches_partial_algebra(self):
        # two identical conductors: L_loop = 2 (L_self - M)
        spacing = um(10)
        net = go_and_return(spacing)
        _, l_loop = net.loop_rl("in", "gnd", 1e6)  # low f: uniform current
        l_self = bar_self_inductance(bar())
        mutual = bar_mutual_inductance(bar(), bar(spacing))
        assert l_loop == pytest.approx(2.0 * (l_self - mutual), rel=1e-3)

    def test_wider_loop_more_inductance(self):
        _, l_narrow = go_and_return(um(5)).loop_rl("in", "gnd", 1e9)
        _, l_wide = go_and_return(um(50)).loop_rl("in", "gnd", 1e9)
        assert l_wide > l_narrow

    def test_current_conservation(self):
        net = go_and_return()
        solution = net.solve(1e9, {"in": 1.0})
        assert solution.conductor_currents["sig"] == pytest.approx(1.0, rel=1e-9)
        assert solution.conductor_currents["ret"] == pytest.approx(-1.0, rel=1e-9)

    def test_parallel_returns_split_current(self):
        net = FilamentNetwork(ground="gnd")
        net.add_conductor("sig", bar(0.0), "in", "far")
        net.add_conductor("retL", bar(-um(8)), "gnd", "far")
        net.add_conductor("retR", bar(um(8)), "gnd", "far")
        solution = net.solve(1e6, {"in": 1.0})
        i_l = solution.conductor_currents["retL"]
        i_r = solution.conductor_currents["retR"]
        assert i_l == pytest.approx(i_r, rel=1e-6)         # symmetric split
        assert (i_l + i_r) == pytest.approx(-1.0, rel=1e-9)

    def test_input_impedance_reciprocal(self):
        net = go_and_return()
        z_ab = net.input_impedance("in", "gnd", 2e9)
        z_ba = net.input_impedance("gnd", "in", 2e9)
        assert z_ab == pytest.approx(z_ba, rel=1e-9)

    def test_loop_rl_requires_positive_frequency(self):
        net = go_and_return()
        with pytest.raises(SolverError):
            net.loop_rl("in", "gnd", 0.0)

    def test_skin_effect_increases_loop_resistance(self):
        net = FilamentNetwork(ground="gnd")
        net.add_conductor("sig", bar(0.0, w=um(10), t=um(2), l=um(2000)),
                          "in", "far", n_width=5, n_thickness=2, grading=1.5)
        net.add_conductor("ret", bar(um(15), w=um(10), t=um(2), l=um(2000)),
                          "gnd", "far", n_width=5, n_thickness=2, grading=1.5)
        r_lo, _ = net.loop_rl("in", "gnd", 1e6)
        r_hi, _ = net.loop_rl("in", "gnd", 20e9)
        assert r_hi > 1.2 * r_lo


class TestResistorBranches:
    def test_short_ties_nodes(self):
        net = FilamentNetwork(ground="gnd")
        net.add_conductor("sig", bar(0.0), "in", "mid")
        net.add_resistor("short", "mid", "far", resistance=1e-9)
        net.add_conductor("ret", bar(um(10)), "gnd", "far")
        solution = net.solve(1e9, {"in": 1.0})
        v_mid = solution.node_voltages["mid"]
        v_far = solution.node_voltages["far"]
        assert abs(v_mid - v_far) < 1e-6 * abs(v_mid)

    def test_resistor_adds_series_resistance(self):
        net = go_and_return()
        base_r, base_l = net.loop_rl("in", "gnd", 1e6)
        net2 = FilamentNetwork(ground="gnd")
        net2.add_conductor("sig", bar(0.0), "in", "mid")
        net2.add_resistor("extra", "mid", "far", resistance=5.0)
        net2.add_conductor("ret", bar(um(10)), "gnd", "far")
        r, l = net2.loop_rl("in", "gnd", 1e6)
        assert r == pytest.approx(base_r + 5.0, rel=1e-6)
        assert l == pytest.approx(base_l, rel=1e-3)

    def test_resistor_current_reported(self):
        net = FilamentNetwork(ground="gnd")
        net.add_conductor("sig", bar(0.0), "in", "mid")
        net.add_resistor("short", "mid", "far")
        net.add_conductor("ret", bar(um(10)), "gnd", "far")
        solution = net.solve(1e9, {"in": 1.0})
        assert solution.conductor_currents["short"] == pytest.approx(1.0, rel=1e-9)


class TestFloatingSubnetworks:
    def test_disconnected_network_raises(self):
        net = FilamentNetwork(ground="gnd")
        net.add_conductor("sig", bar(0.0), "in", "far")
        net.add_conductor("ret", bar(um(10)), "gnd", "far")
        net.add_conductor("island", bar(um(50)), "isoA", "isoB")
        with pytest.raises(SolverError, match=r"\['isoA', 'isoB'\]"):
            net.solve(1e9, {"in": 1.0})

    def test_victim_with_far_tie_is_solvable(self):
        net = go_and_return()
        net.add_conductor("victim", bar(um(30)), "v_near", "far")
        solution = net.solve(1e9, {"in": 1.0})
        assert solution.conductor_currents["victim"] == pytest.approx(
            0.0, abs=1e-12
        )
        # victim sees a finite induced EMF
        assert abs(solution.node_voltages["v_near"]) > 0.0
