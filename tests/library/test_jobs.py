"""CharacterizationJob specs: keys, grids, assembly, picklability."""

import pickle

import numpy as np
import pytest

from repro.clocktree.configs import CoplanarWaveguideConfig, MicrostripConfig
from repro.constants import GHz, um
from repro.errors import TableError
from repro.library.jobs import (
    LoopTableJob,
    MutualLoopJob,
    PartialMutualInductanceJob,
    PartialSelfInductanceJob,
    ThreeTraceCapacitanceJob,
    TotalCapacitanceJob,
    config_fingerprint,
    standard_clocktree_jobs,
)


def cpw(**overrides):
    params = dict(signal_width=um(10), ground_width=um(5), spacing=um(1),
                  thickness=um(2), height_below=um(2))
    params.update(overrides)
    return CoplanarWaveguideConfig(**params)


def loop_job(**overrides):
    params = dict(config=cpw(), frequency=GHz(3.2),
                  widths=(um(6), um(10), um(14)),
                  lengths=(um(500), um(2000), um(6000)))
    params.update(overrides)
    return LoopTableJob(**params)


class TestCacheKeys:
    def test_job_id_deterministic(self):
        assert loop_job().job_id == loop_job().job_id

    def test_job_id_sensitive_to_frequency(self):
        assert loop_job().job_id != loop_job(frequency=GHz(6.4)).job_id

    def test_job_id_sensitive_to_grid(self):
        other = loop_job(widths=(um(6), um(10), um(16)))
        assert loop_job().job_id != other.job_id

    def test_job_id_sensitive_to_config(self):
        other = loop_job(config=cpw(ground_width=um(6)))
        assert loop_job().job_id != other.job_id

    def test_table_keys_distinct_per_output(self):
        keys = loop_job().table_keys()
        assert set(keys) == {"loop_inductance", "loop_resistance"}
        assert len(set(keys.values())) == 2

    def test_unknown_output_rejected(self):
        with pytest.raises(TableError):
            loop_job().table_key("nonsense")

    def test_family_fingerprint_tracks_config_not_grid(self):
        assert loop_job().family == loop_job(widths=(um(4), um(8))).family
        assert loop_job().family == config_fingerprint(cpw())
        assert loop_job().family != config_fingerprint(cpw(spacing=um(2)))


class TestGrid:
    def test_points_row_major(self):
        job = loop_job(widths=(um(6), um(10)), lengths=(um(500), um(2000)))
        assert job.points() == [
            (um(6), um(500)), (um(6), um(2000)),
            (um(10), um(500)), (um(10), um(2000)),
        ]
        assert job.shape() == (2, 2)
        assert job.num_points() == 4

    def test_axis_validation_applies(self):
        with pytest.raises(TableError):
            loop_job(widths=(um(10), um(6)))  # not increasing
        with pytest.raises(TableError):
            loop_job(widths=(um(10),))  # too short

    def test_positive_frequency_required(self):
        with pytest.raises(TableError):
            loop_job(frequency=0.0)


class TestAssembly:
    def test_assemble_shapes_and_metadata(self):
        job = loop_job(widths=(um(6), um(10)), lengths=(um(500), um(2000)))
        values = [[float(i), 10.0 + i] for i in range(4)]
        l_table, r_table = job.assemble(values)
        assert l_table.quantity == "loop_inductance"
        assert r_table.quantity == "loop_resistance"
        np.testing.assert_array_equal(
            l_table.values, np.array([[0.0, 1.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(
            r_table.values, np.array([[10.0, 11.0], [12.0, 13.0]]))
        lib_meta = l_table.metadata["library"]
        assert lib_meta["job_id"] == job.job_id
        assert lib_meta["table_key"] == job.table_key("loop_inductance")
        assert lib_meta["family"] == job.family

    def test_assemble_wrong_count_rejected(self):
        job = loop_job(widths=(um(6), um(10)), lengths=(um(500), um(2000)))
        with pytest.raises(TableError):
            job.assemble([[1.0, 2.0]] * 3)

    def test_assemble_wrong_width_rejected(self):
        job = loop_job(widths=(um(6), um(10)), lengths=(um(500), um(2000)))
        with pytest.raises(TableError):
            job.assemble([[1.0]] * 4)


class TestPicklability:
    def test_every_job_kind_pickles(self):
        micro = MicrostripConfig(signal_width=um(4), thickness=um(1),
                                 plane_gap=um(2))
        jobs = [
            loop_job(),
            MutualLoopJob(config=micro, frequency=GHz(3.2),
                          separations=(um(2), um(6)),
                          lengths=(um(500), um(2000))),
            PartialSelfInductanceJob(thickness=um(1),
                                     widths=(um(1), um(2)),
                                     lengths=(um(100), um(500))),
            PartialMutualInductanceJob(thickness=um(1),
                                       widths1=(um(1), um(2)),
                                       widths2=(um(1), um(2)),
                                       spacings=(um(1), um(3)),
                                       lengths=(um(100), um(500))),
            ThreeTraceCapacitanceJob(height_below=um(2), thickness=um(1),
                                     widths=(um(1), um(2)),
                                     spacings=(um(1), um(2))),
            TotalCapacitanceJob(config=cpw(), widths=(um(6), um(10)),
                                spacings=(um(1), um(2))),
        ]
        for job in jobs:
            clone = pickle.loads(pickle.dumps(job))
            assert clone.job_id == job.job_id

    def test_roundtripped_job_solves(self):
        job = PartialSelfInductanceJob(
            thickness=um(1), widths=(um(1), um(2)), lengths=(um(100), um(500)))
        clone = pickle.loads(pickle.dumps(job))
        (value,) = clone.solve_point((um(1), um(100)))
        assert value > 0.0


class TestSolvePoints:
    def test_loop_point_matches_builder_semantics(self):
        job = loop_job(widths=(um(6), um(10)), lengths=(um(500), um(2000)))
        inductance, resistance = job.solve_point((um(10), um(2000)))
        problem = cpw().loop_problem(um(10), um(2000))
        r_direct, l_direct = problem.loop_rl(GHz(3.2))
        assert inductance == pytest.approx(l_direct)
        assert resistance == pytest.approx(r_direct)

    def test_total_cap_point_positive(self):
        job = TotalCapacitanceJob(config=cpw(), widths=(um(6), um(10)),
                                  spacings=(um(1), um(2)), nx=40, nz=30)
        (cap,) = job.solve_point((um(10), um(1)))
        assert cap > 0.0

    def test_standard_jobs_cover_extractor_needs(self):
        jobs = standard_clocktree_jobs(
            cpw(), frequency=GHz(3.2),
            widths=[um(6), um(10)], lengths=[um(500), um(2000)],
            spacings=[um(1), um(2)],
        )
        quantities = {o.quantity for job in jobs for o in job.outputs()}
        assert quantities == {
            "loop_inductance", "loop_resistance", "capacitance_per_length",
        }


def _golden_jobs():
    micro = MicrostripConfig(signal_width=um(4), thickness=um(1),
                             plane_gap=um(2))
    return {
        "loop_rl": LoopTableJob(
            config=cpw(), frequency=GHz(3.2),
            widths=(um(6), um(10)), lengths=(um(500), um(2000))),
        "mutual_loop": MutualLoopJob(
            config=micro, frequency=GHz(3.2),
            separations=(um(2), um(6)), lengths=(um(500), um(2000))),
        "partial_self": PartialSelfInductanceJob(
            thickness=um(1), widths=(um(1), um(2)),
            lengths=(um(100), um(500))),
        "partial_mutual": PartialMutualInductanceJob(
            thickness=um(1), widths1=(um(1), um(2)), widths2=(um(1), um(2)),
            spacings=(um(1), um(3)), lengths=(um(100), um(500))),
        "three_trace_cap": ThreeTraceCapacitanceJob(
            height_below=um(2), thickness=um(1), widths=(um(1), um(2)),
            spacings=(um(1), um(2)), nx=60, nz=45),
        "total_cap": TotalCapacitanceJob(
            config=cpw(), widths=(um(6), um(10)), spacings=(um(1), um(2)),
            nx=60, nz=45),
    }


#: job_id and table keys of each job kind, pinned: a change here turns
#: every existing design kit cold.  Only a deliberate SCHEMA_VERSION bump
#: may change them.
GOLDEN_KEYS = {
    "loop_rl": (
        "83ec19e18937520cc7cdd7445f03a4c75993cc2c4c79f1321d3b86fda1c15c1e",
        {"loop_inductance": "e6bfc4e5ddb7b3d645c97947a177e4cb"
                            "947829a9d8525b3878912fbb2907decd",
         "loop_resistance": "1564d05226dcb440176773a7e46558ea"
                            "fa9035ff629436e92a99575f5c8d24b3"}),
    "mutual_loop": (
        "f888ac08c51b58fc182464f04a1f2a5644a141dda26cccbcce19e1422e89043c",
        {"mutual_loop_inductance": "7b36abb66a3b317909bbe0062a032b16"
                                   "daecf33d11f33c62a1c4aab9f9012d82"}),
    "partial_self": (
        "fd2381ea9656f6d139118417f2be07df9849424d736b41db52724a892878c049",
        {"self_partial_inductance": "a91baa316341498ff468bc8f5512cbe8"
                                    "c7e1298cca77e83b083cc032df8c603c"}),
    "partial_mutual": (
        "e250f14abd1b134993fa0428958a6801d69618869716ec8f2ae34badc5c61185",
        {"mutual_partial_inductance": "1484541c1dbd4406d22ba7c6390749bc"
                                      "b6096e7bf7152c0e39609a436796a56d"}),
    "three_trace_cap": (
        "210c0f78c35959c8a518a16d44caabf9cca9663b39f47b5b00c0b3289522e04e",
        {"three_trace_ground_capacitance": "0ea1edff2ce4ef7e6c277ffbe82a994b"
                                           "59bf8618ae49a1b0b748eb458fecb5d4",
         "three_trace_coupling_capacitance": "cab9132d903d1df6d46d7109b944245c"
                                             "fe03373f3f00c4dd689c041937eee006"}),
    "total_cap": (
        "79031d7a73cd6cbb84166d5cf24765c456b2641fa52210e700efa8da68370673",
        {"signal_capacitance_per_length": "83535db5d02e167f47a07e4589c4e128"
                                          "e387819a235fe468c1cb1721f1e8db40"}),
}


class TestGoldenKeys:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_KEYS))
    def test_keys_pinned(self, kind):
        job = _golden_jobs()[kind]
        job_id, table_keys = GOLDEN_KEYS[kind]
        assert job.kind == kind
        assert job.job_id == job_id
        assert job.table_keys() == table_keys
