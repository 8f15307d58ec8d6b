import hashlib
import json
import multiprocessing
import os
import shutil
from contextlib import contextmanager

import numpy as np
import pytest

from fracscale import pipeline
from fracscale.cli import main as cli_main
from fracscale.flow import FLOW_METHODS
from fracscale.pipeline import (
    GRID_AXES,
    RunConfig,
    _percolation_class,
    config_hash,
    load_config,
    report_tables,
    run_pipeline,
    save_config,
)
from fracscale.transport import TRACER_KINDS


def tiny_config(out_dir, **overrides) -> RunConfig:
    base = dict(
        L=10.0, l=5.0, buffer=2.0,
        p_primes=(1.0,), p_c=10, seeds=(3,),
        orls=(1,), k_m=(1e-16,),
        isolated_modes=("retained",),
        transport_enabled=False,
        output_dir=str(out_dir),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_round_trip_through_dict(self):
        config = tiny_config("x", seeds=(1, 2), orls=(1, 2))
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_round_trip_through_file(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        path = tmp_path / "config.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"gravity": True})

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            tiny_config("x", seeds=())
        with pytest.raises(ValueError):
            tiny_config("x", orls=())
        with pytest.raises(ValueError):
            tiny_config("x", isolated_modes=("kept",))
        with pytest.raises(ValueError, match="unknown tracer kind 'magic'"):
            tiny_config("x", tracers=("magic",))

    @pytest.mark.parametrize("axis", GRID_AXES)
    def test_repeated_grid_value_rejected(self, axis):
        # a repeat would write (and hash) one artifact twice, from two workers
        values = {
            "seeds": (3, 4, 3), "p_primes": (1, 1.0), "isolated_modes": ("removed", "removed"),
            "orls": (1, 2, 1), "k_m": (1e-16, 1e-14, 1e-16), "tracers": ("sorbing", "sorbing"),
        }
        with pytest.raises(ValueError, match=f"{axis} repeats a value"):
            tiny_config("x", **{axis: values[axis]})
        with pytest.raises(ValueError, match=f"{axis} repeats a value"):
            RunConfig.from_dict({**tiny_config("x").to_dict(), axis: list(values[axis])})

    def test_flow_method_validated_up_front(self):
        data = tiny_config("x").to_dict()
        assert FLOW_METHODS == ("auto", "direct")
        for method in FLOW_METHODS:
            assert RunConfig.from_dict({**data, "flow_method": method}).flow_method == method
        with pytest.raises(ValueError, match="flow method 'cg'"):
            RunConfig.from_dict({**data, "flow_method": "cg"})

    def test_every_tracer_kind_accepted(self):
        assert TRACER_KINDS == ("conservative", "decaying", "sorbing")
        assert tiny_config("x", tracers=TRACER_KINDS).tracers == TRACER_KINDS

    def test_hash_tracks_content(self):
        a = tiny_config("x")
        b = tiny_config("x", seeds=(4,))
        assert config_hash(a) == config_hash(a)
        assert config_hash(a) != config_hash(b)

    def test_fracture_counts_follow_pin(self):
        config = tiny_config("x", p_primes=(0.5, 1.0, 2.0), p_c=100)
        assert config.fracture_counts() == {0.5: 50, 1.0: 100, 2.0: 200}


class TestPipeline:
    def test_empty_network_run_reduces_to_matrix(self, tmp_path):
        config = tiny_config(tmp_path, p_primes=(0.0,))
        manifest = run_pipeline(config, upto="flow")
        assert manifest["failures"] == []
        row = manifest["flow_rows"][0]
        assert row["k_eff"] == pytest.approx(1e-16, rel=1e-8)
        assert not row["mesh_percolates"]

    def test_grid_of_two_seeds_two_orls(self, tmp_path):
        config = tiny_config(tmp_path, seeds=(3, 4), orls=(1, 2))
        manifest = run_pipeline(config, upto="flow")
        assert len(manifest["flow_rows"]) == 4
        assert len(manifest["topology_rows"]) == 4
        assert len(manifest["network_rows"]) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        config_a = tiny_config(tmp_path / "a")
        config_b = tiny_config(tmp_path / "b")
        m_a = run_pipeline(config_a, upto="flow")
        m_b = run_pipeline(config_b, upto="flow")
        net_a = (tmp_path / "a" / "networks" / "seed3_p1_retained.jsonl").read_bytes()
        net_b = (tmp_path / "b" / "networks" / "seed3_p1_retained.jsonl").read_bytes()
        assert net_a == net_b
        assert m_a["flow_rows"] == m_b["flow_rows"]
        assert m_a["network_rows"] == m_b["network_rows"]

    def test_rerun_same_directory_identical_manifest(self, tmp_path):
        # two units, so two workers where the host has two CPUs; the wall
        # times in run_stats.json differ between the runs
        config = tiny_config(tmp_path, seeds=(3, 4))
        run_pipeline(config, upto="flow")
        first = (tmp_path / "manifest.json").read_bytes()
        stats = (tmp_path / "run_stats.json").read_bytes()
        run_pipeline(config, upto="flow")
        assert (tmp_path / "manifest.json").read_bytes() == first
        assert (tmp_path / "run_stats.json").read_bytes() != stats

    def test_vtk_files_are_hashed_artifacts(self, tmp_path):
        config = tiny_config(tmp_path, orls=(1, 2), k_m=(1e-16, 1e-14), write_vtk_files=True)
        manifest = run_pipeline(config, upto="flow")
        assert manifest["failures"] == []
        vtk = [a for a in manifest["artifacts"] if a["kind"] == "mesh-vtk"]
        assert len({a["path"] for a in vtk}) == len(vtk) == 4   # one per (orl, k_m)
        for artifact in vtk:
            body = (tmp_path / artifact["path"]).read_bytes()
            assert hashlib.sha256(body).hexdigest() == artifact["sha256"]
            text = body.decode()
            cell_data = text[text.index("CELL_DATA"):]
            for name in ("permeability", "porosity", "pressure"):
                assert f"SCALARS {name} double 1" in cell_data

    def test_stage_gating(self, tmp_path):
        config = tiny_config(tmp_path)
        manifest = run_pipeline(config, upto="generate")
        assert manifest["network_rows"]
        assert manifest["topology_rows"] == []
        manifest = run_pipeline(config, upto="mesh")
        assert manifest["topology_rows"]
        assert manifest["flow_rows"] == []

    def test_removed_mode_with_nonpercolating_network(self, tmp_path):
        # seed 1 at this scale does not percolate: removed variant is all matrix
        config = tiny_config(tmp_path, seeds=(1,), isolated_modes=("retained", "removed"))
        manifest = run_pipeline(config, upto="flow")
        removed = [r for r in manifest["flow_rows"] if r["isolated_mode"] == "removed"]
        retained = [r for r in manifest["flow_rows"] if r["isolated_mode"] == "retained"]
        assert len(removed) == len(retained) == 1
        row = manifest["network_rows"][0]
        if not row["dfn_percolates"]:
            assert row["N_hat"] == 0
            assert removed[0]["k_eff"] == pytest.approx(1e-16, rel=1e-8)

    def test_transport_stage_writes_btc(self, tmp_path):
        config = tiny_config(
            tmp_path, transport_enabled=True, tracers=("conservative",),
            t_end_yr=1.0, n_outputs=12, dt0_yr=1e-4,
        )
        manifest = run_pipeline(config, upto="transport")
        btc_files = [a for a in manifest["artifacts"] if a["kind"] == "btc"]
        assert len(btc_files) == 1
        body = (tmp_path / btc_files[0]["path"]).read_text().splitlines()
        assert len(body) == 13

    def test_transport_rows_carry_solver_counts(self, tmp_path):
        config = tiny_config(
            tmp_path, transport_enabled=True,
            tracers=("conservative", "decaying", "sorbing"),
            t_end_yr=1.0, n_outputs=12, dt0_yr=1e-4,
        )
        manifest = run_pipeline(config, upto="transport")
        rows = manifest["transport_rows"]
        assert [row["tracer"] for row in rows] == list(config.tracers)
        key = {"seed": 3, "p_prime": 1.0, "isolated_mode": "retained", "orl": 1, "k_m": 1e-16}
        for row in rows:
            assert {name: row[name] for name in key} == key
            assert set(row) - set(key) == {
                "tracer", "peak_time_yr", "steps", "factorizations", "krylov_iterations",
                "krylov_cycles", "fallbacks", "min_concentration", "ledger_closure",
            }
            assert row["steps"] >= config.n_outputs
            assert 0 < row["factorizations"] <= row["steps"]
            # the symmetric Gauss-Seidel start solves the smallest steps
            # outright, so some steps take no GMRES cycle
            assert 0 < row["krylov_cycles"] <= row["krylov_iterations"]
            assert row["fallbacks"] == 0
            assert -1e-12 <= row["min_concentration"] <= 0.0
            assert 0.0 < row["peak_time_yr"] <= config.t_end_yr
            assert row["ledger_closure"] < 1e-6

    def test_transport_rerun_same_directory_identical(self, tmp_path):
        config = tiny_config(
            tmp_path, transport_enabled=True,
            tracers=("conservative", "decaying", "sorbing"),
            t_end_yr=1.0, n_outputs=12, dt0_yr=1e-4,
        )

        def outputs():
            run_pipeline(config, upto="transport")
            paths = [tmp_path / "manifest.json", *sorted(tmp_path.rglob("btc_*.csv"))]
            return {path.relative_to(tmp_path): path.read_bytes() for path in paths}

        first = outputs()
        assert len(first) == 1 + 3
        assert outputs() == first

    def test_invalid_stage_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_pipeline(tiny_config(tmp_path), upto="simulate")


def _tree(root):
    """Every output file's bytes but run_stats.json, which holds wall times."""
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file() and path.name != "run_stats.json"
    }


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


TRANSPORT_GRID = dict(
    seeds=(3, 4), p_primes=(0.5, 1.0), isolated_modes=("retained", "removed"),
    transport_enabled=True, tracers=("conservative", "sorbing"),
    t_end_yr=1.0, n_outputs=12, dt0_yr=1e-4, write_vtk_files=True,
)


class TestWorkers:
    def test_two_workers_write_what_one_writes(self, tmp_path, monkeypatch):
        trees = {}
        for workers in (2, 1):
            _cpus(monkeypatch, workers)
            out = tmp_path / "out"
            manifest = run_pipeline(tiny_config(out, **TRANSPORT_GRID), upto="report")
            assert manifest["failures"] == []
            stats = json.loads((out / "run_stats.json").read_text())
            assert stats["workers"] == workers
            assert len({unit["pid"] for unit in stats["units"]}) <= workers
            trees[workers] = _tree(out)
            shutil.rmtree(out)
        kinds = {path.suffix for path in trees[1]}
        assert kinds == {".json", ".jsonl", ".vtk", ".csv"}
        assert sum(path.name.startswith("btc_") for path in trees[1]) == 2 * 2 * 2 * 2
        assert trees[2] == trees[1]

    def test_rows_merge_in_grid_order_densest_unit_first(self, tmp_path, monkeypatch):
        submitted = []
        make_pool = pipeline._worker_pool

        class RecordingPool:
            def __init__(self, pool):
                self.pool = pool

            def submit(self, fn, config, depth, seed, p_prime, n_fractures):
                submitted.append((seed, p_prime))
                return self.pool.submit(fn, config, depth, seed, p_prime, n_fractures)

        @contextmanager
        def recording_pool(workers):
            with make_pool(workers) as pool:
                yield RecordingPool(pool)

        monkeypatch.setattr(pipeline, "_worker_pool", recording_pool)
        config = tiny_config(tmp_path, seeds=(3, 4), p_primes=(1.0, 0.0, 2.0))
        manifest = run_pipeline(config, upto="mesh")
        assert submitted == [(3, 2.0), (4, 2.0), (3, 1.0), (4, 1.0), (3, 0.0), (4, 0.0)]
        grid = [(3, 1.0), (3, 0.0), (3, 2.0), (4, 1.0), (4, 0.0), (4, 2.0)]
        assert [(r["seed"], r["p_prime"]) for r in manifest["network_rows"]] == grid
        assert [(r["seed"], r["p_prime"]) for r in manifest["topology_rows"]] == grid

    def test_no_worker_outlives_a_run(self, tmp_path):
        manifest = run_pipeline(tiny_config(tmp_path, seeds=(3, 4)), upto="flow")
        assert len(manifest["flow_rows"]) == 2
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_run_that_raises(self, tmp_path):
        # a file where seed 4's run directory goes: mkdir raises in the worker
        tmp_path.joinpath("seed4_p1_retained").write_text("")
        with pytest.raises(FileExistsError):
            run_pipeline(tiny_config(tmp_path, seeds=(3, 4, 5)), upto="flow")
        assert multiprocessing.active_children() == []

    def test_worker_blas_runs_on_one_thread(self):
        if not pipeline._openblas_thread_calls():
            pytest.skip("no OpenBLAS loaded")
        parent = pipeline._blas_threads()
        with pipeline._worker_pool(1) as pool:
            threads = pool.submit(pipeline._blas_threads).result(timeout=60)
            # a BLAS call in the worker, which starts OpenBLAS's threads if
            # its count is above one; then the worker's OS threads
            tasks = pool.submit(_worker_tasks_after_blas).result(timeout=60)
        assert threads and set(threads) == {1}
        if tasks is not None:
            assert tasks == 1
        assert pipeline._blas_threads() == parent

    def test_parent_blas_threads_restored_when_the_pool_raises(self):
        if not pipeline._openblas_thread_calls():
            pytest.skip("no OpenBLAS loaded")
        parent = pipeline._blas_threads()
        with pytest.raises(ZeroDivisionError):
            with pipeline._worker_pool(1) as pool:
                assert set(pipeline._blas_threads()) == {1}
                pool.submit(divmod, 1, 0).result(timeout=60)
        assert pipeline._blas_threads() == parent
        assert multiprocessing.active_children() == []


def _worker_tasks_after_blas():
    """The OS threads of this process after a BLAS product, or None without /proc."""
    a = np.random.default_rng(0).random((400, 400))
    a @ a
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


class TestRunStats:
    def test_every_point_is_timed_outside_the_artifacts(self, tmp_path):
        config = tiny_config(
            tmp_path, seeds=(3, 4), orls=(1, 2), k_m=(1e-16, 1e-14),
            isolated_modes=("retained", "removed"), transport_enabled=True,
            tracers=("conservative", "decaying"), t_end_yr=1.0, n_outputs=12, dt0_yr=1e-4,
        )
        manifest = run_pipeline(config, upto="transport")
        assert manifest["failures"] == []
        stats = json.loads((tmp_path / "run_stats.json").read_text())
        assert "run_stats.json" not in {a["path"] for a in manifest["artifacts"]}

        assert [(u["seed"], u["p_prime"]) for u in stats["units"]] == [(3, 1.0), (4, 1.0)]
        for unit in stats["units"]:
            assert unit["wall_s"] >= unit["generate_s"] + unit["graph_s"] > 0
            assert unit["max_rss_mb"] > 0
        key = ("seed", "p_prime", "isolated_mode", "orl")
        points = {tuple(p[name] for name in key): p for p in stats["points"]}
        assert len(points) == len(stats["points"])
        assert set(points) == {tuple(r[name] for name in key) for r in manifest["topology_rows"]}
        for point in points.values():
            assert point["mesh_s"] > 0
            assert [s["k_m"] for s in point["solves"]] == list(config.k_m)
            for solve in point["solves"]:
                assert solve["upscale_s"] > 0 and solve["flow_s"] > 0
                assert set(solve["transport_s"]) == set(config.tracers)


class TestReports:
    def test_percolation_classification(self):
        assert _percolation_class(True, True) == "match-percolating"
        assert _percolation_class(False, False) == "match-nonpercolating"
        assert _percolation_class(False, True) == "mismatch"
        assert _percolation_class(True, False) == "mismatch"

    def test_empty_manifest_gives_empty_tables(self, tmp_path):
        manifest = {"network_rows": [], "topology_rows": [], "flow_rows": []}
        written = report_tables(manifest, tmp_path)
        for path in written:
            assert path.exists()
            assert len(path.read_text().splitlines()) == 1  # header only

    def test_full_run_report_contents(self, tmp_path):
        config = tiny_config(tmp_path)
        run_pipeline(config, upto="report")
        flow_csv = (tmp_path / "tables" / "flow_summary.csv").read_text().splitlines()
        assert len(flow_csv) == 2
        perc_csv = (tmp_path / "tables" / "percolation.csv").read_text().splitlines()
        assert perc_csv[0].endswith("classification")
        assert len(perc_csv) == 2

    def test_report_idempotent(self, tmp_path):
        config = tiny_config(tmp_path)
        manifest = run_pipeline(config, upto="report")
        table = tmp_path / "tables" / "flow_summary.csv"
        first = table.read_bytes()
        report_tables(manifest, tmp_path)
        assert table.read_bytes() == first


class TestCli:
    def test_flow_command_exit_zero(self, tmp_path):
        config_path = tmp_path / "config.json"
        save_config(tiny_config(tmp_path / "out"), config_path)
        code = cli_main(["flow", "--config", str(config_path)])
        assert code == 0
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_overrides_change_grid(self, tmp_path):
        config_path = tmp_path / "config.json"
        save_config(tiny_config(tmp_path / "out"), config_path)
        code = cli_main([
            "mesh", "--config", str(config_path), "--out", str(tmp_path / "alt"),
            "--seed", "5", "--seed", "6", "--orl", "1",
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "alt" / "manifest.json").read_text())
        assert sorted(r["seed"] for r in manifest["network_rows"]) == [5, 6]

    def test_report_command(self, tmp_path):
        out = tmp_path / "out"
        save_config(tiny_config(out), tmp_path / "config.json")
        assert cli_main(["flow", "--config", str(tmp_path / "config.json")]) == 0
        assert cli_main(["report", "--out", str(out)]) == 0
        assert (out / "tables" / "flow_summary.csv").exists()

    def test_repeated_seed_fails(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        save_config(tiny_config(tmp_path / "out"), config_path)
        code = cli_main(["mesh", "--config", str(config_path), "--seed", "2", "--seed", "2"])
        assert code == 1
        assert "seeds repeats a value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_report_without_manifest_fails(self, tmp_path):
        assert cli_main(["report", "--out", str(tmp_path)]) == 1

    def test_bad_config_path_fails(self, tmp_path):
        assert cli_main(["generate", "--config", str(tmp_path / "missing.json")]) == 1

    def test_unknown_flow_method_fails_before_running(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        data = {**tiny_config(tmp_path / "out").to_dict(), "flow_method": "cg"}
        config_path.write_text(json.dumps(data))
        assert cli_main(["flow", "--config", str(config_path)]) == 1
        assert "unknown flow method 'cg'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
