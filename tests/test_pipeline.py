import hashlib
import json

import pytest

from fracscale.cli import main as cli_main
from fracscale.pipeline import (
    RunConfig,
    _percolation_class,
    config_hash,
    load_config,
    report_tables,
    run_pipeline,
    save_config,
)


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
        with pytest.raises(ValueError):
            tiny_config("x", tracers=("magic",))

    def test_flow_method_validated_up_front(self):
        data = tiny_config("x").to_dict()
        for method in ("auto", "direct"):
            assert RunConfig.from_dict({**data, "flow_method": method}).flow_method == method
        with pytest.raises(ValueError, match="flow method 'cg'"):
            RunConfig.from_dict({**data, "flow_method": "cg"})

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
        config = tiny_config(tmp_path)
        run_pipeline(config, upto="flow")
        first = (tmp_path / "manifest.json").read_bytes()
        run_pipeline(config, upto="flow")
        assert (tmp_path / "manifest.json").read_bytes() == first

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
                "fallbacks", "min_concentration", "ledger_closure",
            }
            assert row["steps"] >= config.n_outputs
            assert 0 < row["factorizations"] <= row["steps"]
            assert row["krylov_iterations"] >= row["factorizations"]
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
