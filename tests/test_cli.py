"""Command line behavior: subcommands, outputs, exit codes."""

import json

import pytest

import vanetsim
from vanetsim import cli
from vanetsim.cli import main
from vanetsim.metrics import CSV_HEADER


def write_cfg(tmp_path, data, name="scenario.json"):
    fp = tmp_path / name
    fp.write_text(json.dumps(data))
    return str(fp)


def tiny_scenario(tmp_path, **extra):
    data = {
        "mobility": {"road_length_m": 1500.0},
        "workload": {"rate_per_s": 2.0},
        "protocols": ["baseline"],
        "densities": [8],
        "seeds": [1],
        "sim_duration_s": 2.0,
    }
    data.update(extra)
    return write_cfg(tmp_path, data)


def test_version_prints_package_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == vanetsim.__version__


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "vanetsim" in capsys.readouterr().out


def test_unknown_flag_exits_one(tmp_path, capsys):
    assert main(["run", "--config", tiny_scenario(tmp_path), "--turbo"]) == 1


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1


def test_validate_echoes_normalized_json(tmp_path, capsys):
    path = tiny_scenario(tmp_path)
    assert main(["validate", "--config", path]) == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["densities"] == [8]
    assert echoed["radio"]["range_m"] == 300.0
    assert echoed["protocols"] == ["baseline"]


def test_validate_rejects_bad_value_with_key_path(tmp_path, capsys):
    path = write_cfg(tmp_path, {"radio": {"range_m": -1}})
    assert main(["validate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "radio.range_m" in err


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"radio": {"range_m": NaN}}', "radio.range_m"),
        ('{"sim_duration_s": Infinity}', "sim_duration_s"),
        ('{"cloud": {"uplink_us": 1}, "knobs": {"d_min_m": -Infinity}}', "knobs.d_min_m"),
        ('{"workload": {"rate_per_s": 1e400}}', "workload.rate_per_s"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, text, key, command):
    # Python's json reads these literals as floats; both commands refuse them
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{key}: must be a finite number" in err


@pytest.mark.parametrize("key", ["uplink_us", "downlink_us", "processing_us"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_negative_cloud_latency_is_a_config_error(tmp_path, capsys, key, command):
    path = write_cfg(tmp_path, {"cloud": {key: -1}})
    assert main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"cloud.{key}: must be non-negative" in err


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "none.json")]) == 1
    assert "config error:" in capsys.readouterr().err


def test_run_writes_csv_to_stdout_by_default(tmp_path, capsys):
    assert main(["run", "--config", tiny_scenario(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2 and lines[1].startswith("baseline,8,1,")


def test_run_writes_requested_artifacts(tmp_path, capsys):
    out_csv = tmp_path / "metrics.csv"
    plots = tmp_path / "plots"
    ev_log = tmp_path / "events.log"
    rc = main(
        [
            "run",
            "--config", tiny_scenario(tmp_path),
            "--out", str(out_csv),
            "--plot-data", str(plots),
            "--event-log", str(ev_log),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    body = out_csv.read_text()
    assert body.startswith(CSV_HEADER + "\n") and body.endswith("\n")
    names = sorted(p.name for p in plots.iterdir())
    assert names == [
        "baseline_avg_throughput_bps.dat",
        "baseline_delivery_probability.dat",
        "baseline_mean_e2e_delay_s.dat",
        "baseline_plr.dat",
    ]
    log_text = ev_log.read_text()
    assert log_text.startswith("# run protocol=baseline density=8 seed=1\n")
    assert "\tSimEnd\t" in log_text


@pytest.mark.parametrize(
    "flag, name",
    [
        ("--out", "missing/metrics.csv"),
        ("--event-log", "missing/events.log"),
        ("--plot-data", "taken.txt"),
        ("--out", "adir"),
        ("--event-log", "adir"),
    ],
)
def test_unwritable_output_is_refused_before_any_run(tmp_path, capsys, monkeypatch, flag, name):
    (tmp_path / "taken.txt").write_text("a file, not a directory\n")
    (tmp_path / "adir").mkdir()
    path = str(tmp_path / name)

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_sweep", no_run)
    assert main(["run", "--config", tiny_scenario(tmp_path), flag, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--out", "--event-log"])
def test_an_output_that_cannot_be_written_is_one_config_error(tmp_path, capsys, flag):
    # a name too long for the file system passes the up-front checks, so
    # opening it fails after the run
    path = str(tmp_path / ("x" * 300))
    assert main(["run", "--config", tiny_scenario(tmp_path), flag, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag} {path}: ") and err.count("\n") == 1


def test_run_budget_exhaustion_exits_two(tmp_path, capsys):
    path = tiny_scenario(tmp_path, knobs={"event_budget": 25})
    assert main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and "event budget" in err


def test_run_parallel_workers_accepted(tmp_path, capsys):
    path = tiny_scenario(tmp_path, densities=[6, 8], seeds=[1, 2])
    assert main(["run", "--config", path, "--workers", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_are_refused_before_any_run(tmp_path, capsys, monkeypatch, workers):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_sweep", no_run)
    assert main(["run", "--config", tiny_scenario(tmp_path), "--workers", workers]) == 1
    assert capsys.readouterr().err == "config error: --workers: must be at least 1\n"


@pytest.mark.parametrize(
    "body",
    [
        "<fcd-export/>",
        '<fcd-export><timestep time="0.00"/></fcd-export>',
        # a vehicle outside any timestep is not a sample
        '<fcd-export><vehicle id="a" x="0" y="0" speed="0"/></fcd-export>',
    ],
    ids=["no-timestep", "empty-timestep", "vehicle-outside-timestep"],
)
def test_run_empty_trace_names_the_file(tmp_path, capsys, body):
    trace = tmp_path / "empty.fcd.xml"
    trace.write_text(body)
    path = tiny_scenario(
        tmp_path,
        mobility={"mode": "trace", "trace_path": str(trace), "vehicle_count": 1},
        densities=[1],
    )
    for workers in ("1", "2"):
        assert main(["run", "--config", path, "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {trace}: trace contains no vehicle samples\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("<fcd-export/>", "trace contains no vehicle samples"),
        ("<fcd-export><timestep", "malformed XML"),
    ],
    ids=["empty", "malformed"],
)
def test_validate_reads_the_trace(tmp_path, capsys, body, message):
    trace = tmp_path / "bad.fcd.xml"
    trace.write_text(body)
    path = tiny_scenario(
        tmp_path,
        mobility={"mode": "trace", "trace_path": str(trace), "vehicle_count": 1},
        densities=[1],
    )
    assert main(["validate", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {trace}: ")
    assert message in captured.err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_trace_densities_must_equal_the_vehicle_count(tmp_path, capsys, command):
    trace = tmp_path / "six.fcd.xml"
    vehicles = "".join(
        f'<vehicle id="v{i}" x="{40 * i}.0" y="0.0" speed="0.0"/>' for i in range(6)
    )
    trace.write_text(f'<fcd-export><timestep time="0.00">{vehicles}</timestep></fcd-export>')
    mobility = {"mode": "trace", "trace_path": str(trace), "vehicle_count": 6}
    path = tiny_scenario(tmp_path, mobility=mobility, densities=[6, 5])
    assert main([command, "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # named before any run, so without a run prefix
    assert captured.err == (
        f"config error: densities: 5 but trace '{trace}' contains 6 vehicles\n"
    )
    ok = tiny_scenario(tmp_path, mobility=mobility, densities=[6])
    assert main([command, "--config", ok]) == 0
