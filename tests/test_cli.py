import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ctcsim import cli, serialize
from ctcsim.gates import GATE_NAMES, hadamard, swap
from ctcsim.topology import MAX_SPACE_POINTS


def run_cli(args, env=None):
    import os

    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ctcsim.cli", *args],
        capture_output=True,
        env=merged,
    )


def run_main(capsys, args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ canonical json


def test_canonical_json_sorts_keys():
    assert cli.canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_canonical_json_float_formatting():
    assert cli.canonical_json(1 / 3) == "0.333333333333333"
    assert cli.canonical_json(1.0) == "1"
    assert cli.canonical_json(-0.0) == "0"
    assert cli.canonical_json(1e-13) == "1e-13"


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        cli.canonical_json(float("nan"))


def test_a_since_outside_a_records_row_is_refused(capsys, monkeypatch):
    # only a records row has the number a Since reads; elsewhere it has no
    # text to be written as
    message = "cannot serialize a Since outside a records row in a report"
    for payload in (serialize.Since(3), {"x": serialize.Since(3)}, {"x": [1e15, serialize.Since(0)]}):
        with pytest.raises(TypeError, match=f"^{message}$"):
            cli.canonical_json(payload)
        report = cli.Report(cli.SCHEMA_VERSION, [], 0, {"x": payload}, 0.0)
        with pytest.raises(TypeError, match=f"^{message}$"):
            cli.emit_report(report, "csv")
    report = cli.Report(cli.SCHEMA_VERSION, ["beam"], 0, {"x": serialize.Since(3)}, 0.0)
    monkeypatch.setattr(cli, "dispatch", lambda argv: (report, cli.EXIT_OK, "json"))
    code, out, err = run_main(capsys, ["beam"])
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == f"error: {message}\n"


def test_canonical_json_nesting():
    doc = {"list": [True, None, "x"], "n": 5}
    assert cli.canonical_json(doc) == '{"list":[true,null,"x"],"n":5}'
    # a numpy bool is a bool, in the JSON and in the flat CSV
    doc = {"list": [np.True_, None, "x"], "n": 5, "b": np.False_}
    assert cli.canonical_json(doc) == '{"b":false,"list":[true,null,"x"],"n":5}'
    assert serialize.flat_csv(doc) == 'key,value\nb,false\nlist,true|null|"x"\nn,5'


def test_cyclic_payloads_end_in_recursion_error():
    # the report writer keeps no cycle markers: its one walk recurses into
    # every container, so a payload that holds itself ends there
    nested_list, nested_dict, strings = [1], {"a": 1}, ["a", "b"]
    nested_list.append(nested_list)
    nested_dict["self"] = nested_dict
    strings.append(strings)
    for payload in (nested_list, nested_dict, strings):
        with pytest.raises(RecursionError):
            cli.canonical_json(payload)
        with pytest.raises(RecursionError):
            serialize.flat_csv({"x": payload})


# ------------------------------------------------------------- reproducibility


#: sha256 of the stdout of commands no other golden covers: the flat CSV,
#: and ``1e+15``, which ``repr`` would print as ``1000000000000000.0``.
STDOUT_SHA256 = {
    "classify-consistency --tolerance 1e15": "b22c62508807427cf34b9849ad9441289f0d307bd27e6116d93dd5810ccd64fa",
    "run-protocol --output csv": "d2eeac98363d33dd6e74f42f0f33f711401bf546d9a837a1da0cfc6127ef07f3",
    "run-protocol --scenario storage --storage-cycles 50 --output csv": (
        "ef673c9caa13206cb3958dff508749b223df560b00edd902aee9cc451cd6d1dc"
    ),
    "resources --output csv": "0ecbd24f411ec18084720aacea835437bbd32342e5421894bf0f9f2ae5fe2420",
}


@pytest.mark.parametrize("command", STDOUT_SHA256)
def test_stdout_is_pinned(command):
    result = run_cli(command.split())
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[command]


@pytest.mark.parametrize(
    "args",
    [
        ["run-protocol", "--state", "0.6,0,0.8,0", "--seed", "7"],
        ["run-protocol", "--scenario", "self_signal", "--bob-measures", "--seed", "3"],
        ["fixed-point", "--unitary", "controlled_rotation", "--state", "0.6,0,0.8,0"],
        ["beam", "--trials", "40", "--seed", "11"],
        ["teleport-baseline", "--state", "0.6,0,0,0.8", "--seed", "2"],
        ["topology-check", "--copies", "3"],
        ["resources", "--seed", "5"],
    ],
)
def test_identical_invocations_are_byte_identical(args):
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_report_is_valid_json_with_schema_version(capsys):
    code, out, _ = run_main(capsys, ["run-protocol", "--seed", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["seed"] == 1
    assert doc["command"][0] == "run-protocol"
    assert "wall_time_ms" not in doc


@pytest.mark.parametrize("output", ("json", "csv"))
def test_stderr_times_compute_and_serialization_on_one_line(capsys, output):
    code, out, err = run_main(capsys, ["beam", "--trials", "50", "--output", output])
    assert code == 0
    assert re.fullmatch(r"wall_time_ms=\d+\.\d{3} serialize_ms=\d+\.\d{3}\n", err)
    assert "_ms" not in out


# ------------------------------------------------------------------ exit codes


def test_nominal_exits_zero(capsys):
    code, out, _ = run_main(capsys, ["run-protocol", "--seed", "0"])
    assert code == 0
    assert json.loads(out)["results"]["collapse_flag"] is False


def test_expected_collapse_exits_zero(capsys):
    code, out, _ = run_main(capsys, ["run-protocol", "--scenario", "bob_skips"])
    assert code == 0
    assert json.loads(out)["results"]["collapse_flag"] is True


def test_unexpected_collapse_exits_nonzero(capsys):
    code, out, _ = run_main(capsys, ["run-protocol", "--unitary", "cnot"])
    assert code == cli.EXIT_UNEXPECTED_COLLAPSE
    assert json.loads(out)["results"]["collapse_flag"] is True


def test_unknown_subcommand_usage_error():
    result = run_cli(["frobnicate"])
    assert result.returncode == 2
    assert b"usage" in result.stderr.lower()


def test_unknown_flag_usage_error():
    result = run_cli(["beam", "--frobnicate", "1"])
    assert result.returncode == 2


def test_invalid_state_is_descriptive(capsys):
    code, _, err = run_main(capsys, ["run-protocol", "--state", "1,0,1"])
    assert code == cli.EXIT_ERROR
    assert "a_re,a_im,b_re,b_im" in err


def test_unnormalized_state_is_descriptive(capsys):
    code, _, err = run_main(capsys, ["run-protocol", "--state", "1,0,1,0"])
    assert code == cli.EXIT_ERROR
    assert "not normalized" in err


def test_overflowing_inline_state_is_one_error_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(capsys, ["run-protocol", "--state", "1e308,0,1e308,0"])
    assert code == cli.EXIT_ERROR and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "not normalized" in lines[0], lines


@pytest.mark.parametrize(
    "argv, document, limit",
    (
        (
            ["run-protocol", "--state"],
            {"dim": 2, "data": [[1e308, 0], [1e308, 0]]},
            "state is not normalized: an entry has a part of size 1e+308; no part may exceed 1",
        ),
        (
            ["fixed-point", "--state"],
            {"dim": 2, "data": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]},
            "not a density operator: an entry has a part of size 1e+308; no part may exceed 1",
        ),
        (
            ["fixed-point", "--unitary"],
            {"dim": 4, "data": [[1e308, 0]] * 16},
            "matrix is not unitary: an entry has a part of size 1e+308; no part may exceed 1",
        ),
        (
            ["run-protocol", "--unitary"],
            {"dim": 4, "data": [[0, 0]] * 15 + [[math.inf, 0]]},
            "matrix is not unitary: an entry is not finite (NaN or Inf)",
        ),
        (["run-protocol", "--state"], {"dim": True, "data": [[1, 0], [0, 0]]}, "key 'dim' must be an int"),
        (["run-protocol", "--state"], {"dim": 2, "data": [5, 6]}, "key 'data' entry 0 must be a [re, im] pair"),
        (["run-protocol", "--state"], {"dim": 2, "data": None}, "key 'data' must be a list, got NoneType"),
        (
            ["run-protocol", "--state"],
            {"dim": 2, "data": [["1", "0"], [False, False]]},
            "key 'data' entry 0 must be a [re, im] pair of numbers",
        ),
    ),
    ids=("state", "density", "fixed_point_unitary", "protocol_unitary", "dim_bool", "data_ints",
         "data_null", "data_strings"),
)
def test_malformed_number_files_end_in_one_error_line_naming_the_file(tmp_path, capsys, argv, document, limit):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(capsys, [*argv, str(path)])
    assert code == cli.EXIT_ERROR and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ") and limit in lines[0], lines


def test_config_state_with_a_huge_part_ends_in_one_error_line_naming_the_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input_state": {"dim": 2, "data": [[1e200, 0], [0, 0]]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(capsys, ["run-protocol", "--config", str(path)])
    expected = (
        f"error: {path}: config key 'input_state': state is not normalized: "
        "an entry has a part of size 1e+200; no part may exceed 1"
    )
    assert (code, out, err.splitlines()) == (cli.EXIT_ERROR, "", [expected])


def test_missing_state_file(capsys):
    code, _, err = run_main(capsys, ["run-protocol", "--state", "/does/not/exist.json"])
    assert code == cli.EXIT_ERROR
    assert err == "error: /does/not/exist.json: cannot be read: No such file or directory\n"


@pytest.mark.parametrize(
    "argv",
    (["run-protocol", "--state"], ["fixed-point", "--unitary"], ["run-protocol", "--config"], ["topology-check", "--space"]),
    ids=("state", "unitary", "config", "space"),
)
def test_a_deeply_nested_file_ends_in_one_error_line_naming_the_file(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run_main(capsys, [*argv, str(path)])
    assert (code, out) == (cli.EXIT_ERROR, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path} "), lines


def nested(depth):
    entry = [0.5]
    for _ in range(depth - 1):
        entry = [entry]
    return entry


@pytest.mark.parametrize("entry", ([0.5] * 100_000, nested(900)), ids=("long", "deep"))
@pytest.mark.parametrize(
    "argv, wrap",
    (
        (["run-protocol", "--state"], lambda data: {"dim": 2, "data": data}),
        (["fixed-point", "--unitary"], lambda data: {"dim": 4, "data": data}),
        (["run-protocol", "--config"], lambda data: {"input_state": {"dim": 2, "data": data}}),
    ),
    ids=("state", "unitary", "config"),
)
def test_a_huge_data_entry_ends_in_one_short_error_line(tmp_path, capsys, argv, wrap, entry):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(wrap([entry, [0, 0]])))
    code, out, err = run_main(capsys, [*argv, str(path)])
    assert (code, out) == (cli.EXIT_ERROR, "")
    lines = err.splitlines()
    assert len(lines) == 1 and len(err.encode()) < 300, err[:400]
    assert lines[0].startswith(f"error: {path}: ") and "entry 0 must be a [re, im] pair" in lines[0]
    assert lines[0].endswith("...")


@pytest.mark.parametrize(
    "argv, document",
    (
        (["run-protocol", "--config"], {"input_state": {"dim": 2, "data": [[1, 0], [0, 0]]}}),
        (["topology-check", "--space"], {"points": ["a"], "opens": [[], ["a"]]}),
    ),
    ids=("config", "space"),
)
def test_a_huge_unknown_key_ends_in_one_short_error_line(tmp_path, capsys, argv, document):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**document, "x" * 100_000: 1}))
    code, out, err = run_main(capsys, [*argv, str(path)])
    assert (code, out) == (cli.EXIT_ERROR, "")
    lines = err.splitlines()
    assert len(lines) == 1 and len(err.encode()) < 300, err[:400]
    assert lines[0].startswith(f"error: {path}: ") and "has unknown key 'xxx" in lines[0]


@pytest.mark.parametrize("argv", (["run-protocol", "--state"], ["run-protocol", "--ctc"], ["fixed-point", "--state"]))
def test_one_number_is_an_inline_state_not_a_path(capsys, argv):
    code, out, err = run_main(capsys, [*argv, "0.6"])
    expected = "error: inline state needs 4 comma-separated numbers (a_re,a_im,b_re,b_im), got 1"
    assert (code, out, err.splitlines()) == (cli.EXIT_ERROR, "", [expected])


# ------------------------------------------------------------------ file inputs


def write_document(path, document):
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")


def test_state_and_unitary_files(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    write_document(state_path, serialize.to_document([0.6, 0.8j]))
    gate_path = tmp_path / "gate.json"
    write_document(gate_path, serialize.to_document(hadamard().matrix))
    code, out, _ = run_main(
        capsys,
        ["classify-consistency", "--state", str(state_path), "--unitary", "swap"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["weak"]["pass"] is True
    # a 2x2 file gate is rejected for the 2-qubit protocol with a clear error
    for command in ("run-protocol", "classify-consistency"):
        code, _, err = run_main(capsys, [command, "--unitary", str(gate_path)])
        assert code == cli.EXIT_ERROR
        assert "2 qubits" in err


def test_fixed_point_accepts_density_matrix_file(tmp_path, capsys):
    rho_path = tmp_path / "rho.json"
    write_document(rho_path, serialize.to_document(np.diag([0.75, 0.25])))
    code, out, _ = run_main(
        capsys, ["fixed-point", "--unitary", "swap", "--state", str(rho_path)]
    )
    assert code == 0
    doc = json.loads(out)
    rho = doc["results"]["spectral"]["rho"]["data"]
    assert rho[0][0] == pytest.approx(0.75)


def test_topology_check_space_file(tmp_path, capsys):
    from ctcsim.topology import build_line_splitting

    path = tmp_path / "space.json"
    path.write_text(json.dumps(build_line_splitting(2).to_json()))
    code, out, _ = run_main(capsys, ["topology-check", "--space", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["hausdorff"] is False
    assert doc["results"]["witness"] == ["0_1", "0_2"]


def test_topology_check_needs_exactly_one_source(capsys):
    code, _, err = run_main(capsys, ["topology-check"])
    assert code == cli.EXIT_ERROR
    assert "exactly one" in err


def test_topology_check_violations_do_not_depend_on_hash_seed(tmp_path):
    path = tmp_path / "space.json"
    opens = [[], ["a", "b"], ["b", "c"], ["c", "d"], ["a"], ["a", "b", "c", "d"]]
    path.write_text(json.dumps({"points": ["a", "b", "c", "d"], "opens": opens}))
    runs = [
        run_cli(["topology-check", "--space", str(path)], env={"PYTHONHASHSEED": seed})
        for seed in ("0", "1")
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["results"]["violations"][0] == (
        "intersection ['b'] of opens is not open"
    )


def test_topology_check_caps_copies(capsys):
    code, out, err = run_main(capsys, ["topology-check", "--copies", str(cli.MAX_COPIES + 1)])
    assert code == cli.EXIT_ERROR and out == ""
    assert err == f"error: --copies must be at most {cli.MAX_COPIES}, got {cli.MAX_COPIES + 1}\n"


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the cap was checked")


@pytest.mark.parametrize(
    "argv, flag, cap, first_work",
    [
        (["beam", "--trials"], "--trials", cli.MAX_TRIALS, "run_beam"),
        (
            ["run-protocol", "--scenario", "storage", "--storage-cycles"],
            "--storage-cycles",
            cli.MAX_STORAGE_CYCLES,
            "run_session",
        ),
        (["classify-consistency", "--grid"], "--grid", cli.MAX_GRID, "_gate_spec"),
    ],
)
def test_work_caps_reject_before_any_work(capsys, monkeypatch, argv, flag, cap, first_work):
    monkeypatch.setattr(cli, first_work, _no_work)
    code, out, err = run_main(capsys, [*argv, str(cap + 1)])
    assert code == cli.EXIT_ERROR and out == ""
    assert err == f"error: {flag} must be at most {cap}, got {cap + 1}\n"


@pytest.mark.parametrize(
    "argv, flag, low, first_work",
    [
        (["beam", "--trials"], "--trials", 1, "run_beam"),
        (["classify-consistency", "--grid"], "--grid", 8, "_gate_spec"),
        (["topology-check", "--copies"], "--copies", 2, "build_line_splitting"),
        (["run-protocol", "--storage-cycles"], "--storage-cycles", 0, "ProtocolConfig"),
    ],
)
def test_lower_limits_name_their_flag_before_any_work(capsys, monkeypatch, argv, flag, low, first_work):
    monkeypatch.setattr(cli, first_work, _no_work)
    code, out, err = run_main(capsys, [*argv, str(low - 1)])
    assert (code, out, err) == (cli.EXIT_ERROR, "", f"error: {flag} must be at least {low}, got {low - 1}\n")


def test_storage_cycles_cap_applies_to_config_files(tmp_path, capsys, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "input_state": {"dim": 2, "data": [[0.6, 0.0], [0.8, 0.0]]},
        "scenario": "storage",
        "storage_cycles": cli.MAX_STORAGE_CYCLES + 1,
    }))
    monkeypatch.setattr(cli, "run_session", _no_work)
    code, out, err = run_main(capsys, ["run-protocol", "--config", str(path)])
    assert code == cli.EXIT_ERROR and out == ""
    assert err == (
        f"error: {path}: config key 'storage_cycles' must be at most {cli.MAX_STORAGE_CYCLES}, "
        f"got {cli.MAX_STORAGE_CYCLES + 1}\n"
    )


def test_fixed_point_zero_tolerance_converges(capsys):
    code, out, _ = run_main(
        capsys,
        ["fixed-point", "--unitary", "controlled_rotation", "--state", "0.6,0,0,0.8", "--tolerance", "0"],
    )
    assert code == 0
    assert json.loads(out)["results"]["iterative"]["iterations"] == 1


@pytest.mark.parametrize("subcommand", ["fixed-point", "classify-consistency"])
@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_tolerance_must_be_finite_and_non_negative(capsys, subcommand, tolerance):
    code, out, err = run_main(capsys, [subcommand, "--tolerance", tolerance])
    assert code == cli.EXIT_ERROR and out == ""
    assert err.count("\n") == 1 and "--tolerance" in err


def test_config_file(tmp_path, capsys):
    config = {
        "input_state": {"dim": 2, "data": [[0.6, 0.0], [0.8, 0.0]]},
        "scenario": "storage",
        "seed": 9,
        "storage_cycles": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_main(capsys, ["run-protocol", "--config", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 9
    assert doc["results"]["detail"]["scenario"] == "storage"


def test_config_and_seed_conflict(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input_state": {"dim": 2, "data": [[1, 0], [0, 0]]}}))
    code, _, err = run_main(capsys, ["run-protocol", "--config", str(path), "--seed", "1"])
    assert code == cli.EXIT_ERROR
    assert "mutually exclusive" in err


@pytest.mark.parametrize(
    "flag",
    [
        ["--state", "0.6,0,0.8,0"],
        ["--ctc", "1,0,0,0"],
        ["--unitary", "swap"],
        ["--formalism", "wavefunction"],
        ["--scenario", "bob_skips"],
        ["--bob-measures"],
        ["--storage-cycles", "999999"],
    ],
    ids=lambda flag: flag[0],
)
def test_config_refuses_every_session_flag(tmp_path, capsys, flag):
    # refused even at its default value: the file, not the flag, sets the session
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input_state": {"dim": 2, "data": [[1, 0], [0, 0]]}}))
    code, out, err = run_main(capsys, ["run-protocol", "--config", str(path), *flag])
    assert code == cli.EXIT_ERROR and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert f"--config and {flag[0]} are mutually exclusive" in lines[0]


def test_value_that_rounds_to_infinity_is_one_error_line():
    result = run_cli(["classify-consistency", "--tolerance", "1.7976931348623157e308"])
    assert result.returncode == cli.EXIT_ERROR and result.stdout == b""
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "1.7976931348623157e+308 rounds to infinity at 15 significant digits" in lines[0]


@pytest.mark.parametrize(
    "argv, document, key",
    [
        (["run-protocol", "--config"], {"seed": 1}, "'input_state'"),
        (
            ["run-protocol", "--config"],
            {"input_state": {"dim": 2, "data": [[1, 0], [0, 0]]}, "gate": "swap"},
            "'gate'",
        ),
        (
            ["run-protocol", "--config"],
            {"input_state": {"dim": 2, "data": [[1, 0], [0, 0]]}, "bob_measures": "no"},
            "'bob_measures'",
        ),
        (["topology-check", "--space"], {"opens": [[], ["a"]]}, "'points'"),
        (["topology-check", "--space"], {"points": ["a"], "opens": "a"}, "'opens'"),
        (["topology-check", "--space"], ["a"], "JSON object"),
        (
            ["run-protocol", "--config"],
            {"input_state": {"dim": 2, "data": [[1, 0], [0, 0]]}, "gate": {"name": "controlled_phase", "params": [1]}},
            "'gate.params'",
        ),
        (
            ["run-protocol", "--config"],
            {"input_state": {"dim": 2, "data": [[1, 0], [0, 0]]}, "gate": {"name": "controlled_phase", "params": True}},
            "'gate.params'",
        ),
        (
            ["run-protocol", "--config"],
            {
                "input_state": {"dim": 2, "data": [[1, 0], [0, 0]]},
                "seed": True,
                "storage_cycles": False,
                "scenario": "storage",
            },
            "'seed'",
        ),
        # a key the reader does not know, mistyped or extra
        (
            ["run-protocol", "--config"],
            {"input_state": {"dim": 2, "data": [[1, 0], [0, 0]]}, "scenaro": "bob_skips"},
            "config has unknown key 'scenaro'",
        ),
        (
            ["run-protocol", "--config"],
            {"input_state": {"dim": 2, "data": [[1, 0], [0, 0]]}, "gate": {"name": "swap", "parms": 1}},
            "config key 'gate' has unknown key 'parms'",
        ),
        (
            ["topology-check", "--space"],
            {"points": ["a"], "opens": [[], ["a"]], "copies": 3},
            "space has unknown key 'copies'",
        ),
    ],
)
def test_malformed_json_files_give_one_error_line(tmp_path, argv, document, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    result = run_cli([*argv, str(path)])
    assert result.returncode == cli.EXIT_ERROR
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0], lines
    assert result.stdout == b""


@pytest.mark.parametrize(
    "document, message",
    [
        ({"points": ["a", "b"], "opens": ["ab", [], ["a"]]}, "'opens' entry 0 must be a list, got str"),
        ({"points": ["a", "b"], "opens": [[], 5]}, "'opens' entry 1 must be a list, got int"),
        ({"points": ["a", "b"], "opens": [[], {"a": 1}]}, "'opens' entry 1 must be a list, got dict"),
        ({"points": ["a", ["b"]], "opens": [[]]}, "'points' entry 1 must be a string, got list"),
        ({"points": ["a", 1], "opens": [[]]}, "'points' entry 1 must be a string, got int"),
        (
            {"points": ["a", "b"], "opens": [[], ["a"], ["a", 1]]},
            "'opens' entry 2 must hold only strings, got int",
        ),
        (
            {"points": ["a", "b"], "opens": [[], ["a", ["b"]]]},
            "'opens' entry 1 must hold only strings, got list",
        ),
    ],
)
def test_topology_labels_and_opens_of_the_wrong_type_give_one_error_line(tmp_path, document, message):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(document))
    result = run_cli(["topology-check", "--space", str(path)])
    assert result.returncode == cli.EXIT_ERROR and result.stdout == b""
    assert result.stderr.decode().splitlines() == [f"error: {path}: space key {message}"]


#: A wall-clock limit for a run that must end at once: far above the
#: 0.3 s these runs take on a 2-core Xeon, far below a hang.
AT_ONCE_S = 10


def test_integer_custom_path_with_stdin_held_open_ends_at_once(tmp_path):
    # the path 0 must not be opened: as a file descriptor it is stdin
    path = tmp_path / "config.json"
    state = {"dim": 2, "data": [[1, 0], [0, 0]]}
    path.write_text(json.dumps({"input_state": state, "gate": {"name": "custom", "custom_path": 0}}))
    read_end, write_end = os.pipe()
    try:
        result = subprocess.run(
            [sys.executable, "-m", "ctcsim.cli", "run-protocol", "--config", str(path)],
            stdin=read_end, capture_output=True, timeout=AT_ONCE_S,
        )
    finally:
        os.close(read_end)
        os.close(write_end)
    assert (result.returncode, result.stdout) == (cli.EXIT_ERROR, b"")
    assert result.stderr.decode().splitlines() == [
        f"error: {path}: config key 'gate.custom_path' must be a string or null, got int"
    ]


def test_over_cap_space_file_ends_at_once_in_one_error_line(tmp_path):
    # 2,000 open singletons took 19 s and printed 56 MB before the caps
    points = [f"p{i}" for i in range(2000)]
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"points": points, "opens": [[]] + [[p] for p in points]}))
    result = subprocess.run(
        [sys.executable, "-m", "ctcsim.cli", "topology-check", "--space", str(path)],
        capture_output=True, timeout=AT_ONCE_S,
    )
    assert (result.returncode, result.stdout) == (cli.EXIT_ERROR, b"")
    assert result.stderr.decode().splitlines() == [
        f"error: {path}: space key 'points' holds 2000 entries; at most {MAX_SPACE_POINTS} are allowed"
    ]


#: Limits for storage at its cap, end to end in a child process: twice the
#: slowest time past interpreter start and imports, 0.53 s, and twice the
#: peak RSS, 135 MiB, measured on a 2-core Xeon as JSON or CSV (4-7 s and
#: 320 MiB with an event object and a dict per cycle).
STORAGE_CAP_WALL_S = 1.1
STORAGE_CAP_RSS_MIB = 270
#: Runs ``argv`` and prints its exit code, wall time and peak RSS: as the
#: one child this process waits for, its RUSAGE_CHILDREN is the run's own.
MEASURED = """
import resource, subprocess, sys, time
with open(sys.argv[1], "wb") as out:
    started = time.perf_counter()
    code = subprocess.run(sys.argv[2:], stdout=out).returncode
print(code, time.perf_counter() - started, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def measured(out, *argv) -> tuple:
    """The exit code, wall time in s and peak RSS in MiB of a child Python
    run with ``argv``, its stdout written to ``out``."""
    result = subprocess.run(
        [sys.executable, "-c", MEASURED, str(out), sys.executable, *argv],
        capture_output=True, text=True, timeout=60,
    )
    code, wall_s, rss_kib = result.stdout.split()
    return int(code), float(wall_s), int(rss_kib) / 1024


@pytest.mark.parametrize("output", ("json", "csv"))
def test_storage_at_its_cap_ends_in_bounded_time_and_memory(tmp_path, output):
    out = tmp_path / f"storage.{output}"
    argv = ["run-protocol", "--scenario", "storage", "--storage-cycles", str(cli.MAX_STORAGE_CYCLES)]
    # interpreter start and imports, which the bound leaves out
    _, start_s, _ = measured(tmp_path / "start.out", "-c", "import ctcsim.cli")
    code, wall_s, rss_mib = measured(out, "-m", "ctcsim.cli", *argv, "--output", output)
    assert code == cli.EXIT_OK
    assert out.read_bytes().count(b'"kind":"storage_cycle"') == cli.MAX_STORAGE_CYCLES
    assert wall_s - start_s < STORAGE_CAP_WALL_S
    assert rss_mib < STORAGE_CAP_RSS_MIB


def test_a_storage_report_prints_strings_that_read_like_counters(tmp_path, capsys, monkeypatch):
    # a row's counters stay objects between the pieces of its text, which
    # record t fills with its numbers: no text in a string, a number between
    # control characters, may be taken for one
    name = f"u{-(2**63)}\x027\x02.json"
    (tmp_path / name).write_text(json.dumps(swap().to_json()))
    state = {"dim": 2, "data": [[0.6, 0], [0.8, 0]]}
    gate = {"name": "custom", "custom_path": name}
    config = {"input_state": state, "gate": gate, "scenario": "storage", "storage_cycles": 3}
    (tmp_path / "c.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_main(capsys, ["run-protocol", "--config", "c.json"])
    assert code == cli.EXIT_OK
    events = json.loads(out)["results"]["events"]
    assert {e["detail"]["gate"] for e in events if e["kind"] == "gate"} == {f"custom:{name}"}
    assert [e["detail"]["cycle"] for e in events if e["kind"] == "storage_cycle"] == [0, 1, 2]
    code, out, _ = run_main(capsys, ["run-protocol", "--config", "c.json", "--output", "csv"])
    assert code == cli.EXIT_OK
    leaf = next(line for line in out.splitlines() if line.startswith("results.events,"))
    texts = [json.loads(text) for text in leaf.split(",", 1)[1].split("|")]
    assert texts == events


def test_config_reads_its_custom_gate_from_its_own_directory(tmp_path, capsys, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "u.json").write_text(json.dumps(swap().to_json()))
    state = {"dim": 2, "data": [[0.6, 0], [0.8, 0]]}
    (sub / "c.json").write_text(
        json.dumps({"input_state": state, "gate": {"name": "custom", "custom_path": "u.json"}})
    )
    outputs = {}
    for cwd, config in ((tmp_path, "sub/c.json"), (sub, "c.json")):
        monkeypatch.chdir(cwd)
        code, out, _ = run_main(capsys, ["run-protocol", "--config", config])
        assert code == cli.EXIT_OK
        outputs[config] = json.loads(out)["results"]
    assert outputs["sub/c.json"]["detail"]["gate"] == "custom:sub/u.json"
    # run from its own directory, the config reads the path as written
    assert outputs["c.json"]["detail"]["gate"] == "custom:u.json"
    for key in ("transferred_state", "transfer_fidelity", "verdicts"):
        assert outputs["c.json"][key] == outputs["sub/c.json"][key]


@pytest.mark.parametrize(
    "argv",
    [
        ["fixed-point", "--unitary"],
        ["run-protocol", "--config"],
        ["topology-check", "--space"],
        ["run-protocol", "--state"],
        ["run-protocol", "--ctc"],
        ["fixed-point", "--state"],
    ],
)
def test_empty_json_file_is_named_in_one_error_line(tmp_path, capsys, argv):
    """Every file flag reads through one reader: an empty file, a directory
    and a missing path each end in one error line that names the path."""
    empty, missing = tmp_path / "empty.json", tmp_path / "missing.json"
    empty.write_text("")
    cases = {
        empty: f"{empty} does not hold a JSON document: Expecting value: line 1 column 1 (char 0)",
        tmp_path: f"{tmp_path}: cannot be read: Is a directory",
        missing: f"{missing}: cannot be read: No such file or directory",
    }
    if argv[1] == "--unitary":  # a path that does not exist may be a mistyped gate name
        cases[missing] = f"--unitary must be one of {GATE_NAMES[:-1]} or an existing file, got {str(missing)!r}"
    if argv[1] == "--config":
        state = {"dim": 2, "data": [[1, 0], [0, 0]]}
        formalism, custom = tmp_path / "formalism.json", tmp_path / "custom.json"
        formalism.write_text(json.dumps({"input_state": state, "formalism": "x"}))
        custom.write_text(json.dumps({"input_state": state, "gate": {"name": "custom", "custom_path": str(missing)}}))
        cases[formalism] = f"{formalism}: unknown formalism 'x'"
        beam = tmp_path / "beam.json"  # a beam is run_beam's, not a session's
        beam.write_text(json.dumps({"input_state": state, "scenario": "beam"}))
        cases[beam] = f"{beam}: unknown scenario 'beam'"
        cases[custom] = f"{custom}: {missing}: cannot be read: No such file or directory"
    for path, line in cases.items():
        code, out, err = run_main(capsys, [*argv, str(path)])
        assert (code, out, err.splitlines()) == (cli.EXIT_ERROR, "", [f"error: {line}"])


# ------------------------------------------------------------------------- env


def test_env_seed_default():
    with_env = run_cli(["beam", "--trials", "10"], env={"CTC_SIM_SEED": "123"})
    explicit = run_cli(["beam", "--trials", "10", "--seed", "123"])
    a = json.loads(with_env.stdout)["results"]
    b = json.loads(explicit.stdout)["results"]
    assert a == b


@pytest.mark.parametrize(
    "argv,env,message",
    (
        (["beam", "--seed", "-1"], None, "--seed must be an integer >= 0, got -1"),
        (["run-protocol", "--seed", "-1"], None, "--seed must be an integer >= 0, got -1"),
        (["beam", "--trials", "2"], "-1", "CTC_SIM_SEED must be an integer >= 0, got -1"),
        (["beam", "--trials", "2"], "abc", "CTC_SIM_SEED must be an integer >= 0, got 'abc'"),
        (["fixed-point"], "abc", "CTC_SIM_SEED must be an integer >= 0, got 'abc'"),
    ),
    ids=("beam_flag", "run_protocol_flag", "env_negative", "env_text", "fixed_point_env_text"),
)
def test_bad_seeds_end_in_one_error_line_naming_the_input(argv, env, message, capsys, monkeypatch):
    monkeypatch.delenv("CTC_SIM_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("CTC_SIM_SEED", env)
    code, out, err = run_main(capsys, argv)
    assert (code, out, err.splitlines()) == (cli.EXIT_ERROR, "", [f"error: {message}"])


def test_negative_config_seed_names_the_key(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input_state": {"dim": 2, "data": [[1, 0], [0, 0]]}, "seed": -1}))
    code, out, err = run_main(capsys, ["run-protocol", "--config", str(path)])
    expected = [f"error: {path}: config key 'seed' must be an integer >= 0, got -1"]
    assert (code, out, err.splitlines()) == (cli.EXIT_ERROR, "", expected)


@pytest.mark.parametrize("argv,env", ((["--seed", "-1"], None), ([], "-1")))
def test_a_seed_that_is_only_printed_may_be_negative(argv, env, capsys, monkeypatch):
    monkeypatch.delenv("CTC_SIM_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("CTC_SIM_SEED", env)
    for command in (["fixed-point"], ["topology-check", "--copies", "3"]):
        code, out, _ = run_main(capsys, [*command, *argv])
        assert code == 0 and json.loads(out)["seed"] == -1


def test_multiword_seed_beam_csv(capsys, monkeypatch):
    monkeypatch.delenv("CTC_SIM_SEED", raising=False)
    argv = ["beam", "--trials", "3", "--seed", "99999999999999999999999999", "--output", "csv"]
    code, out, _ = run_main(capsys, argv)
    assert code == 0 and len(out.splitlines()) == 4


# ------------------------------------------------------------------------- csv


def test_beam_csv_one_row_per_trial(capsys):
    code, out, _ = run_main(capsys, ["beam", "--trials", "12", "--seed", "4", "--output", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trial,prep_basis,meas_basis,outcome,matched,action"
    assert len(lines) == 13


def test_flat_csv_for_other_commands(capsys):
    code, out, _ = run_main(
        capsys, ["fixed-point", "--unitary", "swap", "--state", "1,0,0,0", "--output", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("results.spectral.residual,") for line in lines)


# ------------------------------------------------------- classify and scan


def test_classify_consistency_verdicts(capsys):
    code, out, _ = run_main(
        capsys,
        ["classify-consistency", "--unitary", "swap", "--state", "1,0,0,0", "--ctc", "1,0,0,0"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["strong"]["pass"] is True
    assert results["deutsch"]["pass"] is True
    assert results["weak"]["pass"] is True


def test_classify_evaluates_deutsch_once(capsys, monkeypatch):
    from ctcsim import consistency

    original = consistency.check_deutsch
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ctcsim") and getattr(module, "check_deutsch", None) is original:
            monkeypatch.setattr(module, "check_deutsch", counted)
    code, _, _ = run_main(capsys, ["classify-consistency", "--grid", "16"])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("tolerance", ["1e-12", "1"])
def test_classify_deutsch_verdict_uses_tolerance(capsys, tolerance):
    from ctcsim.consistency import check_deutsch
    from ctcsim.gates import cnot
    from ctcsim.states import StateVector

    code, out, _ = run_main(
        capsys,
        ["classify-consistency", "--unitary", "cnot", "--state", "0.6,0,0.8,0",
         "--ctc", "0.8,0,0,0.6", "--tolerance", tolerance],
    )
    assert code == 0
    expected = check_deutsch(
        cnot(),
        StateVector.qubit(0.6, 0.8).density(),
        StateVector.qubit(0.8, 0.6j).density(),
        tolerance=float(tolerance),
    )
    deutsch = json.loads(out)["results"]["deutsch"]
    assert deutsch == json.loads(cli.canonical_json(expected.to_json()))


# swap admits only the CTC state itself; 0.6|0> + 0.8|1> is no grid point, so
# the second case prints the report's empty scan
@pytest.mark.parametrize(
    "ctc,count,max_residual",
    [("1,0,0,0", 1, 0), ("0.6,0,0,0.8", 0, None)],
    ids=["grid_point", "no_grid_point"],
)
def test_classify_with_grid_scan(capsys, ctc, count, max_residual):
    code, out, _ = run_main(
        capsys,
        [
            "classify-consistency",
            "--unitary", "swap",
            "--state", "0.6,0,0.8,0",
            "--ctc", ctc,
            "--grid", "8",
        ],
    )
    assert code == 0
    scan = json.loads(out)["results"]["admissible_scan"]
    assert scan["grid_resolution"] == 8
    assert scan["admissible_count"] == count
    assert scan["max_residual"] == max_residual


def test_parse_and_dispatch_returns_report():
    report = cli.dispatch(["fixed-point", "--unitary", "swap", "--state", "1,0,0,0"])[0]
    assert report.schema_version == "1"
    assert report.results["methods_agree"] is True
    assert report.wall_time_ms >= 0.0
    # the swap coupling pins the CTC state to the coupled input |0><0|
    assert report.results["spectral"]["rho"]["data"] == [[1, 0], [0, 0], [0, 0], [0, 0]]
