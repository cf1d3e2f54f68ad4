import json

import pytest

import mlsspf as m
from mlsspf.cli import run_cli


@pytest.fixture
def files(tmp_path):
    formula = tmp_path / "ex1.mlsspf"
    formula.write_text("w in x\n!Finite(x)\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"w": [[]], "x": [[[]], [[[]]]]}))
    plain = tmp_path / "plain.mlsspf"
    plain.write_text("x = {y} & y = {}")
    plain_model = tmp_path / "plain_model.json"
    plain_model.write_text(json.dumps({"x": [[]], "y": []}))
    return tmp_path


def test_parse_ok(files, capsys):
    assert run_cli(["parse", str(files / "ex1.mlsspf")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vars"] == ["w", "x"]


def test_parse_syntax_error_is_input_error(files):
    bad = files / "bad.mlsspf"
    bad.write_text("x = Pow(")
    assert run_cli(["parse", str(bad)]) == 3


def test_missing_file_is_input_error(files):
    assert run_cli(["parse", str(files / "nope.mlsspf")]) == 3


def test_check_model_exit_codes(files):
    assert run_cli(["check-model", "-f", str(files / "plain.mlsspf"),
                    "-m", str(files / "plain_model.json")]) == 0
    assert run_cli(["check-model", "-f", str(files / "ex1.mlsspf"),
                    "-m", str(files / "model.json")]) == 1


def test_venn_and_board(files, capsys):
    assert run_cli(["venn", "-m", str(files / "model.json")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["blocks"]) == 2
    assert run_cli(["board", "-f", str(files / "ex1.mlsspf"),
                    "-m", str(files / "model.json")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["red"] == [] and data["powNodes"] == []


def test_process_synth_validate_round_trip(files, capsys):
    out = files / "proc.json"
    assert run_cli(["process", "synth", "-m", str(files / "model.json"),
                    "--json", str(out)]) == 0
    assert run_cli(["process", "validate", "-p", str(out)]) == 0
    data = json.loads(out.read_text())
    data["stages"][2][1] = data["stages"][3][1]  # step 2 no longer grows
    out.write_text(json.dumps(data))
    assert run_cli(["process", "validate", "-p", str(out)]) == 1


def test_witness_pump_verify_flow(files, capsys):
    cert = files / "cert.json"
    assert run_cli(["witness", "-f", str(files / "ex1.mlsspf"),
                    "-m", str(files / "model.json"), "--json", str(cert)]) == 0
    assert run_cli(["verify", str(cert)]) == 0
    pumped = files / "pumped.json"
    assert run_cli(["pump", "-c", str(cert), "--rounds", "2",
                    "--json", str(pumped)]) == 0
    assert run_cli(["verify", str(pumped)]) == 0
    data = json.loads(pumped.read_text())
    assert data["pumped"]["rounds"] == 2
    data["closedCover"] = [0]
    bad = files / "tampered.json"
    bad.write_text(json.dumps(data))
    assert run_cli(["verify", str(bad)]) == 1


def test_pump_rejects_invalid_certificate(files):
    cert = files / "cert.json"
    assert run_cli(["witness", "-f", str(files / "ex1.mlsspf"),
                    "-m", str(files / "model.json"), "--json", str(cert)]) == 0
    data = json.loads(cert.read_text())
    data["event"]["i0"] = 1
    cert.write_text(json.dumps(data))
    assert run_cli(["pump", "-c", str(cert), "--rounds", "1"]) == 3


def test_pump_internal_failure_exit_code(tmp_path, capsys):
    # decide's certificate for this formula loads and re-certifies, but
    # cannot be pumped yet (a known soundness gap): that is not bad input.
    r = m.decide(m.parse("!Finite(x) & x in w"),
                 m.SearchBudget(max_rank=3, max_universe=3))
    cert = tmp_path / "cert.json"
    cert.write_text(r.certificate.dumps())
    assert run_cli(["pump", "-c", str(cert), "--rounds", "1"]) == 4
    assert "already placed" in capsys.readouterr().err


def test_decide_exit_codes(files, tmp_path):
    assert run_cli(["decide", str(files / "ex1.mlsspf")]) == 0
    assert run_cli(["decide", str(files / "plain.mlsspf")]) == 0
    unsat = tmp_path / "unsat.mlsspf"
    unsat.write_text("x = {} & !x = {}")
    assert run_cli(["decide", "--max-universe", "2", str(unsat)]) == 1
    assert run_cli(["decide", "--max-universe", "0", str(unsat)]) == 2


def test_witness_not_a_witness_is_input_error(files):
    bad = files / "badw.mlsspf"
    bad.write_text("w in x & x = w & !Finite(x)")
    assert run_cli(["witness", "-f", str(bad),
                    "-m", str(files / "model.json")]) == 3
