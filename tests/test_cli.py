import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsspf as m
from mlsspf import hf
from mlsspf.cli import run_cli
from mlsspf.hf import MAX_RANK

from conftest import nested, wide_instance


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


def test_limit_pow_only_where_read(files):
    # Only pump builds an assembly family, for its picks and its pow-node
    # dump; no other command takes --limit-pow: argparse rejects it (exit 3).
    model, ex1 = str(files / "model.json"), str(files / "ex1.mlsspf")
    cert = str(files / "cert.json")
    assert run_cli(["witness", "-f", ex1, "-m", model, "--json", cert]) == 0
    for argv in (["parse", ex1], ["venn", "-m", model],
                 ["board", "-f", ex1, "-m", model],
                 ["process", "synth", "-m", model],
                 ["check-model", "-f", str(files / "plain.mlsspf"),
                  "-m", str(files / "plain_model.json")],
                 ["witness", "-f", ex1, "-m", model], ["decide", ex1],
                 ["verify", cert]):
        assert run_cli([*argv, "--limit-pow", "5"]) == 3
        assert run_cli(argv) == 0
    assert run_cli(["pump", "-c", cert, "--limit-pow", "5"]) == 0


def test_missing_file_is_input_error(files):
    assert run_cli(["parse", str(files / "nope.mlsspf")]) == 3


def test_check_model_exit_codes(files):
    assert run_cli(["check-model", "-f", str(files / "plain.mlsspf"),
                    "-m", str(files / "plain_model.json")]) == 0
    assert run_cli(["check-model", "-f", str(files / "ex1.mlsspf"),
                    "-m", str(files / "model.json")]) == 1
    # p = Pow(z) is decided without building Pow(z): with 21 members in z
    # and p = {} it is false (exit 1), past any pow limit.
    formula, model = files / "pow.mlsspf", files / "pow.json"
    formula.write_text("p = Pow(z)")
    model.write_text(json.dumps({"p": [],
                                 "z": [nested(j) for j in range(21)]}))
    assert run_cli(["check-model", "-f", str(formula),
                    "-m", str(model)]) == 1


def test_venn_and_board(files, capsys):
    assert run_cli(["venn", "-m", str(files / "model.json")]) == 0
    assert capsys.readouterr().out == hf.dumps({
        "blocks": [[[]], [[[]], [[[]]]]], "im": {"w": [0], "x": [1]},
        "transitive": True}) + "\n"
    # {} is a member of x's element {{}}, but no value holds it.
    model = files / "nontransitive.json"
    model.write_text(json.dumps({"x": [[[]]], "y": [[[]], [[[]]]]}))
    assert run_cli(["venn", "-m", str(model)]) == 0
    assert capsys.readouterr().out == hf.dumps({
        "blocks": [[[[]]], [[[[]]]]], "im": {"x": [0], "y": [0, 1]},
        "transitive": False}) + "\n"
    assert run_cli(["board", "-f", str(files / "ex1.mlsspf"),
                    "-m", str(files / "model.json")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["red"] == [] and data["powRegions"] == []


def test_process_synth_validate_round_trip(files, capsys):
    out = files / "proc.json"
    assert run_cli(["process", "synth", "-m", str(files / "model.json"),
                    "--json", str(out)]) == 0
    assert run_cli(["process", "validate", "-p", str(out)]) == 0
    data = json.loads(out.read_text())
    data["stages"][2][1] = data["stages"][3][1]  # step 2 no longer grows
    out.write_text(json.dumps(data))
    assert run_cli(["process", "validate", "-p", str(out)]) == 1


@pytest.mark.parametrize("targets,code", [
    (None, 1), ([], 1), (5, 3), ([5], 3), ([[[1]]], 3), ([["a"]], 3)],
    ids=["absent", "empty", "int", "int list", "nested", "string"])
def test_validate_ragged_or_malformed_process(files, capsys, targets, code):
    # ex1's process with its last stage cut to one block: without history
    # targets it fails the shape items (1) instead of raising IndexError,
    # since absent targets are read as none, not derived from the stages;
    # targets that are no list of lists of places are bad input (3).
    out = files / "proc.json"
    assert run_cli(["process", "synth", "-m", str(files / "model.json"),
                    "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    data["stages"][-1] = data["stages"][-1][:1]
    del data["historyTargets"]
    if targets is not None:
        data["historyTargets"] = targets
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(["process", "validate", "-p", str(out)]) == code
    err = capsys.readouterr().err
    if code == 1:
        assert [line for line in err.splitlines() if "FAIL" in line] == [
            "[FAIL] shape: history targets: one per step",
            "[FAIL] shape: every stage has a block per place"]


def test_verify_propagates_a_library_fault(files, monkeypatch):
    # Only malformed JSON (ValueError, KeyError) is reported at "embedded
    # process parses"; any other exception is a fault and propagates.
    cert = files / "cert.json"
    assert run_cli(["witness", "-f", str(files / "ex1.mlsspf"),
                    "-m", str(files / "model.json"), "--json", str(cert)]) == 0
    data = json.loads(cert.read_text())

    def broken(data, *decode):
        raise RuntimeError("fault")

    monkeypatch.setattr(m.FormativeProcess, "from_json", broken)
    with pytest.raises(RuntimeError):
        m.verify_certificate(data)


def test_library_fault_exits_internal(files, monkeypatch, capsys):
    # An exception that is no bad input is a fault of the library: exit 4
    # with its traceback, never exit 1, which would read as a rejection.
    cert = files / "cert.json"
    assert run_cli(["witness", "-f", str(files / "ex1.mlsspf"),
                    "-m", str(files / "model.json"), "--json", str(cert)]) == 0
    capsys.readouterr()

    def broken(data, *decode):
        raise RuntimeError("fault")

    monkeypatch.setattr(m.FormativeProcess, "from_json", broken)
    assert run_cli(["verify", str(cert)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: fault" in err


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


def test_pump_does_not_recertify(files, monkeypatch):
    # pump reads its input through the claim checker: the certificate is
    # not certified again before it is extended.
    cert = files / "cert.json"
    assert run_cli(["witness", "-f", str(files / "ex1.mlsspf"),
                    "-m", str(files / "model.json"), "--json", str(cert)]) == 0

    def no_recertify(*args, **kwargs):
        raise AssertionError("pump certified its input again")

    monkeypatch.setattr("mlsspf.pumping.certify_witness", no_recertify)
    monkeypatch.setattr("mlsspf.cli.certify_witness", no_recertify)
    pumped = files / "pumped.json"
    assert run_cli(["pump", "-c", str(cert), "--rounds", "2",
                    "--json", str(pumped)]) == 0
    assert json.loads(pumped.read_text())["pumped"]["rounds"] == 2
    assert run_cli(["verify", str(pumped)]) == 0
    again = files / "again.json"
    assert run_cli(["pump", "-c", str(pumped), "--rounds", "1",
                    "--json", str(again)]) == 0


def test_pump_has_no_strict_three(tmp_path):
    # The flag was never recorded in the certificate, so verify re-pumped
    # without it and refused what it had produced; it is gone.
    formula = tmp_path / "f.mlsspf"
    formula.write_text("w in x & !Finite(x)")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"w": [], "x": [[], [[]]]}))
    cert = tmp_path / "cert.json"
    assert run_cli(["witness", "-f", str(formula), "-m", str(model),
                    "--json", str(cert)]) == 0
    assert run_cli(["pump", "-c", str(cert), "--rounds", "1",
                    "--strict-three"]) == 3


def test_pump_rejects_invalid_certificate(files):
    cert = files / "cert.json"
    assert run_cli(["witness", "-f", str(files / "ex1.mlsspf"),
                    "-m", str(files / "model.json"), "--json", str(cert)]) == 0
    data = json.loads(cert.read_text())
    data["event"]["i0"] = 1
    cert.write_text(json.dumps(data))
    assert run_cli(["pump", "-c", str(cert), "--rounds", "1"]) == 3


def test_pump_negative_rounds_is_input_error(files, monkeypatch):
    cert = files / "cert.json"
    assert run_cli(["witness", "-f", str(files / "ex1.mlsspf"),
                    "-m", str(files / "model.json"), "--json", str(cert)]) == 0

    def no_recertify(*args):
        pytest.fail("pump must not re-certify its input")

    monkeypatch.setattr("mlsspf.pumping.certify_witness", no_recertify)
    out = files / "pumped.json"
    assert run_cli(["pump", "-c", str(cert), "--rounds", "-2",
                    "--json", str(out)]) == 3
    assert not out.exists()


def test_pump_internal_failure_exit_code(tmp_path, capsys, monkeypatch):
    # decide's certificate for this formula loads and checks; a pump that
    # fails on it (forged here: every issued certificate pumps) is the
    # library's failure, not bad input.
    r = m.decide(m.parse("!Finite(x) & x in w"),
                 m.SearchBudget(max_rank=3, max_universe=3))
    cert = tmp_path / "cert.json"
    cert.write_text(r.certificate.dumps())
    assert run_cli(["pump", "-c", str(cert), "--rounds", "1"]) == 0

    def pump_fails(*args):
        raise m.CardinalityDeficit("forged: no fresh element to restore")

    monkeypatch.setattr("mlsspf.cli.extend_certificate", pump_fails)
    capsys.readouterr()
    assert run_cli(["pump", "-c", str(cert), "--rounds", "1"]) == 4
    assert "forged: no fresh element" in capsys.readouterr().err


def test_process_without_its_input_is_bad_input(capsys):
    # `process synth` reads a model (-m) and `process validate` a process
    # (-p); either one missing is bad input (exit 3), not a traceback.
    for argv, flag in ((["process", "synth"], "-m"),
                       (["process", "validate"], "-p")):
        assert run_cli(argv) == 3
        err = capsys.readouterr().err
        assert f"needs {flag}" in err
        assert "Traceback" not in err


def test_decide_exit_codes(files, tmp_path):
    assert run_cli(["decide", str(files / "ex1.mlsspf")]) == 0
    assert run_cli(["decide", str(files / "plain.mlsspf")]) == 0
    unsat = tmp_path / "unsat.mlsspf"
    unsat.write_text("x = {} & !x = {}")
    assert run_cli(["decide", "--max-universe", "2", str(unsat)]) == 1
    assert run_cli(["decide", "--max-universe", "0", str(unsat)]) == 2
    assert run_cli(["decide", "--max-universe", "-1", str(unsat)]) == 3
    assert run_cli(["decide", "--max-rank", "-1", str(unsat)]) == 3


def test_witness_not_a_witness_is_input_error(files):
    bad = files / "badw.mlsspf"
    bad.write_text("w in x & x = w & !Finite(x)")
    assert run_cli(["witness", "-f", str(bad),
                    "-m", str(files / "model.json")]) == 3


def _write_instance(tmp_path, seed):
    formula, assignment = wide_instance(seed)
    f = tmp_path / f"wide{seed}.mlsspf"
    f.write_text(formula.render())
    model = tmp_path / f"wide{seed}.json"
    model.write_text(json.dumps(assignment.to_json()))
    return ["-f", str(f), "-m", str(model)]


def test_verify_fails_a_process_missing_board_places(tmp_path, capsys):
    # Blocks cut from every stage of the embedded process: a failed report
    # (exit 1), not a crash.
    cert = tmp_path / "cert.json"
    assert run_cli(["witness", *_write_instance(tmp_path, 12),
                    "--json", str(cert)]) == 0
    data = json.loads(cert.read_text())
    for stage in data["process"]["stages"]:
        del stage[8:11]
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(["verify", str(cert)]) == 1
    err = capsys.readouterr().err
    assert ("[FAIL] embedded process ends in the assignment's Venn "
            "partition") in err


def test_bad_bounds_are_input_errors(files):
    formula = ["-f", str(files / "ex1.mlsspf"), "-m", str(files / "model.json")]
    assert run_cli(["witness", *formula, "--max-cycle-len", "0"]) == 3
    assert run_cli(["decide", str(files / "ex1.mlsspf"),
                    "--max-cycle-len", "0"]) == 3
    cert = files / "cert.json"
    assert run_cli(["witness", *formula, "--json", str(cert)]) == 0
    for limit in ("0", "-5"):
        assert run_cli(["pump", "-c", str(cert), "--limit-pow", limit]) == 3
    data = json.loads(cert.read_text())
    data["params"]["maxCycleLen"] = 0
    cert.write_text(json.dumps(data))
    assert run_cli(["verify", str(cert)]) == 3
    assert run_cli(["pump", "-c", str(cert)]) == 3


def test_max_cycle_len_round_trip(tmp_path):
    # The default bound finds a 2-place event here; verify and pump must
    # check the cycle against the recorded bound 1, not the default.
    cert = tmp_path / "cert.json"
    assert run_cli(["witness", *_write_instance(tmp_path, 0),
                    "--max-cycle-len", "1", "--json", str(cert)]) == 0
    data = json.loads(cert.read_text())
    assert data["params"] == {"maxCycleLen": 1}
    assert len(data["event"]["cycle"]["places"]) == 1
    assert run_cli(["verify", str(cert)]) == 0
    pumped = tmp_path / "pumped.json"
    assert run_cli(["pump", "-c", str(cert), "--json", str(pumped)]) == 0
    assert run_cli(["verify", str(pumped)]) == 0


def test_pump_past_limit_pow_is_input_error(tmp_path, capsys):
    # The certificate checks, but its second round draws from an assembly
    # family of three sets, past pow_limit 2: the user's bound, so bad input
    # (exit 3) as for every command, not a failure of the library (exit 4).
    formula, model = tmp_path / "f.mlsspf", tmp_path / "model.json"
    formula.write_text("w in x & !Finite(x)\n")
    model.write_text(json.dumps({"w": [], "x": [[], [[]]]}))
    cert = tmp_path / "cert.json"
    assert run_cli(["witness", "-f", str(formula), "-m", str(model),
                    "--json", str(cert)]) == 0
    capsys.readouterr()
    assert run_cli(["pump", "-c", str(cert), "--rounds", "2",
                    "--limit-pow", "2"]) == 3
    assert ("assembly family would produce 3 sets, limit is 2"
            in capsys.readouterr().err)


def _cut_nodes(d):
    d["event"]["cycle"]["nodes"] = d["event"]["cycle"]["nodes"][:1]


def _letter_trace(d):
    d["process"]["trace"] = [["a"] for _ in d["process"]["trace"]]


@pytest.mark.parametrize("edit,verified", [
    (lambda d: d.update(closedCover=[[1]]), 3),
    (_cut_nodes, 1),
    (_letter_trace, 1),
    (lambda d: d.update(event=[]), 3),
    (lambda d: d.update(params=[]), 3),
    (lambda d: d.update(baseAssignment=5), 3),
    (lambda d: d.update(formula=5), 3),
], ids=["closedCover", "cycle nodes", "trace", "event", "params",
        "baseAssignment", "formula"])
def test_malformed_wide_certificate_exit_codes(tmp_path, edit, verified):
    # Each edit of wide_instance(12)'s certificate raised out of run_cli.
    # A field of the wrong JSON type is bad input (3); a cycle with fewer
    # nodes than places, or a trace naming no place, fails a report item.
    cert = tmp_path / "cert.json"
    assert run_cli(["witness", *_write_instance(tmp_path, 12),
                    "--json", str(cert)]) == 0
    data = json.loads(cert.read_text())
    edit(data)
    cert.write_text(json.dumps(data))
    assert run_cli(["verify", str(cert)]) == verified
    assert run_cli(["pump", "-c", str(cert)]) == 3


# The values a malformed certificate gets at one of its JSON paths.
_BAD_VALUES = (5, "a", [], {}, None, [[1]], -1)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory with ex1's certificate plain and pumped one round, and
    wide_instance(12)'s, as 0.json, 1.json and 2.json."""
    tmp = tmp_path_factory.mktemp("fuzz")
    formula = m.parse("w in x & !Finite(x)")
    assignment, _ = m.Assignment.from_json({"w": [[]], "x": [[[]], [[[]]]]})
    plain = m.certify_witness(formula, assignment)
    for i, cert in enumerate((plain, m.extend_certificate(plain, 1),
                              m.certify_witness(*wide_instance(12)))):
        (tmp / f"{i}.json").write_text(cert.dumps())
    return tmp


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_malformed_certificate_ends_in_an_exit_code(fuzz_dir, data):
    # One value anywhere in a certificate replaced by a value of another
    # JSON type: verify and pump end in an exit code, never in a
    # traceback.  They agree: what verify passes pumps, and what it fails,
    # by a failed item (1) or as bad input (3), pump refuses as bad input.
    # A value replaced by an equal one changes nothing.
    original = json.loads(
        (fuzz_dir / f"{data.draw(st.integers(0, 2))}.json").read_text())
    cert = json.loads(json.dumps(original))
    value = json.loads(json.dumps(data.draw(st.sampled_from(_BAD_VALUES))))
    parent, key, node = None, None, cert
    while (isinstance(node, (dict, list)) and node
           and data.draw(st.booleans())):
        key = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        cert = value
    else:
        parent[key] = value
    path = fuzz_dir / "malformed.json"
    path.write_text(json.dumps(cert))
    out = str(fuzz_dir / "out.json")
    verified = run_cli(["verify", str(path), "--json", out])
    pumped = run_cli(["pump", "-c", str(path), "--json", out])
    assert verified in (0, 1, 3)
    assert pumped == (0 if verified == 0 else 3)
    if cert == original:
        assert verified == 0


@pytest.mark.parametrize("value", ["yes", 1, [0], {"a": 1}, None])
@pytest.mark.parametrize("pumped", [False, True], ids=["base", "pumped"])
def test_weak_flag_of_another_type_is_refused(fuzz_dir, capsys, pumped,
                                              value):
    # A process's weak flag must be a JSON boolean.  In the base process
    # any other value fails "embedded process parses" (verify exits 1); in
    # the pumped process it is bad input (exit 3).  Neither prints a
    # traceback, and pump refuses both as bad input.
    data = json.loads((fuzz_dir / f"{int(pumped)}.json").read_text())
    (data["pumped"]["process"] if pumped else data["process"])["weak"] = value
    path = fuzz_dir / "weak.json"
    path.write_text(json.dumps(data))
    if not pumped:
        assert [i.check for i in m.verify_certificate(data).failures()] == [
            "embedded process parses"]
    assert run_cli(["verify", str(path)]) == (3 if pumped else 1)
    assert run_cli(["pump", "-c", str(path)]) == 3
    assert "Traceback" not in capsys.readouterr().err


def _cli(*argv):
    """(exit code, stderr) of `mlsspf argv` in a fresh interpreter, whose
    stack is as shallow as the console script's."""
    src = str(Path(m.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "mlsspf.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def test_venn_writes_the_deepest_model_the_decoder_reads(tmp_path):
    # A model of rank MAX_RANK is written (exit 0); one rank more is bad
    # input (exit 3).
    path = tmp_path / "deep.json"
    for depth, want in ((MAX_RANK, 0), (MAX_RANK + 1, 3)):
        path.write_text(json.dumps({"x": nested(depth)}))
        code, err = _cli("venn", "-m", str(path))
        assert code == want, err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def deep_certificates(tmp_path_factory):
    """The certificate of w in x & !Finite(x) with its base `w` nested
    MAX_RANK, MAX_RANK + 1 and 400 deep, and with `w` nested 5,000 deep in
    the JSON text."""
    formula = m.parse("w in x & !Finite(x)")
    assignment, _ = m.Assignment.from_json({"w": [], "x": [[], [[]]]})
    data = json.loads(m.certify_witness(formula, assignment).dumps())
    tmp = tmp_path_factory.mktemp("deep")
    out = {}
    for depth in (MAX_RANK, MAX_RANK + 1, 400):
        data["baseAssignment"]["w"] = nested(depth)
        out[depth] = tmp / f"depth{depth}.json"
        out[depth].write_text(json.dumps(data))
    data["baseAssignment"]["w"] = "DEEP"
    out["text"] = tmp / "text.json"
    out["text"].write_text(json.dumps(data).replace(
        '"DEEP"', "[" * 5000 + "]" * 5000))
    return out


@pytest.mark.parametrize("which", [MAX_RANK + 1, 400, "text"])
def test_deep_certificate_is_input_error(deep_certificates, which):
    # A set of rank above MAX_RANK, or JSON text deeper than `json` reads,
    # is bad input: exit 3, not a RecursionError traceback.
    path = str(deep_certificates[which])
    for argv in (["verify", path], ["pump", "-c", path]):
        code, err = _cli(*argv)
        assert code == 3, err
        assert "Traceback" not in err
        assert "nests too deep" in err


def test_decodable_deep_certificate_fails_its_claim(deep_certificates):
    # MAX_RANK deep still decodes: the base assignment is no longer the
    # certificate's assignment, which `verify` fails (exit 1) and `pump`
    # refuses as bad input (exit 3).
    path = str(deep_certificates[MAX_RANK])
    code, err = _cli("verify", path)
    assert code == 1
    assert [line for line in err.splitlines() if "FAIL" in line] == [
        "[FAIL] assignment is the base assignment, made transitive"]
    code, err = _cli("pump", "-c", path)
    assert code == 3
    assert "certificate does not check" in err
    assert "Traceback" not in err
