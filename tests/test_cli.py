"""Driving the command line: pipes, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import partialdual
from partialdual.cli import main
from partialdual.coideal import build_quotient
from partialdual.examples import taft4
from partialdual.hopf import power_unit
from partialdual.linalg import QQ
from partialdual.pams import certify_pams
from partialdual.partial_dual import left_partial_dual
from partialdual.serialize import parse, serialize


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args, input=None, code=0):
    result = runner.invoke(main, args, input=input, catch_exceptions=False)
    assert result.exit_code == code, result.stderr or result.stdout
    return result


def test_taft_pipe_to_left_dual_and_verification(runner):
    doc = run(runner, ["example", "taft4", "--lambda", "1", "--field", "Q"]).stdout
    qdoc = run(runner, ["partial-dual", "left", "-"], input=doc).stdout
    qh = parse(qdoc)
    assert qh.dim == 4
    assert qh.phi == power_unit(qh.algebra, 3)
    assert qh.antipodes is not None
    report = run(runner, ["verify-quasi-hopf"], input=qdoc).stdout
    assert report.startswith("PASS quasi-Hopf axioms")
    assert "FAIL" not in report


def test_outputs_are_deterministic(runner):
    first = run(runner, ["example", "taft4", "--lambda", "-1"]).stdout
    second = run(runner, ["example", "taft4", "--lambda", "-1"]).stdout
    assert first == second


def test_pams_verify_corrupted_names_first_failure(runner):
    doc = json.loads(run(runner, ["example", "taft4", "--lambda", "1"]).stdout)
    doc["tensors"]["zeta"][0][1] = "7"
    result = runner.invoke(main, ["pams", "verify", "-"], input=json.dumps(doc))
    assert result.exit_code == 1
    assert "zeta-module-map" in result.output


def test_right_dual_pipe(runner):
    doc = run(runner, ["example", "taft4", "--lambda", "0"]).stdout
    out = run(runner, ["partial-dual", "right", "-"], input=doc).stdout
    assert json.loads(out)["kind"] == "coquasi-hopf"


def test_hopf_transforms_compose(runner):
    hdoc = run(runner, ["example", "bismash", "s3"]).stdout
    for sub in ("dual", "op", "cop", "biop"):
        out = run(runner, [sub, "-"], input=hdoc).stdout
        report = run(runner, ["verify-hopf", "-"], input=out).stdout
        assert report.splitlines()[0].startswith("PASS")
    # biop is an involution
    once = run(runner, ["biop", "-"], input=hdoc).stdout
    twice = run(runner, ["biop", "-"], input=once).stdout
    assert twice == hdoc


@pytest.mark.parametrize("sub", ["op", "cop", "biop", "dual"])
def test_transforms_verify_their_input(runner, sub):
    # without S(x) = xg the antipode is singular: op and cop used to stop
    # inverting it, before anything was verified
    doc = json.loads(serialize(taft4(QQ, 1)[0]))
    doc["tensors"]["antipode"].remove([[3, 2], "1"])
    result = runner.invoke(main, [sub, "-"], input=json.dumps(doc))
    assert result.exit_code == 1
    assert "FAIL antipode-left" in result.stderr
    assert result.stdout == ""


def test_a_missing_input_file_exits_cleanly(runner, tmp_path):
    missing = tmp_path / "missing.json"
    result = runner.invoke(main, ["verify-hopf", str(missing)], catch_exceptions=False)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ") and "missing.json" in result.stderr


def test_coideal_and_find_from_matrix(runner, tmp_path):
    h, b, _ = taft4(QQ, 1)
    hfile = tmp_path / "h.json"
    hfile.write_text(serialize(h))
    iota = tmp_path / "iota.json"
    iota.write_text(json.dumps([[QQ.to_str(x) for x in row] for row in b.iota.matrix.rows]))

    bdoc = run(runner, ["coideal", str(hfile), "--iota", str(iota)]).stdout
    assert json.loads(bdoc)["kind"] == "coideal"

    bfile = tmp_path / "b.json"
    bfile.write_text(bdoc)
    for coideal_arg in (str(iota), str(bfile)):
        out = run(runner, ["pams", "find", str(hfile), "--coideal", coideal_arg]).stdout
        assert json.loads(out)["kind"] == "pams"

    # seeds change the search order, not the certified outcome
    seeded = run(runner, ["pams", "find", str(hfile), "--coideal", str(iota), "--seed", "9"]).stdout
    assert json.loads(seeded)["kind"] == "pams"


def test_pams_induce_row(runner):
    doc = run(runner, ["example", "taft4", "--lambda", "1"]).stdout
    out = run(runner, ["pams", "induce", "-", "--kind", "biop-dual"], input=doc).stdout
    report = run(runner, ["pams", "verify", "-"], input=out).stdout
    assert report.splitlines()[0] == "PASS pams on H"


def test_example_fixtures_certify(runner):
    run(runner, ["example", "matched-pair", "s3"])
    run(runner, ["example", "matched-pair", "c2xc3", "--field", "Fp:7"])
    run(runner, ["example", "bismash", "c2xc3"])
    for fixture in ("s3-sign", "c2xc3-to-c3", "taft"):
        run(runner, ["example", "split-projection", fixture])


def test_matched_pair_emit_pair_round_trips(runner):
    pair_doc = run(runner, ["example", "matched-pair", "s3", "--emit", "pair"]).stdout
    out = run(runner, ["example", "matched-pair", "-"], input=pair_doc).stdout
    assert json.loads(out)["kind"] == "pams"
    assert json.loads(out)["dims"]["dim"] == 6


def test_matched_pair_builders_take_the_pair_field(runner):
    pair_doc = run(runner, ["example", "matched-pair", "c2xc3", "--field", "Fp:5", "--emit", "pair"]).stdout
    assert json.loads(pair_doc)["field"] == "Fp:5"
    for command in ("matched-pair", "bismash"):
        out = run(runner, ["example", command, "-"], input=pair_doc).stdout
        assert json.loads(out)["field"] == "Fp:5", command
        out = run(runner, ["example", command, "-", "--field", "Fp:7"], input=pair_doc).stdout
        assert json.loads(out)["field"] == "Fp:7", command


def test_usage_and_kind_errors(runner):
    assert runner.invoke(main, ["pams", "induce", "-", "--kind", "sideways"], input="").exit_code == 2
    assert runner.invoke(main, ["coideal", "-"], input="{}").exit_code == 2

    pams_doc = run(runner, ["example", "taft4"]).stdout
    result = runner.invoke(main, ["verify-hopf", "-"], input=pams_doc)
    assert result.exit_code == 1
    assert "expected a hopf document" in result.output

    result = runner.invoke(main, ["verify-hopf", "-"], input="no json here")
    assert result.exit_code == 1
    assert "syntax error" in result.output


def test_a_wrong_kind_document_is_refused_before_certification(runner):
    # a corrupted zeta fails certify_pams: the kind must be refused first
    doc = json.loads(run(runner, ["example", "taft4", "--lambda", "1"]).stdout)
    doc["tensors"]["zeta"][0][1] = "7"
    result = runner.invoke(main, ["verify-quasi-hopf", "-"], input=json.dumps(doc))
    assert result.exit_code == 1
    assert result.stderr == "document error: expected a quasi-hopf document\n"
    assert result.stdout == ""


def test_char_two_taft_is_refused(runner):
    result = runner.invoke(main, ["example", "taft4", "--field", "Fp:2"])
    assert result.exit_code == 1
    assert "characteristic" in result.output


# runs the command given after the output file, then writes there the
# partialdual modules the process imported
MODULE_PROBE = """
import sys
from partialdual.cli import main
try:
    main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w") as out:
        out.write(" ".join(sorted(m[len("partialdual."):] for m in sys.modules if m.startswith("partialdual."))))
"""
HOPF_SET = {"linalg", "hopf", "serialize", "cli"}
COIDEAL_SET = HOPF_SET | {"coideal"}
PAMS_SET = COIDEAL_SET | {"pams"}


@pytest.fixture(scope="module")
def taft_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("taft")
    h, b, zeta = taft4(QQ, 1)
    p = certify_pams(build_quotient(b), zeta)
    texts = {
        "hopf": serialize(h),
        "iota": json.dumps([[QQ.to_str(x) for x in row] for row in b.iota.matrix.rows]),
        "coideal": serialize(b),
        "pams": serialize(p),
        "quasi-hopf": serialize(left_partial_dual(p)),
    }
    for name, text in texts.items():
        (folder / f"{name}.json").write_text(text)
    return folder


# each command, with the documents it reads, and the modules it must import
COMMAND_MODULES = {
    "verify-hopf {hopf}": HOPF_SET,
    "dual {hopf}": HOPF_SET,
    "op {hopf}": HOPF_SET,
    "cop {hopf}": HOPF_SET,
    "biop {hopf}": HOPF_SET,
    "coideal {hopf} --iota {iota}": COIDEAL_SET,
    "pams find {hopf} --coideal {coideal}": PAMS_SET,
    "pams verify {pams}": PAMS_SET,
    "pams induce {pams} --kind op": PAMS_SET,
    "partial-dual left {pams}": PAMS_SET | {"partial_dual"},
    "partial-dual right {pams}": PAMS_SET | {"partial_dual"},
    "verify-quasi-hopf {quasi-hopf}": HOPF_SET | {"partial_dual"},
    "example taft4": PAMS_SET | {"examples"},
}


@pytest.mark.parametrize("command", COMMAND_MODULES, ids=lambda c: c.split(" {")[0])
def test_each_command_imports_only_what_it_runs(taft_files, tmp_path, command):
    names = {p.stem: str(p) for p in taft_files.iterdir()}
    out = tmp_path / "modules.txt"
    env = {**os.environ, "PYTHONPATH": str(Path(partialdual.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, str(out), *command.format(**names).split()],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert set(out.read_text().split()) == COMMAND_MODULES[command]
