"""Command-line interface behavior and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chromheap.chromatic as chromatic
import chromheap.cli as cli
import chromheap.ncsf as ncsf
from chromheap.chromatic import CrossCheckError
from chromheap.cli import main
from chromheap.ncsf import NonIntegralWeightError
from chromheap.partitions import partitions
from chromheap.symfunc import QSymFunc

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "expand")
    assert code == 1 and "poset" in err
    code, _, err = run(capsys, "expand", "--poset", "2,x")
    assert code == 1
    code, _, err = run(capsys, "expand", "--poset", "2,3,3", "--mu", "1,1")
    assert code == 1 and "length" in err
    code, _, err = run(capsys, "expand", "--poset", "2,3,3", "--basis", "q")
    assert code == 1
    code, _, err = run(capsys, )
    assert code == 1 and "command" in err


def test_expand_has_no_colors_flag(capsys):
    code, _, err = run(capsys, "expand", "--poset", "2,3,3", "--colors", "5")
    assert code == 1 and "--colors" in err


def _not_symmetric(order, mu):
    # M_(1,2) without M_(2,1) is quasisymmetric but not symmetric
    return QSymFunc(3, {(1, 2): 1})


def test_not_symmetric_is_a_math_failure(capsys, monkeypatch):
    monkeypatch.setattr(chromatic, "omega_chromatic_qsym", _not_symmetric)
    code, out, err = run(capsys, "expand", "--poset", "2,3,3", "--mu", "1,1,1")
    assert code == 2 and out == ""
    assert err.startswith("cross-check failure:") and "M_[1, 2]" in err
    assert "Traceback" not in err


def test_verify_reports_not_symmetric_as_fail(capsys, monkeypatch):
    monkeypatch.setattr(chromatic, "omega_chromatic_qsym", _not_symmetric)
    code, out, _ = run(capsys, "verify", "--suite", "sinks", "--max-n", "2")
    assert code == 2
    lines = out.strip().splitlines()
    # the sweep runs on past the first failure: 1 + 2 orders
    assert len({line.split()[1] for line in lines}) == 3
    assert all(line.startswith("FAIL") for line in lines)


@pytest.mark.parametrize("error", [CrossCheckError, NonIntegralWeightError])
def test_math_errors_exit_2(capsys, monkeypatch, error):
    def broken(order, mu, basis):
        raise error("routes disagree")

    monkeypatch.setattr(cli, "expansion", broken)
    code, out, err = run(capsys, "expand", "--poset", "2,3,3")
    assert code == 2 and out == ""
    assert err == "cross-check failure: routes disagree\n"


def _half_weights(d, basis):
    return {lam: {(1,) * d: Fraction(1, 2)} for lam in partitions(d)}


def test_verify_reports_non_integer_weight_as_fail(capsys, monkeypatch):
    monkeypatch.setattr(ncsf, "m_in_basis_coords", _half_weights)
    code, out, err = run(
        capsys, "verify", "--poset", "2,3,3", "--suite", "hp-recurrence"
    )
    assert code == 2 and "Traceback" not in err
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("FAIL") for line in lines)
    assert "hp-recurrence:hp-[1, 1]" in lines[0]


def test_guardrail(capsys):
    code, _, err = run(capsys, "classes", "--poset", "2,3,3", "--mu", "4,4,4")
    assert code == 1 and "guardrail" in err
    # raising the limit lets it through (kept small enough to run)
    code, out, _ = run(
        capsys, "classes", "--poset", "2,3,3", "--mu", "4,4,3", "--max-n", "11"
    )
    assert code == 0


def test_classes_summary(capsys):
    code, out, _ = run(capsys, "classes", "--poset", "2,3,3", "--mu", "1,1,2")
    assert code == 0
    assert out.splitlines()[0] == "words=12 heaps=6 classes=4"


def test_classes_json(capsys):
    code, out, _ = run(
        capsys, "classes", "--poset", "2,3,3", "--mu", "1,1,2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["words"] == 12
    assert data["heaps"] == 6
    assert len(data["classes"]) == 4
    assert sorted(c["ascents"] for c in data["classes"]) == [0, 1, 2, 3]


def test_classes_svg(tmp_path, capsys):
    svg_dir = tmp_path / "art"
    code, out, _ = run(
        capsys,
        "classes",
        "--poset",
        "2,3,3",
        "--mu",
        "1,1,2",
        "--svg",
        str(svg_dir),
    )
    assert code == 0
    files = sorted(os.listdir(svg_dir))
    assert "classes.json" in files
    assert sum(1 for f in files if f.endswith(".svg")) == 6
    index = json.loads((svg_dir / "classes.json").read_text())
    assert len(index) == 4


def test_expand_pretty_and_determinism(capsys):
    code, out1, _ = run(capsys, "expand", "--poset", "2,3,3", "--mu", "1,1,2")
    assert code == 0
    code, out2, _ = run(capsys, "expand", "--poset", "2,3,3", "--mu", "1,1,2")
    assert out1 == out2
    assert "positive=True" in out1


def test_expand_json(capsys):
    code, out, _ = run(
        capsys,
        "expand",
        "--poset",
        "2,3,4,5,5",
        "--basis",
        "e",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    terms = {tuple(t["partition"]): t for t in data["terms"]}
    assert terms[(2, 2, 1)]["poly"] == [0, 0, 1]
    assert terms[(4, 1)]["poly"] == [0, 1, 1, 1]
    assert (3, 1, 1) not in terms
    assert terms[(2, 2, 1)]["provenance"] == "theorem+basis-change"


def test_expand_csv(capsys):
    code, out, _ = run(
        capsys,
        "expand",
        "--poset",
        "2,3,3",
        "--mu",
        "1,1,2",
        "--basis",
        "f",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition,q^0,q^1,q^2,q^3"
    rows = [line.split(",")[0] for line in lines[1:]]
    assert rows == ["4", "3+1", "2+2", "2+1+1", "1+1+1+1"]
    assert lines[2] == "3+1,1,3,3,1"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "expand",
        "--poset",
        "2,3,3",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["poset"] == "2,3,3"


def test_env_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHROMHEAP_OUT", str(tmp_path / "outdir"))
    code, out, _ = run(capsys, "expand", "--poset", "2,3,3", "--format", "json")
    assert code == 0 and out == ""
    assert (tmp_path / "outdir" / "expand.json").exists()


def test_verify_single_poset(capsys):
    code, out, _ = run(
        capsys, "verify", "--poset", "2,3,3", "--mu", "1,1,2", "--suite", "oracle"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert any("oracle-vs-words" in line for line in lines)


def test_verify_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sinks", "--max-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    # 1 + 2 + 5 posets in the sweep
    tags = {line.split()[1] for line in lines}
    assert len(tags) == 8


@pytest.mark.parametrize("value", ["0", "-2"])
def test_verify_max_n_must_be_positive(capsys, value):
    code, out, err = run(capsys, "verify", "--suite", "sinks", "--max-n", value)
    assert code == 1 and out == ""
    assert err == "error: --max-n must be at least 1\n"


@pytest.mark.parametrize(
    "argv, need",
    [
        (["--max-n", "4", "--colors", "3"], 4),
        (["--poset", "2,3,3", "--mu", "3,2,2", "--colors", "6"], 7),
    ],
)
def test_verify_checks_colors_before_any_suite(capsys, argv, need):
    code, out, err = run(capsys, "verify", "--suite", "oracle", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"--colors {need}" in err


def test_verify_accepts_enough_colors(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "oracle", "--max-n", "3", "--colors", "3"
    )
    assert code == 0
    assert out.count("PASS") == 16 and "FAIL" not in out


# SHA-256 of stdout, taken before the oracle enumerated only gapless
# colorings and the class functions counted descent sets as ints
FROZEN_VERIFY = {
    ("verify", "--suite", "oracle", "--max-n", "4"):
        "32673fb9bb9f31a805c1b87361f5ebc955a5cdaebd80086f19f05bb47d949722",
    ("verify", "--suite", "positivity", "--max-n", "4"):
        "3c50f6b80d6306a71691cbf9facd7704ef2182c82311ae1c2f0e574fad9c46e5",
    ("verify", "--suite", "oracle", "--poset", "2,3,3", "--mu", "3,2,2"):
        "f6b009a72093fc98be7de88a7b160c6adbff6339d22ca89b43d199a2e675ecbf",
}


@pytest.mark.parametrize("argv", list(FROZEN_VERIFY), ids=" ".join)
def test_verify_output_is_frozen(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_VERIFY[argv]


def test_verify_all_suites_running_example(capsys):
    code, out, _ = run(capsys, "verify", "--poset", "2,3,3", "--mu", "1,1,2")
    assert code == 0
    assert "FAIL" not in out


def _stdouts_under_hash_seeds(argv):
    """Distinct stdouts of one CLI call run under PYTHONHASHSEED 0, 1, 2."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.pop("CHROMHEAP_OUT", None)
    outs = set()
    for seed in ("0", "1", "2"):
        env["PYTHONHASHSEED"] = seed
        cmd = [sys.executable, "-m", "chromheap.cli", *argv]
        done = subprocess.run(cmd, env=env, capture_output=True, check=True)
        outs.add(done.stdout)
    return outs


def test_expand_json_is_byte_deterministic():
    for args in (["2,3,4,5,6,6"], ["2,3,3", "--mu", "3,2,2"]):
        argv = ["expand", "--poset", *args, "--basis", "e", "--format", "json"]
        outs = _stdouts_under_hash_seeds(argv)
        assert len(outs) == 1, args
        assert json.loads(outs.pop())["basis"] == "e"


def test_classes_json_is_byte_deterministic():
    for args in (["2,3,4,5,6,6"], ["2,3,3", "--mu", "3,2,2"]):
        argv = ["classes", "--poset", *args, "--format", "json"]
        outs = _stdouts_under_hash_seeds(argv)
        assert len(outs) == 1, args
        assert json.loads(outs.pop())["classes"]
