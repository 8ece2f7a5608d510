"""Command-line interface behavior and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import chromheap.chromatic as chromatic
import chromheap.cli as cli
import chromheap.heap_sides as heap_sides
import chromheap.heaps as heaps
import chromheap.ncsf as ncsf
import chromheap.suites as suites
import chromheap.symfunc as symfunc
from chromheap.chromatic import CrossCheckError, expansion
from chromheap.heap_sides import positivity_report
from chromheap.cli import main
from chromheap.heaps import Heap
from chromheap.ncsf import NonIntegralWeightError
from chromheap.partitions import partitions
from chromheap.posets import UnitIntervalOrder
from chromheap.qpoly import QPoly
from chromheap.symfunc import QSymFunc
from test_heaps import refuse_heaps_from_words

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
    code, _, err = run(capsys, "expand", "--poset", "2,3,3", "--mu", "1,-1,1")
    assert code == 1 and "nonnegative" in err
    code, _, err = run(capsys, "expand", "--poset", "2,3,3", "--mu", "0,0,0")
    assert code == 1 and "all be zero" in err
    code, _, err = run(capsys, "expand", "--poset", "2,3,3", "--basis", "q")
    assert code == 1
    # input that would otherwise be ignored
    code, _, err = run(capsys, "verify", "--max-n", "2", "--format", "json")
    assert code == 1 and "--format" in err
    code, _, err = run(capsys, "classes", "--poset", "2,3,3", "--format", "csv")
    assert code == 1 and "csv" in err
    code, _, err = run(capsys, "verify", "--max-n", "2", "--mu", "1,1")
    assert code == 1 and "--mu needs --poset" in err
    code, _, err = run(capsys, )
    assert code == 1 and "command" in err


def test_unparsable_type_vector_is_a_usage_error(capsys):
    for command, mu in (("expand", "a,b,c"), ("expand", ""), ("verify", "")):
        code, out, err = run(capsys, command, "--poset", "2,3,3", "--mu", mu)
        assert code == 1 and out == ""
        assert err == f"error: cannot parse type vector {mu!r}\n"


@pytest.mark.parametrize("command", ["expand", "verify"])
def test_expand_has_no_colors_flag(capsys, command):
    code, out, err = run(capsys, command, "--poset", "2,3,3", "--colors", "5")
    assert (code, out) == (1, "") and "--colors" in err


def _not_symmetric(d, by_mask, width):
    # M_(1,2) without M_(2,1) is quasisymmetric but not symmetric
    return QSymFunc(3, {(1, 2): 1})


def _patch_word_route(monkeypatch, fake):
    # X and omega X both leave the word route through this transform
    monkeypatch.setattr(chromatic, "_fundamental_to_monomial", fake)
    # the e-coefficients cached by earlier calls would bypass the patch
    chromatic._e_coefficients.cache_clear()


def test_not_symmetric_is_a_math_failure(capsys, monkeypatch):
    _patch_word_route(monkeypatch, _not_symmetric)
    code, out, err = run(capsys, "expand", "--poset", "2,3,3", "--mu", "1,1,1")
    assert code == 2 and out == ""
    assert err.startswith("cross-check failure:") and "M_[1, 2]" in err
    assert "Traceback" not in err


def test_verify_reports_not_symmetric_as_fail(capsys, monkeypatch):
    _patch_word_route(monkeypatch, _not_symmetric)
    code, out, _ = run(capsys, "verify", "--suite", "sinks", "--max-n", "2")
    assert code == 2
    lines = out.strip().splitlines()
    # the sweep runs on past the first failure: 1 + 2 orders
    assert len({line.split()[1] for line in lines}) == 3
    assert all(line.startswith("FAIL") for line in lines)


@pytest.mark.parametrize(
    "suite, name", [("oracle", "coloring_qsym"), ("positivity", "positivity_report")]
)
def test_verify_reports_a_raising_check_as_fail(capsys, monkeypatch, suite, name):
    def broken(order, mu, *rest):
        raise CrossCheckError("routes disagree")

    # each suite reads the name from the module patched here
    monkeypatch.setattr(heap_sides if name == "positivity_report" else chromatic, name, broken)
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", "2")
    assert code == 2 and err == ""
    lines = out.strip().splitlines()
    # both checks of each of the 1 + 2 orders, run on past the failures
    assert len(lines) == 6 and all(line.startswith("FAIL") for line in lines)


@pytest.mark.parametrize("error", [CrossCheckError, NonIntegralWeightError])
def test_math_errors_exit_2(capsys, monkeypatch, error):
    def broken(order, mu, basis):
        raise error("routes disagree")

    monkeypatch.setattr(chromatic, "expansion", broken)
    code, out, err = run(capsys, "expand", "--poset", "2,3,3")
    assert code == 2 and out == ""
    assert err == "cross-check failure: routes disagree\n"


def test_perturbed_e_source_fails_the_hook_check(capsys, monkeypatch):
    order = UnitIntervalOrder.from_text("2,3,4,5,5")
    mu = (1,) * 5
    expansion(order, mu, "e")
    real = chromatic._e_coefficients

    def perturbed(order, mu):
        # one more than the true e-coefficient of the hook (3,1,1), which is 0
        coeffs = dict(real(order, mu))
        coeffs[(3, 1, 1)] = coeffs.get((3, 1, 1), QPoly()) + 1
        return coeffs

    monkeypatch.setattr(chromatic, "_e_coefficients", perturbed)
    with pytest.raises(CrossCheckError, match=r"hook e-coefficient of \(3, 1, 1\)"):
        expansion(order, mu, "e")
    code, out, err = run(capsys, "expand", "--poset", "2,3,4,5,5")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("cross-check failure: hook")


def _perturbed_e_source(monkeypatch, lam):
    """Make _e_coefficients report one more at lam than it should."""
    real = chromatic._e_coefficients

    def perturbed(order, mu):
        coeffs = dict(real(order, mu))
        coeffs[lam] = coeffs.get(lam, QPoly()) + 1
        return coeffs

    monkeypatch.setattr(chromatic, "_e_coefficients", perturbed)


def test_perturbed_e_source_fails_the_two_column_check(monkeypatch):
    order = UnitIntervalOrder.from_text("2,3,4,5,5")
    mu = (1,) * 5
    assert chromatic.coeff_e_two_column(order, mu, 3, 2) == QPoly.monomial(2)
    # the heap sums are cached now; the comparison still reads the source
    _perturbed_e_source(monkeypatch, (2, 2, 1))
    text = (
        "two-column e-coefficient of (2, 2, 1): heaps give q^2, "
        "basis change gives 1 + q^2"
    )
    with pytest.raises(CrossCheckError) as info:
        chromatic.coeff_e_two_column(order, mu, 3, 2)
    assert str(info.value) == text


def test_perturbed_e_source_fails_the_sink_sum(monkeypatch):
    order = UnitIntervalOrder.from_text("2,3,4,5,5")
    mu = (1,) * 5
    assert heap_sides.sink_sum(order, mu, 3) == QPoly.monomial(2)
    _perturbed_e_source(monkeypatch, (2, 2, 1))
    text = "sink sum k=3: heaps give q^2, e-report row sums give 1 + q^2"
    with pytest.raises(CrossCheckError) as info:
        heap_sides.sink_sum(order, mu, 3)
    assert str(info.value) == text


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


# the --svg output at 2,3,3 / 1,1,2, taken while every class member was
# a Heap: the file names, and the SHA-256 of classes.json and of the
# diagrams concatenated in name order
FROZEN_SVG = (
    ["classes.json"] + [f"heap_{w}.svg" for w in ("1233", "1323", "1332", "2133", "3213", "3321")],
    "2670cd8e72d1611931a3342323b17936bbd9740fe6552f952906ce596c9c63e0",
    "f382aeea7a6a5fa550679b3a8a23c6d895b291455410abb6c4fe07a38edf99b5",
)


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
    names, index_digest, svg_digest = FROZEN_SVG
    assert files == names
    assert hashlib.sha256((svg_dir / "classes.json").read_bytes()).hexdigest() == index_digest
    svgs = b"".join((svg_dir / f).read_bytes() for f in files if f.endswith(".svg"))
    assert hashlib.sha256(svgs).hexdigest() == svg_digest
    assert len(json.loads((svg_dir / "classes.json").read_text())) == 4


# SHA-256 of stdout of `classes` in json and in pretty format, taken while
# every class member was built as a Heap
FROZEN_CLASSES = {
    ("3,4,5,6,7,8,9,9,9", None): (
        "5fe7d80e535981590934dff1c8bd834693d208a8b3a4314bfb072983bfde03da",
        "67707292479f296b8ffdf9bc004dbade5ed4ab0273b0e6d3222d29dc0c6d885a",
    ),
    ("2,4,5,6,7,7,7", "2,1,1,1,1,1,2"): (
        "b491da58f387473db94ad3e1419a374b84fa9361511f8c163da28dc3f11ed46e",
        "606ed88ac0246aa5da52bdcc599fe90bcbfceef82e9b2e63a3941b7c9b2f56f2",
    ),
    ("2,3,3", "3,2,2"): (
        "c0314aa7aa6add4d5791de32beb0f7740a963733161f6829f79976d74c309a28",
        "c5789dbccf54a9ab71294873d8e1beedb6f8554dfe026529140435d5d832389f",
    ),
    # n = 10: words joined by '-'
    ("2,3,4,5,6,7,8,9,10,10", None): (
        "b4c092aecd98a842b9319cc05ed6d1428d3a0d328deb2b4e4610150b7627f8db",
        "eb85835daf3a0879b4ecc76ee95821e2b60ca5464040207ecbe0fade84c92753",
    ),
    ("1", None): (
        "167a172a47307adb9c62b9384edd4e4196f765df81ab25c013091591b5c2d464",
        "9e4dbe50f9dc3e3470bc4a45562329fce7af9bd99cdcf0a1d90bac61cbe2c82f",
    ),
}


def _check_frozen_classes(capsys, poset, mu):
    for fmt, digest in zip(("json", "pretty"), FROZEN_CLASSES[poset, mu]):
        argv = ["classes", "--poset", poset, "--format", fmt]
        code, out, _ = run(capsys, *argv, *(["--mu", mu] if mu else []))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (poset, mu, fmt)


@pytest.mark.parametrize("poset, mu", list(FROZEN_CLASSES))
def test_classes_output_is_frozen(capsys, poset, mu):
    _check_frozen_classes(capsys, poset, mu)


def test_classes_without_svg_build_no_heap(capsys, monkeypatch):
    """The listing reads the flip-class walk's masks; only --svg diagrams
    need Heap objects."""

    def refuse(self, *args):
        raise RuntimeError("a Heap was built")

    monkeypatch.setattr(Heap, "__init__", refuse)
    for poset, mu in (("2,3,3", "3,2,2"), ("1", None)):
        _check_frozen_classes(capsys, poset, mu)


def test_classes_words_print_apart_from_n_10_on(tmp_path, capsys):
    # run together, the words 1,1,11 / 1,11,1 / 11,1,1 would all read 1111
    poset, mu = ",".join(["11"] * 11), "2" + ",0" * 9 + ",1"
    argv = ("classes", "--poset", poset, "--mu", mu)
    code, out, _ = run(capsys, *argv, "--format", "json", "--svg", str(tmp_path))
    assert code == 0
    members = [w for c in json.loads(out)["classes"] for w in c["members"]]
    assert sorted(members) == ["1-1-11", "1-11-1", "11-1-1"]
    assert sorted(f for f in os.listdir(tmp_path) if f.endswith(".svg")) == [
        f"heap_{w}.svg" for w in sorted(members)
    ]
    pretty = run(capsys, *argv)[1]
    assert all(f"[{w}]" in pretty for w in members), pretty


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
    # classes writes its text in parts, one per class
    argv = ("classes", "--poset", "2,3,3", "--mu", "3,2,2", "--format", "json")
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    digest = FROZEN_CLASSES["2,3,3", "3,2,2"][0]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize(
    "command, value",
    [
        pytest.param(command, value, id=value if command == "verify" else command + value)
        for command in ("verify", "expand", "classes")
        for value in ("0", "-2")
    ],
)
def test_verify_max_n_must_be_positive(capsys, command, value):
    instance = ("--suite", "sinks") if command == "verify" else ("--poset", "3,3,3")
    code, out, err = run(capsys, command, *instance, "--max-n", value)
    assert code == 1 and out == ""
    assert err == "error: --max-n must be at least 1\n"


def test_verify_with_no_applicable_check_writes_nothing(capsys):
    # no hook (a+1, 1^l) with a, l >= 1 has fewer than 3 cells
    code, out, err = run(capsys, "verify", "--suite", "hook", "--max-n", "2")
    assert (code, out, err) == (0, "", "")


# SHA-256 of stdout, taken before the oracle enumerated only gapless
# colorings and the class functions counted descent sets as ints
FROZEN_VERIFY = {
    ("verify", "--suite", "oracle", "--max-n", "4"):
        "32673fb9bb9f31a805c1b87361f5ebc955a5cdaebd80086f19f05bb47d949722",
    ("verify", "--suite", "positivity", "--max-n", "4"):
        "3c50f6b80d6306a71691cbf9facd7704ef2182c82311ae1c2f0e574fad9c46e5",
    ("verify", "--suite", "oracle", "--poset", "2,3,3", "--mu", "3,2,2"):
        "f6b009a72093fc98be7de88a7b160c6adbff6339d22ca89b43d199a2e675ecbf",
    # the heap-side e checks up to n = 6, taken before they shared one
    # pass over the heaps and the forbidden-path search was rank-pruned
    ("verify", "--suite", "hook", "--max-n", "6"):
        "ea91dcc5dcb42913ec0782d4a5ccdd9696c2a6c8c6ed089e718f83834823030a",
    ("verify", "--suite", "two-column", "--max-n", "6"):
        "d27b94103802cb1326f378d0f76ab36172d82dcf1eba5aab65f7c06ce15fc464",
    ("verify", "--suite", "sinks", "--max-n", "6"):
        "8bbe9672cdd965305deef9a925f71c2bc9e574a767dc081c8efb134f2555f0ed",
}


@pytest.mark.parametrize("argv", list(FROZEN_VERIFY), ids=" ".join)
def test_verify_output_is_frozen(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_VERIFY[argv]


def test_per_instance_caches_hold_one_instance(capsys, monkeypatch):
    caches = (chromatic._e_coefficients, heap_sides._e_heap_sums, heap_sides._sink_polys)
    for cache in caches:
        cache.cache_clear()
    # classes are closed from the descent-free words, never from the
    # heaps of the type, which drop from their words
    refuse_heaps_from_words(monkeypatch)
    assert run(capsys, "classes", "--poset", "3,4,5,6,7,7,7")[0] == 0
    # positivity lists the classes of each instance and expands it in e
    assert run(capsys, "verify", "--suite", "positivity", "--max-n", "4")[0] == 0
    # the sinks suite sums the sinks of each instance by its transfer
    assert run(capsys, "verify", "--suite", "sinks", "--max-n", "4")[0] == 0
    for cache in caches:
        assert cache.cache_info().currsize == 1, cache
    # the drop tables are kept for the last order of the sweep only
    assert list(heaps._tables) == [(4, 4, 4, 4)]
    # so are the NC generators and the class representatives
    assert run(capsys, "verify", "--suite", "commutation", "--max-n", "4")[0] == 0
    assert list(ncsf._gen_cache) == list(ncsf._rep_cache) == [(4, 4, 4, 4)]
    assert ncsf._gen_cache[(4, 4, 4, 4)]


@st.composite
def cheap_argv(draw):
    """expand, classes or verify on one order with n <= 3 and mu entries
    <= 2, with --max-n drawn from edge values."""
    n = draw(st.integers(1, 3))
    order = draw(st.sampled_from(list(UnitIntervalOrder.all_orders(n))))
    argv = [draw(st.sampled_from(["expand", "classes", "verify"])), "--poset", order.text()]
    mu = draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if mu is not None:
        argv += ["--mu", ",".join(map(str, mu))]
    if argv[0] == "expand":
        argv += ["--basis", draw(st.sampled_from("fpsemh"))]
    elif argv[0] == "verify":
        argv += ["--suite", draw(st.sampled_from([*cli.SUITE_NAMES, "all"]))]
    max_n = draw(st.sampled_from([None, 0, 1, 5]))
    if max_n is not None:
        argv += ["--max-n", str(max_n)]
    return argv


@settings(max_examples=300, deadline=None)
@given(cheap_argv())
# a table of 2^69 descent masks overflows at once, before any allocation
@example(["expand", "--poset", "1", "--mu", "70", "--max-n", "70", "--basis", "m"])
def test_cli_never_raises(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2), argv


def test_an_instance_too_large_exits_1(capsys, monkeypatch):
    """An OverflowError or MemoryError is one error line and exit 1.
    The MemoryError is raised by a stub: a real allocation of 2^(d-1)
    masks for d in about 28..63 would take the machine's memory."""
    too_large = ["expand", "--poset", "1", "--mu", "70", "--max-n", "70", "--basis", "m"]
    for argv in (too_large, ["verify", *too_large[1:-2]]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(chromatic, "_fundamental_to_monomial", out_of_memory)
    code, out, err = run(capsys, "expand", "--poset", "2,3,4,4", "--mu", "1,2,1,1", "--basis", "m")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "MemoryError" in err


# SHA-256 of stdout of expand in every basis and format, and of classes,
# taken before the word searches and the Jacobi-Trudi loops were unified
FROZEN_EXPAND = {
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "f", "--format", "json"):
        "cf21b3999da4f5bdec69c7111aae07af4657d803fc04cff5b069adbafc0da187",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "f", "--format", "csv"):
        "fbcf6fb851c73b020e5a79da3872e7d6f71c9d066a1bffc7789317daa07e8c0c",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "f", "--format", "pretty"):
        "c9cd6f311d3d82af265c8691c987026c1f256a35cda4db14442e2b3705fae4a2",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "p", "--format", "json"):
        "bfe3e5bbcf5eda27be22046454e02013aff574fd74ec0e526a93da224f283a1b",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "p", "--format", "csv"):
        "25d3aa304e6c01c030a767bc523973b038ed3e338a93fe4641028ad3dcb4578c",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "p", "--format", "pretty"):
        "c941d38bc85a3c4d3c1a8bf27cee79e2e9e732a2e3026050d12d70bb65a74016",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "s", "--format", "json"):
        "fefd870b650400894990fe2fafd5fff158545260f7978e1c5e91bfea31197db5",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "s", "--format", "csv"):
        "946957246c939fcff8e864a2a8c4aa8dd8aedb66a80194a9592e301a9cf32cb2",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "s", "--format", "pretty"):
        "fce91befa579d64befc73afd2162ba5fee893c3da1125b39f46f70d7fce94307",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "e", "--format", "json"):
        "82751ceccbb114ed204957972a892a57b18ce8b1537ebf47de173b4525259c24",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "e", "--format", "csv"):
        "492da5889c17e0cca6b48566d07b896267efeda8026c795ff30f513f046edbf3",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "e", "--format", "pretty"):
        "43bbd303a0642321bd4bf6100639ad98972a7393ebd660adf8f3dcfc7108cc8b",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "m", "--format", "json"):
        "666d2b09d5c23d64ee88c2d29ec9256ed3eefc1a25a6e8462228c32fc4090786",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "m", "--format", "csv"):
        "50d0eb01cd8adcc8af806862860dd02e1b282c5b542438f7527749c99626e0c6",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "m", "--format", "pretty"):
        "158e483db29837de49583a8493b86c52d3813c94512da45f91356a724457872c",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "h", "--format", "json"):
        "3bea47e7a60f545bae8059ba1b240908da43543ee281946cd80e2928644d4474",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "h", "--format", "csv"):
        "632c8a4470d6bc5203774b3fcb2e14266432e1d1cdd35b31030026d95885570b",
    ("expand", "--poset", "2,3,3", "--mu", "1,1,2", "--basis", "h", "--format", "pretty"):
        "bf1808ed6aaf057d90e56f168411e58c1e8b7ab4121acabfffba4e2f64ad0974",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "f", "--format", "json"):
        "ef1977a70d830cf461a73e8323094c01a8471461da3f85a1c4793e6d127d4918",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "f", "--format", "csv"):
        "deefc675427624e0ef82c7d2f4c8860122c4818c63655644e0977294542dc3b9",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "f", "--format", "pretty"):
        "f0a844bc4367417990dbeed81b7126de509a24b92f0516414b7a6e6af1b0bec3",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "p", "--format", "json"):
        "a03f492c3da4d277c049f4cf489ad8856dcd61683146d606f55411a4cabca55d",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "p", "--format", "csv"):
        "fe0ad0fba32bd145a244bbc52089f8a9ea55e07456cb7442c8d62f0acb8903cd",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "p", "--format", "pretty"):
        "ef8cac5a66ae9ad6f330e610d95a93d635616fff5eb23fae3af7cea71f166109",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "s", "--format", "json"):
        "4f1aa7d654a90ea8a346e5d7a387c2dacc33bb9014cb7b674c2d55de4847b25d",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "s", "--format", "csv"):
        "9d901a0b8937ec13db31db04058954f09235996485cea00af6f3e2be12d605cd",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "s", "--format", "pretty"):
        "077d8e2f19c4c737edcc9af58b53aebdf7ded38f4a7444f471e5e542129b50b2",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "e", "--format", "json"):
        "7dbf0f13d433d0e61cf44af8c42d3a8a8c839aab8ee35b7ea8dac136986ca426",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "e", "--format", "csv"):
        "7ab8c392867d1d56ce8bfd0adf2d4a4f9f12fed5586aa030aecc8f06d9cefaed",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "e", "--format", "pretty"):
        "1a1e085b76044ef461377fd3121574cc4fe1d86f99bc140883c1f942a38c9c7f",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "m", "--format", "json"):
        "ea822f6b0442bb76ecf3dbf60004a460ef7f299b578ed1fc4870023248c482af",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "m", "--format", "csv"):
        "55b42cf84d406c0eaebbbed4ee066663c65488e0faca1f9ece9f65360d518da1",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "m", "--format", "pretty"):
        "ef870541a85de59153bde9e28d6ff0a61411e2964d7949c4c49c62850628f2bd",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "h", "--format", "json"):
        "1a755b0328306fbabaf1bf84ecf65970b292fb04583ae2f4ec7965c714ac7431",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "h", "--format", "csv"):
        "71a043803cf81df93ef67a08c29d5cbddeed3e78d5d20e30498b7b5377bf4168",
    ("expand", "--poset", "2,3,4,5,5", "--basis", "h", "--format", "pretty"):
        "0a666313bfac8eb8105b11c50d975cd1996db3e8c24093d9601c864e8b906ae2",
    # n = 7 and n = 8 in every basis, taken before the basis change became a
    # triangular back-substitution
    ("expand", "--poset", "2,4,5,6,7,7,7", "--basis", "f", "--format", "json"):
        "7ec6ea195c2c697baf6dfce2cf1be2a6eabbb8c0fb7332aef5c2fdf61d05504c",
    ("expand", "--poset", "2,4,5,6,7,7,7", "--basis", "p", "--format", "json"):
        "5dcb3852cdc8204f6c689020512bc1317fee2a0e722fd47aaa1b8e303b012b97",
    ("expand", "--poset", "2,4,5,6,7,7,7", "--basis", "s", "--format", "json"):
        "a065411020a52c62af340d6e9b5c845b9e1501fef7f45cc77191bece7cc490c2",
    ("expand", "--poset", "2,4,5,6,7,7,7", "--basis", "e", "--format", "json"):
        "aab0f7c5d6b10aa6490733db1c43b2151bf20024349cbd58ded7412d51117bfd",
    ("expand", "--poset", "2,4,5,6,7,7,7", "--basis", "m", "--format", "json"):
        "9efa176c0315211f6844e69680f150ed5bf8b3207d5094720ae17381aa3fd78d",
    ("expand", "--poset", "2,4,5,6,7,7,7", "--basis", "h", "--format", "json"):
        "1c6c862ce3a6d0a8a6382e5dda60b7296cb9815046af4c6abde02eadb72fb169",
    ("expand", "--poset", "2,3,4,5,6,7,8,8", "--basis", "f", "--format", "json"):
        "c75bd2f850e02a159513d7cb09bd489958d51198e00a2dc017f529c8fa5b2f39",
    ("expand", "--poset", "2,3,4,5,6,7,8,8", "--basis", "p", "--format", "json"):
        "1a099d1f17984785ba33db935de9fcc1a62c3f9f0789d4b0603f0d8a5ab50e6e",
    ("expand", "--poset", "2,3,4,5,6,7,8,8", "--basis", "s", "--format", "json"):
        "54cf87b0bc15f4fa27247b8df840fa07313e225283a6e6de173191f3a3716a2a",
    ("expand", "--poset", "2,3,4,5,6,7,8,8", "--basis", "e", "--format", "json"):
        "68f433ebb655b8333431e99439d22676148d834b84d9ded49b7e100ce9dba6af",
    ("expand", "--poset", "2,3,4,5,6,7,8,8", "--basis", "m", "--format", "json"):
        "ce3dae415d1c17910f59265237887b4e8ce452ee73ccfa22e7507a2d0b3c9424",
    ("expand", "--poset", "2,3,4,5,6,7,8,8", "--basis", "h", "--format", "json"):
        "d41cd9b3d60055313a6fa39aa82f19dd72b31781b3697d437f3bd03dfd58a247",
    # n = 9 in e, taken before the e cross-checks shared one pass over the heaps
    ("expand", "--poset", "3,4,5,6,7,8,9,9,9", "--basis", "e", "--format", "json"):
        "f8cc1a128391b3e636c4bb741d4a0e28e520806ed43c11d936be741737ccf44e",
    ("classes", "--poset", "2,3,3", "--mu", "1,1,2", "--format", "pretty"):
        "119d271ccf6beafa88d8b889c131808aad0a6a31f1f45e84d5a368154f7f681c",
    ("classes", "--poset", "2,3,4,5,5", "--format", "pretty"):
        "89ce77d988a085a74eabb156a5614150b146bf488051d29d5389465dfd4f9c87",
    # classes instances of benchmarks/golden.json, taken before heap
    # components were read as column runs and block labels off the masks
    ("classes", "--format", "json", "--poset", "2,3,3", "--mu", "3,2,2"):
        "c0314aa7aa6add4d5791de32beb0f7740a963733161f6829f79976d74c309a28",
    ("classes", "--format", "json", "--poset", "2,4,5,6,7,7,7", "--mu", "2,1,1,1,1,1,2"):
        "b491da58f387473db94ad3e1419a374b84fa9361511f8c163da28dc3f11ed46e",
    ("classes", "--format", "json", "--poset", "3,4,5,6,7,8,9,9,9"):
        "5fe7d80e535981590934dff1c8bd834693d208a8b3a4314bfb072983bfde03da",
}


@pytest.mark.parametrize("argv", list(FROZEN_EXPAND), ids=" ".join)
def test_expand_output_is_frozen(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_EXPAND[argv]


# positivity_report as (representative, size, ascents) per class; every
# class is h-positive and X is e-positive in both
FROZEN_POSITIVITY = {
    ("2,3,4,5,5", (1, 1, 1, 1, 1)): [
        ("12345", 1, 0),
        ("12354", 4, 1),
        ("12543", 6, 2),
        ("15432", 4, 3),
        ("54321", 1, 4),
    ],
    ("2,3,3", (1, 1, 2)): [("1233", 1, 0), ("1323", 2, 1), ("1332", 2, 2), ("3321", 1, 3)],
}


def test_no_route_reads_an_f_or_h_table(capsys, monkeypatch):
    """Every expansion and the positivity report give their frozen values
    with basis_to_m refusing f and h: omega is taken by complementing
    descent masks, never through an f or h table."""
    real = symfunc.basis_to_m

    def refuse_f_and_h(basis, lam):
        if basis in ("f", "h"):
            raise RuntimeError(f"basis_to_m({basis!r}, {lam}) was called")
        return real(basis, lam)

    # tables and e-coordinates cached by earlier calls would bypass the patch
    symfunc.m_in_basis_coords.cache_clear()
    chromatic._e_coefficients.cache_clear()
    monkeypatch.setattr(symfunc, "basis_to_m", refuse_f_and_h)
    for poset, mu in FROZEN_POSITIVITY:
        for basis in "fpsemh":
            argv = ("expand", "--poset", poset, "--basis", basis, "--format", "json")
            if mu != (1,) * len(mu):
                argv = argv[:3] + ("--mu", ",".join(map(str, mu))) + argv[3:]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_EXPAND[argv]
    for (poset, mu), classes in FROZEN_POSITIVITY.items():
        report = positivity_report(UnitIntervalOrder.from_text(poset), mu)
        assert report["all_classes_h_positive"] and report["e_positive"]
        got = [(c["representative"], c["size"], c["ascents"]) for c in report["classes"]]
        assert got == classes
        assert all(c["h_positive"] for c in report["classes"])


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


def _modules_loaded(*argv) -> set:
    """Modules a fresh interpreter adds by importing the CLI and, when argv
    is given, by running that one command with its stdout discarded. The
    child runs with -S, so no site hook can preload a module and hide its
    import."""
    code = (
        "import contextlib, io, json, sys; before = set(sys.modules)\n"
        "import chromheap.cli\n"
        f"argv = {list(argv)!r}\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert chromheap.cli.main(argv) == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, check=True
    )
    return set(json.loads(done.stdout))


def test_cli_import_pulls_in_no_class_boilerplate_modules():
    """Each call is a fresh interpreter, so importing the CLI must not drag
    in dataclasses and the inspect chain behind it, nor typing, nor
    fractions with the decimal and numbers modules it imports."""
    added = _modules_loaded()
    assert "chromheap.cli" in added
    banned = {"dataclasses", "inspect", "ast", "dis", "tokenize", "copy", "typing"}
    banned |= {"fractions", "decimal", "numbers"}  # loaded only where a Fraction is made
    assert not added & banned, sorted(added & banned)


# The chromheap modules each call loads, past the package itself: a call
# loads no module its command never reads. Every route of chromatic has
# a module of its own: pairing for f, p and s, heap_sides (with heaps)
# for e and the heap-side suites, oracle for the oracle suite; only the
# NC suites load ncsf, and only verify loads the suites.
BASE = ("cli", "errors", "partitions", "posets")
WORD_ROUTE = (*BASE, "chromatic", "symfunc", "qpoly")
HEAP_SIDES = (*WORD_ROUTE, "heap_sides", "heaps")
NC = (*BASE, "ncsf", "heaps", "symfunc", "qpoly", "suites")
MODULES_LOADED = {
    (): BASE,
    ("classes", "--poset", "2,3,4,4", "--format", "json"): (*BASE, "heaps"),
    **{
        ("expand", "--poset", "2,3,4,4", "--basis", basis): (*WORD_ROUTE, "pairing")
        for basis in "fps"
    },
    ("expand", "--poset", "2,3,4,4", "--basis", "e"): HEAP_SIDES,
    ("expand", "--poset", "2,3,4,4", "--basis", "m"): WORD_ROUTE,
    ("expand", "--poset", "2,3,4,4", "--basis", "h"): WORD_ROUTE,
    ("verify", "--suite", "oracle", "--max-n", "3"): (*WORD_ROUTE, "oracle", "suites"),
    **{("verify", "--suite", suite, "--max-n", "3"): NC for suite in (
        "commutation", "p-equiv", "s-equiv", "hp-recurrence"
    )},
    **{("verify", "--suite", suite, "--max-n", "3"): (*HEAP_SIDES, "suites") for suite in (
        "sinks", "two-column", "hook", "positivity"
    )},
}


@pytest.mark.parametrize("argv", list(MODULES_LOADED), ids=lambda argv: " ".join(argv) or "import")
def test_each_call_loads_exactly_its_modules(argv):
    loaded = {name for name in _modules_loaded(*argv) if name.startswith("chromheap.")}
    assert loaded == {f"chromheap.{name}" for name in MODULES_LOADED[argv]}


def test_the_module_table_covers_every_basis_and_suite():
    """MODULES_LOADED has a row for every basis and suite, and the CLI
    lists the suites as chromheap.suites defines them, in order."""
    assert tuple(suites.SUITES) == cli.SUITE_NAMES
    rows = [argv for argv in MODULES_LOADED if argv]
    assert {argv[-1] for argv in rows if argv[0] == "expand"} == set("fpsemh")
    assert {argv[2] for argv in rows if argv[0] == "verify"} == set(cli.SUITE_NAMES)
