"""Command line behavior: outputs, exit codes, determinism."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import toran
from toran.bounds import evaluate_bound, exact_str
from toran.cli import main
from toran.mordell_weil import ModuleSpec, PointInEN
from toran.serialize import dumps_canonical, module_spec_to_json_dict


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_module(tmp_path, spec, points, name="module.json"):
    path = tmp_path / name
    path.write_text(dumps_canonical(module_spec_to_json_dict(spec, points)))
    return str(path)


def test_bounds_single(capsys):
    argv = [
        "bounds",
        "--theorem",
        "tadimzero_hY0",
        "--param",
        "N=3",
        "--param",
        "d=1",
        "--param",
        "hV=1",
        "--param",
        "degV=2",
        "--param",
        "ktorV=4",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "36"
    assert obj["value_exact"] is True
    assert obj["direction"] == "upper"
    code2, out2, _ = run_cli(capsys, argv)
    assert code2 == 0 and out2 == out  # byte-identical rerun


def test_bounds_constants_and_eta(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "bounds",
            "--theorem",
            "tadimzero_hY0",
            "--eta",
            "1",
            "--param",
            "N=3",
            "--param",
            "d=1",
            "--param",
            "hV=1",
            "--param",
            "degV=3",
            "--param",
            "ktorV=2",
            "--constant",
            "c=2",
        ],
    )
    assert code == 0
    assert json.loads(out)["value"] == str(2 * 4**3 * 2**2)


def test_bounds_rejects_bad_range(capsys):
    code, out, err = run_cli(
        capsys,
        ["bounds", "--theorem", "tadimzero_hY0", "--param", "N=3", "--param", "d=2"],
    )
    assert code == 2
    assert not out
    assert "error:" in err


def test_bounds_rejects_eta_above_threshold(capsys):
    code, out, err = run_cli(
        capsys, ["bounds", "--theorem", "kappa", "--eta", "5", "--param", "g0=1"]
    )
    assert code == 2 and not out
    assert "need eta <= 1" in err


def test_bounds_requires_theorem(capsys):
    code, _, err = run_cli(capsys, ["bounds"])
    assert code == 2 and "theorem" in err
    # the identity report has one route, `toran identities`
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--identities"])
    assert exc.value.code == 2 and not capsys.readouterr().out


def test_identities_command(capsys):
    code, out, _ = run_cli(capsys, ["identities"])
    assert code == 0
    report = json.loads(out)
    assert len(report) == 13
    assert all(entry["holds"] for entry in report.values())
    code2, out2, _ = run_cli(capsys, ["identities"])
    assert out2 == out


@pytest.mark.parametrize(
    "argv",
    [
        ["identities", "--max-n", "-3"],
        ["identities", "--max-n", "3"],
    ],
    ids=["negative", "three"],
)
def test_identities_below_max_n_4_exit_2(capsys, argv):
    # below N = 4 some range identities check no case, so none may print "holds"
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and not out and "need max_n >= 4" in err


def test_sweep(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text(
        "N,d,hV,degV,ktorV,eta\n"
        "3,1,1,2,4,\n"
        "4,1,1,2,3,1/2\n"
    )
    code, out, _ = run_cli(
        capsys, ["bounds", "--theorem", "tadimzero_hY0", "--sweep", str(csv_path)]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,d,hV,degV,ktorV,eta,value,value_float,value_exact"
    assert lines[1].startswith("3,1,1,2,4,")
    assert ",36,36,True" in lines[1]
    assert lines[2].startswith("4,1,1,2,3,1/2,")


def test_bounds_print_values_beyond_the_int_str_limit(capsys, tmp_path):
    # mw_field at N = 5 has 4772 digits, above CPython's default limit of
    # 4300; the limit is lifted for the conversion only
    limit = sys.get_int_max_str_digits()
    want = exact_str(evaluate_bound("mw_field", N=5).value)
    assert len(want) == 4772 and sys.get_int_max_str_digits() == limit
    code, out, _ = run_cli(capsys, ["bounds", "--theorem", "mw_field", "--param", "N=5"])
    assert code == 0
    assert json.loads(out)["value"] == want
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text("N\n5\n")
    code, out, _ = run_cli(capsys, ["bounds", "--theorem", "mw_field", "--sweep", str(csv_path)])
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == want
    assert sys.get_int_max_str_digits() == limit


def test_readme_sweep_example(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = next(ln for ln in readme.splitlines() if "--sweep params.csv" in ln)
    (tmp_path / "params.csv").write_text("N,d,hV,degV,ktorV\n3,1,1,2,4\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, line.split()[1:])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,d,hV,degV,ktorV,value,value_float,value_exact"
    assert len(lines) == 2 and lines[1].startswith("3,1,1,2,4,")
    assert len(lines[1].split(",")) == 8


def test_readme_library_tour():
    # the README's one python block runs as shown, so it names no deleted function
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(blocks[0].split("```")[0], {})


def test_readme_bounds_example(capsys):
    # the documented command, with its continuation line, prints the lines
    # the README shows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("$ toran bounds --theorem"))
    command = lines[i].rstrip("\\") + lines[i + 1]
    shown = lines[i + 2 : lines.index("```", i)]
    code, out, _ = run_cli(capsys, command.split()[2:])
    assert code == 0
    assert '  "value": "100",' in shown
    for ln in shown:
        if ln.strip() not in {"{", "...", "}"}:
            assert ln in out.splitlines()


@pytest.mark.parametrize("eta", ["1/2", "1/4"])
@pytest.mark.parametrize(
    "theorem,params,name",
    [
        ("carrizosa_lower", ["dimB=7/2", "degB=4", "ktorV=3"], "dimB"),
        ("galateau_lower", ["dimB=4", "dimY=3/2", "degB=4", "degY=2"], "dimY"),
    ],
)
def test_bounds_non_integral_dimension_exits_2(capsys, eta, theorem, params, name):
    argv = ["bounds", "--theorem", theorem, "--eta", eta]
    for item in params:
        argv += ["--param", item]
    code, out, err = run_cli(capsys, argv)
    value = next(item for item in params if item.startswith(name + "=")).split("=")[1]
    assert code == 2 and not out
    assert err == f"error: {name} must be an integer, got {value}\n"


@pytest.mark.parametrize("missing", ["kV", "ktorV"])
def test_bounds_missing_base_parameter_exits_2(capsys, tmp_path, missing):
    # these used to print the raw KeyError of the base: error: 'k'
    params = {"N": "4", "hV": "1", "degV": "1", "ktorV": "1", "kV": "1"}
    del params[missing]
    argv = ["bounds", "--theorem", "teoremone_i"]
    for key, val in params.items():
        argv += ["--param", f"{key}={val}"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and not out
    assert err == f"error: missing parameter {missing}\n"
    csv_path = tmp_path / "sweep.csv"
    csv_path.write_text(",".join(params) + "\n" + ",".join(params.values()) + "\n")
    code, out, err = run_cli(
        capsys, ["bounds", "--theorem", "teoremone_i", "--sweep", str(csv_path)]
    )
    assert code == 2 and not out
    assert err == f"error: missing parameter {missing}\n"


@pytest.mark.parametrize("constant", ["c=-1", "c=0", "tadimzero_hY0=-1/2"])
def test_bounds_nonpositive_constant_exits_2(capsys, constant):
    argv = ["bounds", "--theorem", "tadimzero_hY0", "--constant", constant]
    for item in ("N=3", "d=1", "hV=2", "degV=3", "ktorV=4"):
        argv += ["--param", item]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and not out
    assert err == f"error: need a positive constant, got {constant.split('=')[1]}\n"


def test_classify(capsys, tmp_path):
    spec = ModuleSpec(-3, 1, [[1]])
    x = PointInEN.from_rows(spec, [[1], [2], [3]])
    path = write_module(tmp_path, spec, [x])
    code, out, _ = run_cli(capsys, ["classify", "--module", path, "--dim-v", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "anomalous"
    assert obj["theorem_id"] == "tadimzero"
    assert obj["dimB"] == 1
    code2, _, err = run_cli(
        capsys, ["classify", "--module", path, "--dim-v", "1", "--point-index", "3"]
    )
    assert code2 == 2 and "out of range" in err


def test_reduce(capsys, tmp_path):
    spec = ModuleSpec(-4, 1, [[1]])
    x = PointInEN.from_rows(spec, [[(1, 1)], [2]])
    path = write_module(tmp_path, spec, [x])
    code, out, _ = run_cli(capsys, ["reduce", "--module", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 1 and obj["codim"] == 1
    assert obj["matrix"]["rows"] == [["1+1*w", "-1*w"]]
    # explicit unit multipliers give the same coset
    code2, out2, _ = run_cli(
        capsys, ["reduce", "--module", path, "--multipliers", "1,1"]
    )
    assert code2 == 0 and out2 == out


def test_lift(capsys, tmp_path):
    spec = ModuleSpec(-4, 1, [[1]])
    x = PointInEN.from_rows(spec, [[1], [2]])
    path = write_module(tmp_path, spec, [x])
    code, out, _ = run_cli(capsys, ["lift", "--module", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["coset"]["codim"] == 2 and obj["coset"]["dim"] == 1
    assert obj["point"]["rows"] == [["1"], ["2"], ["1"]]


def test_lift_rejects_torsion(capsys, tmp_path):
    spec = ModuleSpec(-4, 1, [[1]], torsion_order=2)
    x = PointInEN.from_rows(spec, [[0], [0]], [1, 1])
    path = write_module(tmp_path, spec, [x])
    code, _, err = run_cli(capsys, ["lift", "--module", path])
    assert code == 2 and "torsion" in err


def test_enumerate_torsion(capsys):
    code, out, _ = run_cli(
        capsys,
        ["enumerate", "--kind", "torsion", "--disc", "-4", "--ambient", "1", "--level", "2"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 4
    assert len(obj["items"]) == 4
    assert obj["items"][0] == "level: 2; coords: [0]"
    code2, out2, _ = run_cli(
        capsys,
        [
            "enumerate",
            "--kind",
            "torsion",
            "--disc",
            "-4",
            "--ambient",
            "1",
            "--level",
            "6",
            "--exact-order",
            "--count-only",
        ],
    )
    obj2 = json.loads(out2)
    assert obj2["count"] == 24
    assert "items" not in obj2


def test_enumerate_subgroups(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "enumerate",
            "--kind",
            "subgroups",
            "--disc",
            "-4",
            "--ambient",
            "2",
            "--dim",
            "1",
            "--x-budget",
            "2",
        ],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 6
    assert all(item["surrogate"] <= 2 for item in obj["items"])


def test_enumerate_budget_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "enumerate",
            "--kind",
            "subgroups",
            "--disc",
            "-4",
            "--ambient",
            "3",
            "--dim",
            "1",
            "--x-budget",
            "40",
            "--budget",
            "10",
        ],
    )
    assert code == 3
    assert "budget exceeded" in err


def test_exact_order_count_of_large_prime_levels(capsys):
    argv = ["enumerate", "--kind", "torsion", "--disc", "-4", "--ambient", "1"]
    argv += ["--exact-order", "--count-only", "--level"]
    p = 10_000_000_000_000_061
    code, out, _ = run_cli(capsys, argv + [str(p)])
    assert code == 0 and json.loads(out)["count"] == p * p - 1
    # 2^89 - 1 passes every Miller-Rabin base but lies above the exact range
    code, out, err = run_cli(capsys, argv + [str(2**89 - 1)])
    assert code == 3 and not out
    assert "budget exceeded: cannot prove" in err


def test_enumerate_has_no_witness_level(capsys):
    # equal kernels at one level do not make two subgroups equal, so there
    # is no witness check to ask for; the listing itself is unchanged
    argv = ["enumerate", "--kind", "subgroups", "--disc", "-7", "--ambient", "2", "--dim", "1"]
    argv += ["--x-budget", "20"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--witness-level", "3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --witness-level 3" in captured.err
    assert "Traceback" not in captured.err
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out)["count"] == 332
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "a5d070c84a41dd919475d787cf84f3d59a2f4fe98f48b63f39ee68ac6ed4fe45"


@pytest.mark.parametrize("kind", ["subgroups", "torsion", "torsion --count-only"])
def test_enumerate_negative_budget_exits_2(capsys, kind):
    # the budget is checked even when --count-only lists nothing
    argv = ["enumerate", "--kind", *kind.split(), "--disc", "-4", "--ambient", "2", "--dim", "1"]
    code, out, err = run_cli(capsys, argv + ["--x-budget", "2", "--level", "2", "--budget", "-5"])
    assert code == 2 and out == ""
    assert "non-negative" in err


def test_enumerate_disc_from_env(capsys, monkeypatch):
    monkeypatch.setenv("TORAN_DISC", "-4")
    code, out, _ = run_cli(
        capsys,
        ["enumerate", "--kind", "torsion", "--ambient", "1", "--level", "2", "--count-only"],
    )
    assert code == 0 and json.loads(out)["disc"] == -4
    monkeypatch.delenv("TORAN_DISC")
    code2, _, err = run_cli(
        capsys,
        ["enumerate", "--kind", "torsion", "--ambient", "1", "--level", "2"],
    )
    assert code2 == 2 and "TORAN_DISC" in err


def test_orthogonal(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("-4 2 1\n1 -1\n")
    code, out, _ = run_cli(capsys, ["orthogonal", "--matrix", str(path), "--text"])
    assert code == 0
    assert out == "-4 2 1\n1 1\n"
    code2, out2, _ = run_cli(capsys, ["orthogonal", "--matrix", str(path)])
    assert json.loads(out2)["complement"]["rows"] == [["1", "1"]]


def test_orthogonal_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("-4 2 1\n1 -1\n"))
    code, out, _ = run_cli(capsys, ["orthogonal", "--matrix", "-", "--text"])
    assert code == 0 and out == "-4 2 1\n1 1\n"


def test_orthogonal_rejects_dependent_rows(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("-4 2 2\n1 1\n1 1\n")
    code, _, err = run_cli(capsys, ["orthogonal", "--matrix", str(path)])
    assert code == 2 and "error:" in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, ["orthogonal", "--matrix", "/no/such/file"])
    assert code == 2 and "error:" in err


_BOUND_ARGS = ["--theorem", "tadimzero_hY0", "--param", "N=3", "--param", "d=1",
               "--param", "hV=2", "--param", "degV=3", "--param", "ktorV=4"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", *_BOUND_ARGS, "--eta", "1/0"],
        ["bounds", *_BOUND_ARGS, "--param", "hV=1/0"],
        ["bounds", *_BOUND_ARGS, "--constant", "c=1/0"],
        ["bounds", "--theorem", "tadimzero_hY0", "--sweep", "{sweep}"],
        ["identities", "--eta", "1/0"],
        ["siegel", "--matrix", "{matrix}", "--constant", "1/0"],
        ["complement", "--matrix", "{matrix}", "--constant", "1/0"],
    ],
    ids=["eta", "param", "constant", "sweep", "identities", "siegel", "complement"],
)
def test_zero_denominator_is_invalid_input(capsys, tmp_path, argv):
    sweep = tmp_path / "rows.csv"
    sweep.write_text("N,d,hV,degV,ktorV\n3,1,1/0,3,4\n")
    matrix = tmp_path / "m.txt"
    matrix.write_text("-4 2 1\n2 3\n")
    argv = [a.format(sweep=sweep, matrix=matrix) for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and not out and "error:" in err


def test_point_with_mismatched_torsions_is_invalid(capsys, tmp_path):
    spec = ModuleSpec(-3, 1, [[1]])
    x = PointInEN.from_rows(spec, [[1], [2], [3]])
    obj = module_spec_to_json_dict(spec, [x])
    obj["points"][0]["torsions"] = ["1"]
    path = tmp_path / "module.json"
    path.write_text(dumps_canonical(obj))
    code, out, err = run_cli(capsys, ["classify", "--module", str(path), "--dim-v", "1"])
    assert code == 2 and not out and "torsions" in err


def test_points_not_a_list_is_invalid(capsys, tmp_path):
    obj = module_spec_to_json_dict(ModuleSpec(-3, 1, [[1]]))
    obj["points"] = 5
    path = tmp_path / "module.json"
    path.write_text(dumps_canonical(obj))
    code, out, err = run_cli(capsys, ["classify", "--module", str(path), "--dim-v", "1"])
    assert code == 2 and not out and "points" in err


def test_siegel(capsys, tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("-4 2 1\n2 3\n")
    code, out, _ = run_cli(capsys, ["siegel", "--matrix", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["solutions"] == [["3", "-2"]]
    assert obj["certificate"]["holds"] is True
    assert obj["certificate"]["achieved_norm"] == 9


@pytest.mark.parametrize("command", ["siegel", "complement"])
@pytest.mark.parametrize("constant", ["-8", "0"])
def test_nonpositive_constant_exits_2(capsys, tmp_path, command, constant):
    # with n - m = 2, c = -8 would square to the certificate of c = 8
    path = tmp_path / "sys.txt"
    path.write_text("-4 3 1\n2 3 5\n")
    code, out, err = run_cli(capsys, [command, "--matrix", str(path), f"--constant={constant}"])
    assert code == 2 and not out
    assert err == f"error: need a positive constant, got {constant}\n"


def test_siegel_box_search_replaces_the_basis(capsys, tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("-3 4 1\n3 1+1*w 2 5\n")
    argv = ["siegel", "--matrix", str(path), "--constant", "1/1000"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["solutions"] == [["-1", "0", "-1", "1"]]
    code, out, _ = run_cli(capsys, [*argv, "--no-box-fallback"])
    assert code == 0
    assert json.loads(out)["solutions"] == [["1", "0", "1", "-1"]]


def test_complement(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("-4 2 1\n1 0\n")
    code, out, _ = run_cli(capsys, ["complement", "--matrix", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["matrix"]["r"] == 2
    assert obj["certificate"]["holds"] is True


# One call of each JSON subcommand, pinned by the SHA-256 of its stdout.  The
# pins were taken when json.dumps still wrote the output, so they hold the
# one-pass writer to the same bytes.
JSON_PINS = {
    "classify": (
        ["classify", "--module", "{module}", "--dim-v", "1"],
        "cab9241a95797df6c6cc96ef512e5cb1fff8a78694f8deda927a530ed4727b5b",
    ),
    "reduce": (
        ["reduce", "--module", "{module}", "--multipliers", "1,1+1*w,1"],
        "d02b1e6280cb40c0b9056c914d99af04c241a0bba9e532e021aca8478b5e521b",
    ),
    "lift": (
        ["lift", "--module", "{module}"],
        "cbec4864b6ec774c11d6aeba9d40af4443bb73dde18bb36a564d7922879b7f0e",
    ),
    "orthogonal": (
        ["orthogonal", "--matrix", "{matrix}"],
        "c834e22c31079c1e6a7716610305d9dd60e4fb4b20b0f9b726a3e43d9cc778e1",
    ),
    "siegel": (
        ["siegel", "--matrix", "{matrix}"],
        "5caa816486cba5c91c2578f0c231f5c9117a80d95279a08aea50ed3197f8cd54",
    ),
    "complement": (
        ["complement", "--matrix", "{matrix}"],
        "bdbc87fb409816a7513654af2ea71c88992bcaa735b04dc789e6176cc1029b8a",
    ),
    "enumerate-torsion": (
        ["enumerate", "--kind", "torsion", "--disc", "-3", "--ambient", "1", "--level", "3"],
        "b7158c924ad7804becd139686366c313bacdf03cf1922fc18be6c811719d6d1c",
    ),
    "enumerate-subgroups": (
        ["enumerate", "--kind", "subgroups", "--disc", "-8", "--ambient", "2", "--dim", "1"]
        + ["--x-budget", "6"],
        "6f827144768b8b6324bc0ec36422db73a4fab6cb3e3112ff33176c16c1a2ddbc",
    ),
    "bounds": (
        ["bounds", "--theorem", "teoremone_i", "--eta", "1/7", "--param", "N=4"]
        + ["--param", "hV=3", "--param", "degV=5", "--param", "ktorV=7", "--param", "kV=11"],
        "36cc35b7f78d6a49172b953cdc3e4dfb1ff2aa1aa862cc855168f66f7870e80c",
    ),
    "identities": (
        ["identities"],
        "021249715d39d3c8f3b9237e962fc255ec47f2ca117dfb385dfd47c68571c673",
    ),
}


@pytest.mark.parametrize("name", list(JSON_PINS))
def test_json_output_pinned(capsys, tmp_path, name):
    spec = ModuleSpec(-4, 1, [[1]])
    module = write_module(tmp_path, spec, [PointInEN.from_rows(spec, [[1], [(1, 1)], [2]])])
    matrix = tmp_path / "m.txt"
    matrix.write_text("-7 3 1\n2 1-1*w 3\n")
    argv, pin = JSON_PINS[name]
    argv = [a.format(module=module, matrix=matrix) for a in argv]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pin


# A 1 x 10 system over Z[i]: its kernel lattice has dimension 18, above any
# the siegel workload builds.  The pins were taken when the LLL re-ran the
# whole Gram-Schmidt after every size-reduction step.
WIDE_SYSTEM = (
    "-4 10 1\n"
    "-1+2*w 7-9*w 5-2*w -8-4*w -6+2*w 6-2*w 3+8*w -6+9*w -2-9*w -3+4*w\n"
)


WIDE_PINS = {
    "siegel": "9104f41fa4fcba2c42ce055c97030de61c672531e3ca756c0b40492bc5f63275",
    "complement": "cfbd5c3aecae7070b7a413594563e8ff7a5157344f8dcb9cfe275e8022f0b2f6",
}


# The 1 x 20 system over Z[i] of ROADMAP item 7: its kernel lattice has
# dimension 38.  The pins were taken when the LLL re-ran the whole
# Gram-Schmidt after every swap, which took about 17 s per command.
SYSTEM_1X20 = (
    "-4 20 1\n"
    "1+6*w -8+8*w -6-9*w -8+0*w -7-6*w -7+1*w 8-0*w 9+3*w 9+9*w 9-0*w"
    " -2+8*w -5-6*w -5+9*w 0+1*w 9+5*w -6+9*w -8+7*w 8-5*w 5-5*w 0+2*w\n"
)


PINS_1X20 = {
    "siegel": "5dbb4b1b28da33262e6a00d7623b4347d20205cfed1334c6746813552d4c283f",
    "complement": "50f24c7e8c9a93ec9b6d1917c40fec4527bfa55377baaeaa705eeab52b99cb1a",
}


def _system_output_digest(capsys, tmp_path, system, command):
    path = tmp_path / "sys.txt"
    path.write_text(system)
    code, out, _ = run_cli(capsys, [command, "--matrix", str(path)])
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("command", list(WIDE_PINS))
def test_wide_system_output_pinned(capsys, tmp_path, command):
    digest = _system_output_digest(capsys, tmp_path, WIDE_SYSTEM, command)
    assert digest == WIDE_PINS[command]


@pytest.mark.parametrize("command", list(PINS_1X20))
def test_dimension_38_output_pinned(capsys, tmp_path, command):
    digest = _system_output_digest(capsys, tmp_path, SYSTEM_1X20, command)
    assert digest == PINS_1X20[command]


# What an installer-generated console script does with its entry point; the
# entry's "module:attr" value arrives as argv[1] and is dropped from argv.
_CONSOLE_SCRIPT_LAUNCHER = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint(name="toran", value=sys.argv.pop(1), group="console_scripts").load()
sys.argv[0] = "toran"
sys.exit(main())
"""


def _declared_console_script():
    """The ``toran`` entry of ``[project.scripts]`` in this checkout."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["toran"]


def test_console_script_smoke(tmp_path):
    """The declared ``toran`` console script runs and propagates exit codes.

    The entry point is launched in a fresh interpreter against the imported
    checkout, so no install is needed; an installed ``toran`` on PATH is run
    as well.
    """
    src = str(Path(toran.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    launchers = [
        [sys.executable, "-c", _CONSOLE_SCRIPT_LAUNCHER, _declared_console_script()]
    ]
    exe = shutil.which("toran")
    if exe is not None:
        launchers.append([exe])

    def run(launcher, *args):
        return subprocess.run(
            [*launcher, *args],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=tmp_path,
            env=env,
        )

    for launcher in launchers:
        proc = run(launcher, "identities", "--max-n", "4")
        assert proc.returncode == 0, proc.stderr
        assert all(entry["holds"] for entry in json.loads(proc.stdout).values())
        # main's return value must become the process exit code
        bad = run(launcher, "bounds")
        assert bad.returncode == 2, bad.stderr


def test_module_main_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "toran.cli", "bounds", "--theorem", "kappa", "--param", "g0=1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "32"
