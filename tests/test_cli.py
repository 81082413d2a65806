import hashlib
import json
import time
from fractions import Fraction

import pytest

from supconvex import (
    concave_envelope,
    function_payload,
    make_extremal,
    make_random,
    save_function,
    sup_convolve_n,
    sup_convolve_pair,
)
from supconvex import cli
from supconvex._rational import format_rat, parse_rat
from supconvex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_constants_json(capsys):
    code, payload = run_json(capsys, "constants", "--k", "2", "--n", "3")
    assert code == 0
    assert payload["descent_sum"] == "5/9"
    assert payload["power_sum"] == "5/9"
    assert payload["closed_form"] == "5/9"
    assert payload["worpitzky_ok"] is True
    assert payload["sharp"] is True
    assert payload["rate_conjectured"] == "3/2"
    assert payload["rate_covering"] == "4"


def test_constants_csv(capsys):
    code, out = run(capsys, "constants", "--k", "2", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "descent_sum,5/9" in lines


def test_classify(capsys):
    code, payload = run_json(
        capsys, "classify", "--k", "2", "--n", "2", "--point", "1/2,1/4,1/4"
    )
    assert code == 0
    assert payload["m"] == 1
    assert payload["shift"] == [1, 0, 0]
    assert payload["on_boundary"] is True


def test_envelope_and_supconv_round_trip(capsys, tmp_path):
    f = make_random(2, 4, seed=9)
    path = tmp_path / "f.json"
    save_function(f, path)

    code, payload = run_json(
        capsys, "envelope", "--input", str(path), "--certificates"
    )
    assert code == 0
    expected = function_payload(concave_envelope(f).envelope)
    assert payload["envelope"] == expected
    assert len(payload["certificates"]) == len(f.lattice)

    code, payload = run_json(capsys, "supconv", "--input", str(path), "--n", "2")
    assert code == 0
    assert payload == function_payload(sup_convolve_n(f, 2))

    code, payload = run_json(capsys, "supconv", "--pair", str(path), str(path))
    assert code == 0
    assert payload == function_payload(sup_convolve_pair(f, f))


def test_verify_t1_passes(capsys, tmp_path):
    path = tmp_path / "ext.json"
    save_function(make_extremal(1, 2), path)
    code, payload = run_json(capsys, "verify-t1", "--input", str(path), "--n", "2")
    assert code == 0
    assert payload["verdict"] == "pass"
    assert payload["ratio"] == "1"
    assert payload["constant"] == "1/2"


def test_verify_t4_adversarial_fails(capsys, tmp_path):
    # f has a unit envelope gap; g is too negative for two-point
    # witnesses at this resolution, an honest discretization failure.
    f_path = tmp_path / "f.json"
    g_path = tmp_path / "g.json"
    from supconvex import lattice, sampled_function

    lat = lattice(1, 2)
    save_function(sampled_function(lat, [0, -1, 0]), f_path)
    save_function(sampled_function(lat, [-1, 0, -1]), g_path)
    code, payload = run_json(
        capsys, "verify-t4", "--f", str(f_path), "--g", str(g_path)
    )
    assert code == 2
    assert payload["verdict"] == "fail"
    assert payload["lhs"] == "0"
    assert payload["rhs"] == "1/3"


def test_usage_errors(capsys):
    assert main(["classify", "--k", "2", "--n", "2"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    f_err = capsys.readouterr().err
    assert "error" in f_err


def test_supconv_flag_conflicts(capsys, tmp_path):
    path = tmp_path / "f.json"
    save_function(make_extremal(1, 2), path)
    assert main(["supconv", "--pair", str(path), str(path), "--n", "2"]) == 1
    assert main(["supconv", "--input", str(path)]) == 1
    capsys.readouterr()


def test_domain_errors_exit_1(capsys):
    assert main(["constants", "--k", "0", "--n", "2"]) == 1
    assert main(["envelope", "--input", "/nonexistent/f.json"]) == 1
    capsys.readouterr()


def test_oversized_function_file_exits_1_fast(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"k": 6, "N": 1000, "values": []}))
    start = time.perf_counter()
    assert main(["envelope", "--input", str(path)]) == 1
    assert time.perf_counter() - start < 1
    assert "rows" in capsys.readouterr().err


def test_oversized_sizes_exit_1_fast(capsys, tmp_path):
    # Every case is over a cap.  The 861-point file is big enough that an
    # uncapped envelope sweep before the DP size check would take seconds;
    # the 5151-point file is over the envelope cap only, and its DP alone
    # would take seconds if it ran before the envelope cap was checked.
    path = tmp_path / "f.json"
    save_function(make_random(2, 40, seed=1), path)
    big = tmp_path / "big.json"
    save_function(make_random(2, 100, seed=1), big)
    for argv in (
        ["supconv", "--input", str(path), "--n", "1000000"],
        ["verify-t1", "--input", str(path), "--n", "1000000"],
        ["extremal", "--k", "3", "--N", "100000"],
        ["random", "--k", "6", "--N", "1000"],
        ["envelope", "--input", str(big)],
        ["verify-t1", "--input", str(big), "--n", "2"],
        ["verify-t4", "--f", str(big), "--g", str(big)],
        ["subdivide", "--k", "2", "--n", "3000"],
        ["extremal", "--k", "3", "--n", "1000"],
    ):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1
        assert "cap" in capsys.readouterr().err


def test_oversized_closures_exit_1_fast(capsys):
    # Uncapped, (2, 3, 2) would build 7,966,506 blends in one round and
    # (3, 2, 2) 2,655,270; the cap refuses each before that round starts.
    for k, n in ((2, 3), (3, 2)):
        start = time.perf_counter()
        assert main(["cover", "--k", str(k), "--n", str(n), "--max-level", "2"]) == 1
        assert time.perf_counter() - start < 2
        assert "blends (cap" in capsys.readouterr().err


def test_oversized_constants_exit_1_fast(capsys):
    # Uncapped, the first sums 10**9 sixth powers and the second sums
    # 3000 Eulerian numbers, each an alternating sum of 3000th powers.
    for argv in (
        ["constants", "--k", "6", "--n", "1000000000"],
        ["constants", "--k", "3000", "--n", "2"],
    ):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_svg_without_k2_exits_1_before_listing_cells(capsys, tmp_path):
    # k = 3, n = 60 has 108,030 cells, listed in over a second.
    svg_path = tmp_path / "cells.svg"
    start = time.perf_counter()
    assert main(["subdivide", "--k", "3", "--n", "60", "--svg", str(svg_path)]) == 1
    assert time.perf_counter() - start < 1
    assert not svg_path.exists()
    assert capsys.readouterr().err == "error: --svg requires --k 2\n"


def test_closure_over_budget_stops_within_its_blend_round(capsys):
    # Level 2 of (3, 4) starts from 640 corner translates, so its first
    # blend round alone would build 408,960 blends; the default budget
    # stops it within that round.
    start = time.perf_counter()
    code, payload = run_json(capsys, "cover", "--k", "3", "--n", "4", "--max-level", "2")
    assert time.perf_counter() - start < 2
    assert code == 2
    assert payload["truncated"] is True and payload["found"] is False


def test_cover_budget_below_one_exits_1(capsys):
    # The root translate alone passes such a budget, so no closure is
    # built; --budget 1 keeps its pinned truncation (exit 2).
    for budget in ("0", "-1"):
        code = main(["cover", "--k", "2", "--n", "2", "--max-level", "1", "--budget", budget])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: budget must be >= 1, got {budget}\n"


def test_out_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "payload.json"
    code, shown = run(
        capsys, "constants", "--k", "1", "--n", "2", "--out", str(out)
    )
    assert code == 0
    assert shown == ""
    assert json.loads(out.read_text())["descent_sum"] == "1/2"


def test_random_matches_library(capsys):
    code, payload = run_json(
        capsys, "random", "--k", "2", "--N", "6", "--seed", "1"
    )
    assert code == 0
    assert payload == function_payload(make_random(2, 6, seed=1))


def test_random_roughness_flag(capsys):
    code, payload = run_json(
        capsys, "random", "--k", "1", "--N", "4", "--seed", "3", "--roughness", "0"
    )
    assert code == 0
    assert all(row[-2] == 0 for row in payload["values"])


def test_averageable(capsys):
    code, payload = run_json(
        capsys, "averageable", "--k", "2", "--m", "2", "--trials", "2"
    )
    assert code == 0
    assert payload["passed"] is True
    assert payload["jacobian"] == "1/4"

    code, payload = run_json(capsys, "averageable", "--medial", "--trials", "2")
    assert code == 0
    assert payload["jacobian"] == "1/4"

    assert main(["averageable", "--k", "4", "--m", "2"]) == 1
    assert main(["averageable", "--k", "2"]) == 1
    capsys.readouterr()


def test_averageable_ignores_trials_and_seed(capsys):
    # The transport check is exact, so --trials and --seed change nothing.
    outputs = set()
    for extra in (
        ["--trials", "1"],
        ["--trials", "160"],
        ["--trials", "0"],
        ["--seed", "3"],
        ["--seed", "7"],
    ):
        code, out = run(capsys, "averageable", "--k", "2", "--m", "2", *extra)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_cover_found(capsys):
    code, payload = run_json(capsys, "cover", "--k", "1", "--n", "2", "--max-level", "1")
    assert code == 0
    assert payload["found"] is True
    cert = payload["certificate"]
    assert cert["count"] == 2
    assert cert["derived_constant"] == "1/4"


def test_cover_not_found_exits_2(capsys):
    # budget 1 truncates the closure to the three corner translates,
    # which provably miss the barycenter
    code, payload = run_json(
        capsys, "cover", "--k", "2", "--n", "2", "--max-level", "1", "--budget", "1"
    )
    assert code == 2
    assert payload["found"] is False
    assert payload["truncated"] is True


def test_cover_traces_replayable(capsys):
    code, payload = run_json(
        capsys, "cover", "--k", "1", "--n", "2", "--max-level", "1", "--traces"
    )
    assert code == 0
    for entry in payload["certificate"]["family"]:
        assert entry["derivation"][0] in ("root", "corner", "blend")


def test_subdivide_with_svg(capsys, tmp_path):
    svg_path = tmp_path / "cells.svg"
    code, payload = run_json(
        capsys, "subdivide", "--k", "2", "--n", "2", "--svg", str(svg_path)
    )
    assert code == 0
    assert payload["cell_count"] == 4
    svg = svg_path.read_text()
    assert svg.count('class="up"') == 3
    assert svg.count('class="down"') == 1

    assert main(["subdivide", "--k", "1", "--n", "2", "--svg", str(svg_path)]) == 1
    capsys.readouterr()


def test_extremal_profile_payload(capsys):
    code, payload = run_json(capsys, "extremal", "--k", "2", "--n", "2")
    assert code == 0
    assert payload["ratio"] == "3/8"
    assert payload["per_m"][0]["m"] == 1

    code, payload = run_json(capsys, "extremal", "--k", "1", "--N", "4")
    assert code == 0
    assert len(payload["values"]) == 5
    assert Fraction(payload["values"][1][-2], payload["values"][1][-1]) == -1

    assert main(["extremal", "--k", "2"]) == 1
    capsys.readouterr()


def test_extremal_grid_payload(capsys):
    code, payload = run_json(
        capsys, "extremal", "--k", "2", "--N", "12", "--grid-n", "2"
    )
    assert code == 0
    assert payload["ratio"] == "3/8"
    assert len(payload["cells"]) == 4

    assert main(["extremal", "--k", "2", "--grid-n", "2"]) == 1
    capsys.readouterr()


def test_global_flags_before_subcommand(capsys, tmp_path):
    out = tmp_path / "o.json"
    code, shown = run(
        capsys, "--out", str(out), "constants", "--k", "1", "--n", "2"
    )
    assert code == 0
    assert shown == ""
    assert json.loads(out.read_text())["k"] == 1


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    assert main(["constants", "--k", "1", "--n", "2"]) == 0
    assert main(["random", "--k", "1", "--N", "3"]) == 0
    assert main(["no-such-command"]) == 1
    assert main(["--format", "csv", "constants", "--k", "2", "--n", "2"]) == 0
    capsys.readouterr()
    # one top-level parser plus one subparser per subcommand, all from
    # the first call
    assert built.count("supconvex") == 1
    assert len(built) == 1 + len(cli._COMMANDS)
    assert cli._build_parser.cache_info().misses == 1


def test_reused_parser_prints_json_after_csv_to_file(capsys, tmp_path):
    out = tmp_path / "payload.csv"
    argv = ["constants", "--k", "1", "--n", "2"]
    code, shown = run(capsys, *argv, "--format", "csv", "--out", str(out))
    assert code == 0
    assert shown == ""
    assert out.read_text().startswith("key,value\n")
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["descent_sum"] == "1/2"


@pytest.mark.parametrize("literal", ["1/0", "1e99999999", "1e-99999999", " 1E+4301 "])
def test_bad_rational_arguments_fail_fast_with_one_error_line(capsys, tmp_path, literal):
    path = tmp_path / "f.json"
    save_function(make_random(1, 3, seed=1), path)
    for argv in (
        ["classify", "--k", "2", "--n", "3", "--point", f"{literal},1/2,1/2"],
        ["random", "--k", "2", "--N", "3", "--roughness", literal],
        ["verify-t1", "--input", str(path), "--n", "2", "--tol-rel", literal],
        ["verify-t1", "--input", str(path), "--n", "2", "--tol-abs", literal],
    ):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (1, "") and elapsed < 1, (argv, code, elapsed)
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("text", ["1/2", " 1/2 ", "0.25", "3", "1e-3", "-7/4", "2.5E+2", "1e4300"])
def test_rational_literals_parse_as_before(text):
    assert parse_rat(text) == Fraction(text)


@pytest.mark.parametrize("roughness", [Fraction(1, 4), 0.25, "0.25", "1/4", " 25e-2"])
def test_roughness_of_every_type_parses_as_before(roughness):
    assert make_random(2, 5, seed=3, roughness=roughness) == make_random(2, 5, seed=3, roughness="1/4")
    assert make_random(2, 5, seed=3, roughness=1) == make_random(2, 5, seed=3, roughness="1")


def test_usage_error_leaves_the_reused_parser_clean(capsys):
    argv = ["random", "--k", "2", "--N", "4"]
    cli._build_parser.cache_clear()
    # each fails after argparse has already taken some values
    assert main(["--seed", "9", "--format", "csv", *argv, "--bogus"]) == 1
    assert main([*argv, "--seed", "x"]) == 1
    assert main(["--out", "unused.json", *argv, "--roughness"]) == 1
    assert main(["--format", "xml", *argv]) == 1
    capsys.readouterr()
    assert main(argv) == 0
    after_errors = capsys.readouterr().out
    cli._build_parser.cache_clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == after_errors


def test_common_flag_before_subcommand_does_not_carry_over(capsys, tmp_path):
    argv = ["random", "--k", "2", "--N", "4"]
    code, payload = run_json(capsys, "--seed", "7", *argv)
    assert code == 0
    assert payload == function_payload(make_random(2, 4, seed=7))
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload == function_payload(make_random(2, 4, seed=1))

    out = tmp_path / "o.csv"
    code, shown = run(capsys, "--format", "csv", "--out", str(out), *argv)
    assert code == 0
    assert shown == ""
    assert out.read_text().startswith("key,value\n")
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload == function_payload(make_random(2, 4, seed=1))


# One invocation of every subcommand; "r2", "g2", "r3" and "x2" name
# the function files that _subcommand_argvs writes.
SUBCOMMAND_ARGVS = [
    ["constants", "--k", "3", "--n", "4"],
    ["subdivide", "--k", "2", "--n", "3"],
    ["classify", "--k", "2", "--n", "3", "--point", "1/2,1/3,1/6"],
    ["envelope", "--input", "r2"],
    ["envelope", "--input", "r3", "--certificates"],
    ["supconv", "--input", "r2", "--n", "3"],
    ["supconv", "--input", "r3", "--n", "3"],
    ["supconv", "--pair", "r2", "g2"],
    ["verify-t1", "--input", "r2", "--n", "4"],
    ["verify-t4", "--f", "r2", "--g", "g2"],
    ["verify-t1", "--input", "x2", "--n", "2"],
    ["averageable", "--k", "2", "--m", "2"],
    ["averageable", "--medial"],
    ["cover", "--k", "2", "--n", "2", "--max-level", "1", "--traces"],
    ["cover", "--k", "2", "--n", "3", "--max-level", "1", "--budget", "5"],
    ["extremal", "--k", "2", "--N", "10", "--grid-n", "3"],
    ["extremal", "--k", "3", "--n", "4"],
    ["extremal", "--k", "2", "--N", "5"],
    ["random", "--k", "1", "--N", "7", "--roughness", "1/2"],
]

# sha256 of stdout for each of SUBCOMMAND_ARGVS, with --format json and
# with --format csv.
SUBCOMMAND_SHA256 = {
    "constants --k 3 --n 4": (
        "c4cd687fd5cea8750f4c30d0c982c4c010c5d66aadd722884066091d3d533669",
        "b467fee4c11952279d40ecdd58c9e9bf3ed3b30833c16c65fc0c198a2582f030",
    ),
    "subdivide --k 2 --n 3": (
        "57ff9aef3cb280d7b30ae2c2ad595d507de26a35f3ce74d6521ae91a3ca44661",
        "37b45dac671744ac5b4543c1f85e1ccaecd3ab13d3798985ca04ef7dd17a3f42",
    ),
    "classify --k 2 --n 3 --point 1/2,1/3,1/6": (
        "b9aad7b47bedb3359603f7cd12546d3da0bb83c44dc2906b2927db847281bf5b",
        "65d5f666387dcd3c508286a1b8eee4d6a01eb6695e74f8fa47f51efaaa0c803b",
    ),
    "envelope --input r2": (
        "59fba3b861e3de249263f827e95a3129435de62cd7a90391b33395258133811c",
        "578503a13145e56a44edeb4db4da3e4ce02155a7fc848c594cc1433b21dde24e",
    ),
    "envelope --input r3 --certificates": (
        "75743344f8f65a178bd70032e51aa64714519c9abc5c703c962e3ee246de801d",
        "ade4e6e59a4c1d4cc547b58e5403a75abde263e1058a776e970db8a3404a032c",
    ),
    "supconv --input r2 --n 3": (
        "0db6dd8776900b5532e6d4ef74408dc1f7b0a434cbc615902ec22273b1568812",
        "bebd863f884452913348afb66b6d6e3c68e8aa07afc14dc53ae254c077d5b947",
    ),
    "supconv --input r3 --n 3": (
        "5b78cfb0c31e34d307b0bee80a5efb6d813587cc66e7bf8be531b38ffd732725",
        "d94cec1801d7a202a789f3a66964e7b8a80d2c21bbc92a42ba98370b9ccea5f2",
    ),
    "supconv --pair r2 g2": (
        "ca05178aeecbcf928d330857f5b6e5fed39fff2e5307514f536701695dcc9d7a",
        "44b4d730963c1fccd4350a04d77bcd0019c7296f9aa05965d65af0a48e23e6f2",
    ),
    "verify-t1 --input r2 --n 4": (
        "97c3244af3f9ee74b7c686581a68bc076d62b86c0486c7c4c77c99efb360c1e4",
        "10faa6f61a8d387a18295cc34cb7600f0ceb777cd58aefd25e2262cabb5d1aee",
    ),
    "verify-t4 --f r2 --g g2": (
        "7f287ed04c38d169b5d77603b746b55ef133b317dd571b9c8c1f80fb43ec76c5",
        "7d3cb08550984822d211633b6612aaa825da198b89c425c128b46274b2cfa5eb",
    ),
    "verify-t1 --input x2 --n 2": (
        "79e82b095e77134af85f99186ee065a43be72e0cfd2ab03486333d7187955959",
        "99a9002007497c5a94a4811377219db44bd5547f5f38ee3a03455f1e7e84ecf4",
    ),
    "averageable --k 2 --m 2": (
        "3421cb6937ace55e99305d452dd8ab96a0cb496bbb90a608d8f6d452588bdbe7",
        "c73f4ee2d3d0732e6f8e2c317bb68e193fc6f6b9851ef7e558aecd0f63c3ebab",
    ),
    "averageable --medial": (
        "f91e40a7fabf947691eb7b41727239aa53fdfe4809da84acc1e46aec9aa95845",
        "5dac7b9c64e1f9005aa9b212f6973247f26742556181f5b703ef4b16413e4397",
    ),
    "cover --k 2 --n 2 --max-level 1 --traces": (
        "2646dee9f9ae745cd352708b78439b815f06d89a03e418ccc844d7157734e920",
        "746c9d8e43c9eb70b40a5d340d50b7fa98be6e4769d3fb04e36188e624aefb74",
    ),
    "cover --k 2 --n 3 --max-level 1 --budget 5": (
        "50735289a44eec73d7e78f7856f0587e1018ef265b5bcdb533a94fd22930e567",
        "dff125bac258b71e253bc5e2cf7843e1cda57246b11a9e0d2452503614465180",
    ),
    "extremal --k 2 --N 10 --grid-n 3": (
        "97d0ca9f597a093ee11cf538a908d4701431a79caf8792b6aeaf992e91c8d00c",
        "70fd8b7a6cb949a3e5d4608baaff8dc796aab05d89767be5a88b4c0d57463811",
    ),
    "extremal --k 3 --n 4": (
        "0b076c28c96b7f010b1dbb22161aea8613014c2a2de49ca31a722e8d0db90537",
        "8804f867c581492b637e25598dcc0fa3e1cad22b4201f9ab26173b927639c954",
    ),
    "extremal --k 2 --N 5": (
        "b1534fd9986c302ed151e450afc715c8ac3dac3a72e1948fbc6f1fa2fc7dc50b",
        "b2918a7ea6df1a57da35616bc13f2962c35d770ba3825ad23e69b698bb011c5e",
    ),
    "random --k 1 --N 7 --roughness 1/2": (
        "ed8ac4c7437537c83a4e11aa56da40697fc366d367cd4c38871b3d514e097d4f",
        "8dad12dcc8236741f96d2567d1c6337ff7d814913ae5970b9d75620bd28d4a24",
    ),
}


def _subcommand_argvs(tmp_path):
    functions = {
        "r2": make_random(2, 10, seed=3),
        "g2": make_random(2, 10, seed=5, roughness=Fraction(1, 2)),
        "r3": make_random(3, 8, seed=4),
        "x2": make_extremal(2, 6),
    }
    paths = {}
    for name, f in functions.items():
        paths[name] = str(tmp_path / f"{name}.json")
        save_function(f, paths[name])
    assert {argv[0] for argv in SUBCOMMAND_ARGVS} == set(cli._COMMANDS)
    return [(" ".join(argv), [paths.get(a, a) for a in argv]) for argv in SUBCOMMAND_ARGVS]


def test_every_subcommand_prints_pinned_bytes(capsys, tmp_path):
    for key, argv in _subcommand_argvs(tmp_path):
        digests = []
        for fmt in ("json", "csv"):
            code, out = run(capsys, *argv, "--format", fmt)
            assert code in (0, 2), key
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(digests) == SUBCOMMAND_SHA256[key], key


def test_json_writer_matches_json_dumps_on_every_subcommand(capsys, tmp_path):
    for _, argv in _subcommand_argvs(tmp_path):
        args = cli._build_parser().parse_args(argv)
        payload, _ = cli._COMMANDS[args.command](args)
        expected = json.dumps(payload, indent=2, sort_keys=True, default=format_rat) + "\n"
        assert cli._json_text(payload) + "\n" == expected
        code, out = run(capsys, *argv)
        assert code in (0, 2) and out == expected


def test_json_writer_edge_cases():
    cases = [
        {}, [], None, True, False, 0, -7, 10**60, -(10**45), "", "plain",
        "naïve ☃   \"quoted\" \\ \n\t", {"é": "ü", "a": None},
        {"b": [], "a": {}, "c": [None, True, False]},
        [[1, -2, 3], [4, 5, -(10**30)]], [[1, 2], [3]], [[], []], [[1, True], [2, 3]],
        [[1, 2], (3, 4)], ([1, 2], [3, 4]), [[1, 2], [3, "4"]], [[[1]], [[2]]],
        [1.5, float("inf"), -0.0], {"x": {"y": {"z": [[0, 0], [1, 1]]}}},
        {1: "int key"}, {"nested": {2: [1, 2], 1: "a"}},
        Fraction(3), Fraction(-7, 2), [Fraction(1, 3), 2, (Fraction(-5), "x")],
        ((1, 2), (3, 4)), (((1,), (2,)), ()), {"a": ((0, Fraction(1, 2)), [(1, 2)])},
        {1: Fraction(2, 3), 2: {3: (Fraction(-1, 4),)}},
    ]
    for payload in cases:
        expected = json.dumps(payload, indent=2, sort_keys=True, default=format_rat)
        assert cli._json_text(payload) == expected, payload
    # Only rationals are rendered; any other unknown leaf still raises.
    for payload in (object(), [{1, 2}], {"x": {1: object()}}):
        with pytest.raises(AttributeError):
            cli._json_text(payload)
