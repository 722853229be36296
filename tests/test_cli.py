import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from choiscope.channels import Channel
from choiscope.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, main
from choiscope.serialization import parse_text

from conftest import FIXTURES, GOLDEN_RUNS, fixture_argv, large_kraus_set

GOLDEN = Path(__file__).parent / "golden"


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, (out.read_text(encoding="utf-8") if out.exists() else None)


def golden_rows(*verbs):
    return [row for row in GOLDEN_RUNS if row[0][0] in verbs]


def check_golden(tmp_path, golden):
    """Run the GOLDEN_RUNS row of ``golden`` in-process and compare its output."""
    argv, code = next((a, c) for a, g, c in GOLDEN_RUNS if g == golden)
    got_code, text = run(tmp_path, *fixture_argv(argv))
    assert got_code == code
    assert text == (GOLDEN / golden).read_text(encoding="utf-8")


def test_golden_runs_cover_every_golden():
    goldens = [golden for _, golden, _ in GOLDEN_RUNS]
    assert sorted(goldens) == sorted(p.name for p in GOLDEN.iterdir())
    covered = golden_rows("inspect", "convert", "compose", "tensor", "gen", "bsa")
    assert len(covered) == len(GOLDEN_RUNS)


# Each golden test below runs its verbs' rows of GOLDEN_RUNS; the parameters
# besides ``golden`` name the cases.
@pytest.mark.parametrize("fixture,golden,code",
                         [(argv[1], golden, code) for argv, golden, code in golden_rows("inspect")])
def test_inspect_golden(tmp_path, fixture, golden, code):
    check_golden(tmp_path, golden)


def test_inspect_identity_facts():
    report = json.loads((GOLDEN / "inspect_identity2.json").read_text())
    assert report["completely_positive"] is True
    assert report["choi_trace"] == 2
    transpose = json.loads((GOLDEN / "inspect_transpose2.json").read_text())
    assert transpose["completely_positive"] is False
    assert abs(transpose["min_choi_eigenvalue"] + 1) < 1e-10


@pytest.mark.parametrize("fixture,target,golden",
                         [(argv[1], argv[2], golden) for argv, golden, _ in golden_rows("convert")])
def test_convert_golden(tmp_path, fixture, target, golden):
    check_golden(tmp_path, golden)


@pytest.mark.parametrize("argv,golden",
                         [(argv, golden) for argv, golden, _ in golden_rows("compose", "tensor", "gen")])
def test_combine_and_gen_golden(tmp_path, argv, golden):
    check_golden(tmp_path, golden)


def test_convert_choi_to_kraus_decomposes_once(tmp_path, monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    src = GOLDEN / "convert_random_cp4x4_choi.json"
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    code, text = run(tmp_path, "convert", str(src), "kraus")
    monkeypatch.undo()
    assert code == EXIT_OK
    assert len(calls) == 1
    D = parse_text(src.read_text(encoding="utf-8")).to_channel().choi
    ops = parse_text(text).to_channel().kraus_operators()
    assert np.max(np.abs(Channel.from_kraus(ops).choi - D)) < 1e-12


def test_convert_large_entry_choi_to_kraus(tmp_path):
    from choiscope.serialization import dump_channel
    src = tmp_path / "large.json"
    src.write_text(dump_channel(Channel.from_kraus(large_kraus_set(18)), "choi"),
                   encoding="utf-8")
    code, text = run(tmp_path, "convert", str(src), "kraus")
    assert code == EXIT_OK
    assert parse_text(text).kind == "kraus"


def test_convert_chain_matches_direct(tmp_path):
    src = str(FIXTURES / "random_cp2.json")
    _, liou = run(tmp_path, "convert", src, "liouville", name="a.json")
    (tmp_path / "liou.json").write_text(liou, encoding="utf-8")
    _, chained = run(tmp_path, "convert", str(tmp_path / "liou.json"), "choi",
                     name="b.json")
    _, direct = run(tmp_path, "convert", src, "choi", name="c.json")
    D1 = parse_text(chained).to_channel().choi
    D2 = parse_text(direct).to_channel().choi
    assert np.max(np.abs(D1 - D2)) < 1e-8


def test_convert_kraus_round_trip(tmp_path):
    code, text = run(tmp_path, "convert", str(FIXTURES / "identity2.json"),
                     "kraus")
    assert code == EXIT_OK
    ops = parse_text(text).to_channel().kraus_operators()
    assert len(ops) == 1
    assert np.allclose(ops[0] @ ops[0].conj().T, np.eye(2), atol=1e-10)


def test_convert_transpose_to_kraus_fails(tmp_path):
    code, text = run(tmp_path, "convert", str(FIXTURES / "transpose2.json"),
                     "kraus")
    assert code == EXIT_INVALID
    assert text is None


@pytest.mark.parametrize("fixture,golden",
                         [(argv[1], golden) for argv, golden, _ in golden_rows("bsa")])
def test_bsa_golden(tmp_path, fixture, golden):
    check_golden(tmp_path, golden)


def test_bsa_values():
    singlet = json.loads((GOLDEN / "bsa_singlet.json").read_text())
    assert singlet["lambda_total"] == 0.0
    mixed = json.loads((GOLDEN / "bsa_maxmixed.json").read_text())
    assert mixed["lambda_total"] >= 0.99
    assert mixed["residual_min_eigenvalue"] >= -1e-8


def test_bsa_requires_seed(tmp_path):
    code, _ = run(tmp_path, "bsa", str(FIXTURES / "maxmixed.json"))
    assert code == EXIT_IO


def test_bsa_operation_local_unitary(tmp_path):
    theta = 0.3
    U = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]], dtype=complex)
    ch = Channel.from_kraus([np.kron(U, U)])
    from choiscope.serialization import dump_channel
    src = tmp_path / "local.json"
    src.write_text(dump_channel(ch, "kraus"), encoding="utf-8")
    code, text = run(tmp_path, "bsa", str(src), "--operation",
                     "--seed", "0", "--budget", "50")
    assert code == EXIT_OK
    report = json.loads(text)
    assert report["verdict"] == "separable"
    assert abs(report["lambda"] - 1.0) < 1e-8


def test_bsa_operation_on_a_map_not_on_n_by_n_exits_2(tmp_path, capsys):
    from choiscope.channels import identity_channel
    from choiscope.serialization import dump_channel
    src = tmp_path / "identity3.json"
    src.write_text(dump_channel(identity_channel(3), "kraus"), encoding="utf-8")
    code, text = run(tmp_path, "bsa", str(src), "--operation", "--seed", "0")
    assert code == EXIT_INVALID and text is None
    assert "DimensionMismatch" in capsys.readouterr().err


@pytest.mark.parametrize("fixture", ["identity2.json", "transpose2.json",
                                     "depolarizing2.json", "swap2.json",
                                     "random_cp2.json", "random_cp4x4.json"])
def test_gen_fixtures_are_reproducible(tmp_path, fixture):
    argv = {"identity2.json": ["gen", "identity", "2"],
            "transpose2.json": ["gen", "transpose", "2"],
            "depolarizing2.json": ["gen", "depolarizing", "2", "--p", "0.5"],
            "swap2.json": ["gen", "swap", "2"],
            "random_cp2.json": ["gen", "random-cp", "2", "--seed", "11"],
            "random_cp4x4.json": ["gen", "random-cp", "4", "--seed", "3"]}[fixture]
    code, text = run(tmp_path, *argv)
    assert code == EXIT_OK
    assert text == (FIXTURES / fixture).read_text(encoding="utf-8")


def test_gen_random_deterministic(tmp_path):
    _, a = run(tmp_path, "gen", "random-state", "2", "2", "--seed", "5",
               name="a.json")
    _, b = run(tmp_path, "gen", "random-state", "2", "2", "--seed", "5",
               name="b.json")
    assert a == b == (GOLDEN / "gen_random_state_5.json").read_text(
        encoding="utf-8")
    _, c = run(tmp_path, "gen", "random-state", "2", "2", "--seed", "6",
               name="c.json")
    assert c != a


def test_gen_random_requires_seed(tmp_path):
    code, _ = run(tmp_path, "gen", "random-cp", "2")
    assert code == EXIT_IO


@pytest.mark.parametrize("argv", [
    ["gen", "random-cp", "2", "--seed", "-1"],
    ["gen", "random-state", "2", "--seed", "-1"],
    ["bsa", str(FIXTURES / "maxmixed.json"), "--seed", "-1", "--budget", "5"],
    # the range certificate returns before the BSA reads the seed
    ["bsa", str(FIXTURES / "random_cp4x4.json"), "--operation", "--seed", "-1"],
])
def test_negative_seed_is_parse_error(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv)
    assert code == EXIT_IO
    assert text is None
    err = capsys.readouterr().err
    assert err.startswith("error: --seed must be a non-negative integer")
    assert "Traceback" not in err


def test_gen_depolarizing_full_strength(tmp_path):
    _, text = run(tmp_path, "gen", "depolarizing", "2", "--p", "1")
    ch = parse_text(text).to_channel()
    rho = np.array([[0.7, 0.2j], [-0.2j, 0.3]], dtype=complex)
    from choiscope.channels import apply
    assert np.allclose(apply(ch, rho), np.eye(2) / 2, atol=1e-10)


def test_bsa_determinism_repeat_run(tmp_path):
    _, a = run(tmp_path, "bsa", str(FIXTURES / "maxmixed.json"),
               "--seed", "3", "--budget", "60", name="a.json")
    _, b = run(tmp_path, "bsa", str(FIXTURES / "maxmixed.json"),
               "--seed", "3", "--budget", "60", name="b.json")
    assert a == b


def test_compose_and_tensor(tmp_path):
    ident = str(FIXTURES / "identity2.json")
    depol = str(FIXTURES / "depolarizing2.json")
    code, text = run(tmp_path, "compose", depol, ident)
    assert code == EXIT_OK
    composed = parse_text(text).to_channel()
    direct = parse_text(Path(depol).read_text()).to_channel()
    assert np.allclose(composed.liouville, direct.liouville, atol=1e-12)
    code, text = run(tmp_path, "tensor", ident, ident, name="t.json")
    assert code == EXIT_OK
    t = parse_text(text).to_channel()
    assert t.d_in == t.d_out == 4
    assert np.allclose(t.liouville, np.eye(16), atol=1e-12)


def test_exit_code_io_errors(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "missing.json")]) == EXIT_IO
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": "1",\n  "kind": }', encoding="utf-8")
    assert main(["inspect", str(bad)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "line 2" in err


def test_env_tolerance_override(tmp_path, monkeypatch):
    # a slightly negative state: invalid at tight tolerance, valid at loose;
    # --tol is the only way to set it, the environment is not read
    from choiscope.serialization import dump_state
    rho = np.diag([0.5 + 2.5e-7, 0.5, -5e-7, 0.0]).astype(complex)
    src = tmp_path / "state.json"
    src.write_text(dump_state(rho, (2, 2)), encoding="utf-8")
    monkeypatch.setenv("CHOISCOPE_TOL", "1e-5")
    code, _ = run(tmp_path, "inspect", str(src), name="default.json")
    assert code == EXIT_INVALID
    for tol, want, name in [("1e-9", EXIT_INVALID, "a.json"), ("1e-5", EXIT_OK, "b.json"),
                            ("1e-4", EXIT_OK, "c.json")]:
        code, _ = run(tmp_path, "inspect", str(src), "--tol", tol, name=name)
        assert code == want, tol


def test_inspect_reports_non_hermitian_state(tmp_path):
    from choiscope.serialization import dump_state
    rho = np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex)
    rho[0, 2] = 0.2  # Hermitian part has the off-diagonal pair 0.1
    src = tmp_path / "skew.json"
    src.write_text(dump_state(rho, (2, 2)), encoding="utf-8")
    code, text = run(tmp_path, "inspect", str(src))
    assert code == EXIT_INVALID
    report = json.loads(text)
    assert report["hermitian"] is False
    want = np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]
    assert abs(report["min_eigenvalue"] - want) < 1e-12
    assert report["min_eigenvalue"] < 0
    assert report["positive_semidefinite"] is False


@pytest.mark.parametrize("flags", [["--budget", "-3"], ["--tol", "-1"],
                                   ["--tol", "0"], ["--tol", "nan"],
                                   ["--tol", "inf"]])
def test_bsa_rejects_bad_budget_and_tol(tmp_path, capsys, flags):
    code, text = run(tmp_path, "bsa", str(FIXTURES / "maxmixed.json"),
                     "--seed", "0", *flags)
    assert code == EXIT_IO
    assert text is None
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "abc"])
def test_bad_env_tolerance_is_parse_error(tmp_path, value):
    code, text = run(tmp_path, "inspect", str(FIXTURES / "maxmixed.json"), f"--tol={value}")
    assert code == EXIT_IO
    assert text is None


@pytest.mark.parametrize("argv", [
    ["bsa", str(FIXTURES / "maxmixed.json"), "--seed", "abc"],
    ["inspect", str(FIXTURES / "maxmixed.json"), "--tol", "abc"],
    ["convert", str(FIXTURES / "identity2.json"), "nosuch"],
    ["nosuch", str(FIXTURES / "identity2.json")],
    [],
])
def test_usage_errors_exit_1(capsys, argv):
    assert main(argv) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        main(["bsa", "--help"])
    assert done.value.code == 0
    assert "--tol" in capsys.readouterr().out


@pytest.mark.parametrize("entry", ["true", "NaN", "Infinity"])
def test_inspect_rejects_boolean_and_non_finite_entries(tmp_path, capsys, entry):
    text = (FIXTURES / "identity2.json").read_text(encoding="utf-8")
    src = tmp_path / "bad.json"
    src.write_text(text.replace("[[[[1,0]", f"[[[[{entry},0]", 1), encoding="utf-8")
    code, report = run(tmp_path, "inspect", str(src))
    assert code == EXIT_IO
    assert report is None
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["inspect"], ["bsa", "--seed", "0"]])
def test_non_utf8_input_is_parse_error(tmp_path, verb):
    src = tmp_path / "bad.json"
    src.write_bytes(b"\xff\xfe" + (FIXTURES / "maxmixed.json").read_bytes())
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-m", "choiscope", verb[0], str(src), *verb[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_IO
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: not UTF-8 text")


@pytest.mark.parametrize("argv", [["identity", "0"], ["identity", "-1"],
                                  ["depolarizing", "0"], ["swap", "0"],
                                  ["random-cp", "2", "0", "--seed", "1"],
                                  ["random-state", "0", "2", "--seed", "1"]])
def test_gen_rejects_sizes_below_one(tmp_path, capsys, argv):
    code, text = run(tmp_path, "gen", *argv)
    assert code == EXIT_IO
    assert text is None
    assert "dimensions must be >= 1" in capsys.readouterr().err


def test_inspect_kraus_channel_reads_cp_without_spectrum_noise(tmp_path):
    # three Kraus operators on a 9-dimensional Choi matrix: D = K K^dag is
    # singular, so its least eigenvalue is exactly 0, not rounding noise
    code, _ = run(tmp_path, "gen", "random-cp", "3", "--seed", "1", name="cp3.json")
    assert code == EXIT_OK
    code, text = run(tmp_path, "inspect", str(tmp_path / "cp3.json"))
    assert code == EXIT_OK
    report = json.loads(text)
    assert report["completely_positive"] is True
    assert report["min_choi_eigenvalue"] == 0


def test_large_entry_fixture_is_the_large_kraus_set():
    from choiscope.serialization import dump_channel
    text = dump_channel(Channel.from_kraus(large_kraus_set(18)), "kraus")
    assert (FIXTURES / "large_kraus18.json").read_text(encoding="utf-8") == text


def test_inspect_large_entry_map_is_valid(tmp_path):
    # entries ~1e7: the Choi matrix's Hermitian gap (7.5e-9) is above atol
    code, text = run(tmp_path, "inspect", str(FIXTURES / "large_kraus18.json"))
    assert code == EXIT_OK
    report = json.loads(text)
    assert report["hermiticity_preserving"] is True
    assert report["completely_positive"] is True


@pytest.mark.parametrize("seed", range(10))
def test_inspect_large_pure_state_is_psd(tmp_path, seed):
    # 1e8 |psi><psi|: its null eigenvalues round to about -3e-9
    from choiscope.generators import random_state
    from choiscope.serialization import dump_state
    psi = np.linalg.eigh(random_state(4, seed))[1][:, -1]
    src = tmp_path / "large.json"
    src.write_text(dump_state(1e8 * np.outer(psi, psi.conj()), (2, 2)), encoding="utf-8")
    code, text = run(tmp_path, "inspect", str(src))
    assert code == EXIT_OK
    assert json.loads(text)["positive_semidefinite"] is True


@pytest.mark.parametrize("argv", [
    ["compose", str(FIXTURES / "identity2.json"), str(FIXTURES / "random_cp2.json")],
    ["tensor", str(FIXTURES / "identity2.json"), str(FIXTURES / "random_cp2.json")],
    ["gen", "random-cp", "2", "--seed", "0"],
    ["gen", "identity", "2"],
])
def test_tol_on_a_verb_that_makes_no_tolerance_decision_is_usage_error(capsys, argv):
    assert main([*argv, "--tol", "1e-7"]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert "--tol" in err


@pytest.mark.parametrize("verb,reads_tol", [("inspect", True), ("convert", True), ("bsa", True),
                                            ("gen", False), ("compose", False),
                                            ("tensor", False)])
def test_only_inspect_convert_and_bsa_list_tol(capsys, verb, reads_tol):
    with pytest.raises(SystemExit) as done:
        main([verb, "--help"])
    assert done.value.code == 0
    assert ("--tol" in capsys.readouterr().out) == reads_tol


@pytest.mark.parametrize("argv,named", [
    (["identity", "2", "3", "4"], "[2, 3, 4]"),
    (["transpose", "3", "5"], "[3, 5]"),
    (["swap", "2", "2"], "[2, 2]"),
    (["depolarizing", "2", "3"], "[2, 3]"),
    (["random-cp", "2", "3", "4", "--seed", "1"], "[2, 3, 4]"),
    (["random-state", "2", "3", "7", "--seed", "1"], "[2, 3, 7]"),
    (["identity", "2", "--seed", "5"], "--seed"),
    (["depolarizing", "2", "--seed", "5"], "--seed"),
    (["identity", "2", "--p", "0.9"], "--p"),
    (["random-state", "2", "--seed", "1", "--p", "0.9"], "--p"),
])
def test_gen_rejects_input_its_generator_does_not_read(tmp_path, capsys, argv, named):
    assert main(["gen", *argv]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: gen ") and named in err
    code, text = run(tmp_path, "gen", *argv)
    assert code == EXIT_IO and text is None


def test_gen_depolarizing_defaults_to_half_strength(tmp_path):
    _, default = run(tmp_path, "gen", "depolarizing", "2", name="a.json")
    _, half = run(tmp_path, "gen", "depolarizing", "2", "--p", "0.5", name="b.json")
    assert default == half == (FIXTURES / "depolarizing2.json").read_text(encoding="utf-8")


def _choi_file(tmp_path, least):
    """A 2 -> 2 Choi matrix U diag(least, 0.3, 0.7, 1) U^dag, U a seeded QR factor."""
    from choiscope.serialization import dump_file
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    src = tmp_path / "choi.json"
    src.write_text(dump_file("choi", (2, 2), [U @ np.diag([least, 0.3, 0.7, 1.0]) @ U.conj().T]),
                   encoding="utf-8")
    return str(src)


@pytest.mark.parametrize("tol,want", [([], EXIT_INVALID), (["--tol", "1e-7"], EXIT_OK)])
def test_convert_kraus_and_inspect_agree_at_one_tol(tmp_path, tol, want):
    src = _choi_file(tmp_path, -5e-9)
    inspected, report = run(tmp_path, "inspect", src, *tol, name="inspect.json")
    converted, text = run(tmp_path, "convert", src, "kraus", *tol, name="kraus.json")
    assert inspected == converted == want
    assert json.loads(report)["completely_positive"] is (want == EXIT_OK)
    if want == EXIT_OK:
        assert len(parse_text(text).matrices) == 3


@pytest.mark.parametrize("tol,count", [([], 4), (["--tol", "1e-7"], 3)])
def test_convert_kraus_rank_cut_follows_tol(tmp_path, tol, count):
    code, text = run(tmp_path, "convert", _choi_file(tmp_path, 5e-9), "kraus", *tol)
    assert code == EXIT_OK
    assert len(parse_text(text).matrices) == count


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_convert_rejects_bad_tol(tmp_path, capsys, value):
    code, text = run(tmp_path, "convert", str(FIXTURES / "identity2.json"), "kraus",
                     "--tol", value)
    assert code == EXIT_IO and text is None
    assert capsys.readouterr().err.startswith("error: --tol must be positive and finite")


@pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
def test_gen_depolarizing_rejects_a_non_finite_strength(tmp_path, capsys, p):
    code, text = run(tmp_path, "gen", "depolarizing", "2", f"--p={p}")
    assert code == EXIT_IO and text is None
    assert capsys.readouterr().err.startswith("error: --p must be finite")


@pytest.mark.parametrize("p,want", [("2", EXIT_INVALID), ("-0.1", EXIT_INVALID),
                                    ("1.3", EXIT_OK), (str(4 / 3), EXIT_OK)])
def test_gen_depolarizing_is_cp_up_to_the_full_twirl(tmp_path, p, want):
    # at N = 2 the map is CP for 0 <= p <= N^2 / (N^2 - 1) = 4/3; outside, gen's
    # Kraus output raises NotCompletelyPositive
    code, text = run(tmp_path, "gen", "depolarizing", "2", "--p", p)
    assert code == want
    assert (text is not None) == (want == EXIT_OK)

