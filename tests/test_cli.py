import json
import subprocess
import sys
from pathlib import Path

import pytest

from torelli import cli
from torelli.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_theta_example(capsys):
    code, out, _ = run(capsys, "theta", "a1+", "--genus", "3", "--degree", "3")
    assert code == 0
    assert out.strip() == "a1+(-1/2)*[a1,b1]+(1/12)*[[a1,b1],b1]"


def test_theta_empty_and_cancelling(capsys):
    code, out, _ = run(capsys, "theta", "")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "theta", "a1+a1-")
    assert code == 0 and out.strip() == "0"


def test_theta_parse_error_exit2(capsys):
    code, _, err = run(capsys, "theta", "c1+")
    assert code == 2
    assert "offset 0" in err


def test_theta_degree_cap_exit3(capsys):
    code, _, err = run(capsys, "theta", "a1+", "--degree", "5")
    assert code == 3


def test_theta_json(capsys):
    code, out, _ = run(capsys, "theta", "a1+", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["theta"]["terms"][0] == {"word": [1], "num": 1, "den": 1}


def test_verify_symplectic(capsys):
    code, out, _ = run(capsys, "verify", "symplectic", "--genus", "3")
    assert code == 0
    assert out.count("PASS") == 2  # degrees 3 and 4


def test_verify_theorem_b(capsys):
    code, out, _ = run(capsys, "verify", "theorem-b", "--genus", "3")
    assert code == 0
    assert "FAIL" not in out
    assert "R-nonzero" in out


def test_verify_theorem_b_refuses_low_genus(capsys):
    code, _, err = run(capsys, "verify", "theorem-b", "--genus", "2")
    assert code == 3


def test_verify_theorem_b_json_stages(capsys):
    code, out, _ = run(capsys, "verify", "theorem-b", "--format", "json")
    assert code == 0
    stages = json.loads(out)
    assert all(set(s) == {"stage", "ok", "detail"} for s in stages)
    assert all(s["ok"] for s in stages)


def test_verify_lcst(capsys):
    code, out, _ = run(capsys, "verify", "lcst", "--genus", "1")
    assert code == 0 and "(Z/2)^2" in out
    code, out, _ = run(capsys, "verify", "lcst", "--genus", "3",
                       "--md", "2,2,2,0,0,0")
    assert code == 0 and "[1, 1, 2, 2]" in out


def test_verify_lcst_refuses_full_genus3(capsys):
    code, _, err = run(capsys, "verify", "lcst", "--genus", "3")
    assert code == 3


def test_verify_sp_kernel(capsys):
    code, out, _ = run(capsys, "verify", "sp-kernel", "--genus", "3")
    assert code == 0 and "64" in out


def test_verify_lower_bounds(capsys):
    code, out, _ = run(capsys, "verify", "lower-bounds", "--max-genus", "8")
    assert code == 0
    assert out.count("PASS") == 7


def test_ranks(capsys):
    code, out, _ = run(capsys, "ranks", "--genus", "3")
    assert code == 0
    assert "rank L_3 = 70" in out
    assert "rank of closed L_3 = 64" in out


def test_r_command_inline_twist(capsys):
    code, out, _ = run(capsys, "R", "a1+b1+a1-b1-", "--degree", "4")
    assert code == 0
    assert "class mod 1" in out


def test_r_command_spec_file(tmp_path, capsys):
    spec = tmp_path / "word.json"
    spec.write_text(json.dumps([
        {"commutator": [{"twist": {"lift": "a1+b1+a1-b1-"}},
                        {"twist": {"lift": "a2+b2+a2-b2-"}}]},
    ]))
    code, out, _ = run(capsys, "R", str(spec), "--degree", "4")
    assert code == 0 and "zero" in out


def test_compose_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"product": [{"twist": {"lift": "a1+b1+a1-b1-", "power": 2}},
                     {"inverse": {"twist": {"lift": "a1+b1+a1-b1-"}}}]}))
    code, out, _ = run(capsys, "compose", str(spec), "--degree", "4")
    assert code == 0
    assert "degrees 2..4" in out


def test_compose_bad_json_exit2(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text("{nope")
    code, _, err = run(capsys, "compose", str(spec))
    assert code == 2


@pytest.mark.parametrize("spec", [
    {"twist": {"lift": "a1+b1+a1-b1-", "power": 2.5}},
    {"twist": {"lift": "a1+b1+a1-b1-", "power": "2"}},
    {"twist": {"lift": "a1+b1+a1-b1-", "power": True}},
    {"twist": "a1+"},
    {"twist": {"lift": 5}},
    {"commutator": 5},
])
def test_compose_bad_factor_exit2(capsys, spec):
    code, _, err = run(capsys, "compose", json.dumps(spec))
    assert code == 2
    assert err.startswith("input error")


def test_verify_lower_bounds_catches_wrong_rank(capsys, monkeypatch):
    from torelli import sp_mod2
    real = sp_mod2.witt_rank
    monkeypatch.setattr(sp_mod2, "witt_rank", lambda n, d: real(n, d) + 1)
    code, out, _ = run(capsys, "verify", "lower-bounds", "--max-genus", "3")
    assert code == 1
    assert out.count("FAIL") == 2


@pytest.mark.parametrize("argv", [
    ["ranks", "--genus", "0"],
    ["ranks", "--genus", "-2"],
    ["verify", "lcst", "--genus", "0"],
    ["verify", "lower-bounds", "--max-genus", "1"],
    ["verify", "lower-bounds", "--max-genus", "-1"],
])
def test_out_of_range_genus_exit3(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-m", "torelli.cli", *argv],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 3, run.stderr
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert "capability error" in run.stderr


def test_sp_kernel_limit_refused_before_work(capsys, monkeypatch):
    def work(*args):
        raise AssertionError("sp-kernel started work above its genus limit")
    monkeypatch.setattr(cli, "verify_kernel_lemma", work)
    monkeypatch.setattr(cli, "verify_ses", work)
    code, out, err = run(capsys, "verify", "sp-kernel", "--genus",
                         str(cli._SP_KERNEL_MAX_GENUS + 1))
    assert code == 3 and out == ""
    assert f"up to genus {cli._SP_KERNEL_MAX_GENUS}" in err


def test_determinism(capsys):
    _, out1, _ = run(capsys, "verify", "theorem-b", "--format", "json")
    _, out2, _ = run(capsys, "verify", "theorem-b", "--format", "json")
    assert out1 == out2


def test_theta_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("a1+\n"))
    code, out, _ = run(capsys, "theta", "-", "--genus", "3", "--degree", "3")
    assert code == 0
    assert out.strip() == "a1+(-1/2)*[a1,b1]+(1/12)*[[a1,b1],b1]"
