import argparse
import contextlib
import fcntl
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import SEED, python_env, run_python
from torelli import cli
from torelli.cli import main
from torelli.lie import DegreeCapError


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


@pytest.mark.parametrize("argv", [
    ["theta", "a1+"],
    ["verify", "theorem-b"],
    ["verify", "symplectic"],
    ["compose", "a1+b1+a1-b1-"],
], ids=["theta", "theorem-b", "symplectic", "compose"])
def test_degree_cap_exit3(capsys, argv):
    # the expansion cap is checked before any context is built, so every
    # command refuses alike, also above the Lie layer's class cap
    for degree in ("5", "6"):
        code, out, err = run(capsys, *argv, "--degree", degree)
        assert code == 3 and out == ""
        assert err == ("capability error: the expansion is unspecified beyond "
                       "degree 4\n")


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_degree_below_one_exit3(capsys, degree):
    # the expansion refuses its own range 1..4, not the Lie layer's class range
    code, out, err = run(capsys, "theta", "a1+", "--degree", degree)
    assert code == 3 and out == ""
    assert err == ("capability error: the expansion is truncated at a degree "
                   f"in 1..4, got degree {degree}\n")


@pytest.mark.parametrize("argv", [
    ["theta", "a4+"],
    ["compose", "a4+b4+a4-b4-"],
], ids=["theta", "compose"])
def test_generator_out_of_range_exit2(argv):
    run = _cli_subprocess(*argv, "--genus", "3")
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert "generator index 4 out of range 1..3" in run.stderr


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


@pytest.mark.parametrize("genus", ["1", "3"])
def test_verify_lcst_empty_md_exit2(capsys, genus):
    # an explicit empty --md is a malformed multidegree, not a request for
    # the full quotient; a malformed or misshapen one names the option
    for md in ("--md=", "--md=1,x", "--md=3,3,", "--md=3,3,0,0,0,0,0",
               "--md=3,4,-1,0,0,0"):
        code, out, err = run(capsys, "verify", "lcst", "--genus", genus, md)
        assert code == 2 and out == "", md
        assert err.startswith("input error: --md "), md
        assert err.endswith(" nonnegative integers, comma-separated, "
                            "summing to 6\n"), md


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


_TWIST = {"twist": {"lift": "a1+b1+a1-b1-"}}
_BAD_FACTORS = [
    ({"twist": {"lift": "a1+b1+a1-b1-", "power": 2.5}}, "$.twist.power"),
    ({"twist": {"lift": "a1+b1+a1-b1-", "power": "2"}}, "$.twist.power"),
    ({"twist": {"lift": "a1+b1+a1-b1-", "power": True}}, "$.twist.power"),
    ({"twist": "a1+"}, "$.twist"),
    ({"twist": {"lift": 5}}, "$.twist.lift"),
    ({"commutator": 5}, "$.commutator"),
    ({"commutator": [{"twist": {"lift": "a1+b1+a1-b1-", "power": 0.5}},
                     _TWIST]}, "$.commutator[0].twist.power"),
    ([_TWIST, {"inverse": {"conjugate": {"by": _TWIST}}}],
     "$[1].inverse.conjugate.arg"),
    # a misspelt or foreign field is refused, not silently ignored
    ({"twist": {"lift": "a1+b1+a1-b1-", "pwoer": 2}}, "$.twist.pwoer"),
    ({"bp": {"gamma": "a3+", "c": "b3+a1+b1-a1-b1+b3-", "lift": "a1+"}},
     "$.bp.lift"),
    ({"conjugate": {"by": _TWIST, "arg": _TWIST, "power": 2}},
     "$.conjugate.power"),
    ([_TWIST, {"commutator": [_TWIST, {"twist": {"lift": "a2+b2+a2-b2-",
                                                 "c": "a1+"}}]}],
     "$[1].commutator[1].twist.c"),
    # an empty product is refused where it stands
    ([], "$"),
    ({"product": []}, "$.product"),
    ({"conjugate": {"by": [], "arg": _TWIST}}, "$.conjugate.by"),
]
_UNKNOWN_FIELDS = ("$.twist.pwoer", "$.bp.lift", "$.conjugate.power",
                   "$[1].commutator[1].twist.c")


@pytest.mark.parametrize("spec, path", _BAD_FACTORS,
                         ids=[f"spec{i}" for i in range(len(_BAD_FACTORS))])
def test_compose_bad_factor_exit2(capsys, spec, path):
    code, out, err = run(capsys, "compose", json.dumps(spec))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: {path}: ")
    if path in _UNKNOWN_FIELDS:
        assert err == f"input error: {path}: unknown field\n"


@pytest.mark.parametrize("spec", ["", "   "], ids=["empty", "blank"])
def test_compose_empty_spec_exit2(capsys, spec):
    code, out, err = run(capsys, "compose", spec)
    assert code == 2 and out == ""
    assert err.startswith("input error: empty spec")


def test_compose_unreadable_spec_names_the_file(tmp_path, capsys):
    missing = str(tmp_path / "spec.jsn")
    code, out, err = run(capsys, "compose", missing)
    assert code == 2 and out == ""
    assert repr(missing) in err and "No such file or directory" in err
    # an inline lift word is still a twist
    code, out, _ = run(capsys, "compose", "a1+b1+a1-b1-", "--degree", "3")
    assert code == 0 and "degrees 2..3" in out


@pytest.mark.parametrize("genus, digest", [
    (3, "8fed40dbbe00b74cab49df6baf2eacff40932be6fe889df5fa3f3a77ce821604"),
    (4, "3418495cb9fdbbc38e10a45743033e6060aad09950e35ee044afe5c6cb17315e"),
    (5, "63d91bbcb6bd7f00e5d12c05031c0a17791d2179ebfb68d2103130210d9bb516"),
], ids=["genus3", "genus4", "genus5"])
def test_theorem_b_json_bytes_are_pinned(genus, digest):
    # a cold run in a fresh interpreter, against the bytes of the reference
    # implementation (BCH-folded theta, unmemoized tree evaluation)
    run = run_python("-m", "torelli.cli", "verify", "theorem-b",
                     "--genus", str(genus), "--format", "json")
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["sp-kernel", "--genus", "5"],
     "cad2dffa47eed38aa0462e024598eae5ae7b9a5b1acfb3e06fcd3433e498e09d"),
    (["sp-kernel", "--genus", "6"],
     "946e7b3ae184d0517017b0040c98b5ef330f1de98cb6a995a45b5ea2a176993b"),
    (["sp-kernel", "--genus", "8"],
     "ace738836245065b5954c9e21af4c9267d1a1667f3b3de5f24db5430113d2bad"),
    (["sp-kernel", "--genus", "10"],
     "5e0c0120e4182b45d4b861c4dfdafda6631435938220d34ca0742c8caa3e9ea2"),
    (["sp-kernel", "--genus", "12"],
     "f8501576a15151106a37b8e501ca6c919ea10633d30aa596dbb0b399798abd13"),
    (["lcst", "--genus", "2"],
     "3c49cd5a93c854467e1bf1f6d7ca234ada61422916e01da41794a69ed2982ee7"),
    (["lcst", "--genus", "3", "--md", "1,2,2,0,0,1"],
     "f55cd4b1d831f692da663648f31e6f7b1074cb7c3cf2eb080e8c30f05684b1a6"),
    (["lcst", "--genus", "1"],
     "ba4806b67e210b35f9e4a3c5e3e1df20d318eea085c32db1d86885f702473988"),
    (["lcst", "--genus", "3", "--md", "2,2,2,0,0,0"],
     "48ee98410f3c19c7edcd43cc2d4ecb0c84973a8be94d13d3831e6ead81df4c45"),
    (["lcst", "--genus", "3", "--md", "1,1,1,1,1,1"],
     "c06392207649c01b693fb6fd44072d287e0dbcfb2626deb03ac2f74fd596f0c5"),
    (["lcst", "--genus", "4", "--md", "3,0,1,0,2,0,0,0"],
     "49771d79b15dd7b93c7687cb6b77996f7902e99950ebed5454a779aeae372c3e"),
], ids=["sp-kernel-genus5", "sp-kernel-genus6", "sp-kernel-genus8",
        "sp-kernel-genus10", "sp-kernel-genus12", "lcst-genus2",
        "lcst-genus3-md", "lcst-genus1", "lcst-genus3-md222000",
        "lcst-genus3-md111111", "lcst-genus4-md30102000"])
def test_verify_json_bytes_are_pinned(argv, digest):
    # as above, for the GF(2) orbit span and the full degree-4 quotient
    run = run_python("-m", "torelli.cli", "verify", *argv, "--format", "json")
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["compose", '[{"twist":{"lift":"a1+a2+b1+a2-a1-b1-","power":2}},'
      '{"conjugate":{"by":{"twist":{"lift":"a1+b1+a1-b1-"}},'
      '"arg":{"twist":{"lift":"a2+b2+a2-b2-"}}}}]',
      "--genus", "3", "--degree", "4"],
     "98a836b715d00e7c70cac5254f9be73cbe084428eec42b8c377bba444c3c5c72"),
    (["compose", '[{"bp":{"gamma":"a3+","c":"b3+a1+b1-a1-b1+b3-"}},'
      '{"twist":{"lift":"a1+b1+a1-b1-"}}]', "--genus", "3", "--degree", "3"],
     "ce59a8ce61e7bf72d00804105ebeb0881ebc00a669403cf5d797da632f05d971"),
    (["ranks", "--genus", "3"],
     "42b81d1b441039e1dfee3a523307d00c628b520c5072e3f154faac82ec7d0978"),
], ids=["compose-twists-degree4", "compose-bp-degree3", "ranks-genus3"])
def test_compose_and_ranks_json_bytes_are_pinned(argv, digest):
    # as above, for the twist and bounding-pair values and the L-bar ranks
    run = run_python("-m", "torelli.cli", *argv, "--format", "json")
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["theta", "a1+b2-a1-b1+a2+", "--genus", "3", "--degree", "4"],
     "d474338d29fee05ebb2b598c7c28fe877171b61d57f554c68f7e9f53c5cee142"),
    (["theta", "a1+", "--genus", "30", "--degree", "4"],
     "701455e1a00bb88bd249edb2807150bf4216ab82f67a2d70cf46e5fcc7e43454"),
    (["verify", "symplectic", "--genus", "3"],
     "7eb1a5c2baec5628c2770438fa3eb5fcfbde400a490fde878ebf6050a874baf1"),
], ids=["theta-word-genus3", "theta-a1-genus30", "symplectic-genus3"])
def test_theta_and_symplectic_json_bytes_are_pinned(argv, digest):
    # as above, for the expansion table itself: a mixed word, one letter at
    # the genus cap, and the boundary-word calibration at degrees 3 and 4
    run = run_python("-m", "torelli.cli", *argv, "--format", "json")
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["theta", "a1+b2-a1-b1+a2+", "--genus", "3", "--degree", "4"],
     "68871216a73ff364112d710ef9bf7a70c473abb9c188c70ed813718c5f3389fb"),
    (["verify", "theorem-b", "--genus", "3"],
     "819c0692aba2065ebe14954eee6202cfc2b98e4babfe25468047d047cfc13a87"),
], ids=["theta-word-genus3", "theorem-b-genus3"])
def test_text_bytes_are_pinned(argv, digest):
    # the text renderer prints every coefficient, so an int and a Fraction
    # coefficient must print alike: these bytes predate int coefficients
    run = run_python("-m", "torelli.cli", *argv)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == digest


_R_SPEC = ('[{"commutator": [{"twist": {"lift": "a1+b1+a1-b1-"}}, '
           '{"twist": {"lift": "a1+a2+b1+a2-a1-b1-"}}]}]')


@pytest.mark.parametrize("genus, digest", [
    (3, "e1cc3a9b9614cb67cebe8d5458484e7a15266c69b4e10c23adbcd4d880e8f19c"),
    (12, "08546a751fd456a6f7ff713ee35b576a6adb08731d203aa5d9a13aee2407eacd"),
], ids=["genus3", "genus12"])
def test_r_json_bytes_are_pinned(genus, digest):
    # as above, for R of a commutator of two twists on handles 1-2; the
    # genus-12 run lists its degree-4 bases on those handles only
    run = run_python("-m", "torelli.cli", "R", _R_SPEC, "--genus", str(genus),
                     "--degree", "4", "--format", "json")
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == digest


_TWIST_SPEC = ('[{"twist":{"lift":"a1+a2+b1+a2-a1-b1-","power":2}},'
               '{"conjugate":{"by":{"twist":{"lift":"a1+b1+a1-b1-"}},'
               '"arg":{"twist":{"lift":"a2+b2+a2-b2-"}}}}]')


def _cli_subprocess(*argv, optimize=False):
    return run_python("-m", "torelli.cli", *argv, optimize=optimize)


_ARGPARSE_CASES = [
    (["--help"],
     "2a0a2894025d195ff35bac64f3abb210071f8753338fd7b3b0c924d92c5bb7ea"),
    (["verify", "--help"],
     "efe1792d7500c3dba32c7f10a1ebb419f2c70f13c400ffc1e54ac4ad9cec94bd"),
    (["theta", "--help"],
     "e435e4c74573cf349206f60826c1d3560866b9232e6837f53758948afd81801c"),
    (["ranks", "--help"],
     "dbeac516e326fa630acdaa7c4b32d6ae2b60813bca5c0453ed42140f171a63a7"),
    (["compose", "--help"],
     "915f6cecc556e85e31ed420a0315b1d36d9153fbb67dbfebc0147a35dcbe355e"),
    (["R", "--help"],
     "2f2cdd98c06fc5376a8d429f943d0d472962b9d5bb2fbcdf11831b5d03a6b45f"),
    (["verify", "symplectic", "--help"],
     "f827d133b474ffce5de5ea773e2c92574ac17817410b96f34e9962e9d1ed7079"),
    (["verify", "theorem-b", "--help"],
     "2964970761bb27c8472361bcfcc0af2f5af868ce70f39179aa648bc7f392b816"),
    (["verify", "lcst", "--help"],
     "25fb4a81135c058ddbc0dfca4a73226b338c83551a65b814925cdcd4cf48c139"),
    (["verify", "sp-kernel", "--help"],
     "e822d457c31fa7e7a22381e6dc6f77003e8038f58d9a134d9eaee1bf00793be5"),
    (["verify", "lower-bounds", "--help"],
     "e968fff3c39d758ece9ae4f8fb345fceaec0a655b84f42c42258b558118f46a9"),
    ([],
     "4151e59c88cd9a783393762f7f36cffe9b422ef34b03ad4b6981d816ac1886bc"),
    (["bogus"],
     "5b60fb34c7d0b8e0f957de33ba37e0fd8b552ef763eca86803f326a5a009c663"),
    (["verify"],
     "c25260892691842f7b73ac550114282160c52d09d0c96e162bfa2833da5ae29d"),
    (["verify", "bogus"],
     "22965d533e29821c54f6bd0d6bf148f31f3f4e481119ba46c4d191ecdd39578c"),
    (["ranks", "--degree", "9"],
     "5d110eb2cab9320ba609aeb9a38856613578cdf587e5bf40ac5c306aac176f74"),
    (["verify", "sp-kernel", "--genus", "x"],
     "e414f3a26da88db056028ecf11a8ddf61b107dbc2b5c3505108710e7f7424d64"),
    (["verify", "sp-kernel", "--format", "xml"],
     "f74b03374696018d02eb433119c7440aa56f94f70cad463a5a3b69e8c1c4e344"),
    (["verify", "sp-kernel", "--genus", "3", "extra"],
     "a3a1aa38c340141b5aa26de9aa3be29393c9c5140b5bcc1e586907acf29fcb28"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the digests are of the wording of argparse 3.11")
@pytest.mark.parametrize("argv, digest", _ARGPARSE_CASES, ids=[
    " ".join(argv) or "no-command" for argv, _ in _ARGPARSE_CASES])
def test_argparse_bytes_are_pinned(argv, digest):
    # the exit code, stdout and stderr of every help page and of the argparse
    # errors at each level of the command tree, as argparse of Python 3.11
    # prints them at its default width of 80 columns (no terminal, no
    # COLUMNS); the usage lines list every command of their level
    run = _cli_subprocess(*argv)
    got = json.dumps([run.returncode, run.stdout, run.stderr])
    assert hashlib.sha256(got.encode()).hexdigest() == digest, got


def test_leaf_command_builds_only_its_path(capsys, monkeypatch):
    # a named leaf command builds the top level, verify and itself, not the
    # parsers of the other commands; without argv, main reads sys.argv
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argv = ["verify", "sp-kernel", "--genus", "3", "--format", "json"]
    assert main(argv) == 0
    assert len(built) <= 3, built
    monkeypatch.setattr(sys, "argv", ["torelli", *argv])
    assert main() == 0
    out = capsys.readouterr().out.split("\n]\n")
    assert out[0] == out[1] and json.loads(out[0] + "]")[0]["span_dim"] == 64


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_is_not_an_error(fmt):
    # a reader that takes 10 bytes and closes the pipe, like `| head -c 10`;
    # the pipe holds one page, so the rest of the output meets a closed pipe
    read_end, write_end = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "torelli.cli", "theta",
         "a1+b1+a2+b2+a3+b3+a4+b4+", "--genus", "4", "--degree", "4",
         "--format", fmt],
        stdout=write_end, stderr=subprocess.PIPE, text=True, env=python_env())
    os.close(write_end)
    head = os.read(read_end, 10)
    os.close(read_end)
    err = proc.communicate(timeout=120)[1]
    assert len(head) == 10
    assert proc.returncode == 0, err
    for bad in ("Traceback", "input error", "Exception ignored"):
        assert bad not in err


@pytest.mark.parametrize("spec", [
    "[" * 3000 + "]" * 3000,
    '{"inverse": ' * 1000 + json.dumps(_TWIST) + "}" * 1000,
    '{"inverse": ' * 150 + json.dumps(_TWIST) + "}" * 150,
], ids=["brackets", "inverse-chain", "past-the-limit"])
def test_deeply_nested_spec_exit2(spec):
    run = _cli_subprocess("compose", spec)
    assert run.returncode == 2, run.stderr
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert "spec nested too deeply" in run.stderr


@pytest.mark.parametrize("spec", [
    "a1+b1+a1-b1-",
    json.dumps({"bp": {"gamma": "a1+", "c": "b2+a2+b2-a2-"}}),
], ids=["twist", "bounding-pair"])
def test_compose_below_degree2_exit3(capsys, spec):
    # a degree-1 table never computes theta_2, which the leading part needs
    code, out, err = run(capsys, "compose", spec, "--degree", "1")
    assert code == 3 and out == ""
    assert err.startswith("capability error")


def test_compose_power0_twist_at_degree2(capsys):
    spec = json.dumps({"twist": {"lift": "a1+b1+a1-b1-", "power": 0}})
    code, out, _ = run(capsys, "compose", spec, "--degree", "2")
    assert code == 0
    assert "degrees 5..4" in out


@pytest.mark.parametrize("argv", [
    ["verify", "theorem-b", "--degree", "2"],
    ["R", "a1+b1+a1-b1-", "--degree", "3"],
])
def test_uncomputed_degree_exit3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "degree-4 part was never computed" in err


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
    ["verify", "lower-bounds", "--max-genus", "31"],
    ["verify", "theorem-b", "--genus", "31"],
    ["verify", "sp-kernel", "--genus", "17"],
    ["verify", "symplectic", "--genus", "31"],
    ["theta", "a1+", "--genus", "31"],
    ["compose", "a1+b1+a1-b1-", "--genus", "31"],
    ["verify", "sp-kernel", "--genus", "2"],
])
def test_out_of_range_genus_exit3(argv):
    run = _cli_subprocess(*argv)
    assert run.returncode == 3, run.stderr
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert "capability error" in run.stderr


@pytest.mark.parametrize("argv", [
    ["theta", "a1+b1+", "--degree", "3"],
    ["verify", "symplectic", "--genus", "2"],
    ["verify", "theorem-b", "--genus", "3"],
    ["compose", _TWIST_SPEC, "--genus", "3", "--degree", "4"],
    ["R", _R_SPEC, "--genus", "3", "--degree", "4"],
], ids=["theta", "symplectic", "theorem-b", "compose", "R"])
def test_bch_under_optimize(argv):
    # BCH, theta and the graded group operations rest on no assert, so
    # python -O computes the same products
    plain, optimized = _cli_subprocess(*argv), _cli_subprocess(*argv, optimize=True)
    assert plain.returncode == 0, plain.stderr
    assert (optimized.returncode, optimized.stdout) == (0, plain.stdout)


def test_sp_kernel_limit_refused_before_work(capsys, monkeypatch):
    def work(*args):
        raise AssertionError("sp-kernel started work above its genus limit")
    monkeypatch.setattr(cli, "verify_kernel_lemma", work)
    monkeypatch.setattr(cli, "verify_ses", work)
    code, out, err = run(capsys, "verify", "sp-kernel", "--genus",
                         str(cli._SP_KERNEL_MAX_GENUS + 1))
    assert code == 3 and out == ""
    assert f"up to genus {cli._SP_KERNEL_MAX_GENUS}" in err


def test_text_verdicts_stream_before_an_error(capsys, monkeypatch):
    # main writes each verdict as the handler yields it: the genus-2 line is
    # out before the genus-3 bounds are even computed
    real = cli.lower_bound_exponents
    written = []

    def fail_at_genus3(g):
        if g == 3:
            written.append(capsys.readouterr().out)
            raise DegreeCapError("stop at genus 3")
        return real(g)
    monkeypatch.setattr(cli, "lower_bound_exponents", fail_at_genus3)
    code, out, err = run(capsys, "verify", "lower-bounds", "--max-genus", "4")
    assert written == ["PASS g=2: bordered 2^16, closed 2^0\n"]
    assert (code, out, err) == (3, "", "capability error: stop at genus 3\n")


def test_lower_bounds_limit_refused_before_work(capsys, monkeypatch):
    def work(*args):
        raise AssertionError("lower-bounds started work above its genus limit")
    monkeypatch.setattr(cli, "lower_bound_exponents", work)
    monkeypatch.setattr(cli, "get_context", work)
    code, out, err = run(capsys, "verify", "lower-bounds", "--max-genus",
                         str(cli._MAX_GENUS + 1))
    assert code == 3 and out == ""
    assert f"up to genus {cli._MAX_GENUS}" in err


_TOO_HIGH = str(cli._MAX_GENUS + 1)


@pytest.mark.parametrize("argv", [
    ["verify", "theorem-b", "--genus", _TOO_HIGH],
    ["verify", "lcst", "--genus", _TOO_HIGH,
     "--md", ",".join(["2", "2", "2"] + ["0"] * (2 * int(_TOO_HIGH) - 3))],
    ["R", "a1+a2+b1+a2-a1-b1-", "--genus", _TOO_HIGH, "--degree", "4"],
    ["verify", "symplectic", "--genus", _TOO_HIGH],
    ["theta", "-", "--genus", _TOO_HIGH],
    ["compose", "a1+b1+a1-b1-", "--genus", _TOO_HIGH],
], ids=["theorem-b", "lcst-md", "R", "symplectic", "theta", "compose"])
def test_degree4_limit_refused_before_work(capsys, monkeypatch, argv):
    # the degree-4 commands share their genus limit with the commands that
    # only evaluate the expansion
    def work(*args):
        raise AssertionError("a command started work above its genus limit")
    monkeypatch.setattr("sys.stdin", None)
    for name in ("get_table", "theorem_b_report", "lcst_component_diagonal",
                 "_load_spec", "parse_word", "symplectic_check"):
        monkeypatch.setattr(cli, name, work)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert f"up to genus {cli._MAX_GENUS}" in err


def test_theorem_b_outside_the_lattice_is_a_mismatch(capsys, monkeypatch):
    # a degree-4 value that the lattice presentation cannot write fails its
    # stages (exit 1); it is not malformed input (exit 2)
    from torelli import trees
    monkeypatch.setattr(trees, "solve_integer_combination",
                        lambda *args, **kwargs: None)
    code, out, err = run(capsys, "verify", "theorem-b", "--genus", "3")
    assert code == 1 and err == ""
    assert "FAIL tau4-integral" in out and "FAIL varpi-class" in out
    assert "PASS R-nonzero" in out


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


# --- fuzzing of the two input grammars --------------------------------------

def _main_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


_word_text = st.one_of(
    st.lists(st.sampled_from(["a1+", "a1-", "b1+", "b1-", "a2+", "a2-", "b2+",
                              "b2-", "a3+", "c1+", "a1", "+", " "]),
             max_size=10).map("".join),
    st.text(max_size=20))


@seed(SEED)
@settings(max_examples=200, deadline=None)
@given(_word_text.filter(lambda t: t != "-"))
def test_fuzz_theta_words(text):
    # "--" keeps a word that starts with "-" from being read as an option
    assert _main_code(["theta", "--genus", "2", "--degree", "2", "--", text]) \
        in (0, 2, 3)


_junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                  st.text(max_size=4), st.just([]), st.just({}))
_lifts = st.sampled_from(["a1+b1+a1-b1-", "a2+b2+a2-b2-", "b2+a2+b2-a2-",
                          "a1+b1+a1-b1-a2+b2+a2-b2-"])
_spec_words = st.one_of(_lifts, st.sampled_from(["a1+", "b2-", "", "a3+",
                                                 "a1+ x"]), _junk)
_powers = st.one_of(st.integers(-2, 2), _junk)


def _kind(name, body):
    return body.map(lambda b: {name: b})


def _mostly(good, bad):
    """good four times in five: deep specs are evaluated, not only parsed."""
    return st.integers(0, 4).flatmap(lambda i: bad if i == 0 else good)


_good_leaves = st.one_of(
    _kind("twist", st.fixed_dictionaries({"lift": _lifts},
                                         optional={"power": st.integers(-2, 2)})),
    _kind("bp", st.fixed_dictionaries({"gamma": _spec_words, "c": _lifts})))
_bad_leaves = st.one_of(
    _kind("twist", st.fixed_dictionaries(
        {}, optional={"lift": _spec_words, "power": _powers})),
    _kind("bp", st.fixed_dictionaries(
        {}, optional={"gamma": _spec_words, "c": _spec_words,
                      "power": _powers})),
    st.builds(lambda kind, body: {kind: body},
              st.sampled_from(["twist", "bp", "conjugate", "product",
                               "commutator", "inverse", "bogus"]), _junk),
    _junk)


def _nest(sub):
    good = st.one_of(
        st.lists(sub, min_size=1, max_size=3),
        _kind("product", st.lists(sub, min_size=1, max_size=3)),
        _kind("commutator", st.lists(sub, min_size=2, max_size=2)),
        _kind("conjugate", st.fixed_dictionaries({"by": sub, "arg": sub})),
        _kind("inverse", sub))
    bad = st.one_of(
        _kind("product", st.just([])),
        _kind("commutator", st.lists(sub, max_size=3)),
        _kind("conjugate", st.fixed_dictionaries(
            {}, optional={"by": sub, "arg": sub})),
        st.dictionaries(st.sampled_from(["twist", "inverse", "x"]), sub,
                        max_size=2))
    return _mostly(good, bad)


# A spec: a JSON array or object, built from the spec grammar with some
# junk values: wrong types, missing keys, bad words, floats, bools, empty lists.
_specs = st.recursive(_mostly(_good_leaves, _bad_leaves),
                      _nest, max_leaves=6).filter(
    lambda spec: isinstance(spec, (list, dict)))


@seed(SEED)
@settings(max_examples=200, deadline=None)
@given(_specs)
def test_fuzz_compose_specs(spec):
    assert _main_code(["compose", "--genus", "2", "--degree", "2",
                       json.dumps(spec)]) in (0, 2, 3)


@pytest.mark.parametrize("argv", [
    ["ranks", "--degree", "9"],
    ["verify", "sp-kernel", "--degree", "7"],
    ["verify", "lcst", "--degree", "9"],
    ["verify", "lcst", "--genus", "1", "--degree", "9"],
    ["verify", "lower-bounds", "--genus", "31"],
    ["verify", "lower-bounds", "--max-genus", "3", "--degree", "3"],
])
def test_ignored_option_exit2_before_work(capsys, monkeypatch, argv):
    # a command takes only the options it uses, so argparse refuses the rest
    def work(*args):
        raise AssertionError("a command started work on an ignored option")
    for name in ("witt_rank", "verify_kernel_lemma", "verify_ses",
                 "lcst_full_diagonals", "lower_bound_exponents"):
        monkeypatch.setattr(cli, name, work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in captured.err
