import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import SEED, run_python
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
]


@pytest.mark.parametrize("spec, path", _BAD_FACTORS,
                         ids=[f"spec{i}" for i in range(len(_BAD_FACTORS))])
def test_compose_bad_factor_exit2(capsys, spec, path):
    code, _, err = run(capsys, "compose", json.dumps(spec))
    assert code == 2
    assert err.startswith(f"input error: {path}: ")


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


def _cli_subprocess(*argv, optimize=False):
    return run_python("-m", "torelli.cli", *argv, optimize=optimize)


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
], ids=["theta", "symplectic", "theorem-b"])
def test_bch_under_optimize(argv):
    # the constant-term checks of t_exp/t_log are explicit, so python -O
    # computes the same BCH products
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
