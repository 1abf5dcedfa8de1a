import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ybx import cli, tensors, trig
from ybx.catalog import example_structure
from ybx.cli import main, report_payload
from ybx.perms import Permutation, format_cycles, parse_cycles
from ybx.scalars import RATIONAL, derive_rng
from ybx.surface import build_surface
from ybx.trig import CheckReport, PoleError, TrigSolution, check_skew

FP = "fp:2305843009213693951"
# c1 = (1 4 2 3) and c2 = (1 2 3 4) do not commute at the point of A
NONCOMMUTING = {"n": 4, "c1": [3, 2, 0, 1], "c2": [1, 2, 3, 0], "a": [0]}


@pytest.fixture()
def abd_file(tmp_path):
    path = tmp_path / "ex.json"
    path.write_text(json.dumps(example_structure().to_json_dict()))
    return str(path)


@pytest.fixture()
def bundle_file(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"r": 2, "n": 1, "m": [[0], [1]], "lambda": "1/1"}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate(abd_file, capsys):
    code, out = run(capsys, "validate", "--abd", abd_file)
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_rejects_bad_structure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(NONCOMMUTING))
    code, out = run(capsys, "validate", "--abd", str(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violations"] == ["c1 and c2 do not commute at {1}"]


def test_surface_command(abd_file, capsys):
    code, out = run(capsys, "surface", "--abd", abd_file)
    assert code == 0
    assert json.loads(out) == {
        "b": 2,
        "b_k": {"1": 1, "3": 1},
        "chi": -4,
        "genus": 2,
        "fillable": [2],
        "connected": True,
    }


def test_check_aybe_command(abd_file, capsys):
    code, out = run(
        capsys, "check-aybe", "--abd", abd_file, "--points", "3",
        "--seed", "7", "--field", FP,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["checks"][0] == {
        "check": "aybe",
        "points": 3,
        "failures": 0,
        "pass": True,
        "seed": 7,
        "backend": FP,
    }


def test_check_aybe_mutation_fails(abd_file, capsys):
    code, out = run(
        capsys, "check-aybe", "--abd", abd_file, "--points", "3", "--field", FP,
        "--mutate",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_reports_are_deterministic(abd_file, capsys):
    args = ("check-aybe", "--abd", abd_file, "--points", "2", "--field", FP)
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_residues_command(abd_file, capsys):
    code, out = run(capsys, "residues", "--abd", abd_file, "--field", FP)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_cybe_qybe_hat_commands(abd_file, capsys):
    for cmd in ("cybe", "qybe", "hat"):
        code, out = run(
            capsys, cmd, "--abd", abd_file, "--points", "2", "--field", FP
        )
        assert code == 0, (cmd, out)
        assert json.loads(out)["pass"] is True


def test_massey_compare(abd_file, capsys):
    code, out = run(capsys, "massey", "--abd", abd_file, "--compare", "--field", FP)
    assert code == 0
    assert json.loads(out)["matches_closed_form"] is True


def test_build_r_command(abd_file, capsys):
    code, out = run(capsys, "build-r", "--abd", abd_file, "--field", "q")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4 and len(payload["entries"]) > 0


def test_novikov_command(capsys):
    code, out = run(capsys, "novikov", "--u", "1.0", "--v", "1.2", "--terms", "60")
    assert code == 0
    assert json.loads(out)["abs_error"] < 1e-10


def test_bundle_command(bundle_file, capsys):
    code, out = run(capsys, "bundle", "--in", bundle_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["simple"] is True
    assert payload["abd"] == {"n": 2, "c1": [1, 0], "c2": [1, 0], "a": [1]}
    assert payload["c2_power_of_c1"] is True


def test_bundle_emit_abd(bundle_file, capsys):
    code, out = run(capsys, "bundle", "--in", bundle_file, "--emit-abd")
    assert code == 0
    assert json.loads(out) == {"n": 2, "c1": [1, 0], "c2": [1, 0], "a": [1]}


def test_abd_iso_command(tmp_path, capsys):
    s = example_structure()
    f1 = tmp_path / "s1.json"
    f2 = tmp_path / "s2.json"
    f1.write_text(json.dumps(s.to_json_dict()))
    from ybx.perms import relabel_abd

    f2.write_text(
        json.dumps(relabel_abd(s, Permutation((1, 2, 3, 0))).to_json_dict())
    )
    code, out = run(capsys, "abd-iso", str(f1), str(f2))
    assert code == 0
    assert json.loads(out)["isomorphic"] is True


def test_suite_small(capsys):
    code, out = run(
        capsys, "suite", "--nmax", "2", "--points", "2", "--field", FP
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(c["pass"] for c in payload["checks"])


def test_suite_determinism(capsys):
    args = ("suite", "--nmax", "2", "--points", "2", "--field", FP)
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_suite_mutation_reports_failures(capsys):
    code, out = run(
        capsys, "suite", "--nmax", "2", "--points", "2", "--field", FP,
        "--mutate", "one-coefficient",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["mutation_mode"] is True
    assert payload["failures_reported"] >= 1


def test_text_format(abd_file, capsys):
    code, out = run(
        capsys, "check-aybe", "--abd", abd_file, "--points", "2", "--field", FP,
        "--format", "text",
    )
    assert code == 0
    assert "check" in out and "aybe" in out


def test_report_payload_empty():
    assert report_payload([]) == {"checks": [], "pass": True}


def test_report_payload_failing():
    rep = CheckReport(check="x", points=1, failures=1, seed=0, backend="q")
    payload = report_payload([rep])
    assert payload["pass"] is False


def test_report_timing_nonnegative():
    # a real run is timed; the timing shows only when asked for
    rep = check_skew(TrigSolution(example_structure()), 2, 7, RATIONAL)
    assert rep.elapsed_ms > 0
    assert rep.to_json_dict(with_timing=True)["elapsed_ms"] == rep.elapsed_ms
    assert "elapsed_ms" not in rep.to_json_dict()


def test_parser_roundtrip_corpus():
    rng = derive_rng(8, "parser-corpus")
    for _ in range(1000):
        n = rng.randrange(1, 9)
        images = list(range(n))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert parse_cycles(format_cycles(p), n) == p



def _assert_one_error_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.mark.parametrize("content, command", [
    (None, ["check-aybe", "--abd"]),
    (None, ["bundle", "--in"]),
    ("{n: 4", ["check-aybe", "--abd"]),
    ({"n": 4, "c1": [3, 2, 0, 1]}, ["check-aybe", "--abd"]),
    ({"n": 4, "c1": 5, "c2": [1, 2, 3, 0], "a": []}, ["validate", "--abd"]),
    ([4, [3, 2, 0, 1]], ["surface", "--abd"]),
    ({"r": 2, "n": 1}, ["bundle", "--in"]),
    ({"r": 2, "n": 1, "m": [0, 1]}, ["bundle", "--in"]),
    (NONCOMMUTING, ["check-aybe", "--abd"]),
    ('{"n": 1e400, "c1": [1, 0], "c2": [1, 0], "a": []}', ["validate", "--abd"]),
    ('{"n": 2, "c1": [1, 0], "c2": [1, 0], "a": [Infinity]}', ["validate", "--abd"]),
    ('{"r": 1e400, "n": 1, "m": [[0], [1]]}', ["bundle", "--in"]),
    ('{"r": 2, "n": 1, "m": [[0], [Infinity]]}', ["bundle", "--in"]),
    ({"r": 2, "n": 1, "m": [[0], [1]], "lambda": "1/0"}, ["bundle", "--in"]),
    ('{"r": 2, "n": 1, "m": [[0], [1]], "lambda": Infinity}', ["bundle", "--in"]),
    # a float, a bool or a numeric string in an integer field is rejected,
    # not truncated or converted
    ({"n": 2, "c1": [1.0, 0.0], "c2": [1, 0], "a": []}, ["validate", "--abd"]),
    ({"n": 2.5, "c1": [1, 0], "c2": [1, 0], "a": []}, ["validate", "--abd"]),
    ({"n": 2, "c1": [1, 0], "c2": [1, 0], "a": [0.7]}, ["validate", "--abd"]),
    ({"n": True, "c1": [0], "c2": [0], "a": []}, ["validate", "--abd"]),
    ({"n": "2", "c1": [1, 0], "c2": [1, 0], "a": []}, ["validate", "--abd"]),
    ({"r": 2, "n": 1, "m": [[0], [1.5]]}, ["bundle", "--in"]),
    ({"n": 2, "c1": [0, 0], "c2": [1, 0], "a": []}, ["validate", "--abd"]),
    ({"r": 2, "n": 1, "m": [[0], [1]], "lambda": "one half"}, ["bundle", "--in"]),
    ({"r": 1, "n": 2, "m": [[0, 1]], "lambda": True}, ["bundle", "--in"]),
    ({"n": 4, "c1": [3, 2, 0, 1], "c2": [1, 2, 3, 0], "a": [2, 2]}, ["validate", "--abd"]),
    # a top level that is not a JSON object, and a key that to_json_dict
    # does not write, are rejected, not misread or ignored
    ([1, 2], ["validate", "--abd"]),
    ('"x"', ["validate", "--abd"]),
    ([1, 2], ["bundle", "--in"]),
    ('"x"', ["bundle", "--in"]),
    ({"n": 1, "c1": [0], "c2": [0], "a": [], "A": [0]}, ["validate", "--abd"]),
    ({"r": 2, "n": 1, "m": [[0], [1]], "lamda": "2/1"}, ["bundle", "--in"]),
], ids=["missing-abd", "missing-bundle", "not-json", "missing-key", "wrong-type",
        "not-an-object", "bundle-missing-key", "bundle-wrong-type", "invalid-structure",
        "huge-n", "infinite-a", "huge-r", "infinite-m", "zero-lambda-denominator",
        "infinite-lambda", "float-c1", "float-n", "float-a", "bool-n", "string-n",
        "float-m", "non-bijective-c1", "unparsable-lambda", "bool-lambda", "dup-a",
        "array-abd", "string-abd", "array-bundle", "string-bundle", "unknown-abd-key",
        "unknown-bundle-key"])
def test_bad_input_file_is_one_error_line(content, command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    line = _assert_one_error_line(capsys, command + [str(path)])
    assert str(path) in line, line


@pytest.mark.parametrize("content, command, named", [
    ([1, 2], ["validate", "--abd"], "must be a JSON object with keys n, c1, c2, a"),
    ('"x"', ["bundle", "--in"], "must be a JSON object with keys r, n, m, lambda"),
    ({"n": 1, "c1": [0], "c2": [0], "a": [], "A": [0]}, ["validate", "--abd"],
     "unknown key 'A'"),
    ({"r": 2, "n": 1, "m": [[0], [1]], "lamda": "2/1"}, ["bundle", "--in"], "unknown key 'lamda'"),
], ids=["array-abd", "string-bundle", "unknown-abd-key", "unknown-bundle-key"])
def test_bad_input_file_names_the_expected_object(content, command, named, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    assert named in _assert_one_error_line(capsys, command + [str(path)])


@pytest.mark.parametrize("field", ["fp:abc", "fp:", "fp:0x7", "garbage", "fp:+1_000_000_007",
                                   "fp: 7", "fp:7 ", "fp:-7", "fp:\u0667"])
def test_unknown_field_is_one_error_line(field, abd_file, capsys):
    line = _assert_one_error_line(capsys, ["check-aybe", "--abd", abd_file, "--field", field])
    assert line == "error: unknown field %r (expected 'q' or 'fp:<prime>')" % field


def test_python_dash_m_runs_the_cli(abd_file, tmp_path):
    # `python -m ybx` from a checkout: the package's parent directory on the path
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def ybx(*argv):
        return subprocess.run([sys.executable, "-m", "ybx", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    ok = ybx("validate", "--abd", abd_file)
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["valid"] is True
    missing = ybx("validate", "--abd", str(tmp_path / "missing.json"))
    assert missing.returncode == 2 and missing.stderr.startswith("error: cannot read ")


@pytest.mark.parametrize("argv, message", [
    (["suite", "--nmax", "0", "--points", "1", "--field", FP], "--nmax must be between 1 and 4"),
    (["suite", "--nmax", "5", "--points", "1", "--field", FP], "--nmax must be between 1 and 4"),
    # with no guard, zero points would be a vacuous pass
    (["check-aybe", "--abd", "{abd}", "--points", "0"], "--points must be >= 1"),
    (["check-aybe", "--abd", "{abd}", "--points", "-1"], "--points must be >= 1"),
    (["suite", "--points", "0"], "--points must be >= 1"),
], ids=["0", "5", "check-aybe-points-0", "check-aybe-points-negative", "suite-points-0"])
def test_suite_nmax_out_of_range_is_one_error_line(argv, message, abd_file, capsys):
    # main's range guards on --nmax and --points
    line = _assert_one_error_line(capsys, [a.format(abd=abd_file) for a in argv])
    assert line == "error: " + message


@pytest.mark.parametrize("flag, value", [
    ("--u", "nan"), ("--v", "nan"), ("--u", "inf"), ("--v", "-inf"), ("--u", "1+nanj"),
    ("--tolerance", "nan"), ("--tolerance", "inf"),
    # finite, but 1 - e^-u rounds to 0, so the closed form cannot be taken
    ("--u", "1e-17"), ("--v", "1e-17"),
])
def test_novikov_non_finite_input_is_one_error_line(flag, value, capsys):
    _assert_one_error_line(capsys, ["novikov", "%s=%s" % (flag, value)])


@pytest.mark.parametrize("value", ["0", "-0.0", "-1"])
def test_novikov_non_positive_tolerance_is_one_error_line(value, capsys):
    # no error is below such a tolerance, so every input would fail with exit 1
    _assert_one_error_line(capsys, ["novikov", "--tolerance=%s" % value])


def test_pole_error_is_one_error_line(abd_file, capsys, monkeypatch):
    def no_point(*args, **kwargs):
        raise PoleError("could not find a pole-free sample tuple")

    monkeypatch.setattr(cli, "check_aybe", no_point)
    _assert_one_error_line(capsys, ["check-aybe", "--abd", abd_file, "--field", FP])


# (flags, exit code, stdout sha256): an honest run exits 0, a mutated one 1
SUITE_PINS = [
    (["--field", FP], 0, "d97c7db4f88b9548bd856de01d9f0733260aa72f8bbcf27dbec80bd196186eaa"),
    (["--field", "q"], 0, "d6581b8f8159909e763e141f2b60abde02b4c5ea7f7b7324dd761b72af86e84c"),
    (["--field", FP, "--mutate", "one-coefficient"], 1,
     "509e3428508c3abfa156a076fd6802da6545f3ead777b5773933888aa6d9587b"),
    # the one row whose q residuals have nonzero entries
    (["--field", "q", "--mutate", "one-coefficient"], 1,
     "e51d02591e5b1ca75ef7ec1ed4c9e6b56790f9bdc35c0c0e4bc96c7ae7a9a49f"),
]


def _pinned_suite_run(capsys, extra):
    """(exit code, stdout sha256) of the small pinned suite run."""
    code, out = run(capsys, "suite", "--nmax", "3", "--points", "3", "--seed", "7", *extra)
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("extra, code, sha256", SUITE_PINS,
                         ids=["fp", "q", "fp-mutated", "q-mutated"])
def test_suite_bytes_are_pinned(extra, code, sha256, capsys):
    # a small-size twin of the `ybx suite --points 25 --seed 7` behaviour contract
    assert _pinned_suite_run(capsys, extra) == (code, sha256)


def test_suite_bytes_stay_pinned_with_a_warm_memo(capsys):
    # fp from cold memos, then q, then fp again reading the memos warm, then
    # fp mutated: a mutation keeps the honest jobs, so it compiles from the
    # honest runs' plans and adds no plan.  Then fp honest once more: every
    # run reads the points' shared price tables, so a reader that changed
    # one (a mutation writing its extra value into it) would move these bytes
    for memo in (trig._points, trig._weights, tensors._plan):
        memo.cache_clear()
    fp, q, mutated = SUITE_PINS[:3]
    got = [_pinned_suite_run(capsys, args) for args, _, _ in (fp, q, fp)]
    assert got == [pin[1:] for pin in (fp, q, fp)]
    assert trig._points.cache_info().hits > 0
    assert tensors._plan.cache_info().hits > 0
    misses = tensors._plan.cache_info().misses
    assert _pinned_suite_run(capsys, mutated[0]) == mutated[1:]
    assert tensors._plan.cache_info().misses == misses
    assert _pinned_suite_run(capsys, fp[0]) == fp[1:]


@pytest.mark.parametrize("field, sha256", [
    ("q", "42d6c16e592f47cb506920c977f2ba582a2c74e5e643ce6b1bf39be6dd9d59bf"),
    (FP, "5117567272db5383bf8f70361d2f31ff58b96861416080ffbbea7fb67744f5f0"),
], ids=["q", "fp"])
def test_build_r_bytes_are_pinned(field, sha256, abd_file, capsys):
    # pins the entries of r for the worked example independently of the
    # Massey assembly, which reads the same rectangle-family table
    _, out = run(capsys, "build-r", "--abd", abd_file, "--field", field, "--seed", "7")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# (argv, exit code, stdout sha256); {abd} is the worked example, {bundle}
# a simple rank-2 bundle, and --seed is 7 where a command reads it
SINGLE_CHECK_PINS = [
    (["cybe", "--abd", "{abd}", "--field", "q"], 0,
     "f851facfe935d45a62d22f8a8c6dba50e5cf7195da8b708c7409292fee54fa48"),
    (["qybe", "--abd", "{abd}", "--field", "q"], 0,
     "f5442e696997946c27da5c4e5966bcfc41bedc04408119224dd65f520ab4513a"),
    (["hat", "--abd", "{abd}", "--field", "q"], 0,
     "77f2006358cb18a5307753402e2066d7db36228fd383a377adad486bc963f656"),
    (["check-aybe", "--abd", "{abd}", "--mutate", "--field", "q"], 1,
     "f4a6476e72f442c78aa7fbdf142a6be081d7d50dd00e46e66bee3dd218772b44"),
    (["check-skew", "--abd", "{abd}", "--mutate", "--field", "q"], 1,
     "8cfd4bf786c5501e2138948c05d938c2be56f555c5fad268ebcd055dc24ae10d"),
    (["cybe", "--abd", "{abd}", "--field", FP], 0,
     "bea1b2b635504b4bb3445810d04149a4a63e33803459e0dc0e38e2f99245d9ff"),
    (["qybe", "--abd", "{abd}", "--field", FP], 0,
     "c2b25f061009fd6e4e0088718e017771278582e42d3148e01613d778736d97d4"),
    (["hat", "--abd", "{abd}", "--field", FP], 0,
     "f1f32e355216e64a04d48362a1e4538654c28f7287a0725a158a2f390b047568"),
    (["check-aybe", "--abd", "{abd}", "--mutate", "--field", FP], 1,
     "9bc069179f9278b15f1f573b8aaccb656fc95ff5b5efd71c6af145e2df3508f7"),
    (["check-skew", "--abd", "{abd}", "--mutate", "--field", FP], 1,
     "c540255ca52bfad6c5ac1b59800c32883d807fc247e7e3102e74ef0df94901ed"),
    # --format text, which prints each payload in its key order
    (["validate", "--abd", "{abd}", "--format", "text"], 0,
     "9188f651a4718acebf72939ab34d12cfcd475927341ae8a93fdec0689243bbb5"),
    (["residues", "--abd", "{abd}", "--format", "text"], 0,
     "5eaf642d579688e0dc50d5a30b6336aeaa093af04ad6de4c6041d3d3641f968f"),
    (["massey", "--abd", "{abd}", "--compare", "--format", "text"], 0,
     "61816aa774fc7f6b4102336a5991438bce9bcb03d8d56c534117f9fac681531f"),
    # every float is an exact 0 at this u, whatever the platform's exp
    (["novikov", "--u", "1000", "--format", "text"], 0,
     "793bbd20977e8825a54ed8bdb7e4b25f96a7112b8061b776882341f2b39e1a72"),
    (["bundle", "--in", "{bundle}", "--format", "text"], 0,
     "f18b75e7c64d458346e8288bf18a2323e628c0f7ceb8700528b0e023bca4693a"),
    (["abd-iso", "{abd}", "{abd}", "--format", "text"], 0,
     "f51a18d0a00225f4e50c667e2ebd242396e569d8c35d518ed8e21efd1795da0d"),
    (["check-aybe", "--abd", "{abd}", "--format", "text"], 0,
     "ebb878d3945ea6ce4b53af1992b965a2208257eb2ea4e21a20e6388bde3fe1e7"),
]


def _pin_id(argv):
    """``cybe q`` for ``cybe --abd {abd} --field q``."""
    return " ".join(a for a in argv if a not in ("--abd", "{abd}", "--field")).replace(FP, "fp")


@pytest.mark.parametrize("argv, code, sha256", SINGLE_CHECK_PINS,
                         ids=[_pin_id(argv) for argv, _, _ in SINGLE_CHECK_PINS])
def test_single_check_bytes_are_pinned(argv, code, sha256, abd_file, bundle_file, capsys):
    # the CYBE, QYBE/unitarity and hat checks and the mutated AYBE and skew
    # checks of the worked example, each on its own (the suite pins reach
    # only the n <= 3 corpus), and each command's text format
    status, out = run(capsys, *[a.format(abd=abd_file, bundle=bundle_file) for a in argv])
    assert (status, hashlib.sha256(out.encode()).hexdigest()) == (code, sha256)


@pytest.mark.parametrize("command, flag", [
    (["novikov"], ["--field", "garbage"]),
    (["novikov"], ["--jet-order", "99"]),
    (["validate", "--abd", "{abd}"], ["--points", "0"]),
    (["surface", "--abd", "{abd}"], ["--seed", "3"]),
    (["build-r", "--abd", "{abd}"], ["--points", "2"]),
    (["residues", "--abd", "{abd}"], ["--jet-order", "4"]),
    (["residues", "--abd", "{abd}"], ["--seed", "3"]),
    (["massey", "--abd", "{abd}"], ["--points", "2"]),
    (["cybe", "--abd", "{abd}"], ["--jet-order", "4"]),
    (["bundle", "--in", "{abd}"], ["--field", "q"]),
    (["abd-iso", "{abd}", "{abd}"], ["--seed", "1"]),
    (["suite"], ["--jet-order", "4"]),
], ids=lambda x: " ".join(x).replace("{abd}", "x.json"))
def test_flag_the_command_does_not_read_is_rejected(command, flag, abd_file, capsys):
    argv = [a.format(abd=abd_file) for a in command + flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(flag) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["novikov", "--field", "garbage"],
    ["suite", "--points", "x"],
    ["check-aybe", "--abd", "f", "--format", "xml"],
], ids=" ".join)
def test_usage_error_is_one_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("flag, value", [("--u", "abc"), ("--v", "1+")])
def test_novikov_malformed_complex_names_its_flag(flag, value, capsys):
    # complex() of the raw string raised "complex() arg is a malformed
    # string", which named no flag
    with pytest.raises(SystemExit) as exc:
        main(["novikov", flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", "error: argument %s: invalid complex value: '%s'\n" % (flag, value))


def test_novikov_large_u_does_not_overflow(capsys):
    code, out = run(capsys, "novikov", "--u", "1000")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_suite_surface_euler_fails_when_the_corner_walk_loses_a_corner(fp, monkeypatch):
    s = example_structure()
    check = "surface-euler[%s]" % s.label()

    def lossy(abd):
        surf = build_surface(abd)
        first, *rest = surf.orbits
        first = dataclasses.replace(first, corners=first.corners[:-1])
        return dataclasses.replace(surf, orbits=(first, *rest))

    assert {r.check: r.passed for r in cli.run_suite([s], 1, 7, fp)}[check]
    monkeypatch.setattr(cli, "build_surface", lossy)
    assert not {r.check: r.passed for r in cli.run_suite([s], 1, 7, fp)}[check]
