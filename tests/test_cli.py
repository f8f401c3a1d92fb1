import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import discflow
from discflow.cli import main


def write_params(tmp_path, name="params.json", **kwargs):
    path = tmp_path / name
    payload = {k: str(v) for k, v in kwargs.items()}
    path.write_text(json.dumps(payload))
    return str(path)


class TestDecide:
    def test_global_exit_zero(self, tmp_path, capsys):
        params = write_params(tmp_path, b1="1", c1="-4", d1="3")
        code = main(["decide", "--params", params])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["verdict"] == "global-center"
        assert out["global"]["statements"] == ["a"]
        assert "i" in out["center"]["cases"]

    def test_center_not_global_exit_one(self, tmp_path, capsys):
        params = write_params(tmp_path, b1="-1", c1="4", d1="-3")
        code = main(["decide", "--params", params])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["verdict"] == "center-not-global"

    def test_no_center_exit_two(self, tmp_path, capsys):
        params = write_params(tmp_path, c2="1")
        code = main(["decide", "--params", params])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "no-center"

    def test_malformed_json_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["decide", "--params", str(bad)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "error" in captured.err

    def test_schema_violation_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"a1": 0.25}')
        assert main(["decide", "--params", str(bad)]) == 3
        bad.write_text('{"q9": "1"}')
        assert main(["decide", "--params", str(bad)]) == 3
        capsys.readouterr()

    def test_missing_file_exit_three(self, tmp_path):
        assert main(["decide", "--params", str(tmp_path / "none.json")]) == 3

    def test_out_file(self, tmp_path):
        params = write_params(tmp_path)
        out_path = tmp_path / "report.json"
        code = main(["decide", "--params", params, "--out", str(out_path)])
        assert code == 0
        assert json.loads(out_path.read_text())["verdict"] == "global-center"


class TestCompactify:
    def test_chart_output(self, tmp_path, capsys):
        params = write_params(tmp_path, b1="1", c1="-4", d1="3")
        code = main(["compactify", "--params", params, "--chart", "u1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["chart_field"]["chart"] == "U1"
        assert out["chart_field"]["n_used"] == 3
        assert out["chart_field"]["u_dot"] == "-u^2*v^2 - 8*u^2 - v^2"
        assert out["chart_field"]["v_dot"] == "-u*v^3 - 4*u*v"
        assert out["infinity"]["line_of_equilibria"] is False

    def test_unknown_chart(self, tmp_path, capsys):
        params = write_params(tmp_path)
        assert main(["compactify", "--params", params, "--chart", "w9"]) == 3
        capsys.readouterr()


class TestBlowup:
    def test_chain_stages(self, tmp_path, capsys):
        params = write_params(tmp_path, b1="1", c1="-4", d1="3")
        code = main([
            "blowup", "--params", params, "--chart", "u1",
            "--steps", "blowup,rescale:u:1",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["chart"] == "U1"
        assert [s["op"] for s in out["steps"]] == ["blowup", "rescale"]
        assert out["steps"][1]["v_dot"] == "v^3 + 4*v"

    def test_line_rescale_stage(self, tmp_path, capsys):
        params = write_params(tmp_path, a1="1", b1="-1", d1="1")
        code = main([
            "blowup", "--params", params, "--chart", "u1", "--steps", "rescale:v:1",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["steps"][0]["u_dot"] == "-u^2*v - 3*u^2 - v + 1"

    def test_invalid_step_reports_error(self, tmp_path, capsys):
        params = write_params(tmp_path)
        code = main([
            "blowup", "--params", params, "--chart", "u1", "--steps", "rescale:u:2",
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "chain failed" in captured.err

    @pytest.mark.parametrize(
        ("member", "chart", "steps", "message"),
        [
            ("control", "u2", "rescale:v:1", "term u^2*v^0 is not divisible by v^1"),
            ("control", "u2", "rescale:y:1", "term x^2*y^0 is not divisible by y^1"),
            ("control", "u2", "rescale:z:1", "unknown variable 'z'; expected 'x', 'y', 'u' or 'v'"),
            # U1's origin is no equilibrium of statement (b): the blow-up's division by u fails
            ("b", "u1", "blowup", "term u^0*v^1 is not divisible by u^1"),
        ],
    )
    def test_refused_chain_names_the_variable_given(self, tmp_path, capsys, member, chart, steps, message):
        members = {"control": {"b1": "-1", "c1": "4", "d1": "-3"}, "b": {"b1": "-1", "d1": "-3"}}
        params = write_params(tmp_path, **members[member])
        assert main(["blowup", "--params", params, "--chart", chart, "--steps", steps]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: chain failed: {message}\n"

    def test_malformed_steps(self, tmp_path, capsys):
        params = write_params(tmp_path)
        assert main(["blowup", "--params", params, "--chart", "u1", "--steps", "zoom"]) == 3
        assert main(["blowup", "--params", params, "--chart", "u1", "--steps", ""]) == 3
        capsys.readouterr()


class TestVerify:
    def test_not_global_exit_one(self, tmp_path, capsys):
        params = write_params(tmp_path, b1="-1", c1="4", d1="-3")
        code = main(["verify", "--params", params, "--radii", "1,2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["tag"] == "not-global"
        assert out["witness"] is not None

    def test_trivial_global_exit_zero(self, tmp_path, capsys):
        params = write_params(tmp_path)
        code = main(["verify", "--params", params, "--radii", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["tag"] == "global-center-consistent"

    def test_near_boundary_global_member(self, tmp_path, capsys):
        # 2*b1 + c1 = 0 member: certifiable with modest sample radii (its
        # radius-5 orbit has a log-scale excursion beyond the escape radius)
        params = write_params(tmp_path, b1="1", c1="-2", d1="1")
        code = main(["verify", "--params", params, "--radii", "1/2,1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["tag"] == "global-center-consistent"

    def test_bad_radii(self, tmp_path, capsys):
        params = write_params(tmp_path)
        assert main(["verify", "--params", params, "--radii", "0"]) == 3
        assert main(["verify", "--params", params, "--radii", "abc"]) == 3
        capsys.readouterr()


class TestPortrait:
    def test_svg_structure_and_determinism(self, tmp_path):
        params = write_params(tmp_path, b1="-1", c1="4", d1="-3")
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        for target in (first, second):
            code = main([
                "portrait", "--params", params, "--radii", "1",
                "--out", str(target), "--width", "320", "--height", "320",
            ])
            assert code == 0
        a, b = first.read_bytes(), second.read_bytes()
        assert a == b
        text = a.decode()
        assert text.startswith("<svg")
        assert "<circle" in text and "<polyline" in text
        assert 'stroke="#c53030"' in text  # escaping orbits present

    def test_trivial_center_portrait(self, tmp_path):
        params = write_params(tmp_path)
        target = tmp_path / "disc.svg"
        code = main(["portrait", "--params", params, "--radii", "0.5,1", "--out", str(target)])
        assert code == 0
        text = target.read_text()
        assert 'stroke="#2b6cb0"' in text  # periodic orbits
        assert text.count("<polyline") == 16

    def test_root_past_float_range_marked_at_the_vertical(self, tmp_path):
        # the two U1 roots are +-3/2*sqrt(2.2...e627), about +-7e313: approx() raises there
        params = write_params(tmp_path, b1="1e307", c1="-1e-320")
        target = tmp_path / "big.svg"
        assert main(["portrait", "--params", params, "--radii", "1", "--out", str(target)]) == 0
        lines = list(ET.parse(target).getroot().iter("{http://www.w3.org/2000/svg}line"))
        assert len(lines) == 6  # three infinite equilibria, two marks each
        assert all(line.get("x1") == line.get("x2") == "320.000" for line in lines)


class TestNumericFlags:
    @pytest.mark.parametrize("flag, value", [("--tol", "inf"), ("--max-time", "nan")])
    def test_non_finite_setting_exit_three(self, tmp_path, capsys, flag, value):
        params = write_params(tmp_path, c2="1")
        code = main(["verify", "--params", params, "--radii", "0.5", flag, value])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error:")


def _env_with_src() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(discflow.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_cli_import_leaves_scipy_unloaded():
    probe = "import sys, discflow.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=_env_with_src()).returncode == 0


def test_verify_and_portrait_run_without_scipy_or_numpy(tmp_path):
    # importing either package fails in the subprocess
    run = (
        "import sys; sys.modules['scipy'] = sys.modules['numpy'] = None; "
        "from discflow.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    params = write_params(tmp_path, b1="-1", c1="4", d1="-3")
    svg = tmp_path / "portrait.svg"
    commands = [
        ("verify", "--params", params, "--radii", "1"),
        ("portrait", "--params", params, "--radii", "1", "--out", str(svg)),
    ]
    env = _env_with_src()
    verify, portrait = (
        subprocess.run([sys.executable, "-c", run, *cmd], env=env, capture_output=True, text=True)
        for cmd in commands
    )
    assert verify.returncode == 1, verify.stderr
    assert json.loads(verify.stdout)["tag"] == "not-global"
    assert portrait.returncode == 0, portrait.stderr
    assert ET.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"


def test_compactify_and_verify_run_without_sympy(tmp_path):
    # importing sympy fails in the subprocess; the U1 infinity polynomial of
    # the first member has irrational roots of degree >= 3
    run = (
        "import sys; sys.modules['sympy'] = None; "
        "from discflow.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    interval = write_params(tmp_path, "interval.json", b1="-1", b2="1", c1="-1", d1="-1")
    control = write_params(tmp_path, b1="-1", c1="4", d1="-3")
    commands = [
        ("compactify", "--params", interval, "--chart", "u1"),
        ("verify", "--params", control, "--radii", "1"),
    ]
    env = _env_with_src()
    compactify, verify = (
        subprocess.run([sys.executable, "-c", run, *cmd], env=env, capture_output=True, text=True)
        for cmd in commands
    )
    assert compactify.returncode == 0, compactify.stderr
    assert '"interval"' in compactify.stdout
    assert verify.returncode == 1, verify.stderr


def test_compactify_leaves_sympy_unloaded(tmp_path):
    params = write_params(tmp_path, b1="-1", b2="1", c1="-1", d1="-1")
    probe = (
        "import sys; from discflow.cli import main; "
        f"main(['compactify', '--params', {params!r}, '--out', {str(tmp_path / 'out.json')!r}]); "
        "sys.exit('sympy' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert '"interval"' in (tmp_path / "out.json").read_text()


def test_decide_loads_no_numeric_layer(tmp_path):
    params = write_params(tmp_path, b1="1", c1="-4", d1="3")
    probe = (
        "import sys; from discflow.cli import main; "
        f"code = main(['decide', '--params', {params!r}, '--out', {str(tmp_path / 'out.json')!r}]); "
        "sys.exit(code or ' '.join(m for m in ('flow', 'equilibria', 'portrait') if 'discflow.' + m in sys.modules) or None)"
    )
    run = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads((tmp_path / "out.json").read_text())["verdict"] == "global-center"


def test_every_exported_name_resolves():
    probe = "import discflow; [getattr(discflow, name) for name in discflow.__all__]; from discflow import *"
    run = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert all(getattr(discflow, name) is not None for name in discflow.__all__)
    assert set(discflow.__all__) <= set(dir(discflow))
    with pytest.raises(AttributeError):
        discflow.no_such_name


def test_verify_overflowing_radius_exits_without_traceback(tmp_path):
    # at radius 1e200 the field overflows; the extra equilibria still decide
    params = write_params(tmp_path, b1="-1", c1="4", d1="-3")
    cmd = [sys.executable, "-m", "discflow.cli", "verify", "--params", params, "--radii", "1e200"]
    run = subprocess.run(cmd, env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    assert "Traceback" not in run.stderr
    assert json.loads(run.stdout)["tag"] == "not-global"


def test_verify_ends_on_an_orbit_resting_at_an_equilibrium(tmp_path):
    # b1 = 1: the fan start at angle pi, r = 1, is (-1, 0.0), the equilibrium (-1, 0) itself,
    # judged before any integration; 1.2e-16 off it, an orbit crossed the x-axis at rounding
    # level forever
    params = write_params(tmp_path, b1="1")
    cmd = [sys.executable, "-m", "discflow.cli", "verify", "--params", params]
    run = subprocess.run(cmd, env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert run.returncode == 1, run.stderr
    samples = {tuple(s["point"]): s["verdict"] for s in json.loads(run.stdout)["samples"]}
    assert samples[(-1.0, 0.0)] == {
        "tag": "inconclusive", "reason": "start is an equilibrium or a section tangency"}
    assert "no section return within max_time" not in [v.get("reason") for v in samples.values()]


@pytest.mark.parametrize("command, code", [("verify", 2), ("portrait", 0)])
def test_no_center_warning_is_one_stderr_line(tmp_path, command, code):
    params = write_params(tmp_path, c2="1")
    cmd = [sys.executable, "-m", "discflow.cli", command, "--params", params, "--radii", "1"]
    run = subprocess.run(cmd, env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert run.returncode == code, run.stderr
    assert run.stderr == "warning: parameters do not satisfy any center condition\n"
    assert run.stdout


@pytest.mark.parametrize(
    "text",
    ['{"b1": "1e5000"}', '{"b1": "1%s"}' % ("0" * 5000), '{"b1": 1%s}' % ("0" * 5000)],
    ids=["exponent", "digit-string", "integer"],
)
def test_digit_limit_names_the_parameter(tmp_path, capsys, text):
    (tmp_path / "huge.json").write_text(text)
    assert main(["decide", "--params", str(tmp_path / "huge.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "b1 has more than" in captured.err
    assert "set_int_max_str_digits" not in captured.err


def test_only_refusals_exit_three(tmp_path, monkeypatch):
    # a bug is not bad input: an error other than ValueError or ArithmeticError surfaces
    def broken(params):
        raise TypeError("bug")

    monkeypatch.setattr("discflow.cli.center_cases", broken)
    with pytest.raises(TypeError, match="bug"):
        main(["decide", "--params", write_params(tmp_path)])


BAD_INPUTS = {
    "zero-denominator-param": ("decide", "--params", "{zero_param}"),
    "deeply-nested-param-file": ("decide", "--params", "{deep_param}"),
    "unprintable-param": ("compactify", "--params", "{unprintable_param}"),
    "param-beyond-float-verify": ("verify", "--params", "{float_param}"),
    "param-beyond-float-portrait": ("portrait", "--params", "{float_param}"),
    "equilibrium-beyond-float-verify": ("verify", "--params", "{far_param}"),
    "equilibrium-beyond-float-portrait": ("portrait", "--params", "{far_param}"),
    "zero-denominator-radius": ("verify", "--params", "{params}", "--radii", "1/0"),
    "overflowing-radius": ("verify", "--params", "{params}", "--radii", "1e400"),
    "unwritable-out": ("decide", "--params", "{params}", "--out", "{missing_dir}/x.json"),
    "zero-denominator-shear": ("blowup", "--params", "{params}", "--steps", "shear:1/0"),
    "zero-twist": ("blowup", "--params", "{params}", "--chart", "u2", "--steps", "twist:0"),
    "zero-rescale-exponent": ("blowup", "--params", "{params}", "--steps", "rescale:u:0"),
    "bad-rescale-variable": ("blowup", "--params", "{params}", "--steps", "rescale:z:1"),
    "chain-too-deep": ("blowup", "--params", "{params}", "--steps", ",".join(["twist:1"] * 9)),
    "extra-step-argument": ("blowup", "--params", "{params}", "--steps", "twist:1:2"),
    "negative-portrait-width": ("portrait", "--params", "{params}", "--width", "-5"),
    "zero-portrait-width": ("portrait", "--params", "{params}", "--width", "0"),
    "zero-portrait-height": ("portrait", "--params", "{params}", "--height", "0"),
    "negative-portrait-height": ("portrait", "--params", "{params}", "--height", "-640"),
    "tiny-portrait": ("portrait", "--params", "{params}", "--width", "20", "--height", "20"),
    "list-param-file": ("decide", "--params", "{list_param}"),
    "string-param-file": ("decide", "--params", "{string_param}"),
    "null-param-file": ("decide", "--params", "{null_param}"),
    "bool-param": ("decide", "--params", "{bool_param}"),
    "float-param": ("decide", "--params", "{float_value_param}"),
    "no-params-flag": ("decide",),
    "unknown-flag": ("decide", "--params", "{params}", "--bogus"),
    "unknown-command": ("nosuch",),
    "non-numeric-tol": ("verify", "--params", "{params}", "--tol", "abc"),
    "non-numeric-width": ("portrait", "--params", "{params}", "--width", "abc"),
    "result-past-digit-limit": ("decide", "--params", "{big_f_param}"),
    "twist-past-digit-limit": ("blowup", "--params", "{params}", "--chart", "u2", "--steps", "twist:1e5000"),
    "twists-past-digit-limit": (
        "blowup", "--params", "{params}", "--chart", "u2", "--steps", ",".join(["twist:1e2000"] * 3),
    ),
}

# the parameter files BAD_INPUTS names
PARAM_FILES = {
    "params": '{"b1": "-1", "c1": "4", "d1": "-3"}',
    "zero_param": '{"a1": "1/0"}',
    "deep_param": "[" * 5000 + "]" * 5000,
    "unprintable_param": '{"b1": "1e5000"}',
    "float_param": '{"b1": "1e400"}',
    "far_param": '{"d1": "1/1%s"}' % ("0" * 700),  # the extra equilibria (+-10**350, 0)
    "list_param": "[]",
    "string_param": '"1"',
    "null_param": "null",
    "bool_param": '{"a1": true}',
    "float_value_param": '{"a1": 0.5}',
    "big_f_param": '{"a1": "1", "a2": "1", "d1": "1e2000", "d2": "1"}',  # F has about 6000 digits
}


def test_exact_commands_accept_a_param_beyond_float_range(tmp_path, capsys):
    # verify and portrait refuse b1 = 1e400 (see BAD_INPUTS); the exact commands keep it
    params = write_params(tmp_path, b1="1e400")
    assert main(["decide", "--params", params]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["params"]["b1"] == str(10**400) and out["verdict"] == "center-not-global"
    assert main(["compactify", "--params", params]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["params"]["b1"] == str(10**400) and out["chart_field"]["n_used"] == 3


@pytest.mark.parametrize("command", ["verify", "portrait"])
def test_an_equilibrium_past_float_range_is_named(tmp_path, capsys, command):
    # the parameters are in float range; the extra equilibria (+-10**350, 0) are not
    params = tmp_path / "far.json"
    params.write_text(PARAM_FILES["far_param"])
    assert main(["decide", "--params", str(params)]) == 1
    capsys.readouterr()
    assert main([command, "--params", str(params)]) == 3
    err = capsys.readouterr().err
    assert err == "error: an extra finite equilibrium lies beyond float range\n"
    assert "parameters" not in err


def test_compactify_keeps_roots_past_float_range(tmp_path, capsys):
    # the exact roots are ordered exactly; an approx past float range is left out
    params = tmp_path / "big_f.json"
    params.write_text(PARAM_FILES["big_f_param"])
    assert main(["compactify", "--params", str(params), "--chart", "u1"]) == 0
    text = capsys.readouterr().out

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    out = json.loads(text, parse_constant=refuse)
    points = [point["u"] for point in out["infinity"]["equilibria"]]
    assert [sorted(u) for u in points] == [["interval"], ["approx", "exact"]]


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_three_without_traceback(tmp_path, case):
    paths = {"missing_dir": str(tmp_path / "missing")}
    for key, text in PARAM_FILES.items():
        paths[key] = str(tmp_path / f"{key}.json")
        (tmp_path / f"{key}.json").write_text(text)
    args = [arg.format(**paths) for arg in BAD_INPUTS[case]]
    cmd = [sys.executable, "-m", "discflow.cli", *args]
    run = subprocess.run(cmd, env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 3, run.stderr
    assert run.stdout == ""
    assert run.stderr.startswith("error:")
    assert len(run.stderr.splitlines()) == 1
    assert "Traceback" not in run.stderr
    assert "set_int_max_str_digits" not in run.stderr  # advice a CLI user cannot act on
