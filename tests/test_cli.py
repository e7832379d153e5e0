import ast
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import apollonian
from apollonian.cli import main
from apollonian.config import ConfigError, load_config
from apollonian.quadruples import NotDescartesError, OverflowBoundError, enumerate_orbit

BASE_CONFIG = """
[packing]
root = -1, 2, 2, 3
bound = 300

[grid]
t_min = 5
t_max = 300
points_per_decade = 12

[fit]
window = 10, 300

[congruence]
moduli = 2, 3, 6
element_cap = 100000

[sieve]
selectors = coord:4
level_D = 20

[boxcount]
eps_exponents = 3, 4, 5, 6

[render]
bound = 50

[output]
dir = {out}
"""


@pytest.fixture
def config_path(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG.format(out=out))
    return str(path), str(out)


def test_load_config(config_path):
    path, out = config_path
    cfg = load_config(path)
    assert cfg.root == (-1, 2, 2, 3)
    assert cfg.bound == 300
    assert cfg.moduli == [2, 3, 6]
    assert cfg.selectors == [("coord", 4)]
    assert cfg.out_dir == out


def test_config_rejects_bad_root(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[packing]\nroot = 1, 1, 1, 1\n")
    with pytest.raises(ConfigError, match="Q = -8"):
        load_config(path)


def test_config_rejects_two_negative_curvatures(tmp_path):
    # a fixed point of the root reduction, but no packing's root
    path = tmp_path / "bad.ini"
    path.write_text("[packing]\nroot = -24, -12, -1, -1\nbound = 100\n")
    with pytest.raises(ConfigError, match="more than one negative curvature"):
        load_config(path)


def test_config_rejects_unreduced_root(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[packing]\nroot = 15, 2, 2, 3\n")
    with pytest.raises(ConfigError, match="not a root"):
        load_config(path)


# inputs the walk rejects, with the message both doors give: ``main``
# exits 2 for every command, its --seed-check included, and
# ``enumerate_orbit`` raises the error class
BAD_INPUTS = {
    "not-descartes": (
        (1, 1, 1, 1), 100, None, NotDescartesError,
        "root (1, 1, 1, 1) fails the Descartes relation: Q = -8",
    ),
    "not-a-root": (
        (15, 2, 2, 3), 100, None, ValueError,
        "(15, 2, 2, 3) is not a root quadruple; its root is (-1, 2, 2, 3)",
    ),
    # (0, 1, n^2, (n+1)^2) at n = 200,000 is over 100,000 swaps from its root
    "too-far-to-reduce": (
        (0, 1, 40000000000, 40000400001), 100, None, ValueError,
        "(0, 1, 40000000000, 40000400001) is not a root quadruple; "
        "root reduction did not terminate after 100000 swaps",
    ),
    # a fixed point of the root reduction, but no packing's root; the bound
    # is below every root curvature, so no walk starts even without the check
    "two-negative": (
        (-24, -12, -1, -1), 0, None, ValueError,
        "root (-24, -12, -1, -1) has more than one negative curvature; "
        "a packing has one bounding circle at most",
    ),
    "bound-above-max": (
        (-1, 2, 2, 3), 200_000_000, None, OverflowBoundError,
        "bound must lie in [1, 100000000] for root (-1, 2, 2, 3); got 200000000",
    ),
    "bound-below-root": (
        (-2, 3, 6, 7), 1, None, ValueError,
        "bound must lie in [2, 100000000] for root (-2, 3, 6, 7); got 1",
    ),
    "strip-without-window": (
        (0, 0, 1, 1), 50, None, ValueError,
        "unbounded packing (zero curvature in root (0, 0, 1, 1)): N(T) is infinite without a region window",
    ),
    "window-without-embedding": (
        (-2, 3, 6, 7), 100, (-0.2, 0.2, -0.2, 0.2), ValueError,
        "a region window needs a plane embedding, and root (-2, 3, 6, 7) has no built-in one",
    ),
    "inverted-window": (
        (-1, 2, 2, 3), 100, (0.2, -0.2, -0.2, 0.2), ValueError,
        "window needs finite xmin <= xmax and ymin <= ymax; got (0.2, -0.2, -0.2, 0.2)",
    ),
    "nan-window": (
        (-1, 2, 2, 3), 100, (math.nan, 0.2, -0.2, 0.2), ValueError,
        "window needs finite xmin <= xmax and ymin <= ymax; got (nan, 0.2, -0.2, 0.2)",
    ),
}


def _write_run(tmp_path, root, bound, window=None):
    """A run config of ``root``, ``bound`` and ``window`` (or none), and its
    output directory."""
    out = tmp_path / "o"
    path = tmp_path / "run.ini"
    region = "" if window is None else f"[region]\nwindow = {', '.join(map(repr, window))}\n"
    path.write_text(
        f"[packing]\nroot = {', '.join(map(str, root))}\nbound = {bound}\n{region}[output]\ndir = {out}\n"
    )
    return str(path), out


def _never(*args, **kwargs):
    raise AssertionError("enumerated")


@pytest.mark.parametrize("root, bound, window, error, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_inputs_fail_alike_through_main_and_the_walk(
    tmp_path, capsys, monkeypatch, root, bound, window, error, message
):
    from apollonian import cli

    path, out = _write_run(tmp_path, root, bound, window)
    monkeypatch.setattr(cli, "enumerate_orbit", _never)
    for command in ("generate", "report", "render"):
        for seed_check in ([], ["--seed-check"]):
            assert main([command, "--config", path, *seed_check]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    with pytest.raises(error) as err:
        enumerate_orbit(root, bound, rows=True, region=window)
    assert type(err.value) is error and str(err.value) == message


def test_cli_walk_fault_exit_code(tmp_path, capsys, monkeypatch):
    # a walk that repeats a swap makes more circles than fit in the packing
    from apollonian import quadruples
    from test_quadruples import faulty_join

    monkeypatch.setattr(quadruples, "_join", faulty_join)
    monkeypatch.setattr(quadruples, "PIECE", 7)
    path = tmp_path / "run.ini"
    path.write_text(f"[packing]\nroot = -1, 2, 2, 3\nbound = 100\n[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["generate", "--config", str(path)]) == 3
    assert "at most 10001 fit in the packing" in capsys.readouterr().err
    assert not Path(tmp_path, "out", "circles.csv").exists()


def test_cli_generate(config_path, capsys):
    path, out = config_path
    rc = main(["generate", "--config", path])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "N_P(300)" in msg
    dump = Path(out, "orbit.txt").read_text().splitlines()
    assert dump[0] == "0 -1,2,2,3"
    n_quads = int(msg.split("quadruples enumerated = ")[1].splitlines()[0])
    assert len(dump) == n_quads
    assert os.path.exists(os.path.join(out, "circles.csv"))


def test_cli_generate_applies_window_to_bounded_root(tmp_path, capsys):
    from apollonian.quadruples import write_circles

    out = tmp_path / "o"
    path = tmp_path / "win.ini"
    path.write_text(
        f"[packing]\nroot = -1, 2, 2, 3\nbound = 500\n"
        f"[region]\nwindow = -0.2, 0.2, -0.2, 0.2\n[output]\ndir = {out}\n"
    )
    assert main(["generate", "--config", str(path)]) == 0
    orbit = enumerate_orbit(
        (-1, 2, 2, 3), 500, rows=True, region=(-0.2, 0.2, -0.2, 0.2)
    )
    assert f"N_P(500) = {orbit.circle_count}\n" in capsys.readouterr().out
    assert orbit.circle_count < enumerate_orbit((-1, 2, 2, 3), 500).circle_count
    write_circles(orbit, tmp_path / "expected.csv")
    assert (out / "circles.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


@pytest.mark.parametrize(
    "root, region",
    [
        ("-2, 3, 6, 7", "window = -0.2, 0.2, -0.2, 0.2"),  # no built-in embedding
        ("-1, 2, 2, 3", "e1 = -1, 0, -1, 1"),  # only window is read
        ("-1, 2, 2, 3", "window = 0, inf, 0, 1"),
        ("-1, 2, 2, 3", "window = 0, 0, -1, 1"),  # legal in the library, no area
    ],
)
def test_cli_rejects_unusable_region(tmp_path, capsys, root, region):
    out = tmp_path / "o"
    path = tmp_path / "bad.ini"
    path.write_text(
        f"[packing]\nroot = {root}\nbound = 100\n[region]\n{region}\n"
        f"[output]\ndir = {out}\n"
    )
    for command in ("generate", "report", "render"):
        assert main([command, "--config", str(path)]) == 2
        assert "window" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "root, bound",
    [
        ("-1, 2, 2, 3", 200_000_000),  # above MAX_BOUND
        ("-2, 3, 6, 7", 1),  # below every root curvature
    ],
)
def test_cli_rejects_bound_out_of_range(tmp_path, capsys, root, bound):
    out = tmp_path / "o"
    path = tmp_path / "bad.ini"
    path.write_text(f"[packing]\nroot = {root}\nbound = {bound}\n[output]\ndir = {out}\n")
    for command in ("generate", "report", "render"):
        assert main([command, "--config", str(path)]) == 2
        assert "bound must lie in" in capsys.readouterr().err
    assert not out.exists()


def test_cli_render_deterministic(config_path):
    path, out = config_path
    assert main(["render", "--config", path]) == 0
    svg1 = Path(out, "packing.svg").read_bytes()
    assert main(["render", "--config", path]) == 0
    svg2 = Path(out, "packing.svg").read_bytes()
    assert svg1 == svg2
    text = svg1.decode()
    orb_count = text.count("<circle")
    assert orb_count == enumerate_orbit((-1, 2, 2, 3), 50).circle_count


def test_cli_render_single_circle(tmp_path):
    out = tmp_path / "o"
    path = tmp_path / "one.ini"
    path.write_text(
        f"[packing]\nroot = -1, 2, 2, 3\nbound = 10\n[render]\nbound = 1\n"
        f"[output]\ndir = {out}\n"
    )
    assert main(["render", "--config", str(path)]) == 0
    text = Path(out, "packing.svg").read_text()
    assert text.count("<circle") == 1


@pytest.mark.parametrize("render_bound", ["nan", "inf", "1e9", "-5", "0"])
def test_cli_rejects_bad_render_bound(tmp_path, capsys, render_bound):
    out = tmp_path / "o"
    path = tmp_path / "bad.ini"
    path.write_text(
        f"[packing]\nroot = -1, 2, 2, 3\nbound = 10\n[render]\nbound = {render_bound}\n"
        f"[output]\ndir = {out}\n"
    )
    assert main(["render", "--config", str(path)]) == 2
    assert "[render] bound must lie in [1, " in capsys.readouterr().err
    assert not out.exists()


def test_render_bound_default_is_not_below_the_root(tmp_path):
    path = tmp_path / "big.ini"
    path.write_text("[packing]\nroot = -101, 102, 10302, 10303\nbound = 20000\n")
    assert load_config(str(path)).render_bound == 101
    path.write_text("[packing]\nroot = -1, 2, 2, 3\nbound = 20000\n")
    assert load_config(str(path)).render_bound == 100


def test_cli_render_strip_has_lines(tmp_path):
    out = tmp_path / "o"
    path = tmp_path / "strip.ini"
    path.write_text(
        f"[packing]\nroot = 0, 0, 1, 1\nbound = 30\n"
        f"[region]\nwindow = 0, 2, 0, 2\n[render]\nbound = 30\n"
        f"[output]\ndir = {out}\n"
    )
    assert main(["render", "--config", str(path)]) == 0
    text = Path(out, "packing.svg").read_text()
    assert text.count("<line") == 2


RENDER_CONFIGS = {
    "standard": "[packing]\nroot = -1, 2, 2, 3\nbound = 300\n[render]\nbound = 300\n",
    "strip": (
        "[packing]\nroot = 0, 0, 1, 1\nbound = 300\n[region]\nwindow = 0, 2, 0, 2\n"
        "[render]\nbound = 300\n"
    ),
}


def _run_render_and_generate(tmp_path, text):
    out = tmp_path / "o"
    path = tmp_path / "run.ini"
    path.write_text(text + f"[output]\ndir = {out}\n")
    assert main(["render", "--config", str(path)]) == 0
    assert main(["generate", "--config", str(path)]) == 0
    return out


def _svg_elements(svg: str) -> list[str]:
    return sorted(line for line in svg.splitlines() if line.startswith(("<circle ", "<line ")))


@pytest.mark.parametrize("name", sorted(RENDER_CONFIGS))
def test_cli_render_draws_the_circles_of_circles_csv(tmp_path, name):
    from apollonian.render import _fmt

    out = _run_render_and_generate(tmp_path, RENDER_CONFIGS[name])
    svg = Path(out, "packing.svg").read_text()
    drawn = sorted(
        re.match(r'<circle cx="([^"]+)" cy="([^"]+)" r="([^"]+)"', line).groups()
        for line in _svg_elements(svg)
        if line.startswith("<circle ")
    )
    # circles.csv prints the float64 centre with 9 decimals; below |b| = 1000
    # a centre wx/b that is not a tie of the 6th decimal lies more than
    # 1/(2e6 * |b|) > 5e-10 from one, so both round to the same 6 decimals
    rows = [line.split(",") for line in Path(out, "circles.csv").read_text().splitlines()[1:]]
    listed = sorted(
        (_fmt(float(x)), _fmt(float(y)), _fmt(1.0 / abs(int(b)))) for b, x, y in rows if b != "0"
    )
    assert drawn == listed
    assert len(drawn) > 100
    assert svg.count("<line ") == sum(b == "0" for b, _, _ in rows)


@pytest.mark.parametrize("name", sorted(RENDER_CONFIGS))
def test_cli_render_agrees_with_the_float_walk(tmp_path, name):
    # the independent oracle: the float walk's circles, drawn by the rules of
    # render.svg_document, give the same set of SVG elements
    from apollonian import geometry, render
    from apollonian.render import _clamp, _clip_line, _fmt

    path = tmp_path / "cfg.ini"
    path.write_text(RENDER_CONFIGS[name])
    cfg = load_config(str(path))
    circles = geometry.generate_packing_geometric(
        geometry.seed_for_root(cfg.root), cfg.render_bound, region=cfg.window
    )
    proper = [c for c in circles if not c.is_line]
    x0, x1, y0, y1 = cfg.window or (
        min(c.center[0] - c.radius for c in proper),
        max(c.center[0] + c.radius for c in proper),
        min(c.center[1] - c.radius for c in proper),
        max(c.center[1] + c.radius for c in proper),
    )
    pad = 0.02 * max(x1 - x0, y1 - y0)
    rect = (x0 - pad, x1 + pad, y0 - pad, y1 + pad)
    w, h = rect[1] - rect[0], rect[3] - rect[2]

    def width(radius):
        return _fmt(_clamp(render._STROKE_SCALE * radius, w / render._SIZE, 0.1 * max(w, h)))

    expected = []
    for c in circles:
        if c.is_line:
            (ax, ay), (bx, by) = _clip_line(c.wx, c.wy, c.offset, rect)
            expected.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
                f'stroke-width="{width(max(p.radius for p in proper))}"/>'
            )
        else:
            expected.append(
                f'<circle cx="{_fmt(c.center[0])}" cy="{_fmt(c.center[1])}" '
                f'r="{_fmt(c.radius)}" stroke-width="{width(c.radius)}"/>'
            )
    out = _run_render_and_generate(tmp_path, RENDER_CONFIGS[name])
    assert _svg_elements(Path(out, "packing.svg").read_text()) == sorted(expected)


def test_cli_render_draws_the_circle_on_the_window_edge(tmp_path):
    # row (3076, 9126, 2691, 4564): its lowest point is exactly y = 0.5, on
    # the window's edge, and the float walk's drift dropped it
    out = tmp_path / "o"
    path = tmp_path / "edge.ini"
    path.write_text(
        f"[packing]\nroot = -1, 2, 2, 3\nbound = 10000\n[region]\n"
        f"window = 0.1, 0.3, 0.3, 0.5\n[render]\nbound = 10000\n[output]\ndir = {out}\n"
    )
    assert main(["render", "--config", str(path)]) == 0
    assert '<circle cx="0.294872" cy="0.50011" ' in Path(out, "packing.svg").read_text()


def test_cli_report_outputs(config_path, capsys):
    path, out = config_path
    rc = main(["report", "--config", path])
    assert rc == 0
    for name in (
        "counts.csv",
        "primes.csv",
        "residues.csv",
        "missing.csv",
        "spectral.csv",
        "sieve_coord_4.csv",
        "sieve_coord_4_survivors.csv",
        "boxcount.csv",
        "summary.txt",
    ):
        assert os.path.exists(os.path.join(out, name)), name
    spectral = Path(out, "spectral.csv").read_text().splitlines()
    assert spectral[0] == "q,group_order,lambda1,cheeger_lower,cheeger_upper"
    assert len(spectral) == 4  # header + three moduli
    counts = Path(out, "counts.csv").read_text().splitlines()
    assert counts[0] == "T,N"
    summary = Path(out, "summary.txt").read_text()
    assert "alpha_hat" in summary


def test_cli_report_deterministic(config_path):
    path, out = config_path
    assert main(["report", "--config", path]) == 0
    first = {
        name: Path(out, name).read_bytes()
        for name in os.listdir(out)
        if name.endswith(".csv")
    }
    assert main(["report", "--config", path]) == 0
    for name, blob in first.items():
        assert Path(out, name).read_bytes() == blob, name


def test_cli_seed_check(config_path, capsys):
    path, _ = config_path
    rc = main(["report", "--config", path, "--seed-check"])
    assert rc == 0
    assert "seed norm and tangency residual 0\n" in capsys.readouterr().out


def test_cli_seed_check_of_the_strip(tmp_path, capsys):
    path = tmp_path / "seed.ini"
    path.write_text(RENDER_CONFIGS["strip"])
    assert main(["render", "--config", str(path), "--seed-check"]) == 0
    assert "seed norm and tangency residual 0\n" in capsys.readouterr().out


def test_cli_seed_check_rejects_a_wrong_row(config_path, capsys, monkeypatch):
    from apollonian import quadruples

    rows = quadruples.KNOWN_EMBEDDINGS[(-1, 2, 2, 3)]
    # the third-radius circle moved off its tangencies, to (0, 1/3)
    monkeypatch.setitem(quadruples.KNOWN_EMBEDDINGS, (-1, 2, 2, 3), rows[:3] + ((0, 3, 0, 1),))
    path, out = config_path
    assert main(["render", "--config", path, "--seed-check"]) == 2
    captured = capsys.readouterr()
    assert "seed norm and tangency residual 0\n" not in captured.out
    assert "error: seed inconsistent" in captured.err
    assert not os.path.exists(out)


def test_cli_seed_check_without_an_embedding(tmp_path, capsys):
    path = tmp_path / "seed.ini"
    path.write_text("[packing]\nroot = -2, 3, 6, 7\nbound = 100\n")
    assert main(["report", "--config", str(path), "--seed-check"]) == 0
    assert capsys.readouterr().out == (
        "root (-2, 3, 6, 7): Descartes residual 0\n"
        "no built-in plane embedding for this root; quadruple pipeline only\n"
    )


# each command's own rules, beyond the walk's: --seed-check exits 2 with the
# command's message exactly when the command exits 2 before walking, and
# neither makes the output directory
COMMAND_RULES = [
    ("report", (-1, 2, 2, 3), 10, "report needs bound >= 24; got 10"),
    ("report", (-2, 4, 4, 6), 200, "report needs a primitive root; the entries of (-2, 4, 4, 6) share a factor"),
    (
        "render", (-2, 3, 6, 7), 100,
        "no plane embedding known for root (-2, 3, 6, 7); rendering needs one of the built-in embeddings",
    ),
    ("report", (-2, 3, 6, 7), 100, None),
    ("generate", (-1, 2, 2, 3), 10, None),
    ("generate", (-2, 4, 4, 6), 200, None),
    ("generate", (-2, 3, 6, 7), 100, None),
    ("render", (-1, 2, 2, 3), 10, None),
]


class _Walked(Exception):
    pass


@pytest.mark.parametrize("command, root, bound, message", COMMAND_RULES)
def test_cli_seed_check_agrees_with_its_command(tmp_path, capsys, monkeypatch, command, root, bound, message):
    from apollonian import cli

    def walked(*args, **kwargs):
        raise _Walked

    path, out = _write_run(tmp_path, root, bound)
    monkeypatch.setattr(cli, "enumerate_orbit", walked)
    rc = main([command, "--config", path, "--seed-check"])
    err = capsys.readouterr().err
    assert not out.exists()
    if message is None:
        assert (rc, err) == (0, "")
        with pytest.raises(_Walked):
            main([command, "--config", path])
        return
    assert (rc, err) == (2, f"error: {message}\n")
    assert main([command, "--config", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_out_override(config_path, tmp_path):
    path, _ = config_path
    alt = tmp_path / "alt"
    rc = main(["generate", "--config", path, "--out", str(alt)])
    assert rc == 0
    assert (alt / "orbit.txt").exists()


@pytest.mark.parametrize(
    "line, value",
    [
        ("level_D = 20", "level_D = 1"),
        ("level_D = 20", "level_D = 257"),
        ("element_cap = 100000", "element_cap = 0"),
        ("moduli = 2, 3, 6", "moduli = 3, 17"),
        ("moduli = 2, 3, 6", "moduli = 5, 5, 3"),
        ("selectors = coord:4", "selectors = max coord:4"),
        ("selectors = coord:4", "selectors = coord:4 coord:4"),
        ("eps_exponents = 3, 4, 5, 6", "eps_exponents = 5"),
        ("eps_exponents = 3, 4, 5, 6", "eps_exponents = 5 5"),
        ("eps_exponents = 3, 4, 5, 6", "eps_exponents = "),
        ("eps_exponents = 3, 4, 5, 6", "eps_exponents = 31 32"),
        ("eps_exponents = 3, 4, 5, 6", "eps_exponents = -1, 4"),
        ("eps_exponents = 3, 4, 5, 6", "eps_exponents = 4, 15"),
        ("window = 10, 300", "window = nan, 300"),
        ("window = 10, 300", "window = 10, inf"),
        ("window = 10, 300", "window = 400, 500"),  # beyond the grid's t_max 300
        ("window = 10, 300", "window = 1, 4"),  # below its t_min 5
        ("window = 10, 300", "window = 10, 300\nwindow_alt = 10, nan"),
        ("window = 10, 300", "window = 10, 300\nwindow_alt = 20000, 30000"),
        ("points_per_decade = 12", "points_per_decade = 0"),
        ("points_per_decade = 12", "points_per_decade = -3"),
    ],
)
def test_cli_rejects_out_of_range_caps_and_level(config_path, capsys, line, value):
    path, out = config_path
    with open(path) as fh:
        text = fh.read()
    assert line in text
    with open(path, "w") as fh:
        fh.write(text.replace(line, value))
    rc = main(["report", "--config", path])
    assert rc == 2
    assert value.split(" = ")[0] in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_report_fit_window_with_too_few_samples_fails_its_stage(config_path, capsys):
    # the window meets the grid range, so config accepts it; the fit needs 5
    # samples and finds 1
    path, out = config_path
    Path(path).write_text(Path(path).read_text().replace("window = 10, 300", "window = 299, 300"))
    assert main(["report", "--config", path]) == 3
    assert "counts/fit: window (299.0, 300.0) holds 1 samples; need >= 5" in capsys.readouterr().err
    assert Path(out, "counts.csv").exists()


@pytest.mark.parametrize(
    "line, value, named",
    [
        pytest.param("moduli = 2, 3, 6", "moduli = 2, 3, 6\ndense_cap = 500", "dense_cap", id="dense_cap"),
        pytest.param("element_cap = 100000", "elemnt_cap = 100000", "elemnt_cap", id="misspelt"),
        # configparser lowercases keys
        pytest.param("level_D = 20", "levle_D = 20", "levle_d", id="misspelt-mixed-case"),
        pytest.param("[boxcount]", "[box_count]", "box_count", id="unknown-section"),
    ],
)
def test_cli_rejects_unknown_keys(config_path, capsys, line, value, named):
    path, out = config_path
    text = Path(path).read_text()
    assert line in text
    Path(path).write_text(text.replace(line, value))
    for command in ("generate", "report", "render"):
        assert main([command, "--config", path]) == 2
        assert named in capsys.readouterr().err
    assert not os.path.exists(out)


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = readme.split("```ini\n")[1:]
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0].split("```")[0])
    cfg = load_config(path)
    assert cfg.root == (-1, 2, 2, 3) and cfg.bound == 10000


def test_cli_report_rejects_bound_below_the_density_bound(tmp_path, capsys, monkeypatch):
    from apollonian import cli

    monkeypatch.setattr(cli, "enumerate_orbit", _never)
    out = tmp_path / "o"
    path = tmp_path / "low.ini"
    path.write_text(f"[packing]\nroot = -1, 2, 2, 3\nbound = 20\n[output]\ndir = {out}\n")
    assert main(["report", "--config", str(path)]) == 2
    assert "report needs bound >= 24; got 20" in capsys.readouterr().err
    assert not out.exists()


def test_cli_report_records_failed_packing_constant(config_path, capsys, monkeypatch):
    from apollonian import counting

    # no occupied boxes: the box-count proxy is 0 and the estimate divides by it
    monkeypatch.setattr(counting, "box_counts", lambda rows, eps, viewport=None: np.zeros(len(eps)))
    monkeypatch.setattr(counting, "boxcount_dimension", lambda rows, eps, viewport=None: 1.3)
    path, out = config_path
    rc = main(["report", "--config", path])
    assert rc == 3
    assert "packing-constant:" in capsys.readouterr().err
    with open(os.path.join(out, "summary.txt")) as fh:
        assert "failures:\n  packing-constant:" in fh.read()


def test_cli_report_keeps_spectral_rows_of_other_moduli(config_path, capsys, monkeypatch):
    from apollonian import congruence

    real = congruence.spectrum

    def failing(g):
        if g.modulus == 5:
            raise congruence.EigenConvergenceError("no convergence")
        return real(g)

    monkeypatch.setattr(congruence, "spectrum", failing)
    path, out = config_path
    Path(path).write_text(Path(path).read_text().replace("moduli = 2, 3, 6", "moduli = 3, 5"))
    rc = main(["report", "--config", path])
    assert rc == 3
    assert "spectral q=5: no convergence" in capsys.readouterr().err
    spectral = Path(out, "spectral.csv").read_text().splitlines()
    assert len(spectral) == 2 and spectral[1].startswith("3,120,")
    summary = Path(out, "summary.txt").read_text()
    assert "failures:\n  spectral q=5: no convergence\n" in summary
    assert "expander gap epsilon" in summary and "over moduli [3]" in summary


def test_cli_report_names_moduli_over_the_element_cap(config_path, capsys):
    path, out = config_path
    text = Path(path).read_text()
    text = text.replace("moduli = 2, 3, 6", "moduli = 3, 5").replace(
        "element_cap = 100000", "element_cap = 1000"
    )
    Path(path).write_text(text)
    # a cap is a choice of the config, not a failure
    assert main(["report", "--config", path]) == 0
    assert "failures" not in capsys.readouterr().err
    spectral = Path(out, "spectral.csv").read_text().splitlines()
    assert len(spectral) == 2 and spectral[1].startswith("3,120,")
    summary = Path(out, "summary.txt").read_text()
    assert "moduli over element_cap 1000 skipped: [5]\n" in summary
    assert "over moduli [3]\n" in summary and "failures" not in summary


def test_cli_report_takes_the_row_of_2m_from_m(config_path, monkeypatch):
    from apollonian import congruence

    reduced = []
    real = congruence.reduce_group_mod

    def counted(q, element_cap=congruence.ELEMENT_CAP_DEFAULT):
        reduced.append(q)
        return real(q, element_cap)

    monkeypatch.setattr(congruence, "reduce_group_mod", counted)
    path, out = config_path
    text = Path(path).read_text().replace("moduli = 2, 3, 6", "moduli = 10, 2, 3, 5, 6")
    Path(path).write_text(text.replace("element_cap = 100000", "element_cap = 20000"))
    assert main(["report", "--config", path]) == 0
    # 10 comes before 5 in the list and still computes 5 once; 2 has no
    # odd half of at least 3
    assert reduced == [5, 2, 3]
    rows = dict(
        line.split(",", 1) for line in Path(out, "spectral.csv").read_text().splitlines()[1:]
    )
    assert list(rows) == ["2", "3", "5", "6", "10"]
    assert rows["6"] == rows["3"] and rows["10"] == rows["5"]
    assert rows["3"].startswith("120,") and rows["5"].startswith("14400,")


# every file a report writes, by the stage that writes it
STAGE_FILES = {
    "counts/fit": ["counts.csv"],
    "primes": ["primes.csv"],
    "residues": ["residues.csv", "missing.csv"],
    "spectral": ["spectral.csv"],
    "sieve coord:4": ["sieve_coord_4.csv", "sieve_coord_4_survivors.csv"],
    "boxcount": ["boxcount.csv"],
}


@pytest.mark.parametrize(
    "label, target",
    [
        ("counts/fit", "apollonian.counting.fit_exponent"),
        ("primes", "apollonian.arithmetic.prime_count_curve"),
        ("residues", "apollonian.arithmetic.tally"),
        ("boxcount", "apollonian.counting.box_counts"),
    ],
)
def test_cli_report_records_every_failed_stage(config_path, capsys, monkeypatch, label, target):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(target, boom)
    path, out = config_path
    assert main(["report", "--config", path]) == 3
    assert f"failures:\n  {label}: boom\n" in capsys.readouterr().err
    assert f"failures:\n  {label}: boom\n" in Path(out, "summary.txt").read_text()
    for other, files in STAGE_FILES.items():
        if other != label:
            for f in files:
                assert Path(out, f).exists(), f


def test_cli_report_keeps_sieve_tables_of_other_selectors(config_path, capsys, monkeypatch):
    from apollonian import sieve

    real = sieve.level_distribution_report

    def failing(series, D):
        if series.selector == ("coord", 4):
            raise ArithmeticError("no slices")
        return real(series, D)

    monkeypatch.setattr(sieve, "level_distribution_report", failing)
    path, out = config_path
    text = Path(path).read_text().replace("selectors = coord:4", "selectors = coord:4 coord:1")
    Path(path).write_text(text)
    rc = main(["report", "--config", path])
    assert rc == 3
    assert "sieve coord:4: no slices" in capsys.readouterr().err
    assert not Path(out, "sieve_coord_4.csv").exists()
    assert Path(out, "sieve_coord_1.csv").read_text().startswith("q,mass,g_hat,r_hat\n2,")
    assert Path(out, "sieve_coord_1_survivors.csv").exists()
    summary = Path(out, "summary.txt").read_text()
    assert "sieve coord:1: X " in summary
    assert "failures:\n  sieve coord:4: no slices\n" in summary


def test_cli_report_names_x_when_the_series_holds_one_quadruple(tmp_path, capsys):
    # every swap of this root makes a curvature of 28 or more, so at bound
    # 24 the root quadruple is the only one, X = 1, and the level exponent
    # would divide by log X = 0
    out = tmp_path / "out"
    path = tmp_path / "run.ini"
    path.write_text(
        "[packing]\nroot = -8, 13, 21, 24\nbound = 24\n\n"
        f"[congruence]\nmoduli = 3\n\n[output]\ndir = {out}\n"
    )
    assert main(["report", "--config", str(path)]) == 3
    line = "  sieve coord:4: a level exponent divides by log X and needs X >= 2; got X = 1\n"
    assert line in capsys.readouterr().err
    assert line in (out / "summary.txt").read_text()
    assert (out / "sieve_coord_4.csv").exists()


def test_cli_report_rejects_a_window_that_meets_no_circle(tmp_path, capsys):
    # the walk keeps the root quadruple but no circle: every statistic
    # would fail, so the report stops after the walk and writes nothing
    out = tmp_path / "out"
    path = tmp_path / "run.ini"
    path.write_text(
        "[packing]\nroot = -1, 2, 2, 3\nbound = 100\n\n[region]\nwindow = 5, 6, 5, 6\n\n"
        f"[congruence]\nmoduli = 3\n\n[output]\ndir = {out}\n"
    )
    assert main(["report", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: window (5.0, 6.0, 5.0, 6.0) meets no circle of curvature at most 100\n"
    assert not any(out.iterdir())


def test_cli_report_rejects_an_imprimitive_root(tmp_path, capsys):
    # every curvature of (-2, 4, 4, 6) is even, so its prime counts would
    # mean nothing; generate still walks it
    out = tmp_path / "out"
    path = tmp_path / "run.ini"
    path.write_text(f"[packing]\nroot = -2, 4, 4, 6\nbound = 200\n\n[output]\ndir = {out}\n")
    assert main(["report", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: report needs a primitive root; the entries of (-2, 4, 4, 6) share a factor\n"
    )
    assert not out.exists()
    assert main(["generate", "--config", str(path)]) == 0
    assert "N_P(200) = 169\n" in capsys.readouterr().out


def test_cli_report_sieves_the_primes_to_the_bound_once(config_path, monkeypatch):
    # the walk's table serves the prime counts and the odd-prime triples
    from apollonian import quadruples, sieve

    real = quadruples.prime_table
    sizes = []

    def counted(vmax):
        sizes.append(vmax)
        return real(vmax)

    for module in (quadruples, sieve):
        monkeypatch.setattr(module, "prime_table", counted)
    path, _ = config_path
    assert main(["report", "--config", path]) == 0
    assert sizes.count(300) == 1


def test_cli_report_slices_each_modulus_once(config_path, monkeypatch):
    # level_D = 12 slices the 7 square-free q < 12; the dimension trace reuses
    # their primes and slices only the 10 primes from 13 to 47
    from apollonian import sieve

    real = sieve.slice_series
    calls = []

    def counted(series, q):
        calls.append(q)
        return real(series, q)

    monkeypatch.setattr(sieve, "slice_series", counted)
    path, _ = config_path
    Path(path).write_text(Path(path).read_text().replace("level_D = 20", "level_D = 12"))
    assert main(["report", "--config", path]) == 0
    assert calls == [2, 3, 5, 6, 7, 10, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_cli_report_below_first_decade(config_path, capsys):
    path, out = config_path
    text = Path(path).read_text()
    for old, new in (
        ("bound = 300", "bound = 50"),
        ("t_max = 300", "t_max = 50"),
        ("window = 10, 300", "window = 10, 50"),
        ("eps_exponents = 3, 4, 5, 6", "eps_exponents = 3, 4"),
    ):
        assert old in text
        text = text.replace(old, new)
    Path(path).write_text(text)
    rc = main(["report", "--config", path])
    assert rc == 0, capsys.readouterr().err
    from apollonian import arithmetic
    orbit = enumerate_orbit((-1, 2, 2, 3), 50, twins=True)
    (s,) = arithmetic.prime_count_curve(orbit, [50])
    primes = Path(out, "primes.csv").read_text().splitlines()
    assert primes == ["T,pi,pi2,N", f"50,{s.pi},{s.pi2},{orbit.circle_count}"]
    assert f"twin pairs {s.pi2} at T=50\n" in Path(out, "summary.txt").read_text()


def test_cli_report_warns_once_below_resolution(config_path):
    path, out = config_path
    text = Path(path).read_text()
    # 2^-8 is below the resolution 2 / 300 of bound 300
    Path(path).write_text(text.replace("eps_exponents = 3, 4, 5, 6", "eps_exponents = 3, 4, 5, 6, 8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["report", "--config", path]) == 0
    msgs = [str(w.message) for w in caught if "below the resolution" in str(w.message)]
    assert len(msgs) == 1
    assert msgs[0].startswith("box size 0.00390625 is below the resolution")
    assert "box-counting dimension estimate" in Path(out, "summary.txt").read_text()


def test_importing_the_cli_loads_no_scipy():
    # a fresh interpreter, so that modules other tests imported do not count;
    # fractions and decimal would only slow the start of every command, and
    # the float geometry is the oracle of the tests
    code = (
        "import sys, apollonian, apollonian.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'fractions', 'decimal')"
        " or m == 'apollonian.geometry'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(apollonian.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "[]"


def test_a_report_loads_no_numpy_random_ma_or_scipy(tmp_path):
    # a fresh interpreter runs a whole report, q = 5 added so that the
    # Lanczos route runs too.  Importing numpy.random and numpy.ma takes
    # about 20 ms and 7 MB of RSS after numpy; fractions and decimal come
    # with statistics
    config = tmp_path / "run.ini"
    config.write_text(
        BASE_CONFIG.format(out=tmp_path / "out").replace("moduli = 2, 3, 6", "moduli = 2, 3, 5, 6")
    )
    code = (
        "import sys\n"
        "from apollonian.cli import main\n"
        f"rc = main(['report', '--config', {str(config)!r}])\n"
        "heavy = ('numpy.random', 'numpy.ma', 'scipy', 'fractions', 'decimal')\n"
        "heavy_dot = tuple(m + '.' for m in heavy)\n"
        "print(rc, sorted(m for m in sys.modules if m in heavy or m.startswith(heavy_dot)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(apollonian.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "spectral.csv").read_text().splitlines()[1:] == [
        "2,1,,,",
        "3,120,3.000000,0.500000,2.828427",
        "5,14400,3.854102,0.072949,1.080363",
        "6,120,3.000000,0.500000,2.828427",
    ]


def test_no_command_module_imports_the_float_geometry():
    # the float walk is the oracle of the tests, not a step of any command;
    # ast.walk reads the imports inside functions too
    src = Path(apollonian.__file__).parent
    names = sorted(p.name for p in src.glob("*.py") if p.name != "geometry.py")
    assert {"__init__.py", "cli.py", "counting.py"} <= set(names)
    for name in names:
        imported = []
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [f"{node.module}.{alias.name}" for alias in node.names]
        assert not [m for m in imported if "geometry" in m.split(".")], name
