import os
from pathlib import Path

import numpy as np
import pytest

from apollonian.cli import main
from apollonian.config import ConfigError, load_config

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
dense_cap = 500

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


def test_config_rejects_unreduced_root(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[packing]\nroot = 15, 2, 2, 3\n")
    with pytest.raises(ConfigError, match="not a root"):
        load_config(path)


def test_cli_bad_root_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[packing]\nroot = 1, 1, 1, 1\n")
    rc = main(["generate", "--config", str(path)])
    assert rc == 2
    assert "Q = -8" in capsys.readouterr().err


def test_cli_unbounded_without_region(tmp_path, capsys):
    path = tmp_path / "strip.ini"
    path.write_text("[packing]\nroot = 0, 0, 1, 1\nbound = 50\n")
    rc = main(["generate", "--config", str(path)])
    assert rc == 2
    assert "region" in capsys.readouterr().err


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


def test_cli_render_deterministic(config_path):
    path, out = config_path
    assert main(["render", "--config", path]) == 0
    svg1 = Path(out, "packing.svg").read_bytes()
    assert main(["render", "--config", path]) == 0
    svg2 = Path(out, "packing.svg").read_bytes()
    assert svg1 == svg2
    text = svg1.decode()
    orb_count = text.count("<circle")
    from apollonian.quadruples import enumerate_orbit

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
    assert "tangency residual" in capsys.readouterr().out


def test_cli_out_override(config_path, tmp_path):
    path, _ = config_path
    alt = tmp_path / "alt"
    rc = main(["generate", "--config", path, "--out", str(alt)])
    assert rc == 0
    assert (alt / "orbit.txt").exists()


def test_cli_report_threads_match_single(config_path):
    path, out = config_path
    assert main(["report", "--config", path, "--threads", "2"]) == 0
    multi = Path(out, "spectral.csv").read_bytes()
    assert main(["report", "--config", path, "--threads", "1"]) == 0
    single = Path(out, "spectral.csv").read_bytes()
    assert multi == single


@pytest.mark.parametrize(
    "line, value",
    [
        ("level_D = 20", "level_D = 1"),
        ("level_D = 20", "level_D = 257"),
        ("element_cap = 100000", "element_cap = 0"),
        ("dense_cap = 500", "dense_cap = 0"),
        ("moduli = 2, 3, 6", "moduli = 3, 17"),
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


def test_cli_report_records_failed_packing_constant(config_path, capsys, monkeypatch):
    from apollonian import counting

    # no occupied boxes: the box-count proxy is 0 and the estimate divides by it
    monkeypatch.setattr(counting, "box_counts", lambda circles, eps, viewport=None: np.zeros(len(eps)))
    monkeypatch.setattr(counting, "boxcount_dimension", lambda circles, eps, viewport=None: 1.3)
    path, out = config_path
    rc = main(["report", "--config", path])
    assert rc == 3
    assert "packing-constant:" in capsys.readouterr().err
    with open(os.path.join(out, "summary.txt")) as fh:
        assert "failures:\n  packing-constant:" in fh.read()
