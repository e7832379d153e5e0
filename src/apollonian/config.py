"""Run configuration: an INI file with one section per concern, validated
before any computation runs."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .congruence import MAX_GROUP_MODULUS, MAX_ORBIT_MODULUS
from .quadruples import descartes_form, is_root, reduce_to_root
from .sieve import Selector, parse_selector


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    root: tuple[int, int, int, int]
    bound: int
    grid_tmin: float
    grid_tmax: float
    grid_points_per_decade: int
    fit_window: tuple[float, float]
    fit_window_alt: tuple[float, float] | None
    regions: dict[str, tuple[float, float, float, float]]
    moduli: list[int]
    element_cap: int
    dense_cap: int
    selectors: list[Selector]
    level_D: int
    boxcount_eps: list[float]
    render_bound: float
    out_dir: str

    @property
    def region_window(self):
        """The rectangle used to make an unbounded enumeration finite."""
        return self.regions.get("window")


def _parse_ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _parse_floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def load_config(path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    try:
        return _build(cp)
    except ConfigError:
        raise
    except (ValueError, KeyError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from exc


def _build(cp: configparser.ConfigParser) -> RunConfig:
    if "packing" not in cp:
        raise ConfigError("missing [packing] section")
    root_vals = _parse_ints(cp["packing"].get("root", ""))
    if len(root_vals) != 4:
        raise ConfigError(f"root must have four integers, got {root_vals}")
    root = tuple(root_vals)
    q = descartes_form(root)
    if q != 0:
        raise ConfigError(f"root {root} fails the Descartes relation: Q = {q}")
    if not is_root(root):
        raise ConfigError(
            f"{root} is not a root quadruple; its root is {reduce_to_root(root)}"
        )
    bound = cp["packing"].getint("bound", fallback=10000)
    if bound < 1:
        raise ConfigError("bound must be positive")

    grid = cp["grid"] if "grid" in cp else {}
    tmax = float(grid.get("t_max", bound))
    tmin = float(grid.get("t_min", min(10.0, tmax / 10.0)))
    ppd = int(grid.get("points_per_decade", 20))
    if not (0 < tmin < tmax <= bound):
        raise ConfigError(f"grid range ({tmin}, {tmax}) must sit inside (0, {bound}]")

    fit = cp["fit"] if "fit" in cp else {}
    window = tuple(_parse_floats(fit.get("window", f"{tmin} {tmax}")))
    if len(window) != 2 or window[0] >= window[1]:
        raise ConfigError(f"fit window must be two increasing numbers, got {window}")
    alt_raw = fit.get("window_alt", "").strip()
    window_alt = None
    if alt_raw:
        window_alt = tuple(_parse_floats(alt_raw))
        if len(window_alt) != 2 or window_alt[0] >= window_alt[1]:
            raise ConfigError(f"bad alternate window {window_alt}")

    regions = {}
    if "region" in cp:
        for name, raw in cp["region"].items():
            vals = _parse_floats(raw)
            if len(vals) != 4 or vals[0] >= vals[1] or vals[2] >= vals[3]:
                raise ConfigError(f"region {name} must be xmin,xmax,ymin,ymax; got {raw}")
            regions[name] = tuple(vals)
    if any(x == 0 for x in root) and "window" not in regions:
        raise ConfigError(
            "unbounded packing (zero curvature in root) requires a [region] "
            "window = xmin,xmax,ymin,ymax"
        )

    cong = cp["congruence"] if "congruence" in cp else {}
    moduli = _parse_ints(cong.get("moduli", "2 3 5 6 7 10"))
    if any(not 2 <= m <= MAX_GROUP_MODULUS for m in moduli):
        raise ConfigError(
            f"congruence moduli must lie in [2, {MAX_GROUP_MODULUS}]; got {moduli}"
        )
    element_cap = int(cong.get("element_cap", 500_000))
    dense_cap = int(cong.get("dense_cap", 2000))
    if element_cap < 1 or dense_cap < 1:
        raise ConfigError(
            f"element_cap and dense_cap must be >= 1; got {element_cap}, {dense_cap}"
        )

    sieve_sec = cp["sieve"] if "sieve" in cp else {}
    selectors = [parse_selector(tok) for tok in sieve_sec.get("selectors", "coord:4").split()]
    level_D = int(sieve_sec.get("level_d", sieve_sec.get("level_D", 50)))
    # the sieve slices square-free q < level_D, each through orbit_mod
    if not 2 <= level_D <= MAX_ORBIT_MODULUS + 1:
        raise ConfigError(
            f"level_D must lie in [2, {MAX_ORBIT_MODULUS + 1}]; got {level_D}"
        )

    box = cp["boxcount"] if "boxcount" in cp else {}
    exps = _parse_ints(box.get("eps_exponents", "4 5 6 7 8 9"))
    eps = [2.0 ** -k for k in exps]

    render_sec = cp["render"] if "render" in cp else {}
    render_bound = float(render_sec.get("bound", min(bound, 100)))

    out_sec = cp["output"] if "output" in cp else {}
    out_dir = out_sec.get("dir", "out")

    return RunConfig(
        root=root,
        bound=bound,
        grid_tmin=tmin,
        grid_tmax=tmax,
        grid_points_per_decade=ppd,
        fit_window=window,
        fit_window_alt=window_alt,
        regions=regions,
        moduli=moduli,
        element_cap=element_cap,
        dense_cap=dense_cap,
        selectors=selectors,
        level_D=level_D,
        boxcount_eps=eps,
        render_bound=render_bound,
        out_dir=out_dir,
    )
