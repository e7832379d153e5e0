"""Run configuration: an INI file with one section per concern, validated
before any computation runs."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .congruence import ELEMENT_CAP_DEFAULT, MAX_GROUP_MODULUS, MAX_ORBIT_MODULUS
from .quadruples import MAX_BOUND, descartes_form, embedding_for_root, is_root, reduce_to_root
from .sieve import Selector, parse_selector


# box sizes are 2^-k for k in [0, MAX_EPS_EXPONENT]
MAX_EPS_EXPONENT = 14

# the keys of each section, lowercased as configparser reads them
_SECTION_KEYS = {
    "packing": ("root", "bound"),
    "grid": ("t_min", "t_max", "points_per_decade"),
    "fit": ("window", "window_alt"),
    "region": ("window",),
    "congruence": ("moduli", "element_cap"),
    "sieve": ("selectors", "level_d"),
    "boxcount": ("eps_exponents",),
    "render": ("bound",),
    "output": ("dir",),
}


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
    window: tuple[float, float, float, float] | None
    moduli: list[int]
    element_cap: int
    selectors: list[Selector]
    level_D: int
    boxcount_eps: list[float]
    render_bound: float
    out_dir: str


def _parse_ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _parse_floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _fit_window(key: str, raw: str, tmin: float, tmax: float) -> tuple[float, float]:
    """A [fit] window: two finite increasing numbers whose closed interval
    meets the grid range [tmin, tmax].  One that meets it in fewer than five
    samples fails its report stage instead."""
    window = tuple(_parse_floats(raw))
    if len(window) != 2 or not all(map(math.isfinite, window)) or window[0] >= window[1]:
        raise ConfigError(f"[fit] {key} must be two finite increasing numbers, got {window}")
    if window[0] > tmax or window[1] < tmin:
        raise ConfigError(f"[fit] {key} {window} misses the grid range [{tmin}, {tmax}]")
    return window


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
    for name in cp.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}]; the sections are {list(_SECTION_KEYS)}")
        unknown = sorted(set(cp[name]) - set(_SECTION_KEYS[name]))
        if unknown:
            raise ConfigError(f"[{name}] takes {list(_SECTION_KEYS[name])}; unknown keys {unknown}")
    # an absent section reads as an empty one
    cp.read_dict({name: {} for name in _SECTION_KEYS})
    root_vals = _parse_ints(cp["packing"].get("root", ""))
    if len(root_vals) != 4:
        raise ConfigError(f"root must have four integers, got {root_vals}")
    root = tuple(root_vals)
    q = descartes_form(root)
    if q != 0:
        raise ConfigError(f"root {root} fails the Descartes relation: Q = {q}")
    if not is_root(root):
        try:
            hint = f"its root is {reduce_to_root(root)}"
        except RuntimeError as exc:  # the reduction hit its swap cap
            hint = str(exc)
        raise ConfigError(f"{root} is not a root quadruple; {hint}")
    if sum(x < 0 for x in root) > 1:
        raise ConfigError(f"root {root} has more than one negative curvature; a packing has one bounding circle at most")
    bound = cp["packing"].getint("bound", fallback=10000)
    # the walk needs a root circle within the bound and int64 headroom
    lowest = max(1, min(abs(x) for x in root))
    if not lowest <= bound <= MAX_BOUND:
        raise ConfigError(
            f"bound must lie in [{lowest}, {MAX_BOUND}] for root {root}; got {bound}"
        )

    tmax = float(cp["grid"].get("t_max", bound))
    tmin = float(cp["grid"].get("t_min", min(10.0, tmax / 10.0)))
    ppd = int(cp["grid"].get("points_per_decade", 20))
    if not (0 < tmin < tmax <= bound):
        raise ConfigError(f"grid range ({tmin}, {tmax}) must sit inside (0, {bound}]")

    window = _fit_window("window", cp["fit"].get("window", f"{tmin} {tmax}"), tmin, tmax)
    alt_raw = cp["fit"].get("window_alt", "").strip()
    window_alt = _fit_window("window_alt", alt_raw, tmin, tmax) if alt_raw else None

    rect = None
    if "window" in cp["region"]:
        raw = cp["region"]["window"]
        rect = tuple(_parse_floats(raw))
        if (
            len(rect) != 4
            or not all(map(math.isfinite, rect))
            or rect[0] >= rect[1]
            or rect[2] >= rect[3]
        ):
            raise ConfigError(f"region window must be xmin,xmax,ymin,ymax; got {raw}")
        if embedding_for_root(root) is None:
            raise ConfigError(
                f"a region window needs a plane embedding, and root {root} has "
                f"no built-in one"
            )
    elif any(x == 0 for x in root):
        raise ConfigError(
            "unbounded packing (zero curvature in root) requires a [region] "
            "window = xmin,xmax,ymin,ymax"
        )

    moduli = _parse_ints(cp["congruence"].get("moduli", "2 3 5 6 7 10"))
    if any(not 2 <= m <= MAX_GROUP_MODULUS for m in moduli):
        raise ConfigError(
            f"congruence moduli must lie in [2, {MAX_GROUP_MODULUS}]; got {moduli}"
        )
    # each modulus is one spectral.csv row and each selector one sieve file
    if len(set(moduli)) < len(moduli):
        raise ConfigError(f"congruence moduli must be distinct; got {moduli}")
    element_cap = int(cp["congruence"].get("element_cap", ELEMENT_CAP_DEFAULT))
    if element_cap < 1:
        raise ConfigError(f"element_cap must be >= 1; got {element_cap}")

    raw_selectors = cp["sieve"].get("selectors", "coord:4").split()
    selectors = [parse_selector(tok) for tok in raw_selectors]
    # every report slices every selector, and max has no congruence density
    if ("max",) in selectors:
        raise ConfigError("[sieve] selectors takes coord:i and product:i:j, not max")
    if len(set(selectors)) < len(selectors):
        raise ConfigError(f"[sieve] selectors must be distinct; got {raw_selectors}")
    level_D = int(cp["sieve"].get("level_d", 50))
    # the sieve slices square-free q < level_D, each through orbit_mod
    if not 2 <= level_D <= MAX_ORBIT_MODULUS + 1:
        raise ConfigError(
            f"level_D must lie in [2, {MAX_ORBIT_MODULUS + 1}]; got {level_D}"
        )

    exps = _parse_ints(cp["boxcount"].get("eps_exponents", "4 5 6 7 8 9"))
    # a slope needs two box sizes; 2^-14 already samples ~1.3e7 curve points
    # at T=1e5, and each finer size quadruples the cells
    if len(set(exps)) < 2:
        raise ConfigError(f"eps_exponents needs at least two distinct exponents; got {exps}")
    if not all(0 <= e <= MAX_EPS_EXPONENT for e in exps):
        raise ConfigError(f"eps_exponents must lie in [0, {MAX_EPS_EXPONENT}]; got {exps}")
    eps = [2.0 ** -k for k in exps]

    # render enumerates the exact rows up to this bound, which, like the
    # [packing] bound, must reach a root circle
    render_bound = float(cp["render"].get("bound", min(bound, max(lowest, 100))))
    if not (math.isfinite(render_bound) and lowest <= render_bound <= MAX_BOUND):
        raise ConfigError(
            f"[render] bound must lie in [{lowest}, {MAX_BOUND}] for root {root}; "
            f"got {render_bound}"
        )

    out_dir = cp["output"].get("dir", "out")

    return RunConfig(
        root=root,
        bound=bound,
        grid_tmin=tmin,
        grid_tmax=tmax,
        grid_points_per_decade=ppd,
        fit_window=window,
        fit_window_alt=window_alt,
        window=rect,
        moduli=moduli,
        element_cap=element_cap,
        selectors=selectors,
        level_D=level_D,
        boxcount_eps=eps,
        render_bound=render_bound,
        out_dir=out_dir,
    )
