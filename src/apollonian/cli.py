"""Command-line surface: generation, rendering, and report bundles.

Exit codes: 0 success, 2 configuration or validation error, 3 numeric,
size-cap or walk-fault error.  All outputs are deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import warnings

import numpy as np

from . import arithmetic, congruence, counting, render, sieve
from .config import ConfigError, RunConfig, load_config
from .quadruples import WalkFaultError, embedding_for_root, enumerate_orbit, write_circles, write_orbit_dump

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="apollonian",
        description="Apollonian circle packing generation, rendering, and reports",
    )
    parser.add_argument("command", choices=["generate", "render", "report"])
    parser.add_argument("--config", required=True, help="INI run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument(
        "--seed-check",
        action="store_true",
        help="validate the configuration and the root's exact embedding, then exit",
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out:
        cfg.out_dir = args.out

    if args.seed_check:
        return _seed_check(cfg)

    os.makedirs(cfg.out_dir, exist_ok=True)
    try:
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "render":
            return cmd_render(cfg)
        return cmd_report(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        congruence.SizeCapError,
        congruence.EigenConvergenceError,
        OverflowError,
        WalkFaultError,
    ) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _seed_check(cfg: RunConfig) -> int:
    print(f"root {cfg.root}: Descartes residual 0")
    rows = embedding_for_root(cfg.root)
    if rows is None:
        print("no built-in plane embedding for this root; quadruple pipeline only")
        return EXIT_OK
    # twice the Lorentz products 2(wx wx' + wy wy') - (a b' + b a'): 2 on the
    # diagonal (unit norm), -2 between tangent circles
    lorentz2 = np.array([[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    residual = int(np.abs(rows @ lorentz2 @ rows.T - (4 * np.eye(4, dtype=int) - 2)).max())
    print(f"seed norm and tangency residual {residual}")
    if residual:
        print("error: seed inconsistent", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _enumerate(cfg: RunConfig, *, twins: bool, keep_quads: bool):
    return enumerate_orbit(
        cfg.root,
        cfg.bound,
        twins=twins,
        keep_quads=keep_quads,
        embedding="auto",
        region=cfg.window,
    )


def cmd_generate(cfg: RunConfig) -> int:
    orbit = _enumerate(cfg, twins=False, keep_quads=True)
    dump = os.path.join(cfg.out_dir, "orbit.txt")
    lines = write_orbit_dump(orbit, dump)
    circles_path = os.path.join(cfg.out_dir, "circles.csv")
    write_circles(orbit, circles_path)
    n_t = orbit.circle_count
    print(f"N_P({cfg.bound}) = {n_t}")
    print(f"quadruples enumerated = {orbit.quad_count}")
    print(f"wrote {lines} quadruples to {dump} and circles to {circles_path}")
    return EXIT_OK


def cmd_render(cfg: RunConfig) -> int:
    if embedding_for_root(cfg.root) is None:
        print(
            f"error: no plane embedding known for root {cfg.root}; "
            f"rendering needs one of the built-in embeddings",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    orbit = enumerate_orbit(cfg.root, int(cfg.render_bound), embedding="auto", region=cfg.window)
    path = os.path.join(cfg.out_dir, "packing.svg")
    render.write_svg(path, orbit.acc_rows, viewport=cfg.window)
    print(f"wrote {orbit.circle_count} circles to {path}")
    return EXIT_OK


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _f(x: float) -> str:
    return f"{x:.6f}"


@contextlib.contextmanager
def _stage(label: str, failures: list[str]):
    """Run one report stage.  An exception ends only this stage: it is
    recorded as ``label: message`` and the report goes on."""
    try:
        yield
    except Exception as exc:
        failures.append(f"{label}: {exc}")


def cmd_report(cfg: RunConfig) -> int:
    if cfg.bound < arithmetic.MIN_DENSITY_BOUND:  # the residues stage would fail
        raise ConfigError(f"report needs bound >= {arithmetic.MIN_DENSITY_BOUND}; got {cfg.bound}")
    # a common factor multiplies every curvature, so no circle is prime
    gcd = math.gcd(*cfg.root)
    if gcd != 1:
        raise ConfigError(f"report needs a primitive root; {cfg.root} has gcd {gcd}")
    failures: list[str] = []
    summary: list[str] = []
    out = cfg.out_dir

    orbit = _enumerate(cfg, twins=True, keep_quads=True)
    if orbit.circle_count == 0:
        raise ConfigError(f"window {cfg.window} meets no circle of curvature at most {cfg.bound}")
    summary.append(f"root {cfg.root}, bound {cfg.bound}")
    summary.append(f"circles {orbit.circle_count}, quadruples {orbit.quad_count}")

    # count curve and exponent fits
    decades = math.log10(cfg.grid_tmax / cfg.grid_tmin)
    npts = max(5, int(round(decades * cfg.grid_points_per_decade)) + 1)
    grid = np.geomspace(cfg.grid_tmin, cfg.grid_tmax, npts)
    fit = None
    with _stage("counts/fit", failures):
        curve = counting.count_by_curvature(orbit, grid)
        _write_csv(
            os.path.join(out, "counts.csv"),
            "T,N",
            ([_f(t), str(int(n))] for t, n in zip(curve.ts, curve.counts)),
        )
        fit = counting.fit_exponent(curve, cfg.fit_window)
        summary.append(
            f"alpha_hat {fit.alpha_hat:.5f} (stderr {fit.stderr:.5f}) on window "
            f"{cfg.fit_window}, c_hat {fit.c_hat:.5f}"
        )
        if cfg.fit_window_alt:
            fit2 = counting.fit_exponent(curve, cfg.fit_window_alt)
            summary.append(
                f"alpha_hat {fit2.alpha_hat:.5f} on window {cfg.fit_window_alt}; "
                f"drift {abs(fit.alpha_hat - fit2.alpha_hat):.5f}"
            )

    with _stage("primes", failures):
        # the decades from 100 up to the bound, or the bound alone below 100
        ts = [10 ** k for k in range(2, int(math.log10(cfg.bound)) + 1)] or [cfg.bound]
        stats = arithmetic.prime_count_curve(orbit, ts)
        ns = counting.count_by_curvature(orbit, ts).counts
        _write_csv(
            os.path.join(out, "primes.csv"),
            "T,pi,pi2,N",
            ([str(s.bound), str(s.pi), str(s.pi2), str(int(n))] for s, n in zip(stats, ns)),
        )
        last = stats[-1]
        summary.append(f"prime circles {last.pi}, twin pairs {last.pi2} at T={last.bound}")

    # residues, density, missing integers
    with _stage("residues", failures):
        t = arithmetic.tally(orbit)
        res = arithmetic.residues_mod(t, 24)
        _write_csv(
            os.path.join(out, "residues.csv"),
            "residue,present",
            ([str(r), str(int(r in res))] for r in range(24)),
        )
        dens = arithmetic.distinct_density(t)
        summary.append(
            f"kappa {len(res)} residues mod 24; distinct density {dens:.4f} vs "
            f"kappa/24 {len(res) / 24:.4f}"
        )
        missing = arithmetic.missing_integers(t)
        _write_csv(os.path.join(out, "missing.csv"), "missing_n", ([str(n)] for n in missing))
        summary.append(f"local-global exceptions {len(missing)} up to {orbit.bound}")
        summary.append(f"odd-prime triple free: {arithmetic.no_odd_prime_triple(orbit)}")

    # spectral table, one stage per modulus: a failing modulus keeps the
    # other moduli's rows
    skipped = [q for q in cfg.moduli if not arithmetic.is_squarefree(q)]
    if skipped:
        summary.append(f"non-square-free moduli skipped: {skipped}")
    reports, capped = [], []
    computed: dict[int, list] = {}
    for q in cfg.moduli:
        if q in skipped:
            continue
        # the swaps are the identity mod 2, so for odd m reduction mod m maps
        # the group mod 2m isomorphically onto the group mod m, and the two
        # Cayley graphs are isomorphic: q = 2m takes m's row when both are
        # asked for
        base = q // 2 if q % 2 == 0 and q // 2 >= 3 and q // 2 in cfg.moduli else q
        with _stage(f"spectral q={q}", failures):
            if base not in computed:
                computed[base] = congruence.expander_report([base], cfg.element_cap)
            rep = [(q, order, spec) for _, order, spec in computed[base]]
            reports += rep
            if not rep:
                capped.append(q)
    if capped:
        summary.append(f"moduli over element_cap {cfg.element_cap} skipped: {capped}")
    with _stage("spectral", failures):
        reports.sort(key=lambda r: r[0])
        rows = [
            [str(q), str(order)]
            + ["" if v is None else _f(v) for v in (rep.lambda1, rep.cheeger_lower, rep.cheeger_upper)]
            for q, order, rep in reports
        ]
        _write_csv(
            os.path.join(out, "spectral.csv"),
            "q,group_order,lambda1,cheeger_lower,cheeger_upper",
            rows,
        )
        gaps = [4.0 - rep.lambda1 for _, _, rep in reports if rep.lambda1 is not None]
        if gaps:
            summary.append(f"expander gap epsilon {min(gaps):.4f} over moduli {[r[0] for r in reports]}")

    # sieve tables, one stage per selector: a failing selector keeps the
    # other selectors' tables
    for sel in cfg.selectors:
        with _stage(f"sieve {sieve.selector_name(sel)}", failures):
            series = sieve.build_series(orbit, sel)
            name = sieve.selector_name(sel).replace(":", "_")
            excl = sieve.detect_excluded_primes(series)
            rep = sieve.level_distribution_report(series, cfg.level_D)
            _write_csv(
                os.path.join(out, f"sieve_{name}.csv"),
                "q,mass,g_hat,r_hat",
                (
                    [str(s.q), str(s.mass), _f(s.g_hat), _f(s.r_hat)]
                    for s in rep.slices
                ),
            )
            zs = [2, 3, 5, 7, 10, 20, 50, 100]
            counts = sieve.almost_prime_counts(series, zs, excl)
            _write_csv(
                os.path.join(out, f"sieve_{name}_survivors.csv"),
                "z,S",
                ([str(z), str(s)] for z, s in zip(zs, counts)),
            )
            # the level report has sliced every q < level_D; slice only the
            # primes the dimension trace needs beyond it
            dim_zs = [5, 10, 20, 50]
            extra = [
                sieve.slice_series(series, p)
                for p in sieve.sieve_primes(max(dim_zs), excl)
                if p >= cfg.level_D
            ]
            trace = sieve.sieve_dimension_trace(rep.slices + extra, dim_zs, excluded=excl)
            (z0, v0), (z1, v1) = trace[0], trace[-1]
            dim_slope = (v1 - v0) / math.log(z1 / z0)
            summary.append(
                f"sieve {sieve.selector_name(sel)}: X {series.X}, level exponent "
                f"{rep.empirical_exponent:.4f} at D={cfg.level_D}, dimension slope "
                f"{dim_slope:.3f}"
                + (f", excluded primes {sorted(excl)}" if excl else "")
            )

    # box-counting dimension (needs an embedding)
    if orbit.acc_rows is None:
        summary.append("box-counting skipped: no geometric embedding for this root")
    else:
        with _stage("boxcount", failures):
            eps = cfg.boxcount_eps
            counts = counting.box_counts(orbit.acc_rows, eps, viewport=cfg.window)
            _write_csv(
                os.path.join(out, "boxcount.csv"),
                "eps,boxes",
                ([_f(e), str(int(b))] for e, b in zip(eps, counts)),
            )
            with warnings.catch_warnings():
                # box_counts above has already warned about these box sizes
                warnings.simplefilter("ignore", counting.ResolutionWarning)
                dim = counting.boxcount_dimension(orbit.acc_rows, eps, viewport=cfg.window)
            summary.append(f"box-counting dimension estimate {dim:.4f}")
            # uncontrolled prefactor estimate: c_hat over a box-count proxy for
            # the fractal measure of the residual set
            if fit is not None:
                with _stage("packing-constant", failures):
                    # the median by hand: np.median imports numpy.ma, and
                    # statistics imports fractions and decimal
                    hs = sorted(float(b * e**fit.alpha_hat) for e, b in zip(eps, counts))
                    mid = len(hs) // 2
                    h_est = hs[mid] if len(hs) % 2 else (hs[mid - 1] + hs[mid]) / 2
                    summary.append(
                        f"packing-constant estimate (uncontrolled) c_hat/H_est "
                        f"{fit.c_hat / h_est:.5f}"
                    )

    with open(os.path.join(out, "summary.txt"), "w", encoding="ascii", newline="\n") as fh:
        for line in summary:
            fh.write(line + "\n")
        if failures:
            fh.write("failures:\n")
            for f in failures:
                fh.write(f"  {f}\n")
    print("\n".join(summary))
    if failures:
        print("failures:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
