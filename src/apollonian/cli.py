"""Command-line surface: generation, rendering, and report bundles.

Exit codes: 0 success, 2 configuration or validation error, 3 numeric or
size-cap error.  All outputs are deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import arithmetic, congruence, counting, geometry, render, sieve
from .config import ConfigError, RunConfig, load_config
from .quadruples import enumerate_orbit, write_circles, write_orbit_dump

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
    parser.add_argument("--threads", type=int, default=1, help="worker threads for reports")
    parser.add_argument(
        "--seed-check",
        action="store_true",
        help="validate the configuration and geometric seed, then exit",
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
        return cmd_report(cfg, threads=max(1, args.threads))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (congruence.SizeCapError, congruence.EigenConvergenceError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _seed_check(cfg: RunConfig) -> int:
    print(f"root {cfg.root}: Descartes residual 0")
    seed = geometry.seed_for_root(cfg.root)
    if seed is None:
        print("no built-in geometric seed for this root; quadruple pipeline only")
        return EXIT_OK
    residual = seed.descartes_residual()
    worst = max(
        geometry.tangency_residual(seed.circles[i], seed.circles[j])
        for i in range(4)
        for j in range(i + 1, 4)
    )
    print(f"seed Descartes residual {residual:.3e}; worst tangency residual {worst:.3e}")
    if residual > 1e-9 or worst > 1e-9:
        print("error: seed inconsistent", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _enumerate(cfg: RunConfig, *, tangency: bool, keep_quads: bool):
    unbounded = any(x == 0 for x in cfg.root)
    region = cfg.region_window if unbounded else None
    if unbounded and region is None:
        raise ConfigError("unbounded packing requires a region window")
    return enumerate_orbit(
        cfg.root,
        cfg.bound,
        tangency=tangency,
        keep_quads=keep_quads,
        embedding="auto",
        region=region,
    )


def cmd_generate(cfg: RunConfig) -> int:
    orbit = _enumerate(cfg, tangency=False, keep_quads=True)
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
    seed = geometry.seed_for_root(cfg.root)
    if seed is None:
        print(
            f"error: no geometric embedding known for root {cfg.root}; "
            f"rendering needs one of the built-in seeds",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    if seed.descartes_residual() > 1e-9:
        print("error: seed fails the Descartes relation", file=sys.stderr)
        return EXIT_CONFIG
    region = cfg.region_window
    circles = geometry.generate_packing_geometric(seed, cfg.render_bound, region=region)
    path = os.path.join(cfg.out_dir, "packing.svg")
    viewport = region if region is not None else None
    render.write_svg(path, circles, viewport=viewport)
    print(f"wrote {len(circles)} circles to {path}")
    return EXIT_OK


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _f(x: float) -> str:
    return f"{x:.6f}"


def cmd_report(cfg: RunConfig, threads: int = 1) -> int:
    failures: list[str] = []
    summary: list[str] = []
    out = cfg.out_dir

    orbit = _enumerate(cfg, tangency=True, keep_quads=True)
    summary.append(f"root {cfg.root}, bound {cfg.bound}")
    summary.append(f"circles {orbit.circle_count}, quadruples {orbit.quad_count}")

    # count curve and exponent fits
    decades = math.log10(cfg.grid_tmax / cfg.grid_tmin)
    npts = max(5, int(round(decades * cfg.grid_points_per_decade)) + 1)
    grid = np.geomspace(cfg.grid_tmin, cfg.grid_tmax, npts)
    fit = None
    try:
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
    except Exception as exc:
        failures.append(f"counts/fit: {exc}")

    # prime statistics
    try:
        ts = [10 ** k for k in range(2, int(math.log10(cfg.bound)) + 1)]
        stats = arithmetic.prime_count_curve(orbit, ts)
        u = np.sort(orbit.unsigned_curvatures)
        rows = []
        for s in stats:
            n_at = int(np.searchsorted(u, s.bound, side="right"))
            rows.append([str(s.bound), str(s.pi), str(s.pi2), str(n_at)])
        _write_csv(os.path.join(out, "primes.csv"), "T,pi,pi2,N", rows)
        last = stats[-1]
        summary.append(f"prime circles {last.pi}, twin pairs {last.pi2} at T={last.bound}")
    except Exception as exc:
        failures.append(f"primes: {exc}")

    # residues, density, missing integers
    try:
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
        with open(os.path.join(out, "missing.csv"), "w", encoding="ascii", newline="\n") as fh:
            fh.write("missing_n\n")
            for n in missing:
                fh.write(f"{n}\n")
        summary.append(f"local-global exceptions {len(missing)} up to {t.bound}")
        summary.append(f"odd-prime triple free: {arithmetic.no_odd_prime_triple(orbit)}")
    except Exception as exc:
        failures.append(f"residues: {exc}")

    # spectral table
    try:
        rows = []
        gap_eps = None

        def one(q):
            img = congruence.reduce_group_mod(q, element_cap=cfg.element_cap)
            graph = congruence.build_cayley(img)
            rep = congruence.spectrum(graph, dense_cap=cfg.dense_cap)
            return q, img.order, rep

        reports = []
        moduli = [q for q in cfg.moduli if arithmetic.is_squarefree(q)]
        skipped = [q for q in cfg.moduli if not arithmetic.is_squarefree(q)]
        if skipped:
            summary.append(f"non-square-free moduli skipped: {skipped}")
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for res in pool.map(_guard(one), moduli):
                if isinstance(res, Exception):
                    if isinstance(res, congruence.SizeCapError):
                        continue
                    raise res
                reports.append(res)
        reports.sort(key=lambda r: r[0])
        for q, order, rep in reports:
            rows.append(
                [
                    str(q),
                    str(order),
                    _f(rep.lambda1) if rep.lambda1 is not None else "",
                    _f(rep.cheeger_lower) if rep.cheeger_lower is not None else "",
                    _f(rep.cheeger_upper) if rep.cheeger_upper is not None else "",
                ]
            )
            if rep.lambda1 is not None:
                g = 4.0 - rep.lambda1
                gap_eps = g if gap_eps is None else min(gap_eps, g)
        _write_csv(
            os.path.join(out, "spectral.csv"),
            "q,group_order,lambda1,cheeger_lower,cheeger_upper",
            rows,
        )
        if gap_eps is not None:
            summary.append(f"expander gap epsilon {gap_eps:.4f} over moduli {[r[0] for r in reports]}")
    except Exception as exc:
        failures.append(f"spectral: {exc}")

    # sieve tables
    try:
        for sel in cfg.selectors:
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
            zs = sorted({2, 3, 5, 7, 10, 20, 50, 100})
            _write_csv(
                os.path.join(out, f"sieve_{name}_survivors.csv"),
                "z,S",
                (
                    [str(z), str(sieve.almost_prime_count(series, z, excl))]
                    for z in zs
                ),
            )
            trace = sieve.sieve_dimension_trace(series, [5, 10, 20, 50], excluded=excl)
            (z0, v0), (z1, v1) = trace[0], trace[-1]
            dim_slope = (v1 - v0) / math.log(z1 / z0)
            summary.append(
                f"sieve {sieve.selector_name(sel)}: X {series.X}, level exponent "
                f"{rep.empirical_exponent:.4f} at D={cfg.level_D}, dimension slope "
                f"{dim_slope:.3f}"
                + (f", excluded primes {sorted(excl)}" if excl else "")
            )
    except Exception as exc:
        failures.append(f"sieve: {exc}")

    # box-counting dimension (needs an embedding)
    try:
        if orbit.acc_rows is not None:
            circles = geometry.circles_from_rows(orbit.acc_rows)
            eps = cfg.boxcount_eps
            counts = counting.box_counts(circles, eps, viewport=cfg.region_window)
            _write_csv(
                os.path.join(out, "boxcount.csv"),
                "eps,boxes",
                ([_f(e), str(int(b))] for e, b in zip(eps, counts)),
            )
            dim = counting.boxcount_dimension(circles, eps, viewport=cfg.region_window)
            summary.append(f"box-counting dimension estimate {dim:.4f}")
            # uncontrolled prefactor estimate: c_hat over a box-count proxy for
            # the fractal measure of the residual set
            if fit is not None:
                try:
                    h_est = float(
                        np.median([b * e ** fit.alpha_hat for e, b in zip(eps, counts)])
                    )
                    summary.append(
                        f"packing-constant estimate (uncontrolled) c_hat/H_est "
                        f"{fit.c_hat / h_est:.5f}"
                    )
                except Exception as exc:
                    failures.append(f"packing-constant: {exc}")
        else:
            summary.append("box-counting skipped: no geometric embedding for this root")
    except Exception as exc:
        failures.append(f"boxcount: {exc}")

    summary_path = os.path.join(out, "summary.txt")
    with open(summary_path, "w", encoding="ascii", newline="\n") as fh:
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


def _guard(fn):
    def wrapped(*a):
        try:
            return fn(*a)
        except Exception as exc:  # surfaced by the caller
            return exc

    return wrapped


if __name__ == "__main__":
    sys.exit(main())
