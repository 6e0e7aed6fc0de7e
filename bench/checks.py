"""Checks of the program's outputs, each with a self-test.

A check takes a context of parsed outputs and returns a list of failure
messages (empty when the output is right). Expected values come from the
benchmark's own computations (its readers, the synthetic draws it wrote, a
per-cell log-density loop) or from properties the method must have. Each
check is paired with a perturbation: ``run_checks`` feeds the check a copy
of the context with that perturbation applied and counts it as a failure
if the check still passes.
"""

from __future__ import annotations

import copy
import hashlib
import math

import numpy as np

import spec

REL_TOL = 1e-9


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


# -- fit workloads -------------------------------------------------------------

def expected_fit_header(ds) -> list[str]:
    m = ds["meta"]
    return (["chain", "draw"]
            + spec.global_names("full", m["n_features"], m["n_groups"],
                                m["pinned_group"])
            + spec.latent_names(p["id"] for p in ds["patients"]))


def check_fit_shape(ctx):
    """chains x draws rows, the canonical columns, no pinned parameter."""
    dr, f = ctx["draws"], ctx["fit"]
    out = []
    if dr["header"] != expected_fit_header(ctx["dataset"]):
        out.append("draws.csv columns are not the canonical full-variant list")
    pinned = set(spec.pinned_names(ctx["dataset"]["meta"]["pinned_group"]))
    if pinned & set(dr["names"]):
        out.append(f"pinned parameters present: {sorted(pinned & set(dr['names']))}")
    want = [(c, k) for c in range(f["chains"]) for k in range(f["draws"])]
    if list(zip(dr["chain"], dr["draw"])) != want or \
            dr["values"].shape[0] != len(want):
        out.append(f"expected {f['chains']} x {f['draws']} rows in chain order")
    return out


def check_fit_support(ctx):
    """Every value finite; every bounded parameter above its bound."""
    dr = ctx["draws"]
    out = []
    if not np.all(np.isfinite(dr["values"])):
        out.append("non-finite draw values")
    for j, name in enumerate(dr["names"]):
        if name.startswith(("init_sev[", "rate[")):
            continue
        low = spec.lower_bound(name)
        if low is not None and not np.all(dr["values"][:, j] > low):
            out.append(f"{name} at or below its bound {low}")
    return out


def _posterior(ctx):
    dr = ctx["draws"]
    return {n: dr["values"][:, j] for j, n in enumerate(dr["names"])}


def check_latent_recovery(ctx):
    """Posterior-mean init_sev tracks the true latents (r >= 0.95)."""
    post = _posterior(ctx)
    pids = [p["id"] for p in ctx["dataset"]["patients"]]
    est = np.array([post[f"init_sev[{p}]"].mean() for p in pids])
    true = np.array([ctx["truth"]["latents"][f"init_sev[{p}]"] for p in pids])
    r = float(np.corrcoef(est, true)[0, 1])
    return [] if r >= 0.95 else [f"init_sev recovery r = {r:.4f} < 0.95"]


def check_global_coverage(ctx):
    """Most globals' true values lie within posterior mean +- 3 sd."""
    post = _posterior(ctx)
    truth = ctx["truth"]["params"]
    names = [n for n in post if not n.startswith(("init_sev[", "rate["))]
    inside = [abs(post[n].mean() - truth[n]) <= 3.0 * post[n].std(ddof=1)
              for n in names]
    share = sum(inside) / len(inside)
    return [] if share >= 0.8 else [f"only {share:.0%} of globals cover truth"]


def own_log_density(ds, x) -> tuple[float, float]:
    """Centered and non-centered log-density at constrained point ``x``
    (name -> value) in unconstrained coordinates, summed cell by cell and
    bin by bin with ``math.fsum``."""
    m = ds["meta"]
    w, d, pinned = m["bin_width"], m["n_features"], m["pinned_group"]

    def normal(v, mean, var):
        return -0.5 * (math.log(2.0 * math.pi) + math.log(var)) \
            - 0.5 * (v - mean) ** 2 / var

    parts, latent_jac = [], []
    for name, v in x.items():
        if name.startswith(("init_sev[", "rate[")):
            continue
        parts.append(spec.log_prior(name, v))
        low = spec.lower_bound(name)
        if low is not None:
            parts.append(math.log(v - low))  # Jacobian of x = low + exp(u)
    L = [x[f"loading[{j}]"] for j in range(d)]
    B = [x[f"feat_intercept[{j}]"] for j in range(d)]
    V = [x[f"noise_var[{j}]"] for j in range(d)]
    vint, vsev = x["visit_intercept"], x["visit_severity"]
    for p in ds["patients"]:
        g, pid = p["group"], p["id"]
        sev0, rate = x[f"init_sev[{pid}]"], x[f"rate[{pid}]"]
        if g == pinned:
            m_i, s_i, off = 0.0, 1.0, 0.0
        else:
            m_i, s_i = x[f"init_sev_mean[{g}]"], x[f"init_sev_sd[{g}]"]
            off = x[f"visit_offset[{g}]"]
        m_r, s_r = x[f"rate_mean[{g}]"], x[f"rate_sd[{g}]"]
        parts += [normal(sev0, m_i, s_i * s_i), normal(rate, m_r, s_r * s_r)]
        latent_jac += [math.log(s_i), math.log(s_r)]
        for t, visit, cells in p["rows"]:
            sev = sev0 + rate * t * w
            for j, c in enumerate(cells):
                if c is not None:
                    parts.append(normal(c, L[j] * sev + B[j], V[j]))
            if t >= 1:  # bin 0 is the conditioning first visit
                q = w * math.exp(vint + vsev * sev + off)
                parts.append(math.log(-math.expm1(-q)) if visit else -q)
    return math.fsum(parts), math.fsum(parts + latent_jac)


def check_log_density(ctx):
    """The program's log-density at the last draw equals the loop's."""
    prog = ctx["log_density"]
    if "error" in prog:
        return [prog["error"]]
    dr = ctx["draws"]
    x = dict(zip(dr["names"], dr["values"][-1].tolist()))
    lp_c, lp_nc = own_log_density(ctx["dataset"], x)
    out = []
    for label, mine, theirs in (("centered", lp_c, prog["centered"]),
                                ("non-centered", lp_nc, prog["noncentered"])):
        if not _close(mine, theirs):
            out.append(f"{label} log-density {theirs!r} != loop {mine!r}")
    return out


def check_repeat(ctx):
    """Two fits with the same seed write byte-identical draws.csv."""
    a, b = ctx["repeat_sha"]
    return [] if a == b else ["repeat fit with the same seed wrote other draws"]


def check_simulate_repeat(ctx):
    """Every set-up's `dispro simulate` wrote the same dataset.csv."""
    shas = ctx["cohort_sha"]
    return [] if len(set(shas)) == 1 else ["simulate is not deterministic"]


# -- evaluate-n300 -------------------------------------------------------------

def _ds_arrays(ds):
    pids = [p["id"] for p in ds["patients"]]
    groups = np.array([p["group"] for p in ds["patients"]])
    horizon = np.array([len(p["rows"]) - 1 for p in ds["patients"]])
    return pids, groups, horizon


def _pearson(x, y):
    if x.size < 2 or float(np.std(x)) == 0.0 or float(np.std(y)) == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def _slope(t, e):
    denom = float(t @ t)
    return None if denom == 0.0 else float(t @ e) / denom


def expected_recovery(trials):
    """trials: (column means, truth, dataset) per --fit/--truth pair."""
    pairs, sev_points = {}, []
    for means, truth, ds in trials:
        m = ds["meta"]
        for name in spec.global_names("full", m["n_features"], m["n_groups"],
                                      m["pinned_group"]):
            if name in truth["params"]:
                pairs.setdefault(name, []).append((truth["params"][name],
                                                   means[name]))
        pids, groups, horizon = _ds_arrays(ds)
        t_mid = horizon * m["bin_width"] / 2.0
        lat = truth["latents"]
        true = np.array([lat[f"init_sev[{p}]"] + lat[f"rate[{p}]"] * t
                         for p, t in zip(pids, t_mid)])
        est = np.array([means[f"init_sev[{p}]"] + means[f"rate[{p}]"] * t
                        for p, t in zip(pids, t_mid)])
        for g in np.unique(groups):
            sev_points.append((float(np.mean(true[groups == g])),
                               float(np.mean(est[groups == g]))))
    per_param = {}
    for name, pr in pairs.items():
        t = np.array([a for a, _ in pr])
        e = np.array([b for _, b in pr])
        per_param[name] = {"pearson_r": _pearson(t, e), "slope": _slope(t, e)}
    st = np.array([a for a, _ in sev_points])
    se = np.array([b for _, b in sev_points])
    rs = [v["pearson_r"] for v in per_param.values() if v["pearson_r"] is not None]
    ss = [v["slope"] for v in per_param.values() if v["slope"] is not None]
    return {"per_param": per_param,
            "severity_calibration": {"pearson_r": _pearson(st, se),
                                     "slope": _slope(st, se)},
            "mean_pearson_r": float(np.mean(rs)) if rs else None,
            "mean_slope": float(np.mean(ss)) if ss else None}


def check_recovery(ctx):
    """Recovery Pearson r and slope match the benchmark's numpy."""
    got, want = ctx["summaries"]["recovery"], ctx["expected"]["recovery"]
    out = []
    for key in ("mean_pearson_r", "mean_slope"):
        if not _close(got.get(key), want[key]):
            out.append(f"recovery {key} {got.get(key)} != {want[key]}")
    for stat in ("pearson_r", "slope"):
        a = got["severity_calibration"][stat]
        b = want["severity_calibration"][stat]
        if not _close(a, b):
            out.append(f"severity calibration {stat} {a} != {b}")
    if set(got["per_param"]) != set(want["per_param"]):
        out.append("recovery reports another parameter set")
    for name, w in want["per_param"].items():
        g = got["per_param"].get(name, {})
        for stat in ("pearson_r", "slope"):
            if not _close(g.get(stat), w[stat]):
                out.append(f"{name} {stat} {g.get(stat)} != {w[stat]}")
    return out


def expected_bias(means_by_variant, truth, ds):
    pids, groups, horizon = _ds_arrays(ds)
    w = ds["meta"]["bin_width"]
    lat = truth["latents"]
    out = {}
    for variant, means in means_by_variant.items():
        errs = {g: [] for g in np.unique(groups).tolist()}
        for p, g, h in zip(pids, groups.tolist(), horizon.tolist()):
            t = np.arange(h + 1) * w
            est = means[f"init_sev[{p}]"] + means[f"rate[{p}]"] * t
            true = lat[f"init_sev[{p}]"] + lat[f"rate[{p}]"] * t
            errs[g].append(est - true)
        out[variant] = {str(g): float(np.mean(np.concatenate(e)))
                        for g, e in errs.items()}
    return out


def check_bias(ctx):
    """Per-group mean severity error of every variant matches."""
    got = ctx["summaries"]["bias"]["variants"]
    want = ctx["expected"]["bias"]
    out = []
    if set(got) != set(want):
        return [f"bias variants {sorted(got)} != {sorted(want)}"]
    for v, groups in want.items():
        for g, b in groups.items():
            a = got[v]["group_bias"].get(g)
            if not _close(a, b):
                out.append(f"{v} group {g} bias {a} != {b}")
    return out


def expected_disparity(means, meta, years_per_unit):
    G, pinned = meta["n_groups"], meta["pinned_group"]
    mean_rate = float(np.mean([means[f"rate_mean[{g}]"] for g in range(G)]))
    out = {}
    for g in range(G):
        if g == pinned:
            continue
        gap = means[f"init_sev_mean[{g}]"]
        out[str(g)] = {"init_sev_gap": gap,
                       "delay_time_units": gap / mean_rate,
                       "delay_years": gap / mean_rate * years_per_unit,
                       "visit_rate_ratio": math.exp(means[f"visit_offset[{g}]"])}
    return out


def check_disparity(ctx):
    """Disparity gap, delay and exp(visit_offset) ratio match."""
    got = ctx["summaries"]["disparity"]["per_group"]
    want = ctx["expected"]["disparity"]
    out = []
    for g, entry in want.items():
        for key, b in entry.items():
            a = got.get(g, {}).get(key)
            if not _close(a, b):
                out.append(f"disparity group {g} {key} {a} != {b}")
    return out


def check_oracles(ctx):
    """All 160 quadrature scenarios hold: the three bias inequalities are
    theorems, so any failure is the program's."""
    s = ctx["summaries"]["oracles"]
    ok = s["n_scenarios"] == 160 and s["n_passed"] == 160 and s["all_passed"]
    return [] if ok else [f"oracles {s['n_passed']}/{s['n_scenarios']} hold"]


def held_out_cells(ds, train_window) -> int:
    return sum(c is not None for p in ds["patients"]
               for t, _, cells in p["rows"] if t >= train_window
               for c in cells)


def check_baselines(ctx):
    """Every forecasting method predicts each held-out observed cell."""
    want = ctx["expected"]["held_out"]
    pred = ctx["summaries"]["baselines"].get("prediction", {})
    bad = {m: r["n_predictions"] for m, r in pred.items()
           if r["n_predictions"] != want}
    if not pred or bad:
        return [f"n_predictions {bad or 'missing'} != {want} held-out cells"]
    return []


def check_reports(ctx):
    """`dispro report` rendered every evaluate output."""
    return [f"report of {m} is empty" for m, text in ctx["reports"].items()
            if not text.startswith("# dispro report: ")
            or len(text.splitlines()) < 3]


def check_score(ctx):
    """Density calls at fixed points are finite and repeat exactly."""
    s = ctx["score"]
    ok = s["repeat_equal"] and all(math.isfinite(v) for v in s["lp"])
    return [] if ok else ["density at fixed points is not finite or repeatable"]


# -- perturbations for the self-tests -----------------------------------------

def _bump(value):
    return value + 1e-6 * max(1.0, abs(value))


def _perturb_draws(fn):
    def perturb(ctx):
        fn(ctx["draws"])
        return ctx
    return perturb


def _drop_last_row(dr):
    dr["chain"], dr["draw"] = dr["chain"][:-1], dr["draw"][:-1]
    dr["values"] = dr["values"][:-1]


def _below_bound(dr):
    j = dr["names"].index("noise_var[0]")
    dr["values"][0, j] = -1.0


def _shuffle_latents(dr):
    cols = [j for j, n in enumerate(dr["names"]) if n.startswith("init_sev[")]
    dr["values"][:, cols] = dr["values"][:, cols[::-1]]


def _shift_globals(dr):
    cols = [j for j, n in enumerate(dr["names"])
            if not n.startswith(("init_sev[", "rate["))]
    dr["values"][:, cols] += 10.0 * dr["values"][:, cols].std(axis=0) + 1.0


def _bump_lp(ctx):
    ctx["log_density"]["noncentered"] = _bump(ctx["log_density"]["noncentered"])
    return ctx


def _bump_summary(mode, path):
    def perturb(ctx):
        node = ctx["summaries"][mode]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _bump(node[path[-1]])
        return ctx
    return perturb


def _first_param(ctx):
    name = sorted(ctx["expected"]["recovery"]["per_param"])[0]
    return _bump_summary("recovery", ["per_param", name, "slope"])(ctx)


def _bias_off(ctx):
    g = ctx["summaries"]["bias"]["variants"]["no_rate"]["group_bias"]
    g["1"] = _bump(g["1"])
    return ctx


def _oracle_miss(ctx):
    ctx["summaries"]["oracles"]["n_passed"] -= 1
    return ctx


def _extra_prediction(ctx):
    for r in ctx["summaries"]["baselines"]["prediction"].values():
        r["n_predictions"] += 1
    return ctx


def _blank_report(ctx):
    ctx["reports"]["bias"] = ""
    return ctx


def _score_nan(ctx):
    ctx["score"]["lp"][0] = math.nan
    return ctx


def _other_sha(key, k):
    def perturb(ctx):
        ctx[key] = list(ctx[key])
        ctx[key][k] = "0" * 64
        return ctx
    return perturb


FIT_CHECKS = [
    (check_fit_shape, _perturb_draws(_drop_last_row)),
    (check_fit_support, _perturb_draws(_below_bound)),
    (check_log_density, _bump_lp),
]
RECOVERY_CHECKS = [  # fit-n150 only: the pilot is too short to recover
    (check_latent_recovery, _perturb_draws(_shuffle_latents)),
    (check_global_coverage, _perturb_draws(_shift_globals)),
]
EVALUATE_CHECKS = [
    (check_recovery, _first_param),
    (check_bias, _bias_off),
    (check_disparity, _bump_summary("disparity",
                                    ["per_group", "1", "delay_time_units"])),
    (check_oracles, _oracle_miss),
    (check_baselines, _extra_prediction),
    (check_reports, _blank_report),
    (check_score, _score_nan),
]
SIMULATE_CHECK = (check_simulate_repeat, _other_sha("cohort_sha", -1))
REPEAT_CHECK = (check_repeat, _other_sha("repeat_sha", 1))


def run_checks(pairs, ctx) -> tuple[list[str], list[str]]:
    """(failures, self-test failures) of the given (check, perturb) pairs."""
    failures, selftest = [], []
    for check, perturb in pairs:
        failures += [f"{check.__name__}: {m}" for m in check(ctx)]
        if not check(perturb(copy.deepcopy(ctx))):
            selftest.append(f"{check.__name__} passed a perturbed output")
    return failures, selftest
