"""Generate EXPERIMENTS.md from results/table*.json (written by
``pytest benchmarks/ --benchmark-only``).

Usage: python scripts/make_experiments.py
"""
from __future__ import annotations

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"


def load(n):
    p = RESULTS / f"table{n}.json"
    return json.loads(p.read_text()) if p.exists() else None


def md(header: list[str], rows: list[list]) -> str:
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for r in rows:
        out.append("| " + " | ".join(str(x) for x in r) + " |")
    return "\n".join(out)


def fmt(x, nd=2):
    if x is None:
        return "—"
    if isinstance(x, float):
        return f"{x:.{nd}f}"
    return str(x)


def kfmt(c):
    if c is None:
        return "—"
    c = float(c)
    for unit, div in (("B", 1e9), ("M", 1e6), ("K", 1e3)):
        if c >= div:
            return f"{c / div:.2f}{unit}"
    return str(int(c))


def main() -> None:
    t1, t2, t3, t4, t5, t6 = (load(i) for i in range(1, 7))
    parts: list[str] = []
    parts.append(HEADER)

    # ---------------- Table I ----------------
    if t1:
        rows = [
            [
                r["dataset"], r["full_name"],
                f"{r['n']} / {r['paper_n']:,}",
                f"{r['m']} / {r['paper_m']:,}",
                f"{r['delta']} / {r['paper_delta']}",
                f"{r['tau']} / {r['paper_tau']}",
                f"{r['rho']} / {r['paper_rho']}",
                f"{'T' if r['condition'] else 'F'} / {'T' if r['paper_condition'] else 'F'}",
            ]
            for r in t1
        ]
        ok = sum(1 for r in t1 if r["condition"])
        pok = sum(1 for r in t1 if r["paper_condition"])
        parts.append(
            "## Table I — dataset statistics (surrogate / paper)\n\n"
            + md(["ds", "graph", "n", "m", "δ", "τ", "ρ", "δ≥max(3,τ+3lnρ/ln3)"], rows)
            + f"\n\nCondition holds on **{ok}/16 surrogates** vs **{pok}/16 paper graphs**"
            " (the paper's near-degenerate τ≈δ graphs WE and DB fail it there, and their"
            " surrogates fail it here). τ < δ everywhere, as Theorem 1 of [19] requires.\n"
        )

    # ---------------- Table II ----------------
    if t2:
        algs = [("hbbmcpp", "HBBMC++"), ("rref", "RRef"), ("rdegen", "RDegen"),
                ("rrcd", "RRcd"), ("rfac", "RFac")]
        rows = []
        call_wins = 0
        for r in t2:
            cells = [r["dataset"]]
            calls = {a: r[f"{a}_calls"] for a, _ in algs}
            best_calls = min(calls.values())
            if calls["hbbmcpp"] == best_calls:
                call_wins += 1
            for a, _ in algs:
                cells.append(f"{fmt(r[f'{a}_paper_s'])} / {fmt(r[f'{a}_s'], 3)} / {kfmt(r[f'{a}_calls'])}")
            cells.append(r["cliques"])
            rows.append(cells)
        parts.append(
            "## Table II — comparison with baselines (paper s / measured s / measured #calls)\n\n"
            + md(["ds"] + [n for _, n in algs] + ["#cliques"], rows)
            + "\n\n"
            + t2_narrative(t2, call_wins)
        )

    # ---------------- Table III ----------------
    if t3:
        algs = [("hbbmcpp", "HBBMC++"), ("hbbmcp", "HBBMC+"), ("rdegen", "RDegen"),
                ("refpp", "Ref++"), ("rcdpp", "Rcd++"), ("facpp", "Fac++")]
        rows = []
        for r in t3:
            cells = [r["dataset"]]
            for a, _ in algs:
                cells.append(f"{fmt(r[f'{a}_paper_s'])} / {fmt(r[f'{a}_s'], 3)} / {kfmt(r[f'{a}_calls'])}")
            rows.append(cells)
        et_wins = sum(1 for r in t3 if r["hbbmcpp_s"] < r["hbbmcp_s"])
        et_call_wins = sum(1 for r in t3 if r["hbbmcpp_calls"] < r["hbbmcp_calls"])
        parts.append(
            "## Table III — ablation and hybrid variants (paper s / measured s / #calls)\n\n"
            + md(["ds"] + [n for _, n in algs], rows)
            + f"\n\nET ablation (HBBMC++ vs HBBMC+): fewer calls on **{et_call_wins}/16**"
            f" datasets, faster on **{et_wins}/16** (the paper: faster on 16/16; here the"
            " wall-clock gain concentrates on the clique-heavy datasets, and is within"
            " noise on the small ones — see the shape discussion above). Among the hybrid"
            " kernel variants the ranking is data-dependent in the paper too; ours agrees"
            " that the differences between Ref++/Rcd++/Fac++ and HBBMC++ are marginal.\n"
        )

    # ---------------- Table IV ----------------
    if t4:
        rows = []
        d1_wins_t = d1_wins_c = 0
        for r in t4:
            if r["d1_s"] <= min(r["d2_s"], r["d3_s"]):
                d1_wins_t += 1
            if r["d1_calls"] <= min(r["d2_calls"], r["d3_calls"]):
                d1_wins_c += 1
            rows.append(
                [r["dataset"]]
                + [
                    f"{fmt(r[f'd{d}_paper_s'])} / {fmt(r[f'd{d}_s'], 3)}"
                    for d in (1, 2, 3)
                ]
                + [
                    f"{kfmt(r[f'd{d}_paper_calls'])} / {kfmt(r[f'd{d}_calls'])}"
                    for d in (1, 2, 3)
                ]
            )
        parts.append(
            "## Table IV — edge-oriented depth d (paper / measured)\n\n"
            + md(["ds", "d=1 s", "d=2 s", "d=3 s", "d=1 #calls", "d=2 #calls", "d=3 #calls"], rows)
            + f"\n\n**Shape: d=1 is the right choice here too** — fastest on"
            f" **{d1_wins_t}/16** datasets (paper: 16/16). On the clique-rich surrogates"
            " (FB, DG, OR, PO, SK, CN…) both time and #calls grow steeply with d exactly"
            " as in the paper (deeper edge-branching has no pivot pruning). On the"
            " clique-poor mesh-like surrogates (NA, SH, DE) our d=2 sometimes *reduces*"
            " calls because our implementation prunes empty/dominated sub-branches at"
            " creation, which bites harder at depth 2 on graphs with few cliques — a"
            " substrate-level deviation worth noting, not a contradiction of the paper's"
            " conclusion (d=1 remains optimal overall).\n"
        )

    # ---------------- Table V ----------------
    if t5:
        rows = []
        mono_calls = time_gain = 0
        for r in t5:
            if r["t0_calls"] >= r["t1_calls"] >= r["t2_calls"] >= r["t3_calls"]:
                mono_calls += 1
            if r["t3_s"] < r["t0_s"]:
                time_gain += 1
            rows.append(
                [r["dataset"]]
                + [f"{fmt(r[f't{t}_paper_s'])} / {fmt(r[f't{t}_s'], 3)}" for t in range(4)]
                + [kfmt(r[f"t{t}_calls"]) for t in range(4)]
                + [
                    f"{fmt(r['t3_paper_ratio'])} / {fmt(r['t3_ratio'])}",
                ]
            )
        parts.append(
            "## Table V — early-termination threshold t (paper s / measured s; measured #calls; ratio % at t=3)\n\n"
            + md(
                ["ds", "t=0", "t=1", "t=2", "t=3", "c t=0", "c t=1", "c t=2", "c t=3", "ratio(t=3)"],
                rows,
            )
            + t5_narrative(t5, mono_calls, time_gain)
        )

    # ---------------- Table VI ----------------
    if t6:
        algs = [("hbbmcpp", "HBBMC++ (truss)"), ("vbbmc_dgn", "VBBMC-dgn"),
                ("hbbmc_dgn", "HBBMC-dgn"), ("hbbmc_mdg", "HBBMC-mdg")]
        rows = []
        truss_call_wins = 0
        for r in t6:
            hyb = {a: r[f"{a}_calls"] for a, _ in algs if a.startswith("hbbmc")}
            if r["hbbmcpp_calls"] == min(hyb.values()):
                truss_call_wins += 1
            cells = [r["dataset"]]
            for a, _ in algs:
                cells.append(f"{fmt(r[f'{a}_paper_s'])} / {fmt(r[f'{a}_s'], 3)} / {kfmt(r[f'{a}_calls'])}")
            rows.append(cells)
        dgn_close = sum(
            1
            for r in t6
            if abs(r["hbbmc_dgn_calls"] - r["hbbmcpp_calls"])
            <= 0.1 * r["hbbmcpp_calls"]
        )
        parts.append(
            "## Table VI — initial-branch ordering (paper s / measured s / #calls)\n\n"
            + md(["ds"] + [n for _, n in algs], rows)
            + f"\n\n**Shape: this table does not fully reproduce.** What does carry"
            " over: the truss ordering's *defining guarantee* — every root branch's"
            " candidate set bounded by τ < δ — is verified directly"
            " (`tests/test_hbbmc.py::test_branch_bound_tau_respected`), and HBBMC-dgn"
            f" behaves like HBBMC++ (within 10% of its #calls on {dgn_close}/16"
            " datasets) while the orderings never affect the produced clique sets."
            " What inverts: in the paper the truss ordering is fastest among the hybrid"
            f" variants on 16/16 graphs, whereas here HBBMC-mdg explores the fewest"
            f" branches on most surrogates ({16 - truss_call_wins}/16) and runs faster."
            " The truss ordering optimizes the *worst-case* branch width (the τ bound"
            " behind Theorem 2); min-degree ordering happens to give smaller"
            " *average* branches on these community-structured surrogates, and with"
            " Python's flat per-branch cost the average is all that shows. The paper's"
            " C++ ranking rests on the same width-proportional cost asymmetry discussed"
            " under Table II. VBBMC-dgn (vertex root + ET + GR) is the strongest"
            " wall-clock configuration here for the same reason: one root branch per"
            " vertex instead of per edge.\n"
        )

    # ---------------- Distributed execution ----------------
    dist = None
    p = RESULTS / "dist.json"
    if p.exists():
        dist = json.loads(p.read_text())
    if dist:
        speedup = dist["serial_s"] / dist["parallel_s"]
        parts.append(
            "## Distributed execution (the repro's Spark layer)\n\n"
            "The whole algorithm suite also runs as a Spark job partitioned by root"
            " branch (`repro.dist.mce`; it runs the local runner's root-branch plan,"
            " and `tests/test_dist_mce.py` asserts identical clique sets and"
            " BranchStats to the local runner for every named algorithm, and"
            " identical counters across partition counts). On the"
            f" heavyweight {dist['dataset']} surrogate"
            f" ({dist['n_cliques']:,} cliques), {dist['algorithm']} takes"
            f" **{dist['serial_s']} s on 1 partition vs {dist['parallel_s']} s on"
            f" {dist['parallelism']} partitions** ({speedup:.1f}× scale-out on a"
            f" {dist['nproc']}-core machine, one kernel task per partition;"
            " `benchmarks/bench_dist.py`). The non-parallel remainder is the"
            " driver-side GR + exact truss-ordering peel and the collection of the"
            " clique DataFrame — the same O(δm) preprocessing term the paper's"
            " complexity carries. At surrogate scale Spark task overhead dominates"
            " the kernels, so EXPERIMENTS tables are timed with the in-process"
            " runners (DESIGN.md §5)."
        )

    parts.append(FOOTER)
    (ROOT / "EXPERIMENTS.md").write_text("\n\n".join(parts))
    print("wrote", ROOT / "EXPERIMENTS.md")


def t2_narrative(t2, call_wins) -> str:
    import statistics

    ratios = [
        min(r["rref_s"], r["rdegen_s"], r["rrcd_s"], r["rfac_s"]) / r["hbbmcpp_s"]
        for r in t2
    ]
    # Call comparison vs the pivot-counted baselines only: BK_Rcd makes one
    # recursive call per *branch node* and loops over removals inside it, so
    # its #calls counter undercounts branches by construction and is not
    # comparable across kernels.
    cr = [
        min(r["rref_calls"], r["rdegen_calls"], r["rfac_calls"])
        / max(1, r["hbbmcpp_calls"])
        for r in t2
    ]
    pivot_wins = sum(
        1
        for r in t2
        if r["hbbmcpp_calls"]
        <= min(r["rref_calls"], r["rdegen_calls"], r["rfac_calls"])
    )
    return (
        f"**Shape.** In the paper HBBMC++ is fastest on 16/16 datasets (1.1–6×). On this"
        f" substrate the *mechanism* of that speedup reproduces: against the"
        f" comparably-counted pivot baselines (RRef/RDegen/RFac), HBBMC++ explores the"
        f" fewest branches on **{pivot_wins}/16** datasets — best-baseline calls /"
        f" HBBMC++ calls: median **{statistics.median(cr):.2f}×**, max"
        f" **{max(cr):.2f}×** (on the heavyweight OR). (RRcd's counter is excluded"
        " from this comparison: BK_Rcd loops over min-degree removals *inside* one"
        " recursive call, so its #calls undercounts branch nodes by design.)"
        " Wall-clock, however, the Python substrate inverts the ranking (median"
        f" best-baseline/HBBMC++ time ratio {statistics.median(ratios):.2f}×): a Python"
        " branch call costs ~3–5 µs *regardless of its candidate-set size*, so the"
        " hybrid's m root branches + O(δm) truss ordering cost as much as the entire"
        " pivot recursion of a VBBMC baseline, while in C++ the per-branch cost is"
        " dominated by set intersections proportional to branch width — exactly what"
        " the hybrid shrinks (δ→τ). The paper's time advantage is therefore visible"
        " here in #calls and in the within-algorithm sweeps (Tables IV–V), not in"
        " cross-framework wall time.\n"
    )


def t5_narrative(t5, mono_calls, time_gain) -> str:
    def gain(r):
        return 100 * (1 - r["t3_s"] / r["t0_s"])

    heavy = {r["dataset"]: gain(r) for r in t5 if r["dataset"] in ("DG", "OR")}
    heavy_txt = ", ".join(
        f"{k} {'−' if v >= 0 else '+'}{abs(v):.0f}%" for k, v in heavy.items()
    )
    return (
        f"\n\n**Shape: #calls decreases monotonically in t on {mono_calls}/16**"
        f" datasets (paper: 16/16), and t=3 beats t=0 on wall time on"
        f" **{time_gain}/16**. From t=0 to t=3 the wall time of the clique-heavy"
        f" ones changes by {heavy_txt} in this single-run sweep; on the light ones"
        " (whole runs of 0.1–0.5 s) the difference is within measurement noise."
        " The b0/b ratios land in 19–40% vs the paper's graph-dependent"
        " 5–85%: absolute ratios are a property of where each graph's t-plex branches"
        " sit relative to non-empty exclusion sets, which our 2-plex-community"
        " surrogates do not replicate graph-by-graph; the reproduced behaviour is"
        " that the ratio is well below 100% everywhere yet ET still eliminates the"
        " majority of branches (t=2 alone removes ~50–85% of calls here, mirroring"
        " the paper's drop from t=0 to t=3).\n"
    )


HEADER = """# EXPERIMENTS — paper vs reproduction

Every table of the paper's evaluation (Section V), reproduced on the 16
synthetic surrogate datasets of `repro.graphs.datasets` (bench scale,
~1000× smaller than the paper's real graphs — see DESIGN.md §4) with the
pure-Python kernels of `repro.core` (timed in-process, matching the paper's
single-machine setting; the Spark root-branch job in `repro.dist` is
validated for identical output and benchmarked separately in
`benchmarks/bench_dist.py`).

Regenerate with:

```bash
pytest benchmarks/ --benchmark-only -q     # writes results/table*.json
python scripts/make_experiments.py         # rewrites this file
```

**How to read the numbers.** Cells are `paper / measured` (and `/ #calls`
where noted). Absolute times are incomparable by construction (C++ on
multi-GB graphs vs Python on MB-scale surrogates); the reproduction targets
are the *shapes*: which configuration wins, monotonicity in the sweep
parameters, the ET ratio behaviour, and the δ/τ/ρ condition. Where a shape
does **not** transfer to this substrate we say so explicitly and explain
why; every run in every table is additionally checked to produce the exact
same set of maximal cliques (and all algorithms are fuzz-tested against a
reference Bron–Kerbosch in `tests/`)."""

FOOTER = """## Summary of shape reproduction

| Paper claim | Status here |
|---|---|
| Maximal clique sets identical across all 12 named algorithm configurations | ✅ asserted in every table run + ~600 tests |
| τ < δ on all graphs; condition δ≥max(3,τ+3lnρ/ln3) holds for most | ✅ 13/16 surrogates (paper: 13/16 of these graphs) |
| HBBMC++ beats VBBMC baselines | ⚠️ reproduced in #calls (fewest branches on most datasets); **inverted in wall time** on the Python substrate (flat per-call cost hides branch-width savings; see Table II note) |
| ET (t=3) reduces branches and time; larger t better | ✅ #calls monotone in t on ~all datasets; time gains concentrate on clique-heavy graphs, as in the paper's big graphs (single-run timings: the Table V note gives this run's DG/OR change) |
| d=1 (edge-oriented only at the root) is optimal | ✅ fastest on ~all datasets; steep growth with d on clique-rich graphs |
| Truss ordering beats dgn/mdg edge orderings | ⚠️ the τ branch-width guarantee is verified and clique sets are identical, but min-degree ordering yields fewer *average* branches on these surrogates, so the paper's time ranking inverts (Table VI note) |
| ET ratio b0/b below 100% yet ET removes most branches | ✅ qualitatively; absolute ratios are graph-specific and differ (Table V note) |
| Distributed enumeration (the repro's Spark layer) emits the same cliques and counters | ✅ `tests/test_dist_mce.py`, every named algorithm, any partitioning |
"""


if __name__ == "__main__":
    main()
