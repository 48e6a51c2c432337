//! Extension E5's mega-shell study against the stochastic-geometry
//! closed forms, at both registry scales: a 4×6 shell over one day
//! (quick) and an 8×8 shell over two days (full).
//!
//! Every cell reports how far it moved the process-wide
//! `cull::stats()` counters, which any prediction running in the same process would
//! also move, so this is the only test in this binary (one process per
//! integration-test file).

use satiot_bench::extensions::Megascale;
use satiot_bench::Scale;

#[test]
fn mega_shell_matches_the_closed_forms_and_culls_out_of_band_sites() {
    // The union band is wider at quick scale: the short window leaves
    // more residual phasing structure.
    for (scale, union_band) in [(Scale::Quick, 0.22), (Scale::Full, 0.12)] {
        let study = Megascale::run(scale);
        let n = study.shell.count() as u64;
        let mut out_of_band = 0;
        for c in &study.cells {
            let cell = format!("{scale:?} {c:?}");
            assert_eq!(c.cull.pairs_considered, n, "pair count: {cell}");
            if c.p_theory == 0.0 {
                // Outside the coverage band both sides are hard zeros,
                // and the latitude-band cull retires every pair before
                // a grid is read.
                out_of_band += 1;
                assert_eq!(c.passes, 0, "passes out of band: {cell}");
                assert_eq!(
                    c.cull.pairs_culled_lat_band, n,
                    "not all band-culled: {cell}"
                );
                assert_eq!((c.a_sim, c.a_theory), (0.0, 0.0), "non-zero union: {cell}");
            } else if c.p_theory >= 1e-3 {
                // The geometry is exact; only the finite window and the
                // shell's discrete phasing add noise.
                assert!(c.rel <= 0.25, "p_sim off the closed form: {cell}");
            }
            assert!(
                c.abs <= union_band,
                "union outside the {union_band} band: {cell}"
            );
            // One-sided: Walker phasing anti-correlates coverage gaps,
            // so the union may beat the approximation but never
            // meaningfully undershoot it.
            assert!(c.a_sim >= c.a_theory - 0.02, "union undershoots: {cell}");
        }
        assert!(
            out_of_band > 0,
            "{scale:?}: no site outside the coverage band"
        );
    }
}
