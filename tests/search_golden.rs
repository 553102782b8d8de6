//! Search golden: the optimizer's trajectory must not move when the inner
//! coordinate search or the linearized-yield model is re-implemented.
//!
//! The `GOLDEN` constants below were captured before the coordinate search
//! switched from one pass-count per grid value to the single-pass interval
//! scan. For each configuration the test hashes (FNV-1a over exact bit
//! patterns):
//!
//! 1. the final design,
//! 2. every snapshot's linearized pass count and `bad_per_mille` bits,
//! 3. the per-phase simulator counts,
//! 4. `best_passed` and the design of a direct [`CoordinateSearch::run`]
//!    on the initial design's linear models.
//!
//! Sample counts match `tests/end_to_end_*.rs`, so this stays fast in a
//! debug build. To regenerate after an *intentional* trajectory change:
//!
//! ```text
//! cargo test --release --test search_golden -- --ignored regenerate --nocapture
//! ```

use specwise::{
    CoordinateSearch, LinearConstraints, LinearizedYield, OptimizerConfig, YieldOptimizer,
};
use specwise_ckt::{CircuitEnv, FoldedCascode, MillerOpamp};
use specwise_wcd::WcAnalysis;

/// FNV-1a over a sequence of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn miller_config() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::default();
    cfg.mc_samples = 2_000;
    cfg.verify_samples = 150;
    cfg.max_iterations = 2;
    cfg
}

fn folded_config() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::default();
    cfg.mc_samples = 2_000;
    cfg.verify_samples = 120;
    cfg.max_iterations = 1;
    cfg
}

fn miller_trust_config() -> OptimizerConfig {
    let mut cfg = miller_config();
    cfg.coordinate_search.trust_factor = Some(2.0);
    cfg
}

fn miller_box_only_config() -> OptimizerConfig {
    let mut cfg = miller_config();
    cfg.use_constraints = false;
    cfg
}

/// `[design, snapshots, phase sims, direct search]` hashes of one run.
fn capture(env: &(dyn CircuitEnv + Sync), cfg: OptimizerConfig) -> [u64; 4] {
    let trace = YieldOptimizer::new(cfg)
        .run(env)
        .expect("optimization runs");
    let design = fnv1a(trace.final_design().iter().map(|v| v.to_bits()));
    let snapshots = fnv1a(trace.snapshots().iter().flat_map(|s| {
        std::iter::once(s.estimated_yield.passed() as u64)
            .chain(s.bad_per_mille.iter().map(|b| b.to_bits()))
    }));
    let phases = fnv1a(trace.phase_sims.iter().copied());

    // One inner search on the initial design's models, exactly as the
    // first iteration builds them.
    let d0 = &trace.initial().design;
    let analysis = WcAnalysis::new(env, cfg.wc_options)
        .run(d0)
        .expect("worst-case analysis runs");
    let model = LinearizedYield::new(
        analysis.linearizations().to_vec(),
        env.specs().len(),
        cfg.mc_samples,
        cfg.seed,
    )
    .expect("model builds");
    let constraints = if cfg.use_constraints {
        LinearConstraints::from_env(env, d0, cfg.wc_options.fd_step_d)
            .expect("constraints linearize")
    } else {
        LinearConstraints::box_only(d0, env.design_space().lower(), env.design_space().upper())
    };
    let (d_star, best) = CoordinateSearch::new(cfg.coordinate_search)
        .run(&model, &constraints, d0)
        .expect("search runs");
    let search =
        fnv1a(std::iter::once(best.passed() as u64).chain(d_star.iter().map(|v| v.to_bits())));
    [design, snapshots, phases, search]
}

const GOLDEN_MILLER: [u64; 4] = [
    0xca1f7273c8012f5f,
    0x21f4ab7623ac0b26,
    0x39a150cda2edbf16,
    0x0b1d37ac7621c2ca,
];
const GOLDEN_FOLDED: [u64; 4] = [
    0x4d0f6354359cada9,
    0xeafc9b66d5b28384,
    0xcdb5b5d3331f3462,
    0xa0d00c1283f7ff35,
];
const GOLDEN_MILLER_TRUST: [u64; 4] = [
    0xfbf6b20fbd04f50d,
    0x509b0023b80710bd,
    0x2b269bdd8283873c,
    0xfd401bfbaa98d490,
];
const GOLDEN_MILLER_BOX_ONLY: [u64; 4] = [
    0x5724ba3e007d4f7d,
    0xae5ac459eaf8ffc7,
    0x6033c1251fea96bc,
    0xd0e0beaffadedddd,
];

fn check(label: &str, env: &(dyn CircuitEnv + Sync), cfg: OptimizerConfig, golden: [u64; 4]) {
    let got = capture(env, cfg);
    let what = ["final design", "snapshots", "phase sims", "direct search"];
    for i in 0..4 {
        assert_eq!(
            got[i], golden[i],
            "{label}: {} hash drifted: {:#018x}, want {:#018x}",
            what[i], got[i], golden[i]
        );
    }
}

#[test]
fn miller_search_matches_golden() {
    check(
        "miller",
        &MillerOpamp::paper_setup(),
        miller_config(),
        GOLDEN_MILLER,
    );
}

#[test]
fn folded_search_matches_golden() {
    check(
        "folded",
        &FoldedCascode::paper_setup(),
        folded_config(),
        GOLDEN_FOLDED,
    );
}

#[test]
fn miller_trust_region_search_matches_golden() {
    check(
        "miller trust",
        &MillerOpamp::paper_setup(),
        miller_trust_config(),
        GOLDEN_MILLER_TRUST,
    );
}

#[test]
fn miller_box_only_search_matches_golden() {
    check(
        "miller box-only",
        &MillerOpamp::paper_setup(),
        miller_box_only_config(),
        GOLDEN_MILLER_BOX_ONLY,
    );
}

/// Prints fresh golden constants (run with `--ignored --nocapture` and paste
/// the output over the `GOLDEN*` constants above).
#[test]
#[ignore]
fn regenerate() {
    let print = |label: &str, env: &(dyn CircuitEnv + Sync), cfg: OptimizerConfig| {
        let h = capture(env, cfg);
        println!(
            "const GOLDEN_{label}: [u64; 4] = [{:#018x}, {:#018x}, {:#018x}, {:#018x}];",
            h[0], h[1], h[2], h[3]
        );
    };
    print("MILLER", &MillerOpamp::paper_setup(), miller_config());
    print("FOLDED", &FoldedCascode::paper_setup(), folded_config());
    print(
        "MILLER_TRUST",
        &MillerOpamp::paper_setup(),
        miller_trust_config(),
    );
    print(
        "MILLER_BOX_ONLY",
        &MillerOpamp::paper_setup(),
        miller_box_only_config(),
    );
}
