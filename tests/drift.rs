//! Drift auditor tests: a differential harness streaming random
//! insert/delete batches through the incremental engine vs. full
//! recomputation for all four aggregators × GCN/SAGE/GIN, plus
//! fault-injection through the session's [`DriftPolicy`] — a poisoned α
//! channel must be *detected* (never silently verified clean) and
//! [`DriftAction::Resync`] must restore bitwise-correct output.

use ink_bench::Scrape;
use ink_graph::generators::erdos_renyi;
use ink_graph::DeltaBatch;
use ink_gnn::{Aggregator, Model};
use ink_tensor::init::{seeded_rng, uniform};
use inkstream::{
    AuditKind, DriftAction, DriftPolicy, InkStream, SessionConfig, StreamSession, UpdateConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const AGGS: [Aggregator; 4] =
    [Aggregator::Max, Aggregator::Min, Aggregator::Sum, Aggregator::Mean];

fn build_engine(seed: u64, agg: Aggregator, model_pick: usize) -> (InkStream, StdRng) {
    let mut rng = seeded_rng(seed);
    let g = erdos_renyi(&mut rng, 30, 60);
    let x = uniform(&mut rng, 30, 4, -1.0, 1.0);
    let model = match model_pick {
        0 => Model::gcn(&mut rng, &[4, 5, 3], agg),
        1 => Model::sage(&mut rng, &[4, 5, 3], agg),
        _ => Model::gin(&mut rng, 4, 5, 2, 0.1, agg),
    };
    // Every full-row rebuild the stream still causes — a target whose old
    // neighborhood was empty; exposed resets repair their channels in place
    // — folds its whole neighborhood, so those are audited against full
    // recompute as well.
    let drng = StdRng::seed_from_u64(seed ^ 0xd41f);
    (InkStream::new(model, g, x, UpdateConfig::default()).unwrap(), drng)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Differential stream: many rounds of random insert/delete batches,
    /// incremental vs. full recompute. Monotonic aggregation must stay
    /// bitwise identical; accumulative drift must stay bounded and NaN-free.
    #[test]
    fn incremental_tracks_recompute_over_streams(
        seed in 0u64..1000,
        rounds in 8usize..20,
        agg_pick in 0usize..4,
        model_pick in 0usize..3,
    ) {
        let agg = AGGS[agg_pick];
        let (mut engine, mut drng) = build_engine(seed, agg, model_pick);
        for _ in 0..rounds {
            let delta = DeltaBatch::random_scenario(engine.graph(), &mut drng, 5);
            engine.apply_delta(&delta);
        }
        let reference = engine.recompute_reference();
        if agg.is_monotonic() {
            prop_assert_eq!(engine.output(), &reference);
            prop_assert_eq!(engine.audit_full(), 0.0);
        } else {
            let diff = engine.output().max_abs_diff(&reference);
            prop_assert!(!diff.is_nan(), "accumulative drift must never be NaN");
            prop_assert!(diff < 1e-3, "drift {} after {} rounds", diff, rounds);
            let audit = engine.audit_full();
            prop_assert!(!audit.is_nan() && audit < 1e-3);
        }
    }

    /// Spot audits measure a deviation no larger than the authoritative full
    /// audit can justify: clean engines spot-audit finite and small, and the
    /// worst sampled vertex never exceeds per-vertex tolerance when the full
    /// output is within tolerance.
    #[test]
    fn spot_audits_agree_with_state_health(
        seed in 0u64..500,
        agg_pick in 0usize..4,
    ) {
        let agg = AGGS[agg_pick];
        let (mut engine, mut drng) = build_engine(seed, agg, 0);
        for _ in 0..4 {
            let delta = DeltaBatch::random_scenario(engine.graph(), &mut drng, 4);
            engine.apply_delta(&delta);
        }
        let all: Vec<u32> = (0..engine.graph().num_vertices() as u32).collect();
        let spot = engine.audit_vertices(&all);
        prop_assert!(!spot.is_nan(), "clean state must not spot-audit as NaN");
        if agg.is_monotonic() {
            prop_assert_eq!(spot, 0.0);
        } else {
            prop_assert!(spot < 1e-3, "worst-vertex drift {}", spot);
        }
    }
}

/// NaN poison in one cached α channel: the full audit detects it (NaN, not a
/// silent pass), the breach is recorded, and `Resync` restores output
/// bitwise equal to `recompute_reference()`.
#[test]
fn nan_poison_is_detected_and_resynced() {
    let (engine, mut drng) = build_engine(42, Aggregator::Sum, 0);
    let mut session = StreamSession::with_config(
        engine,
        SessionConfig {
            drift: DriftPolicy::full(1, 1e-3).with_action(DriftAction::Resync),
            ..SessionConfig::default()
        },
    );
    // A healthy ingest first: audited, no breach.
    let d = DeltaBatch::random_scenario(session.engine().graph(), &mut drng, 4);
    let r = session.ingest(&d).unwrap();
    assert_eq!(r.audit, Some(AuditKind::Full));
    assert!(!r.drift_breached, "clean stream must not breach");

    // Poison one α channel, then ingest again.
    session.engine_mut().state_mut().alpha[0].set(3, 1, f32::NAN);
    let d = DeltaBatch::random_scenario(session.engine().graph(), &mut drng, 4);
    let r = session.ingest(&d).unwrap();
    assert!(
        r.verified_diff.unwrap().is_nan(),
        "the audit must report NaN, not a silently-finite diff"
    );
    assert!(r.drift_breached);
    assert!(r.resynced);

    // The resync healed the state bitwise.
    assert!(!session.engine().state_has_nan());
    assert_eq!(session.engine().output(), &session.engine().recompute_reference());
    let drift = Scrape::of(session.metrics());
    assert_eq!(drift.count("ink_drift_nan_detected_total"), 1);
    assert_eq!(drift.count("ink_drift_breaches_total"), 1);
    assert_eq!(drift.count("ink_drift_resyncs_total"), 1);
    assert!(drift.count("ink_drift_resync_ns_total") > 0);

    // And the stream continues cleanly afterwards.
    let d = DeltaBatch::random_scenario(session.engine().graph(), &mut drng, 4);
    let r = session.ingest(&d).unwrap();
    assert!(!r.drift_breached, "post-resync stream is healthy again");
}

/// The spot auditor sees a poisoned vertex directly, and the sampled session
/// audit finds it once the sampler lands on it.
#[test]
fn spot_audit_detects_poisoned_vertex() {
    let (mut engine, _) = build_engine(43, Aggregator::Mean, 0);
    engine.state_mut().alpha[1].set(7, 0, f32::NAN);
    assert!(engine.audit_vertex(7).is_nan());
    // Vertices away from the poison still audit clean (m rows are intact).
    assert!(!engine.audit_vertex(20).is_nan() || engine.graph().has_edge(20, 7));
    // A whole-graph sample always contains the victim.
    let all: Vec<u32> = (0..30).collect();
    assert!(engine.audit_vertices(&all).is_nan());
}

/// `DriftAction::Fail` on a poisoned engine: the error carries the ingest
/// report with the already-applied work.
#[test]
fn fail_action_preserves_ingest_report() {
    let (engine, mut drng) = build_engine(44, Aggregator::Max, 0);
    let mut session = StreamSession::with_config(
        engine,
        SessionConfig {
            max_batch: 2,
            drift: DriftPolicy::full(1, 0.0),
        },
    );
    session.engine_mut().state_mut().h.set(0, 0, f32::NAN);
    let d = DeltaBatch::random_scenario(session.engine().graph(), &mut drng, 6);
    let err = session.ingest(&d).unwrap_err();
    assert!(err.max_diff.is_nan());
    assert_eq!(err.report.batches, 3, "6 changes in batches of 2");
    assert_eq!(err.report.changes_applied + err.report.skipped, 6);
    assert!(err.report.drift_breached);
}

/// A deep dynamic stream on a graph that churns heavily still audits clean
/// for every model family (regression net for the chain-consistency check in
/// `audit_vertex` across conv types).
#[test]
fn chain_audit_holds_for_all_model_families() {
    for model_pick in 0..3 {
        for agg in AGGS {
            let (mut engine, mut drng) = build_engine(47, agg, model_pick);
            for _ in 0..3 {
                let delta = DeltaBatch::random_scenario(engine.graph(), &mut drng, 6);
                engine.apply_delta(&delta);
            }
            let all: Vec<u32> = (0..engine.graph().num_vertices() as u32).collect();
            let dev = engine.audit_vertices(&all);
            assert!(
                !dev.is_nan() && dev < 1e-3,
                "model {model_pick} {agg:?}: worst-vertex deviation {dev}"
            );
        }
    }
}
