//! Cross-crate protocol behaviour: every distributed protocol terminates
//! correctly on the graph families it is supposed to handle, and the
//! baselines fail exactly where the paper says they must.

use radio_broadcast::distributed::run_push_gossip;
use radio_broadcast::prelude::*;
use radio_graph::components::is_connected;
use radio_sim::Protocol;

fn connected_gnp(n: usize, p: f64, rng: &mut Xoshiro256pp) -> Graph {
    for _ in 0..50 {
        let g = sample_gnp(n, p, rng);
        if is_connected(&g) {
            return g;
        }
    }
    panic!("no connected sample");
}

#[test]
fn all_radio_protocols_complete_on_moderate_graph() {
    let n = 1_500;
    let d = 25.0;
    let p = d / n as f64;
    let mut rng = Xoshiro256pp::new(10);
    let g = connected_gnp(n, p, &mut rng);

    let mut protocols: Vec<Box<dyn Protocol>> = vec![
        Box::new(EgDistributed::new(p)),
        Box::new(EgDistributed::with_variant(p, EgVariant::Strict)),
        Box::new(Decay::new()),
        Box::new(ConstantProb::new(1.0 / d)),
    ];
    for proto in protocols.iter_mut() {
        let r = RunSpec::on_graph(&g, 3)
            .with_config(RunConfig::for_graph(n))
            .run_with_rng(proto.as_mut(), &mut rng)
            .into_single();
        assert!(
            r.completed,
            "{} failed: informed {}/{n}",
            proto.name(),
            r.informed
        );
    }
}

#[test]
fn round_robin_completes_with_linear_budget() {
    let n = 200;
    let mut rng = Xoshiro256pp::new(11);
    let g = connected_gnp(n, 0.08, &mut rng);
    let mut proto = RoundRobin::default();
    let cfg = RunConfig::for_graph(n).with_max_rounds((n * n) as u32);
    let r = RunSpec::on_graph(&g, 0)
        .with_config(cfg)
        .run_with_rng(&mut proto, &mut rng)
        .into_single();
    assert!(r.completed);
}

#[test]
fn selective_family_broadcast_on_bounded_degree() {
    let n = 300;
    let mut rng = Xoshiro256pp::new(12);
    let g = connected_gnp(n, 6.0 * (n as f64).ln() / n as f64, &mut rng);
    let max_deg = g.nodes().map(|v| g.degree(v)).max().unwrap();
    let mut proto = SelectiveBroadcast::for_degree_bound(n, max_deg + 1);
    let period = proto.family().len() as u32;
    let cfg = RunConfig::for_graph(n).with_max_rounds(period * 64);
    let r = RunSpec::on_graph(&g, 0)
        .with_config(cfg)
        .run_with_rng(&mut proto, &mut rng)
        .into_single();
    assert!(r.completed, "informed {}/{n}", r.informed);
}

#[test]
fn flooding_fails_on_dense_but_gossip_succeeds() {
    // The same dense instance separates the radio model (flooding jams)
    // from the single-port model (gossip sails through).
    let n = 800;
    let mut rng = Xoshiro256pp::new(13);
    let g = connected_gnp(n, 0.15, &mut rng);

    let cfg = RunConfig::for_graph(n).with_max_rounds(400);
    let flood = RunSpec::on_graph(&g, 0)
        .with_config(cfg)
        .run_with_rng(&mut Flooding, &mut rng)
        .into_single();
    assert!(!flood.completed, "flooding should jam on dense graphs");

    let gossip = run_push_gossip(&g, 0, 400, TraceLevel::SummaryOnly, &mut rng);
    assert!(gossip.completed);
}

#[test]
fn eg_handles_near_threshold_density() {
    // δ ln n / n with δ = 2 — the sparse boundary of the paper's regime
    // (conditioned on connectivity).
    let n = 4_000;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let mut rng = Xoshiro256pp::new(14);
    let g = connected_gnp(n, p, &mut rng);
    let mut proto = EgDistributed::new(p);
    let r = RunSpec::on_graph(&g, 0)
        .with_config(RunConfig::for_graph(n))
        .run_with_rng(&mut proto, &mut rng)
        .into_single();
    assert!(r.completed, "informed {}/{n}", r.informed);
}

#[test]
fn probability_profile_equals_constant_protocol() {
    // A constant profile and ConstantProb are the same protocol; with the
    // same seed and graph they must produce identical runs.
    let n = 1_000;
    let d = 20.0;
    let p = d / n as f64;
    let mut rng = Xoshiro256pp::new(15);
    let g = connected_gnp(n, p, &mut rng);

    let mut rng_a = Xoshiro256pp::new(500);
    let mut prof = ProbabilityProfile::constant(1.0 / d);
    let a = RunSpec::on_graph(&g, 0)
        .with_config(RunConfig::for_graph(n))
        .run_with_rng(&mut prof, &mut rng_a)
        .into_single();

    let mut rng_b = Xoshiro256pp::new(500);
    let mut cp = ConstantProb::new(1.0 / d);
    let b = RunSpec::on_graph(&g, 0)
        .with_config(RunConfig::for_graph(n))
        .run_with_rng(&mut cp, &mut rng_b)
        .into_single();

    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.trace, b.trace);
}

#[test]
fn energy_accounting_is_consistent() {
    let n = 1_000;
    let p = 25.0 / n as f64;
    let mut rng = Xoshiro256pp::new(16);
    let g = connected_gnp(n, p, &mut rng);
    let cfg = RunConfig::for_graph(n).with_trace(TraceLevel::PerRound);
    let mut proto = EgDistributed::new(p);
    let r = RunSpec::on_graph(&g, 0)
        .with_config(cfg)
        .run_with_rng(&mut proto, &mut rng)
        .into_single();
    assert!(r.completed);
    // Trace internal consistency: informed_after is monotone and ends at n.
    let mut prev = 1;
    for rec in &r.trace {
        assert!(rec.informed_after >= prev);
        assert_eq!(rec.informed_after - prev, rec.newly_informed);
        prev = rec.informed_after;
    }
    assert_eq!(prev, n);
}
