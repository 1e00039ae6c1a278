//! Integration tests for the extension features: gossiping, fault
//! injection, multi-source, unknown-degree protocol, tree scheduling, and
//! the exact-OPT cross-validation.

use radio_broadcast::prelude::*;
use radio_graph::components::is_connected;
use radio_sim::RunMetrics;

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
fn gossiping_end_to_end() {
    let mut rng = Xoshiro256pp::new(1);
    let n = 400;
    let d = 20.0;
    let g = connected_gnp(n, d / n as f64, &mut rng);
    let mut strat = ConstantProb::new(1.0 / d);
    let r = run_radio_gossiping(&g, &mut strat, 20_000, &mut rng);
    assert!(r.completed);
    assert_eq!(r.knowledge_fraction, 1.0);
    // Θ(d·ln n) scale with slack.
    let scale = d * (n as f64).ln();
    assert!(
        (r.rounds as f64) < 6.0 * scale,
        "rounds {} vs scale {scale}",
        r.rounds
    );
}

#[test]
fn gossiping_dominates_broadcast_time() {
    // All-to-all can never beat one-to-all on the same instance/strategy.
    let mut rng = Xoshiro256pp::new(2);
    let n = 300;
    let d = 15.0;
    let g = connected_gnp(n, d / n as f64, &mut rng);
    let mut strat = ConstantProb::new(1.0 / d);
    let gossip = run_radio_gossiping(&g, &mut strat, 50_000, &mut Xoshiro256pp::new(7));
    let mut proto = ConstantProb::new(1.0 / d);
    let bcast = RunSpec::on_graph(&g, 0)
        .with_config(RunConfig::for_graph(n))
        .run_with_rng(&mut proto, &mut Xoshiro256pp::new(7))
        .into_single();
    assert!(gossip.completed && bcast.completed);
    assert!(gossip.rounds >= bcast.rounds);
}

#[test]
fn lossy_broadcast_completes_and_slows_down() {
    let mut rng = Xoshiro256pp::new(3);
    let n = 2000;
    let p = 30.0 / n as f64;
    let g = connected_gnp(n, p, &mut rng);
    let mut a = EgDistributed::new(p);
    let clean = RunSpec::on_graph(&g, 0)
        .with_config(RunConfig::for_graph(n))
        .run_with_rng(&mut a, &mut Xoshiro256pp::new(5))
        .into_single();
    let mut b = EgDistributed::new(p);
    let lossy = RunSpec::on_graph(&g, 0)
        .with_config(RunConfig::for_graph(n).with_loss(0.5))
        .run_with_rng(&mut b, &mut Xoshiro256pp::new(5))
        .into_single();
    assert!(clean.completed && lossy.completed);
    assert!(lossy.rounds > clean.rounds);
}

#[test]
fn multi_source_never_slower_much() {
    let mut rng = Xoshiro256pp::new(4);
    let n = 1500;
    let p = 25.0 / n as f64;
    let g = connected_gnp(n, p, &mut rng);
    let mut proto = EgDistributed::new(p);
    let multi = RunSpec::on_graph(&g, 0)
        .with_sources(&[0, 100, 200, 300])
        .with_config(RunConfig::for_graph(n))
        .run_with_rng(&mut proto, &mut rng)
        .into_single();
    assert!(multi.completed);
}

#[test]
fn unknown_degree_protocol_is_density_free() {
    let mut rng = Xoshiro256pp::new(5);
    for &d in &[15.0, 150.0] {
        let n = 1200;
        let g = connected_gnp(n, d / n as f64, &mut rng);
        let mut proto = EgUnknownDegree::new();
        let r = RunSpec::on_graph(&g, 0)
            .with_config(RunConfig::for_graph(n))
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        assert!(r.completed, "d = {d}");
    }
}

#[test]
fn tree_schedule_verifies_and_is_collision_free() {
    let mut rng = Xoshiro256pp::new(6);
    let n = 800;
    let g = connected_gnp(n, 0.03, &mut rng);
    let built = tree_broadcast_schedule(&g, 0);
    assert!(built.completed);
    let cert = verify_schedule(&g, 0, &built.schedule).unwrap();
    assert_eq!(cert.collisions, 0);
}

#[test]
fn verify_rejects_tampered_schedule() {
    let mut rng = Xoshiro256pp::new(7);
    let n = 500;
    let g = connected_gnp(n, 0.04, &mut rng);
    let built = build_eg_schedule(&g, 0, CentralizedParams::default(), &mut rng);
    // Tamper: drop the last round → incomplete (the builder stops as soon
    // as everyone is informed, so every round matters).
    let mut rounds: Vec<Vec<NodeId>> = built.schedule.iter().map(|r| r.to_vec()).collect();
    rounds.pop();
    let tampered = Schedule::from_rounds(rounds);
    assert!(matches!(
        verify_schedule(&g, 0, &tampered),
        Err(ScheduleViolation::Incomplete { .. })
    ));
}

#[test]
fn exact_opt_lower_bounds_all_schedulers() {
    use radio_broadcast::centralized::exact_optimal_rounds;
    let mut rng = Xoshiro256pp::new(8);
    for seed in 0..10u64 {
        let mut grng = Xoshiro256pp::new(seed);
        let g = sample_gnp(10, 0.4, &mut grng);
        let Some(opt) = exact_optimal_rounds(&g, 0) else {
            continue;
        };
        let eg = build_eg_schedule(&g, 0, CentralizedParams::default(), &mut rng);
        let tree = tree_broadcast_schedule(&g, 0);
        if eg.completed {
            assert!(eg.len() as u32 >= opt, "EG beat OPT");
        }
        if tree.completed {
            assert!(tree.len() as u32 >= opt, "tree beat OPT");
        }
    }
}

#[test]
fn run_metrics_on_real_run() {
    let mut rng = Xoshiro256pp::new(9);
    let n = 2000;
    let p = 30.0 / n as f64;
    let g = connected_gnp(n, p, &mut rng);
    let mut proto = EgDistributed::new(p);
    let cfg = RunConfig::for_graph(n).with_trace(TraceLevel::PerRound);
    let r = RunSpec::on_graph(&g, 0)
        .with_config(cfg)
        .run_with_rng(&mut proto, &mut rng)
        .into_single();
    assert!(r.completed);
    let m = RunMetrics::from_result(&r);
    // Milestones are ordered.
    let (h, n90, n99) = (
        m.round_to_half.unwrap(),
        m.round_to_90.unwrap(),
        m.round_to_99.unwrap(),
    );
    assert!(h <= n90 && n90 <= n99 && n99 <= r.rounds);
    assert!(m.total_transmissions > 0);
    assert!(m.peak_round.is_some());
    assert!(m.tail_rounds(r.rounds, true).is_some());
}
