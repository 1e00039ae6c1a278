//! Validity of centralized schedules: radio semantics honored round by
//! round, phase invariants, and exact agreement between the builder's
//! internal simulation and an independent replay.

use radio_broadcast::prelude::*;
use radio_graph::components::is_connected;
use radio_sim::BroadcastState;
use radio_sim::RoundEngine;

fn connected_gnp(n: usize, p: f64, rng: &mut Xoshiro256pp) -> Graph {
    for _ in 0..50 {
        let g = sample_gnp(n, p, rng);
        if is_connected(&g) {
            return g;
        }
    }
    panic!("no connected sample");
}

/// Replays a schedule manually, asserting radio semantics at every step:
/// only informed nodes transmit, and every newly informed node had exactly
/// one transmitting neighbor.
fn validate_schedule(g: &Graph, source: NodeId, schedule: &Schedule) -> BroadcastState {
    let mut state = BroadcastState::new(g.n(), source);
    let mut engine = RoundEngine::new(g);
    for (t, set) in schedule.iter().enumerate() {
        // Pre-round informed snapshot.
        let before: Vec<bool> = (0..g.n() as NodeId).map(|v| state.is_informed(v)).collect();
        // The builder only schedules informed nodes.
        for &x in set {
            assert!(
                before[x as usize],
                "round {}: scheduled uninformed node {x}",
                t + 1
            );
        }
        engine.execute_round(&mut state, set, (t + 1) as u32);
        // Check reception rule against the snapshot.
        for v in 0..g.n() as NodeId {
            if !before[v as usize] && state.is_informed(v) {
                let transmitting_neighbors =
                    g.neighbors(v).iter().filter(|&&w| set.contains(&w)).count();
                assert_eq!(
                    transmitting_neighbors,
                    1,
                    "round {}: node {v} informed with {transmitting_neighbors} transmitters",
                    t + 1
                );
            }
        }
    }
    state
}

#[test]
fn eg_schedule_respects_radio_semantics() {
    let mut rng = Xoshiro256pp::new(21);
    for &(n, d) in &[(800usize, 20.0f64), (2_000, 50.0), (500, 100.0)] {
        let g = connected_gnp(n, d / n as f64, &mut rng);
        let built = build_eg_schedule(&g, 0, CentralizedParams::default(), &mut rng);
        assert!(built.completed, "n = {n}, d = {d}");
        let state = validate_schedule(&g, 0, &built.schedule);
        assert!(state.is_complete());
        assert_eq!(state.informed_count(), built.informed);
    }
}

#[test]
fn greedy_schedule_respects_radio_semantics() {
    let mut rng = Xoshiro256pp::new(22);
    let g = connected_gnp(1_000, 0.03, &mut rng);
    let built = greedy_cover_schedule(&g, 0, 1_000, &mut rng);
    assert!(built.completed);
    let state = validate_schedule(&g, 0, &built.schedule);
    assert!(state.is_complete());
}

#[test]
fn phase_ordering_is_monotone() {
    // Phases appear in algorithm order: flood* seed? fraction* cover? backprop*.
    let mut rng = Xoshiro256pp::new(23);
    let g = connected_gnp(3_000, 0.015, &mut rng);
    let built = build_eg_schedule(&g, 0, CentralizedParams::default(), &mut rng);
    let rank = |p: &Phase| match p {
        Phase::ParityFlood => 0,
        Phase::Seed => 1,
        Phase::Fraction => 2,
        Phase::Cover => 3,
        Phase::BackProp => 4,
    };
    let ranks: Vec<u8> = built.phases.iter().map(rank).collect();
    assert!(
        ranks.windows(2).all(|w| w[0] <= w[1]),
        "phases out of order: {:?}",
        built.phases
    );
}

#[test]
fn every_round_makes_progress_or_is_flood() {
    // Cover rounds must strictly shrink the uninformed set (greedy never
    // returns a useless set while uninformed nodes have informed
    // neighbors).
    let mut rng = Xoshiro256pp::new(24);
    let g = connected_gnp(1_500, 0.02, &mut rng);
    let built = build_eg_schedule(&g, 0, CentralizedParams::default(), &mut rng);
    let replay = run_schedule(
        &g,
        0,
        &built.schedule,
        TransmitterPolicy::InformedOnly,
        TraceLevel::PerRound,
    );
    for (rec, phase) in replay.trace.iter().zip(&built.phases) {
        if matches!(phase, Phase::Cover | Phase::BackProp) {
            assert!(
                rec.newly_informed > 0,
                "cover round {} informed nobody",
                rec.round
            );
        }
    }
}

#[test]
fn seed_round_size_is_theta_n_over_d() {
    let mut rng = Xoshiro256pp::new(25);
    let n = 4_000;
    let d = 50.0;
    let g = connected_gnp(n, d / n as f64, &mut rng);
    let built = build_eg_schedule(&g, 0, CentralizedParams::default(), &mut rng);
    if let Some(idx) = built.phases.iter().position(|p| *p == Phase::Seed) {
        let seed_size = built.schedule.round(idx).len();
        let target = n as f64 / g.average_degree();
        assert!(
            (seed_size as f64) <= 2.0 * target + 2.0 && (seed_size as f64) >= 0.2 * target,
            "seed size {seed_size} vs n/d = {target:.0}"
        );
    }
}

#[test]
fn schedule_total_energy_is_subquadratic() {
    // The paper's schedule transmits O(n/d · ln d + n) slots overall —
    // check it is far below the n·rounds worst case.
    let mut rng = Xoshiro256pp::new(26);
    let n = 4_000;
    let g = connected_gnp(n, 0.02, &mut rng);
    let built = build_eg_schedule(&g, 0, CentralizedParams::default(), &mut rng);
    let energy = built.schedule.total_transmissions();
    assert!(
        energy < n * built.len() / 4,
        "energy {energy} too close to flooding cost {}",
        n * built.len()
    );
}
