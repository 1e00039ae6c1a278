//! Cross-crate randomized property tests: the simulator, samplers, and
//! cover machinery satisfy their invariants on seeded random inputs, and
//! the optimized engine agrees with the naive reference everywhere.
//!
//! Cases are generated from deterministic per-case seeds (no external
//! property-testing dependency); assertions carry the case index.

use radio_broadcast::prelude::*;
use radio_graph::bipartite::{covered_targets, is_independent_cover};
use radio_graph::cover::greedy_radio_cover;
use radio_graph::{derive_seed, Layering};
use radio_sim::reference::reference_round;
use radio_sim::{BroadcastState, EngineKernel, KernelUsed, RoundEngine};

const CASES: u64 = 64;

fn for_each_case(master: u64, body: impl Fn(u64, &mut Xoshiro256pp)) {
    for case in 0..CASES {
        let mut rng = Xoshiro256pp::new(derive_seed(master, case));
        body(case, &mut rng);
    }
}

/// A small random graph: 2..40 nodes, up to min(maxE, 120) candidate edges.
fn random_graph(rng: &mut Xoshiro256pp) -> Graph {
    let n = 2 + rng.below(38) as usize;
    let max_edges = (n * (n - 1) / 2).min(120);
    let edges = rng.below(max_edges as u64 + 1) as usize;
    let list: Vec<(NodeId, NodeId)> = (0..edges)
        .map(|_| (rng.below(n as u64) as NodeId, rng.below(n as u64) as NodeId))
        .collect();
    Graph::from_edges(n, list)
}

#[test]
fn engine_matches_reference() {
    for_each_case(0xE16, |case, rng| {
        let g = random_graph(rng);
        let n = g.n();
        let informed_frac = rng.next_f64();
        let transmit_frac = rng.next_f64();
        let mut state = BroadcastState::new(n, 0);
        for v in 1..n as NodeId {
            if rng.coin(informed_frac) {
                state.inform(v, 0);
            }
        }
        let transmitters: Vec<NodeId> = (0..n as NodeId)
            .filter(|_| rng.coin(transmit_frac))
            .collect();

        for policy in [
            TransmitterPolicy::InformedOnly,
            TransmitterPolicy::Unrestricted,
        ] {
            let expected = reference_round(&g, &state, &transmitters, policy);
            let mut st = state.clone();
            let mut engine = RoundEngine::with_policy(&g, policy);
            let out = engine.execute_round(&mut st, &transmitters, 1);
            let got: Vec<NodeId> = (0..n as NodeId)
                .filter(|&v| !state.is_informed(v) && st.is_informed(v))
                .collect();
            assert_eq!(got, expected, "case {case}");
            assert_eq!(out.newly_informed, expected.len(), "case {case}");
        }
    });
}

/// Differential test of the two round kernels against the oracle across
/// the paper's density regimes: sparse (`p ≈ 2/n`), the experiments' bulk
/// regime, and near-dense graphs — under both transmitter policies, with
/// transmitter sets that include duplicates and uninformed nodes.
#[test]
fn kernels_match_reference_across_density_regimes() {
    for_each_case(0xD1F, |case, rng| {
        let n = 16 + rng.below(112) as usize;
        let p = match case % 3 {
            0 => 2.0 / n as f64,
            1 => 0.15,
            _ => 0.6,
        };
        let g = sample_gnp(n, p, rng);
        let mut state = BroadcastState::new(n, 0);
        for v in 1..n as NodeId {
            if rng.coin(0.5) {
                state.inform(v, 0);
            }
        }
        // Deliberately messy transmitter set: random nodes (informed or
        // not), with every third entry duplicated.
        let mut transmitters: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.coin(0.3)).collect();
        let dups: Vec<NodeId> = transmitters.iter().copied().step_by(3).collect();
        transmitters.extend(dups);

        for policy in [
            TransmitterPolicy::InformedOnly,
            TransmitterPolicy::Unrestricted,
        ] {
            let expected = reference_round(&g, &state, &transmitters, policy);
            for kernel in [EngineKernel::Sparse, EngineKernel::Dense] {
                let mut st = state.clone();
                let mut engine = RoundEngine::with_policy(&g, policy).with_kernel(kernel);
                let out = engine.execute_round(&mut st, &transmitters, 1);
                let got: Vec<NodeId> = (0..n as NodeId)
                    .filter(|&v| !state.is_informed(v) && st.is_informed(v))
                    .collect();
                assert_eq!(got, expected, "case {case}, {policy:?}, {kernel:?}");
                assert_eq!(
                    out.newly_informed,
                    expected.len(),
                    "case {case}, {policy:?}, {kernel:?}"
                );
            }
        }
    });
}

/// The three kernel selections produce identical `RoundOutcome` sequences
/// and final states over full multi-round runs — and under lossy delivery
/// they consume the RNG identically (same residual stream).
#[test]
fn kernel_choice_invisible_in_multi_round_runs() {
    for_each_case(0xD20, |case, rng| {
        let n = 32 + rng.below(96) as usize;
        let p = [0.08, 0.25][case as usize % 2];
        let g = sample_gnp(n, p, rng);
        let loss = if case % 2 == 0 { 0.0 } else { 0.3 };
        let sched_seed = derive_seed(0xD20, case ^ 0xFF);

        let mut runs = Vec::new();
        for kernel in [
            EngineKernel::Sparse,
            EngineKernel::Dense,
            EngineKernel::Auto,
        ] {
            let mut engine = RoundEngine::new(&g).with_kernel(kernel);
            let mut st = BroadcastState::new(n, 0);
            let mut sched_rng = Xoshiro256pp::new(sched_seed);
            let mut loss_rng = Xoshiro256pp::new(sched_seed ^ 1);
            let mut outcomes = Vec::new();
            for round in 1..=25u32 {
                let tx: Vec<NodeId> = st
                    .informed_vec()
                    .into_iter()
                    .filter(|_| sched_rng.coin(0.3))
                    .collect();
                let out =
                    engine.execute_round_faulty(&mut st, &tx, round, None, loss, &mut loss_rng);
                outcomes.push(out);
            }
            runs.push((st, outcomes, loss_rng.next()));
        }
        assert_eq!(runs[0], runs[1], "case {case}: sparse vs dense");
        assert_eq!(runs[0], runs[2], "case {case}: sparse vs auto");
    });
}

/// Run reports are byte-identical across kernel selections except for the
/// informational `kernel` field.
#[test]
fn run_reports_byte_identical_modulo_kernel_field() {
    use radio_sim::{Protocol, RunConfig, RunSpec};

    struct Flood;
    impl Protocol for Flood {
        fn name(&self) -> String {
            "flood".into()
        }
        fn transmits(&mut self, _n: radio_sim::LocalNode, rng: &mut Xoshiro256pp) -> bool {
            rng.coin(0.2)
        }
    }

    let g = sample_gnp(512, 0.1, &mut Xoshiro256pp::new(0xBEEF));
    let mut renders = Vec::new();
    for kernel in [
        EngineKernel::Sparse,
        EngineKernel::Dense,
        EngineKernel::Auto,
    ] {
        let mut rng = Xoshiro256pp::new(77);
        let cfg = RunConfig::for_graph(512).with_kernel(kernel);
        let result = RunSpec::on_graph(&g, 0)
            .with_config(cfg)
            .run_with_rng(&mut Flood, &mut rng)
            .into_single();
        let report = radio_sim::RunReport::from_result("flood", &result).with_seed(77);
        renders.push((result.kernel, report.to_json().render_pretty()));
    }
    let strip = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.trim_start().starts_with("\"kernel\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(renders[0].0, KernelUsed::Sparse);
    assert_eq!(renders[1].0, KernelUsed::Dense);
    assert_eq!(strip(&renders[0].1), strip(&renders[1].1));
    assert_eq!(strip(&renders[0].1), strip(&renders[2].1));
    // The kernel lines themselves differ, proving the field is live.
    assert_ne!(renders[0].1, renders[1].1);
}

/// Two-level Monte-Carlo composition: `run_trials` fanning lane-batched
/// runs over the thread pool is deterministic (parallel == serial), and the
/// nested lane results equal direct scalar runs on the same derived
/// streams — the composition the bench harness relies on for threads×64
/// effective parallelism.
#[test]
fn run_trials_batch_composition_deterministic() {
    use radio_sim::{run_trials, run_trials_serial, RunConfig, RunSpec};

    let lanes = 8usize;
    let job = |i: usize, rng: &mut Xoshiro256pp| {
        let n = 48 + 16 * (i % 3);
        let g = sample_gnp(n, 0.12, rng);
        let source = rng.below(n as u64) as NodeId;
        let lane_seed = rng.next();
        let cfg = RunConfig::for_graph(n).with_max_rounds(40);
        let results = RunSpec::on_graph(&g, source)
            .with_config(cfg)
            .with_lanes(lanes)
            .with_master_seed(lane_seed)
            .run(&mut ConstantProb::new(0.25))
            .lanes;
        let digest: Vec<(bool, u32, usize)> = results
            .iter()
            .map(|r| (r.completed, r.rounds, r.informed))
            .collect();
        // Cross-check one lane against a direct scalar run on its stream.
        let mut lane_rng = radio_graph::child_rng(lane_seed, (i % lanes) as u64);
        let scalar = RunSpec::on_graph(&g, source)
            .with_config(cfg)
            .run_with_rng(&mut ConstantProb::new(0.25), &mut lane_rng)
            .into_single();
        assert_eq!(
            digest[i % lanes],
            (scalar.completed, scalar.rounds, scalar.informed),
            "trial {i}"
        );
        digest
    };
    let par = run_trials(12, 0xC0FFEE, job);
    let ser = run_trials_serial(12, 0xC0FFEE, job);
    assert_eq!(par, ser);
}

#[test]
fn gnp_graphs_are_valid() {
    for_each_case(0x96B, |case, rng| {
        let n = 2 + rng.below(398) as usize;
        let p = rng.next_f64() * 0.3;
        let g = sample_gnp(n, p, rng);
        assert!(g.check_invariants(), "case {case}");
        assert_eq!(g.n(), n, "case {case}");
    });
}

#[test]
fn gnm_exact_edge_count() {
    for_each_case(0x96C, |case, rng| {
        let n = 2 + rng.below(118) as usize;
        let total = n * (n - 1) / 2;
        let m = rng.below(total as u64 + 1) as usize;
        let g = radio_graph::gnm::sample_gnm(n, m, rng);
        assert_eq!(g.m(), m, "case {case}");
        assert!(g.check_invariants(), "case {case}");
    });
}

#[test]
fn layering_is_a_bfs() {
    for_each_case(0x1AB, |case, rng| {
        let g = random_graph(rng);
        let source = rng.below(g.n() as u64) as NodeId;
        let l = Layering::new(&g, source);
        // Every reachable non-source node has a parent one layer down and
        // no neighbor more than one layer away in either direction.
        for v in 0..g.n() as NodeId {
            if let Some(dv) = l.distance(v) {
                if dv > 0 {
                    let mut has_parent = false;
                    for &w in g.neighbors(v) {
                        let dw = l.distance(w).expect("neighbor of reachable unreachable");
                        assert!((i64::from(dw) - i64::from(dv)).abs() <= 1, "case {case}");
                        has_parent |= dw + 1 == dv;
                    }
                    assert!(has_parent, "case {case}");
                }
            }
        }
    });
}

#[test]
fn greedy_cover_output_is_independent_cover() {
    for_each_case(0x9C0, |case, rng| {
        let g = random_graph(rng);
        let n = g.n();
        let candidates: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.coin(0.5)).collect();
        let targets: Vec<NodeId> = (0..n as NodeId)
            .filter(|v| !candidates.contains(v))
            .collect();
        let sel = greedy_radio_cover(&g, &candidates, &targets, Some(rng));
        assert!(
            is_independent_cover(&g, &sel.transmitters, &sel.covered),
            "case {case}"
        );
        // covered_targets agrees with the selection's own accounting.
        let recheck = covered_targets(&g, &sel.transmitters, &targets);
        assert_eq!(recheck, sel.covered, "case {case}");
    });
}

#[test]
fn schedule_replay_never_exceeds_builder_length() {
    for_each_case(0x5C4, |case, rng| {
        let n = 10 + rng.below(70) as usize;
        let d = 3.0 + rng.next_f64() * 12.0;
        let p = (d / n as f64).min(0.9);
        let g = sample_gnp(n, p, rng);
        let built = build_eg_schedule(&g, 0, CentralizedParams::default(), rng);
        let replay = run_schedule(
            &g,
            0,
            &built.schedule,
            TransmitterPolicy::InformedOnly,
            TraceLevel::SummaryOnly,
        );
        assert_eq!(replay.completed, built.completed, "case {case}");
        assert!(replay.rounds as usize <= built.len(), "case {case}");
        assert_eq!(replay.informed, built.informed, "case {case}");
    });
}

#[test]
fn broadcast_state_counts_consistent() {
    for_each_case(0xB5C, |case, rng| {
        let n = 1 + rng.below(199) as usize;
        let mut st = BroadcastState::new(n, 0);
        for _ in 0..n {
            let v = rng.below(n as u64) as NodeId;
            st.inform(v, 1);
            assert_eq!(
                st.informed_count() + st.uninformed_count(),
                n,
                "case {case}"
            );
        }
        assert_eq!(
            st.informed_nodes().count(),
            st.informed_count(),
            "case {case}"
        );
    });
}
