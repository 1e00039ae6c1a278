//! Cross-kernel fault-model differential suite.
//!
//! The determinism contract of the fault subsystem: a [`FaultPlan`] replays
//! bit-identically on the scalar sparse kernel, the scalar dense kernel,
//! and the 64-lane batch kernel — same informed sets, same coverage, same
//! fault events, same [`radio_sim::FaultSummary`], and the same residual
//! RNG stream.  This suite exercises the contract through the real
//! protocol stack (EG, Decay, and the epoch-restarting wrapper) rather
//! than the simulator's internal test protocols.

use radio_broadcast::distributed::{Decay, EgDistributed, Restartable};
use radio_graph::gnp::sample_gnp;
use radio_graph::{child_rng, Graph, GraphProvider, ImplicitGnp, Xoshiro256pp};
use radio_sim::{
    EngineKernel, FaultConfig, FaultPlan, KernelUsed, Protocol, RunConfig, RunResult, RunSpec,
    TraceLevel, MAX_LANES,
};

/// One fault plan per fault type, plus a kitchen-sink combination.
fn fault_cases(g: &Graph) -> Vec<(&'static str, FaultPlan)> {
    let n = g.n();
    let mut crash = FaultPlan::new(n);
    crash.crash(3, 2).crash(11, 6).crash(40, 12);
    let mut sleep = FaultPlan::new(n);
    sleep.sleep(5, 9).sleep(6, 15).sleep(70, 4);
    let mut jam = FaultPlan::new(n);
    jam.jam(20, 2, 10).jam(33, 1, u32::MAX);
    let mut burst = FaultPlan::new(n);
    burst.set_burst(0.35, 0.2);
    let combined = FaultPlan::generate(
        g,
        &FaultConfig {
            crash_rate: 0.05,
            sleep_rate: 0.1,
            jammers: 2,
            burst: Some(radio_sim::BurstParams {
                p_bad: 0.25,
                p_good: 0.3,
            }),
            exempt: Some(0),
            ..FaultConfig::default()
        },
        4242,
    );
    vec![
        ("crash", crash),
        ("sleep", sleep),
        ("jam", jam),
        ("burst", burst),
        ("combined", combined),
    ]
}

type ProtocolFactory = Box<dyn Fn() -> Box<dyn Protocol>>;

fn protocol_factories(p: f64) -> Vec<(&'static str, ProtocolFactory)> {
    vec![
        (
            "eg",
            Box::new(move || Box::new(EgDistributed::new(p)) as Box<dyn Protocol>),
        ),
        (
            "decay",
            Box::new(|| Box::new(Decay::new()) as Box<dyn Protocol>),
        ),
        (
            "restartable-eg",
            Box::new(move || {
                Box::new(Restartable::auto(EgDistributed::new(p))) as Box<dyn Protocol>
            }),
        ),
    ]
}

/// Batch lane `l` must equal the scalar faulty run seeded with
/// `child_rng(master, l)` on both scalar kernels, for every fault type and
/// every protocol — and the two scalar kernels must leave the caller's RNG
/// in the same state.
#[test]
fn batch_lanes_match_scalar_kernels_under_faults() {
    let n = 128;
    let p = 0.1;
    let g = sample_gnp(n, p, &mut Xoshiro256pp::new(2026));
    let master = 555u64;
    let cfg = RunConfig::for_graph(n).with_trace(TraceLevel::SummaryOnly);

    for (case, plan) in fault_cases(&g) {
        // Exercise the loss path together with the combined plan so the
        // burst-before-loss coin ordering is covered end to end.
        let cfg = if case == "combined" {
            cfg.with_loss(0.2)
        } else {
            cfg
        };
        for (proto_name, make) in protocol_factories(p) {
            let mut batch_proto = make();
            let lanes = RunSpec::on_graph(&g, 0)
                .with_config(cfg)
                .with_faults(&plan)
                .with_lanes(MAX_LANES)
                .with_master_seed(master)
                .run(batch_proto.as_mut())
                .lanes;
            for lane in [0usize, 1, 7, MAX_LANES - 1] {
                let mut streams = Vec::new();
                for kernel in [EngineKernel::Sparse, EngineKernel::Dense] {
                    let mut rng = child_rng(master, lane as u64);
                    let mut proto = make();
                    let mut scalar = RunSpec::on_graph(&g, 0)
                        .with_config(cfg.with_kernel(kernel))
                        .with_faults(&plan)
                        .run_with_rng(proto.as_mut(), &mut rng)
                        .into_single();
                    scalar.kernel = KernelUsed::Batch;
                    assert_eq!(
                        scalar, lanes[lane],
                        "{case}/{proto_name}: lane {lane} diverged from scalar {kernel:?}"
                    );
                    streams.push(rng.next());
                }
                assert_eq!(
                    streams[0], streams[1],
                    "{case}/{proto_name}: residual RNG stream differs between kernels"
                );
            }
        }
    }
}

/// `EngineKernel::Auto` replays every fault type like the explicit kernels
/// while really switching between them: at n = 1024 and degree ≈ 8 its
/// cost model runs rounds with at most two senders (jammers included)
/// sparse and busier ones dense, so the case cannot pass on one kernel.
#[test]
fn auto_kernel_matches_explicit_kernels_under_faults() {
    let n = 1024;
    let p = 8.0 / n as f64;
    let g = sample_gnp(n, p, &mut Xoshiro256pp::new(31));
    let cfg = RunConfig::for_graph(n).with_max_rounds(300).with_loss(0.1);
    let mut mixed = 0;
    for (case, plan) in fault_cases(&g) {
        for (proto_name, make) in protocol_factories(p) {
            let mut runs = Vec::new();
            for kernel in [
                EngineKernel::Sparse,
                EngineKernel::Dense,
                EngineKernel::Auto,
            ] {
                let mut rng = Xoshiro256pp::new(99);
                let mut proto = make();
                let mut run = RunSpec::on_graph(&g, 0)
                    .with_config(cfg.with_kernel(kernel))
                    .with_faults(&plan)
                    .run_with_rng(proto.as_mut(), &mut rng)
                    .into_single();
                mixed += usize::from(run.kernel == KernelUsed::Mixed);
                run.kernel = KernelUsed::Sparse;
                runs.push((run, rng.next()));
            }
            assert_eq!(runs[1], runs[0], "{case}/{proto_name}: dense vs sparse");
            assert_eq!(runs[2], runs[0], "{case}/{proto_name}: auto vs sparse");
        }
    }
    assert!(
        mixed > 0,
        "Auto never switched kernels within a faulted run"
    );
}

/// The lane-sweep engine pins the graceful-degradation summary per lane:
/// under a generated crash/sleep/jam/burst plan, every lane of a
/// provider-backed lane-plane run (lanes 7 and 64; shards 1 and 4, and 3
/// fill workers) must carry exactly the [`radio_sim::FaultSummary`] —
/// coverage counters and the DSU-based residual-uninformed count — of the
/// scalar explicit run on `child_rng(master, lane)`.
#[test]
fn lane_sweep_fault_summaries_match_scalar_runs() {
    let n = 192;
    let p = 14.0 / n as f64;
    let imp = ImplicitGnp::new(n, p, 8086);
    let g = imp.materialize();
    let master = 77_077u64;
    let cfg = RunConfig::for_graph(n).with_trace(TraceLevel::SummaryOnly);

    for (case, plan) in fault_cases(&g) {
        // Lane l's scalar reference runs on `child_rng(master, l)` whatever
        // the plan's lanes, shards or workers, so each is computed once.
        let scalars: Vec<RunResult> = (0..MAX_LANES as u64)
            .map(|lane| {
                let mut rng = child_rng(master, lane);
                RunSpec::on_graph(&g, 0)
                    .with_config(cfg)
                    .with_faults(&plan)
                    .run_with_rng(&mut EgDistributed::new(p), &mut rng)
                    .into_single()
            })
            .collect();
        for lanes in [7usize, 64] {
            for (shards, threads) in [(1usize, None), (4, None), (1, Some(3))] {
                let what = format!("{case} lanes={lanes} shards={shards} threads={threads:?}");
                let mut spec = RunSpec::on_provider(&imp, shards, 0)
                    .with_config(cfg)
                    .with_lanes(lanes)
                    .with_faults(&plan)
                    .with_master_seed(master);
                if let Some(t) = threads {
                    spec = spec.with_threads(t);
                }
                let outcome = spec.run(&mut EgDistributed::new(p));
                assert_eq!(outcome.lanes.len(), lanes, "{case}");
                for (lane, (lane_result, scalar)) in outcome.lanes.iter().zip(&scalars).enumerate()
                {
                    let lane_summary = lane_result
                        .faults
                        .expect("faulted lane-plane run carries a summary");
                    let scalar_summary =
                        scalar.faults.expect("scalar faulty run carries a summary");
                    assert_eq!(
                        lane_summary, scalar_summary,
                        "{what} lane {lane}: FaultSummary diverged from the scalar run"
                    );
                    assert_eq!(
                        lane_result.informed, scalar.informed,
                        "{what} lane {lane}: coverage"
                    );
                    assert_eq!(
                        lane_result.last_delivery_round, scalar.last_delivery_round,
                        "{what} lane {lane}"
                    );
                }
            }
        }
    }
}

/// The graceful-degradation summary itself is kernel-independent: the
/// coverage, live-reachable count, and residual-uninformed count agree
/// between sparse and dense replays of a generated adversarial plan.
#[test]
fn fault_summary_is_kernel_independent() {
    let n = 256;
    let p = 0.08;
    let g = sample_gnp(n, p, &mut Xoshiro256pp::new(7));
    let plan = FaultPlan::generate(
        &g,
        &FaultConfig {
            crash_rate: 0.2,
            placement: radio_sim::Placement::HighDegree,
            exempt: Some(0),
            ..FaultConfig::default()
        },
        9,
    );
    let cfg = RunConfig::for_graph(n).with_trace(TraceLevel::SummaryOnly);
    let run = |kernel| {
        let mut proto = EgDistributed::new(p);
        let mut rng = Xoshiro256pp::new(77);
        RunSpec::on_graph(&g, 0)
            .with_config(cfg.with_kernel(kernel))
            .with_faults(&plan)
            .run_with_rng(&mut proto, &mut rng)
            .into_single()
    };
    let sparse = run(EngineKernel::Sparse);
    let dense = run(EngineKernel::Dense);
    let s = sparse.faults.expect("faulty run carries a summary");
    assert_eq!(sparse.faults, dense.faults);
    assert_eq!(sparse.fault_events, dense.fault_events);
    assert_eq!(sparse.last_delivery_round, dense.last_delivery_round);
    assert!(s.crashed > 0, "adversarial plan crashed nobody");
    assert!(s.live_reachable <= s.live);
}
