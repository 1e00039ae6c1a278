//! Tiled-kernel differential suite: thread-count invariance and
//! cross-kernel bit-identity.
//!
//! The tentpole contract of the tiled SIMD kernel: lane `l` of a tiled
//! run is **bit-identical** to the scalar run on `child_rng(master, l)`
//! and to lane `l` of the batch runner — same traces, fault events,
//! graceful-degradation summaries — and the whole result vector is
//! identical for every intra-round worker count, on plain, lossy, and
//! faulted configurations.
//!
//! Worker counts are passed directly (1, 3, and 8 — what
//! `RADIO_THREADS=1/3/8` would give the CLI) rather than via the
//! environment variable, which only `runner.rs`'s own test may set:
//! env vars are process-global and the test harness runs concurrently.
//!
//! The only [`RunResult`] fields allowed to differ between kernels are
//! the informational `kernel` and `threads` tags; every comparison
//! normalizes them first.

use radio_broadcast::distributed::{Decay, EgDistributed};
use radio_graph::{child_rng, GraphProvider, ImplicitGnp, Xoshiro256pp};
use radio_sim::{
    EngineKernel, FaultConfig, FaultPlan, KernelUsed, Protocol, RunConfig, RunResult, RunSpec,
};

const THREAD_COUNTS: [usize; 3] = [1, 3, 8];

/// Connectivity-regime edge probability, matching the Theorem 7 sweeps.
fn threshold_p(n: usize) -> f64 {
    (2.5 * (n as f64).ln() / n as f64).min(1.0)
}

fn normalized(mut r: RunResult) -> RunResult {
    r.kernel = KernelUsed::Tiled;
    r.threads = 1;
    r
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
    ]
}

/// Crash+sleep+jam+burst plan, generated adversarially with the source
/// exempted (same shape as the backend differential suite).
fn combined_plan(g: &radio_graph::Graph) -> FaultPlan {
    FaultPlan::generate(
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
    )
}

/// Plain, lossy, and faulted tiled runs are byte-identical for every
/// worker count — full traces, fault events, and summaries included.
#[test]
fn tiled_thread_counts_bit_identical() {
    let n = 512;
    let p = threshold_p(n);
    let imp = ImplicitGnp::new(n, p, 20060501);
    let g = imp.materialize();
    let plan = combined_plan(&g);
    let lanes = 96; // two lane groups: exercises the 16-word row path
    let master = 0xD1FFu64;
    for (case, loss, faulted) in [(0usize, 0.0, false), (1, 0.25, false), (2, 0.2, true)] {
        let cfg = RunConfig::for_graph(n)
            .with_loss(loss)
            .with_kernel(EngineKernel::Tiled);
        let mut want: Option<Vec<RunResult>> = None;
        for threads in THREAD_COUNTS {
            let mut proto = EgDistributed::new(p);
            let mut spec = RunSpec::on_graph(&g, 0)
                .with_config(cfg)
                .with_lanes(lanes)
                .with_master_seed(master)
                .with_threads(threads);
            if faulted {
                spec = spec.with_faults(&plan);
            }
            let got: Vec<RunResult> = spec
                .run(&mut proto)
                .lanes
                .into_iter()
                .map(normalized)
                .collect();
            if faulted {
                assert!(
                    got.iter().all(|r| r.faults.is_some()),
                    "faulty runs must carry a degradation summary"
                );
            }
            match &want {
                None => want = Some(got),
                Some(w) => assert_eq!(
                    *w, got,
                    "case {case}: tiled results changed with {threads} worker threads"
                ),
            }
        }
    }
}

/// Tiled lane `l` equals the scalar run on `child_rng(master, l)` and
/// lane `l` of the batch runner, for plain, lossy, and faulted
/// configurations.  The scalar runs also pin the residual RNG stream:
/// sparse, dense, and tiled scalar kernels must leave each stream in
/// the same state.
#[test]
fn tiled_lanes_match_scalar_and_batch() {
    let n = 256;
    let p = threshold_p(n);
    let imp = ImplicitGnp::new(n, p, 31337);
    let g = imp.materialize();
    let plan = combined_plan(&g);
    let lanes = 24;
    let master = 0xBEEFu64;
    for (case, loss, faulted) in [(0usize, 0.0, false), (1, 0.25, false), (2, 0.2, true)] {
        let cfg = RunConfig::for_graph(n).with_loss(loss);
        for (proto_name, make) in protocol_factories(p) {
            let tiled_cfg = cfg.with_kernel(EngineKernel::Tiled);
            let mut proto = make();
            let mut spec = RunSpec::on_graph(&g, 0)
                .with_config(tiled_cfg)
                .with_lanes(lanes)
                .with_master_seed(master)
                .with_threads(3);
            if faulted {
                spec = spec.with_faults(&plan);
            }
            let tiled = spec.run(proto.as_mut()).lanes;
            assert!(tiled.iter().all(|r| r.kernel == KernelUsed::Tiled));

            let mut proto = make();
            let batch = if faulted {
                RunSpec::on_graph(&g, 0)
                    .with_config(cfg)
                    .with_faults(&plan)
                    .with_lanes(lanes)
                    .with_master_seed(master)
                    .run(proto.as_mut())
                    .lanes
            } else {
                RunSpec::on_graph(&g, 0)
                    .with_config(cfg)
                    .with_lanes(lanes)
                    .with_master_seed(master)
                    .run(proto.as_mut())
                    .lanes
            };

            for l in 0..lanes {
                // Scalar reference: identical result AND residual stream
                // across the sparse, dense, and tiled scalar kernels.
                let mut want: Option<(RunResult, u64)> = None;
                for kernel in [
                    EngineKernel::Sparse,
                    EngineKernel::Dense,
                    EngineKernel::Tiled,
                ] {
                    let mut rng = child_rng(master, l as u64);
                    let mut proto = make();
                    let r = if faulted {
                        RunSpec::on_graph(&g, 0)
                            .with_config(cfg.with_kernel(kernel))
                            .with_faults(&plan)
                            .run_with_rng(proto.as_mut(), &mut rng)
                            .into_single()
                    } else {
                        RunSpec::on_graph(&g, 0)
                            .with_config(cfg.with_kernel(kernel))
                            .run_with_rng(proto.as_mut(), &mut rng)
                            .into_single()
                    };
                    let got = (normalized(r), rng.next());
                    match &want {
                        None => want = Some(got),
                        Some(w) => assert_eq!(
                            *w, got,
                            "case {case} {proto_name} lane {l}: scalar kernels disagree"
                        ),
                    }
                }
                let (want_result, _residual) = want.unwrap();
                assert_eq!(
                    normalized(tiled[l].clone()),
                    want_result,
                    "case {case} {proto_name} lane {l}: tiled diverged from scalar"
                );
                assert_eq!(
                    normalized(batch[l].clone()),
                    want_result,
                    "case {case} {proto_name} lane {l}: batch diverged from scalar"
                );
            }
        }
    }
}

/// The scalar engine accepts `EngineKernel::Tiled` (dense-layout rounds
/// counted as tiled) and reports it, with results identical to the
/// other kernels.
#[test]
fn scalar_engine_reports_tiled_kernel() {
    let n = 300;
    let p = threshold_p(n);
    let g = ImplicitGnp::new(n, p, 9).materialize();
    let cfg = RunConfig::for_graph(n).with_kernel(EngineKernel::Tiled);
    let mut rng = Xoshiro256pp::new(77);
    let mut proto = EgDistributed::new(p);
    let r = RunSpec::on_graph(&g, 0)
        .with_config(cfg)
        .run_with_rng(&mut proto, &mut rng)
        .into_single();
    assert_eq!(r.kernel, KernelUsed::Tiled);
    assert_eq!(r.threads, 1, "scalar kernels are single-threaded");
}
