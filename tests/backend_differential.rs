//! Cross-backend differential suite: implicit vs explicit bit-identity.
//!
//! The tentpole contract of the `GraphProvider` refactor: a run on the
//! seed-only implicit `G(n, p)` backend is **bit-identical** to the run on
//! the explicit CSR materialization of the same `(n, p, seed)` triple —
//! same informed sets, same traces, same fault summaries, and the same
//! residual RNG stream — across the sparse, dense, and lane-batched
//! explicit kernels, with and without faults and loss, and for any shard
//! and fill-worker count.
//!
//! Shard counts (1 and 4) only route an explicit provider to the sharded
//! sweep.  Fill-worker counts are passed with `RunSpec::with_threads`
//! rather than via `RADIO_THREADS`, which only `runner.rs`'s own test may
//! set: env vars are process-global and the test harness runs
//! concurrently (`scripts/check.sh` runs this suite under both
//! `RADIO_THREADS=1` and `=8` to cover the default budget).
//!
//! The only [`RunResult`] fields allowed to differ between backends are
//! the informational `kernel` and `threads` tags; every comparison
//! normalizes them first.

use radio_broadcast::distributed::{Decay, EgDistributed};
use radio_graph::{child_rng, GraphProvider, ImplicitGnp, Xoshiro256pp};
use radio_sim::{
    EngineKernel, FaultConfig, FaultPlan, KernelUsed, Protocol, RunConfig, RunResult, RunSpec,
};

const SIZES: [usize; 2] = [256, 4096];
const SHARD_COUNTS: [usize; 2] = [1, 4];

/// Connectivity-regime edge probability for the differential points,
/// matching the Theorem 7 sweeps: `p = 2.5 ln n / n`.
fn threshold_p(n: usize) -> f64 {
    (2.5 * (n as f64).ln() / n as f64).min(1.0)
}

fn normalized(mut r: RunResult) -> RunResult {
    r.kernel = KernelUsed::Sweep;
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

/// The kitchen-sink fault plan used for the faulted+lossy points: crashes,
/// sleeps, jammers, and a Gilbert–Elliott burst channel, generated
/// adversarially with the source exempted.
fn combined_plan(imp: &ImplicitGnp) -> FaultPlan {
    let g = imp.materialize();
    FaultPlan::generate(
        &g,
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

/// `spec` under `plan`, if any.
fn with_faults<'a>(spec: RunSpec<'a>, plan: Option<&'a FaultPlan>) -> RunSpec<'a> {
    match plan {
        Some(plan) => spec.with_faults(plan),
        None => spec,
    }
}

/// Plain and lossy runs: implicit (shards ∈ {1, 4}) equals explicit on
/// both scalar kernels, draw-for-draw.
#[test]
fn implicit_matches_explicit_scalar_kernels() {
    for n in SIZES {
        let p = threshold_p(n);
        let imp = ImplicitGnp::new(n, p, 20060501 ^ n as u64);
        let g = imp.materialize();
        for loss in [0.0, 0.25] {
            let cfg = RunConfig::for_graph(n).with_loss(loss);
            for (proto_name, make) in protocol_factories(p) {
                let mut want: Option<(RunResult, u64)> = None;
                for kernel in [EngineKernel::Sparse, EngineKernel::Dense] {
                    let mut rng = Xoshiro256pp::new(7 + n as u64);
                    let mut proto = make();
                    let r = RunSpec::on_graph(&g, 0)
                        .with_config(cfg.with_kernel(kernel))
                        .run_with_rng(proto.as_mut(), &mut rng)
                        .into_single();
                    let got = (normalized(r), rng.next());
                    match &want {
                        None => want = Some(got),
                        Some(w) => assert_eq!(
                            *w, got,
                            "n={n} loss={loss} {proto_name}: explicit kernels disagree"
                        ),
                    }
                }
                let (want_result, want_residual) = want.unwrap();
                for shards in SHARD_COUNTS {
                    let mut rng = Xoshiro256pp::new(7 + n as u64);
                    let mut proto = make();
                    let r = RunSpec::on_provider(&imp, shards, 0)
                        .with_config(cfg)
                        .run_with_rng(proto.as_mut(), &mut rng)
                        .into_single();
                    assert_eq!(r.kernel, KernelUsed::Sweep);
                    assert_eq!(
                        want_result,
                        normalized(r),
                        "n={n} loss={loss} {proto_name} shards={shards}: implicit diverged"
                    );
                    assert_eq!(
                        want_residual,
                        rng.next(),
                        "n={n} loss={loss} {proto_name} shards={shards}: residual RNG diverged"
                    );
                }
            }
        }
    }
}

/// The faulted+lossy point: crash+sleep+jam+burst plan with i.i.d. loss on
/// top, implicit (shards ∈ {1, 4}) vs explicit on both scalar kernels —
/// including identical fault events and graceful-degradation summaries.
#[test]
fn faulted_lossy_backends_bit_identical() {
    for n in SIZES {
        let p = threshold_p(n);
        let imp = ImplicitGnp::new(n, p, 31337 + n as u64);
        let g = imp.materialize();
        let plan = combined_plan(&imp);
        let cfg = RunConfig::for_graph(n).with_loss(0.2);
        let mut want: Option<(RunResult, u64)> = None;
        for kernel in [EngineKernel::Sparse, EngineKernel::Dense] {
            let mut rng = Xoshiro256pp::new(99);
            let mut proto = EgDistributed::new(p);
            let r = RunSpec::on_graph(&g, 0)
                .with_config(cfg.with_kernel(kernel))
                .with_faults(&plan)
                .run_with_rng(&mut proto, &mut rng)
                .into_single();
            assert!(
                r.faults.is_some(),
                "faulty runs must carry a degradation summary"
            );
            let got = (normalized(r), rng.next());
            match &want {
                None => want = Some(got),
                Some(w) => assert_eq!(*w, got, "n={n}: explicit kernels disagree under faults"),
            }
        }
        let (want_result, want_residual) = want.unwrap();
        for shards in SHARD_COUNTS {
            let mut rng = Xoshiro256pp::new(99);
            let mut proto = EgDistributed::new(p);
            let r = RunSpec::on_provider(&imp, shards, 0)
                .with_config(cfg)
                .with_faults(&plan)
                .run_with_rng(&mut proto, &mut rng)
                .into_single();
            assert_eq!(
                want_result,
                normalized(r),
                "n={n} shards={shards}: faulted+lossy implicit diverged"
            );
            assert_eq!(
                want_residual,
                rng.next(),
                "n={n} shards={shards}: residual RNG diverged under faults"
            );
        }
    }
}

/// The lane-batched explicit kernel against the implicit backend: batch
/// lane `l` must equal the implicit run seeded with `child_rng(master, l)`.
#[test]
fn batch_lanes_match_implicit_backend() {
    let n = 256;
    let p = threshold_p(n);
    let imp = ImplicitGnp::new(n, p, 777);
    let g = imp.materialize();
    let cfg = RunConfig::for_graph(n);
    let master = 4096u64;
    let lanes = 16;
    let mut proto = EgDistributed::new(p);
    let batch = RunSpec::on_graph(&g, 0)
        .with_config(cfg)
        .with_lanes(lanes)
        .with_master_seed(master)
        .run(&mut proto)
        .lanes;
    assert_eq!(batch.len(), lanes);
    for (lane, lane_result) in batch.iter().enumerate() {
        assert_eq!(lane_result.kernel, KernelUsed::Batch);
        for shards in SHARD_COUNTS {
            let mut rng = child_rng(master, lane as u64);
            let mut proto = EgDistributed::new(p);
            let r = RunSpec::on_provider(&imp, shards, 0)
                .with_config(cfg)
                .run_with_rng(&mut proto, &mut rng)
                .into_single();
            assert_eq!(
                normalized(lane_result.clone()),
                normalized(r),
                "lane {lane} shards={shards}: batch vs implicit diverged"
            );
        }
    }
}

/// The exec-planner lane planes on the provider sweeps: a `RunSpec` run
/// at 1 (the scalar sweep), 7 and 64 lanes must put in lane `l` exactly
/// the scalar explicit-CSR run seeded with `child_rng(master, l)` —
/// plain, lossy, and under the kitchen-sink fault plan alike — on the
/// implicit backend and the sharded explicit backend.  n = 512 fits one
/// fill block and runs at the default fill-worker budget (implicit at
/// shards 1 and 4).  n = 4096 spans four blocks, so there the worker axis
/// (1, 2, 3 and 8 workers) really splits the fill, and every plan must
/// also equal the same plan on one worker; its round budget is capped at
/// 40, past the plan's last crash and wake-up (the faulted plans never
/// complete, and every round run is compared).  Scalar plans must leave
/// the caller's stream where the explicit run leaves it.
#[test]
fn implicit_lane_planes_match_explicit_scalar_runs() {
    let one_block = [None];
    let four_blocks = [Some(1), Some(2), Some(3), Some(8)];
    for (n, max_rounds, worker_axis) in
        [(512, None, &one_block[..]), (4096, Some(40), &four_blocks)]
    {
        let p = threshold_p(n);
        let imp = ImplicitGnp::new(n, p, 60309 ^ n as u64);
        let g = imp.materialize();
        let plan = combined_plan(&imp);
        let master = 271_828u64;
        let base = match max_rounds {
            Some(r) => RunConfig::for_graph(n).with_max_rounds(r),
            None => RunConfig::for_graph(n),
        };
        let variants: [(&str, RunConfig, Option<&FaultPlan>); 3] = [
            ("plain", base, None),
            ("lossy", base.with_loss(0.25), None),
            ("faulted", base.with_loss(0.1), Some(&plan)),
        ];
        let mut sources: Vec<(&str, &dyn GraphProvider, usize, Option<usize>)> = Vec::new();
        for &threads in worker_axis {
            sources.push(("implicit", &imp, 1, threads));
            sources.push(("sharded", &g, 4, threads));
        }
        if n == 512 {
            sources.push(("implicit", &imp, 4, None));
        }
        for (variant, cfg, fault_plan) in variants {
            // Lane l's scalar explicit reference (and, for lane 0, the
            // residual stream) depends on neither the lane count nor the
            // plan, so each is computed once.
            let (want, want_residual): (Vec<RunResult>, Vec<u64>) = (0..64u64)
                .map(|lane| {
                    let mut rng = child_rng(master, lane);
                    let r = with_faults(RunSpec::on_graph(&g, 0).with_config(cfg), fault_plan)
                        .run_with_rng(&mut EgDistributed::new(p), &mut rng)
                        .into_single();
                    (normalized(r), rng.next())
                })
                .unzip();
            for lanes in [1usize, 7, 64] {
                let mut one_worker: Option<Vec<RunResult>> = None;
                for &(backend, provider, shards, threads) in &sources {
                    let what = format!(
                        "n={n} {variant} {backend} lanes={lanes} shards={shards} threads={threads:?}"
                    );
                    let mut rspec =
                        with_faults(RunSpec::on_provider(provider, shards, 0), fault_plan)
                            .with_config(cfg)
                            .with_lanes(lanes)
                            .with_master_seed(master);
                    if let Some(t) = threads {
                        rspec = rspec.with_threads(t);
                    }
                    let got: Vec<RunResult> = if lanes == 1 {
                        let mut rng = child_rng(master, 0);
                        let r = rspec.run_with_rng(&mut EgDistributed::new(p), &mut rng);
                        assert_eq!(r.plan.lanes, 1);
                        assert_eq!(want_residual[0], rng.next(), "{what}: residual RNG");
                        r.lanes
                    } else {
                        let outcome = rspec.run(&mut EgDistributed::new(p));
                        assert_eq!(outcome.plan.lanes, lanes);
                        outcome.lanes
                    };
                    let got: Vec<RunResult> = got.into_iter().map(normalized).collect();
                    assert_eq!(got.len(), lanes, "{what}");
                    for (lane, lane_result) in got.iter().enumerate() {
                        assert_eq!(
                            want[lane], *lane_result,
                            "{what} lane {lane}: provider sweep diverged from explicit scalar"
                        );
                    }
                    if threads == Some(1) && one_worker.is_none() {
                        one_worker = Some(got.clone());
                    }
                    if let Some(one) = &one_worker {
                        assert_eq!(*one, got, "{what}: differs from the 1-worker run");
                    }
                }
            }
        }
    }
}

/// The sharded backend on an explicit CSR (shards > 1 forces the sweep)
/// equals the classic engine run on the same graph.
#[test]
fn sharded_explicit_matches_round_engine() {
    for n in SIZES {
        let p = threshold_p(n);
        let imp = ImplicitGnp::new(n, p, 1234);
        let g = imp.materialize();
        let cfg = RunConfig::for_graph(n);
        let mut rng_a = Xoshiro256pp::new(5);
        let mut proto_a = EgDistributed::new(p);
        let want = normalized(
            RunSpec::on_graph(&g, 1)
                .with_config(cfg)
                .run_with_rng(&mut proto_a, &mut rng_a)
                .into_single(),
        );
        let want_residual = rng_a.next();
        for shards in [4, 9] {
            let mut rng_b = Xoshiro256pp::new(5);
            let mut proto_b = EgDistributed::new(p);
            let r = RunSpec::on_provider(&g, shards, 1)
                .with_config(cfg)
                .run_with_rng(&mut proto_b, &mut rng_b)
                .into_single();
            assert_eq!(r.kernel, KernelUsed::Sweep);
            assert_eq!(want, normalized(r), "n={n} shards={shards}");
            assert_eq!(want_residual, rng_b.next(), "n={n} shards={shards}");
        }
    }
}
