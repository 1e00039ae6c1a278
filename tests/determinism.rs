//! Reproducibility guarantees: everything stochastic is a pure function of
//! its seed, and parallel sweeps equal serial ones bit-for-bit.

use radio_broadcast::prelude::*;
use radio_graph::gnm::sample_gnm;
use radio_graph::{child_rng, derive_seed};
use radio_sim::{run_trials, run_trials_serial};

#[test]
fn graph_sampling_deterministic() {
    let a = sample_gnp(2_000, 0.01, &mut Xoshiro256pp::new(42));
    let b = sample_gnp(2_000, 0.01, &mut Xoshiro256pp::new(42));
    assert_eq!(a, b);
    let c = sample_gnm(2_000, 10_000, &mut Xoshiro256pp::new(42));
    let d = sample_gnm(2_000, 10_000, &mut Xoshiro256pp::new(42));
    assert_eq!(c, d);
}

#[test]
fn protocol_runs_deterministic() {
    let n = 1_000;
    let p = 30.0 / n as f64;
    let g = sample_gnp(n, p, &mut Xoshiro256pp::new(7));
    let run = |seed: u64| {
        let mut rng = Xoshiro256pp::new(seed);
        let mut proto = EgDistributed::new(p);
        RunSpec::on_graph(&g, 0)
            .with_config(RunConfig::for_graph(n))
            .run_with_rng(&mut proto, &mut rng)
            .into_single()
    };
    let a = run(123);
    let b = run(123);
    assert_eq!(a, b);
    // And a different seed (almost surely) differs in its trace.
    let c = run(124);
    assert!(a.trace != c.trace || a.rounds != c.rounds || a.rounds <= 2);
}

#[test]
fn schedule_builder_deterministic() {
    let g = sample_gnp(1_500, 0.02, &mut Xoshiro256pp::new(8));
    let a = build_eg_schedule(
        &g,
        5,
        CentralizedParams::default(),
        &mut Xoshiro256pp::new(9),
    );
    let b = build_eg_schedule(
        &g,
        5,
        CentralizedParams::default(),
        &mut Xoshiro256pp::new(9),
    );
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.phases, b.phases);
    assert_eq!(a.completed, b.completed);
}

#[test]
fn parallel_sweep_equals_serial_sweep() {
    // Full pipeline inside each trial: sample graph, run protocol, return
    // the round count. Parallel and serial execution must agree.
    let job = |_i: usize, rng: &mut Xoshiro256pp| {
        let n = 500;
        let p = 25.0 / n as f64;
        let g = sample_gnp(n, p, rng);
        let mut proto = EgDistributed::new(p);
        let r = RunSpec::on_graph(&g, 0)
            .with_config(RunConfig::for_graph(n))
            .run_with_rng(&mut proto, rng)
            .into_single();
        (r.completed, r.rounds, r.informed)
    };
    let par = run_trials(24, 777, job);
    let ser = run_trials_serial(24, 777, job);
    assert_eq!(par, ser);
}

#[test]
fn faulty_lossy_sweeps_identical_across_threads_and_kernels() {
    use radio_sim::{BurstParams, EngineKernel, FaultConfig, FaultPlan, KernelUsed, TraceLevel};
    let n = 500;
    let p = 22.0 / n as f64;
    let g = sample_gnp(n, p, &mut Xoshiro256pp::new(31));
    let plan = FaultPlan::generate(
        &g,
        &FaultConfig {
            crash_rate: 0.05,
            sleep_rate: 0.1,
            jammers: 2,
            burst: Some(BurstParams {
                p_bad: 0.2,
                p_good: 0.3,
            }),
            exempt: Some(0),
            ..FaultConfig::default()
        },
        99,
    );

    // One faulty + lossy sweep at a fixed kernel, fanned over the trial
    // pool.  Byte-identical results regardless of the worker-thread count.
    let sweep = |kernel: EngineKernel| {
        let job = |_i: usize, rng: &mut Xoshiro256pp| {
            let cfg = RunConfig::for_graph(n)
                .with_kernel(kernel)
                .with_loss(0.15)
                .with_trace(TraceLevel::PerRound);
            let mut proto = EgDistributed::new(p);
            RunSpec::on_graph(&g, 0)
                .with_config(cfg)
                .with_faults(&plan)
                .run_with_rng(&mut proto, rng)
                .into_single()
        };
        std::env::set_var("RADIO_THREADS", "1");
        let serial = run_trials(8, 4040, job);
        std::env::set_var("RADIO_THREADS", "8");
        let threaded = run_trials(8, 4040, job);
        std::env::remove_var("RADIO_THREADS");
        assert_eq!(
            serial, threaded,
            "{kernel:?}: thread count leaked into results"
        );
        serial
    };

    let sparse = sweep(EngineKernel::Sparse);
    let dense = sweep(EngineKernel::Dense);
    let auto = sweep(EngineKernel::Auto);
    // Kernel choice is an implementation detail: everything but the
    // recorded kernel tag must agree across sparse / dense / auto.
    let normalize = |mut runs: Vec<radio_sim::RunResult>| {
        for r in &mut runs {
            r.kernel = KernelUsed::Sparse;
        }
        runs
    };
    let sparse = normalize(sparse);
    assert_eq!(sparse, normalize(dense));
    assert_eq!(sparse, normalize(auto));
}

#[test]
fn seed_derivation_is_stable_across_calls() {
    // Pin a few derived values so accidental changes to the derivation
    // function (which would silently re-randomize every experiment) fail
    // loudly.
    let a = derive_seed(20060501, 0);
    let b = derive_seed(20060501, 0);
    assert_eq!(a, b);
    let mut r1 = child_rng(1, 2);
    let mut r2 = child_rng(1, 2);
    assert_eq!(r1.next(), r2.next());
}

#[test]
fn run_results_depend_only_on_inputs_not_history() {
    // Using the same rng object twice advances its state; fresh rng objects
    // with the same seed must reset it.
    let g = sample_gnp(600, 0.05, &mut Xoshiro256pp::new(10));
    let mut shared = Xoshiro256pp::new(11);
    let mut proto = Decay::new();
    let first = RunSpec::on_graph(&g, 0)
        .with_config(RunConfig::for_graph(600))
        .run_with_rng(&mut proto, &mut shared)
        .into_single();
    let second = RunSpec::on_graph(&g, 0)
        .with_config(RunConfig::for_graph(600))
        .run_with_rng(&mut proto, &mut shared)
        .into_single();
    // With a fresh generator the first run is reproduced.
    let mut fresh = Xoshiro256pp::new(11);
    let mut proto2 = Decay::new();
    let first_again = RunSpec::on_graph(&g, 0)
        .with_config(RunConfig::for_graph(600))
        .run_with_rng(&mut proto2, &mut fresh)
        .into_single();
    assert_eq!(first, first_again);
    // (The second run from the advanced state will generally differ.)
    let _ = second;
}
