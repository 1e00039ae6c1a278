//! Differential suite for the lane-batched Monte-Carlo runner: every lane
//! of a multi-lane `RunSpec::on_graph(graph, ..)` run with master seed
//! `master` must be bit-identical to the scalar run on the RNG stream
//! `child_rng(master, lane)` —
//! completion flag, completion round, final informed count, and the full
//! per-round trace (transmitters, newly informed, collisions, reached,
//! informed-after) — for each kernel selection and with and without loss.
//!
//! The scalar side's kernel selection is part of the sweep because the
//! contract is transitive: scalar runs are themselves kernel-invariant
//! (`props_cross_crate`), so the batch runner must match all of them.

use radio_broadcast::prelude::*;
use radio_graph::{child_rng, derive_seed};
use radio_sim::{EngineKernel, KernelUsed, Protocol};

/// Compare everything except the informational `kernel` field (scalar runs
/// report sparse/dense/mixed, lanes report batch).
fn strip_kernel(mut r: RunResult) -> RunResult {
    r.kernel = KernelUsed::Sparse;
    r
}

fn assert_batch_matches_scalar<P, F>(
    g: &Graph,
    source: NodeId,
    factory: F,
    cfg: RunConfig,
    master: u64,
    lanes: usize,
    ctx: &str,
) where
    P: Protocol,
    F: Fn() -> P,
{
    let mut batch_proto = factory();
    let batch = RunSpec::on_graph(g, source)
        .with_config(cfg)
        .with_lanes(lanes)
        .with_master_seed(master)
        .run(&mut batch_proto)
        .lanes;
    assert_eq!(batch.len(), lanes, "{ctx}");
    for (lane, got) in batch.into_iter().enumerate() {
        let mut rng = child_rng(master, lane as u64);
        let mut proto = factory();
        let want = RunSpec::on_graph(g, source)
            .with_config(cfg)
            .run_with_rng(&mut proto, &mut rng)
            .into_single();
        // A 1-lane "batch" is planned onto the scalar round engine by the
        // exec planner; the informational kernel tag follows the engine.
        if lanes > 1 {
            assert_eq!(got.kernel, KernelUsed::Batch, "{ctx}, lane {lane}");
        }
        assert_eq!(strip_kernel(got), strip_kernel(want), "{ctx}, lane {lane}");
    }
}

/// The tentpole sweep from the issue: kernels sparse/dense/auto × loss
/// ∈ {0, 0.2}, full 64-lane batches, several protocols with different coin
/// patterns (EG draws one coin per decision; Decay's draw count depends on
/// the round; ConstantProb is the paper's 1/d baseline).
#[test]
fn batch_matches_scalar_across_kernels_and_loss() {
    let mut grng = Xoshiro256pp::new(0xBA7C);
    let n = 192;
    let p = 0.06;
    let g = sample_gnp(n, p, &mut grng);
    // Cap the budget so incomplete lanes (budget exhaustion) are exercised
    // without making the scalar side rerun 1300+ rounds per lane.
    let base = RunConfig::for_graph(n).with_max_rounds(60);

    let mut case = 0u64;
    for loss in [0.0, 0.2] {
        for kernel in [
            EngineKernel::Sparse,
            EngineKernel::Dense,
            EngineKernel::Auto,
        ] {
            let cfg = base.with_loss(loss).with_kernel(kernel);
            let master = derive_seed(0x5EED, case);
            case += 1;
            let ctx = format!("loss {loss}, {kernel:?}");
            assert_batch_matches_scalar(&g, 0, || EgDistributed::new(p), cfg, master, 64, &ctx);
            assert_batch_matches_scalar(&g, 5, Decay::new, cfg, master ^ 1, 64, &ctx);
            assert_batch_matches_scalar(
                &g,
                11,
                || ConstantProb::new(0.2),
                cfg,
                master ^ 2,
                64,
                &ctx,
            );
        }
    }
}

/// Partial batches (lanes < 64) match the same prefix of scalar streams.
#[test]
fn partial_batches_match_scalar_prefix() {
    let mut grng = Xoshiro256pp::new(0x9A7);
    let g = sample_gnp(128, 0.08, &mut grng);
    let cfg = RunConfig::for_graph(128).with_max_rounds(50).with_loss(0.2);
    for lanes in [1usize, 7, 33] {
        assert_batch_matches_scalar(
            &g,
            0,
            || EgDistributed::new(0.08),
            cfg,
            0xAB,
            lanes,
            &format!("{lanes} lanes"),
        );
    }
}

/// Disconnected graphs: lanes exhaust the budget without completing, and
/// the per-lane informed counts still match the scalar runs.
#[test]
fn incomplete_lanes_match_scalar() {
    let mut grng = Xoshiro256pp::new(0xD15C);
    // Far below the connectivity threshold: isolated vertices guaranteed.
    let g = sample_gnp(150, 0.015, &mut grng);
    let cfg = RunConfig::for_graph(150).with_max_rounds(40);
    assert_batch_matches_scalar(
        &g,
        0,
        || EgDistributed::new(0.015),
        cfg,
        7,
        64,
        "disconnected",
    );
}
