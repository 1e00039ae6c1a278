//! Experiment E-T7 — Theorem 7 (distributed upper bound).
//!
//! Claim: the randomized fully distributed protocol (nodes know only `n` and
//! `p`) broadcasts on `G(n, p)` in `O(ln n)` rounds w.h.p.
//!
//! Method: sweep `n` over powers of two in three density regimes, run the
//! EG protocol on connected samples from a random source, record rounds to
//! completion.  The claim holds if `rounds / ln n` is bounded by a constant
//! independent of `n` and regime, i.e. the fit `rounds ≈ a·ln n + b` has a
//! stable positive slope and high `R²`.

//! With `--backend implicit|sharded|auto` the sweep switches to the
//! **provider-driven scale regime**: the seed-only implicit `G(n, p)`
//! backend at the connectivity threshold `p = 2.5 ln n / n`, reaching
//! `n = 10⁷` in `--full` mode with no adjacency in memory.  No
//! connectivity conditioning is applied there (BFS needs explicit
//! adjacency; at `2.5×` threshold the disconnection probability is
//! `O(n^{-1.5})`, negligible at these sizes) — incomplete trials are
//! simply reported as incomplete.

#![allow(clippy::type_complexity)]

use radio_analysis::{fit_log_form, fnum, CsvWriter, Table};
use radio_broadcast::distributed::EgDistributed;
use radio_broadcast::theory::distributed_bound;
use radio_graph::ImplicitGnp;
use radio_sim::{resolve_backend, thread_budget, Backend, Json, RunConfig, RunSpec, TraceLevel};

use crate::common::{measure_custom, measure_protocol, point_seed, write_csv};
use crate::outln;
use crate::registry::{ExpContext, Experiment};
use crate::report::{protocol_point_to_json, BenchPoint, BenchReport};

/// Edge probability of the scale regime: `2.5 ln n / n`, comfortably above
/// the connectivity threshold `ln n / n`.
pub fn scale_p(n: usize) -> f64 {
    (2.5 * (n.max(2) as f64).ln() / n as f64).min(1.0)
}

/// Theorem 7: distributed upper bound.
pub struct T7;

impl Experiment for T7 {
    fn name(&self) -> &'static str {
        "t7"
    }
    fn banner_id(&self) -> &'static str {
        "E-T7"
    }
    fn claim(&self) -> &'static str {
        "distributed broadcast in O(ln n) rounds knowing only n, p (Theorem 7)"
    }
    fn default_grid(&self) -> Vec<(&'static str, &'static str)> {
        vec![("n", "2^10..2^16"), ("regimes", "3"), ("trials", "25")]
    }

    fn run(&self, ctx: &ExpContext) -> BenchReport {
        let args = &ctx.args;
        if args.backend != Backend::Explicit {
            return run_scale_sweep(self, ctx);
        }
        let mut report = BenchReport::new(self.name(), self.claim(), args.mode(), args.seed);

        let exps: Vec<u32> = match () {
            _ if args.quick => vec![10, 12],
            _ if args.full => (10..=18).collect(),
            _ => (10..=16).collect(),
        };
        let ns: Vec<usize> = args.sizes(exps.iter().map(|&k| 1usize << k).collect());
        let trials = args.trials_or(args.scale(8, 25, 50));

        let regimes: Vec<(&str, fn(usize) -> f64, usize)> = vec![
            (
                "polylog ln²n/n",
                |n| (n as f64).ln().powi(2) / n as f64,
                usize::MAX,
            ),
            ("sqrt n^-1/2", |n| (n as f64).powf(-0.5), 1 << 16),
            ("const p=0.05", |_| 0.05, 1 << 13),
        ];

        let mut table = Table::new(vec![
            "regime",
            "n",
            "d(avg)",
            "rounds",
            "±sd",
            "ln n",
            "rounds/ln n",
            "ok",
        ]);
        let mut csv = CsvWriter::new(&[
            "regime",
            "n",
            "p",
            "mean_degree",
            "mean_rounds",
            "sd_rounds",
            "ln_n",
            "completed",
            "trials",
        ]);
        let mut fit_points: Vec<(usize, f64)> = Vec::new();

        for (name, pf, max_n) in &regimes {
            for &n in &ns {
                if n > *max_n {
                    continue;
                }
                let p = pf(n);
                let seed = point_seed(args.seed, &format!("t7/{name}/{n}"));
                let point = measure_protocol(n, p, trials, seed, || EgDistributed::new(p));
                let ln_n = distributed_bound(n);
                let Some(rounds) = &point.rounds else {
                    eprintln!("warning: no completed trials at {name}, n = {n}");
                    // Still emit the point (completed = 0, rounds = null) so the
                    // sweep stays rectangular for radio-analysis consumers.
                    report.push(
                        protocol_point_to_json(&format!("{name}/n={n}"), &point)
                            .field("regime", Json::from(*name))
                            .field("ln_n", Json::from(ln_n)),
                    );
                    continue;
                };
                table.add_row(vec![
                    name.to_string(),
                    n.to_string(),
                    fnum(point.mean_degree, 1),
                    fnum(rounds.mean, 1),
                    fnum(rounds.std_dev, 1),
                    fnum(ln_n, 1),
                    fnum(rounds.mean / ln_n, 2),
                    format!("{}/{}", point.completed, point.trials),
                ]);
                csv.add_row(&[
                    name.to_string(),
                    n.to_string(),
                    format!("{p}"),
                    format!("{}", point.mean_degree),
                    format!("{}", rounds.mean),
                    format!("{}", rounds.std_dev),
                    format!("{ln_n}"),
                    point.completed.to_string(),
                    point.trials.to_string(),
                ]);
                report.push(
                    protocol_point_to_json(&format!("{name}/n={n}"), &point)
                        .field("regime", Json::from(*name))
                        .field("ln_n", Json::from(ln_n))
                        .field("rounds_over_ln_n", Json::from(rounds.mean / ln_n)),
                );
                fit_points.push((n, rounds.mean));
            }
        }

        outln!(ctx, "{}", table.render());

        if let Some(fit) = fit_log_form(&fit_points) {
            outln!(ctx);
            outln!(
                ctx,
                "fit: rounds ≈ {:.2}·ln n + {:.2}   (R² = {:.3})",
                fit.a,
                fit.b,
                fit.r_squared
            );
            outln!(
                ctx,
                "paper predicts rounds = Θ(ln n): slope a should be a positive O(1) constant."
            );
            report.push(
                BenchPoint::new("fit")
                    .field("a", Json::from(fit.a))
                    .field("b", Json::from(fit.b))
                    .field("r_squared", Json::from(fit.r_squared)),
            );
        }
        write_csv("exp_t7", csv.finish());
        report
    }
}

/// The provider-backed Theorem-7 scale sweep (`--backend
/// implicit|sharded|auto`): EG rounds at `p = 2.5 ln n / n` on the
/// adjacency-free sweep engine, up to `n = 10⁷` in `--full` mode.
fn run_scale_sweep(exp: &T7, ctx: &ExpContext) -> BenchReport {
    let args = &ctx.args;
    let mut report = BenchReport::new(exp.name(), exp.claim(), args.mode(), args.seed);

    let ns: Vec<usize> = args.sizes(args.scale(
        vec![1 << 14, 1 << 15],
        vec![1 << 16, 1 << 18, 1 << 20],
        vec![1 << 18, 1 << 20, 1 << 22, 10_000_000],
    ));
    let trials = args.trials_or(args.scale(2, 3, 1));
    // The scale points are implicit graphs, for which the shard count is
    // only recorded (it routes explicit providers).  Every sweep fills its
    // rounds on the RADIO_THREADS worker budget; a multi-trial point nests
    // those fills in run_trials workers and so oversubscribes the cores.
    let shards = match args.backend {
        Backend::Sharded => thread_budget(usize::MAX).max(2),
        _ => 1,
    };
    outln!(
        ctx,
        "scale regime: backend={} shards={} p=2.5·ln n/n (no connectivity conditioning)",
        args.backend,
        shards
    );

    let mut table = Table::new(vec![
        "n",
        "d(exp)",
        "rounds",
        "±sd",
        "ln n",
        "rounds/ln n",
        "ok",
        "wall_s",
    ]);
    let mut csv = CsvWriter::new(&[
        "n",
        "p",
        "backend",
        "shards",
        "mean_rounds",
        "sd_rounds",
        "ln_n",
        "completed",
        "trials",
        "wall_s",
    ]);
    let mut fit_points: Vec<(usize, f64)> = Vec::new();

    for &n in &ns {
        let p = scale_p(n);
        // Auto resolves per point; oversized runs reroute to implicit with
        // the typed bitmap-cap error as the printed note.
        let (resolved, note) = resolve_backend(args.backend, n);
        if let Some(err) = note {
            outln!(ctx, "note: n = {n} rerouted to implicit backend ({err})");
        }
        let seed = point_seed(args.seed, &format!("t7/scale/{n}"));
        let start = std::time::Instant::now();
        let point = measure_custom(n, p, trials, seed, |rng| {
            let graph_seed = rng.next();
            let source = (rng.below(n as u64)) as radio_graph::NodeId;
            let imp = ImplicitGnp::new(n, p, graph_seed);
            let cfg = RunConfig::for_graph(n).with_trace(TraceLevel::SummaryOnly);
            let mut proto = EgDistributed::new(p);
            let r = RunSpec::on_provider(&imp, shards, source)
                .with_config(cfg)
                .run_with_rng(&mut proto, rng)
                .into_single();
            (r.completed.then_some(r.rounds), imp.expected_degree())
        });
        let wall_s = start.elapsed().as_secs_f64();
        let ln_n = distributed_bound(n);
        let rounds_mean = point.rounds.as_ref().map(|r| r.mean);
        table.add_row(vec![
            n.to_string(),
            fnum(point.mean_degree, 1),
            rounds_mean.map_or("-".into(), |m| fnum(m, 1)),
            point
                .rounds
                .as_ref()
                .map_or("-".into(), |r| fnum(r.std_dev, 1)),
            fnum(ln_n, 1),
            rounds_mean.map_or("-".into(), |m| fnum(m / ln_n, 2)),
            format!("{}/{}", point.completed, point.trials),
            fnum(wall_s, 1),
        ]);
        csv.add_row(&[
            n.to_string(),
            format!("{p}"),
            resolved.to_string(),
            shards.to_string(),
            rounds_mean.map_or(String::new(), |m| format!("{m}")),
            point
                .rounds
                .as_ref()
                .map_or(String::new(), |r| format!("{}", r.std_dev)),
            format!("{ln_n}"),
            point.completed.to_string(),
            point.trials.to_string(),
            format!("{wall_s}"),
        ]);
        let mut bench_point = protocol_point_to_json(&format!("scale/n={n}"), &point)
            .field("regime", Json::from("threshold 2.5 ln n/n"))
            .field("backend", Json::from(resolved.as_str()))
            .field("shards", Json::from(shards as u64))
            .field("ln_n", Json::from(ln_n))
            .field("wall_s", Json::from(wall_s));
        if let Some(m) = rounds_mean {
            bench_point = bench_point.field("rounds_over_ln_n", Json::from(m / ln_n));
            fit_points.push((n, m));
        }
        report.push(bench_point);
    }

    outln!(ctx, "{}", table.render());
    if let Some(fit) = fit_log_form(&fit_points) {
        outln!(
            ctx,
            "fit: rounds ≈ {:.2}·ln n + {:.2}   (R² = {:.3})",
            fit.a,
            fit.b,
            fit.r_squared
        );
        report.push(
            BenchPoint::new("fit")
                .field("a", Json::from(fit.a))
                .field("b", Json::from(fit.b))
                .field("r_squared", Json::from(fit.r_squared)),
        );
    }
    write_csv("exp_t7_scale", csv.finish());
    report
}
