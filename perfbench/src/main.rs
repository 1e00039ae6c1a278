//! One benchmark process: runs one workload of the radio-rs benchmark and
//! prints its result as one JSON line on standard output.
//!
//! ```text
//! radio-perfbench --workload mc-stored|scale-lanes|scale-faulted|node-partition
//!                 --seed S --seconds T [--traced] [--toy] [--spans-out FILE]
//!                 [--corrupt]
//! ```
//!
//! Without `--traced` the process runs the closed timed loop with tracing
//! off and reports the end-to-end metrics.  With `--traced` it runs a
//! fixed number of units twice on the same inputs, untraced and traced,
//! checks that both return the same outputs, and reports the per-layer
//! split and the tracing overhead; `--spans-out` writes the span tree
//! (workload → unit → round) as JSON lines.  `--toy` shrinks every size
//! for the self-tests, and `--corrupt` (self-tests only) makes every
//! output check fail.  `perfbench/run.py` is the
//! front end that builds this binary and runs each workload in its own
//! process.

mod checks;
mod node_replay;
mod trace;
mod workloads;

use std::io::Write;

use radio_sim::{thread_budget, Json};

use workloads::Options;

fn parse_args() -> Result<(Options, Option<String>), String> {
    let mut opt = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        toy: false,
    };
    let mut spans_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opt.workload = value()?,
            "--seed" => {
                opt.seed = value()?
                    .parse()
                    .map_err(|_| "--seed: bad integer".to_string())?
            }
            "--seconds" => {
                opt.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds: bad number".to_string())?
            }
            "--spans-out" => spans_out = Some(value()?),
            "--traced" => opt.traced = true,
            "--toy" => opt.toy = true,
            "--corrupt" => checks::CORRUPT.store(true, std::sync::atomic::Ordering::Relaxed),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if opt.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if opt.seconds.is_nan() || opt.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((opt, spans_out))
}

/// Machine and build context of the measurement.
fn provenance(opt: &Options) -> Json {
    #[cfg(target_arch = "x86_64")]
    let avx512 = std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let avx512 = false;
    Json::object([
        (
            "available_parallelism",
            Json::from(std::thread::available_parallelism().map_or(1, |p| p.get())),
        ),
        ("avx512f", Json::from(avx512)),
        (
            "radio_threads",
            Json::from(std::env::var("RADIO_THREADS").ok()),
        ),
        ("thread_budget", Json::from(thread_budget(usize::MAX))),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("pid", Json::from(std::process::id())),
        ("seed", Json::from(opt.seed)),
        ("toy", Json::from(opt.toy)),
    ])
}

fn write_spans(path: &str, workload: &str, spans: &[Json]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let end = spans
        .iter()
        .filter_map(|s| s.get("end_ns").and_then(Json::as_f64))
        .fold(0.0, f64::max);
    let root = Json::object([
        ("id", Json::from(0u64)),
        ("parent", Json::Null),
        ("name", Json::from("workload")),
        ("start_ns", Json::from(0u64)),
        ("end_ns", Json::from(end as u64)),
        ("attrs", Json::object([("workload", Json::from(workload))])),
    ]);
    writeln!(f, "{}", root.render())?;
    for s in spans {
        writeln!(f, "{}", s.render())?;
    }
    f.flush()
}

fn main() {
    let (opt, spans_out) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let out = match workloads::run(&opt) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = spans_out.as_deref() {
        if let Err(e) = write_spans(path, &opt.workload, &out.spans) {
            eprintln!("error: writing spans to {path}: {e}");
            std::process::exit(1);
        }
    }
    let metrics = Json::Obj(
        out.metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::object([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                )
            })
            .collect(),
    );
    let line = Json::object([
        ("workload", Json::from(opt.workload.as_str())),
        (
            "mode",
            Json::from(if opt.traced { "traced" } else { "plain" }),
        ),
        ("units", Json::from(out.units)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        (
            "failures",
            Json::array(out.failures.iter().map(String::as_str)),
        ),
        ("digest", Json::from(format!("{:016x}", out.digest))),
        (
            "untraced_trials_per_s",
            Json::from(out.untraced_trials_per_s),
        ),
        ("metrics", metrics),
        ("provenance", provenance(&opt)),
    ]);
    println!("{}", line.render());
    if out.failed > 0 {
        std::process::exit(1);
    }
}
