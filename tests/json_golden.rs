//! Golden-file tests for the JSON telemetry schemas.
//!
//! The rendered form of a [`RunReport`] and a [`BenchReport`] is pinned
//! byte-for-byte against committed files in `tests/golden/`.  A failure
//! here means the JSON schema changed: either fix the regression, or —
//! for an intentional schema change — bump the schema version, update
//! `docs/OBSERVABILITY.md`, and re-bless the files by running the tests
//! with `GOLDEN_UPDATE=1`.

use std::path::PathBuf;

use radio_bench::report::{BenchPoint, BenchReport};
use radio_sim::report::RunReport;
use radio_sim::{Json, RoundEvent};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Compares `actual` against the committed golden file, or re-blesses it
/// when `GOLDEN_UPDATE` is set in the environment.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); bless with GOLDEN_UPDATE=1",
            path.display()
        )
    });
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "{name} drifted from its golden file; if the schema change is intentional, \
         bump the schema version and re-bless with GOLDEN_UPDATE=1"
    );
}

fn sample_run_report() -> RunReport {
    RunReport {
        algorithm: "eg".into(),
        n: 64,
        p: Some(0.125),
        seed: Some(42),
        completed: true,
        rounds: 2,
        informed: 64,
        coverage: 1.0,
        last_delivery_round: 2,
        total_transmissions: 9,
        total_collisions: 1,
        round_to_half: Some(1),
        round_to_90: Some(2),
        round_to_99: Some(2),
        wall_ns: Some(12_345),
        kernel: Some("dense".into()),
        threads: None,
        batch_lanes: None,
        plan_backend: Some("explicit".into()),
        plan_engine: Some("round".into()),
        plan_shards: Some(1),
        backoff_epochs: Some(vec![1, 18, 52]),
        faults: None,
        events: vec![
            RoundEvent {
                round: 1,
                transmitters: 1,
                reached: 40,
                collisions: 0,
                newly_informed: 40,
                informed_after: 41,
                elapsed_ns: 7_000,
            },
            RoundEvent {
                round: 2,
                transmitters: 8,
                reached: 30,
                collisions: 1,
                newly_informed: 23,
                informed_after: 64,
                elapsed_ns: 5_345,
            },
        ],
    }
}

fn sample_bench_report() -> BenchReport {
    let mut report = BenchReport::new("t7", "distributed broadcast in O(ln n) rounds", "quick", 42);
    report.push(
        BenchPoint::new("polylog/n=1024")
            .field("n", Json::from(1024i64))
            .field("mean_rounds", Json::from(18.5))
            .field("completed", Json::from(8i64))
            .field("trials", Json::from(8i64)),
    );
    report.push(
        BenchPoint::new("fit")
            .field("a", Json::from(2.25))
            // Non-integral on purpose: an integral float (3.0) renders as
            // "3" and parses back as an integer, which is fine for
            // consumers but not bit-stable for this round-trip check.
            .field("b", Json::from(3.5))
            .field("r_squared", Json::from(0.97)),
    );
    report
}

#[test]
fn run_report_matches_golden_file() {
    let report = sample_run_report();
    check_golden("run_report.json", &report.to_json().render_pretty());
}

#[test]
fn run_report_round_trips_through_golden_file() {
    let text = std::fs::read_to_string(golden_path("run_report.json")).unwrap();
    let parsed = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(parsed, sample_run_report());
}

#[test]
fn bench_report_matches_golden_file() {
    let report = sample_bench_report();
    check_golden("bench_report.json", &report.to_json().render_pretty());
}

#[test]
fn bench_report_round_trips_through_golden_file() {
    let text = std::fs::read_to_string(golden_path("bench_report.json")).unwrap();
    let parsed = BenchReport::from_json(&Json::parse(&text).unwrap()).unwrap();
    let expected = sample_bench_report();
    assert_eq!(parsed.experiment, expected.experiment);
    assert_eq!(parsed.claim, expected.claim);
    assert_eq!(parsed.mode, expected.mode);
    assert_eq!(parsed.seed, expected.seed);
    assert_eq!(parsed.points.len(), expected.points.len());
    for (a, b) in parsed.points.iter().zip(&expected.points) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.fields, b.fields);
    }
}

#[test]
fn compact_and_pretty_render_parse_identically() {
    let json = sample_run_report().to_json();
    let compact = Json::parse(&json.render()).unwrap();
    let pretty = Json::parse(&json.render_pretty()).unwrap();
    assert_eq!(compact, pretty);
}
