//! `loadgen` terminates on every churn rate: a zero or negative
//! `--churn-hz` sends no churn instead of sleeping for the reciprocal
//! of a clamped rate, and the run ends at its deadline.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Far longer than a one-second run needs, far shorter than a hang.
const LIMIT: Duration = Duration::from_secs(60);

fn run_loadgen(churn_hz: &str) {
    let out = std::env::temp_dir().join(format!(
        "loadgen-churn-{}-{churn_hz}.json",
        std::process::id()
    ));
    let mut child = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--churn-hz", churn_hz, "--seconds", "1"])
        .args(["--clients", "1", "--pipeline", "16", "--shards", "1"])
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("loadgen starts");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll loadgen") {
            break status;
        }
        if started.elapsed() > LIMIT {
            let _ = child.kill();
            let _ = child.wait();
            panic!("loadgen --churn-hz {churn_hz} still running after {LIMIT:?}");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let json = std::fs::read_to_string(&out).unwrap_or_default();
    let _ = std::fs::remove_file(&out);
    assert!(status.success(), "loadgen --churn-hz {churn_hz}: {status}");
    assert!(json.contains("\"churn_events\": 0"), "{json}");
    assert!(json.contains("\"epochs_advanced\": 0"), "{json}");
}

#[test]
fn zero_churn_rate_ends_at_the_deadline() {
    run_loadgen("0");
}

#[test]
fn negative_churn_rate_ends_at_the_deadline() {
    run_loadgen("-5");
}
