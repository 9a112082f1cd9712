//! # summa-bench — the experiment and benchmark harness
//!
//! One Criterion bench per experiment of the DESIGN.md index
//! (E1–E12, excluding E5/E8 which are example-only figure
//! regenerations). Each bench first prints the regenerated experiment
//! rows — the reproduction record that EXPERIMENTS.md pins — and then
//! times the core operation over a parameter sweep.
//!
//! Run everything with `cargo bench`, or a single experiment with
//! e.g. `cargo bench --bench e6_isomorphism`.

/// Print a banner separating the experiment record from Criterion's
/// timing output.
pub fn banner(experiment: &str, paper_artifact: &str) {
    println!("\n=== {experiment} — reproduces: {paper_artifact} ===");
}

/// Standard sweep sizes for scaling experiments.
pub const SWEEP_SMALL: &[usize] = &[2, 4, 6];
/// Larger sweep for polynomial-cost experiments.
pub const SWEEP_MEDIUM: &[usize] = &[8, 16, 32, 64];

/// Is this a `SUMMA_BENCH_SMOKE=1` run? Smoke runs shrink each lane to
/// a sample or two so CI can check a report's format and its exact
/// counters; their wall times are placeholders.
pub fn smoke() -> bool {
    std::env::var("SUMMA_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Write a bench report as `BENCH_<name>.json` and return its path.
/// A real run writes the committed report at the workspace root; a
/// smoke run writes `target/bench-smoke/` instead, so its placeholder
/// figures never overwrite a committed report.
pub fn write_report(name: &str, json: &str) -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = if smoke() {
        root.join("target/bench-smoke")
    } else {
        root
    };
    std::fs::create_dir_all(&dir).expect("create the report directory");
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json).expect("write the bench report");
    path
}

/// The current UTC wall-clock time as an ISO-8601 timestamp
/// (`YYYY-MM-DDTHH:MM:SSZ`), computed from the Unix epoch without any
/// date dependency. Used to stamp benchmark reports with provenance.
pub fn iso8601_utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    iso8601_from_unix(secs)
}

/// Format Unix seconds as `YYYY-MM-DDTHH:MM:SSZ` using the standard
/// civil-from-days calendar algorithm (proleptic Gregorian).
pub fn iso8601_from_unix(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // Howard Hinnant's civil_from_days, shifted so the era starts on
    // 0000-03-01 and leap days land at era boundaries.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    format!("{year:04}-{month:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

#[cfg(test)]
mod tests {
    #[test]
    fn sweeps_are_increasing() {
        assert!(super::SWEEP_SMALL.windows(2).all(|w| w[0] < w[1]));
        assert!(super::SWEEP_MEDIUM.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn iso8601_matches_known_instants() {
        assert_eq!(super::iso8601_from_unix(0), "1970-01-01T00:00:00Z");
        // 2000-02-29 (leap day) 12:34:56 UTC.
        assert_eq!(
            super::iso8601_from_unix(951_827_696),
            "2000-02-29T12:34:56Z"
        );
        // 2038-01-19T03:14:07Z, the 32-bit rollover instant.
        assert_eq!(
            super::iso8601_from_unix(2_147_483_647),
            "2038-01-19T03:14:07Z"
        );
    }

    #[test]
    fn iso8601_now_is_well_formed() {
        let now = super::iso8601_utc_now();
        assert_eq!(now.len(), 20);
        assert!(now.ends_with('Z'));
        assert_eq!(&now[4..5], "-");
        assert_eq!(&now[10..11], "T");
    }
}
