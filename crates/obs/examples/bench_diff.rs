//! Compare a fresh bench report's exact counters with the committed
//! report.
//!
//! Usage: `bench_diff <committed.json> <fresh.json> <counter> [counter ...]`
//!
//! Both files are `BENCH_*.json` reports: a `workloads` array of
//! objects, each naming its workload. Every committed workload must be
//! in the fresh report, and every listed counter the committed workload
//! carries must be in the fresh one and no worse. A workload may lack a
//! counter (a lane it does not run), but each listed counter must be in
//! some committed workload, so a misspelt name cannot pass by comparing
//! nothing. Counters are machine-independent (sat calls, EL steps), so
//! they move only when the code does: an increase is a regression. A
//! counter written `+name` counts work avoided (pruned cells), so for
//! it a decrease is the regression. An improvement passes and is
//! reported, so the committed report can be regenerated. Wall times
//! (every `*_ns` field) are printed beside each other but never gated:
//! the bench host is noisy, and a smoke run takes one sample per lane.
//!
//! Exits non-zero after listing every failure, so CI can gate a
//! smoke run's counters on the committed report.

use std::process::ExitCode;
use summa_obs::export::{parse_json, Json};

fn fail(msg: &str) -> ExitCode {
    eprintln!("bench_diff: {msg}");
    ExitCode::FAILURE
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .items()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed_path, fresh_path, counters @ ..] = args.as_slice() else {
        return fail("usage: bench_diff <committed.json> <fresh.json> <counter> [counter ...]");
    };
    if counters.is_empty() {
        return fail("name at least one counter to compare");
    }
    let (committed, fresh) = match (load(committed_path), load(fresh_path)) {
        (Ok(c), Ok(f)) => (c, f),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    println!("bench_diff: {fresh_path} against {committed_path}");
    let mut failures = Vec::new();
    let mut compared = vec![false; counters.len()];
    for old in committed
        .get("workloads")
        .map(Json::items)
        .unwrap_or_default()
    {
        let Some(name) = old.get("name").and_then(Json::as_str) else {
            return fail(&format!(
                "{committed_path}: a workload lacks a string \"name\""
            ));
        };
        let Some(new) = workload(&fresh, name) else {
            failures.push(format!("{name}: missing from {fresh_path}"));
            continue;
        };
        for (counter, compared) in counters.iter().zip(&mut compared) {
            let (key, higher_is_better) = match counter.strip_prefix('+') {
                Some(key) => (key, true),
                None => (counter.as_str(), false),
            };
            let Some(before) = old.get(key).and_then(Json::as_num) else {
                continue;
            };
            *compared = true;
            let Some(after) = new.get(key).and_then(Json::as_num) else {
                failures.push(format!("{name}: counter {key} missing from {fresh_path}"));
                continue;
            };
            let worse = if higher_is_better {
                after < before
            } else {
                after > before
            };
            let verdict = if worse {
                failures.push(format!("{name}: {key} regressed {before} -> {after}"));
                "REGRESSION"
            } else if after == before {
                "same"
            } else {
                "improved; regenerate the committed report"
            };
            println!("  {name:<12} {key:<24} {before:>12} -> {after:<12} {verdict}");
        }
        if let Json::Obj(fields) = old {
            for (key, value) in fields.iter().filter(|(k, _)| k.ends_with("_ns")) {
                if let (Some(before), Some(after)) =
                    (value.as_num(), new.get(key).and_then(Json::as_num))
                {
                    println!(
                        "  {name:<12} {key:<24} {before:>12} -> {after:<12} {:.2}x, not gated",
                        after / before.max(1.0)
                    );
                }
            }
        }
    }
    for (counter, _) in counters.iter().zip(&compared).filter(|(_, &c)| !c) {
        failures.push(format!(
            "counter {counter} is in no workload of {committed_path}"
        ));
    }
    if failures.is_empty() {
        println!("bench_diff: no counter regressed");
        ExitCode::SUCCESS
    } else {
        for r in &failures {
            eprintln!("bench_diff: FAIL: {r}");
        }
        ExitCode::FAILURE
    }
}
