//! Validate a JSON report file with the dependency-free parser.
//!
//! Usage: `validate_json <file> [required_key ...]`
//!
//! Parses the file with [`summa_obs::export::parse_json`] and checks
//! that every `required_key` is present at the top level. When the
//! document carries a `workloads` key (the shape of the
//! `BENCH_*.json` reports), it must be a non-empty array of objects
//! that each name their workload. Exits non-zero with a message on any
//! violation, so CI can gate on report well-formedness without pulling
//! in a JSON dependency.

use std::process::ExitCode;
use summa_obs::export::{parse_json, Json};

fn fail(msg: &str) -> ExitCode {
    eprintln!("validate_json: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        return fail("usage: validate_json <file> [required_key ...]");
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let doc = match parse_json(&text) {
        Ok(d) => d,
        Err(e) => return fail(&format!("{path}: invalid JSON: {e}")),
    };
    for key in args {
        if doc.get(&key).is_none() {
            return fail(&format!("{path}: missing required key \"{key}\""));
        }
    }
    if let Some(workloads) = doc.get("workloads") {
        let items = workloads.items();
        if items.is_empty() {
            return fail(&format!("{path}: \"workloads\" must be a non-empty array"));
        }
        for (i, w) in items.iter().enumerate() {
            match w.get("name").and_then(Json::as_str) {
                Some(_) => {}
                None => return fail(&format!("{path}: workloads[{i}] lacks a string \"name\"")),
            }
        }
        println!("{path}: ok ({} workloads)", items.len());
    } else {
        println!("{path}: ok");
    }
    ExitCode::SUCCESS
}
