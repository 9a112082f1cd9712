//! The operations behind the wire protocol, shared verbatim between
//! the server's queue workers and the conformance suite.
//!
//! [`execute`] is *the* direct library call: the server invokes it for
//! every queued request, and `tests/integration_serve.rs` invokes it
//! straight from the test process and compares bytes. Determinism
//! contract: for a fixed snapshot, request, and request [`Budget`]
//! (including any per-request fault injector), the returned
//! [`Executed::body`] is byte-identical across runs, thread counts,
//! and transport — because
//!
//! * every request reasons against a **private** [`Tableau`] and a
//!   **fresh** [`SatCache`](summa_dl::cache::SatCache) (no
//!   cross-request warmth leaks into `Spend.cache_hits`),
//! * parallel substrates run at `threads = 1` *inside* a request
//!   (parallelism comes from running many requests at once, one per
//!   queue worker, which never share an envelope), and
//! * `Spend.elapsed` — the one wall-clock field — never enters the
//!   body (it rides in the response header).

use crate::snapshot::{Snapshot, SnapshotStore, WarmState};
use crate::wire::{
    self, ok_body, put_str, put_u32, put_u64, ProtoError, Request, OUTCOME_CANCELLED,
    OUTCOME_COMPLETED, OUTCOME_EXHAUSTED, REASON_DEADLINE, REASON_FAULT, REASON_MEMORY,
    REASON_NONE, REASON_STEPS, REASON_TASK_FAILURE, SERVED_CACHE, SERVED_INDEX, SERVED_PROVER,
    STATUS_OK, STATUS_PROTOCOL_ERROR,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use summa_core::prelude::{standard_corpus, standard_definitions, Verdict};
use summa_dl::abox::ABox;
use summa_dl::classify::Classify;
use summa_dl::concept::{Concept, ConceptId, Vocabulary};
use summa_dl::parser::parse_concept;
use summa_dl::realize::{Realization, Realize};
use summa_dl::tableau::Tableau;
use summa_guard::{Budget, ExhaustionReason, Governed, Interrupt, Spend};

/// The result of executing one request: a wire status, the
/// deterministic body bytes, the snapshot epoch answered against (0 if
/// none), how the answer was produced (`SERVED_*`), and the spend to
/// charge the tenant's quota (rides in the response header, never the
/// body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Executed {
    pub status: u8,
    pub body: Vec<u8>,
    pub epoch: u64,
    pub served: u8,
    pub spend: Spend,
}

impl Executed {
    fn proto(e: ProtoError, epoch: u64) -> Executed {
        Executed {
            status: STATUS_PROTOCOL_ERROR,
            body: wire::protocol_error_body(&e),
            epoch,
            served: SERVED_PROVER,
            spend: Spend::default(),
        }
    }
}

fn interrupt_codes(i: Interrupt) -> (u8, u8) {
    match i {
        Interrupt::Cancelled => (OUTCOME_CANCELLED, REASON_NONE),
        Interrupt::Exhausted(r) => (
            OUTCOME_EXHAUSTED,
            match r {
                ExhaustionReason::Steps => REASON_STEPS,
                ExhaustionReason::Deadline => REASON_DEADLINE,
                ExhaustionReason::Memory => REASON_MEMORY,
                ExhaustionReason::FaultInjected => REASON_FAULT,
                ExhaustionReason::TaskFailure => REASON_TASK_FAILURE,
            },
        ),
    }
}

/// An OK body for a decided answer's payload, or for the interrupt
/// that stopped it (no payload).
fn outcome_body(answer: Result<Vec<u8>, Interrupt>) -> Vec<u8> {
    match answer {
        Ok(p) => ok_body(OUTCOME_COMPLETED, REASON_NONE, Some(p)),
        Err(i) => {
            let (oc, rc) = interrupt_codes(i);
            ok_body(oc, rc, None)
        }
    }
}

/// Map a `Governed<T>` plus a payload serializer onto an OK body.
/// Completed results always carry a payload; interrupted ones carry
/// the partial when the substrate salvaged one.
fn governed_body<T>(g: &Governed<T>, ser: impl Fn(&T) -> Vec<u8>) -> Vec<u8> {
    match g {
        Governed::Completed(t) => ok_body(OUTCOME_COMPLETED, REASON_NONE, Some(ser(t))),
        Governed::Exhausted { reason, partial } => {
            let (_, rc) = interrupt_codes(Interrupt::Exhausted(*reason));
            ok_body(OUTCOME_EXHAUSTED, rc, partial.as_ref().map(&ser))
        }
        Governed::Cancelled { partial } => {
            ok_body(OUTCOME_CANCELLED, REASON_NONE, partial.as_ref().map(&ser))
        }
    }
}

/// Verdict wire codes.
pub fn verdict_code(v: Verdict) -> u8 {
    match v {
        Verdict::Admitted => 0,
        Verdict::Rejected => 1,
        Verdict::Undecidable => 2,
        Verdict::Unknown => 3,
    }
}

/// Parse ABox text: one assertion per line, `#` comments and blank
/// lines ignored. Two forms:
///
/// * `name : <concept-expr>` — a concept assertion (the expression
///   uses the [`summa_dl::parser`] grammar);
/// * `a role b` — a role assertion (three bare tokens).
pub fn parse_abox(text: &str, voc: &mut Vocabulary) -> Result<ABox, String> {
    let mut abox = ABox::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, expr)) = line.split_once(':') {
            let name = name.trim();
            if name.is_empty() || name.split_whitespace().count() != 1 {
                return Err(format!("line {}: bad individual name", lineno + 1));
            }
            let c =
                parse_concept(expr.trim(), voc).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let ind = abox.individual(name);
            abox.assert_concept(ind, c);
        } else {
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() != 3 {
                return Err(format!(
                    "line {}: expected `name : concept` or `a role b`",
                    lineno + 1
                ));
            }
            let a = abox.individual(toks[0]);
            let r = voc.role(toks[1]);
            let b = abox.individual(toks[2]);
            abox.assert_role(a, r, b);
        }
    }
    Ok(abox)
}

/// Serialize a classification hierarchy payload from its rows: every
/// concept with its subsumers, both ascending. The cold classify path
/// passes the computed hierarchy's rows and the warm path the index's
/// verified rows, so the bytes agree by construction.
fn hierarchy_payload<S: ExactSizeIterator<Item = ConceptId>>(
    rows: impl ExactSizeIterator<Item = (ConceptId, S)>,
    voc: &Vocabulary,
) -> Vec<u8> {
    let mut p = Vec::new();
    put_u32(&mut p, rows.len() as u32);
    for (c, subs) in rows {
        put_str(&mut p, voc.concept_name(c));
        put_u32(&mut p, subs.len() as u32);
        for s in subs {
            put_str(&mut p, voc.concept_name(s));
        }
    }
    p
}

/// Serialize a realization payload. Shared between the cold and warm
/// realize paths.
fn realization_payload(real: &Realization, parsed: &ABox, voc: &Vocabulary) -> Vec<u8> {
    let mut p = Vec::new();
    let decided: Vec<_> = parsed
        .individuals()
        .filter(|&i| real.types_ref(i).is_some())
        .collect();
    put_u32(&mut p, decided.len() as u32);
    for ind in decided {
        put_str(&mut p, parsed.individual_name(ind));
        for set in [real.types_ref(ind), real.most_specific_ref(ind)] {
            let set = set.cloned().unwrap_or_default();
            put_u32(&mut p, set.len() as u32);
            for c in set {
                put_str(&mut p, voc.concept_name(c));
            }
        }
    }
    p
}

/// Resolve a query string as a told atom of the snapshot's vocabulary
/// **without interning** — a bare identifier token that is not a
/// grammar keyword and is already interned resolves to exactly the
/// `Concept::Atom` the full parse would produce. Anything else
/// (complex expressions, unknown names, odd tokens) returns `None`
/// and takes the parse path. This keeps the index fast path free of
/// the per-request vocabulary clone, which would otherwise dominate a
/// one-bit-test answer.
fn told_atom(voc: &Vocabulary, s: &str) -> Option<summa_dl::concept::ConceptId> {
    let t = s.trim();
    let first = t.chars().next()?;
    if !(first.is_alphabetic() || first == '_') {
        return None;
    }
    if !t.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    if matches!(
        t,
        "top" | "bottom" | "some" | "all" | "atleast" | "atmost" | "exactly"
    ) {
        return None;
    }
    voc.find_concept(t)
}

/// Build the `Executed` for an answer the index decided: one charged
/// step, the same completed body bytes the cold path would produce.
fn index_answer(epoch: u64, budget: &Budget, payload: impl FnOnce() -> Vec<u8>) -> Executed {
    let mut meter = budget.meter();
    let body = outcome_body(meter.charge(1).map(|()| payload()));
    Executed {
        status: STATUS_OK,
        body,
        epoch,
        served: SERVED_INDEX,
        spend: meter.spend(),
    }
}

/// Answer a subsumption query against one snapshot generation. With
/// `warm`, a named-concept pair the snapshot's closure already decided
/// answers by one index bit test (charging a single step), and
/// fall-through queries prove against the epoch-shared
/// [`SatCache`](summa_dl::cache::SatCache); without it, the query
/// proves cold against a private tableau.
fn subsumes_with(
    snap: &Snapshot,
    sub: &str,
    sup: &str,
    budget: &Budget,
    warm: Option<&WarmState>,
) -> Executed {
    // Index fast path, clone-free: both names resolve as told atoms
    // of the snapshot's own vocabulary and the closure has the bit.
    if let Some(w) = warm {
        if let (Some(sub_id), Some(sup_id)) = (told_atom(&snap.voc, sub), told_atom(&snap.voc, sup))
        {
            if let Some(holds) = w.index.subsumes(sup_id, sub_id) {
                return index_answer(snap.epoch, budget, || vec![u8::from(holds)]);
            }
        }
    }
    // Query-local names intern into a private vocabulary clone,
    // so concurrent requests never race on the snapshot's.
    let mut voc = snap.voc.clone();
    let sub_c = match parse_concept(sub, &mut voc) {
        Ok(c) => c,
        Err(e) => return Executed::proto(ProtoError::ParseError(e.to_string()), snap.epoch),
    };
    let sup_c = match parse_concept(sup, &mut voc) {
        Ok(c) => c,
        Err(e) => return Executed::proto(ProtoError::ParseError(e.to_string()), snap.epoch),
    };
    let mut meter = budget.meter();
    if let Some(w) = warm {
        // Second index chance after the full parse (e.g. a
        // parenthesized atom the clone-free lookup skipped): the bit
        // is the classifier's own answer for this pair, so the body
        // matches the cold path byte-for-byte.
        if let (Concept::Atom(a), Concept::Atom(b)) = (&sub_c, &sup_c) {
            if let Some(holds) = w.index.subsumes(*b, *a) {
                return index_answer(snap.epoch, budget, || vec![u8::from(holds)]);
            }
        }
    }
    let mut reasoner = Tableau::new(&snap.tbox, &voc);
    if let Some(w) = warm {
        reasoner = reasoner.with_shared_cache(Arc::clone(&w.cache));
    }
    // sub ⊑ sup  iff  sub ⊓ ¬sup is unsatisfiable.
    let query = Concept::and(vec![sub_c, Concept::not(sup_c)]);
    let answer = reasoner.sat_metered(&query, &mut meter);
    Executed {
        status: STATUS_OK,
        body: outcome_body(answer.map(|sat| vec![u8::from(!sat)])),
        epoch: snap.epoch,
        served: if warm.is_some() {
            SERVED_CACHE
        } else {
            SERVED_PROVER
        },
        spend: meter.spend(),
    }
}

/// Execute one request preferring the snapshot's warm state: index
/// lookups for told subsumption, the index's verified rows for
/// `classify`, and the epoch-shared
/// [`SatCache`](summa_dl::cache::SatCache) (plus index-assisted
/// most-specific filtering) for realization. Answers exactly as
/// [`execute`] — the cold conformance baseline — whenever the snapshot
/// has no warm state or the op has no warm variant.
///
/// Every warm answer is built only from index rows that passed their
/// checksums. `subsumes` and `realize` reach the index through
/// `HierarchyIndex::subsumes`, which verifies the two rows it reads
/// and answers `None` (so the pair is proved) when either fails.
/// `classify` checks every row through `HierarchyIndex::verified_rows`
/// before it writes a byte, goes cold if any row fails, and serializes
/// straight from the rows.
///
/// Answer bodies are byte-identical to [`execute`] whenever both
/// complete: the index bits are the subsumption closure the cold
/// path's tableau computes (EL saturation, which warms an EL
/// snapshot, computes the same closure), `classify` serializes it
/// through the cold path's own serializer, and the shared cache only
/// replays checksummed prover verdicts. What may
/// legitimately differ is the header-only spend (and, under starved
/// budgets, the outcome — which is why the server gates the warm path
/// off for step-capped and fault-injected configurations).
pub fn execute_warm(store: &SnapshotStore, req: &Request, budget: &Budget) -> Executed {
    execute_with(store, req, budget, true)
}

/// Execute one request against the store under the given per-request
/// budget. This function **is** the conformance baseline — see the
/// module docs.
pub fn execute(store: &SnapshotStore, req: &Request, budget: &Budget) -> Executed {
    execute_with(store, req, budget, false)
}

/// The one body behind [`execute`] and [`execute_warm`]: each op
/// resolves its snapshot once, and with `warm` answers from that
/// snapshot's warm state when it has one.
pub(crate) fn execute_with(
    store: &SnapshotStore,
    req: &Request,
    budget: &Budget,
    warm: bool,
) -> Executed {
    let unknown = |name: &String| Executed::proto(ProtoError::UnknownSnapshot(name.clone()), 0);
    match req {
        Request::Ping => Executed {
            status: STATUS_OK,
            body: ok_body(OUTCOME_COMPLETED, REASON_NONE, Some(Vec::new())),
            epoch: 0,
            served: SERVED_PROVER,
            spend: Spend::default(),
        },
        Request::Subsumes { snapshot, sub, sup } => {
            let Some(snap) = store.get(snapshot) else {
                return unknown(snapshot);
            };
            subsumes_with(&snap, sub, sup, budget, snap.warm.as_ref().filter(|_| warm))
        }
        Request::Classify { snapshot } => {
            let Some(snap) = store.get(snapshot) else {
                return unknown(snapshot);
            };
            let warm_rows =
                (snap.warm.as_ref().filter(|_| warm)).and_then(|w| w.index.verified_rows());
            if let Some(rows) = warm_rows {
                // The verified rows are the closure the cold path's
                // classifier computes, so the payload bytes are
                // identical.
                return index_answer(snap.epoch, budget, || hierarchy_payload(rows, &snap.voc));
            }
            // A fresh private cache per run: within-request reuse only,
            // so the spend's cache counters are history-independent.
            let run = Classify::new(&snap.tbox, &snap.voc).run(budget);
            let body = governed_body(&run.governed, |h| hierarchy_payload(h.rows(), &snap.voc));
            Executed {
                status: STATUS_OK,
                epoch: snap.epoch,
                served: SERVED_PROVER,
                spend: run.spend,
                body,
            }
        }
        Request::Realize { snapshot, abox } => {
            let Some(snap) = store.get(snapshot) else {
                return unknown(snapshot);
            };
            let mut voc = snap.voc.clone();
            let parsed = match parse_abox(abox, &mut voc) {
                Ok(a) => a,
                Err(e) => return Executed::proto(ProtoError::ParseError(e), snap.epoch),
            };
            let w = snap.warm.as_ref().filter(|_| warm);
            let mut realize = Realize::new(&snap.tbox, &parsed, &voc);
            if let Some(w) = w {
                realize = realize.cache(Arc::clone(&w.cache)).index(&w.index);
            }
            let run = realize.run(budget);
            let body = governed_body(&run.governed, |real| {
                realization_payload(real, &parsed, &voc)
            });
            Executed {
                status: STATUS_OK,
                epoch: snap.epoch,
                served: if w.is_some() {
                    SERVED_CACHE
                } else {
                    SERVED_PROVER
                },
                spend: run.spend,
                body,
            }
        }
        Request::Admit {
            artifact,
            definition,
        } => {
            let corpus = standard_corpus();
            let Some(a) = corpus.iter().find(|a| a.name() == artifact) else {
                return Executed::proto(ProtoError::UnknownArtifact(artifact.clone()), 0);
            };
            let defs = standard_definitions();
            let Some(d) = defs.iter().find(|d| d.name() == definition) else {
                return Executed::proto(ProtoError::UnknownDefinition(definition.clone()), 0);
            };
            let mut meter = budget.meter();
            let body = outcome_body(meter.charge(1).map(|()| {
                // Panic isolation mirrors the critique's judge cells: a
                // panicking judge degrades to Unknown.
                let judged = catch_unwind(AssertUnwindSafe(|| d.admits(a, None)));
                let (verdict, reason) = match judged {
                    Ok(j) => (verdict_code(j.verdict), j.reason),
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        (
                            verdict_code(Verdict::Unknown),
                            format!("judge panicked: {msg}"),
                        )
                    }
                };
                let mut p = vec![verdict];
                put_str(&mut p, &reason);
                p
            }));
            Executed {
                status: STATUS_OK,
                epoch: 0,
                served: SERVED_PROVER,
                spend: meter.spend(),
                body,
            }
        }
        Request::Critique => {
            let governed = summa_core::critique::syntactic_critique_governed(budget);
            // The matrix's own per-cell spends carry wall-clock; the
            // body-level spend uses only the deterministic fields
            // (1 step per judged cell).
            let spend = match governed.as_partial() {
                Some(m) => m.total_spend(),
                None => Spend::default(),
            };
            let body = governed_body(&governed, |m| {
                let mut p = Vec::new();
                put_u32(&mut p, m.definitions.len() as u32);
                for d in &m.definitions {
                    put_str(&mut p, d);
                }
                put_u32(&mut p, m.artifacts.len() as u32);
                for (i, a) in m.artifacts.iter().enumerate() {
                    put_str(&mut p, a);
                    for j in &m.cells[i] {
                        p.push(verdict_code(j.verdict));
                        put_str(&mut p, &j.reason);
                    }
                }
                p
            });
            Executed {
                status: STATUS_OK,
                epoch: 0,
                served: SERVED_PROVER,
                spend,
                body,
            }
        }
        Request::LoadSnapshot { name, axioms } => match store.install_axioms(name, axioms) {
            Err(e) => Executed::proto(ProtoError::ParseError(e), 0),
            Ok(snap) => {
                let mut p = Vec::new();
                put_str(&mut p, &snap.name);
                put_u64(&mut p, snap.fingerprint);
                put_u64(&mut p, snap.tbox.atoms().len() as u64);
                Executed {
                    status: STATUS_OK,
                    body: ok_body(OUTCOME_COMPLETED, REASON_NONE, Some(p)),
                    epoch: snap.epoch,
                    served: SERVED_PROVER,
                    spend: Spend::default(),
                }
            }
        },
        // Stats/Telemetry are answered by the server from its own
        // state; they never reach the op layer (and have no library
        // baseline).
        Request::Stats => Executed::proto(
            ProtoError::Malformed("stats is served from server state"),
            0,
        ),
        Request::Telemetry { .. } => Executed::proto(
            ProtoError::Malformed("telemetry is served from server state"),
            0,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_ok_body, Op, Payload};

    fn store() -> SnapshotStore {
        SnapshotStore::with_builtins()
    }

    #[test]
    fn subsumes_answers_and_is_deterministic() {
        let s = store();
        let req = Request::Subsumes {
            snapshot: "vehicles".into(),
            sub: "car".into(),
            sup: "motorvehicle".into(),
        };
        let a = execute(&s, &req, &Budget::unlimited());
        let b = execute(&s, &req, &Budget::unlimited());
        assert_eq!(a.status, STATUS_OK);
        assert_eq!(a.body, b.body, "byte-identical across runs");
        let ok = decode_ok_body(Op::Subsumes, &a.body).expect("decodes");
        assert_eq!(ok.outcome, OUTCOME_COMPLETED);
        assert_eq!(ok.payload, Some(Payload::Subsumes(true)));
        assert!(a.spend.steps > 0);
        assert_eq!(a.served, SERVED_PROVER);

        let req = Request::Subsumes {
            snapshot: "vehicles".into(),
            sub: "motorvehicle".into(),
            sup: "car".into(),
        };
        let r = execute(&s, &req, &Budget::unlimited());
        let ok = decode_ok_body(Op::Subsumes, &r.body).expect("decodes");
        assert_eq!(ok.payload, Some(Payload::Subsumes(false)));
    }

    #[test]
    fn unknown_snapshot_is_a_typed_protocol_error() {
        let s = store();
        let r = execute(
            &s,
            &Request::Classify {
                snapshot: "missing".into(),
            },
            &Budget::unlimited(),
        );
        assert_eq!(r.status, STATUS_PROTOCOL_ERROR);
        let (code, msg) = wire::decode_protocol_error(&r.body).expect("typed");
        assert_eq!(code, ProtoError::UnknownSnapshot(String::new()).code());
        assert!(msg.contains("missing"));
    }

    #[test]
    fn classify_under_starved_budget_reports_exhaustion() {
        let s = store();
        let req = Request::Classify {
            snapshot: "vehicles".into(),
        };
        let full = execute(&s, &req, &Budget::unlimited());
        let ok = decode_ok_body(Op::Classify, &full.body).expect("decodes");
        assert_eq!(ok.outcome, OUTCOME_COMPLETED);
        let Some(Payload::Hierarchy(rows)) = ok.payload else {
            panic!("hierarchy payload");
        };
        assert!(rows
            .iter()
            .any(|(c, subs)| c == "car" && subs.iter().any(|s| s == "motorvehicle")));

        let starved = execute(&s, &req, &Budget::new().with_steps(3));
        assert_eq!(starved.status, STATUS_OK);
        let ok = decode_ok_body(Op::Classify, &starved.body).expect("decodes");
        assert_eq!(ok.outcome, OUTCOME_EXHAUSTED);
        assert_eq!(ok.reason, REASON_STEPS);
    }

    #[test]
    fn realize_round_trips_beetle() {
        let s = store();
        let req = Request::Realize {
            snapshot: "vehicles".into(),
            abox: "# beetle\nbeetle : car\n".into(),
        };
        let r = execute(&s, &req, &Budget::unlimited());
        assert_eq!(r.status, STATUS_OK);
        let ok = decode_ok_body(Op::Realize, &r.body).expect("decodes");
        let Some(Payload::Realization(rows)) = ok.payload else {
            panic!("realization payload");
        };
        assert_eq!(rows.len(), 1);
        let (name, types, most) = &rows[0];
        assert_eq!(name, "beetle");
        assert!(types.iter().any(|t| t == "motorvehicle"));
        assert_eq!(most, &vec!["car".to_string()]);
    }

    #[test]
    fn abox_parse_errors_are_typed_and_deterministic() {
        let s = store();
        let req = Request::Realize {
            snapshot: "vehicles".into(),
            abox: "beetle : some uses".into(),
        };
        let a = execute(&s, &req, &Budget::unlimited());
        let b = execute(&s, &req, &Budget::unlimited());
        assert_eq!(a.status, STATUS_PROTOCOL_ERROR);
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn admit_and_critique_agree_on_verdicts() {
        let s = store();
        let crit = execute(&s, &Request::Critique, &Budget::unlimited());
        let ok = decode_ok_body(Op::Critique, &crit.body).expect("decodes");
        let Some(Payload::Matrix { definitions, rows }) = ok.payload else {
            panic!("matrix payload");
        };
        assert!(!definitions.is_empty() && !rows.is_empty());
        // Each admit answer must match the matrix cell.
        let (artifact, cells) = &rows[0];
        for (d, (code, reason)) in definitions.iter().zip(cells) {
            let one = execute(
                &s,
                &Request::Admit {
                    artifact: artifact.clone(),
                    definition: d.clone(),
                },
                &Budget::unlimited(),
            );
            let ok = decode_ok_body(Op::Admit, &one.body).expect("decodes");
            assert_eq!(
                ok.payload,
                Some(Payload::Judgment {
                    verdict: *code,
                    reason: reason.clone()
                })
            );
        }
    }

    #[test]
    fn warm_subsumes_answers_from_the_index_with_identical_body() {
        let s = store();
        let req = Request::Subsumes {
            snapshot: "vehicles".into(),
            sub: "car".into(),
            sup: "motorvehicle".into(),
        };
        let cold = execute(&s, &req, &Budget::unlimited());
        let warm = execute_warm(&s, &req, &Budget::unlimited());
        assert_eq!(warm.body, cold.body, "byte-identical warm vs cold");
        assert_eq!(warm.epoch, cold.epoch);
        assert_eq!(warm.served, SERVED_INDEX);
        assert_eq!(warm.spend.steps, 1, "index answers charge one step");
        assert!(cold.spend.steps > warm.spend.steps);
    }

    #[test]
    fn warm_complex_queries_fall_through_to_the_shared_cache() {
        let s = store();
        let req = Request::Subsumes {
            snapshot: "vehicles".into(),
            sub: "car".into(),
            sup: "some uses.gasoline".into(),
        };
        let cold = execute(&s, &req, &Budget::unlimited());
        let warm = execute_warm(&s, &req, &Budget::unlimited());
        assert_eq!(warm.body, cold.body);
        assert_eq!(warm.served, SERVED_CACHE);
        // The same complex query a second time rides the shared cache.
        let again = execute_warm(&s, &req, &Budget::unlimited());
        assert_eq!(again.body, cold.body);
        assert!(again.spend.cache_hits > 0, "epoch-shared cache warmed");
    }

    #[test]
    fn warm_classify_and_realize_match_cold_bodies() {
        let s = store();
        // A TBox with no atoms warms to a 0-atom, 0-word index.
        let empty = s.install_axioms("empty", "").expect("parses");
        let warm = empty.warm.as_ref().expect("the empty TBox warms");
        assert_eq!(warm.index.len(), 0);
        for req in [
            Request::Classify {
                snapshot: "vehicles".into(),
            },
            Request::Realize {
                snapshot: "vehicles".into(),
                abox: "beetle : car\n".into(),
            },
            Request::Classify {
                snapshot: "empty".into(),
            },
            Request::Realize {
                snapshot: "empty".into(),
                abox: "beetle : car\n".into(),
            },
        ] {
            let cold = execute(&s, &req, &Budget::unlimited());
            let warm = execute_warm(&s, &req, &Budget::unlimited());
            assert_eq!(warm.body, cold.body, "{req:?}");
            assert_eq!(warm.status, cold.status);
            assert_ne!(warm.served, SERVED_PROVER);
        }
    }

    #[test]
    fn warm_falls_back_cold_for_unknown_snapshots_and_other_ops() {
        let s = store();
        let missing = Request::Subsumes {
            snapshot: "missing".into(),
            sub: "car".into(),
            sup: "vehicle".into(),
        };
        let r = execute_warm(&s, &missing, &Budget::unlimited());
        assert_eq!(r.status, STATUS_PROTOCOL_ERROR);
        let ping = execute_warm(&s, &Request::Ping, &Budget::unlimited());
        assert_eq!(ping, execute(&s, &Request::Ping, &Budget::unlimited()));
        assert_eq!(ping.served, SERVED_PROVER);
    }

    #[test]
    fn load_snapshot_installs_and_reports_fingerprint() {
        let s = store();
        let r = execute(
            &s,
            &Request::LoadSnapshot {
                name: "toy".into(),
                axioms: "dog < animal".into(),
            },
            &Budget::unlimited(),
        );
        assert_eq!(r.status, STATUS_OK);
        assert!(r.epoch > 3, "epoch bumped past builtins");
        let ok = decode_ok_body(Op::LoadSnapshot, &r.body).expect("decodes");
        let Some(Payload::SnapshotInstalled { name, atoms, .. }) = ok.payload else {
            panic!("install payload");
        };
        assert_eq!((name.as_str(), atoms), ("toy", 2));
        assert!(s.get("toy").is_some());
    }
}
