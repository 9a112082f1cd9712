//! A long prover request for the serving tests.

/// An unsatisfiable propositional concept the prover refutes only by
/// search: the pigeonhole principle for 5 pigeons in 4 holes, times two
/// free choices that double the search twice (~0.5 s of tableau work).
pub fn pigeonhole_concept() -> String {
    const HOLES: usize = 4;
    let mut parts = vec!["(a0 | b0)".to_string(), "(a1 | b1)".to_string()];
    for i in 0..=HOLES {
        let holes: Vec<String> = (0..HOLES).map(|j| format!("p{i}h{j}")).collect();
        parts.push(format!("({})", holes.join(" | ")));
    }
    for j in 0..HOLES {
        for i in 0..=HOLES {
            for k in (i + 1)..=HOLES {
                parts.push(format!("(~p{i}h{j} | ~p{k}h{j})"));
            }
        }
    }
    parts.join(" & ")
}
