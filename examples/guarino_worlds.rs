//! E1/E2 — Guarino's intensional relations on the paper's blocks
//! world (structures (1)–(3)), and the circularity of the
//! construction.
//!
//! ```text
//! cargo run --example guarino_worlds
//! ```

use summa_core::substrates::intensional::prelude::*;

fn main() {
    // Four blocks a, b, c, d.
    let mut dom = Domain::new();
    let a = dom.elem("a");
    let b = dom.elem("b");
    let c = dom.elem("c");
    let d = dom.elem("d");

    // Structure (1): the world where [above] = {(a,b),(a,d),(b,d)}.
    let mut w0 = BlocksWorld::new();
    w0.place(a, 0, 2);
    w0.place(b, 0, 1);
    w0.place(d, 0, 0);
    w0.place(c, 1, 0);
    // A second world where b is above a instead.
    let mut w1 = BlocksWorld::new();
    w1.place(b, 0, 1);
    w1.place(a, 0, 0);
    let space = WorldSpace::structured(vec![w0, w1]);

    let above = IntensionalRelation::aboveness("above", &dom, &space)
        .expect("structured worlds admit rules");
    println!("Structure (2): [above] : W → 2^(D²)\n");
    for i in 0..space.len() {
        println!(
            "  [above](w{i}) = {}",
            above.at(i).expect("world exists").render(&dom)
        );
    }
    println!(
        "\nrigid: {}; distinct extensions across worlds: {}\n",
        above.is_rigid(),
        above.n_distinct_extensions()
    );

    // The circularity: try the same construction over worlds with no
    // structure.
    println!("Attempting the same over opaque worlds (no structure):");
    let opaque = WorldSpace::opaque(2);
    match IntensionalRelation::aboveness("above", &dom, &opaque) {
        Err(e) => println!("  error: {e}"),
        Ok(_) => println!("  unexpectedly succeeded"),
    }
    println!();

    // The dependency analysis.
    let guarino = DependencyGraph::guarino();
    println!(
        "The dependency graph of Guarino's construction:\n{}",
        guarino.render()
    );
    match guarino.analyze().cycle {
        Some(cycle) => {
            let names: Vec<&str> = cycle.iter().map(|n| n.name()).collect();
            println!("definitional cycle: {}", names.join(" → "));
        }
        None => println!("no cycle found (unexpected)"),
    }
    println!();

    let repaired = DependencyGraph::guarino_with_primitive_worlds();
    println!("With primitive world state:\n{}", repaired.render());
    match repaired.analyze().topological_order {
        Some(order) => {
            let names: Vec<&str> = order.iter().map(|n| n.name()).collect();
            println!("acyclic; definitional order: {}", names.join(" → "));
            println!(
                "\nThe cycle breaks only by making world structure primitive — i.e. \
                 extensional facts come first, so intensional relations cannot be \
                 what *defines* them. \"Whatever they are, they are not a function \
                 from worlds to extensional relations, as the model requires.\""
            );
        }
        None => println!("unexpected cycle"),
    }

    // How fast the world space grows: the paper's 'legal
    // configurations' made concrete.
    println!("\nWorld-space sizes (n blocks on a 2×3 grid):");
    let blocks = [a, b, c, d];
    for n in 1..=4 {
        let ws = WorldSpace::enumerate_blocks(&blocks[..n], 2, 3);
        println!("  {n} blocks: {} legal worlds", ws.len());
    }

    // Husserl: designation ≠ signification.
    println!("\n== Husserl: the winner at Jena / the loser at Waterloo ==\n");
    let (hdom, worlds, winner, loser) = husserl_example();
    let report =
        compare_descriptions(&hdom, &worlds, 0, &winner, &loser).expect("valid actual world");
    let name = |e: Option<Elem>| match e {
        Some(e) => hdom.name(e).to_string(),
        None => "(none)".to_string(),
    };
    println!(
        "  designatum of '{}' in the actual world: {}",
        winner.name,
        name(report.actual_designata.0)
    );
    println!(
        "  designatum of '{}' in the actual world: {}",
        loser.name,
        name(report.actual_designata.1)
    );
    println!("  co-designate:        {}", report.co_designate);
    println!("  same signification:  {}", report.same_signification);
    println!(
        "\n\"Designation is a relation between a linguistic plane and an \
         extra-linguistic one, but signification is a purely linguistic relation.\""
    );
}
