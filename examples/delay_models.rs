//! Tour of the delay-analysis stack on one non-tree routing: Elmore
//! moments and provable bounds, the D2M estimate and transient
//! simulation — and how they all relate.
//!
//! Run with: `cargo run --release --example delay_models`

use non_tree_routing::circuit::{extract, ExtractOptions, Technology};
use non_tree_routing::core::{ldrg_with, LdrgOptions, TransientOracle};
use non_tree_routing::ert::steiner_elmore_routing_tree;
use non_tree_routing::geom::{Layout, NetGenerator};
use non_tree_routing::spice::{sink_delays, Moments, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = NetGenerator::new(Layout::date94(), 77).random_net(12)?;
    let tech = Technology::date94();

    // Start from the SERT (Steiner Elmore Routing Tree) and add non-tree
    // wires on top — the strongest construction in the workspace.
    let sert = steiner_elmore_routing_tree(&net, &tech);
    let routed = ldrg_with(&sert, &TransientOracle::fast(tech), &LdrgOptions::default())?;
    println!(
        "SERT + LDRG: {} Steiner node(s), {} extra wire(s), cost {:.0} um",
        routed.graph.node_count() - routed.graph.pin_count(),
        routed.iterations.len(),
        routed.graph.total_cost()
    );

    let extracted = extract(&routed.graph, &tech, &ExtractOptions::default())?;
    let moments = Moments::compute(&extracted.circuit, 2)?;
    let simulated = sink_delays(&extracted, &SimConfig::default())?;

    println!("\nper-sink delay analysis (ns), 50% threshold:");
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "sink", "lower", "simulated", "upper", "elmore", "d2m"
    );
    for (i, &node) in extracted.sink_nodes.iter().enumerate() {
        let lower = moments.threshold_lower_bound(node, 0.5)?;
        let upper = moments.threshold_upper_bound(node, 0.5)?;
        let elmore = moments.elmore_of_node(node)?;
        let d2m = moments.d2m_of_node(node)?;
        let sim = simulated[i];
        assert!(
            lower <= sim * 1.01 && sim <= upper * 1.01,
            "bounds must bracket"
        );
        println!(
            "{:>5} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            format!("n{}", i + 1),
            lower * 1e9,
            sim * 1e9,
            upper * 1e9,
            elmore * 1e9,
            d2m * 1e9
        );
    }

    Ok(())
}
