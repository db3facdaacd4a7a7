//! Regenerates **Table 2**: the tactic inventory — scheme, protection
//! class, leakage, SPI interface counts — from *live registry
//! introspection*, so the table is guaranteed to match the running code.
//!
//! ```sh
//! cargo run --example table2_tactics
//! ```

use datablinder::core::model::{AggFn, FieldOp};
use datablinder::core::registry::TacticRegistry;

/// The paper's Table 2 rows for comparison: (operation, scheme name,
/// class, leakage, gateway ifaces, cloud ifaces, challenge).
const PAPER: &[(&str, &str, &str, &str, u8, u8, &str)] = &[
    ("Equality Search", "det", "4", "Equalities", 9, 6, "-"),
    ("Equality Search", "mitra", "2", "Identifiers", 7, 5, "Local storage"),
    ("Equality Search", "sophos", "2", "Identifiers", 6, 4, "Key management"),
    ("Equality Search", "rnd", "1", "Structure", 6, 4, "Inefficiency"),
    ("Boolean Search", "biex-2lev", "3", "Predicate", 8, 5, "Storage impl. complexity"),
    ("Boolean Search", "biex-zmf", "3", "Predicate", 8, 5, "Storage impl. complexity"),
    ("Range Query", "ope", "5", "Order", 3, 3, "-"),
    ("Range Query", "ore", "5", "Order", 3, 3, "-"),
    ("Sum", "paillier", "-", "-", 3, 3, "Key management"),
    ("Average", "paillier", "-", "-", 3, 3, "Key management"),
];

fn primary_op(registry: &TacticRegistry, name: &str) -> &'static str {
    let d = registry.descriptor(name).expect("registered");
    if d.serves_agg.contains(&AggFn::Avg) {
        "Sum/Average"
    } else if d.serves_op(FieldOp::Range) {
        "Range Query"
    } else if d.serves_op(FieldOp::Boolean) && name.starts_with("biex") {
        "Boolean Search"
    } else {
        "Equality Search"
    }
}

fn main() {
    let registry = TacticRegistry::with_builtins();

    println!("Table 2 — implemented & integrated cryptographic constructions (live registry)");
    println!("{:-<105}", "");
    println!(
        "{:<16} {:<12} {:<8} {:<12} {:>8} {:>7}  {:<20} Family",
        "Operation", "Scheme", "Class", "Leakage", "GW SPI", "Cloud", "State"
    );
    println!("{:-<105}", "");
    for d in registry.descriptors() {
        let class = if d.serves_agg.is_empty() { format!("{}", d.protection_class() as u8) } else { "-".into() };
        let leakage = if d.serves_agg.is_empty() { d.worst_leakage().to_string() } else { "-".into() };
        println!(
            "{:<16} {:<12} {:<8} {:<12} {:>8} {:>7}  {:<20} {}",
            primary_op(&registry, &d.name),
            d.name,
            class,
            leakage,
            d.gateway_interfaces,
            d.cloud_interfaces,
            if d.gateway_state { "gateway state" } else { "stateless" },
            d.family,
        );
    }
    println!("{:-<105}", "");

    // Cross-check against the published table.
    println!("\ncross-check vs the paper's Table 2:");
    let mut mismatches = 0;
    for (_, name, class, leakage, gw, cloud, challenge) in PAPER {
        let Some(d) = registry.descriptor(name) else {
            println!("  MISSING {name}");
            mismatches += 1;
            continue;
        };
        let got_class = if d.serves_agg.is_empty() { format!("{}", d.protection_class() as u8) } else { "-".into() };
        let got_leak = if d.serves_agg.is_empty() { d.worst_leakage().to_string() } else { "-".into() };
        let class_ok = got_class == *class;
        // Leakage names differ slightly ("Predicate" vs "Predicates").
        let leak_ok = got_leak.starts_with(leakage.trim_end_matches('s')) || got_leak == *leakage;
        let iface_ok = d.gateway_interfaces == *gw && d.cloud_interfaces == *cloud;
        let status = if class_ok && leak_ok && iface_ok { "ok" } else { "MISMATCH" };
        if status != "ok" {
            mismatches += 1;
        }
        println!(
            "  {name:<12} class {got_class} (paper {class}), leakage {got_leak} (paper {leakage}), \
             SPI {}/{} (paper {gw}/{cloud}), challenge: {challenge}  [{status}]",
            d.gateway_interfaces, d.cloud_interfaces
        );
    }
    if mismatches == 0 {
        println!("\nall rows match the published table");
    } else {
        println!("\n{mismatches} mismatching row(s)");
        std::process::exit(1);
    }
}
