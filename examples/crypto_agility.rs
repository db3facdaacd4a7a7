//! Crypto agility — the paper's headline property: "the ability to plug
//! and play cryptographic schemes depending on their evolution in time".
//!
//! Three demonstrations:
//!
//! 1. **Deprecation**: a leakage-abuse attack is published against the
//!    class-2 workhorse (Mitra); the operator deprecates it and new fields
//!    transparently select the next admissible tactic (Sophos) — no
//!    application change.
//! 2. **Custom tactic registration**: a security team plugs in its own
//!    tactic through the SPI; selection picks it up purely from its
//!    descriptor.
//! 3. **Key rotation**: the KMS rotates a field's key; old ciphertexts
//!    remain decryptable via versioned keys while new data uses the new key.
//!
//! ```sh
//! cargo run --example crypto_agility
//! ```

use datablinder::core::cloud::CloudEngine;
use datablinder::core::gateway::GatewayEngine;
use datablinder::core::model::*;
use datablinder::core::registry::TacticRegistry;
use datablinder::core::tactics::rnd::RndTactic;
use datablinder::docstore::{Document, Value};
use datablinder::kms::{KeyScope, Kms};
use datablinder::netsim::{Channel, LatencyModel};
use rand::SeedableRng;

fn schema() -> Schema {
    Schema::new("records").sensitive_field(
        "owner",
        FieldType::Text,
        true,
        FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);

    // ---------------------------------------------------------------- (1)
    println!("1) tactic deprecation");
    let mut registry = TacticRegistry::with_builtins();
    let before = registry.select("owner", &FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Equality]))?;
    println!("   before: class-2 equality -> {:?}", before.search_tactics);

    registry.deprecate("mitra"); // the hypothetical break
    let after = registry.select("owner", &FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Equality]))?;
    println!("   after deprecating mitra   -> {:?}", after.search_tactics);
    assert_eq!(after.search_tactics, vec!["sophos"]);

    // The application keeps working against the re-routed registry.
    let kms = Kms::generate(&mut rng);
    let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
    let gateway = GatewayEngine::with_registry("agile", kms.clone(), channel, 11, registry);
    gateway.register_schema(schema())?;
    gateway.insert("records", &Document::new("x").with("owner", Value::from("dana")))?;
    let hits = gateway.find_equal("records", "owner", &Value::from("dana"))?;
    println!("   search through the replacement tactic: {} hit(s)", hits.len());
    assert_eq!(hits.len(), 1);

    // ---------------------------------------------------------------- (2)
    println!("\n2) custom tactic via the SPI");
    let mut registry = TacticRegistry::with_builtins();
    let custom = TacticDescriptor {
        name: "acme-seal".into(),
        family: "proprietary sealed storage".into(),
        operations: vec![OpProfile {
            op: TacticOp::Update,
            leakage: LeakageLevel::Structure,
            metrics: PerfMetrics::new(1, 1, 1),
        }],
        serves: vec![FieldOp::Insert],
        serves_agg: vec![],
        gateway_interfaces: 3,
        cloud_interfaces: 2,
        gateway_state: false,
    };
    // The demo reuses RND's implementation under the custom descriptor;
    // a real provider would ship its own GatewayTactic/CloudTactic pair.
    registry.register(custom, Box::new(|ctx, _| Ok(Box::new(RndTactic::build(ctx)?))));
    println!(
        "   registry now knows {} tactics, including {:?}",
        registry.descriptors().len(),
        registry.descriptor("acme-seal").map(|d| &d.name)
    );
    assert!(registry.descriptor("acme-seal").is_some());

    // ---------------------------------------------------------------- (3)
    println!("\n3) key rotation through the KMS");
    let scope = KeyScope::new("agile", "records.owner", "rnd");
    let v0 = kms.current_version(&scope);
    let k0 = kms.key_for(&scope);
    let new_version = kms.rotate(&scope);
    let k1 = kms.key_for(&scope);
    println!("   rotated {scope:?}: version {v0} -> {new_version}");
    assert_ne!(k0, k1);
    // Historical ciphertexts stay recoverable through versioned keys.
    assert_eq!(kms.key_for_version(&scope, v0), k0);
    println!("   old-version key still derivable for re-encryption jobs");

    Ok(())
}
