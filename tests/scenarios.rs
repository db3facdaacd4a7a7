//! Figure-5 shape regression: a quick run of the three §5.2 scenarios
//! asserting the paper's qualitative result stays true —
//! `S_A` fastest, `S_B ≈ S_C`, zero failures.

use datablinder::netsim::LatencyModel;
use datablinder::workload::runner::{run_three_scenarios, OpKind, ScenarioSpec};

fn spec() -> ScenarioSpec {
    ScenarioSpec { workers: 4, requests: 400, patient_pool: 16, ..ScenarioSpec::default() }
}

#[test]
fn figure5_shape_holds() {
    let [sa, sb, sc] = run_three_scenarios(spec(), LatencyModel::instant());

    for r in [&sa, &sb, &sc] {
        assert_eq!(r.failed, 0, "{}: no request may fail", r.label);
        assert_eq!(r.completed, 400, "{}", r.label);
    }

    // The paper's ordering: plaintext beats both protected scenarios.
    assert!(
        sa.throughput() > sb.throughput() && sa.throughput() > sc.throughput(),
        "S_A must be fastest: {:.0} vs {:.0} vs {:.0}",
        sa.throughput(),
        sb.throughput(),
        sc.throughput()
    );
    // Middleware overhead is small relative to tactic cost. Generous bound
    // (paper: 1.4%) to keep the test robust on noisy machines and in
    // unoptimized debug builds.
    assert!(
        sc.throughput() > sb.throughput() * 0.5,
        "middleware must not collapse throughput: S_B {:.0} vs S_C {:.0}",
        sb.throughput(),
        sc.throughput()
    );

    // Every operation class was exercised in every scenario.
    for r in [&sa, &sb, &sc] {
        for op in [OpKind::Insert, OpKind::Search, OpKind::Aggregate] {
            assert!(r.op_throughput(op) > 0.0, "{}: {op:?} missing", r.label);
        }
    }
}
