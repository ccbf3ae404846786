//! Distributed evaluation — Section 6's closing claim, demonstrated.
//!
//! The Flow fact table is fragmented across the routers that produced it
//! (round-robin here); the coordinator broadcasts the Hours base table,
//! every site evaluates the GMDJ over its local flows, and the sites'
//! accumulator states merge exactly. Network traffic is independent of
//! the number of flows — only base tuples and aggregate states ever cross
//! the wire. The run asserts that every distributed answer equals the
//! central one.
//!
//! ```text
//! cargo run --release --example distributed_warehouse
//! ```

use gmdj_core::eval::Keep;
use gmdj_core::runtime::{ExecPolicy, PlanNodeStats, Runtime};
use gmdj_core::spec::{AggBlock, GmdjSpec};
use gmdj_datagen::netflow::{NetflowConfig, NetflowData};
use gmdj_relation::agg::NamedAgg;
use gmdj_relation::expr::{col, lit};

fn main() {
    // Example 2.1's spec: hourly HTTP bytes and total bytes (the fraction
    // is computed at the coordinator). Sites ship accumulator state, so
    // AVG or COUNT DISTINCT would distribute just as exactly.
    let in_hour = col("F.StartTime")
        .ge(col("H.StartInterval"))
        .and(col("F.StartTime").lt(col("H.EndInterval")));
    let spec = GmdjSpec::new(vec![
        AggBlock::new(
            in_hour.clone().and(col("F.Protocol").eq(lit("HTTP"))),
            vec![NamedAgg::sum(col("F.NumBytes"), "sum1")],
        ),
        AggBlock::new(in_hour, vec![NamedAgg::sum(col("F.NumBytes"), "sum2")]),
    ]);

    println!("Hourly web-traffic fraction, evaluated at the routers themselves\n");
    println!(
        "{:>10} {:>8} {:>14} {:>16} {:>16}",
        "flows", "sites", "messages", "values shipped", "matches central?"
    );
    for &(flows, sites) in &[
        (5_000usize, 4usize),
        (50_000, 4),
        (50_000, 16),
        (200_000, 16),
    ] {
        let data = NetflowData::generate(&NetflowConfig {
            hours: 24,
            flows,
            users: 40,
            source_ips: 60,
            seed: 1,
        });
        let hours = data.hours.renamed("H");
        let detail = data.flow.renamed("F");

        // The same entry point evaluates centrally and at the sites; only
        // the policy differs.
        let eval = |policy: ExecPolicy, node: &mut PlanNodeStats| {
            Runtime::new(policy).eval(&hours, &detail, &spec, None, Keep::All, None, node)
        };
        let mut node = PlanNodeStats::new("GMDJ");
        let dist = eval(ExecPolicy::distributed(sites), &mut node).expect("distributed evaluation");
        let net = node.network;
        let central = eval(ExecPolicy::sequential(), &mut PlanNodeStats::new("GMDJ"))
            .expect("central evaluation");
        let agree = dist.multiset_eq(&central);
        println!(
            "{:>10} {:>8} {:>14} {:>16} {:>16}",
            flows,
            sites,
            net.messages,
            net.total(),
            if agree { "yes" } else { "NO (bug!)" }
        );
        assert!(agree);
    }
    println!(
        "\nNote the traffic columns: they depend on |Hours| × sites only.\n\
         40× more flows cross zero additional network — the detail relation\n\
         never leaves its site, which is why the paper singles the GMDJ out\n\
         for distributed data warehouses."
    );
}
