//! Quickstart — Example 2.1 of the paper, end to end.
//!
//! "On an hourly basis, what fraction of the traffic is due to web
//! traffic?" — a single GMDJ over the Hours dimension and the Flow fact
//! table, reproducing Figure 1's input and output tables exactly, then
//! the same query on a generated warehouse.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gmdj_core::eval::Keep;
use gmdj_core::runtime::{PlanNodeStats, Runtime};
use gmdj_core::spec::{AggBlock, GmdjSpec};
use gmdj_datagen::netflow::{NetflowConfig, NetflowData};
use gmdj_relation::agg::NamedAgg;
use gmdj_relation::expr::{col, lit};
use gmdj_relation::ops;
use gmdj_relation::relation::{Relation, RelationBuilder};
use gmdj_relation::schema::DataType;

fn figure_1_hours() -> Relation {
    RelationBuilder::new("H")
        .column("HourDsc", DataType::Int)
        .column("StartInterval", DataType::Int)
        .column("EndInterval", DataType::Int)
        .row(vec![1.into(), 0.into(), 60.into()])
        .row(vec![2.into(), 61.into(), 120.into()])
        .row(vec![3.into(), 121.into(), 180.into()])
        .build()
        .unwrap()
}

fn figure_1_flows() -> Relation {
    RelationBuilder::new("F")
        .column("StartTime", DataType::Int)
        .column("Protocol", DataType::Str)
        .column("NumBytes", DataType::Int)
        .row(vec![43.into(), "HTTP".into(), 12.into()])
        .row(vec![86.into(), "HTTP".into(), 36.into()])
        .row(vec![99.into(), "FTP".into(), 48.into()])
        .row(vec![132.into(), "HTTP".into(), 24.into()])
        .row(vec![156.into(), "HTTP".into(), 24.into()])
        .row(vec![161.into(), "FTP".into(), 48.into()])
        .build()
        .unwrap()
}

/// The GMDJ of Example 2.1: two aggregate blocks over the same hour
/// bucketing, one restricted to HTTP.
fn example_2_1_spec() -> GmdjSpec {
    let in_hour = col("F.StartTime")
        .ge(col("H.StartInterval"))
        .and(col("F.StartTime").lt(col("H.EndInterval")));
    GmdjSpec::new(vec![
        AggBlock::new(
            in_hour.clone().and(col("F.Protocol").eq(lit("HTTP"))),
            vec![NamedAgg::sum(col("F.NumBytes"), "sum1")],
        ),
        AggBlock::new(in_hour, vec![NamedAgg::sum(col("F.NumBytes"), "sum2")]),
    ])
}

fn main() {
    // ---- Figure 1: the paper's worked example -------------------------
    let hours = figure_1_hours();
    let flows = figure_1_flows();
    println!("Input table Hours:\n{hours}");
    println!("Input table Flow:\n{flows}");

    // One entry point for every GMDJ: `Runtime::eval` under a policy
    // (here the default, sequential one).
    let runtime = Runtime::sequential();
    let mut node = PlanNodeStats::new("GMDJ");
    let gmdj = runtime
        .eval(
            &hours,
            &flows,
            &example_2_1_spec(),
            None,
            Keep::All,
            None,
            &mut node,
        )
        .expect("GMDJ evaluation");
    println!("GMDJ output (Figure 1, sums left unreduced):\n{gmdj}");

    let fractions = ops::project(
        &gmdj,
        &[
            (col("H.HourDsc"), Some("HourDsc".into())),
            (col("sum1").div(col("sum2")), Some("webFraction".into())),
        ],
    )
    .expect("projection");
    println!("π[HourDescription, sum1/sum2]:\n{fractions}");
    println!(
        "Detail tuples scanned: {} (one pass over Flow, {} partitions)\n",
        node.eval.detail_scanned, node.eval.partitions
    );

    // ---- The same query on a generated warehouse ----------------------
    let data = NetflowData::generate(&NetflowConfig::tiny(42));
    println!(
        "Generated warehouse: {} flows over {} hours",
        data.flow.len(),
        data.hours.len()
    );
    let mut node = PlanNodeStats::new("GMDJ");
    let out = runtime
        .eval(
            &data.hours.renamed("H"),
            &data.flow.renamed("F"),
            &example_2_1_spec(),
            None,
            Keep::All,
            None,
            &mut node,
        )
        .expect("GMDJ evaluation");
    let fractions = ops::project(
        &out,
        &[
            (col("H.HourDsc"), Some("hour".into())),
            (col("sum1").div(col("sum2")), Some("webFraction".into())),
        ],
    )
    .expect("projection");
    let rows = fractions.sorted_rows();
    println!("First hours of the generated day:");
    for row in rows.iter().take(6) {
        println!("  hour {:>2}: web fraction {}", row[0], row[1]);
    }
    println!(
        "\nSingle scan of the detail table: {} tuples, {} probe candidates.",
        node.eval.detail_scanned, node.eval.probe_candidates
    );
}
