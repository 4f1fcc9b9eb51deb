//! Measures the §III-d claim: "Creation of the Guardian is a very quick
//! (less than 3s in our experiments) single step process."
//!
//! Usage: `cargo run -p dlaas-bench --bin guardian_deploy [trials]`

use dlaas_bench::cli;
use dlaas_bench::fig4::guardian_creation_time;
use dlaas_faults::RecoveryStats;

const USAGE: &str = "usage: guardian_deploy [trials]";

fn main() {
    let trials: u64 = cli::parse_or_exit(USAGE, |a| Ok(a.positional("trials")?.unwrap_or(10)));
    let mut stats = RecoveryStats::new();
    for seed in 0..trials {
        stats.push(guardian_creation_time(1000 + seed));
    }
    println!("Guardian creation time (submit ACK -> guardian container running)");
    println!("  trials:   {trials}");
    println!("  measured: {}", stats.range_secs());
    println!("  mean:     {:.2}s", stats.mean().unwrap().as_secs_f64());
    println!("  paper:    < 3s");
    assert!(
        stats.max().unwrap() < dlaas_sim::SimDuration::from_secs(3),
        "claim violated"
    );
}
