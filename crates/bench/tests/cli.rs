//! Every bench bin refuses a command line it cannot parse: exit code 2
//! and its usage line on stderr, before any simulation runs. A garbage
//! seed must never run the default seed.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    #[expect(
        clippy::disallowed_methods,
        reason = "the test drives the built binaries themselves: their exit code is what it checks"
    )]
    let mut cmd = Command::new(bin);
    cmd.args(args).output().expect("the binary runs")
}

#[test]
fn every_bin_exits_2_on_a_command_line_it_cannot_parse() {
    let cases: [(&str, &[&str]); 15] = [
        (env!("CARGO_BIN_EXE_fault_matrix"), &["--seeds", "many"]),
        (
            env!("CARGO_BIN_EXE_fault_matrix"),
            &["--trial", "guardian_crash/nowhere"],
        ),
        (env!("CARGO_BIN_EXE_fig2"), &["seed"]),
        (env!("CARGO_BIN_EXE_fig2"), &["--thread", "2"]),
        (env!("CARGO_BIN_EXE_fig3"), &["2018", "many"]),
        (env!("CARGO_BIN_EXE_fig4"), &["2018", "2", "extra"]),
        (env!("CARGO_BIN_EXE_guardian_deploy"), &["three"]),
        (env!("CARGO_BIN_EXE_ablation_retry"), &["seed"]),
        (env!("CARGO_BIN_EXE_ablation_checkpoint"), &["seed"]),
        (env!("CARGO_BIN_EXE_ablation_status_path"), &["seed"]),
        (env!("CARGO_BIN_EXE_ablation_overhead"), &["seed"]),
        (
            env!("CARGO_BIN_EXE_ablation_detection"),
            &["--smoke", "seed"],
        ),
        (env!("CARGO_BIN_EXE_engine_bench"), &["--events", "lots"]),
        (env!("CARGO_BIN_EXE_soak"), &["uniform", "seed"]),
        (env!("CARGO_BIN_EXE_extended_predictions"), &["v100"]),
    ];
    for (bin, args) in cases {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
    }
}
