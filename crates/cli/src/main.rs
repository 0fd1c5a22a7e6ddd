//! `paretofab` — the framework as a command-line middleware.
//!
//! ```text
//! paretofab gen       --preset rcv1 --scale 0.25 --seed 7 --out corpus.txt
//! paretofab partition --input corpus.txt --kind text --nodes 8 \
//!                     --strategy het-aware --workload patterns --support 0.1 \
//!                     --out parts/
//! paretofab run       --input corpus.txt --kind text --nodes 8 \
//!                     --strategy het-energy-aware --alpha 0.995 \
//!                     --workload patterns --support 0.1
//! ```
//!
//! `gen` writes a synthetic corpus in the plain-text loader format;
//! `partition` plans a placement and writes one file per partition plus a
//! plan summary; `run` additionally executes the workload on the simulated
//! heterogeneous cluster and prints makespan/dirty-energy/quality.

mod args;
mod bench;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(args::ParseError::Help(usage)) => {
            print!("{usage}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::usage(args::Subs::MAX));
            ExitCode::FAILURE
        }
    }
}
