//! Print the paper's figures by name: `figures <name>…`, each name one of
//! `xprs_bench::figures::FIGURES`. An unknown name prints nothing and
//! exits 1, listing the known names.

use std::process::ExitCode;

use xprs_bench::figures::{figure, FIGURES};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let prints: Vec<Option<fn()>> = names.iter().map(|name| figure(name)).collect();
    if names.is_empty() || prints.iter().any(Option::is_none) {
        for (name, _) in names.iter().zip(&prints).filter(|(_, print)| print.is_none()) {
            eprintln!("figures: no figure named `{name}`");
        }
        let known: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
        eprintln!("usage: figures <name>…, where a name is one of: {}", known.join(", "));
        return ExitCode::FAILURE;
    }
    prints.into_iter().flatten().for_each(|print| print());
    ExitCode::SUCCESS
}
