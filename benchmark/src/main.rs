//! Wall-clock benchmark of the protocol path (`core` host/proxy over the
//! `rdma` fabric over `simnet`, plus reliable link, CRC and observers).
//!
//! ```text
//! proto-bench --workload W --seed N --seconds S --trace 0|1   one workload, the driver's JSON line
//! proto-bench run [--seed N] [--seconds S] [--quick] [--traced]   every workload, tables, results/*.json
//! proto-bench selfcheck [--seed N] [--seconds S] [--quick]   the full set twice, compared (A/A)
//! ```
//!
//! Every measurement runs in a child of this binary pinned to one CPU
//! (`child`, internal). See `README.md` for the metrics and workloads.

mod child;
mod layers;
mod parent;
mod run;
mod spec;
mod stats;
#[cfg(test)]
mod tests;
mod trace;

use std::process::ExitCode;

/// Measuring time per run when `--seconds` is not given; `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

struct Cli {
    command: String,
    workload: Option<&'static spec::Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    traced_only: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::new(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        traced_only: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} wants a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = Some(spec::find(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed wants a whole number")?;
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds wants a positive number")?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                };
            }
            "--quick" => cli.quick = true,
            "--traced" => cli.traced_only = true,
            "run" | "selfcheck" | "child" if cli.command.is_empty() => cli.command = arg.clone(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.command.is_empty() {
        cli.command = if cli.workload.is_some() { "one" } else { "run" }.into();
    }
    Ok(cli)
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    let one = |what: &str| {
        cli.workload
            .ok_or(format!("{what} wants --workload"))
            .map(|workload| child::Job {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace: cli.trace,
                quick: cli.quick,
            })
    };
    match cli.command.as_str() {
        "child" => {
            println!("{}", child::run(&one("child")?)?.render());
            Ok(true)
        }
        "one" => parent::contract(&one("a single run")?).map(|()| true),
        "selfcheck" => parent::selfcheck(cli.seed, cli.seconds, cli.quick),
        _ => parent::full(cli.seed, cli.seconds, cli.quick, cli.traced_only),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
