//! `gridbench` command line. See `README.md`; `run.sh` builds and then
//! executes this with its arguments unchanged.

use std::process::{Command, ExitCode};

use gridbench::harness::{self, Config, Length, Sabotage};
use gridbench::ledger;
use gridbench::workloads::NAMES;

const USAGE: &str = "\
usage: gridbench [--workload NAME] [--seed N] [--seconds S | --slices N]
                 [--trace 0|1] [--json-out PATH] [--sabotage KIND]

  --workload   establish_storm | vo_flows | ogsa_request | gram_submit | bulk_xfer
               (default: all five, each in its own child process)
  --seed       inputs are a pure function of it (default 1; 0x.. accepted)
  --seconds    measure for this long, in slices of fixed work (default 20)
  --slices     run exactly this many slices in each of the five segments instead
  --trace 1    the per-layer ledger: probes plus traced slices of every
               workload (most of the time on the one named); spans go to
               benchmark/out/trace-<workload>.jsonl
  --json-out   also write the result as JSON (PATH gets a -<workload>
               suffix, and -ledger for traced runs, when all five run)
  --sabotage   self-test only: break the driver and expect a non-zero exit
";

/// `benchmark/out`, wherever the checkout this binary was built in is.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<String>,
    seed: u64,
    length: Length,
    trace: bool,
    json_out: Option<String>,
    sabotage: Option<Sabotage>,
}

fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        length: Length::Seconds(20.0),
        trace: false,
        json_out: None,
        sabotage: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !NAMES.contains(&value.as_str()) {
                    return Err(bad());
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                args.length = Length::Seconds(s);
            }
            "--slices" => {
                args.length = Length::Slices(value.parse().ok().filter(|n| *n > 0).ok_or_else(bad)?)
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--json-out" => args.json_out = Some(value),
            "--sabotage" => args.sabotage = Some(Sabotage::parse(&value).ok_or_else(bad)?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn write_json(path: &str, body: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))
}

/// One workload, in this process. The result line is printed last.
fn one(args: &Args, name: &str) -> Result<bool, String> {
    let cfg = Config {
        seed: args.seed,
        sabotage: args.sabotage,
    };
    if args.trace {
        let Length::Seconds(seconds) = args.length else {
            return Err("--slices applies to untraced runs; a traced run takes --seconds".into());
        };
        let report = ledger::run(&cfg, name, seconds);
        print!("{}", report.render());
        for (workload, jsonl) in report.traces() {
            write_json(&format!("{OUT_DIR}/trace-{workload}.jsonl"), jsonl)?;
        }
        if let Some(path) = &args.json_out {
            write_json(path, &report.to_json())?;
        }
        println!("{}", report.contract_line());
        return Ok(report.correct);
    }
    let result = gridbench::with_workload!(name, W => harness::run::<W>(&cfg, args.length));
    print!("{}", result.render());
    if let Some(path) = &args.json_out {
        write_json(path, &result.to_json())?;
    }
    println!(
        "{}",
        harness::contract_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    Ok(result.correct)
}

/// Every workload, each in its own child process (so `peak_rss_mib` is
/// the workload's own); with `--trace 1` a traced run of each follows.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut passes: Vec<(&str, bool)> = NAMES.iter().map(|n| (*n, false)).collect();
    if args.trace {
        passes.extend(NAMES.iter().map(|n| (*n, true)));
    }
    let mut correct = true;
    for (name, trace) in passes {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
        cmd.args(["--trace", if trace { "1" } else { "0" }]);
        match args.length {
            Length::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
            Length::Slices(n) => cmd.args(["--slices", &n.to_string()]),
        };
        if let Some(path) = &args.json_out {
            let kind = if trace { "-ledger" } else { "" };
            cmd.args(["--json-out", &format!("{path}-{name}{kind}")]);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        correct &= status.success();
    }
    println!("{}", ledger::PREDICTIONS);
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("gridbench: {e}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => one(&args, name),
        None => all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("gridbench: {e}");
            ExitCode::from(1)
        }
    }
}
