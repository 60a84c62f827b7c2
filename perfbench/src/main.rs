//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run context and every metric by name, unit and sample count,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A traced run also writes its span file to
//! `perfbench/out/spans-<workload>-<seed>.json`.

use std::process::ExitCode;

use perfbench::{result_json, run, Options};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for (k, v) in &outcome.context {
        println!("context {k} = {v}");
    }
    for m in &outcome.metrics {
        let idle = if m.active {
            ""
        } else {
            "  (layer idle on this workload)"
        };
        println!(
            "metric {} = {} {} (samples {}){idle}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in &outcome.failures {
        println!("failed: {f}");
    }
    println!("failed share = {}/{}", outcome.failed, outcome.attempted);
    if let Some(doc) = &outcome.spans_json {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{}-{}.json", opts.workload, opts.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
