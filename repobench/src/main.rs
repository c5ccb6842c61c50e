//! `repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints provenance, operation counts, check failures and supporting
//! figures, then, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones).

use repobench::{report, select, Params, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: repobench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Params, String> {
    let mut p =
        Params { workload: String::new(), seed: 1, seconds: 10.0, trace: false, smoke: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => p.workload = value.clone(),
            "--seed" => p.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => p.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => p.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&p.workload.as_str()) {
        return Err(format!("unknown workload {:?}", p.workload));
    }
    if !(p.seconds.is_finite() && p.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(p)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let p = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out = repobench::run(&p);
    println!("provenance {}", report::fields_json(&out.provenance));
    for (phase, ops) in &out.phases {
        println!(
            "ops {phase}: attempted {} succeeded {} failed {}",
            ops.attempted, ops.succeeded, ops.failed
        );
    }
    for m in &out.notes.0 {
        println!("note {} = {} {}", m.name, report::num(m.value), m.unit);
    }
    for failure in &out.check_failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    let metrics = if p.trace {
        select(&out.per_layer, &PER_LAYER)
    } else {
        select(&out.end_to_end, &END_TO_END)
    };
    if !p.trace {
        for m in &out.per_layer.0 {
            println!("note {} = {} {}", m.name, report::num(m.value), m.unit);
        }
    }
    let correct = out.check_failures.is_empty() && metrics.0.iter().all(|m| m.value.is_finite());
    println!("{}", report::result_line(correct, out.ops(), &metrics));
    ExitCode::SUCCESS
}
