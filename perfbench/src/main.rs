//! `perfbench`: one rep of one benchmark workload, in a fresh process.
//!
//! ```text
//! perfbench --workload NAME --seed N [--size full|tiny] [--trace-file PATH]
//! perfbench --connect SOCKET --name NAME      (sweep worker, spawned by daemon_sweep)
//! ```
//!
//! A rep prints one JSON object on its last stdout line: the rep's times,
//! cell count, simulated headline, output checks, the digest of its
//! timing-free outputs, its peak RSS and, with `--trace-file`, the
//! per-layer metrics (the spans go to the named file as JSONL). The
//! orchestrator `perfbench/run.py` repeats reps and reports medians.

mod replay;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::time::Instant;

use trace::Tracer;
use workloads::{Opts, Rep, LAYER_METRICS, WORKLOADS};

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    tiny: bool,
    trace_file: Option<String>,
    connect: Option<String>,
    name: Option<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args::default();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                out.seed = Some(v.parse().map_err(|_| format!("invalid --seed {v:?}"))?);
            }
            "--size" => match value()?.as_str() {
                "full" => out.tiny = false,
                "tiny" => out.tiny = true,
                other => return Err(format!("invalid --size {other:?} (full or tiny)")),
            },
            "--trace-file" => out.trace_file = Some(value()?),
            "--connect" => out.connect = Some(value()?),
            "--name" => out.name = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// Peak resident set of this process (MB), from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number, or `null` for a non-finite value.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn object<'a>(entries: impl Iterator<Item = (&'a str, f64)>) -> String {
    let fields: Vec<String> = entries.map(|(k, v)| format!("{}:{}", quoted(k), num(v))).collect();
    format!("{{{}}}", fields.join(","))
}

fn rep_json(workload: &str, o: Opts, rep: &Rep) -> String {
    let problems: Vec<String> = rep.checks.problems.iter().map(|p| quoted(p)).collect();
    let mut out = format!(
        "{{\"workload\":{},\"seed\":{},\"traced\":{},\"digest\":\"{}\",\"attempted\":{},\
         \"failed\":{},\"problems\":[{}],\"setup_s\":{},\"run_s\":{},\"cells\":{},\"work_s\":{},\
         \"sim_ed2_pct\":{},\"peak_rss_mb\":{},\"notes\":{}",
        quoted(workload),
        o.seed,
        o.traced,
        rep.digest.hex(),
        rep.checks.attempted,
        rep.checks.failed,
        problems.join(","),
        num(rep.setup_s),
        num(rep.run_s),
        rep.cells,
        num(rep.work_s),
        num(rep.sim_ed2_pct),
        num(peak_rss_mb()),
        object(rep.notes.iter().map(|(k, v)| (*k, *v))),
    );
    if o.traced {
        let layers = LAYER_METRICS.iter().map(|&n| (n, rep.layers.get(n).copied().unwrap_or(0.0)));
        let _ = write!(out, ",\"layers\":{}", object(layers));
    }
    out.push('}');
    out
}

fn worker(socket: &str, name: &str) -> ExitCode {
    let stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot connect to {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cluster_daemon::run_worker_traced(Box::new(stream), name, None) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: worker {name} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(socket) = &args.connect {
        let name = args.name.clone().unwrap_or_else(|| format!("worker-{}", std::process::id()));
        return worker(socket, &name);
    }
    let (Some(workload), Some(seed)) = (args.workload.as_deref(), args.seed) else {
        eprintln!("error: --workload and --seed are required");
        return ExitCode::from(2);
    };
    if !WORKLOADS.contains(&workload) {
        eprintln!("error: unknown workload {workload:?}; known: {}", WORKLOADS.join(", "));
        return ExitCode::from(2);
    }
    let opts = Opts { seed, tiny: args.tiny, traced: args.trace_file.is_some() };
    let mut tracer = Tracer::new(opts.traced, seed);
    let rep = workloads::run(workload, opts, &mut tracer, start);
    if let Some(path) = &args.trace_file {
        if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
            eprintln!("error: cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", rep_json(workload, opts, &rep));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject_missing_values() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload paper_fig8 --seed 7 --size tiny").unwrap();
        assert_eq!((a.workload.as_deref(), a.seed, a.tiny), (Some("paper_fig8"), Some(7), true));
        assert!(args("--seed").is_err());
        assert!(args("--seed x").is_err());
        assert!(args("--size huge").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn json_escapes_strings_and_nulls_non_finite_numbers() {
        assert_eq!(quoted("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(object([("x", 1.5)].into_iter()), "{\"x\":1.5}");
    }
}
