//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <solo|duo|kv|model> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as the last line of standard output; exits 2
//! on bad arguments and 1 when a run cannot produce its metrics.

use perfbench::Workload;
use std::time::Duration;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <solo|duo|kv|model> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, val] = pair else {
            usage("missing value")
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => seed = Some(val.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("bad --trace"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("all four flags are required")
    };
    match perfbench::run(workload, seed, Duration::from_secs_f64(seconds), trace) {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
