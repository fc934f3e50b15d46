//! servebench — the repository's seeded serving benchmark.
//!
//! ```text
//! servebench --workload <warm_serve|cold_ingest> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! Drives a real `spanner-server` over loopback TCP from this one process
//! (one load thread, two client connections), checks the answers against
//! an independent oracle, and prints one JSON object as
//! the last line of standard output: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.  A `context` line before it records the run's
//! settings, sample counts and failure reasons.  The exit code is non-zero
//! when any answer was wrong or a workload premise failed.
//!
//! See `servebench/README.md` for the workloads and what each metric is
//! expected to move.

mod harness;
mod ingest;
mod inputs;
mod layers;
mod oracle;
mod stats;
mod warm;

use harness::Outcome;
use stats::{tail, J};
use std::process::ExitCode;

/// End-to-end metrics, reported with `--trace 0` by every workload.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("session_open_us", "us"),
    ("non_emptiness_cpu_p50_us", "us"),
    ("model_check_cpu_p50_us", "us"),
    ("count_cpu_p50_us", "us"),
    ("compute_cpu_p50_us", "us"),
    ("enumerate_cpu_p50_us", "us"),
    ("point_cpu_p99_us", "us"),
    ("scan_cpu_p99_us", "us"),
    ("ingest_cpu_p50_ms", "ms"),
    ("cold_answer_cpu_p50_ms", "ms"),
    ("cold_answer_cpu_p99_ms", "ms"),
];

/// The workloads `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 2] = ["warm_serve", "cold_ingest"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("bad value for {flag}: {value}");
        let bad_f = |_: std::num::ParseFloatError| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(bad_f)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match name {
        "warm_serve" => warm::run(seed, seconds, traced),
        "cold_ingest" => ingest::run(seed, seconds, traced),
        _ => unreachable!("workload names are validated"),
    }
}

/// Pins glibc's malloc thresholds for the whole process, server included.
/// Left dynamic, glibc raises its mmap and trim thresholds as large blocks
/// are freed, so whether a matrix build reuses heap pages or faults in
/// fresh ones depended on the order of earlier frees: the same seed's
/// cold-answer median then read 4.3 or 7.3 ms from one run to the next.
/// Pinned, freed memory stays in the heap for reuse in every run.  Blocks
/// of 32 MiB and more, which glibc would still map afresh and unmap on
/// free, come from the heap too: each cold_ingest set-up otherwise
/// faulted in some 10 000 pages anew, and in a virtual machine a page
/// fault costs what the host makes it cost — the same set-up's CPU time
/// read 0.36 s or 0.45 s by its faults alone.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() -> &'static str {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_MMAP_MAX: i32 = -4;
    // SAFETY: mallopt only sets allocator parameters; it runs before any
    // thread is spawned.
    let pinned = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
            && mallopt(M_TRIM_THRESHOLD, 256 << 20) == 1
            && mallopt(M_MMAP_MAX, 0) == 1
    };
    if pinned {
        "glibc malloc, mmap threshold 32 MiB and trim threshold 256 MiB pinned, no mmap'd blocks"
    } else {
        "glibc malloc, defaults (pinning the thresholds failed)"
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() -> &'static str {
    "platform allocator, defaults"
}

/// Pins the process — load thread and every server thread it starts — to
/// one CPU, the highest-numbered it may use.  The load is sequential, so
/// one CPU is all it needs; on two, a request's CPU cost depended on
/// whether the server thread woke on the client's CPU or on the other
/// one (a cross-CPU wake-up costs an interrupt and a cold cache): with
/// the other CPU busy, a resident non-emptiness read cost 56 µs of CPU
/// instead of 83.  Returns the CPU, or `None` if pinning failed.
#[cfg(target_os = "linux")]
fn pin_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable cpu_set_t-sized buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a cpu_set_t-sized buffer naming an allowed CPU;
    // it runs before any thread is spawned, so every thread inherits it.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_cpu() -> Option<usize> {
    None
}

/// Jiffies of CPU steal and of CPU time in all since boot, summed over
/// CPUs (`/proc/stat`).
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn context(
    args: &Args,
    allocator: &str,
    nproc: usize,
    cpu: Option<usize>,
    steal: Option<f64>,
    outcomes: &[&Outcome],
) -> J {
    let main = outcomes[outcomes.len() - 1];
    let mut fields: Vec<(String, J)> = vec![
        ("workload".into(), J::str(&args.workload)),
        ("seed".into(), J::Int(args.seed)),
        ("seconds".into(), J::Num(args.seconds)),
        ("trace".into(), J::Bool(args.trace)),
        ("nproc".into(), J::Int(nproc as u64)),
        (
            "git_commit".into(),
            J::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".into(),
            J::str(command_line("rustc", &["--version"])),
        ),
        ("allocator".into(), J::str(allocator)),
        (
            "pinned_cpu".into(),
            cpu.map_or(J::str("none"), |c| J::Int(c as u64)),
        ),
        (
            "cpu_steal_share".into(),
            steal.map_or(J::str("unknown"), J::Num),
        ),
    ];
    fields.extend(main.context.iter().cloned());
    for (label, o) in ["untraced", "traced"].iter().zip(outcomes) {
        let rec = &o.rec;
        let mut tails = Vec::new();
        let point: Vec<f64> = rec.cpu_us[..3].concat();
        let scan: Vec<f64> = rec.cpu_us[3..].concat();
        for (name, samples) in [
            ("point_cpu_us", &point),
            ("scan_cpu_us", &scan),
            ("cold_answer_cpu_ms", &rec.cold_cpu_ms),
        ] {
            if let Some(t) = tail(samples, 99.0) {
                tails.push((
                    name.to_string(),
                    J::obj([
                        ("value", J::Num(t.value)),
                        ("pct", J::Num(t.pct)),
                        ("n", J::Int(t.n as u64)),
                    ]),
                ));
            }
        }
        let counts: Vec<(String, J)> = harness::KINDS
            .iter()
            .enumerate()
            .map(|(k, kind)| (kind.to_string(), J::Int(rec.lat_us[k].len() as u64)))
            .chain([
                ("session".to_string(), J::Int(rec.session_us.len() as u64)),
                ("ingest".to_string(), J::Int(rec.ingest_ms.len() as u64)),
                ("cold_answer".to_string(), J::Int(rec.cold_ms.len() as u64)),
            ])
            .collect();
        let label = if outcomes.len() == 1 { "run" } else { label };
        fields.push((
            label.to_string(),
            J::obj([
                ("attempted", J::Int(rec.attempted)),
                ("failed", J::Int(rec.failed)),
                ("wrong", J::Int(o.wrong)),
                ("checked", J::Int(o.checked)),
                (
                    "self_check",
                    J::str(match &o.self_check {
                        Ok(()) => "ok".to_string(),
                        Err(e) => e.clone(),
                    }),
                ),
                (
                    "failures",
                    J::Obj(
                        rec.reasons
                            .iter()
                            .map(|(k, v)| (k.clone(), J::Int(*v)))
                            .collect(),
                    ),
                ),
                ("samples", J::Obj(counts)),
                ("tails", J::Obj(tails)),
                (
                    "reference_ms",
                    stats::median(&rec.reference_ms).map_or(J::str("none"), J::Num),
                ),
                ("host_slowdown", J::Num(harness::host_slowdown(rec))),
            ]),
        ));
    }
    J::Obj(fields)
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> J {
    J::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    J::obj([("value", J::Num(*value)), ("unit", J::str(*unit))]),
                )
            })
            .collect(),
    )
}

/// Checks that `metrics` holds exactly the `expected` names, each finite.
fn complete(metrics: &[(String, f64, &str)], expected: &[(&str, &str)]) -> Result<(), String> {
    for (name, unit) in expected {
        match metrics.iter().find(|m| m.0 == *name) {
            None => return Err(format!("metric {name} was not measured")),
            Some(m) if !m.1.is_finite() => return Err(format!("metric {name} is {}", m.1)),
            Some(m) if m.2 != *unit => return Err(format!("metric {name} has unit {}", m.2)),
            Some(_) => {}
        }
    }
    if metrics.len() != expected.len() {
        return Err(format!(
            "{} metrics measured, {} expected",
            metrics.len(),
            expected.len()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let allocator = pin_allocator();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = pin_cpu();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let jiffies = cpu_jiffies();
    let (outcomes, metrics, expected): (Vec<Outcome>, Vec<_>, &[(&str, &str)]) = if args.trace {
        // The end-to-end half runs untraced; the traced half gives the
        // per-layer numbers and, against the untraced half, the overhead.
        let half = args.seconds / 2.0;
        let untraced = run_workload(&args.workload, args.seed, half, false);
        eprintln!("servebench: untraced half done");
        let traced = run_workload(&args.workload, args.seed, half, true);
        eprintln!("servebench: traced half done");
        let e2e = harness::end_to_end(&untraced.rec, &untraced.setups);
        let e2e_traced = harness::end_to_end(&traced.rec, &traced.setups);
        let wall = harness::wall_clock(&untraced.rec, untraced.elapsed, &untraced.setups);
        let per_layer = layers::measure(&traced, args.seed, &e2e, &e2e_traced, &wall);
        layers::print_side_by_side(&e2e, &e2e_traced, &per_layer);
        (vec![untraced, traced], per_layer, &layers::PER_LAYER)
    } else {
        let outcome = run_workload(&args.workload, args.seed, args.seconds, false);
        let e2e = harness::end_to_end(&outcome.rec, &outcome.setups);
        (vec![outcome], e2e, &END_TO_END)
    };
    if let Err(e) = complete(&metrics, expected) {
        eprintln!("servebench: {e}");
        return ExitCode::from(3);
    }
    let steal = jiffies
        .zip(cpu_jiffies())
        .map(|((s0, t0), (s1, t1))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    let refs: Vec<&Outcome> = outcomes.iter().collect();
    println!(
        "context {}",
        context(&args, allocator, nproc, cpu, steal, &refs).render()
    );
    let attempted: u64 = outcomes.iter().map(|o| o.rec.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.rec.failed + o.wrong).sum();
    let correct = outcomes
        .iter()
        .all(|o| o.wrong == 0 && o.self_check.is_ok());
    for o in &outcomes {
        if let Err(e) = &o.self_check {
            eprintln!("servebench: self-check failed: {e}");
        }
    }
    println!(
        "{}",
        J::obj([
            ("correct", J::Bool(correct)),
            ("attempted", J::Int(attempted.max(1))),
            ("failed", J::Int(failed)),
            ("metrics", metrics_json(&metrics)),
        ])
        .render()
    );
    // Fails, as it should, while another run still has a store there.
    let _ = std::fs::remove_dir(harness::scratch_root());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this binary reports.
    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let section = |key: &str| -> String {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end].to_string()
        };
        for (key, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &layers::PER_LAYER[..]),
        ] {
            let body = section(key);
            assert_eq!(body.matches("\"name\"").count(), metrics.len(), "{key}");
            for (name, unit) in metrics {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{key} lacks {entry}");
            }
        }
        // The listed workloads are exactly the runnable ones.
        let workloads = section("workloads");
        let listed: Vec<&str> = workloads
            .split("\"name\": \"")
            .skip(1)
            .map(|entry| &entry[..entry.find('"').expect("quoted name")])
            .collect();
        assert_eq!(listed, WORKLOADS);
    }

    #[test]
    fn complete_rejects_missing_and_non_finite_metrics() {
        let expected = [("a", "ms"), ("b", "s")];
        let ok = vec![("a".to_string(), 1.0, "ms"), ("b".to_string(), 2.0, "s")];
        assert!(complete(&ok, &expected).is_ok());
        assert!(complete(&ok[..1], &expected).is_err());
        let nan = vec![
            ("a".to_string(), f64::NAN, "ms"),
            ("b".to_string(), 2.0, "s"),
        ];
        assert!(complete(&nan, &expected).is_err());
    }
}
