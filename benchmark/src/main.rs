//! `vexbench` — one command for the end-to-end and per-layer numbers of
//! vex's record, replay and serve paths.
//!
//! ```text
//! vexbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!          [--spans PATH] [--out PATH]
//! vexbench compare A.jsonl B.jsonl
//! ```
//!
//! Without `--workload` every workload runs untraced (end-to-end
//! metrics), then traced (per-layer metrics), and the results are
//! appended to `benchmark/results/vexbench.jsonl`. With `--workload`
//! one pass of one workload runs and the last line of standard output
//! is a JSON object with `correct`, `attempted`, `failed` and the
//! metrics `BENCHMARK.json` lists for that pass. See `README.md`.

mod compare;
mod heap;
mod layers;
mod mix;
mod spans;
mod stats;
mod workloads;

use serde_json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};
use workloads::{Cfg, RunOutput, Workload};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// The benchmark definition: workloads, metrics, units and bounds.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

const USAGE: &str = "usage:
  vexbench [--workload record|replay-fine|replay-coarse|serve-mix] [--seed N]
           [--seconds S] [--trace 0|1] [--smoke] [--spans PATH] [--out PATH]
  vexbench compare A.jsonl B.jsonl";

/// Field `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A JSON number as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the runner needs.
#[derive(Debug, Clone)]
pub struct Catalogue {
    /// Default `--seconds`.
    pub run_seconds: f64,
    /// Metrics of the untraced pass.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of the traced pass.
    pub per_layer: Vec<MetricDef>,
}

impl Catalogue {
    /// Parses the embedded `BENCHMARK.json`.
    pub fn load() -> Result<Catalogue, String> {
        let doc = serde_json::value_from_str(BENCHMARK_JSON).map_err(|e| e.to_string())?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            let list = field(&doc, key).and_then(Value::as_array).ok_or(format!("no {key}"))?;
            list.iter()
                .map(|m| {
                    let s = |k: &str| field(m, k).and_then(Value::as_str).map(str::to_owned);
                    Ok(MetricDef {
                        name: s("name").ok_or("metric without a name")?,
                        unit: s("unit").ok_or("metric without a unit")?,
                        lower_is_better: s("better").as_deref() == Some("lower"),
                        bound: field(m, "bound").and_then(number),
                    })
                })
                .collect()
        };
        Ok(Catalogue {
            run_seconds: field(&doc, "run_seconds").and_then(number).ok_or("no run_seconds")?,
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }

    /// The metric definition named `name`, in either list.
    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end.iter().chain(&self.per_layer).find(|d| d.name == name)
    }
}

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        spans: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--smoke" => o.smoke = true,
            "--spans" => o.spans = Some(PathBuf::from(value()?)),
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// A scratch directory under `benchmark/target`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("vexbench-work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::F64(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
    .expect("serializing a JSON value cannot fail")
}

/// Checks a run against the catalogue list of its pass: every listed
/// metric present, finite, in the listed unit and direction. Returns the
/// listed metrics in catalogue order, or what is wrong.
fn listed(run: &RunOutput, defs: &[MetricDef]) -> Result<Vec<(String, Value)>, String> {
    defs.iter()
        .map(|d| {
            let m = run.metrics.iter().find(|m| m.name == d.name).ok_or(format!(
                "{} did not measure {}",
                run.workload.name(),
                d.name
            ))?;
            if m.unit != d.unit
                || m.higher_is_better == d.lower_is_better
                || !m.value.is_finite()
            {
                return Err(format!(
                    "{} {} = {} {}",
                    run.workload.name(),
                    d.name,
                    m.value,
                    m.unit
                ));
            }
            Ok((d.name.clone(), json_metric(m.value, m.unit)))
        })
        .collect()
}

fn run_document(o: &Options, cfg: &Cfg, runs: &[RunOutput]) -> String {
    let run = |r: &RunOutput| {
        Value::Object(vec![
            ("workload".into(), Value::Str(r.workload.name().into())),
            ("traced".into(), Value::Bool(r.traced)),
            ("correct".into(), Value::Bool(r.tally.failed == 0)),
            ("attempted".into(), Value::U64(r.tally.attempted)),
            ("failed".into(), Value::U64(r.tally.failed)),
            (
                "metrics".into(),
                Value::Object(
                    r.metrics
                        .iter()
                        .map(|m| {
                            let better = if m.higher_is_better { "higher" } else { "lower" };
                            let v = Value::Object(vec![
                                ("value".into(), Value::F64(m.value)),
                                ("unit".into(), Value::Str(m.unit.into())),
                                ("better".into(), Value::Str(better.into())),
                            ]);
                            (m.name.clone(), v)
                        })
                        .collect(),
                ),
            ),
        ])
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    serde_json::to_string(&Value::Object(vec![
        ("seed".into(), Value::U64(o.seed)),
        ("seconds".into(), Value::F64(cfg.seconds)),
        ("smoke".into(), Value::Bool(cfg.smoke)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("runs".into(), Value::Array(runs.iter().map(run).collect())),
    ]))
    .expect("serializing a JSON value cannot fail")
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

fn run_main(args: &[String]) -> Result<bool, String> {
    let o = parse_options(args)?;
    let catalogue = Catalogue::load()?;
    let work = WorkDir::create()?;
    let cfg = Cfg {
        seed: o.seed,
        seconds: o.seconds.unwrap_or(catalogue.run_seconds),
        smoke: o.smoke,
        work: work.0.clone(),
    };
    let workloads = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let passes = match (o.trace, o.workload) {
        (Some(t), _) => vec![t],
        (None, Some(_)) => vec![false],
        (None, None) => vec![false, true],
    };
    if let Some(path) = &o.spans {
        // Truncate: the spans of this invocation are appended per run.
        std::fs::write(path, "").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut runs = Vec::new();
    for &traced in &passes {
        for &w in &workloads {
            let started = std::time::Instant::now();
            let run = if traced {
                layers::run_traced(w, &cfg)?
            } else {
                workloads::run_untraced(w, &cfg)?
            };
            eprintln!(
                "vexbench: {} {} pass took {:.1} s",
                w.name(),
                if traced { "traced" } else { "untraced" },
                started.elapsed().as_secs_f64()
            );
            for m in &run.metrics {
                println!("{} {} {:.4} {}", w.name(), m.name, m.value, m.unit);
            }
            for note in &run.tally.notes {
                eprintln!("vexbench: {}: {note}", w.name());
            }
            if let (Some(path), Some(tr)) = (&o.spans, &run.tracer) {
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                tr.write_jsonl(w.name(), &mut f).map_err(|e| e.to_string())?;
            }
            runs.push(run);
        }
    }

    let out = o.out.clone().or_else(|| {
        o.workload
            .is_none()
            .then(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("results/vexbench.jsonl"))
    });
    if let Some(path) = &out {
        append_line(path, &run_document(&o, &cfg, &runs))?;
    }

    let mut problems = Vec::new();
    let mut metrics = Vec::new();
    for run in &runs {
        let defs = if run.traced { &catalogue.per_layer } else { &catalogue.end_to_end };
        match listed(run, defs) {
            Ok(list) if o.workload.is_some() => metrics.extend(list),
            Ok(list) => metrics.extend(
                list.into_iter()
                    .map(|(name, v)| (format!("{}/{name}", run.workload.name()), v)),
            ),
            Err(e) => problems.push(e),
        }
    }
    for p in &problems {
        eprintln!("vexbench: {p}");
    }
    let attempted = runs.iter().map(|r| r.tally.attempted).sum::<u64>().max(1);
    let failed = runs.iter().map(|r| r.tally.failed).sum();
    let correct = failed == 0 && problems.is_empty();
    println!("{}", result_line(correct, attempted, failed, metrics));
    Ok(correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            0
        }
        Some("compare") => match Catalogue::load().and_then(|c| compare::run(&args[1..], &c)) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("vexbench compare: {e}\n\n{USAGE}");
                2
            }
        },
        _ => match run_main(&args) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("vexbench: {e}\n\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_parses_and_every_name_is_unique() {
        let c = Catalogue::load().unwrap();
        assert!(c.run_seconds >= 1.0);
        let mut names: Vec<&str> =
            c.end_to_end.iter().chain(&c.per_layer).map(|d| d.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(c.end_to_end.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = c.find("setup_s").expect("setup_s is an end-to-end metric");
        assert_eq!(setup.unit, "s");
        assert!(setup.lower_is_better);
    }

    #[test]
    fn options_parse() {
        let args: Vec<String> = ["--workload", "serve-mix", "--seed", "3", "--trace", "1"]
            .map(String::from)
            .to_vec();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.workload, Some(Workload::ServeMix));
        assert_eq!((o.seed, o.trace), (3, Some(true)));
        assert!(parse_options(&["--trace".to_owned(), "2".to_owned()]).is_err());
        assert!(parse_options(&["--workload".to_owned(), "nope".to_owned()]).is_err());
    }
}
