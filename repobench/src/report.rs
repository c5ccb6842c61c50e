//! Result assembly: metrics, operation accounting, provenance, the final
//! JSON line, and the cross-run check of deterministic metrics.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Collects metrics in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Operations attempted, succeeded and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that returned an answer that passed its checks.
    pub succeeded: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Adds another phase's counts.
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced run).
    pub per_layer: Metrics,
    /// Deterministic metrics that must repeat exactly for a seed.
    pub deterministic: Metrics,
    /// Supporting figures printed before the result line.
    pub notes: Metrics,
    /// Operation counts per phase.
    pub phases: Vec<(&'static str, Ops)>,
    /// Failed output checks.
    pub check_failures: Vec<String>,
    /// Input sizes and other provenance fields.
    pub provenance: Vec<(String, String)>,
    /// High-water RSS read by the workload at the end of its measured
    /// phase; when unset it is read as the run ends.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    /// Records a failed check (keeps the first few messages).
    pub fn fail(&mut self, message: impl Into<String>) {
        if self.check_failures.len() < 20 {
            self.check_failures.push(message.into());
        } else if self.check_failures.len() == 20 {
            self.check_failures.push("further check failures omitted".to_string());
        }
    }

    /// Turns an `Err` into a failed check, passing `Ok` values through.
    pub fn expect_ok<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Total operation counts over all phases.
    pub fn ops(&self) -> Ops {
        let mut total = Ops::default();
        for (_, ops) in &self.phases {
            total.add(*ops);
        }
        total
    }

    /// Records a provenance field.
    pub fn prov(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }
}

/// Formats `x` for JSON with every digit Rust's shortest round-trip
/// printing gives; non-finite values (only possible after a failure)
/// become a large sentinel so the line stays valid JSON.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "1e300".to_string()
    }
}

/// Escapes a string for a JSON literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                esc(&m.name),
                num(m.value),
                esc(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `{"key": "value", ...}` of string pairs.
pub fn fields_json(fields: &[(String, String)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("\"{}\": \"{}\"", esc(k), esc(v))).collect();
    format!("{{{}}}", body.join(", "))
}

/// The final result line.
pub fn result_line(correct: bool, ops: Ops, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ops.attempted.max(1),
        ops.failed,
        metrics_json(metrics)
    )
}

/// Process high-water resident set size, MB (`VmHWM`), or `None` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checkout's commit, read from `.git` in the working directory when
/// there is one (no subprocess, nothing read above the checkout).
pub fn commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(Path::new(".git/HEAD")) else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(id) = read(&Path::new(".git").join(reference)) {
        return id;
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..l.len().min(40)].to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Directory (inside the checkout) the benchmark writes its records to.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// FNV-1a over the running executable, identifying the build whose
/// deterministic metrics a record belongs to.
pub fn build_id() -> String {
    let bytes = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Renders deterministic metrics as `name value-bits` lines.
fn deterministic_text(metrics: &Metrics) -> String {
    metrics
        .0
        .iter()
        .map(|m| format!("{} {:016x} {:?}\n", m.name, m.value.to_bits(), m.value))
        .collect()
}

/// Compares `metrics` with the record an earlier run of the same build,
/// workload and seed left (traced or not), or leaves the first record.
///
/// # Errors
///
/// Names the metrics that differ from the earlier record.
pub fn check_repeat(dir: &Path, key: &str, metrics: &Metrics) -> Result<(), String> {
    let path = dir.join(format!("deterministic-{key}.txt"));
    let text = deterministic_text(metrics);
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous == text => Ok(()),
        Ok(previous) => Err(format!(
            "deterministic metrics differ from an earlier run of this build and seed:\n{previous}---\n{text}"
        )),
        Err(_) => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            std::fs::write(&path, text).map_err(|e| e.to_string())
        }
    }
}
