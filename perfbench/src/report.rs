//! Result digests, the machine fingerprint, process memory, and the
//! one-line JSON result.

use std::fmt::Write as _;
use std::path::Path;

/// An order-sensitive FNV-1a digest over the bit patterns of simulated
/// outputs: two runs agree on every recorded output exactly when their
/// digests match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes in one 64-bit word.
    #[must_use]
    pub fn u64(mut self, word: u64) -> Self {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes in the exact bit pattern of a float.
    #[must_use]
    pub fn f64(self, value: f64) -> Self {
        self.u64(value.to_bits())
    }

    /// Mixes in a byte string (length-prefixed, so concatenations
    /// differ).
    #[must_use]
    pub fn bytes(self, data: &[u8]) -> Self {
        data.iter()
            .fold(self.u64(data.len() as u64), |d, &b| d.u64(u64::from(b)))
    }

    /// Hex rendering.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One `key: value` field of `/proc/self/status`, in kB.
fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process so far (VmHWM), MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set size (VmRSS), MB.
#[must_use]
pub fn rss_mb() -> f64 {
    status_kb("VmRSS").map_or(0.0, |kb| kb / 1024.0)
}

/// Where a result was measured: cores, CPU, source revision and the
/// thread plan, printed with every result so runs from different hosts
/// or trees are never compared silently.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// The git commit when the tree is a checkout, else `none`.
    pub commit: String,
    /// Digest of the library sources and lock file the benchmark built.
    pub source: String,
    /// Worker threads the workload's room stepping used.
    pub plan: usize,
}

impl Fingerprint {
    /// Fingerprints the machine and the tree rooted at the current
    /// directory.
    #[must_use]
    pub fn collect(plan: usize) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "none".to_owned()),
            source: source_digest(Path::new(".")).hex(),
            plan,
        }
    }

    /// One report line.
    #[must_use]
    pub fn line(&self) -> String {
        format!(
            "# machine: cores={} cpu=\"{}\" commit={} source={} plan={}",
            self.cores, self.cpu, self.commit, self.source, self.plan
        )
    }
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_owned()),
        None => Some(head.to_owned()),
    }
}

/// Digest of every file under `crates/` plus `Cargo.lock`, in sorted
/// path order — identifies the measured tree when there is no git
/// metadata.
fn source_digest(root: &Path) -> Digest {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    files.iter().fold(Digest::default(), |d, path| {
        let data = std::fs::read(path).unwrap_or_default();
        d.bytes(path.to_string_lossy().as_bytes()).bytes(&data)
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Renders the result line the benchmark ends with. Non-finite values
/// cannot be written as JSON numbers and are reported as `null` (and
/// the caller marks the run incorrect).
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_owned()
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let a = Digest::default().f64(1.0).u64(2);
        let b = Digest::default().u64(2).f64(1.0);
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().f64(1.0).u64(2));
        // Bit-level: 0.0 and -0.0 compare equal but digest differently.
        assert_ne!(Digest::default().f64(0.0), Digest::default().f64(-0.0));
        assert_ne!(
            Digest::default().bytes(b"ab").bytes(b"c"),
            Digest::default().bytes(b"a").bytes(b"bc")
        );
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(
            true,
            3,
            0,
            &[
                Metric {
                    name: "setup_s",
                    value: 0.25,
                    unit: "s",
                },
                Metric {
                    name: "x",
                    value: f64::NAN,
                    unit: "ms",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"x\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let line = result_json(
            false,
            7,
            2,
            &[Metric {
                name: "step_ms_p50",
                value: 1.25e-3,
                unit: "ms",
            }],
        );
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.keys(), ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("step_ms_p50").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.25e-3));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
    }

    #[test]
    fn whole_numbers_keep_a_decimal_point() {
        let line = result_json(
            true,
            1,
            0,
            &[Metric {
                name: "a",
                value: 3.0,
                unit: "count",
            }],
        );
        assert!(line.contains("\"value\": 3.0"), "{line}");
    }

    #[test]
    fn memory_probes_read_proc() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb() > 0.0);
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
    }
}
