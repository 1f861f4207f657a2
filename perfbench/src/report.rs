//! Summary statistics, host facts and the result line.

use std::fmt::Write as _;
use std::path::Path;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: u64,
    /// How the value was taken, printed beside it.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` of sorted samples, with the number of
/// samples beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// The tail percentile: `target`, or the highest of the lower standard
/// percentiles that still has at least ten samples beyond it. Returns
/// (percentile, value, samples beyond).
pub fn tail(samples: &[f64], target: f64) -> (f64, f64, usize) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ladder = [target, 99.0, 95.0, 90.0, 80.0, 75.0, 60.0, 50.0];
    for p in ladder.into_iter().filter(|&p| p <= target) {
        let (v, beyond) = percentile(&sorted, p);
        if beyond >= 10 {
            return (p, v, beyond);
        }
    }
    let (v, beyond) = percentile(&sorted, 50.0);
    (50.0, v, beyond)
}

/// Print every metric by name with its unit and sample count.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let mut line = format!(
            "metric {:<32} {:>16} {:<6} n={}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples
        );
        if !m.note.is_empty() {
            let _ = write!(line, "  ({})", m.note);
        }
        println!("{}", line);
    }
}

/// The last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        correct, attempted, failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values have no JSON form; they cannot arise from the
        // ratios below, whose denominators are checked, but keep the line
        // parseable regardless.
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, v, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
pub fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// FNV-1a digest over the program's sources (`crates/`), so that runs
/// outside a git checkout still name the code they measured.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("fnv64:{:016x} over {} files", h, files.len())
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}

/// The process's high-water resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON validator: enough to prove the result line parses.
    fn validate(s: &str) -> Result<(), String> {
        let b = s.as_bytes();
        let mut i = 0;
        value(b, &mut i)?;
        ws(b, &mut i);
        if i == b.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at {}", i))
        }
    }

    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
        ws(b, i);
        if b.get(*i) == Some(&c) {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at {}", c as char, i))
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
        ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    ws(b, i);
                    string(b, i)?;
                    expect(b, i, b':')?;
                    value(b, i)?;
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("bad object at {}", i)),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') if b[*i..].starts_with(b"true") => {
                *i += 4;
                Ok(())
            }
            Some(b'f') if b[*i..].starts_with(b"false") => {
                *i += 5;
                Ok(())
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *i;
                *i += 1;
                while *i < b.len() && (b[*i].is_ascii_digit() || b".eE+-".contains(&b[*i])) {
                    *i += 1;
                }
                std::str::from_utf8(&b[start..*i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .filter(|v| v.is_finite())
                    .map(|_| ())
                    .ok_or_else(|| format!("bad number at {}", start))
            }
            _ => Err(format!("unexpected byte at {}", i)),
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
        expect(b, i, b'"')?;
        while let Some(&c) = b.get(*i) {
            *i += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => *i += 1,
                c if c < 0x20 => return Err("control byte in string".into()),
                _ => {}
            }
        }
        Err("unterminated string".into())
    }

    #[test]
    fn result_line_is_valid_json_with_full_digits() {
        let metrics = [
            Metric::new("analysis_ms_p50", 84.123456789012, "ms", 10),
            Metric::new("peak_snapshot_bytes", 8212.0, "bytes", 10),
            Metric::new("broken", f64::NAN, "ratio", 0),
        ];
        let line = result_json(true, 12, 0, &metrics);
        validate(&line).expect("valid JSON");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "));
        assert!(line.contains("\"value\": 84.123456789012"), "{}", line);
        assert!(line.contains("\"value\": 8212.0"), "{}", line);
        assert!(validate("{\"a\": }").is_err());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs, 95.0), (95.0, 190.0, 10));
        assert_eq!(tail(&xs, 99.0), (95.0, 190.0, 10), "p99 has only 2 beyond");
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&few, 90.0).0, 60.0, "p60 keeps 12 of 30 beyond");
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
