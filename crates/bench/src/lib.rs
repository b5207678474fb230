//! Shared harness code for the experiment binaries.
//!
//! Every `fig*`/`table*` binary and `ablations` regenerates one table
//! or figure of the paper (see DESIGN.md §4); `sweep` runs the
//! extension experiments. Common concerns — CLI flags, deterministic
//! seeds, the results header, table rendering, JSON result export —
//! live here.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use serde::{Serialize, Value};
use std::path::PathBuf;

/// Default seed for every experiment (override with `--seed`).
pub const DEFAULT_SEED: u64 = 20140101;

/// Minimal flag parser: `--key value` pairs after the binary name.
#[derive(Clone, Debug, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parse the process arguments. A `--name` followed by another
    /// flag (or nothing) is a bare switch with the value `true`;
    /// otherwise the next token is its value.
    pub fn from_env() -> Self {
        let mut pairs = Vec::new();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(k) = it.next() {
            if let Some(name) = k.strip_prefix("--") {
                let bare = it.peek().is_none_or(|next| next.starts_with("--"));
                let v = if bare {
                    "true".to_string()
                } else {
                    it.next().expect("peeked value exists")
                };
                pairs.push((name.to_string(), v));
            } else {
                eprintln!("unexpected argument: {k}");
                std::process::exit(2);
            }
        }
        Args { pairs }
    }

    /// Look up a flag, parsing it into `T`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(default)
    }

    /// Experiment seed (`--seed`).
    pub fn seed(&self) -> u64 {
        self.get("seed", DEFAULT_SEED)
    }

    /// Dataset scale reduction (`--reduction`, halvings of the paper
    /// sizes; 0 = full Table II scale).
    pub fn reduction(&self, default: u32) -> u32 {
        self.get("reduction", default)
    }

    /// Sampled roots per configuration (`--roots`).
    pub fn roots(&self, default: usize) -> usize {
        self.get("roots", default)
    }
}

/// Sampling parameters scaled to a K-of-n sampled-roots run: the
/// real algorithm spends its first `n_samps = 512` roots (of n) in
/// the work-efficient phase; a harness simulating only `k` roots
/// must shrink the phase proportionally or the decision phase never
/// ends.
pub fn scaled_sampling(n: usize, k: usize) -> bc_core::SamplingParams {
    let base = bc_core::SamplingParams::default();
    if k >= n {
        return base;
    }
    let scaled = (base.n_samps * k).div_ceil(n.max(1)).max(3);
    bc_core::SamplingParams {
        n_samps: scaled,
        ..base
    }
}

/// Directory experiment outputs are written to (`results/`, created
/// on demand).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Serialize an experiment record to `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = out_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize experiment record");
    std::fs::write(&path, json).expect("write experiment record");
    eprintln!("wrote {}", path.display());
}

/// Cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// The commit checked out in the nearest enclosing git work tree, or
/// `"unknown"` outside one (a source export carries no history).
pub fn commit() -> String {
    let Ok(cwd) = std::env::current_dir() else {
        return "unknown".into();
    };
    let Some(git) = cwd.ancestors().map(|d| d.join(".git")).find(|p| p.is_dir()) else {
        return "unknown".into();
    };
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The header a results file starts with (perfbench's field names).
#[derive(Serialize)]
pub struct Header {
    /// Commit the producing binary was run from.
    pub commit: String,
    /// Seed of every generator and plan.
    pub seed: u64,
    /// Cores the host offered the run.
    pub host_cores: usize,
    /// `quick` or `full`.
    pub mode: &'static str,
    /// Producing binary and package version.
    pub binary: String,
}

impl Header {
    /// The header of a run of this process.
    pub fn new(seed: u64, quick: bool) -> Self {
        let exe = std::env::current_exe()
            .ok()
            .and_then(|p| p.file_stem().map(|f| f.to_string_lossy().into_owned()))
            .unwrap_or_else(|| "bc-bench".into());
        Header {
            commit: commit(),
            seed,
            host_cores: host_cores(),
            mode: if quick { "quick" } else { "full" },
            binary: format!("{exe} {}", env!("CARGO_PKG_VERSION")),
        }
    }
}

/// One result row: `row! { graph, n: g.num_vertices() }` is a
/// [`Value`] object with the field names as keys, in order; a bare
/// name is its own value.
#[macro_export]
macro_rules! row {
    (@ $key:ident) => {
        $crate::Serialize::to_value(&$key)
    };
    (@ $key:ident : $value:expr) => {
        $crate::Serialize::to_value(&$value)
    };
    ($($key:ident $(: $value:expr)?),* $(,)?) => {
        $crate::Value::Object(vec![
            $((stringify!($key).to_string(), $crate::row!(@ $key $(: $value)?))),*
        ])
    };
}

/// A named list of result rows (see [`row!`]); the name is the rows'
/// key in the results file.
pub struct Table {
    name: &'static str,
    rows: Vec<Value>,
}

impl Table {
    /// A table called `name` holding `rows`.
    pub fn new(name: &'static str, rows: Vec<Value>) -> Self {
        Table { name, rows }
    }

    /// Print the table: one column per field of the rows.
    pub fn print(&self) {
        let Some(Value::Object(first)) = self.rows.first() else {
            return;
        };
        let headers: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| match row {
                Value::Object(fields) => fields.iter().map(|(_, v)| cell(v)).collect(),
                other => vec![cell(other)],
            })
            .collect();
        println!("{}:", self.name);
        print_table(&headers, &rows);
        println!();
    }
}

/// One table cell: floats to four decimals (scientific outside
/// [1e-3, 1e6)), strings bare, pairs joined by `/`, anything else as
/// JSON.
fn cell(v: &Value) -> String {
    match v {
        Value::Float(x) if *x == 0.0 || (1e-3..1e6).contains(&x.abs()) => format!("{x:.4}"),
        Value::Float(x) => format!("{x:.3e}"),
        Value::Str(s) => s.clone(),
        Value::Array(items) => items.iter().map(cell).collect::<Vec<_>>().join("/"),
        other => serde_json::to_string(other).expect("a value tree always renders"),
    }
}

/// Write `results/<stem>.json`: the header, then each table's rows
/// under its name.
pub fn write_results(stem: &str, header: &Header, tables: &[Table]) {
    let mut doc = vec![("header".to_string(), header.to_value())];
    doc.extend(
        tables
            .iter()
            .map(|t| (t.name.to_string(), Value::Array(t.rows.clone()))),
    );
    write_json(stem, &Value::Object(doc));
}

/// Render an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        s
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", line(&hdr));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Format seconds compactly (µs → hours).
pub fn fmt_seconds(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2}s")
    } else if s < 7200.0 {
        format!("{:.1}min", s / 60.0)
    } else {
        format!("{:.2}h", s / 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_lookup_with_defaults() {
        let args = Args {
            pairs: vec![("roots".into(), "128".into()), ("seed".into(), "7".into())],
        };
        assert_eq!(args.roots(1), 128);
        assert_eq!(args.seed(), 7);
        assert_eq!(args.reduction(3), 3);
        // Unparseable values fall back to the default.
        let bad = Args {
            pairs: vec![("roots".into(), "xyz".into())],
        };
        assert_eq!(bad.roots(9), 9);
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(5e-5), "50.0us");
        assert_eq!(fmt_seconds(0.25), "250.00ms");
        assert_eq!(fmt_seconds(3.5), "3.50s");
        assert_eq!(fmt_seconds(600.0), "10.0min");
        assert_eq!(fmt_seconds(90000.0), "25.00h");
    }
}
