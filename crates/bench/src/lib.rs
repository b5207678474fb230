//! Shared harness code for the `sweep` binary.
//!
//! `sweep` regenerates the paper's tables and figures (sections
//! `table1` … `fig6`, `ablations`; DESIGN.md §4) and runs the
//! extension experiments. The common concerns — the seed, the
//! results header, result rows and their tables, JSON result export
//! — live here.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use serde::{Serialize, Value};

/// The seed of every experiment.
pub const DEFAULT_SEED: u64 = 20140101;

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
    std::fs::create_dir_all("results").expect("create results directory");
    let path = format!("results/{stem}.json");
    let json =
        serde_json::to_string_pretty(&Value::Object(doc)).expect("a value tree always renders");
    std::fs::write(&path, json).expect("write the results file");
    eprintln!("wrote {path}");
}

/// Render an aligned text table.
fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sampling_shrinks_the_sampling_phase_to_k_of_n_roots() {
        let base = bc_core::SamplingParams::default();
        for (n, k) in [(100, 100), (100, 200), (0, 0), (1, 5)] {
            assert_eq!(scaled_sampling(n, k), base, "k = {k} >= n = {n}");
        }
        // max(ceil(512 * k / n), 3), the other parameters kept.
        for (n, k, n_samps) in [
            (1000, 64, 33),
            (1024, 64, 32),
            (100_000, 64, 3),
            (600, 599, 512),
        ] {
            let p = scaled_sampling(n, k);
            assert_eq!(p.n_samps, n_samps, "n = {n}, k = {k}");
            assert_eq!((p.gamma, p.min_frontier), (base.gamma, base.min_frontier));
        }
    }
}
