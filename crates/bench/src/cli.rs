//! The shared command line of the regenerator binaries.
//!
//! Every binary understands the same four flags, checked by the strict
//! parser in [`bnm_core::cli`] (bad input exits 2 with usage):
//!
//! ```text
//! --seed S                 master seed, decimal or 0x-hex (default 0xB32B_2013)
//! --reps N                 repetitions/cell, >= 1        (default 50)
//! --results DIR            artifact directory            (default results/)
//! --format text|json|csv   artifact format               (default text)
//! ```
//!
//! `--format` governs [`BenchArgs::save_artifact`]: `json` converts the
//! CSV table into an array of objects before writing and switches
//! stdout to JSON too; `text` and `csv` write the CSV as-is and keep
//! stdout human-readable.

use std::fs;
use std::path::PathBuf;

use bnm_browser::BrowserKind;
use bnm_core::cli::{FlagError, Flags};
use bnm_core::{CellBuilder, ExperimentCell, Render, ReportFormat, RunError, RuntimeSel, Table};
use bnm_methods::MethodId;
use bnm_time::OsKind;

use crate::PAPER_REPS;

/// The flags every regenerator accepts.
const SHARED: &str = "seed reps results format";

/// Parsed arguments shared by every regenerator binary.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Master seed for all cells.
    pub seed: u64,
    /// Repetitions per cell.
    pub reps: u32,
    /// Directory artifacts are written into (created on first save).
    pub results_dir: PathBuf,
    /// Artifact format.
    pub format: ReportFormat,
    /// Every checked flag, including a binary's own extras.
    pub flags: Flags,
}

impl BenchArgs {
    /// Parse the process arguments, exiting with usage on a bad flag.
    pub fn parse() -> BenchArgs {
        Self::parse_with("")
    }

    /// [`BenchArgs::parse`] for a binary that also accepts the
    /// space-separated `extra` flags (see [`bnm_core::cli`]).
    pub fn parse_with(extra: &str) -> BenchArgs {
        Self::from_args(std::env::args().skip(1), extra).unwrap_or_else(|e| {
            let flags = bnm_core::cli::synopsis(&format!("{SHARED} {extra}"));
            eprintln!("{e}\nusage: {}", flags.join(" "));
            std::process::exit(2);
        })
    }

    /// Parse from an explicit argument list (testable core of
    /// [`BenchArgs::parse_with`]).
    pub fn from_args<I>(args: I, extra: &str) -> Result<BenchArgs, FlagError>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let flags = Flags::parse(args, &format!("{SHARED} {extra}"))?;
        Ok(BenchArgs {
            seed: flags.seed(),
            reps: flags.reps(PAPER_REPS),
            results_dir: PathBuf::from(flags.text("results").unwrap_or("results")),
            format: flags.format(),
            flags,
        })
    }

    /// The format stdout reports render in: JSON under `--format json`,
    /// aligned text otherwise (the CSV lives in the artifact file).
    pub fn stdout_format(&self) -> ReportFormat {
        match self.format {
            ReportFormat::Json => ReportFormat::Json,
            _ => ReportFormat::Text,
        }
    }

    /// A target cell for a sweep: a method on a browser and OS, at
    /// `reps` repetitions under the master seed.
    pub fn target(&self, (m, b, os): (MethodId, BrowserKind, OsKind), reps: u32) -> CellBuilder {
        ExperimentCell::builder(m, RuntimeSel::Browser(b), os)
            .reps(reps)
            .seed(self.seed)
    }

    /// Print a sweep's table and save it as the artifact `name`; a
    /// sweep that failed is reported and exits 1 without an artifact.
    pub fn publish(&self, name: &str, table: Result<Table, RunError>) {
        let table = table.unwrap_or_else(|e| {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        });
        println!("{}", table.render(self.stdout_format()));
        let path = self.save_artifact(name, &table.to_csv());
        println!("Artifact written to {}", path.display());
    }

    /// Write a CSV artifact under the results directory, honouring the
    /// selected format: `json` transposes the table to an array of
    /// objects and swaps the extension; `text`/`csv` write it verbatim.
    /// Returns the path written.
    pub fn save_artifact(&self, name: &str, csv: &str) -> PathBuf {
        fs::create_dir_all(&self.results_dir).expect("create results dir");
        let (path, contents) = match self.format {
            ReportFormat::Json => {
                let json_name = match name.strip_suffix(".csv") {
                    Some(stem) => format!("{stem}.json"),
                    None => format!("{name}.json"),
                };
                (self.results_dir.join(json_name), csv_to_json(csv))
            }
            _ => (self.results_dir.join(name), csv.to_string()),
        };
        fs::write(&path, contents).expect("write artifact");
        path
    }
}

/// Convert a CSV table (double-quoted fields allowed, no embedded
/// newlines — all our artifacts satisfy this) into a deterministic JSON
/// array of objects keyed by the header row. Numeric fields stay
/// numbers; everything else becomes a string.
pub fn csv_to_json(csv: &str) -> String {
    let mut lines = csv.lines();
    let Some(header) = lines.next() else {
        return "[]".to_string();
    };
    let keys = split_csv_line(header);
    let mut out = String::from("[");
    for (i, line) in lines.filter(|l| !l.is_empty()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        for (j, (k, v)) in keys.iter().zip(split_csv_line(line)).enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape(k));
            out.push_str("\":");
            if v.parse::<f64>().is_ok() && !v.is_empty() {
                out.push_str(&v);
            } else {
                out.push('"');
                out.push_str(&escape(&v));
                out.push('"');
            }
        }
        out.push('}');
    }
    out.push(']');
    out
}

/// Split one CSV line into fields, honouring double-quoted fields (a
/// doubled quote inside one is a literal quote).
fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                chars.next();
                cur.push('"');
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> BenchArgs {
        BenchArgs::from_args(args.split_whitespace(), "").unwrap()
    }

    #[test]
    fn shared_flags_and_their_defaults() {
        let a = parse("--seed 0xAB --reps 7 --results /tmp/r --format json");
        assert_eq!((a.seed, a.reps, a.format), (0xAB, 7, ReportFormat::Json));
        assert_eq!(a.results_dir, PathBuf::from("/tmp/r"));
        assert_eq!(a.stdout_format(), ReportFormat::Json);
        let d = parse("");
        assert_eq!((d.seed, d.reps), (bnm_core::cli::DEFAULT_SEED, PAPER_REPS));
        assert_eq!(d.results_dir, PathBuf::from("results"));
        assert_eq!(parse("--format csv").stdout_format(), ReportFormat::Text);
    }

    #[test]
    fn extras_are_accepted_only_where_declared() {
        let rate = ["--rate-mbps", "0.8"];
        assert!(BenchArgs::from_args(rate, "").is_err());
        let a = BenchArgs::from_args(rate, "rate-mbps").unwrap();
        assert_eq!(a.flags.num("rate-mbps"), Some(0.8));
        assert!(BenchArgs::from_args(["--reps", "0"], "").is_err());
    }

    #[test]
    fn csv_converts_to_json_objects() {
        let json = csv_to_json("method,round,med_ms\nxhr_get,1,4.25\nws,2,0.5\n");
        assert_eq!(
            json,
            "[{\"method\":\"xhr_get\",\"round\":1,\"med_ms\":4.25},\
             {\"method\":\"ws\",\"round\":2,\"med_ms\":0.5}]"
                .replace("             ", "")
        );
        assert_eq!(csv_to_json(""), "[]");
    }

    #[test]
    fn quoted_fields_survive_json_conversion() {
        let json = csv_to_json("a,b\n\"x, y\",\"he said \"\"hi\"\"\"\n");
        assert_eq!(json, "[{\"a\":\"x, y\",\"b\":\"he said \\\"hi\\\"\"}]");
    }

    #[test]
    fn save_artifact_honours_format() {
        let dir = std::env::temp_dir().join("bnm_cli_test");
        let _ = fs::remove_dir_all(&dir);
        let mut a = parse("");
        a.results_dir = dir.clone();
        a.format = ReportFormat::Csv;
        let p = a.save_artifact("t.csv", "a,b\n1,2\n");
        assert!(p.to_string_lossy().ends_with("t.csv"));
        a.format = ReportFormat::Json;
        let p = a.save_artifact("t.csv", "a,b\n1,2\n");
        assert!(p.to_string_lossy().ends_with("t.json"));
        assert_eq!(fs::read_to_string(&p).unwrap(), "[{\"a\":1,\"b\":2}]");
        let _ = fs::remove_dir_all(&dir);
    }
}
