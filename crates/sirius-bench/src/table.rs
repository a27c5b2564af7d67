//! Tabular output: aligned stdout tables plus CSV files under `results/`.
//!
//! Every figure harness prints the same rows/series the paper reports and
//! mirrors them to a CSV so EXPERIMENTS.md numbers are regenerable.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Write `results/<name>` atomically: the contents land in
/// `results/.<name>.<pid>.<seq>.tmp` first and are renamed into place, so
/// an interrupted or concurrent run can never leave a truncated artifact
/// (rename within a directory is atomic on every platform we target).
///
/// The tmp suffix is unique per process *and* per call (pid + monotonic
/// counter): with a fixed tmp name, two concurrent writers of the same
/// artifact — exactly what `ci.sh bench-smoke` does with its
/// serial-vs-parallel binary comparison — could interleave
/// `write(tmp)` / `rename(tmp)` and rename each other's half-written
/// file into place. With unique tmps the final rename is always of a
/// fully-written file; last writer wins whole.
pub fn write_results_atomic(name: &str, contents: &str) -> io::Result<PathBuf> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir)?;
    let tmp = dir.join(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, contents)?;
    let path = dir.join(name);
    match fs::rename(&tmp, &path) {
        Ok(()) => Ok(path),
        Err(e) => {
            // Don't strand the tmp on a failed rename (e.g. target dir
            // vanished between create_dir_all and here).
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// A simple column-aligned table that can also serialize itself as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{c:>w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// CSV serialization (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Print to stdout and write `results/<name>.csv` (atomically, via
    /// [`write_results_atomic`]).
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let file = format!("{name}.csv");
        match write_results_atomic(&file, &self.to_csv()) {
            Ok(path) => println!("[csv] {}\n", path.display()),
            Err(e) => eprintln!("warning: could not write results/{file}: {e}"),
        }
    }
}

/// Format a float with `d` decimals.
pub fn f(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

/// Format an optional FCT duration as milliseconds (the paper's axes).
pub fn fct_ms(v: Option<sirius_core::units::Duration>) -> String {
    match v {
        Some(d) => format!("{:.5}", d.as_ms_f64()),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Table {
        /// 64-bit FNV-1a of [`Table::to_csv`]: the figure modules' tests
        /// pin their Smoke-scale tables with it, so a refactor of how a
        /// point is run or scored must reproduce every printed cell.
        pub(crate) fn csv_digest(&self) -> u64 {
            self.to_csv().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }

        /// Fail, printing the table, unless its CSV digest is `want`.
        pub(crate) fn assert_csv_digest(&self, want: u64) {
            let got = self.csv_digest();
            assert_eq!(
                got,
                want,
                "{}: CSV digest {got:#018x}, pinned {want:#018x}\n{}",
                self.title,
                self.to_csv()
            );
        }
    }

    #[test]
    fn csv_digest_is_fnv1a_of_the_csv() {
        // The reference value is FNV-1a of the two bytes "a\n".
        let t = Table::new("demo", &["a"]);
        assert_eq!(t.to_csv(), "a\n");
        assert_eq!(t.csv_digest(), 0x089b_dc07_b544_e7b2);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["load", "value"]);
        t.row(vec!["10".into(), "0.5".into()]);
        t.row(vec!["100".into(), "12.25".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("load"));
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next().unwrap(), "load,value");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    /// No tmp file for `name` left behind in `results/`.
    fn assert_no_tmps(name: &str) {
        let prefix = format!(".{name}.");
        for e in fs::read_dir("results").unwrap() {
            let f = e.unwrap().file_name().into_string().unwrap();
            assert!(
                !(f.starts_with(&prefix) && f.ends_with(".tmp")),
                "tmp file {f} must be renamed away"
            );
        }
    }

    #[test]
    fn atomic_write_lands_content_and_leaves_no_tmp() {
        let name = "table_atomic_write_selftest.csv";
        let path = write_results_atomic(name, "a,b\n1,2\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        assert_no_tmps(name);
        // Overwrite is atomic too: a second write replaces, never truncates.
        let path2 = write_results_atomic(name, "a,b\n3,4\n").unwrap();
        assert_eq!(fs::read_to_string(&path2).unwrap(), "a,b\n3,4\n");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(path.parent().unwrap());
    }

    /// Regression test for the fixed-tmp-name race: two writers hammering
    /// the same artifact must always leave one writer's *complete*
    /// content — with the old shared `.<name>.tmp`, writer A could rename
    /// writer B's half-written tmp into place (or the rename could fail
    /// outright on platforms where the tmp vanishes under it).
    #[test]
    fn concurrent_writers_always_leave_one_complete_artifact() {
        let name = "table_two_writer_selftest.csv";
        // Large enough that a write() is unlikely to be a single atomic
        // syscall-visible unit if tmps were shared.
        let a = format!("a\n{}", "A,1\n".repeat(20_000));
        let b = format!("b\n{}", "B,2\n".repeat(20_000));
        std::thread::scope(|s| {
            for content in [&a, &b] {
                s.spawn(move || {
                    for _ in 0..50 {
                        write_results_atomic(name, content).unwrap();
                    }
                });
            }
        });
        let path = PathBuf::from("results").join(name);
        let last = fs::read_to_string(&path).unwrap();
        assert!(
            last == a || last == b,
            "artifact must be exactly one writer's content, got {} bytes",
            last.len()
        );
        assert_no_tmps(name);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(0.12345, 2), "0.12");
        assert_eq!(fct_ms(None), "-");
        assert_eq!(
            fct_ms(Some(sirius_core::units::Duration::from_us(10))),
            "0.01000"
        );
    }
}
