//! No archived byte moves, and no observer moves one.
//!
//! Every number in `results_table2.txt` … `results_table6.txt` is
//! virtual time or a deterministic counter, so each archive is rendered
//! in-process through the bin's own body ([`ARCHIVES`]) and compared
//! byte for byte; a mismatch names the file, shows the first differing
//! line and prints the command that regenerates it. The observer planes
//! charge no virtual time and consume no randomness, so a table renders
//! the same bytes whatever is attached, and same-seed artifacts are
//! byte-identical:
//!
//! * an attached but empty fault plane (`--faults`) changes nothing,
//!   census included;
//! * the packet tracer (`--trace-out`) changes nothing, writes the same
//!   trace twice, and the trace is JSON;
//! * the profiler and the metrics sampler (`--profile`,
//!   `--profile-out`, `--metrics-out`) change nothing and write the
//!   same artifacts twice (exact time conservation is asserted inside
//!   the export, so a violation fails the render itself);
//! * Table 5 at `--quick --census` renders identically twice, and every
//!   derived shape check in it passes.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use psd::bench::json::Json;
use psd::bench::render::{Archive, ARCHIVES};

fn archive(bin: &str) -> &'static Archive {
    ARCHIVES
        .iter()
        .find(|a| a.bin == bin)
        .unwrap_or_else(|| panic!("{bin} is not an archived table"))
}

/// What `bin tokens…` prints, rendered as a fresh process would: the
/// mbuf gauges read per-thread pool state, so the pools start empty.
fn render(bin: &str, tokens: &[&str]) -> String {
    psd::mbuf::drain_pools();
    psd::mbuf::reset_pool_stats();
    archive(bin)
        .render(tokens)
        .unwrap_or_else(|violation| panic!("{violation}"))
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn reproduces(bin: &str) {
    let a = archive(bin);
    let archived = std::fs::read_to_string(root().join(a.file))
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", a.file));
    let rendered = render(a.bin, a.args);
    if rendered == archived {
        return;
    }
    let same = archived.lines().zip(rendered.lines());
    let line = same.take_while(|(was, now)| was == now).count();
    let was = archived.lines().nth(line).unwrap_or("<end of file>");
    let now = rendered.lines().nth(line).unwrap_or("<end of output>");
    panic!(
        "{} no longer reproduces; first difference at line {}:\n  archived: {was}\n  rendered: {now}\n\
         if the change is intended, regenerate it and say why:\n  \
         cargo build --release --offline -p psd-bench && {}",
        a.file,
        line + 1,
        a.command()
    );
}

#[test]
fn table2_archive_reproduces() {
    reproduces("table2");
}

#[test]
fn table3_archive_reproduces() {
    reproduces("table3");
}

#[test]
fn table4_archive_reproduces() {
    reproduces("table4");
}

#[test]
fn table5_archive_reproduces() {
    reproduces("table5");
}

#[test]
fn table6_archive_reproduces() {
    reproduces("table6");
}

#[test]
fn every_committed_archive_is_registered() {
    let mut committed: Vec<String> = std::fs::read_dir(root())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|f| f.starts_with("results_") && f.ends_with(".txt"))
        .collect();
    committed.sort();
    let registered: Vec<&str> = ARCHIVES.iter().map(|a| a.file).collect();
    assert_eq!(committed, registered);
}

/// A scratch directory for one test's artifacts, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("psd-archives-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).display().to_string()
    }

    fn read(&self, file: &str) -> String {
        std::fs::read_to_string(self.0.join(file)).unwrap()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const QUICK_TABLE2: [&str; 3] = ["--quick", "--decstation", "--census"];

/// Table 2 at [`QUICK_TABLE2`] with nothing else attached: what every
/// observed render must equal.
fn plain_table2() -> &'static str {
    static PLAIN: OnceLock<String> = OnceLock::new();
    PLAIN.get_or_init(|| render("table2", &QUICK_TABLE2))
}

fn table2_with(extra: &[&str]) -> String {
    render("table2", &[&QUICK_TABLE2[..], extra].concat())
}

#[test]
fn an_empty_fault_plane_moves_no_byte() {
    assert_eq!(table2_with(&["--faults"]), plain_table2());
}

#[test]
fn the_tracer_moves_no_byte_and_writes_the_same_json_twice() {
    let dir = Scratch::new("trace");
    let (a, b) = (dir.path("a.json"), dir.path("b.json"));
    assert_eq!(table2_with(&["--trace-out", &a]), plain_table2());
    assert_eq!(table2_with(&["--trace-out", &b]), plain_table2());
    let trace = dir.read("a.json");
    assert!(trace == dir.read("b.json"), "same-seed traces differ");
    let has_events = |doc: &Json| match doc {
        Json::Obj(members) => members
            .iter()
            .any(|(k, v)| k == "traceEvents" && matches!(v, Json::Arr(e) if !e.is_empty())),
        _ => false,
    };
    let doc = Json::parse(&trace).unwrap_or_else(|e| panic!("the trace is not JSON: {e}"));
    assert!(has_events(&doc), "the trace recorded no events");
}

#[test]
fn the_profiler_and_metrics_move_no_byte_and_export_the_same_artifacts_twice() {
    let dir = Scratch::new("observe");
    for run in ["a", "b"] {
        let (profile, metrics) = (
            dir.path(&format!("profile-{run}")),
            dir.path(&format!("metrics-{run}")),
        );
        let observed = table2_with(&[
            "--profile",
            "--profile-out",
            &profile,
            "--metrics-out",
            &metrics,
        ]);
        assert_eq!(observed, plain_table2(), "run {run}");
    }
    for kind in ["profile", "metrics"] {
        let a = dir.read(&format!("{kind}-a"));
        assert!(!a.is_empty());
        assert!(
            a == dir.read(&format!("{kind}-b")),
            "same-seed {kind} artifacts differ"
        );
    }
}

#[test]
fn table5_quick_is_deterministic_and_its_shape_checks_pass() {
    let args = ["--quick", "--census"];
    let first = render("table5", &args);
    assert_eq!(render("table5", &args), first);
    assert!(first.contains("PASS"), "{first}");
    assert!(!first.contains("FAIL"), "{first}");
}
