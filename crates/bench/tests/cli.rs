//! The bench bins are strict about their command lines: what was typed
//! is either understood or refused (exit 2, a `usage:` line on stderr,
//! nothing measured and nothing on stdout) — never silently replaced by
//! a default.

use std::process::Command;

#[test]
fn misuse_exits_2_with_usage_and_help_exits_0() {
    let refused: [(&str, &[&str]); 9] = [
        (env!("CARGO_BIN_EXE_table4"), &["--round", "5"]),
        (env!("CARGO_BIN_EXE_protolat"), &["--config", "typo"]),
        (env!("CARGO_BIN_EXE_protolat"), &["--rounds", "abc"]),
        (env!("CARGO_BIN_EXE_ttcp"), &["--platform", "vax"]),
        (env!("CARGO_BIN_EXE_table2"), &["--quick", "--trace-out"]),
        (env!("CARGO_BIN_EXE_table5"), &["--nope"]),
        // Flags and forms that were removed must fail loudly, not
        // measure a default.
        (env!("CARGO_BIN_EXE_table6"), &["--json", "x"]),
        (env!("CARGO_BIN_EXE_table6"), &["--quick"]),
        (env!("CARGO_BIN_EXE_benchdiff"), &["--check", "a", "b"]),
    ];
    for (bin, args) in refused {
        let out = Command::new(bin).args(args).output().expect("bin runs");
        let what = format!("{bin} {args:?}");
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(out.stdout.is_empty(), "{what} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.lines().any(|l| l.starts_with("usage: ")),
            "{what}: {stderr}"
        );
    }

    let help = Command::new(env!("CARGO_BIN_EXE_table6"))
        .arg("--help")
        .output()
        .expect("table6 runs");
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage: table6"));
}
