//! The one command-line reader behind every `psd-bench` bin.
//!
//! A bin declares its flags by asking for them — [`Args::flag`],
//! [`Args::value`], [`Args::parsed`], [`Args::choice`] — and then calls
//! [`Args::finish`]. Every request consumes the matching tokens and adds
//! the flag to the bin's usage line, so the usage text is generated from
//! the declarations and cannot drift from them. `finish` is strict: a
//! token nobody asked for, a flag missing its value, an unparsable
//! number or an unknown name prints the problem and the usage line to
//! stderr and exits 2 before the bin has printed anything — a
//! measurement tool must never run a default in place of what was typed.

use std::fmt::Display;
use std::str::FromStr;

use psd_sim::Platform;
use psd_systems::SystemConfig;

/// Short names accepted by `--config`; every configuration's
/// [`SystemConfig::label`] is accepted too.
const CONFIGS: &[(&str, SystemConfig)] = &[
    ("mach25", SystemConfig::Mach25InKernel),
    ("in-kernel", SystemConfig::Mach25InKernel),
    ("ultrix", SystemConfig::Ultrix42InKernel),
    ("386bsd", SystemConfig::Bsd386InKernel),
    ("ux", SystemConfig::UxServer),
    ("server", SystemConfig::UxServer),
    ("bnr2ss", SystemConfig::Bnr2ssServer),
    ("library-ipc", SystemConfig::LibraryIpc),
    ("library-shm", SystemConfig::LibraryShm),
    ("library-shm-ipf", SystemConfig::LibraryShmIpf),
    ("library", SystemConfig::LibraryShmIpf),
];

/// Short names accepted by `--platform`, beside [`Platform::label`].
const PLATFORMS: &[(&str, Platform)] = &[
    ("decstation", Platform::DecStation5000_200),
    ("gateway", Platform::Gateway486),
    ("i486", Platform::Gateway486),
];

/// A bin's command line: the tokens not yet claimed, the usage line
/// built so far, and the first problem met.
pub struct Args {
    bin: &'static str,
    tokens: Vec<String>,
    usage: String,
    error: Option<String>,
}

impl Args {
    /// The process's own command line.
    pub fn from_env(bin: &'static str) -> Args {
        Args::new(bin, std::env::args().skip(1))
    }

    /// A command line given as tokens (what a test drives).
    pub fn new(bin: &'static str, tokens: impl IntoIterator<Item = String>) -> Args {
        Args {
            bin,
            tokens: tokens.into_iter().collect(),
            usage: String::new(),
            error: None,
        }
    }

    /// The bin's name, for its own diagnostics.
    pub fn bin(&self) -> &'static str {
        self.bin
    }

    fn declare(&mut self, text: &str) {
        self.usage.push(' ');
        self.usage.push_str(text);
    }

    fn fail(&mut self, problem: String) {
        self.error.get_or_insert(problem);
    }

    /// True when the boolean flag `name` was given.
    pub fn flag(&mut self, name: &str) -> bool {
        self.declare(&format!("[{name}]"));
        let before = self.tokens.len();
        self.tokens.retain(|t| t != name);
        self.tokens.len() != before
    }

    /// The value following `name`, described as `what` in the usage
    /// line. A following flag is not a value.
    pub fn value(&mut self, name: &str, what: &str) -> Option<String> {
        self.declare(&format!("[{name} {what}]"));
        let at = self.tokens.iter().position(|t| t == name)?;
        self.tokens.remove(at);
        if self.tokens.get(at).is_none_or(|v| v.starts_with("--")) {
            self.fail(format!("{name} needs a value ({what})"));
            return None;
        }
        Some(self.tokens.remove(at))
    }

    /// [`Args::value`] parsed as a `T`.
    pub fn parsed<T: FromStr>(&mut self, name: &str, what: &str) -> Option<T>
    where
        T::Err: Display,
    {
        let text = self.value(name, what)?;
        match text.parse() {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{name}: cannot parse '{text}': {e}"));
                None
            }
        }
    }

    /// [`Args::value`] looked up among a table's short names and each
    /// entry's `label`, if it has one.
    fn lookup<T: Copy>(
        &mut self,
        name: &str,
        table: &[(&str, T)],
        label: impl Fn(T) -> Option<&'static str>,
    ) -> Option<T> {
        let text = self.value(name, "NAME")?;
        let hit = table
            .iter()
            .find(|(short, v)| *short == text || label(*v) == Some(text.as_str()));
        if hit.is_none() {
            let names: Vec<&str> = table.iter().map(|(short, _)| *short).collect();
            self.fail(format!(
                "{name}: unknown name '{text}' (one of: {})",
                names.join(", ")
            ));
        }
        hit.map(|(_, v)| *v)
    }

    /// [`Args::value`] looked up in a name table.
    pub fn choice<T: Copy>(&mut self, name: &str, table: &[(&str, T)]) -> Option<T> {
        self.lookup(name, table, |_| None)
    }

    /// `--config`: a short name or a [`SystemConfig::label`].
    pub fn config(&mut self) -> Option<SystemConfig> {
        self.lookup("--config", CONFIGS, |c| Some(c.label()))
    }

    /// `--platform`: a short name or a [`Platform::label`].
    pub fn platform(&mut self) -> Option<Platform> {
        self.lookup("--platform", PLATFORMS, |p| Some(p.label()))
    }

    /// Ends parsing. `--help`/`-h` prints the usage line and exits 0;
    /// any recorded problem or unclaimed token exits 2 with the usage
    /// line on stderr.
    pub fn finish(mut self) {
        let usage = format!("usage: {}{}", self.bin, self.usage);
        if self.tokens.iter().any(|t| t == "--help" || t == "-h") {
            println!("{usage}");
            std::process::exit(0);
        }
        if let Some(stray) = self.tokens.first().cloned() {
            self.fail(format!("unexpected argument '{stray}'"));
        }
        if let Some(problem) = self.error {
            eprintln!("{}: {problem}\n{usage}", self.bin);
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::new("t", tokens.iter().map(|t| t.to_string()))
    }

    #[test]
    fn getters_claim_tokens_build_the_usage_line_and_record_misuse() {
        let label = SystemConfig::LibraryShm.label();
        let mut a = args(&["--quick", "--rounds", "5", "--config", label]);
        assert!(a.flag("--quick"));
        assert!(!a.flag("--slow"));
        assert_eq!(a.parsed::<u32>("--rounds", "N"), Some(5));
        assert_eq!(a.config(), Some(SystemConfig::LibraryShm));
        assert_eq!(a.platform(), None);
        assert!(a.tokens.is_empty() && a.error.is_none());
        assert_eq!(
            a.usage,
            " [--quick] [--slow] [--rounds N] [--config NAME] [--platform NAME]"
        );

        for (tokens, problem) in [
            (&["--rounds", "abc"][..], "cannot parse 'abc'"),
            (&["--rounds"][..], "--rounds needs a value"),
            (&["--rounds", "--quick"][..], "--rounds needs a value"),
            (&["--platform", "vax"][..], "unknown name 'vax'"),
        ] {
            let mut a = args(tokens);
            assert_eq!(a.parsed::<u32>("--rounds", "N"), None);
            assert_eq!(a.platform(), None);
            assert!(a.error.as_deref().unwrap().contains(problem), "{tokens:?}");
        }
    }
}
