//! The product's environment knobs: one module reads them, the README's
//! table names every one, and a mistyped knob fails the process loudly
//! and promptly: it panics with the `InvalidEnvValue` message where the
//! configuration is first read, instead of being taken as unset or
//! clamped, and the panic does not leave the process waiting on a
//! launch it never started.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The one module that reads the environment.
const CONFIG_MODULE: &str = "crates/core/src/config.rs";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `"DPVK_…` string literal in the `.rs` files under `dir`, with
/// the file (relative to `root`) it sits in; and every such file that
/// calls `std::env::var`/`var_os` into `readers`.
fn knob_literals(
    root: &Path,
    dir: &Path,
    skip: &Path,
    out: &mut BTreeSet<(String, String)>,
    readers: &mut BTreeSet<String>,
) {
    for entry in std::fs::read_dir(dir).expect("source directory reads") {
        let path = entry.expect("directory entry").path();
        if path.starts_with(skip) {
            continue;
        }
        if path.is_dir() {
            knob_literals(root, &path, skip, out, readers);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("source file reads");
            let file = path.strip_prefix(root).expect("under the root").display().to_string();
            for (at, _) in text.match_indices("\"DPVK_") {
                let name: String = text[at + 1..]
                    .chars()
                    .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                    .collect();
                out.insert((name, file.clone()));
            }
            if text.contains("env::var(") || text.contains("env::var_os(") {
                readers.insert(file);
            }
        }
    }
}

/// The README's knob table lists exactly the knobs the library and its
/// binaries read (`dpvk-bench`, which clears them, aside), and every one
/// of them is read in the config module, the only product module that
/// reads the environment.
#[test]
fn the_readme_table_names_every_knob_the_config_module_reads() {
    let root = repo_root().canonicalize().expect("repository root");
    let skip = root.join("crates/bench/src/bin/dpvk-bench");
    let (mut found, mut readers) = (BTreeSet::new(), BTreeSet::new());
    knob_literals(&root, &root.join("src"), &skip, &mut found, &mut readers);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ reads") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            knob_literals(&root, &src, &skip, &mut found, &mut readers);
        }
    }
    let elsewhere: Vec<_> = found.iter().filter(|(_, file)| file != CONFIG_MODULE).collect();
    assert!(elsewhere.is_empty(), "knob literals outside {CONFIG_MODULE}: {elsewhere:?}");
    assert_eq!(
        readers,
        BTreeSet::from([CONFIG_MODULE.to_string()]),
        "modules reading the environment"
    );
    let read: BTreeSet<String> = found.into_iter().map(|(name, _)| name).collect();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README reads");
    let table = readme
        .split("## Environment knobs")
        .nth(1)
        .expect("README has an Environment knobs section")
        .split("\n## ")
        .next()
        .unwrap_or_default();
    let listed: BTreeSet<String> = table
        .lines()
        .filter_map(|l| l.strip_prefix("| `DPVK_"))
        .map(|l| format!("DPVK_{}", &l[..l.find('`').expect("closing backtick")]))
        .collect();
    assert_eq!(listed, read, "README knob table (left) vs the config module's knobs (right)");
}

#[test]
fn bad_knobs_panic_with_their_message_and_exit() {
    let cases = [
        ("DPVK_TRACE", "2"),
        ("DPVK_ENGINE", "tree"),
        ("DPVK_CACHE_CAP", "abc"),
        ("DPVK_POOL_WORKERS", "0"),
        ("DPVK_POOL_WORKERS", "1000"),
        ("DPVK_POOL_WORKERS", "abc"),
    ];
    for (var, value) in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg("table1")
            .env(var, value)
            .env("RUST_BACKTRACE", "0")
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("figures starts");
        let start = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("figures can be waited on") {
                break status;
            }
            if start.elapsed() > Duration::from_secs(60) {
                child.kill().expect("a hung figures can be killed");
                panic!("{var}={value}: the process hung after the knob was read");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().expect("piped"), &mut stderr)
            .expect("stderr reads");
        assert!(!status.success(), "{var}={value} was accepted");
        let message = format!("{var}: invalid value `{value}`: expected");
        assert!(stderr.contains(&message), "{var}={value}: {stderr}");
    }
}
