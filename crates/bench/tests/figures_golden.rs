//! `figures all` — Table 1, Figures 6–10, scaling and the ablation, all
//! in modeled cycles — must print exactly the committed golden output
//! (`src/bin/figures_all.txt`), under whichever engine `DPVK_ENGINE`
//! selects. A change meant to leave modeled results alone is held to
//! that mechanically.
//!
//! A change meant to move the figures re-records the file with
//! `DPVK_BLESS=1 cargo test -p dpvk-bench --test figures_golden` and
//! commits it with the change.

use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin/figures_all.txt");

#[test]
fn figures_all_prints_the_golden_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("all")
        // Tracing appends its summary to stdout.
        .env_remove("DPVK_TRACE")
        .output()
        .expect("figures runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "figures all failed: {stderr}");
    let got = String::from_utf8(out.stdout).expect("figures prints UTF-8");
    if std::env::var_os("DPVK_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("golden file writes");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden file reads");
    if got != want {
        let n = got.lines().zip(want.lines()).take_while(|(g, w)| g == w).count();
        panic!(
            "figures all differs from {GOLDEN} at line {}:\n  got:  {:?}\n  want: {:?}",
            n + 1,
            got.lines().nth(n),
            want.lines().nth(n),
        );
    }
}
