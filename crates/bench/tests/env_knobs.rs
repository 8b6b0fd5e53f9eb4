//! A mistyped configuration knob fails the process loudly and promptly:
//! it panics with the `InvalidEnvValue` message where the knob is first
//! read, instead of being taken as unset or clamped, and the panic does
//! not leave the process waiting on a launch it never started.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn bad_knobs_panic_with_their_message_and_exit() {
    let cases = [
        ("DPVK_TRACE", "2"),
        ("DPVK_TRACE_UOPS", "nope"),
        ("DPVK_TRACE_EVENTS", "abc"),
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
