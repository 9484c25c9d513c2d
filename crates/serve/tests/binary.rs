//! The `lan-serve` binary end to end, as two processes: a server booted
//! from the environment on an ephemeral loopback port, and the binary's
//! own `--probe` client, which drives concurrent clients through the
//! protocol, scrapes `/metrics`, pings, and asks for a shutdown. Both must
//! exit 0 and the server must report a clean shutdown, within a deadline.
//!
//! `equivalence.rs` pins what a served answer is; this test pins that the
//! shipped binary boots, serves and stops.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Database size of the served index: small enough to build in seconds
/// in a debug build.
const GRAPHS: &str = "20";

/// Runs `lan-serve` with every inherited `LAN_*` variable removed, so the
/// test's own environment cannot change what is served.
fn lan_serve(vars: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lan-serve"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LAN_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(vars.iter().copied());
    cmd
}

/// A spawned process that is killed and reaped when dropped, so a failed
/// assertion or a missed deadline never leaves it running.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Waits for `child` until `deadline`, failing the test when the deadline
/// passes first.
fn wait_until(child: &mut Reaped, deadline: Instant, what: &str) -> ExitStatus {
    loop {
        if let Some(status) = child.0.try_wait().expect("poll child") {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "{what} did not exit before the deadline"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn server_boots_serves_a_probe_and_shuts_down_cleanly() {
    let deadline = Instant::now() + Duration::from_secs(180);
    let mut server = Reaped(
        lan_serve(&[
            ("LAN_SERVE_ADDR", "127.0.0.1:0"),
            ("LAN_SERVE_SHARDS", "2"),
            ("LAN_SERVE_GRAPHS", GRAPHS),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn server"),
    );

    // Forward the server's stderr line by line, so the test can wait on it
    // with a timeout and the pipe never fills.
    let stderr = server.0.stderr.take().unwrap();
    let (tx, lines) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut log = Vec::new();
    let next_line = |log: &mut Vec<String>| {
        let left = deadline.saturating_duration_since(Instant::now());
        let line = lines.recv_timeout(left).ok()?;
        log.push(line.clone());
        Some(line)
    };

    let addr = loop {
        let Some(line) = next_line(&mut log) else {
            panic!(
                "no `listening on` line from the server:\n{}",
                log.join("\n")
            );
        };
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let mut probe = Reaped(
        lan_serve(&[("LAN_SERVE_GRAPHS", GRAPHS)])
            .args(["--probe", &addr, "--clients", "4", "--requests", "16"])
            .arg("--shutdown")
            .spawn()
            .expect("spawn probe"),
    );
    let probe_status = wait_until(&mut probe, deadline, "the probe");
    let server_status = wait_until(&mut server, deadline, "the server");
    while next_line(&mut log).is_some() {}
    reader.join().unwrap();

    assert!(probe_status.success(), "probe failed: {probe_status}");
    assert!(
        server_status.success(),
        "server failed: {server_status}\n{}",
        log.join("\n")
    );
    assert!(
        log.iter().any(|l| l.contains("server shut down cleanly")),
        "no clean-shutdown line:\n{}",
        log.join("\n")
    );
}
