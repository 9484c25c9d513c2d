//! Server configuration from `LAN_SERVE_*` environment variables.
//!
//! Every knob parses through `lan_par::env` — a malformed value yields a
//! typed [`EnvError`] on the `try_` path and a once-per-key stderr
//! warning plus the documented default on the total path, never a silent
//! fallback.

use lan_par::env::{self, EnvError};
use std::net::SocketAddr;

/// Default listen address (`LAN_SERVE_ADDR`). Port 0 delegates port
/// choice to the OS — the bound address is reported by the handle.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7470";
/// Default global in-flight admission cap (`LAN_SERVE_MAX_INFLIGHT`).
pub const DEFAULT_MAX_INFLIGHT: usize = 64;

/// Resolved serving configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Listen address.
    pub addr: SocketAddr,
    /// Global cap on admitted-but-unanswered queries; arrivals beyond it
    /// get a typed `overloaded` response.
    pub max_inflight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: DEFAULT_ADDR.parse().expect("default address parses"),
            max_inflight: DEFAULT_MAX_INFLIGHT,
        }
    }
}

fn socket_addr(s: &str) -> Result<SocketAddr, String> {
    s.parse()
        .map_err(|_| format!("expected host:port socket address, got {s:?}"))
}

impl ServeConfig {
    /// Reads the `LAN_SERVE_*` variables; any malformed value is a typed
    /// error naming the key, the raw value, and the reason.
    pub fn try_from_env() -> Result<Self, EnvError> {
        let mut cfg = ServeConfig::default();
        if let Some(addr) = env::parse_var("LAN_SERVE_ADDR", socket_addr)? {
            cfg.addr = addr;
        }
        if let Some(cap) = env::parse_var("LAN_SERVE_MAX_INFLIGHT", env::positive_usize)? {
            cfg.max_inflight = cap;
        }
        Ok(cfg)
    }

    /// Total variant of [`ServeConfig::try_from_env`]: malformed values
    /// warn once to stderr and keep their defaults.
    pub fn from_env() -> Self {
        let mut cfg = ServeConfig::default();
        if let Some(addr) = env::parse_var_or_warn("LAN_SERVE_ADDR", socket_addr) {
            cfg.addr = addr;
        }
        if let Some(cap) = env::parse_var_or_warn("LAN_SERVE_MAX_INFLIGHT", env::positive_usize) {
            cfg.max_inflight = cap;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lan_par::testenv::with_env;

    const KEYS: [&str; 2] = ["LAN_SERVE_ADDR", "LAN_SERVE_MAX_INFLIGHT"];

    fn clear() -> Vec<(&'static str, Option<&'static str>)> {
        KEYS.iter().map(|&k| (k, None)).collect()
    }

    #[test]
    fn defaults_when_unset() {
        with_env(&clear(), || {
            let cfg = ServeConfig::try_from_env().unwrap();
            assert_eq!(cfg, ServeConfig::default());
            assert_eq!(cfg.addr.port(), 7470);
            assert_eq!(cfg.max_inflight, DEFAULT_MAX_INFLIGHT);
        });
    }

    #[test]
    fn valid_values_parse() {
        let mut vars = clear();
        vars[0].1 = Some("0.0.0.0:0");
        vars[1].1 = Some("256");
        with_env(&vars, || {
            let cfg = ServeConfig::try_from_env().unwrap();
            assert_eq!(cfg.addr, "0.0.0.0:0".parse().unwrap());
            assert_eq!(cfg.max_inflight, 256);
        });
    }

    /// Every malformed value must reject with a typed error naming its
    /// key — no silent fallback.
    #[test]
    fn reject_set() {
        let rejects: [(&str, &[&str]); 2] = [
            (
                "LAN_SERVE_ADDR",
                &[
                    "nonsense",
                    "localhost",
                    "1.2.3.4",
                    ":80",
                    "1.2.3.4:notaport",
                ],
            ),
            ("LAN_SERVE_MAX_INFLIGHT", &["0", "-64", "lots", ""]),
        ];
        for (key, values) in rejects {
            for v in values {
                let mut vars = clear();
                let slot = vars.iter_mut().find(|(k, _)| *k == key).unwrap();
                slot.1 = Some(v);
                with_env(&vars, || {
                    let err = ServeConfig::try_from_env()
                        .expect_err(&format!("{key}={v:?} must be rejected"));
                    assert_eq!(err.key, key);
                    assert_eq!(err.value, *v);
                });
            }
        }
    }

    /// The total path keeps defaults for malformed values (and warns once,
    /// which `reset_warnings` makes observable elsewhere).
    #[test]
    fn total_path_falls_back_to_defaults() {
        let mut vars = clear();
        vars[0].1 = Some("nowhere");
        vars[1].1 = Some("0");
        with_env(&vars, || {
            lan_par::env::reset_warnings();
            let cfg = ServeConfig::from_env();
            assert_eq!(cfg.addr, ServeConfig::default().addr);
            assert_eq!(cfg.max_inflight, DEFAULT_MAX_INFLIGHT);
        });
    }
}
