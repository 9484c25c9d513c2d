//! Admission control: a global in-flight cap with per-tenant fair share.
//!
//! Admission is the server's first degradation tier and the only one that
//! sheds load (the second sheds a deadline already expired on arrival —
//! see `server`). A query is admitted when (a) total in-flight queries
//! are below `max_inflight` and (b) the tenant holds fewer than its fair
//! share `max(1, max_inflight / active_tenants)` of the slots, where
//! `active_tenants` counts tenants with at least one in-flight query
//! (including the candidate). The share
//! recomputes on every admission, so a tenant alone on the box may use
//! every slot, and the arrival of a second tenant immediately halves the
//! first one's headroom for *new* admissions — already-admitted queries
//! are never revoked.
//!
//! Rejections are typed ([`AdmitError`]) and turn into the protocol's
//! `overloaded` response; nothing is silently queued without bound.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Why a query was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The global in-flight cap is reached.
    Capacity { max_inflight: usize },
    /// The tenant already holds its fair share of the slots.
    TenantShare { tenant: String, share: usize },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Capacity { max_inflight } => {
                write!(f, "inflight cap ({max_inflight}) reached")
            }
            AdmitError::TenantShare { tenant, share } => {
                write!(f, "tenant {tenant:?} at fair share ({share})")
            }
        }
    }
}

struct AdmState {
    total: usize,
    tenants: HashMap<String, usize>,
}

/// The admission gate. Shared by every connection handler.
pub struct Admission {
    max_inflight: usize,
    state: Mutex<AdmState>,
    inflight_gauge: &'static lan_obs::Gauge,
}

impl Admission {
    pub fn new(max_inflight: usize) -> Arc<Self> {
        assert!(max_inflight >= 1);
        Arc::new(Admission {
            max_inflight,
            state: Mutex::new(AdmState {
                total: 0,
                tenants: HashMap::new(),
            }),
            inflight_gauge: lan_obs::gauge(lan_obs::names::SERVE_INFLIGHT),
        })
    }

    /// Current in-flight count (test observability).
    pub fn inflight(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).total
    }

    /// Tries to admit one query for `tenant`; the returned token holds
    /// the slot until dropped.
    pub fn try_admit(self: &Arc<Self>, tenant: &str) -> Result<AdmitToken, AdmitError> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.total >= self.max_inflight {
            return Err(AdmitError::Capacity {
                max_inflight: self.max_inflight,
            });
        }
        let held = st.tenants.get(tenant).copied().unwrap_or(0);
        // Active tenants including the candidate, whether or not it holds
        // a slot yet.
        let active = st.tenants.len() + usize::from(held == 0);
        let share = (self.max_inflight / active).max(1);
        if held >= share {
            return Err(AdmitError::TenantShare {
                tenant: tenant.to_string(),
                share,
            });
        }
        st.total += 1;
        *st.tenants.entry(tenant.to_string()).or_insert(0) += 1;
        self.inflight_gauge.set(st.total as i64);
        Ok(AdmitToken {
            adm: Arc::clone(self),
            tenant: tenant.to_string(),
        })
    }

    fn release(&self, tenant: &str) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.total = st.total.saturating_sub(1);
        if let Some(n) = st.tenants.get_mut(tenant) {
            *n -= 1;
            if *n == 0 {
                st.tenants.remove(tenant);
            }
        }
        self.inflight_gauge.set(st.total as i64);
    }
}

/// An admitted query's slot; releasing is infallible and automatic.
pub struct AdmitToken {
    adm: Arc<Admission>,
    tenant: String,
}

impl std::fmt::Debug for AdmitToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmitToken")
            .field("tenant", &self.tenant)
            .finish_non_exhaustive()
    }
}

impl Drop for AdmitToken {
    fn drop(&mut self) {
        self.adm.release(&self.tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_tenant_uses_every_slot() {
        let adm = Admission::new(4);
        let tokens: Vec<AdmitToken> = (0..4).map(|_| adm.try_admit("a").unwrap()).collect();
        assert_eq!(
            adm.try_admit("a").unwrap_err(),
            AdmitError::Capacity { max_inflight: 4 }
        );
        drop(tokens);
        assert_eq!(adm.inflight(), 0);
        assert!(adm.try_admit("a").is_ok());
    }

    #[test]
    fn second_tenant_halves_the_share() {
        let adm = Admission::new(8);
        // Tenant a fills its (sole-tenant) share of 8...
        let a: Vec<AdmitToken> = (0..8).map(|_| adm.try_admit("a").unwrap()).collect();
        // ...so b is refused by capacity, not by share.
        assert_eq!(
            adm.try_admit("b").unwrap_err(),
            AdmitError::Capacity { max_inflight: 8 }
        );
        drop(a);
        // With b holding slots, a's share is 8/2 = 4. Keep the total
        // below capacity (2 + 4 = 6 < 8) so it is the share gate — not
        // the capacity gate, which is checked first — that refuses a.
        let _b: Vec<AdmitToken> = (0..2).map(|_| adm.try_admit("b").unwrap()).collect();
        let _a: Vec<AdmitToken> = (0..4).map(|_| adm.try_admit("a").unwrap()).collect();
        assert_eq!(
            adm.try_admit("a").unwrap_err(),
            AdmitError::TenantShare {
                tenant: "a".into(),
                share: 4
            }
        );
    }

    #[test]
    fn share_never_rounds_to_zero() {
        let adm = Admission::new(2);
        let _a = adm.try_admit("a").unwrap();
        let _b = adm.try_admit("b").unwrap();
        // Three tenants on two slots: share = max(1, 2/3) = 1, and the
        // capacity gate (not a zero share) is what refuses c.
        assert_eq!(
            adm.try_admit("c").unwrap_err(),
            AdmitError::Capacity { max_inflight: 2 }
        );
        drop(_a);
        let _c = adm.try_admit("c").unwrap();
    }

    #[test]
    fn release_on_drop_restores_tenant_headroom() {
        let adm = Admission::new(6);
        // Two tenants → share 3 each; a holds 2 and b fills its share,
        // leaving the total (5) below capacity so b's 4th admit is
        // refused by the share gate.
        let _a: Vec<AdmitToken> = (0..2).map(|_| adm.try_admit("a").unwrap()).collect();
        let b = adm.try_admit("b").unwrap();
        let _b2: Vec<AdmitToken> = (0..2).map(|_| adm.try_admit("b").unwrap()).collect();
        assert!(matches!(
            adm.try_admit("b").unwrap_err(),
            AdmitError::TenantShare { .. }
        ));
        drop(b);
        assert!(adm.try_admit("b").is_ok());
    }
}
