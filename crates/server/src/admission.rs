//! Admission control for the network front door.
//!
//! Every connection is checked *before* any session state is built:
//! a server-wide live-session cap (reject `Overloaded`) and a per-IP
//! cap (reject `Busy`). Rejected connections get a typed wire notice
//! and are closed — they never consume a worker, a connection's
//! state, or a frame-clock slot, which is what keeps an accept-flood from
//! degrading admitted sessions. Slots release on [`AdmitGuard`] drop,
//! and a slot travels with its session's connection, so every exit
//! path (clean done, eviction, handshake failure, a panicking job)
//! returns capacity.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::protocol::RejectReason;

struct Counts {
    live: usize,
    per_ip: HashMap<IpAddr, usize>,
}

/// The front door's admission policy; cheap to share via `Arc`.
pub struct Admission {
    max_sessions: usize,
    max_per_ip: usize,
    counts: Mutex<Counts>,
}

impl Admission {
    /// Policy admitting at most `max_sessions` live sessions overall
    /// and `max_per_ip` per client address (both minimum 1).
    pub fn new(max_sessions: usize, max_per_ip: usize) -> Admission {
        Admission {
            max_sessions: max_sessions.max(1),
            max_per_ip: max_per_ip.max(1),
            counts: Mutex::new(Counts {
                live: 0,
                per_ip: HashMap::new(),
            }),
        }
    }

    /// Try to admit a connection from `ip`. The returned guard holds
    /// the slot until dropped.
    pub fn admit(self: &Arc<Self>, ip: IpAddr) -> Result<AdmitGuard, RejectReason> {
        let mut c = self.counts.lock();
        if c.live >= self.max_sessions {
            return Err(RejectReason::Overloaded);
        }
        let per_ip = c.per_ip.entry(ip).or_insert(0);
        if *per_ip >= self.max_per_ip {
            return Err(RejectReason::Busy);
        }
        *per_ip += 1;
        c.live += 1;
        Ok(AdmitGuard {
            admission: Arc::clone(self),
            ip,
        })
    }

    /// Live admitted sessions right now.
    pub fn live(&self) -> usize {
        self.counts.lock().live
    }

    fn release(&self, ip: IpAddr) {
        let mut c = self.counts.lock();
        c.live -= 1;
        if let Some(n) = c.per_ip.get_mut(&ip) {
            *n -= 1;
            if *n == 0 {
                c.per_ip.remove(&ip);
            }
        }
    }
}

/// RAII admission slot; dropping it frees the session's capacity.
pub struct AdmitGuard {
    admission: Arc<Admission>,
    ip: IpAddr,
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        self.admission.release(self.ip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> IpAddr {
        IpAddr::from([127, 0, 0, last])
    }

    #[test]
    fn caps_enforced_and_slots_release() {
        let adm = Arc::new(Admission::new(3, 2));
        let a = adm.admit(ip(1)).unwrap();
        let _b = adm.admit(ip(1)).unwrap();
        // Per-IP cap for .1 is used up; another address still fits.
        assert_eq!(adm.admit(ip(1)).err(), Some(RejectReason::Busy));
        let _c = adm.admit(ip(2)).unwrap();
        // Global cap reached: even a fresh address is refused.
        assert_eq!(adm.admit(ip(3)).err(), Some(RejectReason::Overloaded));
        assert_eq!(adm.live(), 3);
        // Dropping a slot frees both caps.
        drop(a);
        assert_eq!(adm.live(), 2);
        let _d = adm.admit(ip(1)).unwrap();
    }
}
