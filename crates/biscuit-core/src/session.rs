//! Multi-user sessions — the paper's stated follow-on work (§VIII: "we are
//! extending Biscuit to incorporate support for multiple user sessions").
//!
//! A session is a named tenant with its own resource envelope: a cap on
//! simultaneously open host↔device data channels and a byte budget inside
//! the device's user memory arena. Applications started under a session
//! draw from that envelope instead of the device-wide pool, so one
//! ill-behaved user cannot starve another — the safety goal §II-B calls
//! out, enforced by accounting since the hardware has no MMU.

use std::sync::Arc;

use biscuit_sim::sync::Mutex;

use crate::error::{BiscuitError, BiscuitResult};

/// Resource envelope granted to one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionQuota {
    /// Maximum simultaneously open data channels.
    pub max_channels: usize,
    /// Maximum bytes of device user memory across the session's running
    /// SSDlets.
    pub max_memory: u64,
}

impl Default for SessionQuota {
    fn default() -> Self {
        SessionQuota {
            max_channels: 4,
            max_memory: 16 << 20,
        }
    }
}

#[derive(Debug, Default)]
struct SessionUsage {
    channels: usize,
    memory: u64,
    peak_memory: u64,
}

/// A tenant of the Biscuit runtime (cheaply cloneable handle).
///
/// # Examples
///
/// ```
/// use biscuit_core::{Session, SessionQuota};
///
/// let alice = Session::new("alice", SessionQuota {
///     max_channels: 2,
///     max_memory: 4 << 20,
/// });
/// assert_eq!(alice.channels_in_use(), 0);
/// // Applications created with `Application::new_in_session(&ssd, name,
/// // &alice)` draw channels and device memory from this envelope.
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    inner: Arc<SessionInner>,
}

#[derive(Debug)]
struct SessionInner {
    name: String,
    quota: SessionQuota,
    usage: Mutex<SessionUsage>,
}

impl Session {
    /// Creates a session with the given quota.
    pub fn new(name: impl Into<String>, quota: SessionQuota) -> Session {
        Session {
            inner: Arc::new(SessionInner {
                name: name.into(),
                quota,
                usage: Mutex::new(SessionUsage::default()),
            }),
        }
    }

    /// Channels currently held by this session.
    pub fn channels_in_use(&self) -> usize {
        self.inner.usage.lock().channels
    }

    /// Device user memory currently charged to this session.
    pub fn memory_in_use(&self) -> u64 {
        self.inner.usage.lock().memory
    }

    /// Peak device user memory this session ever held.
    pub fn peak_memory(&self) -> u64 {
        self.inner.usage.lock().peak_memory
    }

    /// Reserves one data channel from the session envelope.
    ///
    /// # Errors
    ///
    /// Returns [`BiscuitError::NoChannel`] when the session cap is reached.
    pub(crate) fn take_channel(&self) -> BiscuitResult<()> {
        let mut usage = self.inner.usage.lock();
        if usage.channels >= self.inner.quota.max_channels {
            return Err(BiscuitError::NoChannel {
                open: usage.channels,
                limit: self.inner.quota.max_channels,
            });
        }
        usage.channels += 1;
        Ok(())
    }

    /// Returns `n` channels to the envelope.
    pub(crate) fn give_channels(&self, n: usize) {
        let mut usage = self.inner.usage.lock();
        debug_assert!(usage.channels >= n, "session channel underflow");
        usage.channels -= n;
    }

    /// Charges `bytes` of device user memory to the session.
    ///
    /// # Errors
    ///
    /// Returns [`BiscuitError::InvalidState`] describing the quota breach.
    pub(crate) fn take_memory(&self, bytes: u64) -> BiscuitResult<()> {
        let mut usage = self.inner.usage.lock();
        if usage.memory + bytes > self.inner.quota.max_memory {
            return Err(BiscuitError::InvalidState(format!(
                "session '{}' memory quota exceeded: {} + {} > {}",
                self.inner.name, usage.memory, bytes, self.inner.quota.max_memory
            )));
        }
        usage.memory += bytes;
        usage.peak_memory = usage.peak_memory.max(usage.memory);
        Ok(())
    }

    /// Returns `bytes` of device user memory to the session envelope.
    pub(crate) fn give_memory(&self, bytes: u64) {
        let mut usage = self.inner.usage.lock();
        debug_assert!(usage.memory >= bytes, "session memory underflow");
        usage.memory -= bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_quota_enforced() {
        let s = Session::new(
            "alice",
            SessionQuota {
                max_channels: 2,
                max_memory: 1 << 20,
            },
        );
        s.take_channel().unwrap();
        s.take_channel().unwrap();
        assert!(matches!(
            s.take_channel(),
            Err(BiscuitError::NoChannel { open: 2, limit: 2 })
        ));
        s.give_channels(1);
        s.take_channel().unwrap();
        assert_eq!(s.channels_in_use(), 2);
    }

    #[test]
    fn memory_quota_enforced_and_peak_tracked() {
        let s = Session::new(
            "bob",
            SessionQuota {
                max_channels: 1,
                max_memory: 100,
            },
        );
        s.take_memory(60).unwrap();
        assert!(s.take_memory(50).is_err());
        s.take_memory(40).unwrap();
        s.give_memory(100);
        assert_eq!(s.memory_in_use(), 0);
        assert_eq!(s.peak_memory(), 100);
    }

    #[test]
    fn sessions_are_independent() {
        let a = Session::new(
            "a",
            SessionQuota {
                max_channels: 1,
                max_memory: 10,
            },
        );
        let b = Session::new(
            "b",
            SessionQuota {
                max_channels: 1,
                max_memory: 10,
            },
        );
        a.take_channel().unwrap();
        a.take_memory(10).unwrap();
        // b unaffected by a's exhaustion.
        b.take_channel().unwrap();
        b.take_memory(10).unwrap();
    }
}
