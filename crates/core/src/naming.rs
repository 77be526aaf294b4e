//! Process naming: `SetPid` / `GetPid`.
//!
//! Logical ids ("fileserver", "nameserver", ...) map to pids with a
//! *scope* that distinguishes per-workstation servers from network-wide
//! ones (§3.1): a mapping registered `Local` answers only this kernel's
//! lookups, `Remote` answers only other kernels' broadcast queries, and
//! `Both` answers both.

use crate::pid::Pid;
use crate::slab::LinearMap;

/// Visibility scope of a logical-id registration or lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// This workstation only.
    Local,
    /// Other workstations only.
    Remote,
    /// Everywhere.
    Both,
}

/// Well-known logical ids used by the reproduction's system services.
pub mod logical {
    /// The network file server.
    pub const FILE_SERVER: u32 = 1;
    /// The name server (exercised by examples).
    pub const NAME_SERVER: u32 = 2;
    /// The program-execution server (§7).
    pub const EXEC_SERVER: u32 = 3;
}

/// One kernel's logical-id table.
///
/// A handful of well-known ids are ever registered, so the table is a
/// flat insertion-ordered map rather than a hash table.
#[derive(Debug, Default)]
pub struct NameTable {
    map: LinearMap<u32, (Pid, Scope)>,
}

impl NameTable {
    /// Creates an empty table.
    pub fn new() -> NameTable {
        NameTable::default()
    }

    /// Registers `pid` under `logical_id` with visibility `scope`
    /// (overwriting any previous registration, as `SetPid` does).
    pub fn set(&mut self, logical_id: u32, pid: Pid, scope: Scope) {
        self.map.insert(logical_id, (pid, scope));
    }

    /// Removes a registration.
    pub fn clear(&mut self, logical_id: u32) {
        self.map.remove(&logical_id);
    }

    /// Looks up a logical id on behalf of a **local** `GetPid`.
    pub fn lookup_local(&self, logical_id: u32) -> Option<Pid> {
        match self.map.get(&logical_id) {
            Some((pid, Scope::Local)) | Some((pid, Scope::Both)) => Some(*pid),
            _ => None,
        }
    }

    /// Looks up a logical id on behalf of a **remote** kernel's broadcast
    /// query.
    pub fn lookup_remote(&self, logical_id: u32) -> Option<Pid> {
        match self.map.get(&logical_id) {
            Some((pid, Scope::Remote)) | Some((pid, Scope::Both)) => Some(*pid),
            _ => None,
        }
    }

    /// True if any registration is visible to other kernels' broadcast
    /// queries ([`NameTable::lookup_remote`] can succeed).
    pub fn answers_remote_queries(&self) -> bool {
        self.map.values().any(|(_, scope)| *scope != Scope::Local)
    }

    /// Drops every registration pointing at `pid` (process exit).
    pub fn purge_pid(&mut self, pid: Pid) {
        self.map.retain(|_, (p, _)| *p != pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pid::LogicalHost;

    fn pid(l: u16) -> Pid {
        Pid::new(LogicalHost(1), l)
    }

    #[test]
    fn scope_local_hides_from_remote() {
        let mut t = NameTable::new();
        t.set(7, pid(1), Scope::Local);
        assert_eq!(t.lookup_local(7), Some(pid(1)));
        assert_eq!(t.lookup_remote(7), None);
    }

    #[test]
    fn scope_remote_hides_from_local() {
        let mut t = NameTable::new();
        t.set(7, pid(2), Scope::Remote);
        assert_eq!(t.lookup_local(7), None);
        assert_eq!(t.lookup_remote(7), Some(pid(2)));
    }

    #[test]
    fn scope_both_is_visible_everywhere() {
        let mut t = NameTable::new();
        t.set(7, pid(3), Scope::Both);
        assert_eq!(t.lookup_local(7), Some(pid(3)));
        assert_eq!(t.lookup_remote(7), Some(pid(3)));
    }

    #[test]
    fn set_overwrites() {
        let mut t = NameTable::new();
        t.set(7, pid(1), Scope::Both);
        t.set(7, pid(2), Scope::Local);
        assert_eq!(t.lookup_local(7), Some(pid(2)));
        assert_eq!(t.lookup_remote(7), None);
    }

    #[test]
    fn purge_removes_dead_pids() {
        let mut t = NameTable::new();
        t.set(1, pid(1), Scope::Both);
        t.set(2, pid(2), Scope::Both);
        t.purge_pid(pid(1));
        assert_eq!(t.lookup_local(1), None);
        assert_eq!(t.lookup_local(2), Some(pid(2)));
    }

    #[test]
    fn clear_removes_mapping() {
        let mut t = NameTable::new();
        t.set(1, pid(1), Scope::Both);
        t.clear(1);
        assert_eq!(t.lookup_local(1), None);
    }
}
