//! A simulated operating system: hosts, accounts, files, processes, and
//! privilege.
//!
//! This is the measurement substrate for the paper's §5.2 least-privilege
//! claims. Every process records its uid/euid, whether it accepts network
//! connections, whether it was started through a setuid binary, and which
//! credentials it holds — so experiment C4 can count privileged
//! network-facing components and compute compromise blast radii for the
//! GT2 gatekeeper vs. GT3 GRAM architectures.

use crate::TestbedError;
use gridsec_util::sha256::{sha256, DIGEST_LEN};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A numeric user id. `0` is root.
pub type Uid = u32;
/// Root's uid.
pub const ROOT_UID: Uid = 0;
/// A process id, unique across all hosts.
pub type Pid = u64;

/// File permission bits (subset): owner read/write, world read/write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FileMode(pub u8);

impl FileMode {
    /// Owner read permission.
    pub(crate) const OWNER_READ: u8 = 0b1000;
    /// Owner write permission.
    pub(crate) const OWNER_WRITE: u8 = 0b0100;
    /// World read permission.
    pub(crate) const WORLD_READ: u8 = 0b0010;
    /// World write permission.
    pub(crate) const WORLD_WRITE: u8 = 0b0001;

    /// `0600`-style: owner read/write only (host keys, proxy files).
    pub fn private() -> Self {
        FileMode(Self::OWNER_READ | Self::OWNER_WRITE)
    }

    /// `0644`-style: world readable (grid-mapfile, CA certificates).
    pub fn world_readable() -> Self {
        FileMode(Self::OWNER_READ | Self::OWNER_WRITE | Self::WORLD_READ)
    }

    fn readable_by(&self, euid: Uid, owner: Uid) -> bool {
        if euid == ROOT_UID || euid == owner {
            self.0 & Self::OWNER_READ != 0 || euid == ROOT_UID
        } else {
            self.0 & Self::WORLD_READ != 0
        }
    }

    pub(crate) fn writable_by(&self, euid: Uid, owner: Uid) -> bool {
        if euid == ROOT_UID {
            true
        } else if euid == owner {
            self.0 & Self::OWNER_WRITE != 0
        } else {
            self.0 & Self::WORLD_WRITE != 0
        }
    }
}

/// A file with owner and permissions.
#[derive(Clone, Debug)]
pub(crate) struct SimFile {
    /// Owning uid.
    pub owner: Uid,
    /// Permission bits.
    pub mode: FileMode,
    /// Contents.
    pub data: Vec<u8>,
    /// SHA-256 of `data`, once someone has asked for it
    /// ([`SimOs::file_digest`]). Metadata like the owner: it lives and
    /// dies with this version of the contents.
    digest: Option<[u8; DIGEST_LEN]>,
}

impl SimFile {
    fn new(owner: Uid, mode: FileMode, data: Vec<u8>) -> Self {
        SimFile {
            owner,
            mode,
            data,
            digest: None,
        }
    }
}

/// A process table entry.
#[derive(Clone, Debug)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Human-readable component name (e.g. `"MMJFS"`, `"gatekeeper"`).
    pub name: String,
    /// Real uid.
    pub uid: Uid,
    /// Effective uid (0 = privileged).
    pub euid: Uid,
    /// `true` iff the process accepts connections from the network.
    pub network_facing: bool,
    /// `true` iff started via an installed setuid binary.
    pub via_setuid_binary: bool,
    /// Labels of credentials the process holds in memory.
    pub credentials: Vec<String>,
    /// `false` after `kill`.
    pub alive: bool,
}

impl Process {
    /// A process is "privileged" when its effective uid is root.
    pub fn is_privileged(&self) -> bool {
        self.euid == ROOT_UID
    }
}

#[derive(Default)]
struct Host {
    accounts: HashMap<String, Uid>,
    next_uid: Uid,
    files: HashMap<String, SimFile>,
    setuid_binaries: HashMap<String, ()>,
    processes: HashMap<Pid, Process>,
}

/// The simulated OS: a set of hosts sharing a pid namespace. Clones
/// share the one host table and pid counter: a world's services, their
/// journals and the scenario that audits privilege each hold one.
#[derive(Clone, Default)]
pub struct SimOs {
    inner: Rc<RefCell<SimOsState>>,
}

#[derive(Default)]
struct SimOsState {
    hosts: HashMap<String, Host>,
    next_pid: Pid,
    /// SHA-256 passes over file contents, across all hosts.
    digests_computed: u64,
}

impl SimOs {
    /// Empty OS with no hosts.
    pub fn new() -> Self {
        SimOs::default()
    }

    /// Create a host; the `root` account (uid 0) is preinstalled.
    pub fn add_host(&self, name: &str) {
        let mut st = self.inner.borrow_mut();
        let host = st.hosts.entry(name.to_string()).or_default();
        host.accounts.insert("root".to_string(), ROOT_UID);
        host.next_uid = host.next_uid.max(1000);
    }

    fn with_host<T>(
        &self,
        host: &str,
        f: impl FnOnce(&mut Host) -> Result<T, TestbedError>,
    ) -> Result<T, TestbedError> {
        let mut st = self.inner.borrow_mut();
        let h = st
            .hosts
            .get_mut(host)
            .ok_or_else(|| TestbedError::NoSuchHost(host.to_string()))?;
        f(h)
    }

    /// Allocate the next pid (drawn even if the spawn then fails).
    fn next_pid(&self) -> Pid {
        let mut st = self.inner.borrow_mut();
        st.next_pid += 1;
        st.next_pid
    }

    /// Create an unprivileged account, returning its uid.
    pub fn add_account(&self, host: &str, account: &str) -> Result<Uid, TestbedError> {
        self.with_host(host, |h| {
            if let Some(&uid) = h.accounts.get(account) {
                return Ok(uid);
            }
            let uid = h.next_uid;
            h.next_uid += 1;
            h.accounts.insert(account.to_string(), uid);
            Ok(uid)
        })
    }

    /// Look up an account's uid.
    pub fn uid_of(&self, host: &str, account: &str) -> Result<Uid, TestbedError> {
        self.with_host(host, |h| {
            h.accounts
                .get(account)
                .copied()
                .ok_or_else(|| TestbedError::NoSuchAccount(account.to_string()))
        })
    }

    /// All account names on a host.
    pub(crate) fn accounts(&self, host: &str) -> Result<Vec<String>, TestbedError> {
        self.with_host(host, |h| {
            let mut v: Vec<String> = h.accounts.keys().cloned().collect();
            v.sort();
            Ok(v)
        })
    }

    /// Write (create or replace) a file.
    pub fn write_file(
        &self,
        host: &str,
        path: &str,
        owner: Uid,
        mode: FileMode,
        data: Vec<u8>,
    ) -> Result<(), TestbedError> {
        self.with_host(host, |h| {
            h.files
                .insert(path.to_string(), SimFile::new(owner, mode, data));
            Ok(())
        })
    }

    /// Append to a file as effective uid `euid`. Creates the file (owned
    /// by `euid`, with `mode`) if it does not exist; otherwise enforces
    /// write permission and extends the existing contents. This is the
    /// durability primitive write-ahead journals build on: appends
    /// survive process crashes because the file lives in the OS, not in
    /// any service's memory.
    pub fn append_file(
        &self,
        host: &str,
        path: &str,
        euid: Uid,
        mode: FileMode,
        data: &[u8],
    ) -> Result<(), TestbedError> {
        self.with_host(host, |h| match h.files.get_mut(path) {
            Some(f) => {
                if !f.mode.writable_by(euid, f.owner) {
                    return Err(TestbedError::PermissionDenied("file not writable"));
                }
                f.data.extend_from_slice(data);
                f.digest = None;
                Ok(())
            }
            None => {
                h.files
                    .insert(path.to_string(), SimFile::new(euid, mode, data.to_vec()));
                Ok(())
            }
        })
    }

    /// Remove a file as effective uid `euid` (write permission required).
    pub fn remove_file(&self, host: &str, path: &str, euid: Uid) -> Result<(), TestbedError> {
        self.with_host(host, |h| {
            let f = h
                .files
                .get(path)
                .ok_or_else(|| TestbedError::NoSuchFile(path.to_string()))?;
            if !f.mode.writable_by(euid, f.owner) {
                return Err(TestbedError::PermissionDenied("file not writable"));
            }
            h.files.remove(path);
            Ok(())
        })
    }

    /// Move a file from `from` to `to` as effective uid `euid`, replacing
    /// whatever `to` held (write permission required on both). Owner,
    /// mode, contents and any stored digest move with it, as a real
    /// rename moves an inode with its extended attributes: this is how a
    /// complete staging file is promoted without copying it.
    pub fn rename_file(
        &self,
        host: &str,
        from: &str,
        to: &str,
        euid: Uid,
    ) -> Result<(), TestbedError> {
        self.with_host(host, |h| {
            let f = h
                .files
                .get(from)
                .ok_or_else(|| TestbedError::NoSuchFile(from.to_string()))?;
            let replaced = h.files.get(to);
            if !f.mode.writable_by(euid, f.owner)
                || replaced.is_some_and(|t| !t.mode.writable_by(euid, t.owner))
            {
                return Err(TestbedError::PermissionDenied("file not writable"));
            }
            let f = h.files.remove(from).expect("looked up above");
            h.files.insert(to.to_string(), f);
            Ok(())
        })
    }

    /// Length of a file, or `None` if it does not exist (a `stat`-style
    /// probe; no permission check, matching real directory semantics).
    pub fn file_len(&self, host: &str, path: &str) -> Result<Option<usize>, TestbedError> {
        self.with_host(host, |h| Ok(h.files.get(path).map(|f| f.data.len())))
    }

    /// Read a file as effective uid `euid`, enforcing permissions.
    pub fn read_file(&self, host: &str, path: &str, euid: Uid) -> Result<Vec<u8>, TestbedError> {
        self.with_host(host, |h| {
            let f = h
                .files
                .get(path)
                .ok_or_else(|| TestbedError::NoSuchFile(path.to_string()))?;
            if !f.mode.readable_by(euid, f.owner) {
                return Err(TestbedError::PermissionDenied("file not readable"));
            }
            Ok(f.data.clone())
        })
    }

    /// SHA-256 of a file's contents, read as effective uid `euid` (read
    /// permission required, as for [`read_file`](Self::read_file)). It is
    /// computed on the first request and kept beside the data until the
    /// contents change — the checksum-as-extended-attribute of a real
    /// storage server — so a file that is served many times is hashed
    /// once per version.
    pub fn file_digest(
        &self,
        host: &str,
        path: &str,
        euid: Uid,
    ) -> Result<[u8; DIGEST_LEN], TestbedError> {
        let mut st = self.inner.borrow_mut();
        let SimOsState {
            hosts,
            digests_computed,
            ..
        } = &mut *st;
        let f = hosts
            .get_mut(host)
            .ok_or_else(|| TestbedError::NoSuchHost(host.to_string()))?
            .files
            .get_mut(path)
            .ok_or_else(|| TestbedError::NoSuchFile(path.to_string()))?;
        if !f.mode.readable_by(euid, f.owner) {
            return Err(TestbedError::PermissionDenied("file not readable"));
        }
        Ok(*f.digest.get_or_insert_with(|| {
            *digests_computed += 1;
            sha256(&f.data)
        }))
    }

    /// How many times [`file_digest`](Self::file_digest) has hashed file
    /// contents, on every host: a work counter, not a clock.
    pub fn digests_computed(&self) -> u64 {
        self.inner.borrow().digests_computed
    }

    /// Spawn an ordinary process under `account`.
    pub fn spawn(&self, host: &str, name: &str, account: &str) -> Result<Pid, TestbedError> {
        let uid = self.uid_of(host, account)?;
        let pid = self.next_pid();
        self.with_host(host, |h| {
            h.processes.insert(
                pid,
                Process {
                    pid,
                    name: name.to_string(),
                    uid,
                    euid: uid,
                    network_facing: false,
                    via_setuid_binary: false,
                    credentials: vec![],
                    alive: true,
                },
            );
            Ok(pid)
        })
    }

    /// Spawn a process that runs with root privileges from the start
    /// (models GT2's gatekeeper, started by init as root).
    pub fn spawn_privileged(&self, host: &str, name: &str) -> Result<Pid, TestbedError> {
        let pid = self.next_pid();
        self.with_host(host, |h| {
            h.processes.insert(
                pid,
                Process {
                    pid,
                    name: name.to_string(),
                    uid: ROOT_UID,
                    euid: ROOT_UID,
                    network_facing: false,
                    via_setuid_binary: false,
                    credentials: vec![],
                    alive: true,
                },
            );
            Ok(pid)
        })
    }

    /// Install a setuid-root binary (e.g. GT3's Setuid Starter or GRIM).
    pub fn install_setuid_binary(&self, host: &str, binary: &str) -> Result<(), TestbedError> {
        self.with_host(host, |h| {
            h.setuid_binaries.insert(binary.to_string(), ());
            Ok(())
        })
    }

    /// Execute an installed setuid binary from `caller_pid`. The new
    /// process runs with euid 0 regardless of the caller's uid — that is
    /// the whole point of setuid — and is flagged `via_setuid_binary` so
    /// the privilege audit can distinguish "small audited setuid program"
    /// from "long-running privileged service".
    pub fn exec_setuid_binary(
        &self,
        host: &str,
        caller_pid: Pid,
        binary: &str,
    ) -> Result<Pid, TestbedError> {
        let pid = self.next_pid();
        self.with_host(host, |h| {
            let caller = h
                .processes
                .get(&caller_pid)
                .ok_or(TestbedError::NoSuchProcess(caller_pid))?;
            if !caller.alive {
                return Err(TestbedError::NoSuchProcess(caller_pid));
            }
            let caller_uid = caller.uid;
            if !h.setuid_binaries.contains_key(binary) {
                return Err(TestbedError::PermissionDenied("binary is not setuid"));
            }
            h.processes.insert(
                pid,
                Process {
                    pid,
                    name: binary.to_string(),
                    uid: caller_uid,
                    euid: ROOT_UID,
                    network_facing: false,
                    via_setuid_binary: true,
                    credentials: vec![],
                    alive: true,
                },
            );
            Ok(pid)
        })
    }

    /// From a privileged process, spawn a new process under `account`
    /// with privileges fully dropped (the Setuid Starter launching a
    /// user's LMJFS; the gatekeeper forking a jobmanager).
    pub fn setuid_spawn(
        &self,
        host: &str,
        caller_pid: Pid,
        name: &str,
        account: &str,
    ) -> Result<Pid, TestbedError> {
        let target_uid = self.uid_of(host, account)?;
        let pid = self.next_pid();
        self.with_host(host, |h| {
            let caller = h
                .processes
                .get(&caller_pid)
                .ok_or(TestbedError::NoSuchProcess(caller_pid))?;
            if caller.euid != ROOT_UID {
                return Err(TestbedError::PermissionDenied(
                    "setuid_spawn requires euid 0",
                ));
            }
            h.processes.insert(
                pid,
                Process {
                    pid,
                    name: name.to_string(),
                    uid: target_uid,
                    euid: target_uid,
                    network_facing: false,
                    via_setuid_binary: false,
                    credentials: vec![],
                    alive: true,
                },
            );
            Ok(pid)
        })
    }

    /// Mark a process as accepting network connections.
    pub fn mark_network_facing(&self, host: &str, pid: Pid) -> Result<(), TestbedError> {
        self.modify_process(host, pid, |p| p.network_facing = true)
    }

    /// Record that a process holds a credential (for blast-radius
    /// reporting), identified by a human-readable label.
    pub fn grant_credential(&self, host: &str, pid: Pid, label: &str) -> Result<(), TestbedError> {
        let label = label.to_string();
        self.modify_process(host, pid, move |p| p.credentials.push(label))
    }

    /// Terminate a process (it stays in the table, marked dead).
    pub fn kill(&self, host: &str, pid: Pid) -> Result<(), TestbedError> {
        self.modify_process(host, pid, |p| p.alive = false)
    }

    fn modify_process(
        &self,
        host: &str,
        pid: Pid,
        f: impl FnOnce(&mut Process),
    ) -> Result<(), TestbedError> {
        self.with_host(host, |h| {
            let p = h
                .processes
                .get_mut(&pid)
                .ok_or(TestbedError::NoSuchProcess(pid))?;
            f(p);
            Ok(())
        })
    }

    /// Snapshot of one process.
    pub fn process(&self, host: &str, pid: Pid) -> Result<Process, TestbedError> {
        self.with_host(host, |h| {
            h.processes
                .get(&pid)
                .cloned()
                .ok_or(TestbedError::NoSuchProcess(pid))
        })
    }

    /// Snapshot of all live processes on a host.
    pub fn processes(&self, host: &str) -> Result<Vec<Process>, TestbedError> {
        self.with_host(host, |h| {
            let mut v: Vec<Process> = h.processes.values().filter(|p| p.alive).cloned().collect();
            v.sort_by_key(|p| p.pid);
            Ok(v)
        })
    }

    /// Live processes with euid 0.
    pub fn privileged_processes(&self, host: &str) -> Result<Vec<Process>, TestbedError> {
        Ok(self
            .processes(host)?
            .into_iter()
            .filter(|p| p.is_privileged())
            .collect())
    }

    /// Live processes that are both privileged and network-facing — the
    /// quantity GT3 drives to zero (paper §5.2).
    pub fn privileged_network_facing(&self, host: &str) -> Result<Vec<Process>, TestbedError> {
        Ok(self
            .privileged_processes(host)?
            .into_iter()
            .filter(|p| p.network_facing)
            .collect())
    }

    /// All files on a host (path, file) — used by fault injection.
    pub(crate) fn files(&self, host: &str) -> Result<Vec<(String, SimFile)>, TestbedError> {
        self.with_host(host, |h| {
            let mut v: Vec<(String, SimFile)> = h
                .files
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            Ok(v)
        })
    }

    /// Account name for a uid, if any.
    pub(crate) fn account_of_uid(
        &self,
        host: &str,
        uid: Uid,
    ) -> Result<Option<String>, TestbedError> {
        self.with_host(host, |h| {
            Ok(h.accounts
                .iter()
                .find(|(_, &u)| u == uid)
                .map(|(n, _)| n.clone()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os_with_host() -> SimOs {
        let os = SimOs::new();
        os.add_host("compute1");
        os
    }

    #[test]
    fn accounts_and_uids() {
        let os = os_with_host();
        let alice = os.add_account("compute1", "alice").unwrap();
        let bob = os.add_account("compute1", "bob").unwrap();
        assert_ne!(alice, bob);
        assert_ne!(alice, ROOT_UID);
        assert_eq!(os.uid_of("compute1", "alice").unwrap(), alice);
        assert_eq!(os.uid_of("compute1", "root").unwrap(), ROOT_UID);
        // Idempotent account creation.
        assert_eq!(os.add_account("compute1", "alice").unwrap(), alice);
    }

    #[test]
    fn missing_host_and_account_errors() {
        let os = os_with_host();
        assert!(matches!(
            os.uid_of("nohost", "alice"),
            Err(TestbedError::NoSuchHost(_))
        ));
        assert!(matches!(
            os.uid_of("compute1", "ghost"),
            Err(TestbedError::NoSuchAccount(_))
        ));
    }

    #[test]
    fn file_permissions() {
        let os = os_with_host();
        let alice = os.add_account("compute1", "alice").unwrap();
        let bob = os.add_account("compute1", "bob").unwrap();
        os.write_file(
            "compute1",
            "/home/alice/.proxy",
            alice,
            FileMode::private(),
            b"proxy key".to_vec(),
        )
        .unwrap();
        // Owner reads.
        assert!(os
            .read_file("compute1", "/home/alice/.proxy", alice)
            .is_ok());
        // Other user denied.
        assert!(matches!(
            os.read_file("compute1", "/home/alice/.proxy", bob),
            Err(TestbedError::PermissionDenied(_))
        ));
        // Root reads anything.
        assert!(os
            .read_file("compute1", "/home/alice/.proxy", ROOT_UID)
            .is_ok());
        // World-readable file readable by anyone.
        os.write_file(
            "compute1",
            "/etc/grid-security/grid-mapfile",
            ROOT_UID,
            FileMode::world_readable(),
            b"map".to_vec(),
        )
        .unwrap();
        assert!(os
            .read_file("compute1", "/etc/grid-security/grid-mapfile", bob)
            .is_ok());
    }

    #[test]
    fn stored_digest_is_one_hash_per_version() {
        let os = os_with_host();
        let h = "compute1";
        let alice = os.add_account(h, "alice").unwrap();
        let bob = os.add_account(h, "bob").unwrap();
        let digest = |path: &str| os.file_digest(h, path, alice);
        os.write_file(h, "/f", alice, FileMode::private(), b"one".to_vec())
            .unwrap();
        assert_eq!(digest("/f").unwrap(), sha256(b"one"));
        assert_eq!(digest("/f").unwrap(), sha256(b"one"));
        assert_eq!(
            os.digests_computed(),
            1,
            "the second read is the stored one"
        );
        // Read permission, as for read_file.
        assert!(matches!(
            os.file_digest(h, "/f", bob),
            Err(TestbedError::PermissionDenied(_))
        ));
        assert_eq!(os.file_digest(h, "/f", ROOT_UID).unwrap(), sha256(b"one"));
        assert!(matches!(digest("/none"), Err(TestbedError::NoSuchFile(_))));

        // Every mutator drops it.
        os.write_file(h, "/f", alice, FileMode::private(), b"two".to_vec())
            .unwrap();
        assert_eq!(digest("/f").unwrap(), sha256(b"two"));
        os.append_file(h, "/f", alice, FileMode::private(), b"+")
            .unwrap();
        assert_eq!(digest("/f").unwrap(), sha256(b"two+"));
        assert_eq!(os.digests_computed(), 3);
        os.write_file(h, "/g", alice, FileMode::private(), b"gee".to_vec())
            .unwrap();
        assert_eq!(digest("/g").unwrap(), sha256(b"gee"));
        // Renamed onto /g: /g is /f's file now, its stored digest with
        // it; nothing is left at /f.
        os.rename_file(h, "/f", "/g", alice).unwrap();
        assert_eq!(digest("/g").unwrap(), sha256(b"two+"));
        assert_eq!(os.digests_computed(), 4, "the digest moved with the file");
        assert!(matches!(digest("/f"), Err(TestbedError::NoSuchFile(_))));
        os.write_file(h, "/f", alice, FileMode::private(), b"three".to_vec())
            .unwrap();
        assert_eq!(digest("/f").unwrap(), sha256(b"three"));
        os.remove_file(h, "/g", alice).unwrap();
        assert!(matches!(digest("/g"), Err(TestbedError::NoSuchFile(_))));
        os.write_file(h, "/g", alice, FileMode::private(), b"two+".to_vec())
            .unwrap();
        assert_eq!(digest("/g").unwrap(), sha256(b"two+"));
        assert_eq!(os.digests_computed(), 6);

        // A rename needs write permission on the file and on what it
        // replaces; a refused one changes nothing.
        os.write_file(h, "/b", bob, FileMode::private(), b"bob".to_vec())
            .unwrap();
        for (from, to, euid) in [("/f", "/x", bob), ("/f", "/b", alice)] {
            assert!(matches!(
                os.rename_file(h, from, to, euid),
                Err(TestbedError::PermissionDenied(_))
            ));
        }
        assert_eq!(os.read_file(h, "/b", bob).unwrap(), b"bob");
        assert_eq!(digest("/f").unwrap(), sha256(b"three"));
        assert!(matches!(
            os.rename_file(h, "/none", "/x", alice),
            Err(TestbedError::NoSuchFile(_))
        ));
        assert_eq!(os.digests_computed(), 6);
    }

    #[test]
    fn spawn_and_privilege() {
        let os = os_with_host();
        os.add_account("compute1", "alice").unwrap();
        let p = os.spawn("compute1", "hosting-env", "alice").unwrap();
        let proc = os.process("compute1", p).unwrap();
        assert!(!proc.is_privileged());
        let g = os.spawn_privileged("compute1", "gatekeeper").unwrap();
        assert!(os.process("compute1", g).unwrap().is_privileged());
    }

    #[test]
    fn setuid_binary_flow() {
        let os = os_with_host();
        os.add_account("compute1", "factory").unwrap();
        os.add_account("compute1", "alice").unwrap();
        os.install_setuid_binary("compute1", "setuid-starter")
            .unwrap();
        // Unprivileged MMJFS invokes the setuid starter...
        let mmjfs = os.spawn("compute1", "MMJFS", "factory").unwrap();
        let starter = os
            .exec_setuid_binary("compute1", mmjfs, "setuid-starter")
            .unwrap();
        let sp = os.process("compute1", starter).unwrap();
        assert!(sp.is_privileged());
        assert!(sp.via_setuid_binary);
        // ...which starts the user's LMJFS with privileges dropped.
        let lmjfs = os
            .setuid_spawn("compute1", starter, "LMJFS", "alice")
            .unwrap();
        let lp = os.process("compute1", lmjfs).unwrap();
        assert!(!lp.is_privileged());
        assert_eq!(lp.uid, os.uid_of("compute1", "alice").unwrap());
    }

    #[test]
    fn non_setuid_binary_rejected() {
        let os = os_with_host();
        os.add_account("compute1", "alice").unwrap();
        let p = os.spawn("compute1", "app", "alice").unwrap();
        assert!(matches!(
            os.exec_setuid_binary("compute1", p, "not-installed"),
            Err(TestbedError::PermissionDenied(_))
        ));
    }

    #[test]
    fn setuid_spawn_requires_privilege() {
        let os = os_with_host();
        os.add_account("compute1", "alice").unwrap();
        os.add_account("compute1", "bob").unwrap();
        let p = os.spawn("compute1", "app", "alice").unwrap();
        assert!(matches!(
            os.setuid_spawn("compute1", p, "evil", "bob"),
            Err(TestbedError::PermissionDenied(_))
        ));
    }

    #[test]
    fn privileged_network_facing_accounting() {
        let os = os_with_host();
        os.add_account("compute1", "factory").unwrap();
        // GT2 shape: privileged gatekeeper listening on the network.
        let gk = os.spawn_privileged("compute1", "gatekeeper").unwrap();
        os.mark_network_facing("compute1", gk).unwrap();
        assert_eq!(os.privileged_network_facing("compute1").unwrap().len(), 1);
        // GT3 shape: unprivileged MMJFS on the network.
        let mmjfs = os.spawn("compute1", "MMJFS", "factory").unwrap();
        os.mark_network_facing("compute1", mmjfs).unwrap();
        os.kill("compute1", gk).unwrap();
        assert_eq!(os.privileged_network_facing("compute1").unwrap().len(), 0);
        assert_eq!(os.processes("compute1").unwrap().len(), 1);
    }

    #[test]
    fn credentials_tracked() {
        let os = os_with_host();
        os.add_account("compute1", "alice").unwrap();
        let p = os.spawn("compute1", "LMJFS", "alice").unwrap();
        os.grant_credential("compute1", p, "GRIM proxy for alice")
            .unwrap();
        assert_eq!(
            os.process("compute1", p).unwrap().credentials,
            vec!["GRIM proxy for alice".to_string()]
        );
    }

    #[test]
    fn dead_process_cannot_exec() {
        let os = os_with_host();
        os.add_account("compute1", "alice").unwrap();
        os.install_setuid_binary("compute1", "grim").unwrap();
        let p = os.spawn("compute1", "app", "alice").unwrap();
        os.kill("compute1", p).unwrap();
        assert!(os.exec_setuid_binary("compute1", p, "grim").is_err());
    }
}
