//! Shared-memory segments and the SPSC frame-descriptor ring.
//!
//! The intra-host data plane (DESIGN.md §13) moves `PullData` payloads
//! between two processes on the same host through a file-backed memory
//! mapping instead of loopback TCP. This module supplies the std-only
//! building blocks:
//!
//! - [`ShmMap`] — a `MAP_SHARED` mapping of a regular file (created
//!   under `/dev/shm` when present), via a minimal self-declared `mmap`
//!   shim: std already links libc on unix, so no external crate is
//!   needed. Non-unix builds get a graceful `Unsupported` error and the
//!   transport falls back to TCP.
//! - [`Ring`] — a lock-free single-producer single-consumer ring of
//!   fixed-size record descriptors over a circular payload arena. The
//!   producer bump-allocates 8-aligned payload space (so a consumer can
//!   reinterpret staged `f64` data in place), publishes a descriptor,
//!   and the consumer pops records in FIFO order. Arena space is
//!   reclaimed when the consumer drops its payload views, in allocation
//!   order, through the shared `released` cursor.
//! - [`MapRegion`] — a refcounted payload view used to back
//!   `insitu_util::Bytes` without copying; dropping the region fires a
//!   release callback so the producer's arena space comes back.
//! - Segment naming, the per-host fingerprint used for same-host
//!   detection, and the stale-segment sweep/reap helpers used by
//!   `insitu serve` / `launch`.
//!
//! The ring works over any stable memory region ([`RingMem`]), so the
//! wrap-around/full/empty property tests run on a heap buffer with no
//! filesystem involvement, while the transport runs the same code over
//! a cross-process mapping.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magic word at offset 0 of every segment ("INSITSHM" little-endian).
pub(crate) const SEGMENT_MAGIC: u64 = 0x4d48_5354_4953_4e49;

/// Ring layout version, bumped on any incompatible header change.
pub(crate) const RING_LAYOUT_VERSION: u64 = 1;

/// Header bytes before the descriptor table.
pub(crate) const RING_HEADER_BYTES: usize = 64;

/// Bytes per record descriptor.
pub(crate) const DESC_BYTES: usize = 64;

// Header field offsets (all u64 slots).
const OFF_MAGIC: usize = 0;
const OFF_LAYOUT: usize = 8;
const OFF_SLOTS: usize = 16;
const OFF_ARENA_LEN: usize = 24;
const OFF_HEAD: usize = 32;
const OFF_TAIL: usize = 40;
const OFF_ALLOC: usize = 48;
const OFF_RELEASED: usize = 56;

#[cfg(unix)]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_SHARED: i32 = 1;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    pub(crate) fn map_shared(file: &File, len: usize) -> io::Result<*mut u8> {
        // SAFETY: a fresh MAP_SHARED mapping of `len` bytes over an open
        // fd; the pointer is validated against MAP_FAILED below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr)
    }

    pub(crate) fn unmap(ptr: *mut u8, len: usize) {
        // SAFETY: `ptr`/`len` came from a successful map_shared call and
        // are unmapped exactly once (from ShmMap::drop).
        unsafe {
            munmap(ptr, len);
        }
    }
}

/// A `MAP_SHARED` memory mapping of a regular file. The mapping stays
/// valid until drop even if the file is unlinked, so producers can
/// remove the segment name deterministically at teardown while a
/// consumer still holds payload views.
pub struct ShmMap {
    ptr: *mut u8,
    len: usize,
    /// Keeps the fd open for the mapping's lifetime (not required by
    /// POSIX, but makes the ownership explicit).
    _file: Option<File>,
}

// SAFETY: the mapping is plain shared memory; all mutation goes through
// atomics or producer/consumer-exclusive regions managed by `Ring`.
unsafe impl Send for ShmMap {}
unsafe impl Sync for ShmMap {}

impl ShmMap {
    /// Create (or truncate) `path` at `len` bytes and map it shared.
    #[cfg(unix)]
    pub fn create(path: &Path, len: usize) -> io::Result<ShmMap> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(len as u64)?;
        let ptr = sys::map_shared(&file, len)?;
        Ok(ShmMap {
            ptr,
            len,
            _file: Some(file),
        })
    }

    /// Map an existing segment file shared, at its current length.
    #[cfg(unix)]
    pub fn open(path: &Path) -> io::Result<ShmMap> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len() as usize;
        if len < RING_HEADER_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "segment shorter than the ring header",
            ));
        }
        let ptr = sys::map_shared(&file, len)?;
        Ok(ShmMap {
            ptr,
            len,
            _file: Some(file),
        })
    }

    /// Shared mappings need mmap; on non-unix targets the transport
    /// falls back to TCP.
    #[cfg(not(unix))]
    pub fn create(_path: &Path, _len: usize) -> io::Result<ShmMap> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "shared-memory segments need a unix mmap",
        ))
    }

    /// See [`ShmMap::create`].
    #[cfg(not(unix))]
    pub fn open(_path: &Path) -> io::Result<ShmMap> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "shared-memory segments need a unix mmap",
        ))
    }
}

impl Drop for ShmMap {
    fn drop(&mut self) {
        #[cfg(unix)]
        sys::unmap(self.ptr, self.len);
    }
}

/// A stable memory region a [`Ring`] can live in: either a
/// cross-process [`ShmMap`] or a process-local heap buffer (tests, and
/// the in-process bench baseline).
#[derive(Clone)]
pub struct RingMem {
    ptr: *mut u8,
    len: usize,
    // Never read — holds the mapping/allocation alive behind `ptr`.
    #[allow(dead_code)]
    backing: Backing,
}

// The variants' payloads are never read — they exist to keep the
// mapping (or heap allocation) alive for as long as `ptr` is reachable.
#[allow(dead_code)]
#[derive(Clone)]
enum Backing {
    Map(Arc<ShmMap>),
    // The Vec<u64> guarantees 8-aligned storage; it is never touched
    // through the Arc again, only through `ptr`. Only tests back a ring
    // with process-local memory.
    #[cfg(test)]
    Heap(Arc<Vec<u64>>),
}

// SAFETY: all access goes through atomics or regions the ring protocol
// makes exclusive to one side.
unsafe impl Send for RingMem {}
unsafe impl Sync for RingMem {}

impl RingMem {
    /// Wrap a shared mapping.
    pub fn from_map(map: Arc<ShmMap>) -> RingMem {
        RingMem {
            ptr: map.ptr,
            len: map.len,
            backing: Backing::Map(map),
        }
    }

    /// Allocate a process-local 8-aligned region of `len` bytes.
    #[cfg(test)]
    pub(crate) fn heap(len: usize) -> RingMem {
        let words = len.div_ceil(8);
        let buf = Arc::new(vec![0u64; words]);
        RingMem {
            ptr: buf.as_ptr() as *mut u8,
            len,
            backing: Backing::Heap(buf),
        }
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn atomic(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off + 8 <= self.len && off.is_multiple_of(8));
        // SAFETY: in-bounds, 8-aligned (header offsets are multiples of
        // 8 and both backings are 8-aligned), and only ever accessed as
        // an atomic from here on.
        unsafe { &*(self.ptr.add(off) as *const AtomicU64) }
    }

    fn read_u64(&self, off: usize) -> u64 {
        self.atomic(off).load(Ordering::Relaxed)
    }

    fn write_u64(&self, off: usize, v: u64) {
        self.atomic(off).store(v, Ordering::Relaxed);
    }

    /// Copy `src` into the region at `off`. Producer-exclusive space.
    fn write_bytes(&self, off: usize, src: &[u8]) {
        debug_assert!(off + src.len() <= self.len);
        // SAFETY: in-bounds; the ring protocol gives the producer
        // exclusive ownership of unpublished arena space.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(off), src.len());
        }
    }

    /// Borrow `len` bytes at `off`. Published-record space: immutable
    /// from publication until release.
    pub fn slice(&self, off: usize, len: usize) -> &[u8] {
        assert!(off + len <= self.len, "region slice out of bounds");
        // SAFETY: in-bounds; published payloads are immutable until the
        // consumer releases them, which requires dropping this borrow's
        // owner first.
        unsafe { std::slice::from_raw_parts(self.ptr.add(off), len) }
    }
}

/// Descriptor of one staged record, as published through the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordDesc {
    /// Buffer-key name hash.
    pub name: u64,
    /// Buffer-key version.
    pub version: u64,
    /// Buffer-key piece (owner client packed in the upper half).
    pub piece: u64,
    /// Registering client id.
    pub owner: u32,
}

/// A popped record: the descriptor plus where its payload lives.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// The published descriptor.
    pub desc: RecordDesc,
    /// Sequence number (0-based publication order).
    pub seq: u64,
    /// Payload offset inside the arena (relative to the region start).
    pub off: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// Allocation range (absolute cursors) to hand to [`Ring::release`].
    pub range: (u64, u64),
}

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// Every descriptor slot is occupied.
    SlotsFull,
    /// The arena cannot hold the payload until the consumer releases
    /// space.
    ArenaFull,
    /// The payload can never fit this arena; the caller must fall back
    /// to the wire path.
    TooBig,
}

/// Errors attaching to an existing segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttachError {
    /// Magic or layout version mismatch.
    BadHeader(&'static str),
    /// Region too small for the declared geometry.
    Truncated,
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::BadHeader(what) => write!(f, "bad segment header: {what}"),
            AttachError::Truncated => write!(f, "segment shorter than its declared geometry"),
        }
    }
}

/// The SPSC descriptor ring over a [`RingMem`] region.
///
/// Layout: 64-byte header (magic, layout version, slot count, arena
/// length, `head`/`tail` sequence cursors, `alloc`/`released` byte
/// cursors), `slots` 64-byte descriptors, then the 8-aligned circular
/// payload arena. `head`/`tail` and `released` are the cross-process
/// synchronization points; everything else is single-writer.
pub struct Ring {
    mem: RingMem,
    slots: u64,
    arena_off: usize,
    arena_len: u64,
    /// Consumer-side out-of-order release tracking: dropped payload
    /// ranges waiting to become the contiguous prefix of `released`.
    pending_release: Mutex<std::collections::BTreeMap<u64, u64>>,
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Ring({} slots, {} B arena, {} B in use)",
            self.slots,
            self.arena_len,
            self.in_use()
        )
    }
}

impl Ring {
    /// Region bytes needed for `slots` descriptors over an
    /// `arena_len`-byte arena.
    pub fn required_len(slots: u32, arena_len: u64) -> usize {
        RING_HEADER_BYTES + slots as usize * DESC_BYTES + arena_len as usize
    }

    /// Initialize a fresh ring in `mem` (producer side).
    ///
    /// # Panics
    /// Panics when the region is too small for the geometry or the
    /// arena length is not a multiple of 8.
    pub fn create(mem: RingMem, slots: u32, arena_len: u64) -> Ring {
        assert!(slots > 0, "ring needs at least one slot");
        assert_eq!(arena_len % 8, 0, "arena length must be 8-aligned");
        assert!(
            mem.len() >= Self::required_len(slots, arena_len),
            "region too small for ring geometry"
        );
        mem.write_u64(OFF_LAYOUT, RING_LAYOUT_VERSION);
        mem.write_u64(OFF_SLOTS, slots as u64);
        mem.write_u64(OFF_ARENA_LEN, arena_len);
        mem.write_u64(OFF_HEAD, 0);
        mem.write_u64(OFF_TAIL, 0);
        mem.write_u64(OFF_ALLOC, 0);
        mem.write_u64(OFF_RELEASED, 0);
        // Magic last, with a release store: an attacher that sees the
        // magic sees the whole header.
        mem.atomic(OFF_MAGIC)
            .store(SEGMENT_MAGIC, Ordering::Release);
        Ring {
            arena_off: RING_HEADER_BYTES + slots as usize * DESC_BYTES,
            slots: slots as u64,
            arena_len,
            mem,
            pending_release: Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// Attach to a ring another process created in `mem` (consumer
    /// side). Validates the header before trusting any geometry.
    pub fn attach(mem: RingMem) -> Result<Ring, AttachError> {
        if mem.len() < RING_HEADER_BYTES {
            return Err(AttachError::Truncated);
        }
        if mem.atomic(OFF_MAGIC).load(Ordering::Acquire) != SEGMENT_MAGIC {
            return Err(AttachError::BadHeader("magic"));
        }
        if mem.read_u64(OFF_LAYOUT) != RING_LAYOUT_VERSION {
            return Err(AttachError::BadHeader("layout version"));
        }
        let slots = mem.read_u64(OFF_SLOTS);
        let arena_len = mem.read_u64(OFF_ARENA_LEN);
        if slots == 0 || !arena_len.is_multiple_of(8) {
            return Err(AttachError::BadHeader("geometry"));
        }
        let needed = Ring::required_len(
            u32::try_from(slots).map_err(|_| AttachError::BadHeader("geometry"))?,
            arena_len,
        );
        if mem.len() < needed {
            return Err(AttachError::Truncated);
        }
        Ok(Ring {
            arena_off: RING_HEADER_BYTES + slots as usize * DESC_BYTES,
            slots,
            arena_len,
            mem,
            pending_release: Mutex::new(std::collections::BTreeMap::new()),
        })
    }

    /// The underlying region (for payload views).
    pub fn mem(&self) -> &RingMem {
        &self.mem
    }

    fn desc_off(&self, seq: u64) -> usize {
        RING_HEADER_BYTES + (seq % self.slots) as usize * DESC_BYTES
    }

    /// Publish a record (producer side). Returns the record's sequence
    /// number.
    pub fn push(&self, desc: &RecordDesc, payload: &[u8]) -> Result<u64, PushError> {
        // Every record consumes at least 8 bytes so allocation ranges
        // are strictly increasing — release tracking keys on the range
        // start.
        let need = ((payload.len() as u64 + 7) & !7).max(8);
        if need > self.arena_len {
            return Err(PushError::TooBig);
        }
        let head = self.mem.read_u64(OFF_HEAD);
        let tail = self.mem.atomic(OFF_TAIL).load(Ordering::Acquire);
        if head - tail >= self.slots {
            return Err(PushError::SlotsFull);
        }
        // Bump-allocate, padding past the arena end so a payload never
        // wraps (keeps payload views contiguous and 8-aligned).
        let alloc = self.mem.read_u64(OFF_ALLOC);
        let at = alloc % self.arena_len;
        let start = if at + need <= self.arena_len {
            alloc
        } else {
            alloc + (self.arena_len - at)
        };
        let end = start + need;
        let released = self.mem.atomic(OFF_RELEASED).load(Ordering::Acquire);
        if end - released > self.arena_len {
            return Err(PushError::ArenaFull);
        }
        let off = self.arena_off + (start % self.arena_len) as usize;
        self.mem.write_bytes(off, payload);
        let d = self.desc_off(head);
        self.mem.write_u64(d, desc.name);
        self.mem.write_u64(d + 8, desc.version);
        self.mem.write_u64(d + 16, desc.piece);
        self.mem.write_u64(d + 24, desc.owner as u64);
        self.mem.write_u64(d + 32, off as u64);
        self.mem.write_u64(d + 40, payload.len() as u64);
        self.mem.write_u64(d + 48, alloc);
        self.mem.write_u64(d + 56, end);
        self.mem.write_u64(OFF_ALLOC, end);
        self.mem.atomic(OFF_HEAD).store(head + 1, Ordering::Release);
        Ok(head)
    }

    fn read_record(&self, seq: u64) -> Record {
        let d = self.desc_off(seq);
        Record {
            desc: RecordDesc {
                name: self.mem.read_u64(d),
                version: self.mem.read_u64(d + 8),
                piece: self.mem.read_u64(d + 16),
                owner: self.mem.read_u64(d + 24) as u32,
            },
            seq,
            off: self.mem.read_u64(d + 32) as usize,
            len: self.mem.read_u64(d + 40) as usize,
            range: (self.mem.read_u64(d + 48), self.mem.read_u64(d + 56)),
        }
    }

    /// Consume the next record (consumer side). `None` when empty. The
    /// caller must eventually [`Ring::release`] the record's range.
    pub fn pop(&self) -> Option<Record> {
        let tail = self.mem.read_u64(OFF_TAIL);
        let head = self.mem.atomic(OFF_HEAD).load(Ordering::Acquire);
        if tail == head {
            return None;
        }
        let rec = self.read_record(tail);
        self.mem.atomic(OFF_TAIL).store(tail + 1, Ordering::Release);
        Some(rec)
    }

    /// Records published but not yet consumed (producer side, used to
    /// resend over the wire when the consumer never attached). The
    /// consumer must not be running while this is read.
    pub fn unconsumed(&self) -> Vec<Record> {
        let tail = self.mem.atomic(OFF_TAIL).load(Ordering::Acquire);
        let head = self.mem.read_u64(OFF_HEAD);
        (tail..head).map(|seq| self.read_record(seq)).collect()
    }

    /// Return a consumed record's arena range (consumer side). Ranges
    /// may be released out of order; the shared `released` cursor only
    /// advances over the contiguous prefix, exactly like the allocator
    /// hands ranges out.
    pub fn release(&self, range: (u64, u64)) {
        let mut pending = self.pending_release.lock().unwrap();
        pending.insert(range.0, range.1);
        let released = self.mem.read_u64(OFF_RELEASED);
        let mut cursor = released;
        while let Some(end) = pending.remove(&cursor) {
            cursor = end;
        }
        if cursor != released {
            self.mem
                .atomic(OFF_RELEASED)
                .store(cursor, Ordering::Release);
        }
    }

    /// Arena bytes currently allocated and not yet released.
    pub(crate) fn in_use(&self) -> u64 {
        self.mem.read_u64(OFF_ALLOC) - self.mem.atomic(OFF_RELEASED).load(Ordering::Acquire)
    }
}

/// A refcounted payload view inside a mapped (or heap) region, used to
/// back `insitu_util::Bytes` without copying. Dropping the region fires
/// its release callback — the consumer side uses that to return arena
/// space to the producer.
pub struct MapRegion {
    mem: RingMem,
    off: usize,
    len: usize,
    on_drop: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl MapRegion {
    /// View `len` bytes at `off` in `mem`, firing `on_drop` when the
    /// last clone of the owning `Arc` goes away.
    ///
    /// # Panics
    /// Panics when the range is out of bounds.
    pub fn new(
        mem: RingMem,
        off: usize,
        len: usize,
        on_drop: Option<Box<dyn FnOnce() + Send>>,
    ) -> MapRegion {
        assert!(off + len <= mem.len(), "map region out of bounds");
        MapRegion {
            mem,
            off,
            len,
            on_drop: Mutex::new(on_drop),
        }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        self.mem.slice(self.off, self.len)
    }
}

impl Drop for MapRegion {
    fn drop(&mut self) {
        if let Some(f) = self.on_drop.lock().unwrap().take() {
            f();
        }
    }
}

/// Per-host fingerprint for same-host detection: the kernel boot id,
/// which is stable for every process on one booted host and differs
/// across hosts. Empty when unavailable — an empty fingerprint never
/// matches, so shared memory silently stays off.
pub fn host_fingerprint() -> String {
    std::fs::read_to_string("/proc/sys/kernel/random/boot_id")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// Directory segments live in: `/dev/shm` when the host has it (a real
/// tmpfs), the system temp directory otherwise.
pub fn segment_dir() -> PathBuf {
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    }
}

/// Segment file name for the directed pair `src -> dst`, tagged with
/// the creating pid (for the stale sweep) and a creator-chosen nonce
/// (so runs in one process never collide).
pub fn segment_name(pid: u32, nonce: u64, src: u32, dst: u32) -> String {
    format!("insitu-{pid}-{nonce:x}-s{src}-d{dst}")
}

/// Parse the creator pid out of a segment file name produced by
/// [`segment_name`]. `None` for foreign files.
pub fn segment_pid(name: &str) -> Option<u32> {
    name.strip_prefix("insitu-")?
        .split('-')
        .next()?
        .parse()
        .ok()
}

fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

/// Remove segments in `dir` whose creator process is gone. Returns the
/// number removed. Used by `insitu serve` at startup so a crashed
/// earlier run cannot leak `/dev/shm` space forever.
pub fn sweep_stale(dir: &Path) -> usize {
    remove_segments(dir, |pid| !pid_alive(pid))
}

/// Remove every segment in `dir` created by `pid`. Returns the number
/// removed. Used by `insitu launch` to reap a dead joiner's segments.
pub fn reap_pid(dir: &Path, pid: u32) -> usize {
    remove_segments(dir, |p| p == pid)
}

/// Remove every segment in `dir` whose creator pid `doomed` accepts;
/// returns the number removed. Other files are left alone.
fn remove_segments(dir: &Path, doomed: impl Fn(u32) -> bool) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(segment_pid) else {
            continue;
        };
        if doomed(pid) && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::forall;
    use std::collections::VecDeque;

    fn heap_ring(slots: u32, arena: u64) -> Ring {
        Ring::create(
            RingMem::heap(Ring::required_len(slots, arena)),
            slots,
            arena,
        )
    }

    /// Whether every published record has been consumed.
    fn drained(ring: &Ring) -> bool {
        ring.mem().atomic(OFF_TAIL).load(Ordering::Acquire)
            == ring.mem().atomic(OFF_HEAD).load(Ordering::Acquire)
    }

    fn desc(tag: u64) -> RecordDesc {
        RecordDesc {
            name: tag,
            version: tag.wrapping_mul(3),
            piece: tag.wrapping_mul(7),
            owner: tag as u32,
        }
    }

    fn payload(tag: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (tag as u8).wrapping_add(i as u8))
            .collect()
    }

    #[test]
    fn push_pop_roundtrip_fifo() {
        let ring = heap_ring(4, 64);
        assert_eq!(ring.push(&desc(1), &payload(1, 10)).unwrap(), 0);
        assert_eq!(ring.push(&desc(2), &payload(2, 24)).unwrap(), 1);
        let a = ring.pop().unwrap();
        assert_eq!(a.desc, desc(1));
        assert_eq!(ring.mem().slice(a.off, a.len), &payload(1, 10)[..]);
        let b = ring.pop().unwrap();
        assert_eq!(b.desc, desc(2));
        assert_eq!(ring.mem().slice(b.off, b.len), &payload(2, 24)[..]);
        assert!(ring.pop().is_none());
        assert!(drained(&ring));
    }

    #[test]
    fn slots_full_and_arena_full_are_distinct() {
        let ring = heap_ring(2, 64);
        ring.push(&desc(1), &payload(1, 8)).unwrap();
        ring.push(&desc(2), &payload(2, 8)).unwrap();
        assert_eq!(
            ring.push(&desc(3), &payload(3, 8)),
            Err(PushError::SlotsFull)
        );
        let ring = heap_ring(8, 32);
        ring.push(&desc(1), &payload(1, 24)).unwrap();
        assert_eq!(
            ring.push(&desc(2), &payload(2, 16)),
            Err(PushError::ArenaFull)
        );
        assert_eq!(
            ring.push(&desc(3), &payload(3, 100)),
            Err(PushError::TooBig)
        );
    }

    #[test]
    fn release_reopens_arena_space_across_wraps() {
        let ring = heap_ring(4, 32);
        for round in 0..50u64 {
            let seq = ring.push(&desc(round), &payload(round, 24)).unwrap();
            assert_eq!(seq, round);
            let rec = ring.pop().unwrap();
            assert_eq!(rec.desc, desc(round));
            assert_eq!(ring.mem().slice(rec.off, rec.len), &payload(round, 24)[..]);
            // 24 B in a 32 B arena: the next push must wait for this
            // release, then wrap cleanly.
            ring.release(rec.range);
        }
        assert_eq!(ring.in_use(), 0);
    }

    #[test]
    fn out_of_order_release_advances_only_contiguously() {
        let ring = heap_ring(8, 64);
        ring.push(&desc(1), &payload(1, 16)).unwrap();
        ring.push(&desc(2), &payload(2, 16)).unwrap();
        ring.push(&desc(3), &payload(3, 16)).unwrap();
        let a = ring.pop().unwrap();
        let b = ring.pop().unwrap();
        let c = ring.pop().unwrap();
        ring.release(c.range);
        ring.release(b.range);
        // a still holds the prefix: nothing is reusable yet.
        assert_eq!(ring.in_use(), 48);
        ring.release(a.range);
        assert_eq!(ring.in_use(), 0);
    }

    #[test]
    fn attach_validates_header() {
        let mem = RingMem::heap(Ring::required_len(4, 64));
        assert_eq!(
            Ring::attach(mem.clone()).unwrap_err(),
            AttachError::BadHeader("magic")
        );
        let _ring = Ring::create(mem.clone(), 4, 64);
        assert!(Ring::attach(mem).is_ok());
        assert_eq!(
            Ring::attach(RingMem::heap(8)).unwrap_err(),
            AttachError::Truncated
        );
    }

    #[test]
    fn producer_and_consumer_views_share_one_region() {
        // Same region, two Ring instances — the cross-process shape.
        let mem = RingMem::heap(Ring::required_len(4, 256));
        let producer = Ring::create(mem.clone(), 4, 256);
        let consumer = Ring::attach(mem).unwrap();
        producer.push(&desc(9), &payload(9, 40)).unwrap();
        let rec = consumer.pop().unwrap();
        assert_eq!(rec.desc, desc(9));
        assert_eq!(consumer.mem().slice(rec.off, rec.len), &payload(9, 40)[..]);
        consumer.release(rec.range);
        // The producer observes the released space through the shared
        // header.
        assert_eq!(producer.in_use(), 0);
    }

    /// The satellite property test: arbitrary push/pop/release
    /// interleavings against a FIFO model, exercising wrap-around,
    /// slots-full and arena-full.
    #[test]
    fn ring_matches_fifo_model_under_arbitrary_interleavings() {
        forall(64, |rng| {
            let slots = rng.range_u32(1, 6);
            let arena = rng.range_u64(1, 16) * 8;
            let ring = heap_ring(slots, arena);
            // Model: queue of (tag, len); plus the set of popped but
            // unreleased records.
            let mut queued: VecDeque<(u64, usize)> = VecDeque::new();
            let mut unreleased: Vec<Record> = Vec::new();
            let mut next_tag = 0u64;
            // Shadow allocation cursor, mirroring the producer's
            // bump-with-wrap-padding arithmetic.
            let mut model_alloc = 0u64;
            for _ in 0..200 {
                match rng.range_u32(0, 3) {
                    0 => {
                        let len = rng.range_usize(0, arena as usize + 9);
                        let need = ((len as u64 + 7) & !7).max(8);
                        let at = model_alloc % arena;
                        let start = if at + need <= arena {
                            model_alloc
                        } else {
                            model_alloc + (arena - at)
                        };
                        let tag = next_tag;
                        match ring.push(&desc(tag), &payload(tag, len)) {
                            Ok(seq) => {
                                assert_eq!(seq, tag, "sequence numbers are dense");
                                queued.push_back((tag, len));
                                next_tag += 1;
                                model_alloc = start + need;
                            }
                            Err(PushError::TooBig) => {
                                assert!(need > arena);
                                // TooBig consumes no sequence number and
                                // must not poison the ring.
                            }
                            Err(PushError::SlotsFull) => {
                                assert_eq!(queued.len(), slots as usize);
                            }
                            Err(PushError::ArenaFull) => {
                                // in_use = alloc - released, so the
                                // refusal condition (end - released >
                                // arena) is checkable from outside.
                                let released = model_alloc - ring.in_use();
                                assert!(start + need - released > arena);
                            }
                        }
                    }
                    1 => match (ring.pop(), queued.pop_front()) {
                        (None, None) => {}
                        (Some(rec), Some((tag, len))) => {
                            assert_eq!(rec.desc, desc(tag), "FIFO order");
                            assert_eq!(rec.len, len);
                            assert_eq!(
                                ring.mem().slice(rec.off, rec.len),
                                &payload(tag, len)[..],
                                "payload intact at pop"
                            );
                            assert_eq!(rec.off % 8, 0, "payloads stay 8-aligned");
                            unreleased.push(rec);
                        }
                        (got, want) => {
                            panic!("ring/model disagree on emptiness: {got:?} vs {want:?}")
                        }
                    },
                    _ => {
                        if !unreleased.is_empty() {
                            let i = rng.range_usize(0, unreleased.len());
                            let rec = unreleased.swap_remove(i);
                            // Payload must still be intact right up to
                            // its release.
                            assert_eq!(
                                ring.mem().slice(rec.off, rec.len),
                                &payload(rec.desc.name, rec.len)[..],
                                "payload intact until release"
                            );
                            ring.release(rec.range);
                        }
                    }
                }
            }
            // Drain: everything still queued pops in order, and after
            // releasing everything the arena is fully reusable.
            while let Some((tag, len)) = queued.pop_front() {
                let rec = ring.pop().expect("model says non-empty");
                assert_eq!(rec.desc, desc(tag));
                assert_eq!(ring.mem().slice(rec.off, rec.len), &payload(tag, len)[..]);
                unreleased.push(rec);
            }
            assert!(ring.pop().is_none());
            for rec in unreleased.drain(..) {
                ring.release(rec.range);
            }
            assert_eq!(ring.in_use(), 0);
            assert!(drained(&ring));
        });
    }

    #[test]
    fn unconsumed_snapshots_published_records() {
        let ring = heap_ring(8, 256);
        ring.push(&desc(1), &payload(1, 16)).unwrap();
        ring.push(&desc(2), &payload(2, 16)).unwrap();
        ring.pop().unwrap();
        let rest = ring.unconsumed();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].desc, desc(2));
        assert_eq!(
            ring.mem().slice(rest[0].off, rest[0].len),
            &payload(2, 16)[..]
        );
    }

    #[test]
    fn map_region_fires_release_on_last_drop() {
        let ring = Arc::new(heap_ring(4, 64));
        ring.push(&desc(5), &payload(5, 16)).unwrap();
        let rec = ring.pop().unwrap();
        let r2 = Arc::clone(&ring);
        let region = Arc::new(MapRegion::new(
            ring.mem().clone(),
            rec.off,
            rec.len,
            Some(Box::new(move || r2.release(rec.range))),
        ));
        assert_eq!(region.as_slice(), &payload(5, 16)[..]);
        let clone = Arc::clone(&region);
        drop(region);
        assert_eq!(ring.in_use(), 16, "space held while a view lives");
        drop(clone);
        assert_eq!(ring.in_use(), 0, "last drop releases the range");
    }

    #[cfg(unix)]
    #[test]
    fn file_backed_ring_round_trips_and_survives_unlink() {
        let dir = segment_dir();
        let path = dir.join(segment_name(std::process::id(), 0xfeed, 0, 1));
        let len = Ring::required_len(4, 4096);
        let producer_map = Arc::new(ShmMap::create(&path, len).unwrap());
        let producer = Ring::create(RingMem::from_map(producer_map), 4, 4096);
        // A second, independent mapping of the same file — as the
        // consumer process would make.
        let consumer_map = Arc::new(ShmMap::open(&path).unwrap());
        let consumer = Ring::attach(RingMem::from_map(consumer_map)).unwrap();
        producer.push(&desc(3), &payload(3, 128)).unwrap();
        // Unlink while both mappings live: POSIX keeps them valid.
        std::fs::remove_file(&path).unwrap();
        let rec = consumer.pop().unwrap();
        assert_eq!(rec.desc, desc(3));
        assert_eq!(consumer.mem().slice(rec.off, rec.len), &payload(3, 128)[..]);
        consumer.release(rec.range);
        assert_eq!(producer.in_use(), 0, "release crosses the two mappings");
    }

    #[test]
    fn segment_names_parse_and_sweep_reaps_dead_pids() {
        assert_eq!(
            segment_pid(&segment_name(1234, 7, 0, 1)),
            Some(1234),
            "round-trip"
        );
        assert_eq!(segment_pid("not-ours"), None);
        let dir = std::env::temp_dir().join(format!("insitu-shm-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A segment from a pid that cannot exist, one from us, and a
        // foreign file.
        let dead = dir.join(segment_name(u32::MAX - 1, 1, 0, 1));
        let live = dir.join(segment_name(std::process::id(), 2, 1, 0));
        let foreign = dir.join("unrelated.txt");
        for p in [&dead, &live, &foreign] {
            std::fs::write(p, b"x").unwrap();
        }
        assert_eq!(sweep_stale(&dir), 1);
        assert!(!dead.exists(), "dead pid swept");
        assert!(live.exists(), "live pid kept");
        assert!(foreign.exists(), "foreign files untouched");
        // reap_pid removes ours regardless of liveness.
        assert_eq!(reap_pid(&dir, std::process::id()), 1);
        assert!(!live.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
