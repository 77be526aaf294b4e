//! The server's block store and flat directory.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use crate::BLOCK_SIZE;

/// A file identifier, as carried in I/O protocol messages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FileId(pub u16);

/// Errors from the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// No such file id / name.
    NotFound,
    /// A file with that name already exists.
    Exists,
    /// Block index beyond the end of the file.
    BadBlock,
    /// The store's id range is exhausted: creating one more file would
    /// hand out an id from another shard's range. A named error rather
    /// than silent wraparound — the caller decides whether to refuse
    /// the create or re-shard.
    Full,
    /// An adopted id in this store's native range that the store has
    /// not handed out yet: a later create would hand it out again.
    Unissued,
}

/// A file's bytes are shared by every clone of its store until one of
/// them writes the file ([`BlockStore::block_mut`] copies it then, once).
#[derive(Debug, Clone)]
struct File {
    name: String,
    data: Rc<Vec<u8>>,
}

impl File {
    fn new(name: &str, data: Vec<u8>) -> File {
        let (name, data) = (name.to_string(), Rc::new(data));
        File { name, data }
    }
}

/// An in-memory block store with a flat name directory — the file
/// server's filesystem state (the paper's servers expose UNIX files; the
/// protocol only ever addresses (file id, block index) pairs).
///
/// Ids come in two populations:
///
/// * **Native** ids, allocated sequentially from the store's own
///   `[id_base, id_base + capacity)` range. Removing a native file
///   leaves a tombstone — the slot is never reallocated, so a stale
///   client id can only miss, never alias a different file.
/// * **Adopted** ids, grafted in by live migration with
///   [`BlockStore::adopt`]: a file that kept the id its original shard
///   allocated, now served here. Adopted ids live outside the native
///   range (or in a tombstoned native slot, when a file migrates back
///   home).
#[derive(Debug, Clone)]
pub struct BlockStore {
    files: Vec<Option<File>>,
    /// Files adopted from other stores, keyed by their foreign raw id.
    adopted: BTreeMap<u16, File>,
    by_name: HashMap<String, FileId>,
    /// All ids this store hands out are offset by this base, so stores
    /// on different servers (file-service shards) never allocate the
    /// same id — a file id identifies its owner cluster-wide.
    id_base: u16,
    /// Width of the native id range.
    capacity: usize,
}

impl Default for BlockStore {
    fn default() -> BlockStore {
        BlockStore {
            files: Vec::new(),
            adopted: BTreeMap::new(),
            by_name: HashMap::new(),
            id_base: 0,
            capacity: Self::MAX_FILES,
        }
    }
}

impl BlockStore {
    /// Default width of a store's native id range. Sharded deployments
    /// give each store a disjoint range ([`BlockStore::with_id_range`]
    /// picks other widths); [`BlockStore::create`] reports
    /// [`StoreError::Full`] at the boundary instead of aliasing a
    /// neighbour's ids.
    pub const MAX_FILES: usize = 4096;

    /// Creates an empty store.
    pub fn new() -> BlockStore {
        BlockStore::default()
    }

    /// Creates an empty store whose file ids start at `base` (sharded
    /// deployments give each shard a disjoint range; see
    /// [`BlockStore::MAX_FILES`]). `base` must be range-aligned.
    pub fn with_id_base(base: u16) -> BlockStore {
        assert!(
            base as usize % Self::MAX_FILES == 0,
            "id base {base:#06x} must be a multiple of {} so shard id ranges stay disjoint",
            Self::MAX_FILES
        );
        BlockStore {
            id_base: base,
            ..BlockStore::default()
        }
    }

    /// Creates an empty store over the explicit native id range
    /// `[base, base + capacity)` — how wide deployments (more than 16
    /// shards) squeeze disjoint ranges into the 16-bit id space.
    ///
    /// # Panics
    ///
    /// Panics when the range overflows the 16-bit id space or is empty.
    pub fn with_id_range(base: u16, capacity: usize) -> BlockStore {
        assert!(capacity > 0, "a store needs a non-empty id range");
        assert!(
            base as usize + capacity <= (u16::MAX as usize) + 1,
            "id range [{base:#06x}, {base:#06x}+{capacity}) overflows the 16-bit id space"
        );
        BlockStore {
            id_base: base,
            capacity,
            ..BlockStore::default()
        }
    }

    /// Creates a file with `size` zeroed bytes.
    ///
    /// Reports [`StoreError::Full`] when the native id range is
    /// exhausted — overrunning it would alias another shard's ids.
    pub fn create(&mut self, name: &str, size: usize) -> Result<FileId, StoreError> {
        self.insert(name, || vec![0; size])
    }

    /// Creates a file with the given contents.
    pub fn create_with(&mut self, name: &str, data: &[u8]) -> Result<FileId, StoreError> {
        self.insert(name, || data.to_vec())
    }

    fn insert(&mut self, name: &str, data: impl FnOnce() -> Vec<u8>) -> Result<FileId, StoreError> {
        if self.by_name.contains_key(name) {
            return Err(StoreError::Exists);
        }
        if self.files.len() >= self.capacity {
            return Err(StoreError::Full);
        }
        let id = FileId(self.id_base + self.files.len() as u16);
        self.files.push(Some(File::new(name, data())));
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Grafts in a file under an id allocated by *another* store — the
    /// receiving half of live migration. The file keeps its original id
    /// (clients' open handles stay valid across the move) and starts as
    /// `size` zeroed bytes for the copy stream to fill with ordinary
    /// [`BlockStore::write_block`]s. A native id only a tombstone holds
    /// can come home; one not yet handed out is [`StoreError::Unissued`].
    pub fn adopt(&mut self, id: FileId, name: &str, size: usize) -> Result<(), StoreError> {
        if self.native_index(id).is_some_and(|i| i >= self.files.len()) {
            return Err(StoreError::Unissued);
        }
        if self.by_name.contains_key(name) || self.file(id).is_ok() {
            return Err(StoreError::Exists);
        }
        self.adopted.insert(id.0, File::new(name, vec![0; size]));
        self.by_name.insert(name.to_string(), id);
        Ok(())
    }

    /// Drops a file — the releasing half of live migration (and the
    /// reason native slots are tombstoned: the id must keep *missing*,
    /// not get recycled under a stale client handle).
    pub fn remove(&mut self, id: FileId) -> Result<(), StoreError> {
        let name = self.file(id)?.name.clone();
        self.by_name.remove(&name);
        if self.adopted.remove(&id.0).is_some() {
            return Ok(());
        }
        let i = self.native_index(id).expect("file() found a native slot");
        self.files[i] = None;
        Ok(())
    }

    /// Looks a file up by name.
    pub fn open(&self, name: &str) -> Result<FileId, StoreError> {
        self.by_name.get(name).copied().ok_or(StoreError::NotFound)
    }

    /// File length in bytes.
    pub fn len(&self, id: FileId) -> Result<usize, StoreError> {
        self.file(id).map(|f| f.data.len())
    }

    /// True if the store holds no files.
    pub fn is_empty(&self) -> bool {
        self.file_count() == 0
    }

    /// Number of files (native slots still occupied plus adoptees).
    pub fn file_count(&self) -> usize {
        self.files.iter().filter(|f| f.is_some()).count() + self.adopted.len()
    }

    /// A file's name.
    pub fn name(&self, id: FileId) -> Result<&str, StoreError> {
        self.file(id).map(|f| f.name.as_str())
    }

    fn native_index(&self, id: FileId) -> Option<usize> {
        id.0.checked_sub(self.id_base)
            .map(usize::from)
            .filter(|&i| i < self.capacity)
    }

    fn file(&self, id: FileId) -> Result<&File, StoreError> {
        match self.native_index(id).and_then(|i| self.files.get(i)) {
            Some(Some(f)) => Ok(f),
            _ => self.adopted.get(&id.0).ok_or(StoreError::NotFound),
        }
    }

    fn file_mut(&mut self, id: FileId) -> Result<&mut File, StoreError> {
        match self.native_index(id).and_then(|i| self.files.get_mut(i)) {
            Some(Some(f)) => Ok(f),
            _ => self.adopted.get_mut(&id.0).ok_or(StoreError::NotFound),
        }
    }

    /// True if `block` exists in file `id` — the cheap existence probe
    /// read-ahead planning needs (a [`BlockStore::read_block`] would
    /// copy a whole block just to answer the same question).
    pub fn has_block(&self, id: FileId, block: u32) -> bool {
        self.file(id).is_ok_and(|f| {
            let start = block as usize * BLOCK_SIZE;
            start < f.data.len() || (start == 0 && f.data.is_empty())
        })
    }

    /// Reads up to `count` bytes of block `block` (the tail block may be
    /// short).
    pub fn read_block(&self, id: FileId, block: u32, count: usize) -> Result<&[u8], StoreError> {
        let f = self.file(id)?;
        let start = block as usize * BLOCK_SIZE;
        if start >= f.data.len() && !(start == 0 && f.data.is_empty()) {
            return Err(StoreError::BadBlock);
        }
        let end = (start + count.min(BLOCK_SIZE)).min(f.data.len());
        Ok(&f.data[start..end])
    }

    /// Reads an arbitrary byte range (large reads / program images).
    pub fn read_range(&self, id: FileId, offset: usize, count: usize) -> Result<&[u8], StoreError> {
        let f = self.file(id)?;
        if offset > f.data.len() {
            return Err(StoreError::BadBlock);
        }
        let end = (offset + count).min(f.data.len());
        Ok(&f.data[offset..end])
    }

    /// The first `n` bytes of block `block` to write into, the file grown
    /// to hold them if needed and first copied if another store shares it.
    pub fn block_mut(&mut self, id: FileId, block: u32, n: usize) -> Result<&mut [u8], StoreError> {
        if n > BLOCK_SIZE {
            return Err(StoreError::BadBlock);
        }
        let data = Rc::make_mut(&mut self.file_mut(id)?.data);
        let start = block as usize * BLOCK_SIZE;
        let end = start + n;
        if end > data.len() {
            data.resize(end, 0);
        }
        Ok(&mut data[start..end])
    }

    /// Writes `data` at block `block`, growing the file if needed.
    pub fn write_block(&mut self, id: FileId, block: u32, data: &[u8]) -> Result<(), StoreError> {
        self.block_mut(id, block, data.len())?.copy_from_slice(data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_open_read_write() {
        let mut s = BlockStore::new();
        let id = s.create("prog", 1024).unwrap();
        assert_eq!(s.open("prog").unwrap(), id);
        assert_eq!(s.len(id).unwrap(), 1024);
        assert_eq!(s.name(id).unwrap(), "prog");
        s.write_block(id, 1, &[7u8; 512]).unwrap();
        assert_eq!(s.read_block(id, 1, 512).unwrap(), &[7u8; 512][..]);
        assert_eq!(s.read_block(id, 0, 512).unwrap(), &[0u8; 512][..]);
    }

    #[test]
    fn duplicate_create_fails() {
        let mut s = BlockStore::new();
        s.create("x", 1).unwrap();
        assert_eq!(s.create("x", 1).unwrap_err(), StoreError::Exists);
    }

    #[test]
    fn missing_file_fails() {
        let s = BlockStore::new();
        assert_eq!(s.open("nope").unwrap_err(), StoreError::NotFound);
        assert!(s.is_empty());
    }

    #[test]
    fn out_of_range_block_fails() {
        let mut s = BlockStore::new();
        let id = s.create("f", 600).unwrap();
        assert!(s.read_block(id, 0, 512).is_ok());
        // Block 1 exists (short tail), block 2 does not.
        assert_eq!(s.read_block(id, 1, 512).unwrap().len(), 88);
        assert_eq!(s.read_block(id, 2, 512).unwrap_err(), StoreError::BadBlock);
    }

    #[test]
    fn write_grows_file() {
        let mut s = BlockStore::new();
        let id = s.create("g", 0).unwrap();
        s.write_block(id, 2, &[1u8; 512]).unwrap();
        assert_eq!(s.len(id).unwrap(), 3 * BLOCK_SIZE);
    }

    #[test]
    fn id_base_offsets_every_id_and_rejects_foreign_ids() {
        let mut s = BlockStore::with_id_base(0x1000);
        let id = s.create("f", 512).unwrap();
        assert_eq!(id, FileId(0x1000));
        assert_eq!(s.open("f").unwrap(), id);
        assert!(s.read_block(id, 0, 512).is_ok());
        // Ids below the base belong to another shard's store.
        assert_eq!(s.len(FileId(0)).unwrap_err(), StoreError::NotFound);
        assert_eq!(s.len(FileId(0x0FFF)).unwrap_err(), StoreError::NotFound);
    }

    #[test]
    fn has_block_agrees_with_read_block() {
        let mut s = BlockStore::new();
        let id = s.create("f", 600).unwrap();
        let empty = s.create("e", 0).unwrap();
        for (file, block) in [(id, 0), (id, 1), (id, 2), (empty, 0), (empty, 1)] {
            assert_eq!(
                s.has_block(file, block),
                s.read_block(file, block, BLOCK_SIZE).is_ok(),
                "file {file:?} block {block}"
            );
        }
        assert!(!s.has_block(FileId(999), 0), "unknown file has no blocks");
    }

    #[test]
    fn read_range_clamps_to_eof() {
        let mut s = BlockStore::new();
        let id = s.create_with("h", &[9u8; 100]).unwrap();
        assert_eq!(s.read_range(id, 50, 100).unwrap().len(), 50);
        assert_eq!(s.read_range(id, 101, 1).unwrap_err(), StoreError::BadBlock);
    }

    #[test]
    fn exhausted_id_range_is_a_named_error() {
        let mut s = BlockStore::with_id_range(0x2000, 2);
        s.create("a", 1).unwrap();
        s.create("b", 1).unwrap();
        assert_eq!(s.create("c", 1).unwrap_err(), StoreError::Full);
        // Removing a file does NOT free its slot: stale ids must keep
        // missing, never alias a fresh file.
        s.remove(FileId(0x2000)).unwrap();
        assert_eq!(s.create("c", 1).unwrap_err(), StoreError::Full);
    }

    #[test]
    fn remove_tombstones_without_shifting_ids() {
        let mut s = BlockStore::new();
        let a = s.create("a", 512).unwrap();
        let b = s.create_with("b", &[3u8; 64]).unwrap();
        s.remove(a).unwrap();
        assert_eq!(s.len(a).unwrap_err(), StoreError::NotFound);
        assert_eq!(s.open("a").unwrap_err(), StoreError::NotFound);
        // `b` keeps its id and data.
        assert_eq!(s.open("b").unwrap(), b);
        assert_eq!(s.read_block(b, 0, 64).unwrap(), &[3u8; 64][..]);
        assert_eq!(s.file_count(), 1);
    }

    #[test]
    fn adopt_serves_foreign_ids_and_survives_round_trip() {
        let mut src = BlockStore::with_id_base(0x1000);
        let id = src.create_with("hot", &[5u8; 700]).unwrap();

        // Destination adopts the foreign id, fills it block by block.
        let mut dst = BlockStore::new();
        dst.adopt(id, "hot", 700).unwrap();
        for block in 0..2 {
            let data = src.read_block(id, block, BLOCK_SIZE).unwrap().to_vec();
            dst.write_block(id, block, &data).unwrap();
        }
        assert_eq!(dst.open("hot").unwrap(), id);
        assert_eq!(dst.read_block(id, 1, 512).unwrap(), &[5u8; 188][..]);
        assert_eq!(dst.name(id).unwrap(), "hot");

        // Double adoption and name collisions are refused.
        assert_eq!(dst.adopt(id, "hot2", 1).unwrap_err(), StoreError::Exists);
        dst.create("native", 1).unwrap();
        assert_eq!(
            dst.adopt(FileId(0x3000), "native", 1).unwrap_err(),
            StoreError::Exists
        );

        // Migrating home again: the tombstoned native slot is re-adopted.
        src.remove(id).unwrap();
        assert_eq!(src.len(id).unwrap_err(), StoreError::NotFound);
        src.adopt(id, "hot", 700).unwrap();
        assert_eq!(src.open("hot").unwrap(), id);
        src.write_block(id, 0, &[5u8; 512]).unwrap();
        assert_eq!(src.read_block(id, 0, 512).unwrap(), &[5u8; 512][..]);
    }
}
