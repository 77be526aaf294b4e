//! The block store as a model check: random `create` / `create_with` /
//! `write_block` (growth past the end included) / `remove` / `adopt` /
//! `clone` over a family of stores, against a naive model whose clones
//! are deep copies. After every step every store of the family answers
//! `read_block`, `read_range`, `has_block`, `len`, `name`, `open` and
//! `file_count` as its model does.
//!
//! A store shares its files' bytes with its clones until one of them
//! writes; the model copies everything at the clone. So a write that
//! reaches a sibling through shared bytes, or a copy that loses a
//! growth, shows here as one store disagreeing with its own model.
//!
//! The names, ids and sizes are few (five native slots, so `Full` comes
//! up; three foreign ids for adoption; files of up to three blocks) and
//! the family small (up to four stores), so that a short sequence clones
//! a store, writes one side and then the other, and removes or adopts
//! over files a sibling still holds.
//!
//! A failing case prints its short operation list (the vendored proptest
//! does not shrink, so the lists are kept short instead); CI runs this in
//! release with `PROPTEST_CASES=5000` ahead of the benchmark's baseline
//! check.

use proptest::prelude::*;
use v_fs::store::{FileId, StoreError};
use v_fs::{BlockStore, BLOCK_SIZE};

/// The family's native id range: `[BASE, BASE + CAPACITY)`.
const BASE: u16 = 0x1000;
const CAPACITY: usize = 5;
/// Ids another store allocated, for adoption.
const FOREIGN: [u16; 3] = [0x3000, 0x3001, 0x3002];
/// An id no store ever holds.
const UNKNOWN: u16 = 0x7777;
const NAMES: [&str; 4] = ["boot", "lib", "etc", "tmp"];
const FAMILY: usize = 4;

/// Every id an operation may name or a check may ask about.
fn ids() -> impl Iterator<Item = FileId> {
    let native = (0..CAPACITY as u16).map(|i| BASE + i);
    native.chain(FOREIGN).chain([UNKNOWN]).map(FileId)
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Create {
        at: usize,
        name: usize,
        size: usize,
    },
    /// `len` distinct bytes from `fill` on.
    CreateWith {
        at: usize,
        name: usize,
        len: usize,
        fill: u8,
    },
    /// `id` indexes [`ids`]; `len` one past a block is refused.
    Write {
        at: usize,
        id: usize,
        block: u32,
        len: usize,
        fill: u8,
    },
    Remove {
        at: usize,
        id: usize,
    },
    /// `id` indexes [`ids`].
    Adopt {
        at: usize,
        id: usize,
        name: usize,
        size: usize,
    },
    /// A clone of store `at` joins the family, or replaces the store
    /// after it once the family is full.
    Clone {
        at: usize,
    },
}

fn at() -> impl Strategy<Value = usize> {
    0usize..FAMILY
}

fn name() -> impl Strategy<Value = usize> {
    0usize..NAMES.len()
}

fn id() -> impl Strategy<Value = usize> {
    0usize..CAPACITY + FOREIGN.len() + 1
}

/// Up to three blocks, often a whole number of them or empty.
fn size() -> impl Strategy<Value = usize> {
    prop_oneof![
        (0usize..4).prop_map(|b| b * BLOCK_SIZE),
        0usize..3 * BLOCK_SIZE
    ]
}

/// A whole block as often as not; one past a block now and then.
fn write_len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(BLOCK_SIZE), 0usize..=BLOCK_SIZE, Just(BLOCK_SIZE + 1)]
}

fn write() -> impl Strategy<Value = Op> {
    let args = (at(), id(), 0u32..5, write_len(), 0u8..=255);
    args.prop_map(|(at, id, block, len, fill)| Op::Write {
        at,
        id,
        block,
        len,
        fill,
    })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (at(), name(), size()).prop_map(|(at, name, size)| Op::Create { at, name, size }),
        (at(), name(), size(), 0u8..=255).prop_map(|(at, name, len, fill)| Op::CreateWith {
            at,
            name,
            len,
            fill
        }),
        // Twice the weight: writes are what clones must not share.
        write(),
        write(),
        (at(), id()).prop_map(|(at, id)| Op::Remove { at, id }),
        (at(), id(), name(), size()).prop_map(|(at, id, name, size)| Op::Adopt {
            at,
            id,
            name,
            size
        }),
        at().prop_map(|at| Op::Clone { at }),
    ]
}

/// Distinct bytes, so a read cut at the wrong end shows.
fn bytes(len: usize, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
}

/// The reference: a list of whole files, deep-copied when cloned.
#[derive(Debug, Clone, Default)]
struct Model {
    /// Native slots handed out; a removed one stays handed out.
    next: usize,
    files: Vec<(FileId, String, Vec<u8>)>,
}

impl Model {
    fn find(&self, id: FileId) -> Result<&(FileId, String, Vec<u8>), StoreError> {
        let found = self.files.iter().find(|f| f.0 == id);
        found.ok_or(StoreError::NotFound)
    }

    fn data(&self, id: FileId) -> Result<&[u8], StoreError> {
        self.find(id).map(|f| f.2.as_slice())
    }

    fn named(&self, name: &str) -> bool {
        self.files.iter().any(|f| f.1 == name)
    }

    fn create(&mut self, name: &str, data: Vec<u8>) -> Result<FileId, StoreError> {
        if self.named(name) {
            return Err(StoreError::Exists);
        }
        if self.next >= CAPACITY {
            return Err(StoreError::Full);
        }
        let id = FileId(BASE + self.next as u16);
        self.next += 1;
        self.files.push((id, name.to_string(), data));
        Ok(id)
    }

    fn adopt(&mut self, id: FileId, name: &str, size: usize) -> Result<(), StoreError> {
        // A native id not handed out yet would be handed out again by a
        // later create (a foreign shard never allocated it, and a file
        // migrating home finds its slot tombstoned).
        let native = id.0.checked_sub(BASE).map(usize::from);
        if native.is_some_and(|i| i >= self.next && i < CAPACITY) {
            return Err(StoreError::Unissued);
        }
        if self.named(name) || self.find(id).is_ok() {
            return Err(StoreError::Exists);
        }
        self.files.push((id, name.to_string(), vec![0; size]));
        Ok(())
    }

    fn remove(&mut self, id: FileId) -> Result<(), StoreError> {
        self.find(id)?;
        self.files.retain(|f| f.0 != id);
        Ok(())
    }

    fn write_block(&mut self, id: FileId, block: u32, data: &[u8]) -> Result<(), StoreError> {
        if data.len() > BLOCK_SIZE {
            return Err(StoreError::BadBlock);
        }
        let f = self.files.iter_mut().find(|f| f.0 == id);
        let file = &mut f.ok_or(StoreError::NotFound)?.2;
        let start = block as usize * BLOCK_SIZE;
        let end = start + data.len();
        if end > file.len() {
            file.resize(end, 0);
        }
        file[start..end].copy_from_slice(data);
        Ok(())
    }

    fn read_block(&self, id: FileId, block: u32, count: usize) -> Result<&[u8], StoreError> {
        let data = self.data(id)?;
        let start = block as usize * BLOCK_SIZE;
        if start >= data.len() && !(start == 0 && data.is_empty()) {
            return Err(StoreError::BadBlock);
        }
        Ok(&data[start..(start + count.min(BLOCK_SIZE)).min(data.len())])
    }

    fn read_range(&self, id: FileId, offset: usize, count: usize) -> Result<&[u8], StoreError> {
        let data = self.data(id)?;
        if offset > data.len() {
            return Err(StoreError::BadBlock);
        }
        Ok(&data[offset..(offset + count).min(data.len())])
    }
}

/// A family of stores beside their models, store `i` with model `i`.
struct Family {
    stores: Vec<(BlockStore, Model)>,
}

impl Family {
    fn new() -> Family {
        let store = BlockStore::with_id_range(BASE, CAPACITY);
        Family {
            stores: vec![(store, Model::default())],
        }
    }

    fn apply(&mut self, op: Op) {
        let id_at = |i: usize| ids().nth(i).expect("an index into ids()");
        let len = self.stores.len();
        let pick = |at: usize| at % len;
        match op {
            Op::Create { at, name, size } => {
                let (store, model) = &mut self.stores[pick(at)];
                let name = NAMES[name];
                assert_eq!(store.create(name, size), model.create(name, vec![0; size]));
            }
            Op::CreateWith {
                at,
                name,
                len,
                fill,
            } => {
                let (store, model) = &mut self.stores[pick(at)];
                let (name, data) = (NAMES[name], bytes(len, fill));
                assert_eq!(store.create_with(name, &data), model.create(name, data));
            }
            Op::Write {
                at,
                id,
                block,
                len,
                fill,
            } => {
                let (store, model) = &mut self.stores[pick(at)];
                let (id, data) = (id_at(id), bytes(len, fill));
                let want = model.write_block(id, block, &data);
                assert_eq!(store.write_block(id, block, &data), want, "{op:?}");
            }
            Op::Remove { at, id } => {
                let (store, model) = &mut self.stores[pick(at)];
                let id = id_at(id);
                assert_eq!(store.remove(id), model.remove(id), "{op:?}");
            }
            Op::Adopt { at, id, name, size } => {
                let (store, model) = &mut self.stores[pick(at)];
                let (id, name) = (id_at(id), NAMES[name]);
                assert_eq!(store.adopt(id, name, size), model.adopt(id, name, size));
            }
            Op::Clone { at } => {
                let copy = self.stores[pick(at)].clone();
                if len < FAMILY {
                    self.stores.push(copy);
                } else {
                    self.stores[(pick(at) + 1) % len] = copy;
                }
            }
        }
        self.check_all(op);
    }

    fn check_all(&self, after: Op) {
        for (i, (store, model)) in self.stores.iter().enumerate() {
            let at = format!("store {i} after {after:?}");
            assert_eq!(store.file_count(), model.files.len(), "{at}");
            assert_eq!(store.is_empty(), model.files.is_empty(), "{at}");
            for name in NAMES {
                let want = model.files.iter().find(|f| f.1 == name).map(|f| f.0);
                assert_eq!(store.open(name).ok(), want, "{at}: open {name}");
            }
            for id in ids() {
                let want = model.find(id);
                assert_eq!(store.len(id), want.map(|f| f.2.len()), "{at}: {id:?}");
                assert_eq!(store.name(id), want.map(|f| f.1.as_str()), "{at}: {id:?}");
                for block in 0..5 {
                    for count in [1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1] {
                        let want = model.read_block(id, block, count);
                        let got = store.read_block(id, block, count);
                        assert_eq!(got, want, "{at}: {id:?} block {block} count {count}");
                    }
                    let exists = model.read_block(id, block, BLOCK_SIZE).is_ok();
                    assert_eq!(store.has_block(id, block), exists, "{at}: {id:?}");
                }
                let size = want.map_or(0, |f| f.2.len());
                for offset in [0, 1, BLOCK_SIZE + 3, size, size + 1] {
                    for count in [0, 700, usize::MAX / 2] {
                        let want = model.read_range(id, offset, count);
                        let got = store.read_range(id, offset, count);
                        assert_eq!(got, want, "{at}: {id:?} range {offset}+{count}");
                    }
                }
            }
        }
    }
}

proptest! {
    /// Any sequence of operations leaves every store of the family
    /// reading as its deep-copied model does.
    #[test]
    fn any_sequence_matches_deep_copies(ops in prop::collection::vec(op(), 1..40)) {
        let mut family = Family::new();
        for &op in &ops {
            family.apply(op);
        }
    }
}

#[test]
fn a_write_after_a_clone_reaches_only_the_writer() {
    let mut family = Family::new();
    let steps = [
        Op::CreateWith {
            at: 0,
            name: 0,
            len: 2 * BLOCK_SIZE,
            fill: 7,
        },
        Op::Clone { at: 0 },
        Op::Clone { at: 0 },
        // The middle clone writes inside the file, the last grows it.
        Op::Write {
            at: 1,
            id: 0,
            block: 1,
            len: BLOCK_SIZE,
            fill: 9,
        },
        Op::Write {
            at: 2,
            id: 0,
            block: 3,
            len: 10,
            fill: 11,
        },
    ];
    for op in steps {
        family.apply(op);
    }
    let id = FileId(BASE);
    let lens: Vec<usize> = family
        .stores
        .iter()
        .map(|(s, _)| s.len(id).unwrap())
        .collect();
    assert_eq!(lens, [2 * BLOCK_SIZE, 2 * BLOCK_SIZE, 3 * BLOCK_SIZE + 10]);
    let first = |s: &BlockStore| s.read_block(id, 1, 1).unwrap()[0];
    let seen: Vec<u8> = family.stores.iter().map(|(s, _)| first(s)).collect();
    assert_eq!(seen, [7, 9, 7]);
}

#[test]
fn an_id_the_store_has_not_handed_out_is_not_adopted() {
    let mut store = BlockStore::with_id_range(BASE, CAPACITY);
    let boot = store.create("boot", BLOCK_SIZE).expect("a fresh store");
    let next = FileId(BASE + 1);
    assert_eq!(store.adopt(next, "lib", 0), Err(StoreError::Unissued));
    let last = FileId(BASE + CAPACITY as u16 - 1);
    assert_eq!(store.adopt(last, "lib", 0), Err(StoreError::Unissued));
    // So the next create's id names its own file and nothing else.
    assert_eq!(store.create("etc", 0), Ok(next));
    assert_eq!(store.name(next), Ok("etc"));
    assert_eq!(store.file_count(), 2);
    // A tombstoned native id comes home, and a foreign one is adopted.
    store.remove(boot).expect("created");
    assert_eq!(store.adopt(boot, "boot", BLOCK_SIZE), Ok(()));
    assert_eq!(store.adopt(FileId(FOREIGN[0]), "tmp", 0), Ok(()));
    assert_eq!(store.file_count(), 3);
}
