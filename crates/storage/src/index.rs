//! Hash indexes.
//!
//! OLTP transactions in the public benchmarks fetch a small number of tuples
//! by primary key (§5.1), so GPUTx keeps hash indexes on the device alongside
//! the column data. A unique index maps a key to a single row; a non-unique
//! index maps a key to the ordered set of matching rows (e.g. customers by
//! last name in TPC-C, call-forwarding rows by subscriber in TM1).
//!
//! Keys are packed into a canonical byte string ([`IndexKey`]) that lives
//! inline in the hash table for the short keys the benchmarks use, so a
//! probe builds its key on the stack and an entry owns no heap block. Unique
//! indexes store their row id inline next to the key.

use crate::table::RowId;
use crate::value::Value;
use crate::wire::{WireError, WireReader, WireWriter};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Encoded key bytes kept inline; longer keys spill to one boxed slice.
/// 38 bytes make an [`IndexKey`] 40 bytes, which holds every key of the
/// bundled workloads (the longest, TPC-C's customer-by-last-name key, is
/// two integers and a last name of up to 15 bytes: 35 bytes).
const INLINE_CAP: usize = 38;

const TAG_INT: u8 = 0;
const TAG_DOUBLE: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_NULL: u8 = 3;

/// One column value of an index key, borrowed: building a key from a
/// `&str` copies its bytes into the key without allocating a `String`.
#[derive(Debug, Clone, Copy)]
pub enum KeyPart<'a> {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE double, compared by bits like [`Value`].
    Double(f64),
    /// UTF-8 string.
    Str(&'a str),
    /// SQL NULL.
    Null,
}

/// A value that can be one part of an [`IndexKey`]: the integer, double and
/// string types [`Value`] converts from, owned or borrowed, and [`Value`]
/// itself.
pub trait AsKeyPart {
    /// This value as a key part, borrowing any string.
    fn as_key_part(&self) -> KeyPart<'_>;
}

impl<T: AsKeyPart + ?Sized> AsKeyPart for &T {
    fn as_key_part(&self) -> KeyPart<'_> {
        (**self).as_key_part()
    }
}

impl AsKeyPart for i64 {
    fn as_key_part(&self) -> KeyPart<'_> {
        KeyPart::Int(*self)
    }
}

impl AsKeyPart for i32 {
    fn as_key_part(&self) -> KeyPart<'_> {
        KeyPart::Int(*self as i64)
    }
}

impl AsKeyPart for u64 {
    fn as_key_part(&self) -> KeyPart<'_> {
        KeyPart::Int(*self as i64)
    }
}

impl AsKeyPart for f64 {
    fn as_key_part(&self) -> KeyPart<'_> {
        KeyPart::Double(*self)
    }
}

impl AsKeyPart for str {
    fn as_key_part(&self) -> KeyPart<'_> {
        KeyPart::Str(self)
    }
}

impl AsKeyPart for String {
    fn as_key_part(&self) -> KeyPart<'_> {
        KeyPart::Str(self)
    }
}

impl AsKeyPart for Value {
    fn as_key_part(&self) -> KeyPart<'_> {
        match self {
            Value::Int(x) => KeyPart::Int(*x),
            Value::Double(x) => KeyPart::Double(*x),
            Value::Str(s) => KeyPart::Str(s),
            Value::Null => KeyPart::Null,
        }
    }
}

impl From<KeyPart<'_>> for Value {
    fn from(p: KeyPart<'_>) -> Self {
        match p {
            KeyPart::Int(x) => Value::Int(x),
            KeyPart::Double(x) => Value::Double(x),
            KeyPart::Str(s) => Value::Str(s.to_string()),
            KeyPart::Null => Value::Null,
        }
    }
}

#[derive(Clone)]
enum KeyBytes {
    /// Keys of at most [`INLINE_CAP`] bytes; the bytes past `len` are zero.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    /// Keys longer than [`INLINE_CAP`] bytes.
    Spilled(Box<[u8]>),
}

/// Composite index key: one or more column values, packed into a canonical
/// byte string. Each part is a tag byte plus its payload: an `Int` or a
/// `Double`'s bits as 8 little-endian bytes, a `Str` as its LEB128 length
/// then its bytes, and `Null` as the tag alone. Two keys are equal exactly
/// when their value lists are equal under [`Value`]'s equality.
#[derive(Clone)]
pub struct IndexKey(KeyBytes);

/// Accumulates a key's encoding on the stack, moving to the heap only when
/// the key outgrows [`INLINE_CAP`].
struct KeyWriter {
    len: usize,
    buf: [u8; INLINE_CAP],
    spill: Vec<u8>,
}

impl KeyWriter {
    fn new() -> Self {
        KeyWriter {
            len: 0,
            buf: [0; INLINE_CAP],
            spill: Vec::new(),
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        if self.spill.is_empty() && self.len + bytes.len() <= INLINE_CAP {
            self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
            self.len += bytes.len();
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.buf[..self.len]);
            }
            self.spill.extend_from_slice(bytes);
        }
    }

    fn part(mut self, part: impl AsKeyPart) -> Self {
        match part.as_key_part() {
            KeyPart::Int(x) => {
                self.put(&[TAG_INT]);
                self.put(&x.to_le_bytes());
            }
            KeyPart::Double(x) => {
                self.put(&[TAG_DOUBLE]);
                self.put(&x.to_bits().to_le_bytes());
            }
            KeyPart::Str(s) => {
                self.put(&[TAG_STR]);
                let mut n = s.len();
                while n >= 0x80 {
                    self.put(&[(n as u8) | 0x80]);
                    n >>= 7;
                }
                self.put(&[n as u8]);
                self.put(s.as_bytes());
            }
            KeyPart::Null => self.put(&[TAG_NULL]),
        }
        self
    }

    fn finish(self) -> IndexKey {
        IndexKey(if self.spill.is_empty() {
            KeyBytes::Inline {
                len: self.len as u8,
                buf: self.buf,
            }
        } else {
            KeyBytes::Spilled(self.spill.into_boxed_slice())
        })
    }
}

impl IndexKey {
    /// Single-column key.
    pub fn single(v: impl AsKeyPart) -> Self {
        KeyWriter::new().part(v).finish()
    }

    /// Two-column composite key.
    pub fn pair(a: impl AsKeyPart, b: impl AsKeyPart) -> Self {
        KeyWriter::new().part(a).part(b).finish()
    }

    /// Three-column composite key.
    pub fn triple(a: impl AsKeyPart, b: impl AsKeyPart, c: impl AsKeyPart) -> Self {
        KeyWriter::new().part(a).part(b).part(c).finish()
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyBytes::Inline { len, buf } => &buf[..*len as usize],
            KeyBytes::Spilled(bytes) => bytes,
        }
    }

    /// The key's column values, in key order.
    pub fn parts(&self) -> impl Iterator<Item = KeyPart<'_>> + '_ {
        let mut rest = self.as_bytes();
        std::iter::from_fn(move || {
            let (&tag, tail) = rest.split_first()?;
            let (part, tail) = match tag {
                TAG_INT => {
                    let (x, tail) = tail.split_at(8);
                    (KeyPart::Int(i64::from_le_bytes(eight(x))), tail)
                }
                TAG_DOUBLE => {
                    let (x, tail) = tail.split_at(8);
                    (
                        KeyPart::Double(f64::from_bits(u64::from_le_bytes(eight(x)))),
                        tail,
                    )
                }
                TAG_STR => {
                    let (mut len, mut shift, mut used) = (0usize, 0, 0);
                    for &b in tail {
                        len |= ((b & 0x7f) as usize) << shift;
                        shift += 7;
                        used += 1;
                        if b & 0x80 == 0 {
                            break;
                        }
                    }
                    let (s, tail) = tail[used..].split_at(len);
                    let s =
                        std::str::from_utf8(s).expect("index keys hold bytes copied from a str");
                    (KeyPart::Str(s), tail)
                }
                TAG_NULL => (KeyPart::Null, tail),
                _ => unreachable!("index key tag {tag} was never encoded"),
            };
            rest = tail;
            Some(part)
        })
    }
}

fn eight(bytes: &[u8]) -> [u8; 8] {
    bytes.try_into().expect("split_at(8) yields 8 bytes")
}

impl From<Vec<Value>> for IndexKey {
    fn from(v: Vec<Value>) -> Self {
        v.iter().fold(KeyWriter::new(), KeyWriter::part).finish()
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for IndexKey {}

impl Hash for IndexKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
    }
}

impl std::fmt::Debug for IndexKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("IndexKey")
            .field(&self.parts().collect::<Vec<_>>())
            .finish()
    }
}

/// Error returned when a unique index would receive a duplicate key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateKey(pub IndexKey);

impl std::fmt::Display for DuplicateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "duplicate key {:?} in unique index", self.0)
    }
}

impl std::error::Error for DuplicateKey {}

/// Index entries: a unique index keeps its one row id inline, a non-unique
/// index the matching rows in insertion order.
#[derive(Debug, Clone, PartialEq)]
enum Entries {
    Unique(HashMap<IndexKey, RowId>),
    Multi(HashMap<IndexKey, Vec<RowId>>),
}

/// A hash index over one table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HashIndex {
    /// Name of the index.
    pub name: String,
    /// Indices of the indexed columns in the table schema.
    pub columns: Vec<usize>,
    entries: Entries,
    /// Bumped on every mutation. Access plans record the version they were
    /// resolved against so stale pre-resolved lookups can be detected and
    /// re-probed (see `gputx_txn::access`).
    version: u64,
}

/// Two indexes are equal when they index the same columns the same way and
/// hold the same entries; the mutation counter is bookkeeping, not state, so
/// it is excluded (snapshot-equality tests compare databases that arrived at
/// the same entries along different histories).
impl PartialEq for HashIndex {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.columns == other.columns && self.entries == other.entries
    }
}

impl HashIndex {
    /// Create an empty index.
    pub fn new(name: impl Into<String>, columns: Vec<usize>, unique: bool) -> Self {
        HashIndex {
            name: name.into(),
            columns,
            entries: if unique {
                Entries::Unique(HashMap::new())
            } else {
                Entries::Multi(HashMap::new())
            },
            version: 0,
        }
    }

    /// Whether keys are unique.
    pub fn is_unique(&self) -> bool {
        matches!(self.entries, Entries::Unique(_))
    }

    /// Mutation counter: incremented by every [`HashIndex::insert`] and
    /// successful [`HashIndex::remove`]. Used to revalidate pre-resolved
    /// access plans.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Build the key for a full row according to the indexed columns.
    pub fn key_of(&self, row: &[Value]) -> IndexKey {
        self.columns
            .iter()
            .fold(KeyWriter::new(), |w, &c| w.part(&row[c]))
            .finish()
    }

    /// Insert a (key, row) pair.
    pub fn insert(&mut self, key: IndexKey, row: RowId) -> Result<(), DuplicateKey> {
        match &mut self.entries {
            Entries::Unique(map) => match map.entry(key) {
                Entry::Occupied(e) => return Err(DuplicateKey(e.key().clone())),
                Entry::Vacant(e) => {
                    e.insert(row);
                }
            },
            Entries::Multi(map) => map.entry(key).or_default().push(row),
        }
        self.version += 1;
        Ok(())
    }

    /// Look up the single row for a key in a unique index.
    pub fn get_unique(&self, key: &IndexKey) -> Option<RowId> {
        match &self.entries {
            Entries::Unique(map) => map.get(key).copied(),
            Entries::Multi(map) => map.get(key).and_then(|rows| rows.first().copied()),
        }
    }

    /// Look up all rows for a key.
    pub fn get(&self, key: &IndexKey) -> &[RowId] {
        match &self.entries {
            Entries::Unique(map) => map.get(key).map(std::slice::from_ref),
            Entries::Multi(map) => map.get(key).map(Vec::as_slice),
        }
        .unwrap_or(&[])
    }

    /// Remove one (key, row) pair. Returns true if it was present.
    pub fn remove(&mut self, key: &IndexKey, row: RowId) -> bool {
        let removed = match &mut self.entries {
            Entries::Unique(map) => map.get(key) == Some(&row) && map.remove(key).is_some(),
            Entries::Multi(map) => match map.get_mut(key) {
                Some(rows) => match rows.iter().position(|&r| r == row) {
                    Some(pos) => {
                        rows.remove(pos);
                        if rows.is_empty() {
                            map.remove(key);
                        }
                        true
                    }
                    None => false,
                },
                None => false,
            },
        };
        if removed {
            self.version += 1;
        }
        removed
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        match &self.entries {
            Entries::Unique(map) => map.len(),
            Entries::Multi(map) => map.len(),
        }
    }

    /// Number of (key, row) pairs.
    fn num_rows(&self) -> usize {
        match &self.entries {
            Entries::Unique(map) => map.len(),
            Entries::Multi(map) => map.values().map(Vec::len).sum(),
        }
    }

    /// Approximate device-memory footprint of the index in bytes.
    pub fn bytes(&self) -> u64 {
        // Bucket array + one 8-byte key hash and 8-byte row id per entry.
        16 * self.num_rows() as u64 + 8 * self.num_keys() as u64
    }

    /// Encode the index definition and entries for checkpointing. Hash-map
    /// iteration order varies run to run, but equality over decoded indexes
    /// is content-based, so the byte order is immaterial.
    pub(crate) fn encode_into(&self, w: &mut WireWriter) {
        w.put_str(&self.name);
        w.put_len(self.columns.len());
        for &c in &self.columns {
            w.put_len(c);
        }
        w.put_u8(self.is_unique() as u8);
        w.put_len(self.num_keys());
        let mut put_entry = |key: &IndexKey, rows: &[RowId]| {
            w.put_len(key.parts().count());
            for part in key.parts() {
                w.put_value(&part.into());
            }
            w.put_len(rows.len());
            for &row in rows {
                w.put_u64(row);
            }
        };
        match &self.entries {
            Entries::Unique(map) => map
                .iter()
                .for_each(|(key, row)| put_entry(key, std::slice::from_ref(row))),
            Entries::Multi(map) => map.iter().for_each(|(key, rows)| put_entry(key, rows)),
        }
    }

    /// Decode an index encoded by [`HashIndex::encode_into`]. The mutation
    /// counter restarts at zero — it is bookkeeping for access-plan
    /// revalidation within one engine run, not persistent state (and it is
    /// excluded from equality for the same reason).
    pub(crate) fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let name = r.get_str()?;
        let n_cols = r.get_len()?;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            columns.push(r.get_len()?);
        }
        let unique = r.get_u8()? != 0;
        let n_entries = r.get_len()?;
        let mut idx = HashIndex::new(name, columns, unique);
        match &mut idx.entries {
            Entries::Unique(map) => map.reserve(n_entries),
            Entries::Multi(map) => map.reserve(n_entries),
        }
        for _ in 0..n_entries {
            let key_len = r.get_len()?;
            let mut key = KeyWriter::new();
            for _ in 0..key_len {
                key = key.part(r.get_value()?);
            }
            let key = key.finish();
            let n_rows = r.get_len()?;
            match &mut idx.entries {
                Entries::Unique(map) => {
                    if n_rows != 1 {
                        return Err(WireError::Invalid(format!(
                            "unique index {} decodes {n_rows} rows for one key",
                            idx.name
                        )));
                    }
                    map.insert(key, r.get_u64()?);
                }
                Entries::Multi(map) => {
                    let mut rows = Vec::with_capacity(n_rows);
                    for _ in 0..n_rows {
                        rows.push(r.get_u64()?);
                    }
                    map.insert(key, rows);
                }
            }
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn unique_index_round_trip() {
        let mut idx = HashIndex::new("pk", vec![0], true);
        idx.insert(IndexKey::single(5i64), 0).unwrap();
        idx.insert(IndexKey::single(9i64), 1).unwrap();
        assert_eq!(idx.get_unique(&IndexKey::single(5i64)), Some(0));
        assert_eq!(idx.get_unique(&IndexKey::single(7i64)), None);
        assert!(idx.insert(IndexKey::single(5i64), 2).is_err());
        assert_eq!(idx.num_keys(), 2);
    }

    #[test]
    fn non_unique_index_collects_rows() {
        let mut idx = HashIndex::new("by_name", vec![1], false);
        idx.insert(IndexKey::single("smith"), 3).unwrap();
        idx.insert(IndexKey::single("smith"), 7).unwrap();
        idx.insert(IndexKey::single("jones"), 1).unwrap();
        assert_eq!(idx.get(&IndexKey::single("smith")), &[3, 7]);
        assert_eq!(idx.get(&IndexKey::single("none")), &[] as &[RowId]);
    }

    #[test]
    fn remove_deletes_entries() {
        let mut idx = HashIndex::new("i", vec![0], false);
        idx.insert(IndexKey::single(1i64), 10).unwrap();
        idx.insert(IndexKey::single(1i64), 11).unwrap();
        assert!(idx.remove(&IndexKey::single(1i64), 10));
        assert!(!idx.remove(&IndexKey::single(1i64), 10));
        assert_eq!(idx.get(&IndexKey::single(1i64)), &[11]);
        assert!(idx.remove(&IndexKey::single(1i64), 11));
        assert_eq!(idx.num_keys(), 0);
    }

    #[test]
    fn composite_keys() {
        let mut idx = HashIndex::new("pk", vec![0, 1], true);
        idx.insert(IndexKey::pair(1i64, 2i64), 0).unwrap();
        idx.insert(IndexKey::pair(1i64, 3i64), 1).unwrap();
        assert_eq!(idx.get_unique(&IndexKey::pair(1i64, 3i64)), Some(1));
        let key3 = IndexKey::triple(1i64, 2i64, 3i64);
        assert_eq!(
            values(&key3),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn key_of_extracts_indexed_columns() {
        let idx = HashIndex::new("pk", vec![2, 0], true);
        let row = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(
            idx.key_of(&row),
            IndexKey::from(vec![Value::Int(3), Value::Int(1)])
        );
    }

    #[test]
    fn bytes_grow_with_entries() {
        let mut idx = HashIndex::new("i", vec![0], false);
        let empty = idx.bytes();
        for i in 0..100i64 {
            idx.insert(IndexKey::single(i), i as RowId).unwrap();
        }
        assert!(idx.bytes() > empty);
    }

    fn values(key: &IndexKey) -> Vec<Value> {
        key.parts().map(Value::from).collect()
    }

    fn hash_of(key: &IndexKey) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// A string whose key part alone outgrows the inline buffer.
    fn long_str(n: usize) -> String {
        "x".repeat(n)
    }

    /// Asserts that packed keys agree with `Vec<Value>` equality on `a`/`b`:
    /// equal keys, and equal hashes, exactly when the values are equal.
    fn assert_agrees(a: &[Value], b: &[Value]) {
        let (ka, kb) = (IndexKey::from(a.to_vec()), IndexKey::from(b.to_vec()));
        let equal = a == b;
        assert_eq!(ka == kb, equal, "{a:?} vs {b:?}");
        assert_eq!(hash_of(&ka) == hash_of(&kb), equal, "{a:?} vs {b:?}");
        assert_eq!(values(&ka), a);
    }

    /// Values drawn from a small pool so that equal pairs are common; the
    /// pool holds the edge cases of the encoding.
    fn pooled_value(code: u32) -> Value {
        const NAN_A: u64 = 0x7ff8_0000_0000_0001;
        const NAN_B: u64 = 0x7ff8_0000_0000_0002;
        match code {
            0 => Value::Int(0),
            1 => Value::Int(-1),
            2 => Value::Int(1.5f64.to_bits() as i64),
            3 => Value::Double(1.5),
            4 => Value::Double(0.0),
            5 => Value::Double(-0.0),
            6 => Value::Double(f64::from_bits(NAN_A)),
            7 => Value::Double(f64::from_bits(NAN_B)),
            8 => Value::Str(String::new()),
            9 => Value::Str("a".into()),
            10 => Value::Str("ab".into()),
            11 => Value::Str("bc".into()),
            12 => Value::Str("c".into()),
            13 => Value::Str(long_str(INLINE_CAP)),
            14 => Value::Str(long_str(200)),
            _ => Value::Null,
        }
    }

    fn key_values() -> impl Strategy<Value = Vec<Value>> {
        prop::collection::vec((0u32..16).prop_map(pooled_value), 1..5)
    }

    proptest! {
        #[test]
        fn prop_packed_keys_agree_with_value_equality(a in key_values(), b in key_values()) {
            assert_agrees(&a, &b);
            assert_agrees(&a, &a.clone());
        }
    }

    #[test]
    fn packed_keys_separate_the_encoding_edge_cases() {
        let s = |v: &str| Value::Str(v.into());
        let nan = |bits: u64| Value::Double(f64::from_bits(bits));
        let cases = [
            (vec![Value::Double(0.0)], vec![Value::Double(-0.0)]),
            (
                vec![nan(0x7ff8_0000_0000_0001)],
                vec![nan(0x7ff8_0000_0000_0002)],
            ),
            (
                vec![nan(0x7ff8_0000_0000_0001)],
                vec![nan(0x7ff8_0000_0000_0001)],
            ),
            (vec![Value::Null], vec![s("")]),
            (vec![s("")], vec![s("")]),
            (vec![s(""), Value::Null], vec![Value::Null, s("")]),
            (vec![s("ab"), s("c")], vec![s("a"), s("bc")]),
            (
                vec![Value::Int(2.5f64.to_bits() as i64)],
                vec![Value::Double(2.5)],
            ),
            (
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(1), Value::Int(2)],
            ),
        ];
        for (a, b) in &cases {
            assert_agrees(a, b);
        }
    }

    #[test]
    fn keys_spill_past_the_inline_boundary() {
        assert_eq!(std::mem::size_of::<IndexKey>(), INLINE_CAP + 2);
        // A string part costs a tag, a one-byte length and its bytes.
        let fits = vec![Value::Str(long_str(INLINE_CAP - 2))];
        let spills = vec![Value::Str(long_str(INLINE_CAP - 1))];
        assert!(matches!(
            IndexKey::from(fits.clone()).0,
            KeyBytes::Inline { .. }
        ));
        assert!(matches!(
            IndexKey::from(spills.clone()).0,
            KeyBytes::Spilled(_)
        ));
        assert_agrees(&fits, &spills);
        // Spilling mid-key: an inline prefix then a part that crosses over.
        let crossing = vec![Value::Int(7), Value::Str(long_str(INLINE_CAP))];
        assert!(matches!(
            IndexKey::from(crossing.clone()).0,
            KeyBytes::Spilled(_)
        ));
        assert_agrees(&crossing, &crossing.clone());
        // Lengths of 128 bytes and more take a two-byte LEB128 prefix.
        for n in [127, 128, 300, 20_000] {
            assert_agrees(&[Value::Str(long_str(n))], &[Value::Str(long_str(n))]);
            assert_agrees(&[Value::Str(long_str(n))], &[Value::Str(long_str(n + 1))]);
        }
    }

    #[test]
    fn borrowed_and_owned_parts_build_the_same_key() {
        let name = String::from("0000000042");
        let v = Value::Str(name.clone());
        assert_eq!(
            IndexKey::single(name.as_str()),
            IndexKey::single(name.clone())
        );
        assert_eq!(IndexKey::single(&name), IndexKey::single(&v));
        assert_eq!(IndexKey::single(v.clone()), IndexKey::from(vec![v]));
        assert_eq!(IndexKey::pair(3i32, 4u64), IndexKey::pair(3i64, 4i64));
    }

    #[test]
    fn checkpoint_round_trips_spilled_keys() {
        let mut unique = HashIndex::new("pk", vec![0, 1], true);
        let mut multi = HashIndex::new("by_name", vec![1], false);
        for i in 0..50i64 {
            let name = long_str(INLINE_CAP + i as usize);
            unique
                .insert(IndexKey::pair(i, name.as_str()), i as RowId)
                .unwrap();
            multi
                .insert(IndexKey::single(name.as_str()), i as RowId)
                .unwrap();
            multi
                .insert(IndexKey::single(name.as_str()), 100 + i as RowId)
                .unwrap();
        }
        for idx in [unique, multi] {
            let mut w = WireWriter::new();
            idx.encode_into(&mut w);
            let bytes = w.into_bytes();
            let decoded = HashIndex::decode(&mut WireReader::new(&bytes)).unwrap();
            assert_eq!(decoded, idx);
            assert_eq!(decoded.is_unique(), idx.is_unique());
            assert_eq!(decoded.bytes(), idx.bytes());
        }
    }

    #[test]
    fn non_unique_get_keeps_insertion_order_across_remove() {
        let mut idx = HashIndex::new("by_sub", vec![0], false);
        let key = IndexKey::single("sub");
        for row in [9, 2, 7, 4, 5] {
            idx.insert(key.clone(), row).unwrap();
        }
        assert!(idx.remove(&key, 7));
        assert_eq!(idx.get(&key), &[9, 2, 4, 5]);
        idx.insert(key.clone(), 7).unwrap();
        assert!(idx.remove(&key, 9));
        assert_eq!(idx.get(&key), &[2, 4, 5, 7]);
        assert_eq!(idx.get_unique(&key), Some(2));
    }

    #[test]
    fn unique_remove_needs_the_matching_row() {
        let mut idx = HashIndex::new("pk", vec![0], true);
        idx.insert(IndexKey::single(1i64), 10).unwrap();
        let version = idx.version();
        assert!(!idx.remove(&IndexKey::single(1i64), 11));
        assert_eq!(idx.version(), version);
        assert_eq!(idx.get(&IndexKey::single(1i64)), &[10]);
        assert!(idx.remove(&IndexKey::single(1i64), 10));
        assert_eq!(idx.version(), version + 1);
        assert_eq!(idx.get(&IndexKey::single(1i64)), &[] as &[RowId]);
    }

    #[test]
    fn duplicate_key_message_names_the_values() {
        let mut idx = HashIndex::new("pk", vec![0, 1], true);
        idx.insert(IndexKey::pair(5i64, "smith"), 0).unwrap();
        let err = idx.insert(IndexKey::pair(5i64, "smith"), 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"duplicate key IndexKey([Int(5), Str("smith")]) in unique index"#
        );
        assert_eq!(idx.get(&IndexKey::pair(5i64, "smith")), &[0]);
    }
}
