//! Versioned, checksummed snapshots of partial reasoning state.
//!
//! A long-running classification, realization, or EL saturation that
//! exhausts its [`Budget`](summa_guard::Budget) already returns a
//! *sound partial* — but until now that partial died with the process.
//! A [`Checkpoint`] makes it durable: the completed rows (or saturated
//! sets) are serialized with a magic tag, a format version, the
//! fingerprint of the knowledge base they were computed against, and a
//! trailing [`fx_hash`] checksum over the whole image.
//!
//! The decoder trusts nothing: short buffers, foreign magic, future
//! versions, flipped bits, truncated payloads, and checkpoints taken
//! against a *different* TBox/ABox are all rejected with a typed
//! [`CheckpointError`] — and every resume entry point degrades to a
//! clean restart on rejection rather than resuming from corrupt state.
//! That is what keeps the chaos differential suite honest: a resumed
//! run is byte-identical to an uninterrupted one, or it never resumes.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic    8 bytes  "SUMMACKP"
//! version  u32      currently 1
//! kind     u8       1 classification · 2 realization · 3 EL saturation
//! fingerprint u64   tbox (classification/EL) or tbox⊕abox (realization)
//! payload  …        kind-specific, length-prefixed collections
//! checksum u64      fx_hash of every preceding byte
//! ```

use crate::abox::{ABox, Individual};
use crate::concept::ConceptId;
use crate::fxhash::fx_hash;
use crate::tbox::TBox;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Leading magic bytes of every checkpoint image.
pub const MAGIC: [u8; 8] = *b"SUMMACKP";

/// Current format version.
pub const VERSION: u32 = 1;

const KIND_CLASSIFICATION: u8 = 1;
const KIND_REALIZATION: u8 = 2;
const KIND_EL_SATURATION: u8 = 3;

/// Why a checkpoint image was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Shorter than the fixed header + checksum.
    TooShort,
    /// The magic bytes are not `SUMMACKP`.
    BadMagic,
    /// A version this build does not know how to read.
    UnsupportedVersion(u32),
    /// The trailing fx_hash does not match the image — bit rot,
    /// truncation, or tampering.
    ChecksumMismatch,
    /// Structurally invalid payload (truncated collection, trailing
    /// garbage, unknown kind, ids outside the knowledge base, …).
    Malformed(&'static str),
    /// A well-formed checkpoint of a *different* knowledge base.
    WrongFingerprint { expected: u64, found: u64 },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::TooShort => write!(f, "checkpoint too short"),
            CheckpointError::BadMagic => write!(f, "bad checkpoint magic"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::WrongFingerprint { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match knowledge base {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// How a resumable entry point actually started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeOutcome {
    /// No checkpoint was offered.
    Fresh,
    /// The checkpoint validated; `restored` rows/facts were seeded.
    Resumed { restored: usize },
    /// The checkpoint was rejected and the run restarted cleanly.
    Restarted { why: CheckpointError },
}

/// The kind-specific payload of a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointState {
    /// Fully decided classification rows: named concept → exact
    /// subsumer set.
    Classification(BTreeMap<ConceptId, BTreeSet<ConceptId>>),
    /// Fully realized individuals: entailed types and the
    /// most-specific subset, both per individual.
    Realization {
        types: BTreeMap<Individual, BTreeSet<ConceptId>>,
        most_specific: BTreeMap<Individual, BTreeSet<ConceptId>>,
    },
    /// Partially saturated EL state: per-atom subsumer sets `S(x)`
    /// plus the role edges `R(r)` the completion rules have derived.
    /// Internal atom numbering — only meaningful to an
    /// [`ElClassifier`](crate::el::ElClassifier) built from the same
    /// TBox.
    ElSaturation {
        subsumers: Vec<BTreeSet<u32>>,
        edges: BTreeMap<(u32, u32), BTreeSet<u32>>,
    },
}

/// A durable snapshot of partial reasoning state, bound to the
/// knowledge base it was computed against by `fingerprint`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// [`tbox_fingerprint`](crate::cache::tbox_fingerprint) for
    /// classification and EL saturation; [`kb_fingerprint`] for
    /// realization.
    pub fingerprint: u64,
    pub state: CheckpointState,
}

impl Checkpoint {
    /// How many completed rows / facts the checkpoint carries.
    pub fn restorable(&self) -> usize {
        match &self.state {
            CheckpointState::Classification(rows) => rows.len(),
            CheckpointState::Realization { types, .. } => types.len(),
            CheckpointState::ElSaturation { subsumers, .. } => {
                subsumers.iter().map(BTreeSet::len).sum()
            }
        }
    }

    /// Serialize to the versioned, checksummed wire image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, VERSION);
        match &self.state {
            CheckpointState::Classification(rows) => {
                buf.push(KIND_CLASSIFICATION);
                put_u64(&mut buf, self.fingerprint);
                put_u32(&mut buf, rows.len() as u32);
                for (c, set) in rows {
                    put_u32(&mut buf, c.0);
                    put_id_set(&mut buf, set);
                }
            }
            CheckpointState::Realization {
                types,
                most_specific,
            } => {
                buf.push(KIND_REALIZATION);
                put_u64(&mut buf, self.fingerprint);
                put_u32(&mut buf, types.len() as u32);
                for (ind, set) in types {
                    put_u32(&mut buf, ind.0);
                    put_id_set(&mut buf, set);
                    // A realized individual always has both sets.
                    static EMPTY: BTreeSet<ConceptId> = BTreeSet::new();
                    put_id_set(&mut buf, most_specific.get(ind).unwrap_or(&EMPTY));
                }
            }
            CheckpointState::ElSaturation { subsumers, edges } => {
                buf.push(KIND_EL_SATURATION);
                put_u64(&mut buf, self.fingerprint);
                put_u32(&mut buf, subsumers.len() as u32);
                for set in subsumers {
                    put_u32(&mut buf, set.len() as u32);
                    for &a in set {
                        put_u32(&mut buf, a);
                    }
                }
                put_u32(&mut buf, edges.len() as u32);
                for (&(x, r), ys) in edges {
                    put_u32(&mut buf, x);
                    put_u32(&mut buf, r);
                    put_u32(&mut buf, ys.len() as u32);
                    for &y in ys {
                        put_u32(&mut buf, y);
                    }
                }
            }
        }
        let checksum = fx_hash(&buf[..]);
        put_u64(&mut buf, checksum);
        buf
    }

    /// Decode and verify a wire image. Rejects anything that is not a
    /// bit-exact, well-formed checkpoint — the caller is expected to
    /// degrade to a clean restart on `Err`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        // magic + version + kind + fingerprint + checksum
        if bytes.len() < 8 + 4 + 1 + 8 + 8 {
            return Err(CheckpointError::TooShort);
        }
        if bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let body = &bytes[..bytes.len() - 8];
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if fx_hash(body) != stored {
            return Err(CheckpointError::ChecksumMismatch);
        }
        let mut r = Reader {
            bytes: body,
            pos: 8,
        };
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let kind = r.u8()?;
        let fingerprint = r.u64()?;
        let state = match kind {
            KIND_CLASSIFICATION => {
                let n = r.u32()? as usize;
                let mut rows = BTreeMap::new();
                for _ in 0..n {
                    let c = ConceptId(r.u32()?);
                    rows.insert(c, r.id_set()?);
                }
                CheckpointState::Classification(rows)
            }
            KIND_REALIZATION => {
                let n = r.u32()? as usize;
                let mut types = BTreeMap::new();
                let mut most_specific = BTreeMap::new();
                for _ in 0..n {
                    let ind = Individual(r.u32()?);
                    types.insert(ind, r.id_set()?);
                    most_specific.insert(ind, r.id_set()?);
                }
                CheckpointState::Realization {
                    types,
                    most_specific,
                }
            }
            KIND_EL_SATURATION => {
                let n = r.u32()? as usize;
                let mut subsumers = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let k = r.u32()? as usize;
                    let mut set = BTreeSet::new();
                    for _ in 0..k {
                        set.insert(r.u32()?);
                    }
                    subsumers.push(set);
                }
                let ne = r.u32()? as usize;
                let mut edges = BTreeMap::new();
                for _ in 0..ne {
                    let x = r.u32()?;
                    let role = r.u32()?;
                    let k = r.u32()? as usize;
                    let mut ys = BTreeSet::new();
                    for _ in 0..k {
                        ys.insert(r.u32()?);
                    }
                    edges.insert((x, role), ys);
                }
                CheckpointState::ElSaturation { subsumers, edges }
            }
            _ => return Err(CheckpointError::Malformed("unknown checkpoint kind")),
        };
        if r.pos != body.len() {
            return Err(CheckpointError::Malformed("trailing bytes after payload"));
        }
        Ok(Checkpoint { fingerprint, state })
    }

    /// Decode, then additionally require the fingerprint to match the
    /// knowledge base the caller is about to resume against.
    pub fn from_bytes_for(
        bytes: &[u8],
        expected_fingerprint: u64,
    ) -> Result<Checkpoint, CheckpointError> {
        let ckp = Checkpoint::from_bytes(bytes)?;
        if ckp.fingerprint != expected_fingerprint {
            return Err(CheckpointError::WrongFingerprint {
                expected: expected_fingerprint,
                found: ckp.fingerprint,
            });
        }
        Ok(ckp)
    }
}

/// Hash an ABox into the checkpoint fingerprint space, order-
/// independently over its assertions (mirroring
/// [`tbox_fingerprint`](crate::cache::tbox_fingerprint)).
pub fn abox_fingerprint(abox: &ABox) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut acc: u64 = 0x4142_6f78_4649_5021; // arbitrary nonzero seed
    for (a, c) in abox.concept_assertions() {
        let mut h = DefaultHasher::new();
        a.hash(&mut h);
        c.nnf().hash(&mut h);
        acc = acc.wrapping_add(h.finish());
    }
    for (a, r, b) in abox.role_assertions() {
        let mut h = DefaultHasher::new();
        (a, r, b).hash(&mut h);
        acc = acc.wrapping_add(h.finish());
    }
    acc
}

/// Joint fingerprint of a (TBox, ABox) knowledge base — what
/// realization checkpoints are bound to.
pub fn kb_fingerprint(tbox: &TBox, abox: &ABox) -> u64 {
    fx_hash(&(crate::cache::tbox_fingerprint(tbox), abox_fingerprint(abox)))
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_id_set(buf: &mut Vec<u8>, set: &BTreeSet<ConceptId>) {
    put_u32(buf, set.len() as u32);
    for id in set {
        put_u32(buf, id.0);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or(CheckpointError::Malformed("truncated payload"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(CheckpointError::Malformed("truncated payload"))?;
        self.pos = end;
        Ok(u32::from_le_bytes(slice.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let end = self.pos + 8;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(CheckpointError::Malformed("truncated payload"))?;
        self.pos = end;
        Ok(u64::from_le_bytes(slice.try_into().unwrap()))
    }

    fn id_set(&mut self) -> Result<BTreeSet<ConceptId>, CheckpointError> {
        let n = self.u32()? as usize;
        let mut set = BTreeSet::new();
        for _ in 0..n {
            set.insert(ConceptId(self.u32()?));
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut rows = BTreeMap::new();
        rows.insert(
            ConceptId(0),
            [ConceptId(0), ConceptId(1)].into_iter().collect(),
        );
        rows.insert(ConceptId(1), [ConceptId(1)].into_iter().collect());
        Checkpoint {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            state: CheckpointState::Classification(rows),
        }
    }

    #[test]
    fn round_trips_every_kind() {
        let class = sample();
        assert_eq!(Checkpoint::from_bytes(&class.to_bytes()), Ok(class));

        let real = Checkpoint {
            fingerprint: 7,
            state: CheckpointState::Realization {
                types: [(Individual(0), [ConceptId(2)].into_iter().collect())]
                    .into_iter()
                    .collect(),
                most_specific: [(Individual(0), [ConceptId(2)].into_iter().collect())]
                    .into_iter()
                    .collect(),
            },
        };
        assert_eq!(Checkpoint::from_bytes(&real.to_bytes()), Ok(real));

        let el = Checkpoint {
            fingerprint: 9,
            state: CheckpointState::ElSaturation {
                subsumers: vec![[0, 2].into_iter().collect(), [1].into_iter().collect()],
                edges: [((0, 0), [1].into_iter().collect())].into_iter().collect(),
            },
        };
        assert_eq!(Checkpoint::from_bytes(&el.to_bytes()), Ok(el));
    }

    #[test]
    fn rejects_corruption_and_foreign_bytes() {
        let bytes = sample().to_bytes();

        assert_eq!(
            Checkpoint::from_bytes(&bytes[..10]),
            Err(CheckpointError::TooShort)
        );

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert_eq!(
            Checkpoint::from_bytes(&wrong_magic),
            Err(CheckpointError::BadMagic)
        );

        // Any flipped payload bit fails the checksum.
        for i in [9, 13, 21, bytes.len() - 9] {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            assert_eq!(
                Checkpoint::from_bytes(&flipped),
                Err(CheckpointError::ChecksumMismatch),
                "flipping byte {i} must be detected"
            );
        }

        // A flipped checksum byte likewise.
        let mut bad_sum = bytes.clone();
        let last = bad_sum.len() - 1;
        bad_sum[last] ^= 0x01;
        assert_eq!(
            Checkpoint::from_bytes(&bad_sum),
            Err(CheckpointError::ChecksumMismatch)
        );

        // Truncation (with the checksum recomputed to isolate the
        // structural check) is caught by the payload parser.
        let mut truncated = bytes[..bytes.len() - 12].to_vec();
        let sum = fx_hash(&truncated[..]);
        truncated.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&truncated),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_future_versions_and_wrong_fingerprints() {
        let bytes = sample().to_bytes();
        let mut future = bytes.clone();
        future[8] = 0xFE; // version low byte
        let body_len = future.len() - 8;
        let sum = fx_hash(&future[..body_len]);
        future[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&future),
            Err(CheckpointError::UnsupportedVersion(_))
        ));

        assert_eq!(
            Checkpoint::from_bytes_for(&bytes, 42),
            Err(CheckpointError::WrongFingerprint {
                expected: 42,
                found: 0xDEAD_BEEF_CAFE_F00D,
            })
        );
        assert!(Checkpoint::from_bytes_for(&bytes, 0xDEAD_BEEF_CAFE_F00D).is_ok());
    }

    #[test]
    fn abox_fingerprint_is_order_independent_and_content_sensitive() {
        use crate::concept::{Concept, Vocabulary};
        let mut voc = Vocabulary::new();
        let c = voc.concept("C");
        let d = voc.concept("D");
        let r = voc.role("r");

        let build = |flip: bool| {
            let mut abox = ABox::new();
            let a = abox.individual("a");
            let b = abox.individual("b");
            if flip {
                abox.assert_role(a, r, b);
                abox.assert_concept(b, Concept::atom(d));
                abox.assert_concept(a, Concept::atom(c));
            } else {
                abox.assert_concept(a, Concept::atom(c));
                abox.assert_concept(b, Concept::atom(d));
                abox.assert_role(a, r, b);
            }
            abox
        };
        assert_eq!(
            abox_fingerprint(&build(false)),
            abox_fingerprint(&build(true))
        );

        let mut other = build(false);
        let a = other.individual("a");
        other.assert_concept(a, Concept::atom(d));
        assert_ne!(abox_fingerprint(&build(false)), abox_fingerprint(&other));
    }
}
