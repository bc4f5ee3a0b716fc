//! Header-slot encoding of the cluster-chaining hash table (§5.2).
//!
//! A header slot is 128 bits: a metadata word packing a 2-bit type, a
//! 14-bit *lossy incarnation* and a 48-bit offset, followed by the full
//! 64-bit key. The lossy incarnation is the low 14 bits of the entry's
//! full 32-bit incarnation and lets a remote reader detect a stale cached
//! location (incarnation checking) without any invalidation traffic.

/// Size in bytes of one header slot.
pub(crate) const SLOT_BYTES: usize = 16;

/// What a header slot points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotType {
    /// Empty slot.
    Free,
    /// Offset points to an indirect header bucket (chains the bucket).
    Header,
    /// Offset points to a key-value entry.
    Entry,
    /// Cache-only: offset is an index into the local cached-bucket pool.
    Cached,
}

impl SlotType {
    fn to_bits(self) -> u64 {
        match self {
            SlotType::Free => 0b00,
            SlotType::Header => 0b01,
            SlotType::Entry => 0b10,
            SlotType::Cached => 0b11,
        }
    }

    fn from_bits(bits: u64) -> Self {
        match bits & 0b11 {
            0b00 => SlotType::Free,
            0b01 => SlotType::Header,
            0b10 => SlotType::Entry,
            _ => SlotType::Cached,
        }
    }
}

const OFFSET_BITS: u32 = 48;
const INC_BITS: u32 = 14;
const OFFSET_MASK: u64 = (1 << OFFSET_BITS) - 1;
const INC_MASK: u64 = (1 << INC_BITS) - 1;

/// A decoded header slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Slot type (2 bits).
    pub typ: SlotType,
    /// Low 14 bits of the target entry's incarnation.
    pub lossy_inc: u16,
    /// 48-bit offset of the target (entry or indirect bucket) within the
    /// owner's region, or pool index for [`SlotType::Cached`].
    pub offset: u64,
    /// Full 64-bit key (meaningful for [`SlotType::Entry`] slots).
    pub key: u64,
}

impl Slot {
    /// The all-zero free slot.
    pub const FREE: Slot = Slot { typ: SlotType::Free, lossy_inc: 0, offset: 0, key: 0 };

    /// Creates an entry slot.
    pub fn entry(key: u64, offset: u64, full_incarnation: u32) -> Self {
        Slot {
            typ: SlotType::Entry,
            lossy_inc: (full_incarnation as u64 & INC_MASK) as u16,
            offset,
            key,
        }
    }

    /// Creates an indirect-header link slot.
    pub fn header(offset: u64) -> Self {
        Slot { typ: SlotType::Header, lossy_inc: 0, offset, key: 0 }
    }

    /// Packs into the two on-wire words `(meta, key)`.
    ///
    /// Layout of `meta`: bits 63–62 type, 61–48 lossy incarnation,
    /// 47–0 offset.
    pub fn encode(&self) -> (u64, u64) {
        debug_assert!(self.offset <= OFFSET_MASK, "offset exceeds 48 bits");
        let meta = (self.typ.to_bits() << 62)
            | ((self.lossy_inc as u64 & INC_MASK) << OFFSET_BITS)
            | (self.offset & OFFSET_MASK);
        (meta, self.key)
    }

    /// Unpacks from the two on-wire words.
    pub fn decode(meta: u64, key: u64) -> Self {
        Slot {
            typ: SlotType::from_bits(meta >> 62),
            lossy_inc: ((meta >> OFFSET_BITS) & INC_MASK) as u16,
            offset: meta & OFFSET_MASK,
            key,
        }
    }

    /// True if this slot's lossy incarnation matches the low bits of a
    /// full 32-bit incarnation (the §5.3 staleness check).
    pub fn incarnation_matches(&self, full: u32) -> bool {
        self.lossy_inc as u64 == (full as u64 & INC_MASK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        for (typ, inc, off, key) in [
            (SlotType::Free, 0u32, 0u64, 0u64),
            (SlotType::Entry, 0x3FFF, OFFSET_MASK, u64::MAX),
            (SlotType::Header, 7, 12345, 42),
            (SlotType::Cached, 1, 3, 9),
        ] {
            let s = Slot { typ, lossy_inc: (inc as u64 & INC_MASK) as u16, offset: off, key };
            let (m, k) = s.encode();
            assert_eq!(Slot::decode(m, k), s);
        }
    }

    #[test]
    fn free_decodes_from_zero_words() {
        assert_eq!(Slot::decode(0, 0), Slot::FREE);
    }

    #[test]
    fn lossy_incarnation_truncates_to_14_bits() {
        let s = Slot::entry(1, 2, 0xFFFF_FFFF);
        assert_eq!(s.lossy_inc, 0x3FFF);
        assert!(s.incarnation_matches(0xFFFF_FFFF));
        assert!(s.incarnation_matches(0x0000_3FFF));
        assert!(!s.incarnation_matches(0x0000_3FFE));
    }

    #[test]
    fn incarnation_mismatch_detects_delete() {
        // INSERT at incarnation 4, then DELETE bumps to 5: stale cached
        // slot must no longer match.
        let s = Slot::entry(10, 100, 4);
        assert!(s.incarnation_matches(4));
        assert!(!s.incarnation_matches(5));
    }
}
