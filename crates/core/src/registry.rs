//! Data-object life-cycle tracking (§5.1).
//!
//! ValueExpert intercepts allocation and deallocation to know, for every
//! address, which *data object* it belongs to — patterns are reported per
//! object, not per raw address. Shared memory has no allocation API, so
//! the whole shared space of a launch is treated as a single pseudo
//! object, exactly as the paper does.

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};
use vex_gpu::alloc::{AllocId, AllocationInfo};
use vex_gpu::ir::MemSpace;

/// Identifies the data object an access touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjectKey {
    /// A global-memory allocation.
    Global(AllocId),
    /// The per-block shared memory of a kernel (one pseudo object).
    Shared,
}

impl std::fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectKey::Global(id) => write!(f, "{id}"),
            ObjectKey::Shared => f.write_str("shared"),
        }
    }
}

/// Mirror of the device allocation table, maintained from API events.
#[derive(Debug, Default)]
pub struct ObjectRegistry {
    /// Live objects by start address.
    by_addr: BTreeMap<u64, AllocationInfo>,
    /// All objects ever seen, by id (findings may outlive frees).
    all: BTreeMap<AllocId, AllocationInfo>,
}

impl ObjectRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an allocation (from a `Malloc` API event).
    pub fn on_alloc(&mut self, info: &AllocationInfo) {
        self.by_addr.insert(info.addr, info.clone());
        self.all.insert(info.id, info.clone());
    }

    /// Removes an allocation (from a `Free` API event).
    pub fn on_free(&mut self, info: &AllocationInfo) {
        self.by_addr.remove(&info.addr);
        if let Some(i) = self.all.get_mut(&info.id) {
            i.live = false;
        }
    }

    /// The live object containing `addr` (global space), if any.
    pub fn find(&self, addr: u64) -> Option<&AllocationInfo> {
        let (_, info) = self.by_addr.range(..=addr).next_back()?;
        (addr < info.addr + info.size).then_some(info)
    }

    /// Resolves an access to its object key.
    pub fn key_for(&self, space: MemSpace, addr: u64) -> Option<ObjectKey> {
        match space {
            MemSpace::Shared => Some(ObjectKey::Shared),
            MemSpace::Global => self.find(addr).map(|i| ObjectKey::Global(i.id)),
        }
    }

    /// A cursor that resolves accesses like [`Self::key_for`], for a
    /// stretch of lookups during which the registry does not change
    /// (one record batch).
    pub fn cursor(&self) -> ObjectCursor<'_> {
        ObjectCursor {
            registry: self,
            spans: [(0, 0, AllocId(0)); ObjectCursor::SPANS],
            victim: 0,
        }
    }

    /// Metadata for object `id` (live or freed).
    pub fn info(&self, id: AllocId) -> Option<&AllocationInfo> {
        self.all.get(&id)
    }

    /// Display label for an object key.
    pub fn label(&self, key: ObjectKey) -> String {
        match key {
            ObjectKey::Shared => "shared".to_owned(),
            ObjectKey::Global(id) => {
                self.info(id).map(|i| i.label.clone()).unwrap_or_else(|| id.to_string())
            }
        }
    }

    /// Iterates live objects in address order.
    pub fn live(&self) -> impl Iterator<Item = &AllocationInfo> {
        self.by_addr.values()
    }

    /// Number of live objects.
    pub fn live_count(&self) -> usize {
        self.by_addr.len()
    }
}

/// Resolves global addresses through [`ObjectRegistry::find`] only when
/// an address leaves the spans of the last few allocations hit, so
/// accesses that stay inside a handful of objects cost a few range
/// checks each. Several spans, not one: a kernel's threads interleave
/// accesses to several objects (backprop's records change object on
/// most records), so a single remembered span would miss on most.
///
/// A remembered span is the allocation clipped at the next live
/// allocation's start: exactly the addresses for which `find` returns
/// that allocation, even if a recorded trace overlaps allocations.
#[derive(Debug)]
pub struct ObjectCursor<'a> {
    registry: &'a ObjectRegistry,
    /// `(start, len, id)` of the remembered spans; `len` 0 is unused.
    spans: [(u64, u64, AllocId); ObjectCursor::SPANS],
    /// The span the next miss replaces.
    victim: usize,
}

impl ObjectCursor<'_> {
    /// Spans remembered.
    pub(crate) const SPANS: usize = 4;

    /// Resolves an access to its object key; equal to
    /// [`ObjectRegistry::key_for`].
    #[inline]
    pub fn key_for(&mut self, space: MemSpace, addr: u64) -> Option<ObjectKey> {
        match space {
            MemSpace::Shared => Some(ObjectKey::Shared),
            MemSpace::Global => self.span(addr).map(|(span, _)| self.key(span)),
        }
    }

    /// The remembered span holding global address `addr`, if a live
    /// object does: its index below [`Self::SPANS`], and whether this
    /// call just (re)filled it. An index names the same object until a
    /// call reports it filled again.
    #[inline]
    pub(crate) fn span(&mut self, addr: u64) -> Option<(usize, bool)> {
        // The spans are disjoint, so at most one holds `addr`; scanning
        // all of them keeps the scan free of unpredictable branches.
        let mut hit = Self::SPANS;
        for (i, &(start, len, _)) in self.spans.iter().enumerate() {
            if addr.wrapping_sub(start) < len {
                hit = i;
            }
        }
        if hit < Self::SPANS {
            return Some((hit, false));
        }
        self.seek(addr).map(|span| (span, true))
    }

    /// The object key of remembered span `span`.
    #[inline]
    pub(crate) fn key(&self, span: usize) -> ObjectKey {
        ObjectKey::Global(self.spans[span].2)
    }

    /// Remembers the span holding `addr`, if a live object does, in
    /// place of the oldest remembered one.
    fn seek(&mut self, addr: u64) -> Option<usize> {
        let info = self.registry.find(addr)?;
        let next = self.registry.by_addr.range((Excluded(info.addr), Unbounded)).next();
        let end =
            next.map_or(info.addr + info.size, |(&next, _)| next.min(info.addr + info.size));
        let span = self.victim;
        self.spans[span] = (info.addr, end - info.addr, info.id);
        self.victim = (span + 1) % Self::SPANS;
        Some(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vex_gpu::callpath::CallPathId;

    fn info(id: u64, addr: u64, size: u64, label: &str) -> AllocationInfo {
        AllocationInfo {
            id: AllocId(id),
            addr,
            size,
            label: label.to_owned(),
            context: CallPathId::ROOT,
            live: true,
        }
    }

    #[test]
    fn find_and_key() {
        let mut r = ObjectRegistry::new();
        r.on_alloc(&info(1, 256, 100, "a"));
        r.on_alloc(&info(2, 512, 100, "b"));
        assert_eq!(r.find(300).unwrap().id, AllocId(1));
        assert_eq!(r.find(356), None, "gap between allocations");
        assert_eq!(r.key_for(MemSpace::Global, 512), Some(ObjectKey::Global(AllocId(2))));
        assert_eq!(r.key_for(MemSpace::Shared, 4), Some(ObjectKey::Shared));
        assert_eq!(r.live_count(), 2);
    }

    #[test]
    fn cursor_matches_key_for() {
        let mut r = ObjectRegistry::new();
        r.on_alloc(&info(1, 256, 100, "a"));
        r.on_alloc(&info(2, 356, 100, "b")); // adjacent: starts at a's end
        r.on_alloc(&info(3, 600, 200, "c"));
        r.on_alloc(&info(4, 650, 10, "d")); // overlaps c: `find` prefers d
        r.on_alloc(&info(5, 900, 0, "e")); // empty
        let mut cursor = r.cursor();
        let addrs = [
            0, 256, 300, 355, 356, 455, 456, 256, 599, 600, 649, 650, 659, 660, 799, 800, 900,
            901, 655, 610,
        ];
        for addr in addrs {
            for space in [MemSpace::Global, MemSpace::Shared] {
                assert_eq!(
                    cursor.key_for(space, addr),
                    r.key_for(space, addr),
                    "{space:?} {addr}"
                );
            }
        }
    }

    #[test]
    fn free_keeps_metadata() {
        let mut r = ObjectRegistry::new();
        let i = info(1, 256, 100, "a");
        r.on_alloc(&i);
        r.on_free(&i);
        assert_eq!(r.find(300), None);
        let dead = r.info(AllocId(1)).unwrap();
        assert!(!dead.live);
        assert_eq!(r.label(ObjectKey::Global(AllocId(1))), "a");
    }

    #[test]
    fn label_for_unknown_is_id() {
        let r = ObjectRegistry::new();
        assert_eq!(r.label(ObjectKey::Global(AllocId(9))), "obj9");
        assert_eq!(r.label(ObjectKey::Shared), "shared");
    }
}
