package vmm

import (
	"pccsim/internal/mem"
)

// transTable is a core's persistent software translation table: a
// direct-mapped, generation-validated cache of the L1 TLB way that holds
// each recently translated page, for both the 4KB and the 2MB size class.
// It is the widened, persistent form of the step-level L0 filter (the
// single-entry register line on Core remains line 0 in front of it) and is
// the Victima-inspired move of backing translation reach with a
// cache-resident software structure instead of re-running the TLB pipeline.
//
// A slot serves an access when its generation, page and process match and
// the L1 way it names still holds the page's tag — the live-tag check,
// which tlb.Hierarchy.StampL1 performs while it replays the hit's recency
// stamp. Soundness rests on two facts:
//
//   - Every L1 fill comes from a full translation, and every full
//     translation re-arms the slot of its page (armL0) with the way
//     Translate returned. So while a slot survives, the way it names has
//     held the page since this process armed it, or holds another tag and
//     fails the check: an entry can only come back through a fill, which
//     re-arms the slot.
//   - The generation is bumped in O(1) (never a clear loop) on any
//     shootdown, demotion, translation flush or snapshot restore, so a
//     surviving slot also proves the page's mapping, size and cost have not
//     changed since it was armed.
//
// A slot hit is therefore an L1 hit on that way, and the restamp leaves
// the TLB exactly as Translate would have: results stay bit-identical
// whichever way of its set the entry sits in. The table survives across
// steps, segments and Run calls.
//
// Slot keying per class, direct-mapped by page:
//   - 4K: the exact 4KB virtual page number.
//   - 2M: the 2MB huge-page number (addr>>21). A 2M hit still serves a
//     *different* 4KB page than the arming access, so the hit path must
//     mark the page touched (the bloat metric depends on per-4KB touched
//     bits); the cached cost is safe because the NUMA penalty is constant
//     within a 2MB region (placement is per region) and the arming access
//     already performed the region's first-touch placement. noteUse2M is
//     only recorded on L1-miss paths, so a table-served L1 hit correctly
//     skips it.
//
// 1GB translations keep only the register line: they would need yet another
// slot array, and the workloads that reach 1GB mappings either run inside
// one page (register line suffices) or never repeat (no slot helps).
type transTable struct {
	slots4K []transSlot
	slots2M []transSlot
	shift4K uint // 64 - log2(len(slots4K)): see slotIndex
	shift2M uint
	gen     uint32
}

// transSlot is one entry of the translation table. page is the exact 4KB
// page number (4K class) or 2MB huge-page number (2M class) of the arming
// access, cost its base (no-TLB-miss) cycles-per-access including any NUMA
// penalty, proc the owning process ID (stored by value so arming incurs no
// write barrier), way the L1 way Translate returned for it, and gen the
// table generation at arming time — stale generations are invalid, which
// is what makes invalidation O(1).
type transSlot struct {
	page mem.PageNum
	cost float64
	proc int32
	gen  uint32
	way  int32
}

// transSlotsPerEntry sizes each class's slot array against its L1: slots
// are the smallest power of two with at least this many per L1 entry, so
// the pages the L1 holds rarely collide in the direct-mapped table.
const transSlotsPerEntry = 4

// newTransTable sizes the table to the core's L1 TLB capacities.
func newTransTable(entries4K, entries2M int) transTable {
	bits4K, bits2M := slotBits(entries4K), slotBits(entries2M)
	return transTable{
		slots4K: make([]transSlot, 1<<bits4K),
		slots2M: make([]transSlot, 1<<bits2M),
		shift4K: 64 - bits4K,
		shift2M: 64 - bits2M,
		gen:     1,
	}
}

// slotBits returns log2 of the slot-array length for an L1 of the given
// entries.
func slotBits(entries int) uint {
	b := uint(0)
	for 1<<b < transSlotsPerEntry*entries {
		b++
	}
	return b
}

// slotIndex maps a page number to its slot by Fibonacci hashing: the top
// bits of page times 2^64/phi. Unlike the page's low bits, this spreads
// the pages of arrays whose bases share their low bits (2MB-aligned
// allocations, power-of-two strides) across the table.
func slotIndex(page mem.PageNum, shift uint) uint64 {
	return uint64(page) * 0x9E3779B97F4A7C15 >> shift
}

// slot4K returns the slot of 4KB page vpn.
func (t *transTable) slot4K(vpn mem.PageNum) *transSlot {
	return &t.slots4K[slotIndex(vpn, t.shift4K)]
}

// slot2M returns the slot of 2MB page hpn.
func (t *transTable) slot2M(hpn mem.PageNum) *transSlot {
	return &t.slots2M[slotIndex(hpn, t.shift2M)]
}

// invalidate drops every slot in O(1) by bumping the generation. On the
// (practically unreachable) 32-bit wrap the slots are cleared physically so
// a slot armed 2^32 invalidations ago can never revalidate.
func (t *transTable) invalidate() {
	t.gen++
	if t.gen == 0 {
		for i := range t.slots4K {
			t.slots4K[i] = transSlot{}
		}
		for i := range t.slots2M {
			t.slots2M[i] = transSlot{}
		}
		t.gen = 1
	}
}
